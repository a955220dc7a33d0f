import copy
import pickle
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from quasiloop.fox import algebraic_brace
from quasiloop.homotopy import gate_brace_geometric, second_bracket
from quasiloop.quasilie import jacobiator, mu_total
from quasiloop.randomcase import random_class, random_surface, random_word
from quasiloop.ring import GroupRingElement, LoopCombination
from quasiloop.traceeval import (
    _KERNELS,
    _UNROLL_MAX,
    _decimal,
    _number_text,
    RepresentationPoint,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    random_representation,
    random_unimodular,
    verify_derivation_n1,
    verify_sl2_consistency,
)
from quasiloop.words import Word, canonical_conjugacy


def test_scalar_point(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    rho = RepresentationPoint.create(1, [[[3]]])
    zw = z.representative()
    assert rho.eval_trace(LoopCombination.from_word(zw * zw)) == 9


def test_unipotent_trace(qt2):
    rho = RepresentationPoint.create(2, [[[1, 1], [0, 1]]])
    z = qt2.parse_loop("g1 g2^-1").representative()
    assert rho.eval_trace(LoopCombination.from_word(z ** 3)) == 2


def test_trace_of_identity_is_dimension():
    rho = RepresentationPoint.create(2, [[[1, 1], [0, 1]]])
    assert rho.eval_trace(LoopCombination.from_word(Word())) == 2


def test_rational_entries_and_inverses():
    rho = RepresentationPoint.create(1, [[[Fraction(2, 3)]]])
    w = Word.generator(0, -1)
    assert rho.trace_word(w) == Fraction(3, 2)


def test_singular_image_rejected():
    for image in (
        [[1, 1], [1, 1]],
        [[0, 0], [0, 0]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],
        [[1, 2, 3], [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)], [0, 1, 4]],
    ):
        with pytest.raises(ValueError, match="not invertible"):
            RepresentationPoint.create(len(image), [image])


@pytest.mark.parametrize("token", ["g\u0661", "g\u00b2", "h1"])
def test_from_json_dict_rejects_bad_generator_tokens(token):
    # "g\u0661" (an Arabic-Indic one) was once read as g1
    with pytest.raises(ValueError, match="^bad generator token "):
        RepresentationPoint.from_json_dict({"n": 1, "images": {token: [[2]]}})


def test_create_rejects_inexact_input():
    # the library route checks what the JSON route checks: a float would be
    # read as its binary value, and a bool as 0 or 1
    for n, images in (
        (1, [[[0.1]]]),
        (1, [[[True]]]),
        (2, [[[1, 0], [0, 1]], [[1, 0.5], [0, 1]]]),
        (True, [[[3]]]),
        (1.0, [[[3]]]),
        ("1", [[[3]]]),
        # an entry is an int, a Fraction or a string naming a rational; the
        # first three once ended in a bare ZeroDivisionError, TypeError and
        # unprefixed ValueError, and a Decimal was taken
        (1, [[["1/0"]]]),
        (1, [[[None]]]),
        (1, [[["x"]]]),
        (1, [[[Decimal("0.5")]]]),
        (2, [[[1, 0], [0, 1]], [[1, 0], [Fraction(1, 2), "1/0"]]]),
    ):
        with pytest.raises(ValueError, match="^malformed representation: "):
            RepresentationPoint.create(n, images)
    with pytest.raises(ValueError, match="g2 has an entry"):
        RepresentationPoint.create(1, [[[2]], [[False]]])
    assert RepresentationPoint.create(1, [[["1/10"]]]).images == (((Fraction(1, 10),),),)
    assert RepresentationPoint.create(1, [[[Fraction(1, 10)]]]).images == (((Fraction(1, 10),),),)


def test_create_rejects_rows_that_are_not_arrays():
    # a string image or row was read one character at a time: ["12", "01"]
    # gave [[1, 2], [0, 1]] and "5" gave [[5]]
    for n, images in (
        (2, [["12", "01"]]),
        (1, ["5"]),
        (1, [[["1"]], "2"]),
        (1, [{"0": ["1"]}]),
        (1, [None]),
    ):
        with pytest.raises(ValueError, match="^malformed representation: the image of g"):
            RepresentationPoint.create(n, images)
    for data in ({"n": 2, "images": {"g1": ["12", "01"]}}, {"n": 1, "images": {"g1": "5"}}):
        with pytest.raises(ValueError, match="^malformed representation: the image of g1 "):
            RepresentationPoint.from_json_dict(data)
    assert RepresentationPoint.create(1, ((("5",),),)).images == (((Fraction(5),),),)


def test_create_rejects_images_that_are_not_an_array():
    # None and 5 ended in a bare TypeError ("... object is not iterable"),
    # and a dict was read as its keys
    for images in (None, 5, {"g1": [[2]]}):
        with pytest.raises(ValueError, match="^malformed representation: the images must be an array"):
            RepresentationPoint.create(1, images)


def test_missing_generator_image(qt2):
    rho = RepresentationPoint.create(1, [[[2]]])
    with pytest.raises(ValueError, match="no matrix image"):
        rho.trace_word(Word.generator(5))


def test_trace_conjugation_invariant():
    rng = random.Random(51)
    for _ in range(30):
        qs = random_surface(rng)
        rho = random_representation(qs, 2, rng)
        w = random_word(rng, qs.rank, max_len=5)
        u = random_word(rng, qs.rank, max_len=4)
        assert rho.trace_word(w) == rho.trace_word(u * w * ~u)


def test_eval_induced_bracket_chain(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    rho = RepresentationPoint.create(1, [[[3]]])
    value = rho.eval_trace(gate_brace_geometric(qt2, "g1", [z, z]))
    assert value == 9


def test_evaluated_skew_symmetry():
    rng = random.Random(52)
    for _ in range(10):
        qs = random_surface(rng)
        rho = random_representation(qs, 2, rng)
        x = random_class(rng, qs.rank, max_len=4)
        y = random_class(rng, qs.rank, max_len=4)
        assert rho.eval_trace(second_bracket(qs, x, y)) == -rho.eval_trace(
            second_bracket(qs, y, x)
        )
        assert rho.eval_trace(second_bracket(qs, x, x)) == 0


def test_evaluated_quasi_jacobi_n3(qg1):
    rng = random.Random(53)
    for _ in range(5):
        rho = random_representation(qg1, 3, rng)
        x, y, z = (random_class(rng, qg1.rank, max_len=4) for _ in range(3))
        lhs = rho.eval_trace(jacobiator(qg1, x, y, z))
        rhs = rho.eval_trace(mu_total(qg1, x, y, z) - mu_total(qg1, y, x, z))
        assert lhs == rhs


def test_shifted_derivative_evaluates_equal(qg1):
    rng = random.Random(54)
    d = qg1.gate_derivative("g2")
    for _ in range(10):
        rho = random_representation(qg1, 2, rng)
        shift = random_word(rng, qg1.rank, max_len=3)
        xs = [LoopCombination.from_class(random_class(rng, qg1.rank, max_len=4)) for _ in range(2)]
        shifted = d.shifted(shift)
        assert rho.eval_trace(algebraic_brace([d, d], xs)) == rho.eval_trace(
            algebraic_brace([shifted, shifted], xs)
        )


def test_derivation_n1(qg1):
    rng = random.Random(55)
    for _ in range(15):
        rho = random_representation(qg1, 1, rng)
        x = random_class(rng, qg1.rank, max_len=4)
        u = random_word(rng, qg1.rank, max_len=4)
        v = random_word(rng, qg1.rank, max_len=4)
        assert verify_derivation_n1(qg1, rho, x, u, v).equal


def test_derivation_n1_trivial_factor(qg1):
    rho = random_representation(qg1, 1, 7)
    x = qg1.parse_loop("g1 g3^-1")
    u = qg1.parse_based_loop("g1 g3^-1")
    report = verify_derivation_n1(qg1, rho, x, u, Word())
    assert report.equal


def test_derivation_n1_requires_scalar(qg1):
    rho = random_representation(qg1, 2, 1)
    with pytest.raises(ValueError, match="1-dimensional"):
        verify_derivation_n1(qg1, rho, qg1.parse_loop("g1 g3^-1"), Word(), Word())


def test_sl2_consistency(qg1, qd2):
    rng = random.Random(56)
    for qs in (qg1, qd2):
        for _ in range(10):
            rho = random_representation(qs, 2, rng, det_one=True)
            x = random_class(rng, qs.rank, max_len=4)
            u = random_word(rng, qs.rank, max_len=4)
            v = random_word(rng, qs.rank, max_len=4)
            assert verify_sl2_consistency(qs, rho, x, u, v).equal


def test_sl2_consistency_inverse_pair(qg1):
    rho = random_representation(qg1, 2, 9, det_one=True)
    x = qg1.parse_loop("g1 g3^-1")
    v = qg1.parse_based_loop("g1 g4^-1 g2 g1^-1")
    assert verify_sl2_consistency(qg1, rho, x, ~v, v).equal


def test_sl2_rejects_nonunit_determinant(qg1):
    rho = RepresentationPoint.create(2, [[[2, 0], [0, 1]], [[1, 0], [0, 1]]])
    with pytest.raises(ValueError, match="determinant"):
        verify_sl2_consistency(qg1, rho, qg1.parse_loop("g1 g3^-1"), Word(), Word())


def test_random_unimodular_deterministic():
    assert random_unimodular(3, 17) == random_unimodular(3, 17)
    for seed in range(10):
        m = random_unimodular(2, seed)
        assert mat_det(m) in (1, -1)
        assert mat_det(random_unimodular(2, seed, det_one=True)) == 1
    assert random_unimodular(1, 4) in (((Fraction(1),),), ((Fraction(-1),),))


def test_matrix_helpers():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    assert mat_mul(m, mat_inverse(m)) == mat_identity(2)
    # the 0 x 0 matrix is square, of determinant 1 and its own inverse; its
    # inverse ended in a bare IndexError
    assert mat_det(()) == 1
    assert mat_inverse(()) == ()


def test_non_square_matrix_rejected():
    # ((1, 2),) once had the "inverse" ((2, 1),) and determinant 1, and a
    # 3x2 matrix ended in a bare IndexError
    one = Fraction(1)
    for bad in (((1, 2),), ((1, 2), (3, 4), (5, 6)), ((1, 2), (3,)), ((one,), (one,))):
        with pytest.raises(ValueError, match="^expected a square matrix$"):
            mat_det(bad)
        with pytest.raises(ValueError, match="^expected a square matrix$"):
            mat_inverse(bad)
    assert mat_det(((2, 1), (1, 1))) == 1
    assert mat_inverse(((2,),)) == ((Fraction(1, 2),),)


def _cofactor_det(a):
    """Reference determinant: cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _cofactor_det(tuple(row[:j] + row[j + 1 :] for row in a[1:]))
        for j in range(len(a))
    )


def _fraction_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _fraction_word(rho, w):
    """Reference word matrix: a plain Fraction product, letter by letter."""
    out = mat_identity(rho.n)
    for g, s in w.letters:
        out = _fraction_mul(out, rho.images[g] if s > 0 else rho.inverses[g])
    return out


def _rational_matrix(rng, n):
    if n > 3:
        # a unimodular matrix with its rows divided by 1 to 5: invertible,
        # and its cofactor determinant would take n! terms
        return tuple(
            tuple(x / rng.randint(1, 5) for x in row) for row in random_unimodular(n, rng)
        )
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))
            for _ in range(n)
        )
        if _cofactor_det(m) != 0:
            return m


def _reduced_word(rng, rank, length):
    letters = []
    while len(letters) < length:
        g, s = rng.randrange(rank), rng.choice((1, -1))
        if not letters or letters[-1] != (g, -s):
            letters.append((g, s))
    return Word(letters)


def test_integer_route_equals_fraction_route():
    # every n up to two past the unroll cap, so that both the unrolled and
    # the generic kernels run, and words of 0, 1, 2 and more letters, since
    # a trace meets its last letter by a pairing of its own
    rng = random.Random(58)
    sizes = range(1, _UNROLL_MAX + 3)
    points = [(n, [random_unimodular(n, rng) for _ in range(3)]) for n in sizes]
    points += [(n, [_rational_matrix(rng, n) for _ in range(3)]) for n in (1, 2, 3) for _ in range(4)]
    points += [(n, [_rational_matrix(rng, n) for _ in range(3)]) for n in (4, _UNROLL_MAX, _UNROLL_MAX + 1)]
    # rows the elimination only rescales or keeps (a zero multiplier, with
    # p != prev and with p == prev), det -1, and inverses whose common
    # denominator needs the gcd step (diag(2, 4) has inverse diag(2, 1) / 4)
    points += [
        (2, [((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((2, 0), (0, 4))]),
        (3, [((2, 1, 0), (1, 2, 0), (0, 0, 1)), ((2, 0, 0), (0, 3, 0), (0, 0, 5)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))]),
        (3, [((0, 1, 0), (1, 0, 0), (0, 0, -1)), (("1/2", 0, 0), (0, "-2/3", 0), (0, 0, 6)), ((0, 2, 0), (0, 0, 2), (2, 0, 0))]),
        (4, [((0, 0, 0, 3), (0, 0, 2, 0), (0, 5, 0, 0), (7, 0, 0, 0)), ((1, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1)), ((3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 2))]),
    ]
    for n, images in points:
        rho = RepresentationPoint.create(n, images)
        assert (n in _KERNELS) == (n <= _UNROLL_MAX)
        # create fills the letter table in one elimination per image; it is
        # the table a point built from its Fraction matrices derives
        assert rho._letters == RepresentationPoint(n, rho.images, rho.inverses)._letters
        identity = mat_identity(n)
        for m, inv in zip(rho.images, rho.inverses):
            if n <= 6:
                assert mat_det(m) == _cofactor_det(m)
                assert mat_det(inv) == 1 / _cofactor_det(m)
            assert mat_det(m) * mat_det(inv) == 1
            assert mat_inverse(m) == inv
            assert _fraction_mul(m, inv) == identity == _fraction_mul(inv, m)
        assert rho.trace_word(Word()) == rho.eval_trace(Word()) == n
        assert rho.evaluate_word(Word()) == identity
        combination, element, reference = LoopCombination.zero(), GroupRingElement.zero(), 0
        for length, coeff in zip((0, 1, 2, 3, 1, 2, 7), (3, 2, -1, 1, -2, 5, 1)):
            w = _reduced_word(rng, 3, length)
            assert len(w) == length
            expected = _fraction_word(rho, w)
            expected_trace = sum(expected[i][i] for i in range(n))
            assert rho.evaluate_word(w) == expected
            assert rho.trace_word(w) == rho.eval_trace(w) == expected_trace
            assert rho.eval_trace(canonical_conjugacy(w)) == expected_trace
            combination = combination + LoopCombination.from_word(w, coeff)
            element = element + GroupRingElement.from_word(w, coeff)
            reference += coeff * expected_trace
        assert rho.eval_trace(combination) == rho.eval_trace(element) == reference
        assert type(rho.eval_trace(element)) is type(rho.trace_word(Word())) is Fraction
        assert all(type(x) is Fraction for row in rho.evaluate_word(w) for x in row)
        # a letter with no image is named, wherever it sits in the word
        for w in (Word.generator(5), Word([(0, 1), (5, -1)]), Word([(1, 1), (0, 1), (5, 1), (7, 1)])):
            for evaluate in (rho.trace_word, rho.evaluate_word, rho.eval_trace):
                with pytest.raises(ValueError, match="^no matrix image for generator g6$"):
                    evaluate(w)
            with pytest.raises(ValueError, match="^no matrix image for generator g6$"):
                rho.eval_trace(combination + LoopCombination.from_word(w))
    assert len(_KERNELS) <= _UNROLL_MAX
    assert set(_KERNELS) <= set(range(1, _UNROLL_MAX + 1))


# Square matrices of size 1 to 5, whose cofactor determinant stays cheap:
# integer entries about half of them zero, so that zero leading pivots (row
# swaps), zero multipliers and singular matrices are frequent; the same with
# some rational entries; and unimodular matrices of determinant +-1.
_SPARSE = st.one_of(st.just(0), st.integers(-3, 3))
_RATIONAL = st.one_of(_SPARSE, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


def _squares(entries):
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@given(st.one_of(
    _squares(_SPARSE),
    _squares(_RATIONAL),
    st.builds(random_unimodular, st.integers(1, 5), st.integers(0, 2**32)),
))
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
@example([[0, Fraction(1, 2)], [2, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 1, 0], [0, 2, 0], [1, 0, 1]])
def test_elimination_equals_cofactors_and_fraction_products(rows):
    # mat_det, mat_inverse and create share one elimination; its results
    # must equal a cofactor expansion and satisfy m inv == inv m == I in
    # plain Fraction arithmetic
    n = len(rows)
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    det = _cofactor_det(m)
    assert mat_det(m) == det
    assert type(mat_det(m)) is Fraction
    if det == 0:
        with pytest.raises(ValueError, match="^matrix is not invertible$"):
            mat_inverse(m)
        with pytest.raises(ValueError, match="^matrix is not invertible$"):
            RepresentationPoint.create(n, [rows])
        return
    inv = mat_inverse(m)
    assert _fraction_mul(m, inv) == mat_identity(n) == _fraction_mul(inv, m)
    assert mat_det(inv) == 1 / det
    rho = RepresentationPoint.create(n, [rows])
    assert rho.images == (m,)
    assert rho.inverses == (inv,)
    assert rho._letters == RepresentationPoint(n, rho.images, rho.inverses)._letters


def _bracket_pairs(qs, rng, count):
    """Both brackets of ``count`` pairs of classes whose bracket has a term
    of three letters or more."""
    out = []
    while len(out) < count:
        x, y = (random_class(rng, qs.rank, max_len=5) for _ in range(2))
        xy = second_bracket(qs, x, y)
        if any(len(c) >= 3 for c in xy.terms):
            out.append((xy, second_bracket(qs, y, x)))
    return out


def test_trace_memo_gives_the_traces_of_a_fresh_point(qg1, qd2):
    # a point remembers each word's trace; evaluating one value after
    # another at one point gives what each gives at a point of its own
    rng = random.Random(59)
    for qs in (qg1, qd2):
        for n in (1, 2, 3, _UNROLL_MAX + 1):
            rho = random_representation(qs, n, rng)
            values = [v for pair in _bracket_pairs(qs, rng, 3) for v in pair]
            values.append(jacobiator(qs, *(random_class(rng, qs.rank, max_len=4) for _ in range(3))))
            for v in values:
                fresh = RepresentationPoint(rho.n, rho.images, rho.inverses)
                assert fresh._traces == {}
                assert rho.eval_trace(v) == fresh.eval_trace(v)
                for c in v.terms:
                    w = c.representative()
                    assert rho.trace_word(w) == fresh.trace_word(w) == rho.eval_trace(c)
            assert set(rho._traces) == {c.representative().codes for v in values for c in v.terms}


def test_trace_memo_computes_each_word_once(qg1):
    # the two sides of the skew law share their words; with the point's
    # kernels counted, the second side computes nothing: one trace pairing
    # per distinct word of two or more letters, and one product per letter
    # before its last two
    rng = random.Random(60)
    for n in (2, 3):
        for xy, yx in _bracket_pairs(qg1, rng, 4):
            rho = random_representation(qg1, n, rng)
            calls = Counter()

            def counted(name, kernel):
                def call(a, b):
                    calls[name] += 1
                    return kernel(a, b)
                return call

            prod, pair = rho._ops
            object.__setattr__(rho, "_ops", (counted("prod", prod), counted("pair", pair)))
            assert rho.eval_trace(xy) == -rho.eval_trace(yx)
            words = {c.representative().codes for c in (*xy.terms, *yx.terms)}
            long = [w for w in words if len(w) >= 2]
            assert calls == Counter(pair=len(long), prod=sum(len(w) - 2 for w in long))
            assert rho._traces.keys() == words
    # a letter with no image raises on every call and is not remembered
    rho = RepresentationPoint.create(1, [[[2]]])
    for _ in range(2):
        with pytest.raises(ValueError, match="^no matrix image for generator g6$"):
            rho.trace_word(Word([(0, 1), (5, 1)]))
    assert rho._traces == {}


@pytest.mark.parametrize("n", [2, _UNROLL_MAX + 1])
def test_point_pickles_and_copies(qg1, n):
    # a point's kernels are compiled code, and above the unroll cap local
    # functions; neither can be pickled, so a point is rebuilt from its
    # fields, and its memo stays behind
    rng = random.Random(61)
    rho = random_representation(qg1, n, rng)
    words = [_reduced_word(rng, qg1.rank, length) for length in (0, 1, 2, 5)]
    traces = [rho.trace_word(w) for w in words]
    matrices = [rho.evaluate_word(w) for w in words]
    for again in (pickle.loads(pickle.dumps(rho)), copy.copy(rho), copy.deepcopy(rho)):
        assert again == rho
        assert hash(again) == hash(rho)
        assert repr(again) == repr(rho)
        assert again._traces == {}
        assert [again.trace_word(w) for w in words] == traces
        assert [again.evaluate_word(w) for w in words] == matrices


@pytest.mark.parametrize("entry", ["1e4301", "1E-4301", "-2.5e+5000", "3e-20000"])
def test_create_refuses_an_exponent_past_the_digit_limit(entry):
    # Fraction builds 10 ** exponent first, which for "1e999999999" takes
    # minutes; these exponents are small enough to be built fast where they
    # are not refused (tests/test_cli.py tries the large one in a subprocess)
    with pytest.raises(ValueError, match="^malformed representation: g2 has an entry whose exponent"):
        RepresentationPoint.create(1, [[[1]], [[entry]]])


def test_create_keeps_exponents_up_to_the_digit_limit():
    rho = RepresentationPoint.create(1, [[["1e4300"]], [["25e-4300"]], [["2.5E-3"]]])
    assert rho.images == (((Fraction(10**4300),),), ((Fraction(25, 10**4300),),), ((Fraction(1, 400),),))


def read_decimal(text):
    """An int from a decimal string of any length, read in chunks that stay
    within the limit on the digits of one string-to-int conversion."""
    digits = text.lstrip("-")
    n = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text.startswith("-") else n


def test_points_past_the_digit_limit_are_written_and_read_back():
    # an entry of 4301 or more digits used to stop to_json_dict at the
    # int-to-string limit; a power-of-ten part now goes into the exponent,
    # which _entry reads back, and anything else is written in full decimal
    for rows in ([[["1e4300"]]], [[["1e-4300"]]], [[["-123e-4300"]]],
                 [[["1e4300", "3"], ["0", "1e-4300"]]]):
        rho = RepresentationPoint.create(len(rows[0]), rows)
        assert RepresentationPoint.from_json_dict(rho.to_json_dict()) == rho
    assert RepresentationPoint.create(1, [[["1e4300"]]]).to_json_dict()["images"] == {"g1": [["1e4300"]]}
    big = 7**6000 + 1
    for x in (Fraction(big), Fraction(-big, 10**4300), Fraction(1, 3 * 10**5000), Fraction(10**6000)):
        num, _, den = _number_text(x).partition("/")
        mantissa, _, exponent = num.partition("e")
        value = Fraction(read_decimal(mantissa), read_decimal(den) if den else 1)
        assert value * Fraction(10) ** int(exponent or 0) == x
    assert _number_text(Fraction(big)) == _decimal(big)
    assert _number_text(Fraction(-7, 2)) == "-7/2"
    assert _number_text(Fraction(10**4299)) == str(10**4299)
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(-(10**9000), 10**9000)
        assert read_decimal(_decimal(n)) == n


def test_representation_json_round_trip(qg1):
    rho = random_representation(qg1, 2, 3)
    data = rho.to_json_dict()
    again = RepresentationPoint.from_json_dict(data)
    assert again == rho
    assert set(data["images"]) == {"g1", "g2"}
    assert all(isinstance(x, str) for row in data["images"]["g1"] for x in row)


def test_bracket_leibniz_at_scalar_points(qg1):
    # the bracket's realizing derivation obeys the Leibniz rule; at 1x1
    # points traces are multiplicative, so the rule shows up numerically
    import random as _random

    from quasiloop.diagrams import opposite, parse_omega
    from quasiloop.homotopy import kk_pairing

    rng = _random.Random(57)
    omega = parse_omega(qg1, None)
    for _ in range(10):
        rho = random_representation(qg1, 1, rng)
        x = random_class(rng, qg1.rank, max_len=4)
        u = random_word(rng, qg1.rank, max_len=4)
        v = random_word(rng, qg1.rank, max_len=4)

        def d(w):
            return rho.eval_trace(
                kk_pairing(qg1, omega, x, w) + kk_pairing(qg1, opposite(omega), x, w)
            )

        assert d(u * v) == d(u) * rho.trace_word(v) + rho.trace_word(u) * d(v)
