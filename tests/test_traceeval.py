import random
from fractions import Fraction

import pytest

from quasiloop.fox import algebraic_brace
from quasiloop.homotopy import gate_brace_geometric, second_bracket
from quasiloop.quasilie import jacobiator, mu_total
from quasiloop.randomcase import random_class, random_surface, random_word
from quasiloop.ring import LoopCombination
from quasiloop.traceeval import (
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
from quasiloop.words import Word


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
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))
            for _ in range(n)
        )
        if _cofactor_det(m) != 0:
            return m


def test_integer_route_equals_fraction_route():
    rng = random.Random(58)
    points = [(n, [random_unimodular(n, rng) for _ in range(3)]) for n in range(1, 7)]
    points += [(n, [_rational_matrix(rng, n) for _ in range(3)]) for n in (1, 2, 3) for _ in range(4)]
    for n, images in points:
        rho = RepresentationPoint.create(n, images)
        identity = mat_identity(n)
        for m, inv in zip(rho.images, rho.inverses):
            assert mat_det(m) == _cofactor_det(m)
            assert mat_det(inv) == 1 / _cofactor_det(m)
            assert mat_inverse(m) == inv
            assert _fraction_mul(m, inv) == identity == _fraction_mul(inv, m)
        assert rho.trace_word(Word()) == n
        assert rho.evaluate_word(Word()) == identity
        combination = LoopCombination.zero()
        for coeff in (2, -1, 1):
            w = random_word(rng, 3, max_len=8)
            expected = _fraction_word(rho, w)
            assert rho.evaluate_word(w) == expected
            assert rho.trace_word(w) == rho.eval_trace(w) == sum(expected[i][i] for i in range(n))
            combination = combination + LoopCombination.from_word(w, coeff)
        assert rho.eval_trace(combination) == sum(
            c * sum(_fraction_word(rho, k.representative())[i][i] for i in range(n))
            for k, c in combination.terms.items()
        )
        assert all(type(x) is Fraction for row in rho.evaluate_word(w) for x in row)


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
