import pytest
from hypothesis import given, strategies as st

from quasiloop.fox import FoxDerivative, algebraic_brace, sandwich_derivation
from quasiloop.ring import GroupRingElement, LoopCombination, project_to_classes
from quasiloop.words import Word, canonical_conjugacy


def W(*letters):
    return Word(letters)


# image of g1 is 1, of g2 is 0
d1 = FoxDerivative([GroupRingElement.one(), GroupRingElement.zero()])

letters_st = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
words_st = st.lists(letters_st, max_size=8).map(Word)


def test_defining_image():
    assert d1.apply_word(W((0, 1))) == GroupRingElement.one()
    assert d1.apply_word(W((1, 1))).is_zero()


def test_inverse_image_forced():
    # d(g1^-1) = -g1^-1
    assert d1.apply_word(W((0, -1))) == -GroupRingElement.from_word(W((0, -1)))


def test_one_recursion_step():
    # d(g1 g1) = 1 + g1
    assert d1.apply_word(W((0, 1), (0, 1))) == GroupRingElement.one() + GroupRingElement.from_word(W((0, 1)))


@given(words_st, words_st)
def test_fox_axiom(u, v):
    lhs = d1.apply_word(u * v)
    rhs = d1.apply_word(u) + d1.apply_word(v).left_mul(u)
    assert lhs == rhs


def test_missing_image_is_an_error():
    with pytest.raises(ValueError):
        d1.apply_word(W((5, 1)))


def test_delta_square():
    # d(g1^2) = 1 + g1; conjugates of g1^2 by 1 and g1 both reduce to g1^2
    sq = W((0, 1), (0, 1))
    assert d1.delta_word(sq) == 2 * GroupRingElement.from_word(sq)


def test_delta_kills_commutator_instance():
    x = GroupRingElement.from_word(W((0, 1), (1, 1), (0, -1))) - GroupRingElement.from_word(W((1, 1)))
    assert d1.delta(x).is_zero()


def test_delta_of_unseen_generator_vanishes():
    assert d1.delta_word(W((1, 1))).is_zero()


@given(words_st, words_st)
def test_delta_annihilates_commutators(u, v):
    uv = GroupRingElement.from_word(u) * GroupRingElement.from_word(v)
    vu = GroupRingElement.from_word(v) * GroupRingElement.from_word(u)
    assert d1.delta(uv - vu).is_zero()


def class_of(*letters):
    return canonical_conjugacy(W(*letters))


def test_brace_m1_square():
    out = algebraic_brace([d1], [LoopCombination.from_class(class_of((0, 1), (0, 1)))])
    assert out == 2 * LoopCombination.from_word(W((0, 1), (0, 1)))


def test_brace_m2_generators():
    out = algebraic_brace([d1, d1], [LoopCombination.from_class(class_of((0, 1)))] * 2)
    assert out == LoopCombination.from_word(W((0, 1), (0, 1)))


def test_brace_trivial_argument_gives_zero():
    triv = LoopCombination.from_class(class_of())
    x = LoopCombination.from_class(class_of((0, 1)))
    assert algebraic_brace([d1, d1], [x, triv]).is_zero()
    assert algebraic_brace([d1], [triv]).is_zero()


@given(words_st, words_st)
def test_brace_independent_of_representative(u, w):
    # lifting through any conjugate of the canonical representative gives the same value
    x = LoopCombination.from_word(w)
    direct = algebraic_brace([d1], [x])
    shifted_rep = d1.delta_word(u * w * ~u)
    assert project_to_classes(shifted_rep) == direct


@given(st.lists(words_st, min_size=2, max_size=2), words_st)
def test_brace_equivalence_shift(args, g):
    # Shifting the derivative by g in every slot leaves the brace unchanged
    # (the conjugations telescope between factors and die under projection).
    # Shifting a single slot of an m >= 2 brace does change it in general.
    xs = [LoopCombination.from_word(w) for w in args]
    shifted = d1.shifted(g)
    assert algebraic_brace([d1, d1], xs) == algebraic_brace([shifted, shifted], xs)
    assert algebraic_brace([d1], xs[:1]) == algebraic_brace([shifted], xs[:1])


@given(st.lists(words_st, min_size=3, max_size=3))
def test_brace_cyclic_symmetry(ws):
    xs = [LoopCombination.from_word(w) for w in ws]
    ds = [d1, d1, d1]
    assert algebraic_brace(ds, xs) == algebraic_brace(ds, [xs[2], xs[0], xs[1]])


@given(words_st, words_st)
def test_delta_conjugation_covariance_under_shift(x, g):
    # delta_{d.g}(x) = g^-1 delta_d(x) g
    lhs = d1.shifted(g).delta_word(x)
    rhs = d1.delta_word(x).left_mul(~g).right_mul(g)
    assert lhs == rhs


@given(words_st, words_st, words_st)
def test_sandwich_derivation_leibniz(f, u, v):
    d = sandwich_derivation(d1, GroupRingElement.from_word(f))
    lhs = d(u * v)
    rhs = d(u).right_mul(v) + d(v).left_mul(u)
    assert lhs == rhs


def test_shift_by_identity_is_identity():
    assert d1.shifted(Word()) == d1


def test_shift_moves_image():
    shifted = d1.shifted(W((1, 1)))
    assert shifted.images[0] == GroupRingElement.from_word(W((1, 1)))


def test_serialization_round_trip():
    d = FoxDerivative([GroupRingElement.from_word(W((1, -1)), 2), GroupRingElement.one()])
    data = d.to_json_dict()
    assert data == {"g1": [[2, "g2^-1"]], "g2": [[1, ""]]}
    assert FoxDerivative.from_json_dict(data) == d


def _aug_derivation(d, w):
    # test-only helper: x -> aug(d(x)) x, a derivation inducing the same
    # class-level map as delta for a single factor, without killing [A, A]
    return sum(d.apply_word(w).terms.values()) * GroupRingElement.from_word(w)


@given(words_st, words_st)
def test_aug_derivation_is_a_derivation(u, v):
    lhs = _aug_derivation(d1, u * v)
    rhs = _aug_derivation(d1, u).right_mul(v) + _aug_derivation(d1, v).left_mul(u)
    assert lhs == rhs


@given(words_st)
def test_aug_derivation_induces_delta_on_classes(w):
    assert project_to_classes(_aug_derivation(d1, w)) == project_to_classes(d1.delta_word(w))


@pytest.mark.parametrize("token", ["g1^-1", "g1 g2", "1", "g0", "x1", "g", "", "g\u0661", "g\u00b2"])
def test_from_json_dict_rejects_bad_generator_tokens(token):
    with pytest.raises(ValueError, match="bad generator token"):
        FoxDerivative.from_json_dict({token: [[1, ""]], "g2": []})


def test_from_json_dict_rejects_token_beyond_rank():
    with pytest.raises(ValueError, match="exceeds rank"):
        FoxDerivative.from_json_dict({"g3": [[1, ""]]})


@pytest.mark.parametrize(
    "pairs",
    [[[1.5, "g1"]], [[True, "g1^-1"]], [["2", ""]], [[1, 5]], [[1, "g1", 2]], [7], ["g1"]],
    ids=["float", "bool", "string_coeff", "int_word", "triple", "bare_int", "bare_word"],
)
def test_from_json_dict_rejects_malformed_terms(pairs):
    with pytest.raises(ValueError, match="malformed combination"):
        FoxDerivative.from_json_dict({"g1": pairs})


def test_from_json_dict_does_not_coerce_coefficients():
    # coefficients were once read with int(), so this was 2*[] + 1*[g1] + 1*[g1^-1]
    with pytest.raises(ValueError, match="malformed combination"):
        FoxDerivative.from_json_dict({"g1": [[1.5, "g1"], [True, "g1^-1"], ["2", ""]]})
    assert FoxDerivative.from_json_dict({"g1": [[2, ""], [-1, "g1^-1"]]}).images[0].to_pairs() == [
        [2, ""], [-1, "g1^-1"]
    ]
