import pytest
from hypothesis import given, strategies as st

from quasiloop.ring import GroupRingElement, LoopCombination, project_to_classes
from quasiloop.words import Word, canonical_conjugacy


def W(*letters):
    return Word(letters)


def elem(*pairs):
    terms = {}
    for coeff, w in pairs:
        terms[w] = terms.get(w, 0) + coeff
    return GroupRingElement(terms)


letters_st = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))
words_st = st.lists(letters_st, max_size=6).map(Word)
ring_st = st.lists(st.tuples(st.integers(-3, 3), words_st), max_size=4).map(lambda ps: elem(*ps))


def test_inverse_words_multiply_to_one():
    a = GroupRingElement.from_word(W((0, 1)))
    b = GroupRingElement.from_word(W((0, -1)))
    assert a * b == GroupRingElement.one()


def test_distributivity_by_hand():
    # (g1 + g2) * g1 = g1g1 + g2g1
    x = elem((1, W((0, 1))), (1, W((1, 1))))
    y = GroupRingElement.from_word(W((0, 1)))
    assert x * y == elem((1, W((0, 1), (0, 1))), (1, W((1, 1), (0, 1))))


def test_zero_annihilates():
    x = elem((2, W((0, 1))), (-1, W((1, -1))))
    assert GroupRingElement.zero() * x == GroupRingElement.zero()
    assert x * GroupRingElement.zero() == GroupRingElement.zero()


def test_no_zero_coefficients_stored():
    assert not elem((1, W((0, 1))), (-1, W((0, 1)))).terms
    assert (LoopCombination.from_word(W((0, 1))) - LoopCombination.from_word(W((0, 1)))).is_zero()


@given(ring_st, ring_st, ring_st)
def test_ring_associative_and_distributive(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


def test_projection_merges_cyclic_rotations():
    # p(g1g2) + p(g2g1) = 2<g1g2>
    x = elem((1, W((0, 1), (1, 1))), (1, W((1, 1), (0, 1))))
    assert project_to_classes(x) == 2 * LoopCombination.from_word(W((0, 1), (1, 1)))


def test_projection_kills_conjugation_difference():
    x = elem((1, W((0, 1), (1, 1), (0, -1))), (-1, W((1, 1))))
    assert project_to_classes(x).is_zero()


def test_projection_linear():
    x = elem((3, W((0, 1))))
    assert project_to_classes(x) == 3 * LoopCombination.from_word(W((0, 1)))


@given(ring_st, ring_st)
def test_projection_is_trace_like(x, y):
    assert project_to_classes(x * y) == project_to_classes(y * x)


def test_serialization_round_trip():
    x = elem((2, W((0, 1), (1, -1))), (-1, W()))
    assert GroupRingElement.from_pairs(x.to_pairs()) == x
    c = LoopCombination({canonical_conjugacy(W((1, 1), (0, 1))): -2})
    assert LoopCombination.from_pairs(c.to_pairs()) == c
    # canonical order: by (length, letters)
    assert x.to_pairs() == [[-1, ""], [2, "g1 g2^-1"]]


def test_collect_merges_equal_keys_and_drops_zeros():
    g1, g2 = W((0, 1)), W((1, 1))
    x = GroupRingElement.collect([(g1, 2), (g2, 1), (g1, 3), (g2, -1), (W(), 0)])
    assert x.terms == {g1: 5}
    c = canonical_conjugacy(W((0, 1), (1, 1)))
    rotated = canonical_conjugacy(W((1, 1), (0, 1)))
    assert LoopCombination.collect([(c, 1), (rotated, 1)]).terms == {c: 2}
    assert LoopCombination.collect([(c, 1), (rotated, -1)]).terms == {}
    assert GroupRingElement.collect([]) == GroupRingElement.zero()


def test_containers_of_different_keys_are_not_equal():
    assert GroupRingElement.zero() != LoopCombination.zero()
    assert GroupRingElement.zero() == GroupRingElement.zero()
    assert LoopCombination.zero() == LoopCombination.zero()


def test_containers_of_different_keys_do_not_mix():
    loops = LoopCombination.from_word(W((0, 1)))
    group = GroupRingElement.one()
    for a, b in ((LoopCombination.zero(), group), (group, loops)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            b + a
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            b - a


def test_repr():
    assert repr(GroupRingElement.zero()) == "GroupRingElement(0)"
    assert repr(LoopCombination.zero()) == "LoopCombination(0)"
    assert repr(GroupRingElement.from_pairs([[2, "g1 g2"], [-1, ""]])) == (
        "GroupRingElement(-1*[] + 2*[g1 g2])"
    )
    assert repr(LoopCombination.from_pairs([[1, "g2 g1"], [1, "g1 g2"]])) == (
        "LoopCombination(2*<g1 g2>)"
    )
