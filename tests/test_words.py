import pytest
from hypothesis import given, strategies as st

from quasiloop.words import (
    Word,
    _reduce,
    abelianize,
    canonical_conjugacy,
    commutator,
    format_word,
    parse_word,
)


def W(*letters):
    return Word(letters)


letters_st = st.tuples(st.integers(0, 3), st.sampled_from((1, -1)))
words_st = st.lists(letters_st, max_size=12).map(Word)


def test_reduce_inverse_pair_cancels():
    assert W((0, 1), (0, -1)) == Word()
    # edge paths of a surface reduce with the same helper
    assert _reduce(((0, 1), (0, -1), (2, 1))) == ((2, 1),)


def test_reduce_inner_cancellation():
    # g1 g2 g2^-1 g1 -> g1 g1, by hand
    assert W((0, 1), (1, 1), (1, -1), (0, 1)) == W((0, 1), (0, 1))


def test_reduce_empty():
    assert Word() == Word(())
    assert Word().is_identity()


def test_mul_and_inverse():
    w = W((0, 1), (1, -1))
    assert w * ~w == Word()
    assert ~~w == w
    assert w ** 0 == Word()
    assert w ** -2 == ~(w * w)


def test_canonical_conjugacy_kills_conjugation():
    # g1 g2 g1^-1 ~ g2
    assert canonical_conjugacy(W((0, 1), (1, 1), (0, -1))) == canonical_conjugacy(W((1, 1)))


def test_canonical_rotation_by_letter_order():
    # g2 g1 rotates to g1 g2
    assert canonical_conjugacy(W((1, 1), (0, 1))).word == W((0, 1), (1, 1))


def test_canonical_identity_class():
    assert canonical_conjugacy(Word()).is_trivial()


def test_positive_sign_sorts_before_negative():
    # canonical rotation of the cyclic word g1^-1 g1 ... cannot occur (reduced);
    # use g1 g2^-1: minimal rotation starts at g1, not g2^-1
    assert canonical_conjugacy(W((1, -1), (0, 1))).word == W((0, 1), (1, -1))


@given(words_st, words_st)
def test_conjugation_invariance(u, w):
    assert canonical_conjugacy(w.conjugated_by(u)) == canonical_conjugacy(w)


@given(words_st)
def test_class_representative_round_trip(w):
    c = canonical_conjugacy(w)
    assert canonical_conjugacy(c.representative()) == c


def test_abelianize_commutator_vanishes():
    assert abelianize(commutator(W((0, 1)), W((1, 1))), 2) == (0, 0)


def test_abelianize_counts_exponents():
    assert abelianize(W((0, 1), (0, 1), (1, -1)), 2) == (2, -1)
    assert abelianize(Word(), 2) == (0, 0)


@given(words_st, words_st)
def test_abelianize_factors_through_conjugacy(u, w):
    rank = 4
    assert abelianize(w.conjugated_by(u), rank) == abelianize(
        canonical_conjugacy(w).representative(), rank
    )


def test_format_parse_round_trip():
    w = W((0, 1), (2, -1), (0, -1))
    assert parse_word(format_word(w)) == w
    assert format_word(w) == "g1 g3^-1 g1^-1"
    assert parse_word("") == Word()
    assert parse_word("1") == Word()


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_word("h1")
    with pytest.raises(ValueError):
        parse_word("g2", rank=1)


def test_class_equality_is_conjugacy_not_inversion():
    w = W((0, 1), (1, -1))
    assert canonical_conjugacy(w) != canonical_conjugacy(~w)
