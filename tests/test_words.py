import random

import pytest
from hypothesis import given, strategies as st

from quasiloop.words import (
    Word,
    _graft,
    _inverse,
    _reduce,
    _word,
    abelianize,
    canonical_conjugacy,
    cyclic_reduction,
    decode,
    encode,
    format_word,
    letter_key,
    minimal_rotation,
    parse_word,
)


def W(*letters):
    return Word(letters)


letters_st = st.tuples(st.integers(0, 3), st.sampled_from((1, -1)))
words_st = st.lists(letters_st, max_size=12).map(Word)


def test_reduce_inverse_pair_cancels():
    assert W((0, 1), (0, -1)) == Word()
    # edge paths of a surface, coded as letters are, reduce with the same helper
    assert _reduce(encode(((0, 1), (0, -1), (2, 1)))) == encode(((2, 1),))


def test_reduce_inner_cancellation():
    # g1 g2 g2^-1 g1 -> g1 g1, by hand
    assert W((0, 1), (1, 1), (1, -1), (0, 1)) == W((0, 1), (0, 1))


def test_reduce_empty():
    assert Word() == Word(())
    assert not Word()


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
    assert canonical_conjugacy(u * w * ~u) == canonical_conjugacy(w)


@given(words_st)
def test_class_representative_round_trip(w):
    c = canonical_conjugacy(w)
    assert canonical_conjugacy(c.representative()) == c


def test_abelianize_commutator_vanishes():
    assert abelianize(W((0, 1)) * W((1, 1)) * W((0, -1)) * W((1, -1)), 2) == (0, 0)


def test_abelianize_counts_exponents():
    assert abelianize(W((0, 1), (0, 1), (1, -1)), 2) == (2, -1)
    assert abelianize(Word(), 2) == (0, 0)


@given(words_st, words_st)
def test_abelianize_factors_through_conjugacy(u, w):
    rank = 4
    assert abelianize(u * w * ~u, rank) == abelianize(
        canonical_conjugacy(w).representative(), rank
    )


def test_format_parse_round_trip():
    w = W((0, 1), (2, -1), (0, -1))
    assert parse_word(format_word(w)) == w
    assert format_word(w) == "g1 g3^-1 g1^-1"
    assert parse_word("") == Word()
    assert parse_word("1") == Word()


@pytest.mark.parametrize(
    "letter",
    [(0, 2), (0, 0), (-1, 1), (1.5, 1), (0, True), (0, 1.0)],
    ids=["sign_2", "sign_0", "negative_index", "float_index", "bool_sign", "float_sign"],
)
def test_word_rejects_bad_letters(letter):
    with pytest.raises(ValueError):
        Word([(0, 1), letter])


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_word("h1")
    with pytest.raises(ValueError):
        parse_word("g2", rank=1)


@pytest.mark.parametrize("text", ["g\u0661 g2", "g\u00b2", "g\uff11", "g1 g\u0662^-1"],
                         ids=["arabic_indic_one", "superscript_two", "fullwidth_one", "inverse"])
def test_parse_takes_only_ascii_digits(text):
    # str.isdigit also takes other scripts' digits: "g\u0661 g2" was once read
    # as g1 g2, and "g\u00b2" failed inside int() with another message
    with pytest.raises(ValueError, match="^bad word token "):
        parse_word(text)


def test_class_equality_is_conjugacy_not_inversion():
    w = W((0, 1), (1, -1))
    assert canonical_conjugacy(w) != canonical_conjugacy(~w)


# --- the word kernels against plain references ---------------------------


def plain_reduce(letters):
    """Reference: check every letter and reduce the whole sequence."""
    out = []
    for g, s in letters:
        assert s in (1, -1) and g >= 0
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def plain_minimal_rotation(letters):
    """Reference: the least of all rotations, each compared as a key tuple."""
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))] or [letters]
    return min(rotations, key=lambda r: tuple(letter_key(l) for l in r))


@given(words_st, words_st)
def test_seam_product_equals_full_reduction(u, w):
    assert (u * w).letters == plain_reduce(u.letters + w.letters)
    assert (~u).letters == plain_reduce((g, -s) for g, s in reversed(u.letters))


def test_seam_product_cancels_across_the_whole_seam():
    rng = random.Random(21)
    def word():
        return Word((rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(16)))

    for _ in range(300):
        u, v, w = word(), word(), word()
        # the seam of (v u^-1) * (u w) cancels all of u and may go on
        left, right = v * ~u, u * w
        assert (left * right).letters == plain_reduce(left.letters + right.letters)
        assert (u * ~u).letters == ()


def repeated_least_words():
    g1, g2, g3 = (0, 1), (1, 1), (2, 1)
    inv = lambda l: (l[0], -l[1])
    yield (g1, g2, g1, inv(g2))
    for n in range(1, 9):
        yield (g1, g2) * n
        yield (g1, g1, g2) * n
        yield (g1, g2, g1, inv(g2)) * (n % 4 + 1) + (g3,)
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randint(1, 32)
        yield tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(n))


def test_minimal_rotation_equals_brute_force():
    for letters in repeated_least_words():
        assert minimal_rotation(encode(letters)) == encode(plain_minimal_rotation(letters))


def test_minimal_rotation_of_edge_paths(qd2, qg1):
    # edge paths share the letter code and the rotation helper
    rng = random.Random(23)
    for qs in (qd2, qg1):
        for _ in range(100):
            w = Word((rng.randrange(qs.rank), rng.choice((1, -1))) for _ in range(rng.randint(1, 10)))
            path = qs.edge_path_of_word(w * w)
            assert minimal_rotation(encode(path)) == encode(plain_minimal_rotation(path))


# --- the letter code against plain (g, s) references ------------------------

def plain_cyclic_reduction(letters):
    """Reference: strip inverse pairs across the wraparound, one at a time."""
    letters = tuple(letters)
    while len(letters) >= 2 and letters[-1] == (letters[0][0], -letters[0][1]):
        letters = letters[1:-1]
    return letters


# few generators, so that letters cancel, and indices past 127
wide_letters_st = st.tuples(st.sampled_from((0, 1, 127, 128, 255, 4096)), st.sampled_from((1, -1)))
wide_lists_st = st.lists(wide_letters_st, max_size=64)


@given(wide_lists_st, wide_lists_st, wide_lists_st)
def test_codes_agree_with_letter_references(a, b, c):
    u, w, v = Word(a), Word(b), Word(c)
    assert u.letters == plain_reduce(a) and w.letters == plain_reduce(b)
    assert decode(encode(a)) == tuple(a)
    assert _reduce(encode(a)) == u.codes == encode(plain_reduce(a))
    assert (u * w).letters == plain_reduce(u.letters + w.letters)
    # the seam of (v u^-1) * (u w) cancels all of u and may go on
    left, right = v * ~u, u * w
    assert (left * right).letters == plain_reduce(left.letters + right.letters)
    assert (~u).letters == plain_reduce((g, -s) for g, s in reversed(u.letters))
    cyclic = plain_cyclic_reduction(u.letters)
    assert decode(cyclic_reduction(u.codes)) == cyclic
    assert decode(minimal_rotation(encode(cyclic))) == plain_minimal_rotation(cyclic)
    assert canonical_conjugacy(u).word.letters == plain_minimal_rotation(cyclic)


# --- the graft kernel against the Word route ----------------------------------

def word_route_graft(a, b):
    """Reference: the product of two words, then its class, through Word."""
    return canonical_conjugacy(_word(a) * _word(b)).word.codes


def plain_graft(a, b):
    """Reference on (g, s) pairs: full reduction, cyclic reduction, least rotation."""
    cyclic = plain_cyclic_reduction(plain_reduce(decode(a) + decode(b)))
    return encode(plain_minimal_rotation(cyclic))


@given(wide_lists_st, wide_lists_st)
def test_graft_equals_word_route(a, b):
    u, v = Word(a).codes, Word(b).codes
    assert _graft(u, v) == word_route_graft(u, v) == plain_graft(u, v)
    assert _graft(u, _inverse(u)) == ()
    # the seam of u * (u^-1 v) cancels all of u and may go on
    w = Word(decode(_inverse(u)) + tuple(b)).codes
    assert _graft(u, w) == word_route_graft(u, w) == plain_graft(u, w)


def test_graft_seeded_cases():
    rng = random.Random(141)

    def codes(n, gens=3):
        return Word((rng.randrange(gens), rng.choice((1, -1))) for _ in range(n)).codes

    cases = []
    for c in range(8):
        # one-letter words: equal, inverse, and any other letter
        cases += [((c,), (c,)), ((c,), (c ^ 1,)), ((c,), (7 - c,)), ((c,), ()), ((), (c,))]
    for _ in range(300):
        p, q, r, s = (codes(rng.randrange(6)) for _ in range(4))
        # full cancellation, and a seam cancellation (s) that leaves p ... p^-1
        # to cancel across the wraparound
        a = Word(decode(p + q + s)).codes
        b = Word(decode(_inverse(s) + r + _inverse(p))).codes
        cases += [(a, _inverse(a)), (a, b), (b, a)]
    for letters in repeated_least_words():
        # repeated least codes, split at every point
        full = Word(letters).codes
        cases += [(full[:i], full[i:]) for i in range(len(full) + 1)]
    for a, b in cases:
        assert _graft(a, b) == word_route_graft(a, b) == plain_graft(a, b)
    assert all(_graft(a, _inverse(a)) == () for a, _ in cases)
    # the wraparound case reaches the wraparound: p q s * s^-1 r p^-1 ~ q r
    p, q, r, s = (0, 2), (4,), (6,), (2, 2)
    a, b = p + q + s, _inverse(s) + r + _inverse(p)
    assert _graft(a, b) == word_route_graft(a, b) == (4, 6)
