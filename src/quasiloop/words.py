"""Reduced words and conjugacy classes of a finitely generated free group.

A letter is a pair ``(g, s)`` with generator index ``g >= 0`` and sign
``s = +-1``.  Words are kept reduced at all times (no ``x x^-1``
adjacencies).  A conjugacy class is stored as a cyclically reduced word in
a canonical rotation, so structural equality decides conjugacy.

Letters are validated once, where they enter: the public constructor
``Word(...)`` and :func:`parse_word` check every sign and index and reduce.
Inside the engine, words whose letters are already valid and reduced are
built through the trusted constructor :func:`_word`, which checks nothing;
products cancel only at the seam, and inverses and rotations of reduced
words are not reduced again.

Only the abstract free group lives here; how its generators arise from a
quasi-surface presentation is the business of :mod:`quasiloop.surface`.
The coefficient ring is fixed to the integers throughout the package
(rationals enter only at evaluation time); hooks for other rings are
intentionally not provided.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Letter = tuple[int, int]


def _checked(letters: Iterable[Letter]) -> list[Letter]:
    """Letters from outside, as ``(g, s)`` tuples; raises on a bad sign or index."""
    out: list[Letter] = []
    for g, s in letters:
        if type(s) is not int or (s != 1 and s != -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        if type(g) is not int or g < 0:
            raise ValueError(f"generator index must be an integer >= 0, got {g!r}")
        out.append((g, s))
    return out


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Free reduction of valid letters (or edge steps); checks nothing."""
    out: list[Letter] = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def letter_key(letter: Letter) -> int:
    """Total order on signed letters: index ascending, ``+`` before ``-``."""
    g, s = letter
    return 2 * g + (0 if s > 0 else 1)


class Word:
    """A reduced word in the free group; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters = _reduce(_checked(letters))

    @classmethod
    def generator(cls, g: int, sign: int = 1) -> "Word":
        return cls(((g, sign),))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n:
            g, s = a[-1 - k]
            h, t = b[k]
            if g != h or s != -t:
                break
            k += 1
        return _word(a[: len(a) - k] + b[k:])

    def __invert__(self) -> "Word":
        return _word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        result = _word(())
        for _ in range(n):
            result = result * self
        return result

    def conjugated_by(self, u: "Word") -> "Word":
        """Return ``u w u^-1``."""
        return u * self * ~u

    def key(self) -> tuple[int, ...]:
        return tuple(letter_key(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _word(letters: tuple[Letter, ...]) -> Word:
    """The trusted constructor: ``letters`` must be a tuple of valid letters
    that is already reduced; nothing is checked."""
    w = object.__new__(Word)
    w.letters = letters
    return w


def commutator(a: Word, b: Word) -> Word:
    return a * b * ~a * ~b


def cyclic_reduction(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Strip inverse pairs across the wraparound of an already reduced word."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2:
        g, s = letters[lo]
        if letters[hi - 1] == (g, -s):
            lo += 1
            hi -= 1
        else:
            break
    return letters[lo:hi]


def minimal_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The rotation whose :func:`letter_key` sequence is least; only the
    rotations that start at the least key are compared."""
    if len(letters) <= 1:
        return letters
    keys = [2 * g + (s < 0) for g, s in letters]  # letter_key, inlined
    least = min(keys)
    starts = [i for i, k in enumerate(keys) if k == least]
    best = starts[0]
    if len(starts) > 1:
        n = len(keys)
        keys += keys
        best = min(starts, key=lambda i: keys[i : i + n])
    return letters[best:] + letters[:best]


class ConjClass:
    """A free-group conjugacy class: cyclically reduced, canonical rotation.

    Construct through :func:`canonical_conjugacy`; two instances compare
    equal exactly when the underlying group elements are conjugate.
    """

    __slots__ = ("word",)

    def __init__(self, word: Word, _canonical: bool = False):
        if not _canonical:
            word = canonical_conjugacy(word).word
        self.word = word

    def is_trivial(self) -> bool:
        return word_is_trivial(self.word)

    def representative(self) -> Word:
        return self.word

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConjClass) and self.word == other.word

    def __hash__(self) -> int:
        return hash((ConjClass, self.word.letters))

    def key(self) -> tuple:
        return (len(self.word), self.word.key())

    def __repr__(self) -> str:
        return f"ConjClass({format_word(self.word)!r})"


def word_is_trivial(word: Word) -> bool:
    return not word.letters


def canonical_conjugacy(w: Word) -> ConjClass:
    """Map a word to its conjugacy class: cyclic reduction, then the
    lexicographically minimal rotation under :func:`letter_key`."""
    letters = minimal_rotation(cyclic_reduction(w.letters))
    return ConjClass(_word(letters), _canonical=True)


def abelianize(w: Word, rank: int) -> tuple[int, ...]:
    """Exponent-sum vector of ``w`` over ``rank`` generators."""
    vec = [0] * rank
    for g, s in w.letters:
        if g >= rank:
            raise ValueError(f"generator index {g} out of range for rank {rank}")
        vec[g] += s
    return tuple(vec)


# --- token serialization: "g1 g3^-1" with 1-based generator numbering ---

def format_word(w: Word) -> str:
    return " ".join(f"g{g + 1}" if s > 0 else f"g{g + 1}^-1" for g, s in w.letters)


def parse_word(text: str, rank: int | None = None) -> Word:
    letters: list[Letter] = []
    stripped = text.strip()
    if stripped in ("", "1"):
        return Word()
    for token in stripped.split():
        sign = 1
        if token.endswith("^-1"):
            sign = -1
            token = token[:-3]
        if not token.startswith("g") or not token[1:].isdigit():
            raise ValueError(f"bad word token {token!r}")
        g = int(token[1:]) - 1
        if g < 0 or (rank is not None and g >= rank):
            raise ValueError(f"unknown generator token {token!r}")
        letters.append((g, sign))
    return Word(letters)
