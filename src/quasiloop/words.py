"""Reduced words and conjugacy classes of a finitely generated free group.

A letter is a pair ``(g, s)`` with generator index ``g >= 0`` and sign
``s = +-1``.  Inside the engine every letter is one integer code
``c = 2 g + (s < 0)`` (:func:`letter_key`): the inverse letter is
``c ^ 1``, and comparing code tuples compares words in the canonical
order (index ascending, ``+`` before ``-``).  A :class:`Word` stores its
``codes``; ``Word.letters`` decodes them to ``(g, s)`` pairs for readers
outside the engine.  Edge paths of :mod:`quasiloop.surface` are coded the
same way (``2 e + (d < 0)``), so one set of reduction and rotation
helpers serves both.

Words are kept reduced at all times (no ``x x^-1`` adjacencies).  A
conjugacy class is stored as a cyclically reduced word in a canonical
rotation, so structural equality decides conjugacy.

Letters are validated once, where they enter: the public constructor
``Word(...)`` and :func:`parse_word` check every sign and index and reduce.
Inside the engine, words whose codes are already valid and reduced are
built through the trusted constructor :func:`_word`, which checks nothing;
products cancel only at the seam (:func:`_product`), and inverses and
rotations of reduced words are not reduced again.  The pair forms graft
on code tuples alone: :func:`_graft` takes two reduced code tuples to the
canonical codes of their product's class, and :func:`_class` builds a
class from such codes once a collected term survives.

Only the abstract free group lives here; how its generators arise from a
quasi-surface presentation is the business of :mod:`quasiloop.surface`.
The coefficient ring is fixed to the integers throughout the package
(rationals enter only at evaluation time); hooks for other rings are
intentionally not provided.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Letter = tuple[int, int]
Codes = tuple[int, ...]


def letter_key(letter: Letter) -> int:
    """The code of a letter, ``2 g + (s < 0)``; its order is the canonical
    order on signed letters: index ascending, ``+`` before ``-``."""
    g, s = letter
    return 2 * g + (s < 0)


def encode(letters: Iterable[Letter]) -> Codes:
    """Codes of valid letters (or edge steps); checks nothing."""
    return tuple(map(letter_key, letters))


def decode(codes: Iterable[int]) -> tuple[Letter, ...]:
    """``(g, s)`` pairs (or edge steps) of codes."""
    return tuple((c >> 1, -1 if c & 1 else 1) for c in codes)


def _checked(letters: Iterable[Letter]) -> list[int]:
    """Codes of letters from outside, given as ``(g, s)`` pairs; raises on a
    bad sign or index."""
    out: list[int] = []
    for g, s in letters:
        if type(s) is not int or (s != 1 and s != -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        if type(g) is not int or g < 0:
            raise ValueError(f"generator index must be an integer >= 0, got {g!r}")
        out.append(2 * g + (s < 0))
    return out


def _reduce(codes: Iterable[int]) -> Codes:
    """Free reduction of codes (of letters or edge steps); checks nothing."""
    out: list[int] = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _inverse(codes: Codes) -> Codes:
    """The inverse of a reduced code sequence, reduced as it stands."""
    return tuple([c ^ 1 for c in reversed(codes)])


class Word:
    """A reduced word in the free group; the empty word is the identity."""

    __slots__ = ("codes",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.codes = _reduce(_checked(letters))

    @classmethod
    def generator(cls, g: int, sign: int = 1) -> "Word":
        return cls(((g, sign),))

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The word as ``(g, s)`` pairs, decoded on every read."""
        return decode(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        return _word(_product(self.codes, other.codes))

    def __invert__(self) -> "Word":
        return _word(_inverse(self.codes))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        result = _word(())
        for _ in range(n):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _word(codes: Codes) -> Word:
    """The trusted constructor: ``codes`` must be a tuple of codes that is
    already reduced; nothing is checked."""
    w = object.__new__(Word)
    w.codes = codes
    return w


def _product(a: Codes, b: Codes) -> Codes:
    """The product of two reduced code tuples, reduced: letters cancel only
    at the seam."""
    if not a or not b or a[-1] != b[0] ^ 1:
        return a + b
    k, n = 1, min(len(a), len(b))
    while k < n and a[-1 - k] == b[k] ^ 1:
        k += 1
    return a[: len(a) - k] + b[k:]


def _graft(a: Codes, b: Codes) -> Codes:
    """The canonical codes of the class of the product of two reduced code
    tuples: the seam cancelled, the wraparound cancelled, the least
    rotation.  Checks nothing and builds no :class:`Word`; equal to
    ``canonical_conjugacy(_word(a) * _word(b)).word.codes``."""
    return minimal_rotation(cyclic_reduction(_product(a, b)))


def cyclic_reduction(codes: Codes) -> Codes:
    """Strip inverse pairs across the wraparound of an already reduced
    code sequence."""
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[hi - 1] == codes[lo] ^ 1:
        lo += 1
        hi -= 1
    return codes[lo:hi]


def minimal_rotation(codes: Codes) -> Codes:
    """The least rotation of a code sequence.  Only the rotations that
    start at the least code are candidates, and they are compared only
    when that code repeats."""
    if len(codes) <= 1:
        return codes
    least = min(codes)
    i = codes.index(least)
    repeats = codes.count(least) - 1
    if not repeats:
        return codes[i:] + codes[:i]
    n = len(codes)
    doubled = codes + codes
    best = doubled[i : i + n]
    for _ in range(repeats):
        i = codes.index(least, i + 1)
        rotation = doubled[i : i + n]
        if rotation < best:
            best = rotation
    return best


class ConjClass:
    """A free-group conjugacy class: cyclically reduced, canonical rotation.

    Construct through :func:`canonical_conjugacy`; two instances compare
    equal exactly when the underlying group elements are conjugate.
    """

    __slots__ = ("word", "__weakref__")

    def __init__(self, word: Word):
        self.word = canonical_conjugacy(word).word

    def is_trivial(self) -> bool:
        return not self.word.codes

    def representative(self) -> Word:
        return self.word

    def __len__(self) -> int:
        return len(self.word.codes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConjClass) and self.word.codes == other.word.codes

    def __hash__(self) -> int:
        return hash(self.word.codes)

    def __repr__(self) -> str:
        return f"ConjClass({format_word(self.word)!r})"


def _class(codes: Codes) -> ConjClass:
    """The trusted class constructor: ``codes`` must already be canonical
    (cyclically reduced, least rotation), as :func:`_graft` returns them;
    nothing is checked."""
    c = object.__new__(ConjClass)
    c.word = _word(codes)
    return c


def canonical_conjugacy(w: Word) -> ConjClass:
    """Map a word to its conjugacy class: cyclic reduction, then the
    least rotation of its codes."""
    return _class(minimal_rotation(cyclic_reduction(w.codes)))


def abelianize(w: Word, rank: int) -> tuple[int, ...]:
    """Exponent-sum vector of ``w`` over ``rank`` generators."""
    vec = [0] * rank
    for c in w.codes:
        g = c >> 1
        if g >= rank:
            raise ValueError(f"generator index {g} out of range for rank {rank}")
        vec[g] += -1 if c & 1 else 1
    return tuple(vec)


# --- token serialization: "g1 g3^-1" with 1-based generator numbering ---

def format_word(w: Word) -> str:
    return " ".join([f"g{(c >> 1) + 1}^-1" if c & 1 else f"g{(c >> 1) + 1}" for c in w.codes])


def _token_number(token: str) -> "int | None":
    """The number n of a generator token ``g<n>`` written in ASCII digits
    (``isdigit`` alone also takes other scripts' digits and superscripts),
    or None for any other token."""
    digits = token[1:]
    if token.startswith("g") and digits.isascii() and digits.isdigit():
        return int(digits)
    return None


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
        number = _token_number(token)
        if number is None:
            raise ValueError(f"bad word token {token!r}")
        g = number - 1
        if g < 0 or (rank is not None and g >= rank):
            raise ValueError(f"unknown generator token {token!r}")
        letters.append((g, sign))
    return Word(letters)
