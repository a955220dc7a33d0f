"""Exact integer arithmetic in the group algebra A = Z[F] of a free group
and in its commutator quotient, realized as combinations of conjugacy
classes.

``GroupRingElement`` is a finite map reduced word -> integer; the product
is the bilinear extension of concatenation.  ``LoopCombination`` is the
image module: a finite map conjugacy class -> integer.  Both are free
Z-modules on their keys and share one container, which never stores a
zero coefficient; sums of many terms go through :meth:`collect`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .words import Codes, ConjClass, Word, _class, canonical_conjugacy, format_word, parse_word


class _Combination:
    """A finite integer combination of keys, with no zero coefficients.

    Subclasses fix the key type: ``_key`` maps a word to its key,
    ``_word`` maps a key back to the word it prints as, and ``_brackets``
    enclose that word in ``repr``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def collect(cls, pairs: Iterable[tuple]):
        """The sum of ``(key, coeff)`` pairs, merged into one dict; zero
        coefficients are dropped once, at the end."""
        terms: dict = {}
        for k, c in pairs:
            terms[k] = terms.get(k, 0) + c
        return cls(terms)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1):
        return cls({cls._key(w): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.terms.items())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return type(self)(terms)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return type(self)({k: scalar * c for k, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple]:
        """The terms, shortest word first, then by codes."""
        word = self._word
        return sorted(self.terms.items(), key=lambda t: (len(codes := word(t[0]).codes), codes))

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        left, right = self._brackets
        parts = [f"{c}*{left}{format_word(self._word(k))}{right}" for k, c in self.sorted_terms()]
        return f"{name}(" + " + ".join(parts) + ")"

    def to_pairs(self) -> list[list]:
        return [[c, format_word(self._word(k))] for k, c in self.sorted_terms()]

    @classmethod
    def from_pairs(cls, pairs: Iterable, rank: int | None = None):
        """The combination of ``[coeff, "word"]`` pairs, as :meth:`to_pairs`
        writes them; a coefficient must be an ``int`` (not a ``bool``) and
        a word a string, nothing is coerced."""
        return cls.collect(cls._read_pair(pair, rank) for pair in pairs)

    @classmethod
    def _read_pair(cls, pair, rank: int | None) -> tuple:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is str):
            raise ValueError(f"malformed combination: a term is an [integer, word] pair, got {pair!r}")
        coeff, text = pair
        return cls._key(parse_word(text, rank)), coeff


class GroupRingElement(_Combination):
    """An element of Z[F]: finitely many reduced words with integer coefficients."""

    __slots__ = ()

    _brackets = "[]"

    @staticmethod
    def _key(w: Word) -> Word:
        return w

    _word = _key

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls.from_word(Word())

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement.collect(
            (u * v, a * b) for u, a in self.terms.items() for v, b in other.terms.items()
        )

    def left_mul(self, w: Word) -> "GroupRingElement":
        return GroupRingElement({w * u: c for u, c in self.terms.items()})

    def right_mul(self, w: Word) -> "GroupRingElement":
        return GroupRingElement({u * w: c for u, c in self.terms.items()})


class LoopCombination(_Combination):
    """An integer combination of conjugacy classes (an element of A/[A,A])."""

    __slots__ = ()

    _brackets = "<>"

    @staticmethod
    def _key(w: Word) -> ConjClass:
        return canonical_conjugacy(w)

    @staticmethod
    def _word(k: ConjClass) -> Word:
        return k.word

    # bound on this class too, so that per-class wrappers such as the
    # benchmark's tracer find it in the class's own namespace
    __add__ = _Combination.__add__

    @classmethod
    def from_class(cls, c: ConjClass, coeff: int = 1) -> "LoopCombination":
        return cls({c: coeff})

    @classmethod
    def _from_codes(cls, terms: Mapping[Codes, int]) -> "LoopCombination":
        """The trusted constructor from collected canonical codes (as
        :func:`~quasiloop.words._graft` returns them) to coefficients: one
        class is built per nonzero term, in the mapping's order; nothing is
        checked."""
        out = object.__new__(cls)
        out.terms = {_class(k): c for k, c in terms.items() if c}
        return out


def project_to_classes(x: GroupRingElement) -> LoopCombination:
    """The projection A -> A/[A,A]: canonicalize each term's conjugacy class and merge."""
    return LoopCombination.collect((canonical_conjugacy(w), c) for w, c in x.terms.items())
