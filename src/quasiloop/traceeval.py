"""Exact evaluation of loop operations at matrix representation points.

A representation point sends every free generator to an invertible
matrix with rational entries; traces of class combinations are then
exact rationals, and every bracket identity of the engine descends to a
per-point certificate.  Verification is by evaluation, not by symbolic
quotient rings: group elements must map to invertible matrices, and
exact rational arithmetic gives zero-false-positive checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .homotopy import kk_pairing
from .ring import GroupRingElement, LoopCombination
from .surface import QuasiSurface
from .words import ConjClass, Word, _token_number

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; entries may be ``int`` or ``Fraction``."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _split(a: Matrix) -> tuple[IntMatrix, int]:
    """Integer matrix ``N`` and positive common denominator ``d`` with ``a = N / d``."""
    d = lcm(*(x.denominator for row in a for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in a), d


def _bareiss(rows: list, n: int) -> int:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place, on
    the first ``n`` columns of integer rows; returns det of that block ``N``.
    Every entry stays a minor, so each division is exact.  If det != 0 the
    block ends as ``p*I`` (``p = +-det``) and any further column c as ``p N^-1 c``."""
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev


def mat_det(a: Matrix) -> Fraction:
    num, d = _split(a)
    return Fraction(_bareiss(list(num), len(num)), d ** len(num))


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by integer elimination; raises on a singular matrix."""
    num, d = _split(a)
    n = len(num)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(num)]
    if not _bareiss(rows, n):
        raise ValueError("matrix is not invertible")
    p = rows[0][0]  # a^-1 = d * N^-1 = (d / p) * the right block
    return tuple(tuple(Fraction(d * x, p) for x in row[n:]) for row in rows)


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class RepresentationPoint:
    """Invertible rational matrices assigned to the free generators, each
    (and its inverse) also kept split as in ``_split`` under its letter
    code, so that a word is evaluated by integer products and one division."""

    n: int
    images: tuple[Matrix, ...]
    inverses: tuple[Matrix, ...]
    _letters: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        letters = {2 * g: _split(m) for g, m in enumerate(self.images)}
        letters.update((2 * g + 1, _split(m)) for g, m in enumerate(self.inverses))
        object.__setattr__(self, "_letters", letters)

    @classmethod
    def create(cls, n: int, images: Sequence[Sequence[Sequence]]) -> "RepresentationPoint":
        """Each image is a list or tuple of rows, and each row a list or
        tuple of entries (a string row would be read one character at a
        time).  Entries are integers, ``Fraction``s or strings such as
        ``"1/2"``.  A ``float`` entry (which would be read as its binary
        value), a ``bool`` entry and an ``n`` that is not an ``int`` are
        rejected."""
        if type(n) is not int:
            raise ValueError(f"malformed representation: n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"malformed representation: n must be >= 1, got {n}")
        for g, rows in enumerate(images):
            if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in rows
            ):
                raise ValueError(
                    f"malformed representation: the image of g{g + 1} must be an array of rows,"
                    f" each an array of entries, got {rows!r}"
                )
            if any(isinstance(x, (bool, float)) for row in rows for x in row):
                raise ValueError(
                    f"malformed representation: g{g + 1} has an entry that is not an integer or a string"
                )
        mats = tuple(_as_matrix(m) for m in images)
        for m in mats:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"expected {n}x{n} matrices")
        inverses = tuple(mat_inverse(m) for m in mats)
        return cls(n, mats, inverses)

    @property
    def rank(self) -> int:
        return len(self.images)

    def _word_split(self, w: Word) -> tuple[IntMatrix, int]:
        """``_split`` of the word's matrix, by integer products."""
        num, d = None, 1
        for code in w.codes:
            factor = self._letters.get(code)
            if factor is None:
                raise ValueError(f"no matrix image for generator g{(code >> 1) + 1}")
            num = factor[0] if num is None else mat_mul(num, factor[0])
            d *= factor[1]
        if num is None:
            return tuple(tuple(int(i == j) for j in range(self.n)) for i in range(self.n)), 1
        return num, d

    def evaluate_word(self, w: Word) -> Matrix:
        num, d = self._word_split(w)
        return tuple(tuple(Fraction(x, d) for x in row) for row in num)

    def trace_word(self, w: Word) -> Fraction:
        num, d = self._word_split(w)
        return Fraction(sum(num[i][i] for i in range(self.n)), d)

    def eval_trace(self, x: "LoopCombination | ConjClass | GroupRingElement | Word") -> Fraction:
        """Trace of a class combination (or of a group-ring element);
        well defined on classes by trace cyclicity."""
        if isinstance(x, Word):
            return self.trace_word(x)
        if isinstance(x, ConjClass):
            return self.trace_word(x.representative())
        total = Fraction(0)
        for key, coeff in x.terms.items():
            w = key.representative() if isinstance(key, ConjClass) else key
            total += coeff * self.trace_word(w)
        return total

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "images": {
                f"g{i + 1}": [[str(x) for x in row] for row in m]
                for i, m in enumerate(self.images)
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RepresentationPoint":
        try:
            n = data["n"]
            raw: Mapping[str, list] = data["images"]
            images: list = [None] * len(raw)
            for token, rows in raw.items():
                number = _token_number(token)
                if number is None:
                    raise ValueError(f"bad generator token {token!r}")
                idx = number - 1
                if not 0 <= idx < len(raw):
                    raise ValueError(f"generator token {token!r} out of range")
                images[idx] = rows
            return cls.create(n, images)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed representation: {exc}") from exc


def load_representation(path: str) -> RepresentationPoint:
    with open(path, "r", encoding="utf-8") as fh:
        return RepresentationPoint.from_json_dict(json.load(fh))


def random_unimodular(n: int, seed, det_one: bool = False) -> Matrix:
    """Deterministic pseudo-random integer matrix of determinant +-1,
    built from elementary shears (and one optional reflection)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if n == 1:
        sign = 1 if det_one else rng.choice((1, -1))
        return ((Fraction(sign),),)
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    for _ in range(2 * n + rng.randrange(3)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for row in m:  # m <- m (I + c e_ij)
            row[j] += c * row[i]
    if not det_one and rng.random() < 0.5:
        for row in m:  # m <- m diag(-1, 1, ..., 1)
            row[0] = -row[0]
    return _as_matrix(m)


def random_representation(
    qs: QuasiSurface, n: int, seed, det_one: bool = False
) -> RepresentationPoint:
    """A random representation point for a surface's free generators.

    At n = 1 the images are nonzero rationals (1x1 unimodularity would
    only allow +-1); for n >= 2 they are integer unimodular matrices.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    images = []
    for _ in range(qs.rank):
        if n == 1:
            if det_one:
                images.append(((Fraction(1),),))
                continue
            num = rng.choice([k for k in range(-5, 6) if k != 0])
            den = rng.randint(1, 5)
            images.append(((Fraction(num, den),),))
        else:
            images.append(random_unimodular(n, rng, det_one=det_one))
    return RepresentationPoint.create(n, images)


@dataclass(frozen=True)
class DerivationReport:
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def verify_derivation_n1(
    qs: QuasiSurface,
    rho: RepresentationPoint,
    x: "ConjClass | LoopCombination",
    u: Word,
    v: Word,
    omega=None,
) -> DerivationReport:
    """At n = 1 traces are multiplicative, so the based pairing's Leibniz
    rule becomes tr d(uv) = tr d(u) tr(v) + tr(u) tr d(v), checked exactly."""
    if rho.n != 1:
        raise ValueError("this certificate needs a 1-dimensional representation")
    lhs = rho.eval_trace(kk_pairing(qs, omega, x, u * v))
    rhs = rho.eval_trace(kk_pairing(qs, omega, x, u)) * rho.trace_word(v) + rho.trace_word(
        u
    ) * rho.eval_trace(kk_pairing(qs, omega, x, v))
    return DerivationReport(lhs, rhs)


def verify_sl2_consistency(
    qs: QuasiSurface,
    rho: RepresentationPoint,
    x: "ConjClass | LoopCombination",
    u: Word,
    v: Word,
    omega=None,
) -> DerivationReport:
    """Expansion independence of the induced derivation at determinant-one
    2x2 points.

    For 2x2 matrices, tr(u)tr(v) = tr(uv) + det(v) tr(uv^-1), and det(v)
    is itself the trace polynomial (tr(v)^2 - tr(v^2))/2.  Pushing the
    based pairing's derivation through the two expansions of tr(u)tr(v)
    must give one value; the second route picks up the derivative of the
    determinant polynomial, which at a determinant-one point is
    tr(d(v) v^-1).  Checked exactly:

        tr d(uv) + tr d(uv^-1) + tr(d(v) v^-1) tr(uv^-1)
            = tr d(u) tr(v) + tr(u) tr d(v)
    """
    if rho.n != 2:
        raise ValueError("this certificate needs a 2-dimensional representation")
    for m in rho.images:
        if mat_det(m) != 1:
            raise ValueError("all generator images must have determinant 1")

    def d(w: Word) -> Fraction:
        return rho.eval_trace(kk_pairing(qs, omega, x, w))

    det_derivative = rho.eval_trace(kk_pairing(qs, omega, x, v).right_mul(~v))
    lhs = d(u * v) + d(u * ~v) + det_derivative * rho.trace_word(u * ~v)
    rhs = d(u) * rho.trace_word(v) + rho.trace_word(u) * d(v)
    return DerivationReport(lhs, rhs)
