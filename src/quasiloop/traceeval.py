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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .homotopy import kk_pairing
from .ring import GroupRingElement, LoopCombination
from .surface import QuasiSurface
from .words import ConjClass, Word

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[i][j] + b[i][j] for j in range(n)) for i in range(n))


def mat_scale(c: Fraction, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_det(a: Matrix) -> Fraction:
    n = len(a)
    if n == 1:
        return a[0][0]
    det = Fraction(0)
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        det += (-1) ** j * a[0][j] * mat_det(minor)
    return det


def mat_inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan over the rationals; raises on a singular matrix."""
    n = len(a)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class RepresentationPoint:
    """Invertible rational matrices assigned to the free generators."""

    n: int
    images: tuple[Matrix, ...]
    inverses: tuple[Matrix, ...]

    @classmethod
    def create(cls, n: int, images: Sequence[Sequence[Sequence]]) -> "RepresentationPoint":
        mats = tuple(_as_matrix(m) for m in images)
        for m in mats:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"expected {n}x{n} matrices")
        inverses = tuple(mat_inverse(m) for m in mats)
        return cls(n, mats, inverses)

    @property
    def rank(self) -> int:
        return len(self.images)

    def evaluate_word(self, w: Word) -> Matrix:
        out = mat_identity(self.n)
        for g, s in w.letters:
            if g >= len(self.images):
                raise ValueError(f"no matrix image for generator g{g + 1}")
            out = mat_mul(out, self.images[g] if s > 0 else self.inverses[g])
        return out

    def trace_word(self, w: Word) -> Fraction:
        return mat_trace(self.evaluate_word(w))

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
            n = int(data["n"])
            raw: Mapping[str, list] = data["images"]
            images: list = [None] * len(raw)
            for token, rows in raw.items():
                if not token.startswith("g") or not token[1:].isdigit():
                    raise ValueError(f"bad generator token {token!r}")
                idx = int(token[1:]) - 1
                if not 0 <= idx < len(raw):
                    raise ValueError(f"generator token {token!r} out of range")
                images[idx] = [[Fraction(x) for x in row] for row in rows]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed representation: {exc}") from exc
        return cls.create(n, images)


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
    m = mat_identity(n)
    for _ in range(2 * n + rng.randrange(3)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        shear = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
        shear[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
        m = mat_mul(m, tuple(tuple(row) for row in shear))
    if not det_one and rng.random() < 0.5:
        flip = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
        flip[0][0] = Fraction(-1)
        m = mat_mul(m, tuple(tuple(row) for row in flip))
    return m


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

    def d_matrix(w: Word) -> Matrix:
        out = [[Fraction(0)] * 2 for _ in range(2)]
        for word, c in kk_pairing(qs, omega, x, w).terms.items():
            m = rho.evaluate_word(word)
            for i in range(2):
                for j in range(2):
                    out[i][j] += c * m[i][j]
        return tuple(tuple(row) for row in out)

    def d(w: Word) -> Fraction:
        return rho.eval_trace(kk_pairing(qs, omega, x, w))

    det_derivative = mat_trace(mat_mul(d_matrix(v), mat_inverse(rho.evaluate_word(v))))
    lhs = d(u * v) + d(u * ~v) + det_derivative * rho.trace_word(u * ~v)
    rhs = d(u) * rho.trace_word(v) + rho.trace_word(u) * d(v)
    return DerivationReport(lhs, rhs)
