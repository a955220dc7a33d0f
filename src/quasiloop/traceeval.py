"""Exact evaluation of loop operations at matrix representation points.

A representation point sends every free generator to an invertible
matrix with rational entries; traces of class combinations are then
exact rationals, and every bracket identity of the engine descends to a
per-point certificate.  Verification is by evaluation, not by symbolic
quotient rings: group elements must map to invertible matrices, and
exact rational arithmetic gives zero-false-positive checks.

Words are evaluated in integers.  A point keeps each image and each
inverse once, as a flat row-major integer tuple over a common
denominator.  ``RepresentationPoint.create`` reaches that table in one
fraction-free elimination per image, of ``[N | I]`` for the image's
integer form ``N / d``, with no ``Fraction`` round trip; the public
``Fraction`` matrices are built from it.  Words multiply the table's
entries with kernels generated and compiled once per dimension (up to
``_UNROLL_MAX``; generic loops above it).  A word's trace takes one
product fewer than its matrix: the last factor is met by the trace
pairing ``tr(a b)``.  ``eval_trace`` sums a combination over one common
denominator and returns one ``Fraction``.

Each point memoizes its word traces: a private dict from a word's code
tuple to its trace's numerator and denominator, filled on first
evaluation, so the terms that the two sides of a law share are traced
once per point.  The memo is not a field (equality, hash and ``repr``
ignore it), has no bound and lives as long as its point; a point built
from ``images`` and ``inverses`` starts with an empty one.  Pickling and
copying rebuild a point from ``(n, images, inverses)``, so neither its
kernels nor its memo travel.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul

from ._value import FrozenValue
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


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _split(a: Matrix) -> tuple[IntMatrix, int]:
    """Integer matrix ``N`` and positive common denominator ``d`` with ``a = N / d``."""
    d = lcm(*map(_denominator, chain.from_iterable(a)))
    if d == 1:
        return tuple(tuple(map(_numerator, row)) for row in a), 1
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in a), d


def _split_square(a: Matrix) -> tuple[IntMatrix, int]:
    if any(len(row) != len(a) for row in a):
        raise ValueError("expected a square matrix")
    return _split(a)


# Kernels are unrolled up to this size.  Per product, unrolled against the
# generic loops (Python 3.11, 2-core Xeon), with one-digit entries and with
# twelve-digit ones: n = 2 0.20 vs 2.5 and 0.54 vs 3.3 us, n = 4 1.1 vs 8.1
# and 3.8 vs 13.1, n = 8 8.2 vs 35 and 34 vs 67, n = 16 89 vs 235 and 306
# vs 445, n = 24 315 vs 720 and 1001 vs 1501.  Compiling took 0.2 ms at
# n = 2, 1.8 ms at n = 8, 15 ms at n = 16 and 42 ms at n = 24, for 27, 227
# and 766 kB of bytecode at n = 8, 16 and 24, held for the life of the
# process.  Past 8 that cost grows as n^3 while the gain stays below 3x.
_UNROLL_MAX = 8
# n -> (product, trace pairing), compiled on first use at that n
_KERNELS: dict = {}


def _kernels(n: int) -> tuple[Callable, Callable]:
    """``(prod, pair)`` on flat row-major n x n integer tuples:
    ``prod(a, b)`` is the product ``a b`` and ``pair(a, b)`` is
    ``tr(a b) = sum a[i,q] b[q,i]``."""
    kernels = _KERNELS.get(n)
    if kernels is None:
        if not 0 < n <= _UNROLL_MAX:
            return _generic_kernels(n)
        kernels = _KERNELS[n] = _unrolled_kernels(n)
    return kernels


def _unrolled_kernels(n: int) -> tuple[Callable, Callable]:
    """The kernels as straight-line code, as ``dataclasses`` generates its
    methods; the source holds only names indexed by ``range(n * n)``."""
    a = [f"a{k}" for k in range(n * n)]
    b = [f"b{k}" for k in range(n * n)]
    unpack = f"    {', '.join(a)}, = a\n    {', '.join(b)}, = b\n"
    entries = ", ".join(
        " + ".join(f"{a[i * n + q]}*{b[q * n + j]}" for q in range(n))
        for i in range(n)
        for j in range(n)
    )
    trace = " + ".join(f"{a[i * n + q]}*{b[q * n + i]}" for i in range(n) for q in range(n))
    namespace: dict = {}
    exec(
        f"def prod(a, b):\n{unpack}    return ({entries},)\n"
        f"def pair(a, b):\n{unpack}    return {trace}\n",
        namespace,
    )
    return namespace["prod"], namespace["pair"]


def _generic_kernels(n: int) -> tuple[Callable, Callable]:
    def prod(a, b):
        cols = [b[j::n] for j in range(n)]
        return tuple(sum(map(mul, a[i : i + n], col)) for i in range(0, n * n, n) for col in cols)

    def pair(a, b):
        return sum(map(mul, a, [x for j in range(n) for x in b[j::n]]))

    return prod, pair


def _bareiss(rows: list, n: int) -> int:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place, on
    the first ``n`` columns of integer rows; returns det of that block ``N``.
    Every entry stays a minor, so each division is exact.  If det != 0 the
    block ends as ``p*I`` (``p = +-det``) and any further column c as ``p N^-1 c``.
    A row with nothing to eliminate (``row[k] == 0``) is only rescaled,
    ``p * x // prev``, and kept as it is when ``p == prev``.  A division
    by ``prev == 1`` and a product by ``p == 1`` are skipped; they would
    leave every integer as it is."""
    sign, prev = 1, 1
    for k in range(n):
        for pivot in range(k, n):
            if rows[pivot][k]:
                break
        else:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            if not f:
                if p != prev:
                    rows[i] = [p * x // prev for x in row] if prev != 1 else [p * x for x in row]
            elif prev != 1:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != 1:
                rows[i] = [p * x - f * y for x, y in zip(row, top)]
            else:
                rows[i] = [x - f * y for x, y in zip(row, top)]
        prev = p
    return sign * prev


def _invert(num: Sequence[Sequence[int]], d: int) -> tuple[tuple[int, ...], int]:
    """The inverse of ``N / d`` for a square integer matrix ``N``, as a flat
    row-major numerator over a positive denominator in lowest terms (what
    ``_split`` gives for it), from one elimination of ``[N | I]``; raises
    if ``N`` is singular."""
    n = len(num)
    rows = [list(row) + [0] * n for row in num]
    for i, row in enumerate(rows):
        row[n + i] = 1
    if not _bareiss(rows, n):
        raise ValueError("matrix is not invertible")
    p = rows[0][0]  # (N / d)^-1 = d N^-1 = (d / p) * the right block
    flat = [x for row in rows for x in row[n:]]
    if d != 1:
        flat = [d * x for x in flat]
    g = gcd(p, *flat)
    if p < 0:
        g = -g
    if g != 1:
        flat = [x // g for x in flat]
    return tuple(flat), p // g


class _IntFractions(dict):
    """``Fraction(k)`` by ``[k]`` for an int ``k``.  One in ``[-64, 64]`` is
    kept on first use and shared after (a ``Fraction`` is immutable);
    integer unimodular points have small entries: all 156,000 image and
    inverse entries of 200 trace_points ops (seed 5) lie in [-16, 16]."""

    def __missing__(self, k: int) -> Fraction:
        f = Fraction(k)
        if -64 <= k <= 64:
            self[k] = f
        return f


_INT_FRACTIONS = _IntFractions()


def _fractions(flat: Sequence[int], d: int, n: int) -> Matrix:
    """The n x n ``Fraction`` matrix of a flat row-major numerator over ``d``."""
    if d == 1:
        get = _INT_FRACTIONS.__getitem__
        return tuple(tuple(map(get, flat[i : i + n])) for i in range(0, n * n, n))
    return tuple(tuple(Fraction(x, d) for x in flat[i : i + n]) for i in range(0, n * n, n))


def mat_det(a: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    num, d = _split_square(a)
    det = _bareiss(list(num), len(num))
    return _INT_FRACTIONS[det] if d == 1 else Fraction(det, d ** len(num))


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by integer elimination; raises on a singular or
    non-square matrix.  The 0 x 0 matrix, of determinant 1, is its own
    inverse."""
    num, d = _split_square(a)
    if not num:
        return ()
    return _fractions(*_invert(num, d), len(num))


# The largest decimal exponent a string entry may carry.  ``Fraction``
# builds ``10 ** exponent`` before anything else, so ``"1e999999999"`` would
# take minutes and gigabytes; 4300 is the default limit on the digits of an
# int read from a string, which already bounds every other part of an entry.
_MAX_EXPONENT = 4300


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size.  One int-to-string conversion may
    write only so many digits (``sys.get_int_max_str_digits``); a longer
    int is split by a power of ten and each part written on its own."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half its decimal digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def _number_text(x: Fraction) -> str:
    """A rational written exactly, as ``str(x)`` writes it where that stays
    within the limit on the digits of one int-to-string conversion.  Beyond
    it, a value ``m / 10 ** e`` is written ``"<m>e<-e>"`` with the zeros of
    ``m`` moved into the exponent (``m`` alone when none are left), which
    :func:`_entry` reads back while the exponent is within
    ``_MAX_EXPONENT``; any other is ``"<p>/<q>"`` in full decimal."""
    try:
        return str(x)
    except ValueError:
        pass
    n, d = x.numerator, x.denominator
    if pow(10, _MAX_EXPONENT, d) == 0:  # d divides 10 ** _MAX_EXPONENT
        digits = _decimal(n * 10 ** _MAX_EXPONENT // d)
        mantissa = digits.rstrip("0")
        exponent = len(digits) - len(mantissa) - _MAX_EXPONENT
        return f"{mantissa}e{exponent}" if exponent else mantissa
    return f"{_decimal(n)}/{_decimal(d)}"


def _entry(x, g: int) -> Fraction:
    """An image entry of generator ``g`` as a ``Fraction``: an ``int`` (not a
    ``bool``), a ``Fraction`` or a string such as ``"1/2"`` or ``"2.5e-3"``
    whose exponent is at most ``_MAX_EXPONENT`` in absolute value."""
    kind = type(x)
    if kind is Fraction:
        return x
    if kind is int:
        return _INT_FRACTIONS[x]
    if kind is str:
        _, e, exponent = x.lower().rpartition("e")
        if e:
            try:
                too_large = abs(int(exponent)) > _MAX_EXPONENT
            except ValueError:  # not an integer: Fraction refuses the entry below
                too_large = False
            if too_large:
                raise ValueError(
                    f"malformed representation: g{g + 1} has an entry whose exponent is beyond"
                    f" +-{_MAX_EXPONENT}: {x!r}"
                )
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"malformed representation: g{g + 1} has an entry that is not a rational number: {x!r}"
            ) from None
    raise ValueError(
        f"malformed representation: g{g + 1} has an entry that is not an integer, a Fraction"
        f" or a string: {x!r}"
    )


class RepresentationPoint(FrozenValue):
    """Invertible rational matrices assigned to the free generators, each
    (and its inverse) also kept under its letter code as a flat row-major
    integer tuple over a common denominator, so that a word is evaluated
    by integer products (``_kernels``) and one division.  ``create``
    passes that letter table in as ``_table``; a point built from
    ``images`` and ``inverses`` alone (as a changed copy of another point
    is) derives it from them.  Word traces are memoized per point, under
    the word's code tuple, in ``_traces``.  Equality, hash and ``repr``
    read ``n``, ``images`` and ``inverses`` only, and pickling and copying
    rebuild the point from them."""

    _fields = ("n", "images", "inverses")

    def __init__(self, n: int, images: tuple[Matrix, ...], inverses: tuple[Matrix, ...], *,
                 _table: dict | None = None):
        if _table is None:
            def flat(m: Matrix) -> tuple[tuple[int, ...], int]:
                num, d = _split(m)
                return tuple(chain.from_iterable(num)), d

            _table = {2 * g: flat(m) for g, m in enumerate(images)}
            _table.update((2 * g + 1, flat(m)) for g, m in enumerate(inverses))
        self._assign(n, images, inverses)
        object.__setattr__(self, "_letters", _table)
        object.__setattr__(self, "_ops", _kernels(n))
        object.__setattr__(self, "_traces", {})

    def __reduce__(self):
        # the kernels may be local functions, which cannot be pickled, and
        # the letter table and memo are derived from the fields
        return type(self), (self.n, self.images, self.inverses)

    @classmethod
    def create(cls, n: int, images: Sequence[Sequence[Sequence]]) -> "RepresentationPoint":
        """``images`` is a list or tuple of images, one per generator.  Each
        image is a list or tuple of rows, and each row a list or tuple of
        entries (a string row would be read one character at a
        time).  Entries are ``int``s, ``Fraction``s or strings such as
        ``"1/2"``; anything else (a ``float``, which would be read as its
        binary value, a ``bool``, a ``Decimal``, ``None``) is rejected, as
        is an ``n`` that is not an ``int``.  Each image is split once into
        integers over a denominator (an all-``int`` image is its own
        numerator) and inverted by one elimination, which gives both the
        letter table and the public ``Fraction`` matrices."""
        if type(n) is not int:
            raise ValueError(f"malformed representation: n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"malformed representation: n must be >= 1, got {n}")
        if not isinstance(images, (list, tuple)):
            raise ValueError(
                f"malformed representation: the images must be an array of matrices, got {images!r}"
            )
        split = []
        for g, rows in enumerate(images):
            if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in rows
            ):
                raise ValueError(
                    f"malformed representation: the image of g{g + 1} must be an array of rows,"
                    f" each an array of entries, got {rows!r}"
                )
            if {type(x) for row in rows for x in row} <= {int}:
                m = tuple(tuple(map(_INT_FRACTIONS.__getitem__, row)) for row in rows)
                split.append((m, rows, 1))
            else:
                m = tuple(tuple(_entry(x, g) for x in row) for row in rows)
                split.append((m, *_split(m)))
        for m, _, _ in split:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"expected {n}x{n} matrices")
        inverses, letters = [], {}
        for g, (_, num, d) in enumerate(split):
            letters[2 * g] = tuple(chain.from_iterable(num)), d
            letters[2 * g + 1] = inverse = _invert(num, d)
            inverses.append(_fractions(*inverse, n))
        return cls(n, tuple(m for m, _, _ in split), tuple(inverses), _table=letters)

    @property
    def rank(self) -> int:
        return len(self.images)

    def _factors(self, codes: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        try:
            return [self._letters[c] for c in codes]
        except KeyError as exc:
            raise ValueError(f"no matrix image for generator g{(exc.args[0] >> 1) + 1}") from None

    def _product(self, factors: list[tuple[tuple[int, ...], int]]) -> tuple[tuple[int, ...], int]:
        """Flat numerator and denominator of the product of nonempty ``factors``."""
        prod = self._ops[0]
        acc, d = factors[0]
        for num, den in factors[1:]:
            acc = prod(acc, num)
            d *= den
        return acc, d

    def _word_trace(self, codes: tuple[int, ...]) -> tuple[int, int]:
        """Numerator and denominator of the word's trace: the product of all
        factors but the last, then the trace pairing with the last.  It is
        computed once per point and kept in ``_traces``; a word with a
        letter that has no image raises and is not kept."""
        trace = self._traces.get(codes)
        if trace is not None:
            return trace
        factors = self._factors(codes)
        if len(factors) < 2:
            if not factors:
                trace = self.n, 1
            else:
                num, d = factors[0]
                trace = sum(num[:: self.n + 1]), d
        else:
            acc, d = self._product(factors[:-1])
            last, den = factors[-1]
            trace = self._ops[1](acc, last), d * den
        self._traces[codes] = trace
        return trace

    def evaluate_word(self, w: Word) -> Matrix:
        factors = self._factors(w.codes)
        if not factors:
            return mat_identity(self.n)
        return _fractions(*self._product(factors), self.n)

    def trace_word(self, w: Word) -> Fraction:
        return Fraction(*self._word_trace(w.codes))

    def eval_trace(self, x: "LoopCombination | ConjClass | GroupRingElement | Word") -> Fraction:
        """Trace of a class combination (or of a group-ring element);
        well defined on classes by trace cyclicity.  The terms are summed
        as one integer over the lcm of their denominators."""
        if isinstance(x, Word):
            return self.trace_word(x)
        if isinstance(x, ConjClass):
            return self.trace_word(x.representative())
        traces, total, den = self._traces, 0, 1
        for key, coeff in x.terms.items():
            codes = (key.word if type(key) is ConjClass else key).codes
            t, d = traces.get(codes) or self._word_trace(codes)  # a hit makes no call
            if den % d:
                m = lcm(den, d)
                total *= m // den
                den = m
            total += coeff * t * (den // d)
        return _INT_FRACTIONS[total] if den == 1 else Fraction(total, den)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "images": {
                f"g{i + 1}": [[_number_text(x) for x in row] for row in m]
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
        except (KeyError, TypeError, AttributeError) as exc:
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
    return tuple(tuple(map(Fraction, row)) for row in m)


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


class DerivationReport(FrozenValue):
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Fraction, rhs: Fraction):
        self._assign(lhs, rhs)

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
