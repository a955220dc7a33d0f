"""The quasi-Lie pair: total 3-bracket, Jacobiator, and diagnostics.

The skew 2-bracket fails the Jacobi identity on a quasi-surface exactly
by the gate terms: the Jacobiator equals mu(x,y,z) - mu(y,x,z) for the
cyclically symmetric 3-bracket mu summing the gate 3-braces over all
gates.  The verifier computes both sides exactly from one side table
per argument (``homotopy._side_table``), mu through the m-fold brace of
``gate_brace_geometric`` (``homotopy._brace_codes``).  Each inner
bracket of the Jacobiator goes from its collected class codes straight
to its side table (``diagrams._codes_sides``), with no class object
built and no memo entry; the P/u
diagnostics recompute the Jacobiator from the oriented pairing's
associativity defects and localize a hypothetical failure.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._value import FrozenValue
from .diagrams import _codes_sides, opposite, parse_omega
from .homotopy import _brace_codes, _bracket_codes, _gate_factor, _side_table, bullet
from .ring import LoopCombination
from .surface import QuasiSurface
from .words import Codes


def _mu_codes(terms: dict[Codes, int], fx, fy, fz, scale: int = 1) -> dict[Codes, int]:
    """Add ``scale · mu(x, y, z)`` into ``terms``, canonical codes to
    coefficients, from the per-gate factors of x, y and z: the gate
    3-brace at every gate."""
    for factors in zip(fx, fy, fz):
        _brace_codes(terms, factors, scale)
    return terms


def mu_total(qs: QuasiSurface, x, y, z) -> LoopCombination:
    """Sum of the 3-braces of all gates, ``sum_k p(D_k x D_k y D_k z)``
    with ``D_k`` an argument's signed rotation words at gate k; cyclically
    symmetric."""
    factors = (map(_gate_factor, _side_table(qs, a)) for a in (x, y, z))
    return LoopCombination._from_codes(_mu_codes({}, *factors))


def _jacobiator_codes(
    qs: QuasiSurface, terms: dict[Codes, int], tx, ty, tz, scale: int = 1
) -> dict[Codes, int]:
    """Add ``scale`` times the Jacobiator into ``terms`` from the side
    tables of x, y and z; each inner bracket goes from its collected codes
    straight to its side table, with no class built and no memo entry."""
    for ta, tb, tc in ((tx, ty, tz), (ty, tz, tx), (tz, tx, ty)):
        inner = _codes_sides(qs, _bracket_codes({}, ta, tb))
        _bracket_codes(terms, inner, tc, scale)
    return terms


def jacobiator(qs: QuasiSurface, x, y, z) -> LoopCombination:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] for the skew homotopy bracket."""
    tables = (_side_table(qs, a) for a in (x, y, z))
    return LoopCombination._from_codes(_jacobiator_codes(qs, {}, *tables))


class QuasiJacobiReport(FrozenValue):
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: LoopCombination, rhs: LoopCombination):
        self._assign(lhs, rhs)

    @property
    def difference(self) -> LoopCombination:
        return self.lhs - self.rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def verify_quasi_jacobi(qs: QuasiSurface, x, y, z) -> QuasiJacobiReport:
    """Jacobiator of the 2-bracket against mu(x,y,z) - mu(y,x,z), exactly.
    Both sides read one side table per argument."""
    tx, ty, tz = (_side_table(qs, a) for a in (x, y, z))
    fx, fy, fz = (list(map(_gate_factor, t)) for t in (tx, ty, tz))
    # the Jacobiator first: mu's terms are not yet held while its grafts collect
    lhs = LoopCombination._from_codes(_jacobiator_codes(qs, {}, tx, ty, tz))
    rhs = _mu_codes(_mu_codes({}, fx, fy, fz), fy, fx, fz, -1)
    return QuasiJacobiReport(lhs, LoopCombination._from_codes(rhs))


def s_bracket(qs: QuasiSurface, x, y, z) -> LoopCombination:
    """The fully symmetric 3-bracket 2*mu - Jacobiator."""
    tx, ty, tz = (_side_table(qs, a) for a in (x, y, z))
    terms = _mu_codes({}, *(map(_gate_factor, t) for t in (tx, ty, tz)), 2)
    return LoopCombination._from_codes(_jacobiator_codes(qs, terms, tx, ty, tz, -1))


class PandUDiagnostics(FrozenValue):
    _fields = ("p_xyz", "u_omega", "u_omega_bar", "jacobiator", "p_decomposes", "jacobiator_matches")

    def __init__(
        self,
        p_xyz: LoopCombination,
        u_omega: LoopCombination,
        u_omega_bar: LoopCombination,
        jacobiator: LoopCombination,
        p_decomposes: bool,  # P(x,y,z) = u_omega + u_omega_bar
        jacobiator_matches: bool,  # Jacobiator = P(x,y,z) - P(y,x,z)
    ):
        self._assign(p_xyz, u_omega, u_omega_bar, jacobiator, p_decomposes, jacobiator_matches)


def p_and_u_diagnostics(
    qs: QuasiSurface, omega: "str | Sequence[int] | None", x, y, z
) -> PandUDiagnostics:
    """Associativity-defect diagnostics of the oriented pairing.

    P(x,y,z) = (xy)z + (yz)x + (zx)y + z(yx) + x(zy) + y(xz) with the
    oriented pairing as product; u sums the first three terms, and the
    last three recompute u for the opposite orientation.  The two checks
    returned hold for every bilinear product (the second) and by the
    reversal law of the pairing (the first); a failure localizes a
    convention error.
    """
    signs = parse_omega(qs, omega)
    bar = opposite(signs)

    def mul(a, b, sgns=signs):
        return bullet(qs, sgns, a, b)

    # the six inner products, each formed once for P(x,y,z) and P(y,x,z)
    xy, yz, zx, yx, zy, xz = mul(x, y), mul(y, z), mul(z, x), mul(y, x), mul(z, y), mul(x, z)
    u_omega = mul(xy, z) + mul(yz, x) + mul(zx, y)
    p_xyz = u_omega + mul(z, yx) + mul(x, zy) + mul(y, xz)
    p_yxz = mul(yx, z) + mul(xz, y) + mul(zy, x) + mul(z, xy) + mul(y, zx) + mul(x, yz)
    u_bar = mul(mul(x, y, bar), z, bar) + mul(mul(y, z, bar), x, bar) + mul(mul(z, x, bar), y, bar)
    jac = jacobiator(qs, x, y, z)
    return PandUDiagnostics(
        p_xyz=p_xyz,
        u_omega=u_omega,
        u_omega_bar=u_bar,
        jacobiator=jac,
        p_decomposes=(p_xyz == u_omega + u_bar),
        jacobiator_matches=(jac == p_xyz - p_yxz),
    )


def delta_sign(e: int) -> int:
    """delta(+1) = 1, delta(-1) = 0."""
    if e not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (e + 1) // 2


def delta3(e1: int, e2: int, e3: int) -> int:
    """The permutation-invariant function of three signs
    e1 e2 delta(e3) + e1 e3 delta(e2) + e2 e3 (1 - delta(e1))."""
    return (
        e1 * e2 * delta_sign(e3)
        + e1 * e3 * delta_sign(e2)
        + e2 * e3 * (1 - delta_sign(e1))
    )


def delta3_companion(e1: int, e2: int, e3: int) -> int:
    """The companion expansion of delta3 - e1 e2 e3:
    e1 e2 delta(e3) + e1 e3 (1 - delta(e2)) + e2 e3 (1 - delta(e1))."""
    return (
        e1 * e2 * delta_sign(e3)
        + e1 * e3 * (1 - delta_sign(e2))
        + e2 * e3 * (1 - delta_sign(e1))
    )
