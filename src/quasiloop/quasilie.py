"""The quasi-Lie pair: total 3-bracket, Jacobiator, and diagnostics.

The skew 2-bracket fails the Jacobi identity on a quasi-surface exactly
by the gate terms: the Jacobiator equals mu(x,y,z) - mu(y,x,z) for the
cyclically symmetric 3-bracket mu summing the gate braces over all
gates.  The verifier computes both sides exactly; the P/u diagnostics
recompute the Jacobiator from the oriented pairing's associativity
defects and localize a hypothetical failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diagrams import opposite, parse_omega
from .homotopy import bullet, gate_brace_geometric, second_bracket
from .ring import LoopCombination
from .surface import QuasiSurface


def mu_total(qs: QuasiSurface, x, y, z) -> LoopCombination:
    """Sum of the 3-braces of all gates; cyclically symmetric."""
    return LoopCombination.collect(
        term for gate in qs.gates for term in gate_brace_geometric(qs, gate, [x, y, z])
    )


def jacobiator(qs: QuasiSurface, x, y, z) -> LoopCombination:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] for the skew homotopy bracket."""
    xy = second_bracket(qs, x, y)
    yz = second_bracket(qs, y, z)
    zx = second_bracket(qs, z, x)
    return (
        second_bracket(qs, xy, z)
        + second_bracket(qs, yz, x)
        + second_bracket(qs, zx, y)
    )


@dataclass(frozen=True)
class QuasiJacobiReport:
    lhs: LoopCombination
    rhs: LoopCombination

    @property
    def difference(self) -> LoopCombination:
        return self.lhs - self.rhs

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def verify_quasi_jacobi(qs: QuasiSurface, x, y, z) -> QuasiJacobiReport:
    """Jacobiator of the 2-bracket against mu(x,y,z) - mu(y,x,z), exactly."""
    lhs = jacobiator(qs, x, y, z)
    rhs = mu_total(qs, x, y, z) - mu_total(qs, y, x, z)
    return QuasiJacobiReport(lhs, rhs)


def s_bracket(qs: QuasiSurface, x, y, z) -> LoopCombination:
    """The fully symmetric 3-bracket 2*mu - Jacobiator."""
    return 2 * mu_total(qs, x, y, z) - jacobiator(qs, x, y, z)


@dataclass(frozen=True)
class PandUDiagnostics:
    p_xyz: LoopCombination
    u_omega: LoopCombination
    u_omega_bar: LoopCombination
    jacobiator: LoopCombination
    p_decomposes: bool      # P(x,y,z) = u_omega + u_omega_bar
    jacobiator_matches: bool  # Jacobiator = P(x,y,z) - P(y,x,z)


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

    def mul(sgns, a, b):
        return bullet(qs, sgns, a, b)

    def u(sgns, a, b, c):
        return (
            mul(sgns, mul(sgns, a, b), c)
            + mul(sgns, mul(sgns, b, c), a)
            + mul(sgns, mul(sgns, c, a), b)
        )

    def p(a, b, c):
        return (
            mul(signs, mul(signs, a, b), c)
            + mul(signs, mul(signs, b, c), a)
            + mul(signs, mul(signs, c, a), b)
            + mul(signs, c, mul(signs, b, a))
            + mul(signs, a, mul(signs, c, b))
            + mul(signs, b, mul(signs, a, c))
        )

    p_xyz = p(x, y, z)
    u_omega = u(signs, x, y, z)
    u_bar = u(bar, x, y, z)
    jac = jacobiator(qs, x, y, z)
    return PandUDiagnostics(
        p_xyz=p_xyz,
        u_omega=u_omega,
        u_omega_bar=u_bar,
        jacobiator=jac,
        p_decomposes=(p_xyz == u_omega + u_bar),
        jacobiator_matches=(jac == p_xyz - p(y, x, z)),
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
