"""Verification suites: the package's identities checked at scale.

Each suite draws seeded random cases, checks one family of exact
identities, and reports pass/fail with counterexample dumps.  The same
suites back the test suite's acceptance module and the CLI selftest.
"""

from __future__ import annotations

import itertools
import random

from . import homology as H
from . import quasilie as QL
from ._value import Value
from .diagrams import (
    DiskArc,
    ExplicitDiagram,
    LaneDiagram,
    all_orientations,
    combine_generic,
    diagram_from_cyclic_path,
    diagram_to_word,
    dual_v,
    flip_gate,
    opposite,
    word_to_diagram,
    _lane_route,
)
from .fixtures import qd2, qg1, qt2, qy1
from .fox import algebraic_brace
from .homotopy import bullet, gate_brace_geometric, kk_pairing, second_bracket
from .randomcase import (
    random_class,
    random_nontrivial_class,
    random_omega,
    random_surface,
    random_word,
)
from .ring import LoopCombination, project_to_classes
from .surface import QuasiSurface
from .traceeval import (
    random_representation,
    verify_derivation_n1,
    verify_sl2_consistency,
)
from .words import canonical_conjugacy

MAX_DUMPS = 3


class SuiteResult(Value):
    _fields = ("name", "cases", "failures", "warning")

    def __init__(self, name: str, cases: int, failures: list[str] | None = None,
                 warning: str | None = None):
        if cases < 0:
            raise ValueError(f"{name}: case count must be >= 0, got {cases}")
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.warning = warning

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, message: str) -> None:
        if len(self.failures) < MAX_DUMPS:
            self.failures.append(message)
        elif len(self.failures) == MAX_DUMPS:
            self.failures.append("... more failures suppressed")

    def to_json_dict(self) -> dict:
        out = {"suite": self.name, "cases": self.cases, "passed": self.passed,
               "failures": list(self.failures)}
        if self.warning:
            out["warning"] = self.warning
        return out


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _vacuous(result: SuiteResult) -> SuiteResult:
    if result.cases == 0:
        result.warning = "0 cases requested: vacuous pass"
    return result


def _dump_surface(qs: QuasiSurface) -> str:
    return repr(qs.spec.to_json_dict())


# 1. geometric gate braces against the Fox-derivative route


def suite_oracle_braces(seed: int = 0, cases: int = 1000) -> SuiteResult:
    result = SuiteResult("oracle_gate_braces", cases)
    rng = _rng(seed, "oracle")
    for i in range(cases):
        qs = random_surface(rng)
        gate = rng.choice(qs.gates)
        derivative = qs.gate_derivative(gate)
        for m in (1, 2, 3):
            args = [random_class(rng, qs.rank, max_len=8) for _ in range(m)]
            geo = gate_brace_geometric(qs, gate, args)
            alg = algebraic_brace([derivative] * m, [LoopCombination.from_class(c) for c in args])
            if geo != alg:
                result.record(
                    f"case {i}: m={m} gate={gate} args={[repr(a) for a in args]} "
                    f"geo={geo.to_pairs()} alg={alg.to_pairs()} on {_dump_surface(qs)}"
                )
    return _vacuous(result)


# 2. the quasi-Jacobi identity


def suite_quasi_jacobi(seed: int = 0, cases_per_fixture: int = 1000) -> SuiteResult:
    fixtures = [("qt2", qt2()), ("qg1", qg1()), ("qd2", qd2())]
    result = SuiteResult("quasi_jacobi", cases_per_fixture * len(fixtures))
    for name, qs in fixtures:
        rng = _rng(seed, f"jacobi:{name}")
        for i in range(cases_per_fixture):
            x = random_class(rng, qs.rank, max_len=8)
            y = random_class(rng, qs.rank, max_len=8)
            z = random_class(rng, qs.rank, max_len=8)
            report = QL.verify_quasi_jacobi(qs, x, y, z)
            if not report.equal:
                result.record(
                    f"{name} case {i}: x={x!r} y={y!r} z={z!r} "
                    f"difference={report.difference.to_pairs()}"
                )
    return _vacuous(result)


# 3. orientation-change laws


def suite_omega_change(seed: int = 0, cases: int = 500) -> SuiteResult:
    result = SuiteResult("omega_change", cases)
    rng = _rng(seed, "omega-change")
    for i in range(cases):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=8)
        y = random_class(rng, qs.rank, max_len=8)
        vx = H.h1_class(qs, x)
        vy = H.h1_class(qs, y)
        base_dot = H.first_form(qs, omega, x, y)
        base_bullet = bullet(qs, omega, x, y)
        for k, gate in enumerate(qs.gates):
            flipped = flip_gate(omega, k)
            lhs_dot = H.first_form(qs, flipped, x, y)
            rhs_dot = base_dot - omega[k] * H.gate_dual(qs, gate, vx) * H.gate_dual(qs, gate, vy)
            if lhs_dot != rhs_dot:
                result.record(
                    f"case {i}: homological flip law fails at {gate}: "
                    f"{lhs_dot} != {rhs_dot} for x={x!r} y={y!r} on {_dump_surface(qs)}"
                )
            lhs_b = bullet(qs, flipped, x, y)
            rhs_b = base_bullet - omega[k] * gate_brace_geometric(qs, gate, [x, y])
            if lhs_b != rhs_b:
                result.record(
                    f"case {i}: homotopy flip law fails at {gate}: "
                    f"{(lhs_b - rhs_b).to_pairs()} for x={x!r} y={y!r} on {_dump_surface(qs)}"
                )
    return _vacuous(result)


# 4. symmetrization laws


def suite_symmetrization(seed: int = 0, cases: int = 500) -> SuiteResult:
    result = SuiteResult("symmetrization", cases)
    rng = _rng(seed, "symmetrization")
    for i in range(cases):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=8)
        y = random_class(rng, qs.rank, max_len=8)
        vx = H.h1_class(qs, x)
        vy = H.h1_class(qs, y)
        gate_term = sum(
            omega[k] * H.gate_dual(qs, g, vx) * H.gate_dual(qs, g, vy)
            for k, g in enumerate(qs.gates)
        )
        if 2 * H.first_form(qs, omega, x, y) != H.second_form(qs, vx, vy) + gate_term:
            result.record(f"case {i}: homological symmetrization fails for x={x!r} y={y!r}"
                          f" on {_dump_surface(qs)}")
        brace_sum = LoopCombination.collect(
            (key, omega[k] * c)
            for k, g in enumerate(qs.gates)
            for key, c in gate_brace_geometric(qs, g, [x, y])
        )
        lhs = bullet(qs, omega, x, y) + bullet(qs, omega, y, x)
        if lhs != brace_sum:
            result.record(f"case {i}: homotopy symmetrization fails for x={x!r} y={y!r}"
                          f" on {_dump_surface(qs)}")
    return _vacuous(result)


# 5. representative invariance


def _permute_depths(rng: random.Random, diagrams: tuple[LaneDiagram, ...]) -> list[LaneDiagram]:
    by_lane: dict[tuple[int, int], list[int]] = {}
    for d in diagrams:
        for arc in d.arcs:
            by_lane.setdefault((arc.disk, arc.lane), []).append(arc.depth)
    mapping: dict[tuple[int, int, int], int] = {}
    for lane, depths in by_lane.items():
        shuffled = depths[:]
        rng.shuffle(shuffled)
        for old, new in zip(depths, shuffled):
            mapping[lane + (old,)] = new
    out = []
    for d in diagrams:
        arcs = tuple(
            DiskArc(a.disk, a.lane, mapping[(a.disk, a.lane, a.depth)], a.reverse)
            for a in d.arcs
        )
        out.append(LaneDiagram(arcs, d.paths))
    return out


def _reroute_arc(qs: QuasiSurface, d: LaneDiagram, arc_index: int) -> LaneDiagram:
    """Send one arc the long way around its disk, inserting trivial gate
    detours; the class is unchanged."""
    arc = d.arcs[arc_index]
    gates = qs.disk_gates(arc.disk)
    m = len(gates)
    if m == 1:
        return d
    a_pos = (arc.lane + 1) % m if arc.reverse else arc.lane
    b_pos = arc.lane if arc.reverse else (arc.lane + 1) % m
    short = _lane_route(m, a_pos, b_pos)
    long_route = (
        [((a_pos - 1 - j) % m, True) for j in range(m - len(short))]
        if not short[0][1]
        else [((a_pos + j) % m, False) for j in range(m - len(short))]
    )
    depth = max((x.depth for x in d.arcs), default=0)
    new_arcs = []
    new_paths = []
    for i, (old, path) in enumerate(zip(d.arcs, d.paths)):
        if i != arc_index:
            new_arcs.append(old)
            new_paths.append(path)
            continue
        for j, (lane, reverse) in enumerate(long_route):
            depth += 1
            new_arcs.append(DiskArc(arc.disk, lane, depth, reverse))
            new_paths.append(path if j == len(long_route) - 1 else ())
    return LaneDiagram(tuple(new_arcs), tuple(new_paths))


def suite_representative_invariance(seed: int = 0, cases: int = 500) -> SuiteResult:
    result = SuiteResult("representative_invariance", cases)
    rng = _rng(seed, "invariance")
    for i in range(cases):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_nontrivial_class(rng, qs.rank, max_len=8)
        y = random_class(rng, qs.rank, max_len=8)
        dx = word_to_diagram(qs, x)
        dy = word_to_diagram(qs, y)
        base_dot = H.first_form(qs, omega, dx, dy)
        base_bul = bullet(qs, omega, dx, dy)
        base_bracket = second_bracket(qs, x, y)

        def check(tag: str, dxv, dyv) -> None:
            explicit = ExplicitDiagram((dxv, dyv), ())
            ok = (
                H.first_form(qs, omega, explicit) == base_dot
                and bullet(qs, omega, explicit) == base_bul
            )
            if not ok:
                result.record(
                    f"case {i}: {tag} changes a form for x={x!r} y={y!r} on {_dump_surface(qs)}"
                )

        # conjugation / rotation of the input word
        path = qs.cyclic_edge_path(x)
        r = rng.randrange(len(path)) if path else 0
        rotated = diagram_from_cyclic_path(qs, path[r:] + path[:r])
        alt_dot = H.first_form(qs, omega, rotated, dy)
        alt_bul = bullet(qs, omega, rotated, dy)
        if (alt_dot, alt_bul) != (base_dot, base_bul):
            result.record(f"case {i}: conjugated representative changes a form for x={x!r}")
        u = random_word(rng, qs.rank, max_len=3)
        conj = canonical_conjugacy(u * x.representative() * ~u)
        if second_bracket(qs, conj, y) != base_bracket:
            result.record(f"case {i}: conjugation changes the bracket for x={x!r}")

        # joint depth permutation on the combined family
        combined = combine_generic(qs, [dx, dy]).diagrams()
        pdx, pdy = _permute_depths(rng, combined)
        check("depth permutation", pdx, pdy)

        # argument interleaving swap: y's block below x's
        swapped = combine_generic(qs, [dy, dx]).diagrams()
        check("interleaving swap", swapped[1], swapped[0])

        # trivial detour insertion
        if dx.arcs:
            rerouted = _reroute_arc(qs, dx, rng.randrange(len(dx.arcs)))
            if diagram_to_word(qs, rerouted) != x:
                result.record(f"case {i}: detour insertion changed the class of x={x!r}")
            if (
                H.first_form(qs, omega, rerouted, dy) != base_dot
                or bullet(qs, omega, rerouted, dy) != base_bul
            ):
                result.record(f"case {i}: detour insertion changes a form for x={x!r}")
    return _vacuous(result)


# 6. orientation independence of the skew forms


def suite_omega_independence(seed: int = 0, cases_per_fixture: int = 6) -> SuiteResult:
    fixtures = [("qt2", qt2()), ("qg1", qg1()), ("qy1", qy1())]
    result = SuiteResult("omega_independence", cases_per_fixture * len(fixtures))
    for name, qs in fixtures:
        rng = _rng(seed, f"omega-indep:{name}")
        for i in range(cases_per_fixture):
            x = random_class(rng, qs.rank, max_len=8)
            y = random_class(rng, qs.rank, max_len=8)
            vx, vy = H.h1_class(qs, x), H.h1_class(qs, y)
            reference_bracket = None
            reference_ix = None
            for omega in all_orientations(qs):
                bracket = bullet(qs, omega, x, y) - bullet(qs, omega, y, x)
                ix = H.first_form(qs, omega, x, y) - H.first_form(qs, omega, y, x)
                if reference_bracket is None:
                    reference_bracket, reference_ix = bracket, ix
                elif bracket != reference_bracket or ix != reference_ix:
                    result.record(
                        f"{name} case {i}: omega={omega} changes a skew form for x={x!r} y={y!r}"
                    )
                    break
    return _vacuous(result)


# 7. symmetry laws


def suite_symmetries(seed: int = 0, cases: int = 500) -> SuiteResult:
    result = SuiteResult("symmetries", cases)
    # the sign-triple table is finite: check it exhaustively once
    for e1, e2, e3 in itertools.product((1, -1), repeat=3):
        base = QL.delta3(e1, e2, e3)
        for p in itertools.permutations((e1, e2, e3)):
            if QL.delta3(*p) != base:
                result.record(f"delta3 not permutation invariant at {(e1, e2, e3)}")
        if base - e1 * e2 * e3 != QL.delta3_companion(e1, e2, e3):
            result.record(f"delta3 companion identity fails at {(e1, e2, e3)}")
    if QL.delta3(1, 1, 1) != 2:
        result.record("delta3(+,+,+) != 2")

    rng = _rng(seed, "symmetries")
    for i in range(cases):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=8)
        y = random_class(rng, qs.rank, max_len=8)
        z = random_class(rng, qs.rank, max_len=6)
        bracket = second_bracket(qs, x, y)
        if bracket != -second_bracket(qs, y, x):
            result.record(f"case {i}: bracket not skew for x={x!r} y={y!r}")
        # the bracket's opposite-side route is skew by construction; the
        # pairing minus its transpose is its independent second route
        pairing = bullet(qs, omega, x, y)
        if bracket != pairing - bullet(qs, omega, y, x):
            result.record(
                f"case {i}: bracket is not the pairing minus its transpose for x={x!r} y={y!r}"
            )
        if pairing != -bullet(qs, opposite(omega), y, x):
            result.record(f"case {i}: reversal law fails for x={x!r} y={y!r}")
        gate = rng.choice(qs.gates)
        if gate_brace_geometric(qs, gate, [x, y, z]) != gate_brace_geometric(qs, gate, [z, x, y]):
            result.record(f"case {i}: 3-brace at {gate} not cyclic")
        s = QL.s_bracket(qs, x, y, z)
        for perm in itertools.permutations((x, y, z)):
            if QL.s_bracket(qs, *perm) != s:
                result.record(f"case {i}: s-bracket not fully symmetric")
                break
    return _vacuous(result)


# 8. derivation certificates of the based pairing


def suite_derivation_certificates(seed: int = 0, cases: int = 500) -> SuiteResult:
    result = SuiteResult("derivation_certificates", cases)
    rng = _rng(seed, "derivation")
    for i in range(cases):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=8)
        u = random_word(rng, qs.rank, max_len=6)
        v = random_word(rng, qs.rank, max_len=6)
        lhs = kk_pairing(qs, omega, x, u * v)
        rhs = kk_pairing(qs, omega, x, u).right_mul(v) + kk_pairing(qs, omega, x, v).left_mul(u)
        if lhs != rhs:
            result.record(
                f"case {i}: based Leibniz fails for x={x!r} u={u!r} v={v!r} on {_dump_surface(qs)}"
            )
        projected = project_to_classes(kk_pairing(qs, omega, x, u))
        if projected != bullet(qs, omega, x, canonical_conjugacy(u)):
            result.record(
                f"case {i}: projection does not intertwine the pairings for x={x!r} u={u!r}"
            )
    return _vacuous(result)


# 9. trace descent at representation points


def suite_trace_descent(seed: int = 0, points_per_fixture: int = 50) -> SuiteResult:
    fixtures = [("qt2", qt2()), ("qg1", qg1()), ("qd2", qd2())]
    result = SuiteResult("trace_descent", points_per_fixture * len(fixtures) * 3)
    for name, qs in fixtures:
        rng = _rng(seed, f"trace:{name}")
        for n in (1, 2, 3):
            for i in range(points_per_fixture):
                rho = random_representation(qs, n, rng)
                x = random_class(rng, qs.rank, max_len=6)
                y = random_class(rng, qs.rank, max_len=6)
                z = random_class(rng, qs.rank, max_len=4)
                if rho.eval_trace(second_bracket(qs, x, y)) != -rho.eval_trace(
                    second_bracket(qs, y, x)
                ):
                    result.record(f"{name} n={n} case {i}: evaluated bracket not skew")
                gate = rng.choice(qs.gates)
                if rho.eval_trace(gate_brace_geometric(qs, gate, [x, y, z])) != rho.eval_trace(
                    gate_brace_geometric(qs, gate, [z, x, y])
                ):
                    result.record(f"{name} n={n} case {i}: evaluated 3-brace not cyclic")
                jac = QL.jacobiator(qs, x, y, z)
                mu_diff = QL.mu_total(qs, x, y, z) - QL.mu_total(qs, y, x, z)
                if rho.eval_trace(jac) != rho.eval_trace(mu_diff):
                    result.record(f"{name} n={n} case {i}: evaluated quasi-Jacobi fails")
                # shifted gate derivatives induce equal evaluated braces
                d = qs.gate_derivative(gate)
                shifted = d.shifted(random_word(rng, qs.rank, max_len=3))
                xs = [LoopCombination.from_class(x), LoopCombination.from_class(y)]
                if rho.eval_trace(algebraic_brace([d, d], xs)) != rho.eval_trace(
                    algebraic_brace([shifted, shifted], xs)
                ):
                    result.record(f"{name} n={n} case {i}: shifted derivative changes the trace")
                if n == 1:
                    u = random_word(rng, qs.rank, max_len=4)
                    v = random_word(rng, qs.rank, max_len=4)
                    if not verify_derivation_n1(qs, rho, x, u, v).equal:
                        result.record(f"{name} case {i}: n=1 derivation certificate fails")
                if n == 2:
                    rho1 = random_representation(qs, 2, rng, det_one=True)
                    u = random_word(rng, qs.rank, max_len=4)
                    v = random_word(rng, qs.rank, max_len=4)
                    if not verify_sl2_consistency(qs, rho1, x, u, v).equal:
                        result.record(f"{name} case {i}: determinant-one consistency fails")
    return _vacuous(result)


# 10. pinned worked values on the two-gate fixture


def suite_fixture_values(seed: int = 0, cases: int = 1) -> SuiteResult:
    result = SuiteResult("fixture_values", cases)
    qs = qt2()
    z = qs.parse_loop("g1 g2^-1")
    zw = z.representative()
    checks = [
        ("v1(z)", dual_v(qs, "g1", word_to_diagram(qs, z)), 1),
        ("v2(z)", dual_v(qs, "g2", word_to_diagram(qs, z)), -1),
        ("mu1_g1", gate_brace_geometric(qs, "g1", [z]), LoopCombination.from_word(zw)),
        ("mu1_g2", gate_brace_geometric(qs, "g2", [z]), -1 * LoopCombination.from_word(zw)),
        (
            "mu2_g1",
            gate_brace_geometric(qs, "g1", [z, z]),
            LoopCombination.from_word(zw * zw),
        ),
        ("bullet", bullet(qs, None, z, z), LoopCombination.from_word(zw * zw)),
        ("dot", H.first_form(qs, None, z, z), 1),
        ("mu_total", QL.mu_total(qs, z, z, z), LoopCombination.zero()),
    ]
    for tag, got, expect in checks:
        if got != expect:
            result.record(f"{tag}: got {got!r}, expected {expect!r}")
    return _vacuous(result)


ALL_SUITES = (
    suite_oracle_braces,
    suite_quasi_jacobi,
    suite_omega_change,
    suite_symmetrization,
    suite_representative_invariance,
    suite_omega_independence,
    suite_symmetries,
    suite_derivation_certificates,
    suite_trace_descent,
    suite_fixture_values,
)

# per-suite case counts at full acceptance scale and at the CLI default
ACCEPTANCE_COUNTS = {
    "suite_oracle_braces": 1000,
    "suite_quasi_jacobi": 1000,
    "suite_omega_change": 500,
    "suite_symmetrization": 500,
    "suite_representative_invariance": 500,
    "suite_omega_independence": 6,
    "suite_symmetries": 500,
    "suite_derivation_certificates": 500,
    "suite_trace_descent": 50,
    "suite_fixture_values": 1,
}
DEFAULT_COUNTS = {
    "suite_oracle_braces": 120,
    "suite_quasi_jacobi": 80,
    "suite_omega_change": 60,
    "suite_symmetrization": 60,
    "suite_representative_invariance": 60,
    "suite_omega_independence": 4,
    "suite_symmetries": 60,
    "suite_derivation_certificates": 60,
    "suite_trace_descent": 8,
    "suite_fixture_values": 1,
}

