"""Verification suites: the package's identities checked at scale.

Each suite is a draw and a law function.  The draw yields the cases, each
a dict of named inputs (``qs``, ``omega``, ``x``, ...) drawn from the
suite's own seeded ``Random``; the law function takes a case's inputs and
yields ``(tag, lhs, rhs)`` for each identity the case checks, one route
per side.  One runner compares every pair exactly, counts the cases drawn
and records each mismatch as a JSON object with sorted keys: ``suite``,
``seed``, ``cases`` (the count the suite was called with) and ``case``
(the index in the draw) redraw the case; ``law`` is the tag; ``inputs``
holds the case in the library's JSON forms (spec ``to_json_dict()``,
classes in edge tokens as the CLI reads them, based words as edge paths
from the basepoint, ``diagram_to_json``, representation ``to_json_dict()``,
orientations and sign triples as ``+``/``-`` strings); ``lhs`` and ``rhs``
are the two sides, combinations as the CLI prints them.  The same suites
back the test suite's acceptance module and the CLI selftest.
"""

from __future__ import annotations

import itertools
import json
import random

from . import homology as H
from . import quasilie as QL
from ._value import Value
from .diagrams import (DiskArc, ExplicitDiagram, LaneDiagram, all_orientations, combine_generic,
                       diagram_from_cyclic_path, diagram_to_json, diagram_to_word, dual_v, flip_gate,
                       opposite, word_to_diagram, _lane_route)
from .fixtures import qd2, qg1, qt2, qy1
from .fox import algebraic_brace
from .homotopy import bullet, gate_brace_geometric, kk_pairing, second_bracket
from .randomcase import (random_class, random_nontrivial_class, random_omega, random_surface,
                         random_word)
from .ring import GroupRingElement, LoopCombination, project_to_classes
from .surface import QuasiSurface
from .traceeval import (RepresentationPoint, random_representation, verify_derivation_n1,
                        verify_sl2_consistency)
from .words import ConjClass, Word, canonical_conjugacy

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


def _signs(signs: tuple[int, ...]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _json(qs: QuasiSurface, value):
    """A case input or a law side in the library's JSON form.  The only
    tuples are orientations and sign triples; sequences of other values
    are lists."""
    if isinstance(value, QuasiSurface):
        return value.spec.to_json_dict()
    if isinstance(value, ConjClass):
        return qs.format_class(value)
    if isinstance(value, Word):
        return qs.format_edge_path(qs.edge_path_of_word(value))
    if isinstance(value, LaneDiagram):
        return diagram_to_json(qs, value)
    if isinstance(value, RepresentationPoint):
        return value.to_json_dict()
    if isinstance(value, LoopCombination):
        return qs.format_combination(value)
    if isinstance(value, GroupRingElement):
        return [[c, _json(qs, w)] for w, c in value.sorted_terms()]
    if isinstance(value, tuple):
        return _signs(value)
    if isinstance(value, list):
        return [_json(qs, v) for v in value]
    return value if value is None or isinstance(value, (int, str)) else str(value)


def _run(name: str, seed: int, cases: int) -> SuiteResult:
    """Check the suite's laws on every case of its draw; the report counts
    the cases drawn, so a run that checked nothing says so."""
    result = SuiteResult(name, cases)
    draw, laws = _SUITES[name]
    checked = 0
    for case in draw(seed, cases):
        for tag, lhs, rhs in laws(**case):
            if lhs != rhs:
                qs = case["qs"]
                result.record(json.dumps({
                    "suite": name, "seed": seed, "cases": cases, "case": checked, "law": tag,
                    "inputs": {key: _json(qs, value) for key, value in case.items()},
                    "lhs": _json(qs, lhs), "rhs": _json(qs, rhs),
                }, sort_keys=True))
        checked += 1
    result.cases = checked
    if not checked:
        result.warning = "0 cases requested: vacuous pass"
    return result


# the shared draws


def _classes(rng: random.Random, qs: QuasiSurface, lengths, nontrivial_x: bool = False) -> dict:
    """A case on ``qs``: classes x, y, z of the given maximal lengths, in order."""
    case = {"qs": qs}
    for name, length in zip("xyz", lengths):
        draw = random_nontrivial_class if nontrivial_x and name == "x" else random_class
        case[name] = draw(rng, qs.rank, max_len=length)
    return case


def _fixture_cases(seed: int, cases: int, key: str, fixtures, *lengths: int):
    """``cases`` cases of classes on each fixture, each with its own ``Random``."""
    for make in fixtures:
        qs = make()
        rng = _rng(seed, f"{key}:{make.__name__}")
        for _ in range(cases):
            yield _classes(rng, qs, lengths)


def _surface_cases(rng: random.Random, cases: int, *lengths: int, nontrivial_x: bool = False):
    """Per case a random surface, an orientation ``omega``, then the classes."""
    for _ in range(cases):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        yield {"omega": omega, **_classes(rng, qs, lengths, nontrivial_x)}


# 1. geometric gate braces against the Fox-derivative route


def _draw_oracle(seed: int, cases: int):
    rng = _rng(seed, "oracle")
    for _ in range(cases):
        qs = random_surface(rng)
        gate = rng.choice(qs.gates)
        args = [[random_class(rng, qs.rank, max_len=8) for _ in range(m)] for m in (1, 2, 3)]
        yield {"qs": qs, "gate": gate, "args": args}


def _oracle_laws(qs, gate, args):
    derivative = qs.gate_derivative(gate)
    for loops in args:
        m = len(loops)
        yield (f"gate {m}-brace equals the Fox brace", gate_brace_geometric(qs, gate, loops),
               algebraic_brace([derivative] * m, [LoopCombination.from_class(c) for c in loops]))


def suite_oracle_braces(seed: int = 0, cases: int = 1000) -> SuiteResult:
    return _run("oracle_gate_braces", seed, cases)


# 2. the quasi-Jacobi identity


def _draw_jacobi(seed: int, cases: int):
    return _fixture_cases(seed, cases, "jacobi", (qt2, qg1, qd2), 8, 8, 8)


def _jacobi_laws(qs, x, y, z):
    report = QL.verify_quasi_jacobi(qs, x, y, z)
    yield "Jacobiator equals mu(x,y,z) - mu(y,x,z)", report.lhs, report.rhs


def suite_quasi_jacobi(seed: int = 0, cases_per_fixture: int = 1000) -> SuiteResult:
    return _run("quasi_jacobi", seed, cases_per_fixture)


# 3. orientation-change laws


def _omega_change_laws(qs, omega, x, y):
    vx = H.h1_class(qs, x)
    vy = H.h1_class(qs, y)
    base_dot = H.first_form(qs, omega, x, y)
    base_bullet = bullet(qs, omega, x, y)
    for k, gate in enumerate(qs.gates):
        flipped = flip_gate(omega, k)
        yield (f"homological flip law at {gate}", H.first_form(qs, flipped, x, y),
               base_dot - omega[k] * H.gate_dual(qs, gate, vx) * H.gate_dual(qs, gate, vy))
        yield (f"homotopy flip law at {gate}", bullet(qs, flipped, x, y),
               base_bullet - omega[k] * gate_brace_geometric(qs, gate, [x, y]))


def suite_omega_change(seed: int = 0, cases: int = 500) -> SuiteResult:
    return _run("omega_change", seed, cases)


# 4. symmetrization laws


def _symmetrization_laws(qs, omega, x, y):
    vx = H.h1_class(qs, x)
    vy = H.h1_class(qs, y)
    gate_term = sum(
        omega[k] * H.gate_dual(qs, g, vx) * H.gate_dual(qs, g, vy)
        for k, g in enumerate(qs.gates)
    )
    yield ("homological symmetrization", 2 * H.first_form(qs, omega, x, y),
           H.second_form(qs, vx, vy) + gate_term)
    brace_sum = LoopCombination.collect(
        (key, omega[k] * c)
        for k, g in enumerate(qs.gates)
        for key, c in gate_brace_geometric(qs, g, [x, y])
    )
    yield "homotopy symmetrization", bullet(qs, omega, x, y) + bullet(qs, omega, y, x), brace_sum


def suite_symmetrization(seed: int = 0, cases: int = 500) -> SuiteResult:
    return _run("symmetrization", seed, cases)


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


def _draw_invariance(seed: int, cases: int):
    rng = _rng(seed, "invariance")
    for case in _surface_cases(rng, cases, 8, 8, nontrivial_x=True):
        qs = case["qs"]
        dx = case["dx"] = word_to_diagram(qs, case["x"])
        dy = case["dy"] = word_to_diagram(qs, case["y"])
        # conjugation / rotation of the input word
        path = qs.cyclic_edge_path(case["x"])
        r = rng.randrange(len(path)) if path else 0
        case["rotated"] = diagram_from_cyclic_path(qs, path[r:] + path[:r])
        case["u"] = random_word(rng, qs.rank, max_len=3)
        # joint depth permutation on the combined family
        case["permuted"] = _permute_depths(rng, combine_generic(qs, [dx, dy]).diagrams())
        # argument interleaving swap: y's block below x's
        case["swapped"] = list(combine_generic(qs, [dy, dx]).diagrams())[::-1]
        # trivial detour insertion
        case["rerouted"] = _reroute_arc(qs, dx, rng.randrange(len(dx.arcs))) if dx.arcs else None
        yield case


def _invariance_laws(qs, omega, x, y, dx, dy, rotated, u, permuted, swapped, rerouted):
    base_dot = H.first_form(qs, omega, dx, dy)
    base_bullet = bullet(qs, omega, dx, dy)
    yield "conjugation keeps the class", canonical_conjugacy(u * x.representative() * ~u), x
    yield "rotated representative keeps the first form", H.first_form(qs, omega, rotated, dy), base_dot
    yield "rotated representative keeps the pairing", bullet(qs, omega, rotated, dy), base_bullet
    yield "rotated representative keeps the bracket", second_bracket(qs, rotated, y), second_bracket(qs, x, y)
    for tag, pair in (("depth permutation", permuted), ("interleaving swap", swapped)):
        explicit = ExplicitDiagram(tuple(pair), ())
        yield f"{tag} keeps the first form", H.first_form(qs, omega, explicit), base_dot
        yield f"{tag} keeps the pairing", bullet(qs, omega, explicit), base_bullet
    if rerouted is not None:
        yield "detour insertion keeps the class", diagram_to_word(qs, rerouted), x
        yield "detour insertion keeps the first form", H.first_form(qs, omega, rerouted, dy), base_dot
        yield "detour insertion keeps the pairing", bullet(qs, omega, rerouted, dy), base_bullet


def suite_representative_invariance(seed: int = 0, cases: int = 500) -> SuiteResult:
    return _run("representative_invariance", seed, cases)


# 6. orientation independence of the skew forms


def _draw_omega_independence(seed: int, cases: int):
    return _fixture_cases(seed, cases, "omega-indep", (qt2, qg1, qy1), 8, 8)


def _omega_independence_laws(qs, x, y):
    def skew(omega):
        return (bullet(qs, omega, x, y) - bullet(qs, omega, y, x),
                H.first_form(qs, omega, x, y) - H.first_form(qs, omega, y, x))

    orientations = iter(all_orientations(qs))
    reference = next(orientations)
    reference_bracket, reference_ix = skew(reference)
    for omega in orientations:
        bracket, ix = skew(omega)
        at = f"at {_signs(omega)} equals at {_signs(reference)}"
        yield f"skew pairing {at}", bracket, reference_bracket
        yield f"skew first form {at}", ix, reference_ix


def suite_omega_independence(seed: int = 0, cases_per_fixture: int = 6) -> SuiteResult:
    return _run("omega_independence", seed, cases_per_fixture)


# 7. symmetry laws


_SIGN_TRIPLES = list(itertools.product((1, -1), repeat=3))


def _draw_symmetries(seed: int, cases: int):
    rng = _rng(seed, "symmetries")
    for i, case in enumerate(_surface_cases(rng, cases, 8, 8, 6)):
        case["gate"] = rng.choice(case["qs"].gates)
        # the sign-triple table is finite: the first case checks it whole
        case["signs"] = _SIGN_TRIPLES if i == 0 else []
        yield case


def _symmetry_laws(qs, omega, x, y, z, gate, signs):
    for e in signs:
        base = QL.delta3(*e)
        others = sorted(set(itertools.permutations(e)) - {e})
        if others:
            yield f"delta3 is symmetric at {_signs(e)}", [QL.delta3(*p) for p in others], [base] * len(others)
        yield f"delta3 companion identity at {_signs(e)}", base - e[0] * e[1] * e[2], QL.delta3_companion(*e)
    if signs:
        yield "delta3(+,+,+) = 2", QL.delta3(1, 1, 1), 2
    bracket = second_bracket(qs, x, y)
    yield "bracket is skew", bracket, -second_bracket(qs, y, x)
    # the bracket's opposite-side route is skew by construction; the
    # pairing minus its transpose is its independent second route
    pairing = bullet(qs, omega, x, y)
    yield "bracket is the pairing minus its transpose", bracket, pairing - bullet(qs, omega, y, x)
    yield "reversal law", pairing, -bullet(qs, opposite(omega), y, x)
    yield "3-brace is cyclic", gate_brace_geometric(qs, gate, [x, y, z]), gate_brace_geometric(qs, gate, [z, x, y])
    s = QL.s_bracket(qs, x, y, z)
    loops = {"x": x, "y": y, "z": z}
    for order in itertools.islice(itertools.permutations("xyz"), 1, None):
        yield f"s({','.join(order)}) = s(x,y,z)", QL.s_bracket(qs, *map(loops.get, order)), s


def suite_symmetries(seed: int = 0, cases: int = 500) -> SuiteResult:
    return _run("symmetries", seed, cases)


# 8. derivation certificates of the based pairing


def _draw_derivation(seed: int, cases: int):
    rng = _rng(seed, "derivation")
    for case in _surface_cases(rng, cases, 8):
        case["u"] = random_word(rng, case["qs"].rank, max_len=6)
        case["v"] = random_word(rng, case["qs"].rank, max_len=6)
        yield case


def _derivation_laws(qs, omega, x, u, v):
    yield ("based Leibniz rule", kk_pairing(qs, omega, x, u * v),
           kk_pairing(qs, omega, x, u).right_mul(v) + kk_pairing(qs, omega, x, v).left_mul(u))
    yield ("projection intertwines the pairings", project_to_classes(kk_pairing(qs, omega, x, u)),
           bullet(qs, omega, x, canonical_conjugacy(u)))


def suite_derivation_certificates(seed: int = 0, cases: int = 500) -> SuiteResult:
    return _run("derivation_certificates", seed, cases)


# 9. trace descent at representation points


def _draw_trace(seed: int, cases: int):
    for make in (qt2, qg1, qd2):
        qs = make()
        rng = _rng(seed, f"trace:{make.__name__}")
        for n in (1, 2, 3):
            for _ in range(cases):
                case = {"rho": random_representation(qs, n, rng), **_classes(rng, qs, (6, 6, 4))}
                case["gate"] = rng.choice(qs.gates)
                case["shift"] = random_word(rng, qs.rank, max_len=3)
                case["rho1"] = random_representation(qs, 2, rng, det_one=True) if n == 2 else None
                case["u"] = random_word(rng, qs.rank, max_len=4) if n < 3 else None
                case["v"] = random_word(rng, qs.rank, max_len=4) if n < 3 else None
                yield case


def _trace_laws(rho, qs, x, y, z, gate, shift, rho1, u, v):
    tr = rho.eval_trace
    yield "evaluated bracket is skew", tr(second_bracket(qs, x, y)), -tr(second_bracket(qs, y, x))
    yield ("evaluated 3-brace is cyclic", tr(gate_brace_geometric(qs, gate, [x, y, z])),
           tr(gate_brace_geometric(qs, gate, [z, x, y])))
    mu_diff = QL.mu_total(qs, x, y, z) - QL.mu_total(qs, y, x, z)
    yield "evaluated quasi-Jacobi", tr(QL.jacobiator(qs, x, y, z)), tr(mu_diff)
    # shifted gate derivatives induce equal evaluated braces
    d = qs.gate_derivative(gate)
    shifted = d.shifted(shift)
    xs = [LoopCombination.from_class(x), LoopCombination.from_class(y)]
    yield ("shifted derivative keeps the evaluated brace", tr(algebraic_brace([d, d], xs)),
           tr(algebraic_brace([shifted, shifted], xs)))
    if rho.n == 1:
        report = verify_derivation_n1(qs, rho, x, u, v)
        yield "n=1 derivation certificate", report.lhs, report.rhs
    if rho1 is not None:
        report = verify_sl2_consistency(qs, rho1, x, u, v)
        yield "determinant-one consistency", report.lhs, report.rhs


def suite_trace_descent(seed: int = 0, points_per_fixture: int = 50) -> SuiteResult:
    return _run("trace_descent", seed, points_per_fixture)


# 10. pinned worked values on the two-gate fixture


def _draw_fixture_values(seed: int, cases: int):
    # one fixed case, so any positive count checks it once
    if cases:
        qs = qt2()
        yield {"qs": qs, "z": qs.parse_loop("g1 g2^-1")}


def _fixture_value_laws(qs, z):
    zw = z.representative()
    yield "v1(z)", dual_v(qs, "g1", word_to_diagram(qs, z)), 1
    yield "v2(z)", dual_v(qs, "g2", word_to_diagram(qs, z)), -1
    yield "mu1_g1", gate_brace_geometric(qs, "g1", [z]), LoopCombination.from_word(zw)
    yield "mu1_g2", gate_brace_geometric(qs, "g2", [z]), -1 * LoopCombination.from_word(zw)
    yield "mu2_g1", gate_brace_geometric(qs, "g1", [z, z]), LoopCombination.from_word(zw * zw)
    yield "bullet", bullet(qs, None, z, z), LoopCombination.from_word(zw * zw)
    yield "dot", H.first_form(qs, None, z, z), 1
    yield "mu_total", QL.mu_total(qs, z, z, z), LoopCombination.zero()


def suite_fixture_values(seed: int = 0, cases: int = 1) -> SuiteResult:
    """The worked table is one case: it is checked once for any positive
    count and reported as ``min(cases, 1)`` cases."""
    return _run("fixture_values", seed, cases)


# each suite's report name, draw and laws; a recorded case is redrawn by
# its suite's draw at the recorded seed and count
_SUITES = {
    "oracle_gate_braces": (_draw_oracle, _oracle_laws),
    "quasi_jacobi": (_draw_jacobi, _jacobi_laws),
    "omega_change": (lambda seed, cases: _surface_cases(_rng(seed, "omega-change"), cases, 8, 8),
                     _omega_change_laws),
    "symmetrization": (lambda seed, cases: _surface_cases(_rng(seed, "symmetrization"), cases, 8, 8),
                       _symmetrization_laws),
    "representative_invariance": (_draw_invariance, _invariance_laws),
    "omega_independence": (_draw_omega_independence, _omega_independence_laws),
    "symmetries": (_draw_symmetries, _symmetry_laws),
    "derivation_certificates": (_draw_derivation, _derivation_laws),
    "trace_descent": (_draw_trace, _trace_laws),
    "fixture_values": (_draw_fixture_values, _fixture_value_laws),
}

# each suite with its case count at full acceptance scale and at the CLI default
SUITE_COUNTS = (
    (suite_oracle_braces, 1000, 120),
    (suite_quasi_jacobi, 1000, 80),
    (suite_omega_change, 500, 60),
    (suite_symmetrization, 500, 60),
    (suite_representative_invariance, 500, 60),
    (suite_omega_independence, 6, 4),
    (suite_symmetries, 500, 60),
    (suite_derivation_certificates, 500, 60),
    (suite_trace_descent, 50, 8),
    (suite_fixture_values, 1, 1),
)
ALL_SUITES = tuple(suite for suite, _, _ in SUITE_COUNTS)
