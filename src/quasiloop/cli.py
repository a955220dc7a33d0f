"""Command-line interface: JSON in, JSON out, exit code 0 iff all
requested checks pass.

Loops are written in edge tokens: gate ids for gate edges ("g1",
"g1^-1") and auto-named graph edges ("e1", ...), space separated; a
leading "@" loads a serialized lane diagram from a JSON file instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import homology as H
from . import quasilie as QL
from .diagrams import LaneDiagram, diagram_from_json, diagram_to_word, parse_omega
from .fixtures import FIXTURE_NAMES, fixture_spec
from .homotopy import bullet, gate_brace_geometric, second_bracket
from .selftest import ACCEPTANCE_COUNTS, ALL_SUITES, DEFAULT_COUNTS
from .surface import QuasiSurface, build, load_spec
from .traceeval import load_representation
from .words import ConjClass


def _load_surface(path: str) -> QuasiSurface:
    if path.startswith("fixture:"):
        name = path.split(":", 1)[1]
        return build(fixture_spec(name))
    return build(load_spec(path))


def _parse_loop(qs: QuasiSurface, text: str) -> "ConjClass | LaneDiagram":
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return diagram_from_json(qs, json.load(fh))
    return qs.parse_loop(text)


def _loop_args(qs: QuasiSurface, args, names=("x", "y", "z")) -> list:
    loops = []
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            loops.append(_parse_loop(qs, value))
    return loops


def _emit(args, payload: dict, ok: bool = True) -> int:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def _omega_text(omega) -> str:
    return "".join("+" if s > 0 else "-" for s in omega)


def cmd_validate(args) -> int:
    qs = _load_surface(args.spec)
    return _emit(args, {"ok": True, **qs.summary()})


# The loop operations that share one report shape, by command:
# (help, operation name, function, loop slots, takes an orientation).
# Each function is called as fn(qs, omega, *loops).  The lambdas look their
# target up when called, so a wrapper installed on the module sees the call.
OPERATIONS = {
    "bracket": ("the skew homotopy bracket [x, y]", "second_bracket",
                lambda qs, omega, x, y: second_bracket(qs, x, y, omega), ("x", "y"), True),
    "bullet": ("the oriented homotopy pairing x *_omega y", "bullet",
               lambda qs, omega, x, y: bullet(qs, omega, x, y), ("x", "y"), True),
    "mu": ("total 3-bracket (gate braces summed over gates)", "mu_total",
           lambda qs, omega, x, y, z: QL.mu_total(qs, x, y, z), ("x", "y", "z"), False),
    "s": ("the fully symmetric 3-bracket", "s_bracket",
          lambda qs, omega, x, y, z: QL.s_bracket(qs, x, y, z), ("x", "y", "z"), False),
}


def cmd_operation(args) -> int:
    _, operation, fn, slots, takes_omega = OPERATIONS[args.command]
    qs = _load_surface(args.spec)
    omega = parse_omega(qs, args.omega) if takes_omega else None
    value = fn(qs, omega, *_loop_args(qs, args, slots))
    payload = {"operation": operation, "value": qs.format_combination(value)}
    payload.update((name, getattr(args, name)) for name in slots)
    if takes_omega:
        payload["omega"] = _omega_text(omega)
    _maybe_trace(args, payload, value)
    return _emit(args, payload)


def cmd_brace(args) -> int:
    qs = _load_surface(args.spec)
    loops = _loop_args(qs, args)
    if args.m is not None and args.m != len(loops):
        raise ValueError(f"--m {args.m} does not match the {len(loops)} loops given")
    value = gate_brace_geometric(qs, args.gate, loops)
    payload = {
        "operation": "gate_brace",
        "gate": args.gate,
        "m": len(loops),
        "loops": [getattr(args, n) for n in ("x", "y", "z") if getattr(args, n, None) is not None],
        "value": qs.format_combination(value),
    }
    _maybe_trace(args, payload, value)
    return _emit(args, payload)


def cmd_homology(args) -> int:
    qs = _load_surface(args.spec)
    payload = {
        "operation": "homology_gram",
        "generators": [qs.format_edge_path(l) for l in qs.generator_loops],
        "gram": H.gram_matrix(qs),
    }
    return _emit(args, payload)


def cmd_jacobi(args) -> int:
    qs = _load_surface(args.spec)
    x, y, z = _loop_args(qs, args)
    report = QL.verify_quasi_jacobi(qs, x, y, z)
    payload = {
        "operation": "quasi_jacobi",
        "x": args.x,
        "y": args.y,
        "z": args.z,
        "lhs": qs.format_combination(report.lhs),
        "rhs": qs.format_combination(report.rhs),
        "difference": qs.format_combination(report.difference),
        "equal": report.equal,
    }
    return _emit(args, payload, ok=report.equal)


def cmd_diagnostics(args) -> int:
    qs = _load_surface(args.spec)
    omega = parse_omega(qs, args.omega)
    x, y, z = _loop_args(qs, args)
    diag = QL.p_and_u_diagnostics(qs, omega, x, y, z)
    ok = diag.p_decomposes and diag.jacobiator_matches
    payload = {
        "operation": "p_and_u_diagnostics",
        "omega": _omega_text(omega),
        "P": qs.format_combination(diag.p_xyz),
        "u_omega": qs.format_combination(diag.u_omega),
        "u_omega_bar": qs.format_combination(diag.u_omega_bar),
        "jacobiator": qs.format_combination(diag.jacobiator),
        "p_decomposes": diag.p_decomposes,
        "jacobiator_matches": diag.jacobiator_matches,
    }
    return _emit(args, payload, ok=ok)


def cmd_trace_eval(args) -> int:
    qs = _load_surface(args.spec)
    rho = load_representation(args.rep)
    if rho.rank != qs.rank:
        raise ValueError(
            f"representation has {rho.rank} generator images, surface rank is {qs.rank}"
        )
    loop = _parse_loop(qs, args.expr)
    if isinstance(loop, LaneDiagram):
        loop = diagram_to_word(qs, loop)
    value = rho.eval_trace(loop)
    payload = {
        "operation": "trace_eval",
        "n": rho.n,
        "expr": args.expr,
        "trace": str(value),
    }
    return _emit(args, payload)


def _maybe_trace(args, payload: dict, value) -> None:
    rep = getattr(args, "rep", None)
    if rep:
        rho = load_representation(rep)
        payload["trace"] = str(rho.eval_trace(value))


def cmd_selftest(args) -> int:
    if args.cases is not None and args.cases < 0:
        raise ValueError(f"--cases must be >= 0, got {args.cases}")
    counts = dict(ACCEPTANCE_COUNTS if args.full else DEFAULT_COUNTS)
    if args.cases is not None:
        counts = {name: args.cases for name in counts}
        counts["suite_fixture_values"] = min(1, args.cases)
    reports = []
    all_ok = True
    for suite in ALL_SUITES:
        result = suite(args.seed, counts.get(suite.__name__, 0))
        reports.append(result.to_json_dict())
        all_ok = all_ok and result.passed
    payload = {"operation": "selftest", "seed": args.seed, "passed": all_ok, "suites": reports}
    return _emit(args, payload, ok=all_ok)


def _add_common(p: argparse.ArgumentParser, loops: int = 0, omega: bool = False,
                rep: bool = False) -> None:
    p.add_argument("--spec", required=True,
                   help="quasi-surface JSON file, or fixture:<name> "
                        f"({', '.join(FIXTURE_NAMES)})")
    if omega:
        p.add_argument("--omega", default=None,
                       help="gate orientation, one +/- per gate in declared order "
                            "(use --omega=-+... when it starts with -)")
    for name in ("x", "y", "z")[:loops]:
        p.add_argument(f"--{name}", required=True, help="loop word or @diagram.json")
    if rep:
        p.add_argument("--rep", default=None, help="representation point JSON file")
    p.add_argument("--json-out", default=None, help="write the JSON report to a file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiloop",
        description="Exact loop brackets and braces on combinatorial quasi-surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"quasiloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a spec and print its presentation")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    for name, (help_text, _, _, slots, takes_omega) in OPERATIONS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p, loops=len(slots), omega=takes_omega, rep=True)
        p.set_defaults(func=cmd_operation)

    p = sub.add_parser("brace", help="geometric gate brace of m loops at one gate")
    _add_common(p, loops=0, rep=True)
    p.add_argument("--gate", required=True)
    p.add_argument("--m", type=int, default=None)
    for name in ("x", "y", "z"):
        p.add_argument(f"--{name}", default=None, help="loop word or @diagram.json")
    p.set_defaults(func=cmd_brace)

    p = sub.add_parser("homology", help="Gram matrix of the homological form")
    _add_common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("jacobi", help="verify the quasi-Jacobi identity on a triple")
    _add_common(p, loops=3)
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("diagnostics", help="P and u associativity-defect diagnostics")
    _add_common(p, loops=3, omega=True)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("trace-eval", help="exact trace of a loop at a representation point")
    _add_common(p)
    p.add_argument("--rep", required=True, help="representation point JSON file")
    p.add_argument("--expr", required=True, help="loop word or @diagram.json")
    p.set_defaults(func=cmd_trace_eval)

    p = sub.add_parser("selftest", help="run the verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="case count applied to every suite (0 = vacuous pass)")
    p.add_argument("--full", action="store_true",
                   help="run at full acceptance scale")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
