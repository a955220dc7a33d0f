"""The four benchmark workloads: set-up, op stream, and one checked op.

A workload object does the program's set-up in ``__init__`` (import,
surface builds, values computed once), which ``setup_s`` times.  Then
``prepare()`` does the benchmark's own untimed work: seeded inputs and
expected values.  It yields op inputs from ``ops()`` and runs one op in
``run(op)``.  ``run`` checks the op's own two-route identity or
expected payload and raises :class:`CheckFailed` on a mismatch; it returns
a JSON-able result that the worker hashes into the run's result digest.

Calls into the program go through module attributes at call time
(``Q.bullet``, ``TE.mat_det``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import inputs

import quasiloop as Q
from quasiloop import traceeval as TE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_ENTRY = "import sys; from quasiloop.cli import main; sys.exit(main())"


class CheckFailed(Exception):
    """An op's two routes disagreed, or its payload was not the expected one."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def surface_of(spec: dict):
    return Q.build(Q.QuasiSurfaceSpec.from_json_dict(spec))


def conj(letters):
    return Q.canonical_conjugacy(Q.Word(letters))


class Workload:
    """Tracing installs the wrappers in this process; :class:`CliOneshot`
    overrides both hooks because its ops run in child processes."""

    def prepare(self) -> None:
        """Benchmark-only work done after the timed set-up."""

    def begin_trace(self, tracer) -> None:
        tracer.install()

    def end_trace(self, tracer) -> None:
        tracer.uninstall()


class JacobiLong(Workload):
    """``verify_quasi_jacobi`` on triples of 10-13-letter loops on qg1 and qd2."""

    name = "jacobi_long"
    tail_pct = 90
    trace_ops = inputs.JACOBI_PERIOD
    golden_ops = 4

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.surfaces = {name: surface_of(spec) for name, spec in inputs.FIXTURES.items()}

    def ops(self):
        return inputs.jacobi_ops(self.seed)

    def run(self, op):
        qs = self.surfaces[op["surface"]]
        x, y, z = (conj(l) for l in op["loops"])
        report = Q.verify_quasi_jacobi(qs, x, y, z)
        check(report.equal, f"quasi-Jacobi fails: {report.difference.to_pairs()}")
        return report.lhs.to_pairs()


class LawMix(Workload):
    """One two-route law check per op on a freshly built random surface."""

    name = "law_mix"
    tail_pct = 99
    trace_ops = 2000
    golden_ops = 200

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.specs: list[dict] = []

    def prepare(self) -> None:
        self.specs = inputs.law_specs(self.seed)

    def ops(self):
        return inputs.law_ops(self.seed, self.specs)

    def run(self, op):
        qs = surface_of(self.specs[op["spec"]])
        x, y, z = (conj(l) for l in op["loops"])
        omega = tuple(op["omega"])
        return getattr(self, "_" + op["kind"])(qs, op, omega, x, y, z)

    def _brace_oracle(self, qs, op, omega, x, y, z):
        gate = qs.gates[op["gate"]]
        derivative = qs.gate_derivative(gate)
        out = []
        for args in ([x], [x, y], [x, y, z]):
            geo = Q.gate_brace_geometric(qs, gate, args)
            alg = Q.algebraic_brace([derivative] * len(args),
                                    [Q.LoopCombination.from_class(c) for c in args])
            check(geo == alg, f"m={len(args)} brace at {gate}: geometric != Fox")
            out.append(geo.to_pairs())
        return out

    def _flip_law(self, qs, op, omega, x, y, z):
        vx, vy = Q.h1_class(qs, x), Q.h1_class(qs, y)
        dot = Q.first_form(qs, omega, x, y)
        bul = Q.bullet(qs, omega, x, y)
        for k, gate in enumerate(qs.gates):
            flipped = omega[:k] + (-omega[k],) + omega[k + 1:]
            dual = Q.gate_dual(qs, gate, vx) * Q.gate_dual(qs, gate, vy)
            check(Q.first_form(qs, flipped, x, y) == dot - omega[k] * dual,
                  f"first_form flip law fails at {gate}")
            check(Q.bullet(qs, flipped, x, y)
                  == bul - omega[k] * Q.gate_brace_geometric(qs, gate, [x, y]),
                  f"bullet flip law fails at {gate}")
        return [dot, bul.to_pairs()]

    def _symmetrization(self, qs, op, omega, x, y, z):
        vx, vy = Q.h1_class(qs, x), Q.h1_class(qs, y)
        gram = Q.gram_matrix(qs)
        r = qs.rank
        check(all(gram[i][j] == -gram[j][i] for i in range(r) for j in range(r)),
              "gram matrix is not skew")
        skew = Q.second_form(qs, vx, vy)
        check(skew == sum(vx[i] * vy[j] * gram[i][j] for i in range(r) for j in range(r)),
              "second_form disagrees with the gram matrix")
        gate_term = sum(omega[k] * Q.gate_dual(qs, g, vx) * Q.gate_dual(qs, g, vy)
                        for k, g in enumerate(qs.gates))
        dot = Q.first_form(qs, omega, x, y)
        check(2 * dot == skew + gate_term, "homological symmetrization fails")
        braces = Q.LoopCombination.zero()
        for k, g in enumerate(qs.gates):
            braces = braces + omega[k] * Q.gate_brace_geometric(qs, g, [x, y])
        check(Q.bullet(qs, omega, x, y) + Q.bullet(qs, omega, y, x) == braces,
              "homotopy symmetrization fails")
        return [skew, dot, braces.to_pairs()]

    def _leibniz(self, qs, op, omega, x, y, z):
        u, v = (Q.Word(l) for l in op["based"])
        lhs = Q.kk_pairing(qs, omega, x, u * v)
        ku = Q.kk_pairing(qs, omega, x, u)
        rhs = ku.right_mul(v) + Q.kk_pairing(qs, omega, x, v).left_mul(u)
        check(lhs == rhs, "based Leibniz rule fails")
        check(Q.project_to_classes(ku) == Q.bullet(qs, omega, x, Q.canonical_conjugacy(u)),
              "projection of kk_pairing != bullet")
        return lhs.to_pairs()


class TracePoints(Workload):
    """Per op, one seeded point of each size on each surface: create it,
    check its inverses and determinants, and evaluate traces of bracket,
    brace and Jacobiator values computed in set-up.  Each trace is checked
    against an integer evaluation done by the benchmark (``inputs.int_trace_word``),
    so a wrong ``mat_mul``, ``mat_inverse`` or ``eval_trace`` fails the op."""

    name = "trace_points"
    tail_pct = 80  # 60-130 ops in a 25 s run; p80 keeps 10 or more beyond it
    trace_ops = 32
    golden_ops = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.surfaces = {name: surface_of(spec) for name, spec in inputs.FIXTURES.items()}
        self.values = {}
        for name, triples in inputs.TRACE_VALUES.items():
            qs = self.surfaces[name]
            per_surface = []
            for gate, loops in triples:
                x, y, z = (conj(l) for l in loops)
                per_surface.append({
                    "xy": Q.second_bracket(qs, x, y),
                    "yx": Q.second_bracket(qs, y, x),
                    "brace": Q.gate_brace_geometric(qs, gate, [x, y, z]),
                    "brace_rot": Q.gate_brace_geometric(qs, gate, [z, x, y]),
                    "jacobiator": Q.jacobiator(qs, x, y, z),
                    "mu_diff": Q.mu_total(qs, x, y, z) - Q.mu_total(qs, y, x, z),
                })
            self.values[name] = per_surface

    def ops(self):
        """Points with the traces the benchmark expects, computed with
        plain integers from the values' class representatives."""
        terms = {name: [{k: [(c.representative().letters, coeff) for c, coeff in v.terms.items()]
                         for k, v in vals.items()} for vals in per_surface]
                 for name, per_surface in self.values.items()}
        for points in inputs.trace_ops(self.seed):
            for point in points:
                images, inverses = point["images"], point["inverses"]
                point["expect"] = [
                    {k: sum(coeff * inputs.int_trace_word(images, inverses, letters)
                            for letters, coeff in value) for k, value in vals.items()}
                    for vals in terms[point["surface"]]]
            yield points

    def run(self, op):
        out = []
        for point in op:
            rho = Q.RepresentationPoint.create(point["n"], point["images"])
            check([[list(row) for row in m] for m in rho.inverses] == point["inverses"],
                  "an image's inverse is wrong")
            for m in rho.images:
                check(TE.mat_det(m) in (1, -1), "image determinant is not +-1")
            for vals, expect in zip(self.values[point["surface"]], point["expect"]):
                tr = {k: rho.eval_trace(v) for k, v in vals.items()}
                check(tr == expect, "a trace differs from the integer evaluation")
                check(tr["xy"] == -tr["yx"], "evaluated bracket is not skew")
                check(tr["brace"] == tr["brace_rot"], "evaluated 3-brace is not cyclic")
                check(tr["jacobiator"] == tr["mu_diff"], "evaluated quasi-Jacobi fails")
                out.append([str(tr[k]) for k in sorted(tr)])
        return out


class CliOneshot(Workload):
    """One ``quasiloop`` subprocess per op, checked against the library.

    Children run one at a time.  ``child`` selects how they start:
    ``"entry"``, the console-script entry point (plain runs), or
    ``"timed"``, the benchmark's ``cli_driver.py``, which times import and
    ``main`` and, when traced, records per-layer aggregates in the child."""

    name = "cli_oneshot"
    tail_pct = 90
    trace_ops = 24
    golden_ops = 8

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.child = "entry"
        self.tracer = None
        self.cli_timings: list[tuple[float, float, float]] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.calls: list[dict] = []

    def prepare(self) -> None:
        self.calls = [self._expect(i, c) for i, c in enumerate(inputs.cli_calls(self.seed))]

    def _expect(self, i: int, call: dict) -> dict:
        spec = inputs.FIXTURES[call["surface"]]
        qs = surface_of(spec)
        cmd = call["command"]
        argv = [cmd, "--spec", f"fixture:{call['surface']}"]
        loops = [qs.parse_loop(t) for t in call["loops"]]
        x, y, z = loops
        fmt = qs.format_combination
        if cmd == "validate":
            expect = {"ok": True, **qs.summary()}
        elif cmd in ("bracket", "bullet"):
            omega = tuple(1 if c == "+" else -1 for c in call["omega"])
            argv += [f"--omega={call['omega']}", "--x", call["loops"][0], "--y", call["loops"][1]]
            value = Q.second_bracket(qs, x, y, omega) if cmd == "bracket" else Q.bullet(qs, omega, x, y)
            expect = {"value": fmt(value)}
        elif cmd == "brace":
            argv += ["--gate", call["gate"], "--x", call["loops"][0], "--y", call["loops"][1]]
            expect = {"value": fmt(Q.gate_brace_geometric(qs, call["gate"], [x, y]))}
        elif cmd == "mu":
            argv += ["--x", call["loops"][0], "--y", call["loops"][1], "--z", call["loops"][2]]
            expect = {"value": fmt(Q.mu_total(qs, x, y, z))}
        elif cmd == "jacobi":
            argv += ["--x", call["loops"][0], "--y", call["loops"][1], "--z", call["loops"][2]]
            expect = {"equal": True, "lhs": fmt(Q.jacobiator(qs, x, y, z))}
        elif cmd == "homology":
            expect = {"gram": Q.gram_matrix(qs)}
        elif cmd == "trace-eval":
            rep = {"n": 2, "images": {f"g{k + 1}": m for k, m in enumerate(call["images"])}}
            path = self.out_dir / f"rep-{self.seed}-{i}.json"
            path.write_text(json.dumps(rep), encoding="utf-8")
            argv += ["--rep", str(path), "--expr", call["loops"][0]]
            rho = Q.RepresentationPoint.from_json_dict(rep)
            expect = {"trace": str(rho.eval_trace(x))}
        else:
            raise ValueError(f"unknown command {cmd!r}")
        return {"argv": argv, "expect": expect}

    def ops(self):
        k = 0
        while True:
            yield self.calls[k % len(self.calls)]
            k += 1

    def run(self, op):
        timings = self.out_dir / "cli-timings.json"
        if self.child == "entry":
            cmd = [sys.executable, "-c", CLI_ENTRY, *op["argv"]]
        else:
            cmd = [sys.executable, str(HERE / "cli_driver.py"), str(timings),
                   "1" if self.tracer is not None else "0", *op["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)
        wall = time.perf_counter() - start
        check(proc.returncode == 0, f"{op['argv'][0]} exited {proc.returncode}: {proc.stderr.strip()}")
        payload = json.loads(proc.stdout)
        for key, value in op["expect"].items():
            check(payload.get(key) == value, f"{op['argv'][0]}: {key} differs from the library")
        if self.child == "timed":
            t = json.loads(timings.read_text(encoding="utf-8"))
            if self.tracer is not None:
                self.tracer.merge(t["aggregates"])
            else:
                self.cli_timings.append((t["import_s"], t["main_s"], wall - t["import_s"] - t["main_s"]))
        return proc.stdout

    def begin_trace(self, tracer) -> None:
        self.child, self.tracer = "timed", tracer

    def end_trace(self, tracer) -> None:
        self.tracer = None


WORKLOADS = {w.name: w for w in (JacobiLong, LawMix, TracePoints, CliOneshot)}
