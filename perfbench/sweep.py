"""Scaling sweep: reported once as a baseline, never gated.

    python3 perfbench/sweep.py [OUT_JSON]

Times ``verify_quasi_jacobi`` on qd2 with three seeded loop triples of L
drawn letters each, for L = 8, 12, 16, 24. Also times ``mat_det`` and
``mat_inverse`` on seeded unimodular n x n matrices, for n = 2..8.
Reports medians. Writes JSON to OUT_JSON, or to stdout when none is given.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402

import quasiloop as Q  # noqa: E402
from quasiloop import traceeval as TE  # noqa: E402

LENGTHS = (8, 12, 16, 24)
SIZES = range(2, 9)
TRIPLES = 3


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> int:
    qs = Q.build(Q.QuasiSurfaceSpec.from_json_dict(inputs.QD2))
    rng = random.Random("perfbench:sweep")
    jacobi = {}
    for length in LENGTHS:
        times = []
        for _ in range(TRIPLES):
            x, y, z = (Q.canonical_conjugacy(Q.Word(inputs.draw_word(rng, qs.rank, length)))
                       for _ in range(3))
            start = time.perf_counter()
            report = Q.verify_quasi_jacobi(qs, x, y, z)
            times.append(time.perf_counter() - start)
            if not report.equal:
                raise SystemExit(f"quasi-Jacobi fails at L={length}")
        jacobi[str(length)] = {"median_s": statistics.median(times), "runs_s": times}
        print(f"jacobi qd2 L={length}: {statistics.median(times):.4f} s", file=sys.stderr)
    matrices = {}
    for n in SIZES:
        m = Q.RepresentationPoint.create(n, [inputs.unimodular(rng, n)[0]]).images[0]
        reps = 3 if n >= 7 else 9
        det = statistics.median(timed(TE.mat_det, m) for _ in range(reps))
        inv = statistics.median(timed(TE.mat_inverse, m) for _ in range(reps))
        matrices[str(n)] = {"mat_det_s": det, "mat_inverse_s": inv}
        print(f"n={n}: mat_det {det:.6f} s, mat_inverse {inv:.6f} s", file=sys.stderr)
    result = {
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version()},
        "verify_quasi_jacobi_qd2_by_drawn_letters": jacobi,
        "matrix_ops_by_n": matrices,
    }
    text = json.dumps(result, indent=2) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
