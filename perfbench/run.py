"""The quasiloop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the program is the pure-Python package under ``src/`` of
the checkout this file sits in.  Each run starts worker processes (one at
a time) and prints a short report, then, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

- ``--trace 0``: the end-to-end metrics.  ``setup_s`` is the median of
  ``SETUP_REPEATS`` set-up-only workers and the measuring worker, each
  timed from process start to READY, which comes after the program's
  set-up and before the benchmark makes its own inputs.  The measuring
  worker then runs ops in a closed loop, one client, for ``--seconds``.
- ``--trace 1``: the per-layer metrics, from a fixed list of ops run with
  the tracer installed and then again without it.

Every op checks its own result; the reference inputs' result digest must
match ``digests.json``.  Exit code 0 only when the run is correct.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10
DEADLINE_S = 170.0
WORKLOADS = ("jacobi_long", "law_mix", "trace_points", "cli_oneshot")


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, inject_every: int,
          deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode,
           str(inject_every)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise WorkerError(f"{workload} worker ({mode}) failed during set-up")
        rest = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker ({mode}) ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(result: dict, setups: list[float], tail_pct: int) -> tuple[dict, list[str]]:
    lat = result["latencies_ms"]
    n = len(lat)
    if n == 0:
        return {}, ["no op completed: nothing to measure"]
    beyond = n - int(max(1, -(-n * tail_pct // 100)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (n / (sum(lat) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (percentile(lat, tail_pct), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = [f"latency_tail_ms is p{tail_pct} over {n} completed ops ({beyond} beyond it"
             + ("; fewer than 10, read it as a maximum)" if beyond < 10 else ")"),
             f"setup_s is the median of {len(setups)} set-ups: "
             + " ".join(f"{s:.4f}" for s in setups)]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure-every", type=int, default=0,
                        help="make every N-th op raise (checks that failures are counted)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quasiloop" / "__init__.py").is_file():
        print(f"error: no quasiloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    try:
        if args.trace:
            _, result = spawn(args.workload, args.seed, args.seconds, "trace",
                              args.inject_failure_every, deadline)
            metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
            notes = [f"traced {result['attempted']} ops; spans kept {result['spans']['kept']}, "
                     f"dropped {result['spans']['dropped']} (see .bench_out/)"]
        else:
            setups = [spawn(args.workload, args.seed, args.seconds, "setup", 0, deadline)[0]
                      for _ in range(SETUP_REPEATS)]
            setup_s, result = spawn(args.workload, args.seed, args.seconds, "plain",
                                    args.inject_failure_every, deadline)
            metrics, notes = end_to_end(result, setups + [setup_s], result["tail_pct"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    golden_ok = result["golden"] == recorded.get(args.workload)
    correct = attempted > 0 and failed == 0 and golden_ok and not result["messages"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# inputs {result['inputs']}  results {result['results']}  reference "
          f"{result['golden']} ({'matches' if golden_ok else 'DIFFERS from'} digests.json)")
    print(f"# attempted {attempted} failed {failed} "
          f"failed_ratio {failed / attempted if attempted else 1.0:.6g}")
    for line in notes + result["messages"]:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
