"""One benchmark process: set up a workload, signal READY, run its ops.

Started by ``run.py``; not meant to be run by hand.  Usage:
``worker.py WORKLOAD SEED SECONDS MODE INJECT_EVERY`` with MODE one of

- ``setup``: set up and exit (``run.py`` times several of these);
- ``plain``: ops in a closed loop for SECONDS, tracing off;
- ``trace``: the workload's first ``trace_ops`` ops traced, then the same
  ops again untraced, for the per-layer metrics and the overhead ratio.

READY is printed when the program's set-up is done; the benchmark's own
inputs and expected values are made after it (``prepare``), so the
set-up time ``run.py`` takes does not include them.

INJECT_EVERY > 0 makes every INJECT_EVERY-th op raise before it starts,
to check that failures are counted.  The result is one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
GOLDEN_SEED = 0
MAX_MESSAGES = 3


class InjectedFailure(Exception):
    pass


class Runner:
    """Runs ops, catching and counting failures, and digests results."""

    def __init__(self, wl, inject_every: int = 0):
        self.wl = wl
        self.inject_every = inject_every
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.latencies_ns: list[int] = []
        self.digest = hashlib.sha256()

    def run(self, op) -> None:
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if self.inject_every and self.attempted % self.inject_every == 0:
                raise InjectedFailure("injected failure")
            result = self.wl.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"op {self.attempted}: {type(exc).__name__}: {exc}")
            return
        self.latencies_ns.append(time.perf_counter_ns() - start)
        self.digest.update(json.dumps(result, sort_keys=True).encode())
        self.digest.update(b"\n")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages, "results": self.digest.hexdigest()[:16]}


def golden_digest(name: str) -> tuple[str, str | None]:
    """Result digest of the reference inputs, and any failure message."""
    wl = workloads.WORKLOADS[name](GOLDEN_SEED, OUT_DIR)
    wl.prepare()
    runner = Runner(wl)
    for op in inputs.first_ops(wl.ops(), wl.golden_ops):
        runner.run(op)
    return runner.digest.hexdigest()[:16], (runner.messages or [None])[0]


def run_plain(wl, seconds: float, inject_every: int) -> dict:
    runner = Runner(wl, inject_every)
    stream = wl.ops()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        runner.run(next(stream))
    lat = sorted(runner.latencies_ns)
    out = runner.summary()
    out["latencies_ms"] = [x / 1e6 for x in lat]
    out["tail_pct"] = wl.tail_pct
    return out


def run_traced(wl, inject_every: int) -> dict:
    ops = inputs.first_ops(wl.ops(), wl.trace_ops)
    tr = tracing.Tracer()
    runner = Runner(wl, inject_every)
    wl.begin_trace(tr)
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            tr.op_id = i
            runner.run(op)
    finally:
        wl.end_trace(tr)
    traced = time.perf_counter() - start
    replay = Runner(wl, inject_every)
    start = time.perf_counter()
    for op in ops:
        replay.run(op)
    plain = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"{wl.name}.spans.jsonl")
    metrics = tracing.layer_metrics(tr.aggregates())
    timings = getattr(wl, "cli_timings", None) or [(0.0, 0.0, 0.0)]
    for k, part in enumerate(("import_s", "main_s", "process_s")):
        metrics[f"cli.{part}"] = (statistics.median(t[k] for t in timings), "s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    out = runner.summary()
    out["failed"] += replay.failed
    out["messages"] += replay.messages
    if replay.digest.hexdigest() != runner.digest.hexdigest():
        out["messages"].append("traced and untraced results differ")
        out["failed"] += 1
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["spans"] = {"kept": len(tr.spans), "dropped": tr.dropped_spans}
    return out


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, inject_every = argv
    seed, seconds, inject_every = int(seed), float(seconds), int(inject_every)
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT_DIR)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    wl.prepare()
    if mode == "plain":
        out = run_plain(wl, seconds, inject_every)
    else:
        out = run_traced(wl, inject_every)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli_oneshot"
                               else resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024
    out["inputs"] = inputs.input_digest(name, seed)
    out["golden"], golden_error = golden_digest(name)
    if golden_error:
        out["messages"].append(f"reference inputs: {golden_error}")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
