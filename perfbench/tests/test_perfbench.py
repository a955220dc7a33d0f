"""Tests of the benchmark itself: metric names and units, seeded inputs,
and failure counting.  Run with ``python3 -m pytest -q perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace=0, seconds="1", *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "matches digests.json" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_fixes_the_inputs(workload):
    assert inputs.input_digest(workload, 5) == inputs.input_digest(workload, 5)
    assert inputs.input_digest(workload, 5) != inputs.input_digest(workload, 6)


def test_seeded_inverses_and_integer_traces():
    rng = inputs.random.Random(1)
    for n in inputs.TRACE_SIZES:
        m, inv = inputs.unimodular(rng, n)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert inputs.int_mat_mul(m, inv) == identity == inputs.int_mat_mul(inv, m)
        assert inputs.int_trace_word([m], [inv], [(0, 1), (0, -1)]) == n
        assert inputs.int_trace_word([m], [inv], [(0, 1)]) == sum(m[i][i] for i in range(n))


def test_an_injected_failure_is_counted():
    proc, result = run("law_mix", 0, "1", "--inject-failure-every", "4")
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 4 >= 1
    ratio = result["failed"] / result["attempted"]
    assert f"failed_ratio {ratio:.6g}" in proc.stdout


def test_zero_ops_is_not_a_pass():
    proc, result = run("jacobi_long", 0, "0")
    assert proc.returncode == 1
    assert result["attempted"] == 0 and not result["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = run("law_mix", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
