"""The benchmark's own test: every workload at reduced size passes its
output checks, reports every metric BENCHMARK.json names, and repeats its
exact counts run to run on two seeds.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

EXACT_COUNTS = (
    "solvers.iterations",
    "solvers.flops",
    "solvers.oracle_linear_solves",
    "harness.bytes_read",
    "harness.bytes_written",
    "objective.precompute_calls",
)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported(workload):
    metrics = run(workload, 1, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload, seed):
    first, second = run(workload, seed, 1), run(workload, seed, 1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["solvers.iterations"]["value"] > 0
