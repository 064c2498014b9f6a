"""Work counts of a traced run repeat exactly for a fixed seed.

    python3 -m pytest perfbench/test_counts.py

Runs one traced pass of every workload twice with the same seed. Every
count (calls, evaluations, iterations, steps, rows, bytes) must be
identical, and every output must pass its oracle. Times are excluded: on a
shared 2-core machine they drift between runs, counts must not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("odometry", "projectile", "balance", "tools")
SEED = 11


def traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def runs() -> dict:
    return {w: (traced_pass(w), traced_pass(w)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    first, second = runs[workload]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_every_layer_metric_is_reached(runs):
    # matrix_exponential is public but no CLI command calls it.
    unreached = {k for k, v in runs["odometry"][0].items()
                 if not any(runs[w][0][k] for w in WORKLOADS)}
    assert unreached == {"odesolve.matrix_exponential.calls"}
