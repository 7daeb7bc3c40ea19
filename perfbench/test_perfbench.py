"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload traced, twice with one seed and once with another, in
fresh processes (about three minutes on two cores).  The exact counts must
repeat exactly; they are what a later change may claim from, so a count
that drifts between runs of the same code is a benchmark bug.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)

from run import EXACT_COUNTS  # noqa: E402


def _run(workload, seed, cwd=None):
    run = RUN if cwd is None else os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("workload", ["radial", "grid2d", "tabulated"])
def test_exact_counts_repeat(workload):
    results = []
    for seed in (7, 7, 8):
        proc = _run(workload, seed)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        # the audit class counts are gated per item, not JSON metrics
        results.append({k: result["metrics"][k]["value"]
                        for k in EXACT_COUNTS if k in result["metrics"]})
    assert results[0] == results[1]
    assert all(isinstance(v, int) for v in results[0].values())
    # another seed perturbs the inputs, not the shape of the work
    assert results[2]["odes.steps"] == results[0]["odes.steps"]


def test_refuses_without_sources(tmp_path):
    root = os.path.dirname(BENCH)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = _run("radial", 1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
