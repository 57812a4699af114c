"""Smoke test of the benchmark script: one short traced run each of the
north-star sweep (identifier and ICP) and of the mean-variance (icp-wide) and
energy-permutation (icp-energy) ICP workloads.

The tracer wraps scmbench functions by module attribute and the pins fix the
records of seed 0, so a refactor that renames a traced function or changes a
pinned number fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "icp-wide", "icp-energy"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
