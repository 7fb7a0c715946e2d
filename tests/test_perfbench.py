"""Smoke test of the benchmark harness: each workload runs at its toy size."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sgd-sweep", "smoothing"])
def test_tiny_untraced_run_reports_the_declared_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--size", "tiny", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["checks_passed"]["value"] == 1.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
