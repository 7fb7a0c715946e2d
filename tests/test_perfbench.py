"""Smoke test of the benchmark harness: each workload runs at its toy size."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--size", "tiny", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    return {m["name"] for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", ["sgd-sweep", "smoothing"])
def test_tiny_untraced_run_reports_the_declared_metrics(workload):
    metrics = _run(workload, 0)["metrics"]
    assert metrics["checks_passed"]["value"] == 1.0
    assert set(metrics) == _declared("end_to_end")


@pytest.mark.parametrize("workload", ["sgd-sweep", "smoothing"])
def test_tiny_traced_run_reports_the_declared_layers(workload):
    # a traced run patches every listed function at its module path, so a
    # moved or renamed target fails here rather than only under --trace 1
    result = _run(workload, 1)
    checks_passed = (result["attempted"] - result["failed"]) / result["attempted"]
    assert checks_passed == 1.0
    assert set(result["metrics"]) == _declared("per_layer")
    if workload == "smoothing":
        # the one-point value estimator and the samplers stay traced
        for name in ("smoothing.gd.value_s_per_chunk",
                     "smoothing.sgd.value_s_per_chunk",
                     "smoothing.smallstep.value_s_per_chunk",
                     "smoothing.sample_s_per_chunk"):
            assert result["metrics"][name]["value"] > 0, name
