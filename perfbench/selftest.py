"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --size tiny (one sgd seed, one
value chunk and one gradient chunk per smoothing family), untraced
and traced, and checks that the result line has exactly the contracted keys
and every named metric with its unit.  It also checks that the per-layer
list in BENCHMARK.json matches perfbench/layers.py, and that the benchmark
fails without a result when the package sources are missing.  Takes about
half a minute.
"""

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        label, sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        assert set(metrics[name]) == {"value", "unit"}, (label, name)
        assert metrics[name]["unit"] == unit, (label, name, metrics[name])
        value = metrics[name]["value"]
        assert isinstance(value, numbers.Real) and not isinstance(value, bool), (
            label, name, value)
    return metrics


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [(n, u, b) for n, u, _, b in METRICS], \
        "BENCHMARK.json per_layer differs from perfbench/layers.py"
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in (w["name"] for w in bench["workloads"]):
        e2e = check_result(run(workload, 0), end_to_end, f"{workload} trace 0")
        assert e2e["wall_s"]["value"] > 0 and e2e["setup_s"]["value"] > 0
        layers = check_result(run(workload, 1), per_layer, f"{workload} trace 1")
        assert layers["bench.traced_wall_s"]["value"] > 0
        print(f"ok {workload}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sgd-sweep", 0, cwd=bare)
        assert proc.returncode != 0, "benchmark ran without package sources"
        assert '"correct"' not in proc.stdout, "printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok fails without package sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
