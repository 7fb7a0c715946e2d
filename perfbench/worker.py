"""One benchmark run in its own process: set-up, timed units, metrics.

Started by perfbench/run.py, which owns the command line contract, reads
this process's peak RSS, and prints the final result line.  This process
prints its result as one JSON object on the last line of standard output.

Every run starts with one untimed warm-up unit.  Untraced runs (--trace 0)
then repeat the workload's unit for about --seconds (they stop at the unit
boundary nearest to it) and report the median unit time.  Traced runs
(--trace 1) alternate untraced and traced units, so the tracing overhead is
measured in the same process, and report the per-layer metrics of the
traced units.

Set-up time is the median import time of the package (this process plus
IMPORT_PROBES fresh interpreters that only import it) plus the median of
SETUP_REPEATS set-ups.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import gengap  # noqa: E402
import gengap.cli  # noqa: E402,F401
from layers import METRICS, TARGETS, setup_metrics, unit_metrics  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPEATS = 5
IMPORT_PROBES = 4
_PROBE = ("import time; t = time.perf_counter(); import numpy, gengap.cli; "
          "print(time.perf_counter() - t)")


def _clear_caches():
    """Drop the package's memoized tables so every set-up rebuilds them."""
    for name, module in list(sys.modules.items()):
        if name == "gengap" or name.startswith("gengap."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _blas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _import_times():
    """This process's import time and that of fresh interpreters."""
    times = [IMPORT_S]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return times


def _setups(workload, recorder):
    times, spans = [], []
    for _ in range(SETUP_REPEATS):
        _clear_caches()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        if recorder is not None:
            spans.append(recorder.take())
    return times, spans


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install(TARGETS)
    try:
        setup_times, setup_spans = _setups(workload, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()

    import_times = _import_times()

    walls = {False: [], True: []}
    per_unit = []
    checks = []
    info = {}
    checks += workload.unit().checks  # warm-up, not timed
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            recorder.install(TARGETS)
            try:
                result = workload.unit(recorder.span)
            finally:
                recorder.uninstall()
            spans = recorder.take()
            per_unit.append(unit_metrics(spans, self_times(spans), result.wall))
        else:
            result = workload.unit()
        walls[traced].append(result.wall)
        checks += result.checks
        info.update(result.info)
        # stop at the unit boundary nearest to --seconds
        typical = statistics.median(walls[False] + walls[True])
        done = time.perf_counter() - t0 + typical / 2 >= args.seconds
        if done and (not args.trace or walls[True]):
            break

    failed = [label for label, ok in checks if not ok]
    untraced = statistics.median(walls[False])
    end_to_end = {
        "wall_s": untraced,
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_passed": (len(checks) - len(failed)) / len(checks),
    }
    per_layer = {}
    if args.trace:
        for name, *_ in METRICS:
            values = [m[name] for m in per_unit if name in m]
            if values:
                per_layer[name] = statistics.median(values)
        per_layer.update(setup_metrics(setup_spans))
        per_layer.update(info)
        traced_wall = statistics.median(walls[True])
        per_layer["bench.untraced_wall_s"] = untraced
        per_layer["bench.traced_wall_s"] = traced_wall
        per_layer["bench.trace_overhead_s"] = traced_wall - untraced
    result = {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
        "units": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]},
        "setup": {"import_s": import_times, "setup_s": setup_times},
        "checks": {"attempted": len(checks), "failed": failed},
        "package": os.path.dirname(gengap.__file__),
        "numpy": np.__version__,
        "blas": _blas(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
