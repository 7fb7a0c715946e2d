"""gengap benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sgd-sweep --seed 0 --seconds 20 --trace 0

Workloads are sgd-sweep and smoothing (perfbench/workloads.py).
The run happens in one worker process (perfbench/worker.py) with BLAS
limited to one thread.

--trace 0 reports the end-to-end metrics: wall_s (median seconds per unit
of work), setup_s (median import time plus the median of five set-ups),
peak_rss_mb (the worker's peak resident set) and checks_passed (the share
of the outputs' deterministic checks that pass).  --trace 1 reports the
per-layer metrics of perfbench/layers.py from a traced run, with the
tracing overhead and the time no layer accounts for.

The last line of standard output is the JSON result; the lines before it
are a human-readable report that carries the environment stamp.  The full
result, stamp included, is also written to .perfbench/<workload>-s<seed>-
trace<t>.json.  Without the package sources (src/gengap) next to this
directory the run fails with exit code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sgd-sweep", "smoothing")
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "checks_passed": "share"}


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata in this checkout)"


def stamp(worker):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
    }


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at a toy size (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gengap" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'gengap'}",
              file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"work-{args.workload}-s{args.seed}-t{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), text=True,
                              capture_output=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish in {WORKER_TIMEOUT_S}s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    detail = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(detail["package"]).resolve().is_relative_to(ROOT):
        print(f"error: imported gengap from {detail['package']}, "
              "not from this checkout", file=sys.stderr)
        return 2

    end_to_end = detail["end_to_end"]
    if args.trace:
        metrics = {name: {"value": detail["per_layer"].get(name, 0.0), "unit": unit}
                   for name, unit, _, _ in METRICS}
        kinds = {name: kind for name, _, kind, _ in METRICS}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        kinds = dict.fromkeys(metrics, "measured")

    attempted = detail["checks"]["attempted"]
    failed = detail["checks"]["failed"]
    env = stamp(detail)
    outdir.mkdir(exist_ok=True)
    record = dict(detail, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  stamp=env, kinds=kinds)
    (outdir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"units untraced {len(detail['units']['untraced_wall_s'])}  "
          f"traced {len(detail['units']['traced_wall_s'])}")
    print(f"checks attempted {attempted}  failed {len(failed)}")
    for label in failed[:20]:
        print(f"  FAILED {label}")
    for name, m in metrics.items():
        tag = "  (computed)" if kinds[name] == "computed" else ""
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}{tag}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
