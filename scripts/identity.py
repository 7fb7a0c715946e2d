"""Byte-identity sweep: run two source trees on the same fixed-seed commands
and report every output that differs.

    python scripts/identity.py OLD_TREE NEW_TREE

Each tree's ``src`` runs ``gengap acceptance --json``, one ``gengap
gen-codebook`` and sixteen ``gengap run`` sweeps (each with the smoothed-risk
check, most with several suffix lengths, whose population risks share one
Monte-Carlo draw, and one whose every seed skips, so its risk table has no
row), then ``gengap verify`` and ``gengap risk`` on every
dataset/trajectory pair a sweep saved, and prints a smoothed-gradient
fingerprint (GRAD_FINGERPRINT: a sha256 of full-precision estimates and
stderrs, which the acceptance output rounds to two decimals).  JSON files
are compared twice: parsed, without their ``elapsed_seconds`` and ``out``
keys, and as text with the ``elapsed_seconds`` values masked, so a change of
indent, separators, key order or number format shows too.  Other files are
compared byte for byte, stdout and stderr with timings and paths masked,
and exit codes as they are.  Prints each difference and exits 1 if there
is any: every differing JSON value and CSV cell, each number with its
difference in units of ``math.ulp`` of the old tree's value, so a last-bit
move reads as a few ulps and a real change as many, a differing row count
or list length as the two counts, and each JSON text's first differing
line.
``gengap run`` spreads its seeds over the usable CPUs, so on two or more
CPUs the multi-seed sweeps (``sgd-force-n8`` over seeds 0..16,
``gd-unconditioned-oracle-n4`` over 0..12 and the others) also compare a
tree that runs its seeds in one process against one that runs them in
forked shards; ``taskset -c 0`` makes both trees serial.
Standard library only; a full sweep takes about a minute per tree on two
cores, most of it the acceptance suites.
"""

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_GD = ["--family", "gd", "--n", "2", "--directions", "4", "--steps", "8",
       "--dprime", "8", "--suffix", "1,4,8"]
_GD_N4 = ["--family", "gd", "--n", "4", "--directions", "4", "--steps", "8",
          "--dprime", "8", "--suffix", "1", "--policy", "unconditioned"]

# name -> the config flags shared by the sweep's run, verify and risk calls
SWEEPS = {
    "gd-reject-reference": _GD + ["--policy", "reject-until-E",
                                  "--mode", "reference"],
    "gd-unconditioned-oracle": _GD + ["--policy", "unconditioned"],
    # the reference runs every dataset, off-event ones too (the oracle
    # cannot decode them), so an argmax or tie-order change away from the
    # designed margins shows up as a differing trajectory
    "gd-unconditioned-reference": _GD + ["--policy", "unconditioned",
                                         "--mode", "reference"],
    # n=4 off-event seeds skip with both oracle messages: an occupied-slot
    # count (seed 0) and ambiguous blocks at two-digit indices (4, 6, 11)
    "gd-unconditioned-oracle-n4": _GD_N4,
    # seed 0 alone skips, so the run's risk table has no row
    "gd-unconditioned-oracle-n4-all-skipped": _GD_N4,
    # each full-batch step sums eight per-sample subgradients
    "gd-n8-reject-oracle": ["--family", "gd", "--n", "8", "--directions", "4",
                            "--steps", "16", "--dprime", "16",
                            "--policy", "reject-until-E", "--suffix", "1,8,16"],
    "sgd-force": ["--family", "sgd", "--n", "6", "--directions", "9",
                  "--policy", "force", "--suffix", "1,2,3,6"],
    # the benchmark's sgd-sweep shape, over its 16 seeds
    "sgd-force-n8": ["--family", "sgd", "--n", "8", "--directions", "16",
                     "--policy", "force", "--suffix", "1,2,3,4,5,6,7,8"],
    # off-event datasets: every step reads the psi = 0 fallback
    "sgd-unconditioned-oracle": ["--family", "sgd", "--n", "6",
                                 "--directions", "9",
                                 "--policy", "unconditioned"],
    # n=10 decodes prefixes of eight or more codes, which numpy sums pairwise
    "sgd-force-n10": ["--family", "sgd", "--n", "10", "--directions", "12",
                      "--policy", "force", "--suffix", "1,5,10"],
    # a second Monte-Carlo seed, and a sample whose fourth chunk is partial
    "sgd-force-mc30000-seed5": ["--family", "sgd", "--n", "6",
                                "--directions", "9", "--policy", "force",
                                "--suffix", "1,3,6", "--mc-samples", "30000",
                                "--mc-seed", "5"],
    "sgd-unconditioned-reference": ["--family", "sgd", "--n", "3",
                                    "--directions", "3",
                                    "--policy", "unconditioned",
                                    "--mode", "reference", "--suffix", "1,3"],
    # 4,160 enumerated prefixes at the default dprime (461)
    "sgd-unconditioned-reference-n3": ["--family", "sgd", "--n", "3",
                                       "--directions", "6",
                                       "--policy", "unconditioned",
                                       "--mode", "reference",
                                       "--suffix", "1,2,3"],
    "smallstep": ["--family", "smallstep", "--eta", "0.02", "--steps", "100",
                  "--suffix", "1,10,100"],
    # N = 20: codepoint angles off the N <= 16 grid every other sweep uses
    "sgd-force-n20": ["--family", "sgd", "--n", "4", "--directions", "20",
                      "--policy", "force", "--suffix", "1,2,4"],
    "gd-reject-n20": ["--family", "gd", "--n", "2", "--directions", "20",
                      "--steps", "8", "--policy", "reject-until-E",
                      "--suffix", "1,4,8"],
}
SEEDS = {"gd-reject-reference": "0..4", "gd-unconditioned-oracle": "0..6",
         "sgd-force-n8": "0..16", "sgd-unconditioned-oracle": "0..4",
         "gd-unconditioned-oracle-n4": "0..12",
         "gd-unconditioned-oracle-n4-all-skipped": "0..1",
         "gd-unconditioned-reference": "0..8"}
# smoothed-risk draws of samples x dim float64 up to
# gengap.smoothing.MAX_HELD_FLOATS are held and shared by a run's seeds;
# larger ones stream.  At 3000 samples the full-batch (dim 72) and
# smallstep (dim 100) draws are held and the one-pass ones (dim >= 867)
# stream; smallstep at 30000 (a partial fourth chunk) streams as well.
SMOOTHING_SAMPLES = {"smallstep": "30000"}

# smoothed_grads on the three pinned smoothing instances at their
# preservation steps over one full chunk and a partial one of 1501 pairs
# (blocks of 751 and 750 rows, and an odd trailing draw), each family's
# oracle step loss at the steps its tree's smoothing table names
GRAD_FINGERPRINT = """
import hashlib
from gengap import acceptance
from gengap.smoothing import CHUNK, SmoothingConfig, smoothed_grads

pairs = CHUNK + 1501
for family, (build, steps) in acceptance._SMOOTH_FAMILIES.items():
    params, codebook, dataset = build()[:3]
    jobs = [(params.step_loss(t, dataset, codebook, "oracle"),
             params.expected_iterate(t, dataset, codebook)) for t in steps]
    cfg = SmoothingConfig(params.smoothing_delta, 2 * pairs + 1,
                          seed=acceptance._SMOOTH_SEEDS[family])
    digest = hashlib.sha256()
    for est, stderr in smoothed_grads(jobs, cfg):
        digest.update(est.tobytes())
        digest.update(stderr.tobytes())
    print(family, digest.hexdigest())
"""

_TIMING = re.compile(r"\d+\.\d+s\b")
_ELAPSED = re.compile(r'("elapsed_seconds": )[^,\n}]+')
_DROPPED_KEYS = ("elapsed_seconds", "out")


def _python(tree, args, cwd):
    """(exit code, stdout, stderr) of ``python args`` on the tree's
    sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _gengap(tree, argv, cwd):
    """_python of ``-m gengap.cli argv``."""
    return _python(tree, ["-m", "gengap.cli", *argv], cwd)


def _mask(text, tree, workdir):
    text = text.replace(str(workdir), "<out>")
    text = text.replace(str(Path(tree).resolve()), "<tree>")
    return _TIMING.sub("<t>s", text)


def sweep(tree, workdir):
    """Run every command on one tree; returns {output name: (kind, value)}
    where kind is "json", "json text", "bytes" or "text"."""
    outputs = {}

    def call(name, argv, run=_gengap):
        code, out, err = run(tree, argv, workdir)
        outputs[f"{name} exit"] = ("text", str(code))
        outputs[f"{name} stdout"] = ("text", _mask(out, tree, workdir))
        outputs[f"{name} stderr"] = ("text", _mask(err, tree, workdir))

    call("acceptance", ["acceptance", "--json", str(workdir / "acceptance.json")])
    call("smoothed-grad fingerprint", ["-c", GRAD_FINGERPRINT], run=_python)
    call("gen-codebook", ["gen-codebook", "--directions", "16", "--seed", "7",
                          "--out", str(workdir / "codebook-N16-s7.json")])
    for name, flags in SWEEPS.items():
        out = workdir / name
        seeds = ["--seeds", SEEDS.get(name, "0..2")]
        smooth = ["--smoothing", "--smoothing-samples",
                  SMOOTHING_SAMPLES.get(name, "3000")]
        call(f"{name} run", ["run", *flags, *seeds, *smooth, "--out", str(out)])
        for traj in sorted(out.glob("*-trajectory.json")):
            stem = traj.name[: -len("-trajectory.json")]
            seed = stem.rsplit("-s", 1)[1]
            inputs = ["--seeds", seed, "--trajectory", str(traj.with_suffix(""))]
            dataset = out / f"{stem}-dataset.json"
            if dataset.exists():
                inputs += ["--dataset", str(dataset)]
            checks = workdir / f"{name}-checks"
            checks.mkdir(exist_ok=True)
            for command, suffix in (("verify", "verify.json"), ("risk", "risk.csv")):
                call(f"{name} {command} {stem}",
                     [command, *flags, *inputs, "--out",
                      str(checks / f"{stem}-{suffix}")])
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            key = str(path.relative_to(workdir))
            if path.suffix == ".json":
                text = path.read_text()
                outputs[key] = ("json", _strip(json.loads(text)))
                outputs[f"{key} text"] = ("json text",
                                          _ELAPSED.sub(r"\1<t>", text))
            else:
                outputs[key] = ("bytes", path.read_bytes())
    return outputs


def _strip(obj):
    """obj without the keys that legitimately differ between runs."""
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in _DROPPED_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _ulps(a, b):
    """b - a in units of math.ulp(a), or None unless both are numbers."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (a, b)):
        return None
    return (b - a) / math.ulp(a)


def _differences(a, b, path=""):
    """(path, old, new, ulps) of every place two JSON values differ: ulps
    is new - old in ulps of old for two numbers, None for a length or any
    other value."""
    if type(a) is not type(b) and _ulps(a, b) is None:
        yield path, a, b, None
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                yield (f"{path}/{key}", a.get(key, "<missing>"),
                       b.get(key, "<missing>"), None)
            else:
                yield from _differences(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path} (length)", len(a), len(b), None
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from _differences(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b, _ulps(a, b)


def _cell(text):
    """A CSV cell as a float where it reads as one, else as text."""
    try:
        return float(text)
    except ValueError:
        return text


def _csv_differences(a, b):
    """(row/column, old, new, ulps) of every differing cell of two CSV
    texts, as _differences gives them; a row count or a row's length
    differs as a count, with ulps None."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(t.decode()))) for t in (a, b))
    if len(rows_a) != len(rows_b):
        yield "(rows)", len(rows_a), len(rows_b), None
        return
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            yield f"row {i} (length)", len(ra), len(rb), None
            continue
        header = rows_a[0] if len(rows_a[0]) == len(ra) else range(len(ra))
        for name, x, y in zip(header, ra, rb):
            if x != y:
                x, y = _cell(x), _cell(y)
                yield f"row {i}/{name}", x, y, _ulps(x, y)


def compare(old, new):
    """Per differing output, its lines: every differing JSON value and CSV
    cell, numbers with their difference in ulps of the old value, and
    every differing count as it is."""
    found = {}
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            found[key] = [f"{key}: only in the {'new' if key in new else 'old'} tree"]
            continue
        (kind, a), (_, b) = old[key], new[key]
        if a == b:
            continue
        if kind == "json" or key.endswith(".csv"):
            diffs = _differences(a, b) if kind == "json" else _csv_differences(a, b)
            found[key] = []
            for where, x, y, ulps in diffs:
                size = "" if ulps is None else f" ({ulps:+.4g} ulp)"
                found[key].append(f"{key}: differs at {where or '/'}: "
                                  f"{x!r} != {y!r}{size}")
        elif kind == "json text":
            lines = itertools.zip_longest(a.split("\n"), b.split("\n"))
            i, (x, y) = next((i, xy) for i, xy in enumerate(lines, start=1)
                             if xy[0] != xy[1])
            found[key] = [f"{key}: first differs at line {i}:\n"
                          f"  old: {x!r}\n  new: {y!r}"]
        elif kind == "text":
            found[key] = [f"{key}:\n  old: {a!r}\n  new: {b!r}"]
        else:
            found[key] = [f"{key}: bytes differ ({len(a)} vs {len(b)} bytes)"]
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    args = parser.parse_args(argv)
    results = []
    with tempfile.TemporaryDirectory(prefix="gengap-identity-") as tmp:
        for tree in (args.old_tree, args.new_tree):
            # both trees write under the same path, so paths never differ
            workdir = Path(tmp) / "work"
            workdir.mkdir()
            results.append(sweep(tree, workdir))
            os.rename(workdir, Path(tmp) / f"done-{len(results)}")
    found = compare(*results)
    for lines in found.values():
        for line in lines:
            print(line)
    print(f"{len(results[0])} outputs compared; {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
