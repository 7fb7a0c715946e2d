"""Command-line driver: configs, seed sweeps, acceptance suites, artifacts.

Subcommands
-----------
gen-codebook   generate and save a low-coherence direction set
run            full pipeline per seed: dataset -> optimizer -> verify -> risk
verify         closed-form / invariant checks only (fresh run or a checkpoint)
risk           risk table only, as CSV
acceptance     pinned acceptance suites ("all" or one by name)

Configs are YAML files whose keys mirror the `run` flags; a flag given on
the command line overrides the file.  Every JSON artifact embeds the fully
resolved config so a report is reproducible from the file alone.  The
default output directory is $GENGAP_OUT, falling back to the working
directory.

Exit codes: 0 all enabled checks passed, 1 a check failed, 2 bad
configuration or usage.
"""

import argparse
import dataclasses
import functools
import itertools
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import yaml

from . import acceptance as _acceptance
from .codebook import DEFAULT_ATTEMPTS, coherence, generate_codebook, \
    load_codebook, save_codebook
from .errors import GengapError, OracleDomain, OutOfRange, reading
from .instance_gd import (
    GdParams,
    above_theorem_step,
    check_reference_budget,
    theorem_step_size,
)
from .instance_sgd import SgdParams
from .instance_smallstep import SmallstepParams
from .optim import load_trajectory, run_gd, run_sgd, run_smallstep, save_trajectory
from .risk import DEFAULT_SAMPLES, RiskReport, empirical_risk, gap_report
from .smoothing import SmoothingConfig, smoothed_value_checks
from .verify import check_margins, check_norm_bound, check_trajectory, \
    require_horizon

_PARAMS = {"gd": GdParams, "sgd": SgdParams, "smallstep": SmallstepParams}
_CONFIG_KEY = {"n_directions": "directions"}  # params fields named otherwise
# flags that shape the instance: each must name a field of the family's
# params class, or a dataset policy the family draws with
_INSTANCE_FLAGS = ("n", "directions", "steps", "eta", "dprime", "dim", "policy")
FAMILIES = tuple(_PARAMS)
POLICIES = tuple(dict.fromkeys(p for cls in _PARAMS.values() for p in cls.policies))


def _json_default(obj):
    """json.dumps' hook for what it cannot write itself: a report dataclass
    as its fields, a numpy value or array as Python numbers."""
    names = _field_names(type(obj))
    if names is not None:
        return {name: getattr(obj, name) for name in names}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=None)
def _field_names(cls):
    """A dataclass's field names in order; None for any other class."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return None


# json's text of a scalar of exactly one of these types, the float's names
# of its non-finite values then renamed as json names them (_NONFINITE)
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_text(obj):
    """json's text of a scalar, a subclass of str, int or float included;
    None for anything else."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is None:
        if not isinstance(obj, (str, int, float)):
            return None
        text = _SCALAR_TEXT[next(cls for cls in (str, int, float)
                                 if isinstance(obj, cls))]
    text = text(obj)
    return _NONFINITE.get(text, text)


def _key_text(key):
    """json's text of a dict key: a string, or a float, int, bool or None
    written as one."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if not isinstance(key, (float, int)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return encode_basestring_ascii(_scalar_text(key))


def _write_json(obj, out, newline):
    """Append the pieces of obj's JSON text to out, as json.dumps writes
    them at indent 2 with _json_default; newline is the line break and
    indent before obj's closing bracket."""
    # no type is both a container and a scalar, so the order of the tests
    # does not matter
    while not isinstance(obj, (list, tuple, dict)):
        text = _scalar_text(obj)
        if text is not None:
            out.append(text)
            return
        obj = _json_default(obj)
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        close, heads = "}", [inner + (encode_basestring_ascii(key) if type(key) is str
                                      else _key_text(key)) + ": " for key in obj]
        obj, sep = obj.values(), "{"
    else:
        close, heads, sep = "]", itertools.repeat(inner), "["
    for head, value in zip(heads, obj):
        text = _SCALAR_TEXT.get(type(value))
        if text is None:
            out.append(sep + head)
            _write_json(value, out, inner)
        else:
            text = text(value)
            out.append(sep + head + _NONFINITE.get(text, text))
        sep = ","
    out.append(newline + close)


def _artifact_json(obj):
    """The text of a JSON artifact: json.dumps(obj, indent=2,
    default=_json_default), byte for byte.  With an indent, json writes in
    pure Python, one generator per container; this writer appends the same
    pieces to one list, each scalar through json's own primitives and each
    dataclass through its cached field list.  An object that contains
    itself, which json refuses with ValueError, exhausts the recursion
    limit here instead."""
    out = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _default_out():
    return Path(os.environ.get("GENGAP_OUT", "."))


def _required(cls):
    """The fields a dataclass has no default for."""
    return [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One resolved experiment; every field is a YAML key and a `run` flag."""

    family: str
    n: int = None
    directions: int = None
    steps: int = None
    eta: float = None
    theorem_mode: bool = True
    dprime: int = None
    dim: int = None
    seeds: tuple = (0,)
    policy: str = None
    projected: bool = False
    suffix: tuple = (1,)
    mc_samples: int = DEFAULT_SAMPLES
    mc_seed: int = 0
    mode: str = "oracle"
    smoothing: bool = False
    smoothing_samples: int = 20_000
    smoothing_seed: int = 0
    codebook: str = None
    codebook_seed: int = 0
    out: str = None

    def validate(self):
        if self.family not in FAMILIES:
            raise OutOfRange(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.mode not in ("oracle", "reference"):
            raise OutOfRange(f"mode must be 'oracle' or 'reference', got {self.mode!r}")
        if not self.seeds:
            raise OutOfRange("seeds must be non-empty")
        seeds = {"--seeds": min(self.seeds), "--mc-seed": self.mc_seed,
                 "--smoothing-seed": self.smoothing_seed,
                 "--codebook-seed": self.codebook_seed}
        negative = [flag for flag, seed in seeds.items() if seed < 0]
        if negative:
            raise OutOfRange(f"{' and '.join(negative)} must be at least 0")
        cls = _PARAMS[self.family]
        takes = {_CONFIG_KEY.get(f.name, f.name) for f in dataclasses.fields(cls)}
        takes |= {"policy"} if cls.policies else set()
        unused = [f"--{key}" for key in _INSTANCE_FLAGS
                  if getattr(self, key) is not None and key not in takes]
        if self.codebook is not None and "directions" not in takes:
            unused.append("--codebook")  # no directions, so no codebook to read
        if unused:
            raise OutOfRange(f"{self.family} takes no {' or '.join(unused)}")
        # a params class that defaults eta uses the theorem rule, which then
        # caps an explicit eta; probing with eta unset never warns
        capped = "eta" not in _required(cls)
        params = (dataclasses.replace(self, eta=None) if capped else self).build_params()
        if params.policies and self.policy not in params.policies:
            raise OutOfRange(
                f"{self.family} needs an explicit dataset policy, --policy "
                f"{' or '.join(params.policies)}; got {self.policy!r}"
            )
        # refused here, before any artifact is written
        if self.mode == "reference" and hasattr(params, "reference_count"):
            check_reference_budget(params)
        if self.dim is not None and self.dim < params.steps - 1:  # would wrap
            raise OutOfRange(f"--dim {self.dim} is below steps-1 = {params.steps - 1}")
        if not all(1 <= m <= params.horizon for m in self.suffix):
            raise OutOfRange(f"--suffix lengths must lie in [1, {params.horizon}]; "
                             f"got {list(self.suffix)}")
        if params.draw_samples is not None and self.mc_samples < 2:
            raise OutOfRange(f"--mc-samples must be at least 2 for a variance "
                             f"estimate; got {self.mc_samples}")
        if self.smoothing and self.smoothing_samples < 2:
            raise OutOfRange(f"--smoothing-samples must be at least 2 for a "
                             f"variance estimate; got {self.smoothing_samples}")
        if (capped and self.eta is not None and self.theorem_mode
                and above_theorem_step(self.eta, params.horizon)):
            cap = theorem_step_size(params.horizon)
            raise OutOfRange(
                f"theorem mode caps eta at 1/(5*sqrt({params.horizon})) = {cap:.6g}; "
                f"got {self.eta}; pass theorem_mode: false to override"
            )

    def build_params(self):
        """The family's params class, filled from the same-named fields; a
        field the class has no default for needs its flag."""
        cls = _PARAMS[self.family]
        values = {f.name: getattr(self, _CONFIG_KEY.get(f.name, f.name))
                  for f in dataclasses.fields(cls)}
        missing = [f"--{_CONFIG_KEY.get(name, name)}" for name in _required(cls)
                   if values[name] is None]
        if missing:
            raise OutOfRange(f"{self.family} needs {' and '.join(missing)}")
        return cls(**values)

    def resolved(self, params):
        """Plain dict with defaults filled in, for artifact provenance."""
        d = dataclasses.asdict(self)
        for key in ("eta", "dim", "dprime"):
            d[key] = getattr(params, key, d[key])
        return d


def load_config(path):
    """A YAML config's values, each of its ExperimentConfig field's type
    (_typed); a null keeps the field's default, so it is left out."""
    with reading(path, "config file", (yaml.YAMLError,)), open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise OutOfRange(f"config {path} must be a mapping, got {type(raw).__name__}")
    kinds = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - set(kinds)
    if unknown:
        raise OutOfRange(f"unknown config keys: {sorted(unknown)}")
    return {key: _typed(key, value, kinds[key])
            for key, value in raw.items() if value is not None}


def _int(value):
    """An integer or an integer string as an int; a float or a bool (which
    int() would truncate or read as 0/1) is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _typed(key, value, kind):
    """A config value as its field's type kind: an int by _int's rule, a
    float from an int or a float, a bool or a str as itself.  The integer
    lists (tuple fields) are left to _parse_ints."""
    if kind is tuple:
        return value
    if kind is int:
        try:
            return _int(value)
        except (TypeError, ValueError) as exc:
            raise OutOfRange(f"config key {key} takes an integer; "
                             f"got {value!r}") from exc
    takes = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, takes):
        raise OutOfRange(f"config key {key} takes a {kind.__name__}; got {value!r}")
    return value


def _parse_ints(value, key):
    """The integer list of --key: [1,2,3], {start,stop}, '1,2,3', '0..8'
    (stop exclusive) or one integer.  A non-integer entry or an empty list
    is a configuration error."""
    try:
        if isinstance(value, dict):
            ints = range(_int(value["start"]), _int(value["stop"]))
        elif isinstance(value, str) and ".." in value:
            lo, hi = value.split("..", 1)
            ints = range(int(lo), int(hi))
        elif isinstance(value, str):
            ints = [int(v) for v in value.split(",")]
        elif isinstance(value, (list, tuple)):
            ints = [_int(v) for v in value]
        else:
            ints = [_int(value)]
    except (KeyError, TypeError, ValueError) as exc:
        raise OutOfRange(f"--{key} takes integers, '1,2,3' or '0..8'; "
                         f"got {value!r}") from exc
    if not ints:
        raise OutOfRange(f"--{key} {value!r} lists no integer")
    return tuple(ints)


def config_from_args(args):
    """Field defaults, then file values, then flags, then validation."""
    defaults = {f.name: None if f.default is dataclasses.MISSING else f.default
                for f in dataclasses.fields(ExperimentConfig)}
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(load_config(args.config))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key in ("seeds", "suffix"):
        merged[key] = _parse_ints(merged[key], key)
    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# pipeline pieces shared by run/verify/risk
# ---------------------------------------------------------------------------


def _get_codebook(cfg, params):
    """The run's codebook: read from --codebook, which must hold exactly the
    instance's directions at its dimension, or generated."""
    if not hasattr(params, "n_directions"):  # a family without directions
        return None
    if not cfg.codebook:
        return generate_codebook(params.n_directions, params.dprime,
                                 seed=cfg.codebook_seed)
    cb = load_codebook(cfg.codebook)
    if cb.n_vectors != params.n_directions or cb.dim != params.dprime:
        raise OutOfRange(
            f"codebook file holds {cb.n_vectors} directions of dim {cb.dim}; "
            f"the run needs {params.n_directions} of dim {params.dprime}"
        )
    return cb


def _seed_inputs(cfg, args, params, codebook, seed):
    """One seed's (dataset, event, rejections, trajectory): drawn and run,
    or read from --dataset and --trajectory.  A checkpoint must match the
    instance's dimension and hold its horizon of iterates.  The oracle
    read-out is defined only on the designed trajectory, so an off-event run
    may leave its domain: that seed's trajectory is then the OracleDomain it
    raised."""
    if getattr(args, "dataset", None):
        dataset, rejections = params.load_dataset(args.dataset)
    else:
        dataset, rejections = params.draw_dataset(seed, cfg.policy)
    event = params.good_event(dataset)
    if getattr(args, "trajectory", None):
        traj = load_trajectory(args.trajectory)
        if traj.dim != params.dim:
            raise OutOfRange(
                f"checkpoint dimension {traj.dim} does not match the "
                f"configured instance ({params.dim})"
            )
        require_horizon(traj, params)
    elif dataset is None:
        traj = run_smallstep(params, projected=cfg.projected)
    else:
        # run_gd/run_sgd are read as module globals on every call
        run = run_gd if cfg.family == "gd" else run_sgd
        try:
            traj = run(codebook, dataset, params, mode=cfg.mode,
                       projected=cfg.projected)
        except OracleDomain as exc:
            if event:
                raise
            traj = exc
    return dataset, event, rejections, traj


def _verify_text(config, seed, rejections, payload):
    """One seed's verify artifact: the resolved config (ExperimentConfig.
    resolved), seed and draw, then the checks."""
    return _artifact_json({"config": config, "seed": seed,
                           "policy": config["policy"], "rejections": rejections,
                           **payload})


def _verify_one(cfg, params, codebook, dataset, traj, event):
    """Closed-form, norm, and margin checks; returns (payload, passed).

    On-event datasets get the full battery.  Off-event datasets (possible
    only under the unconditioned policy) skip the closed-form and margin
    checks — the designed dynamics are conditional on the event — and the
    report says so rather than failing the run.
    """
    payload = {"event": event}
    passed = True
    if event is None or event:
        rep = check_trajectory(traj, params, dataset, codebook)
        margins = check_margins(traj, params, dataset, codebook)
        payload["trajectory"], payload["margins"] = rep, margins
        passed = rep.ok and margins.ok
    else:
        payload["trajectory"] = payload["margins"] = "skipped: dataset is off-event"
    payload["norms"] = norms = check_norm_bound(traj)
    payload["passed"] = passed = bool(passed and norms.ok)
    return payload, passed


def _risk_table(rows):
    """The risk CSV of (seed, RiskReport) rows: the header, then a line per
    row, each line ending in a newline."""
    lines = ["seed," + RiskReport.CSV_HEADER]
    lines += [f"{seed},{r.to_csv_row()}" for seed, r in rows]
    return "".join(line + "\n" for line in lines)


def _smoothing_check(cfg, params, codebook, dataset, traj):
    """Smoothed training risk at w_T agrees with the plain value."""
    scfg = SmoothingConfig(params.smoothing_delta, cfg.smoothing_samples,
                           seed=cfg.smoothing_seed)
    [(val, _, plain, bound)] = smoothed_value_checks(
        [(lambda w: empirical_risk(w, dataset, params, codebook, cfg.mode),
          traj.iterate(traj.steps))], scfg, params.lipschitz)
    ok = abs(val - plain) <= bound
    return {
        "delta": scfg.delta,
        "samples": cfg.smoothing_samples,
        "seed": cfg.smoothing_seed,
        "smoothed": val,
        "plain": plain,
        "abs_diff": abs(val - plain),
        "bound": bound,
        "passed": bool(ok),
    }, bool(ok)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_codebook(args):
    if args.seed < 0:
        raise OutOfRange(f"--seed must be at least 0; got {args.seed}")
    out = Path(args.out) if args.out else _default_out() / (
        f"codebook-N{args.directions}-s{args.seed}.json"
    )
    cb = generate_codebook(args.directions, args.dim, seed=args.seed,
                           max_attempts=args.max_attempts)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_codebook(cb, out)
    print(f"wrote {out}: {cb.n_vectors} directions, dim {cb.dim}, "
          f"worst coherence {coherence(cb):.4f}")
    return 0


def cmd_run(args):
    cfg = config_from_args(args)
    params = cfg.build_params()
    codebook = _get_codebook(cfg, params)
    outdir = Path(cfg.out) if cfg.out else _default_out()
    outdir.mkdir(parents=True, exist_ok=True)
    if codebook is not None:
        save_codebook(codebook, outdir / "codebook.json")

    config = cfg.resolved(params)  # every artifact's provenance
    all_passed = True
    per_seed = []
    risk_rows = []
    for seed in cfg.seeds:
        t0 = time.perf_counter()
        dataset, event, rejections, traj = _seed_inputs(
            cfg, args, params, codebook, seed)
        stem = f"{cfg.family}-s{seed}"
        if dataset is not None:
            dataset.save(outdir / f"{stem}-dataset.json", rejections)
        skipped = isinstance(traj, OracleDomain)
        if skipped:
            verify_payload = {"event": event, "passed": True,
                              "skipped": f"off-event oracle run: {traj}"}
            passed, reports = True, []
        else:
            save_trajectory(traj, outdir / f"{stem}-trajectory")
            verify_payload, passed = _verify_one(
                cfg, params, codebook, dataset, traj, event)
            reports = gap_report(traj, dataset, params, codebook,
                                 suffix_lengths=cfg.suffix,
                                 n_samples=cfg.mc_samples, seed=cfg.mc_seed,
                                 mode=cfg.mode)
        risk_rows += [(seed, r) for r in reports]

        seed_result = {
            "seed": seed,
            "policy": cfg.policy,
            "rejections": rejections,
            "verify": verify_payload,
            "risk": reports,
            "elapsed_seconds": time.perf_counter() - t0,
        }
        if cfg.smoothing and not skipped:
            smooth_payload, smooth_ok = _smoothing_check(
                cfg, params, codebook, dataset, traj)
            seed_result["smoothing"] = smooth_payload
            passed &= smooth_ok
        seed_result["passed"] = bool(passed)
        all_passed &= passed
        per_seed.append(seed_result)

        (outdir / f"{stem}-verify.json").write_text(
            _verify_text(config, seed, rejections, verify_payload))
        if rejections:
            print(f"seed {seed}: {rejections} dataset draws rejected before "
                  "the good event")
        outcome = "skipped" if skipped else "pass" if passed else "FAIL"
        print(f"seed {seed}: {outcome} ({seed_result['elapsed_seconds']:.1f}s)")

    (outdir / f"{cfg.family}-risk.csv").write_text(_risk_table(risk_rows))
    summary = {"config": config, "results": per_seed,
               "passed": bool(all_passed)}
    (outdir / f"{cfg.family}-run-summary.json").write_text(
        _artifact_json(summary))
    print(f"artifacts in {outdir}; overall: {'pass' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _load_inputs_for_check(cfg, args, params):
    """The one seed's inputs; verify and risk have nothing to check when
    an off-event oracle run left no trajectory."""
    if len(cfg.seeds) != 1:
        raise OutOfRange(f"{args.command} checks one seed; --seeds lists "
                         f"{list(cfg.seeds)}")
    codebook = _get_codebook(cfg, params)
    dataset, event, rejections, traj = _seed_inputs(
        cfg, args, params, codebook, cfg.seeds[0])
    if isinstance(traj, OracleDomain):
        raise traj
    return codebook, dataset, event, rejections, traj


def cmd_verify(args):
    cfg = config_from_args(args)
    params = cfg.build_params()
    codebook, dataset, event, rejections, traj = _load_inputs_for_check(
        cfg, args, params)
    payload, passed = _verify_one(cfg, params, codebook, dataset, traj, event)
    text = _verify_text(cfg.resolved(params), cfg.seeds[0], rejections, payload)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {'pass' if passed else 'FAIL'}")
    else:
        print(text)
    return 0 if passed else 1


def cmd_risk(args):
    cfg = config_from_args(args)
    params = cfg.build_params()
    codebook, dataset, _, _, traj = _load_inputs_for_check(cfg, args, params)
    reports = gap_report(traj, dataset, params, codebook,
                         suffix_lengths=cfg.suffix, n_samples=cfg.mc_samples,
                         seed=cfg.mc_seed, mode=cfg.mode)
    text = _risk_table((cfg.seeds[0], r) for r in reports)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_acceptance(args):
    names = list(_acceptance.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        res = _acceptance.run_suite(name)
        results.append(res)
        print(res.summary())
        if not res.within_budget:
            print(f"  note: exceeded the {res.budget:.0f}s budget")
    if args.json:
        payload = [{
            "suite": r.name,
            "passed": r.passed,
            "elapsed_seconds": r.elapsed,
            "budget_seconds": r.budget,
            "checks": r.checks,
        } for r in results]
        Path(args.json).write_text(_artifact_json(payload))
        print(f"wrote {args.json}")
    priced = all(r.passed and r.within_budget for r in results)
    return 0 if priced else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(p):
    p.add_argument("--config", help="YAML config file; flags override it")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int, help="training-set size (gd/sgd)")
    p.add_argument("--directions", type=int, help="codebook size N")
    p.add_argument("--steps", type=int, help="horizon T (gd/smallstep)")
    p.add_argument("--eta", type=float, help="step size; default 1/(5*sqrt(horizon))")
    p.add_argument("--theorem-mode", dest="theorem_mode", action="store_true",
                   default=None, help="cap eta at the designed rule (default on)")
    p.add_argument("--no-theorem-mode", dest="theorem_mode", action="store_false",
                   default=None)
    p.add_argument("--dprime", type=int, help="per-step block dimension")
    p.add_argument("--dim", type=int, help="ambient dimension (smallstep; >= steps-1)")
    p.add_argument("--seeds", help="comma list '1,2,3' or range '0..8'")
    p.add_argument("--policy", choices=POLICIES,
                   help="dataset policy (required for gd/sgd)")
    p.add_argument("--projected", action="store_true", default=None)
    p.add_argument("--suffix", help="comma list of suffix lengths, e.g. '1,4,16'")
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--mc-seed", dest="mc_seed", type=int)
    p.add_argument("--mode", choices=("oracle", "reference"))
    p.add_argument("--smoothing", action="store_true", default=None,
                   help="also check the smoothed training risk at w_T")
    p.add_argument("--smoothing-samples", dest="smoothing_samples", type=int)
    p.add_argument("--smoothing-seed", dest="smoothing_seed", type=int)
    p.add_argument("--codebook", help="path to a saved codebook JSON")
    p.add_argument("--codebook-seed", dest="codebook_seed", type=int)
    p.add_argument("--out", help="output directory (default $GENGAP_OUT or .)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gengap",
        description="Hard-instance optimization runs with closed-form checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-codebook", help="generate a low-coherence codebook")
    p.add_argument("--directions", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", dest="max_attempts", type=int,
                   default=DEFAULT_ATTEMPTS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_codebook)

    p = sub.add_parser("run", help="dataset -> optimizer -> verify -> risk")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="closed-form and invariant checks only")
    _add_config_flags(p)
    p.add_argument("--trajectory", help="checkpoint basepath to verify")
    p.add_argument("--dataset", help="dataset JSON to verify against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("risk", help="empirical/population risk table as CSV")
    _add_config_flags(p)
    p.add_argument("--trajectory", help="checkpoint basepath to evaluate")
    p.add_argument("--dataset", help="dataset JSON to evaluate against")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("acceptance", help="run pinned acceptance suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all",) + tuple(_acceptance.SUITES))
    p.add_argument("--json", help="also write results to this JSON file")
    p.set_defaults(func=cmd_acceptance)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GengapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
