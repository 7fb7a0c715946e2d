"""The benchmark's workloads: set-up, one unit of work, and its checks.

Each workload builds its inputs from the benchmark seed, so one seed always
gives the same inputs.  ``setup`` holds the work a user pays before the
first result (codebook generation, instance construction, reference-table
builds); ``unit`` runs one fixed unit of work through the package's public
entry points, times it, and then checks its outputs.  Only the work itself
is inside the timed region; the checks read the outputs afterwards.

sgd-sweep   ``gengap run`` of the one-pass family at n=8, N=16, forced
            good event, over 16 consecutive dataset seeds.
smoothing   smoothed values and smoothed-gradient preservation on the
            three pinned smoothing instances of the acceptance suite.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field

from gengap import acceptance, cli, codebook, smoothing


@dataclass
class UnitResult:
    wall: float
    checks: list  # (label, passed) pairs
    info: dict = field(default_factory=dict)


def _no_span(name, **attrs):
    return contextlib.nullcontext()


def _cli(argv):
    """gengap.cli.main with its progress lines kept off the report."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _verify_checks(prefix, payload):
    return [
        (f"{prefix}: closed-form trajectory (1e-9 / 1e-15)",
         payload["trajectory"]["ok"]),
        (f"{prefix}: argmax margins", payload["margins"]["ok"]),
        (f"{prefix}: iterate norms below 1", payload["norms"]["ok"]),
        (f"{prefix}: passed flag", payload["passed"]),
    ]


class SgdSweep:
    """``gengap run`` over a saved codebook, checked from its artifacts."""

    family = "sgd"
    policy = "force"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.codebook_path = workdir / "codebook.json"
        self.out = workdir / "out"
        self._first_risk = None

    def sizes(self):
        return dict(n=8, directions=16)

    def seeds(self):
        count = 1 if self.size == "tiny" else 16
        return self.seed * count, self.seed * count + count

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        params = cli.ExperimentConfig(family=self.family, policy=self.policy,
                                      **self.sizes()).build_params()
        cb = codebook.generate_codebook(params.n_directions, params.dprime,
                                        seed=self.seed)
        codebook.save_codebook(cb, self.codebook_path)

    def unit(self, span=_no_span):
        self.clean()
        lo, hi = self.seeds()
        flags = [f"--{key}={value}" for key, value in self.sizes().items()]
        run = ["run", "--family", self.family, "--policy", self.policy, *flags,
               "--codebook", str(self.codebook_path), "--seeds", f"{lo}..{hi}",
               "--suffix", "1,2,3,4,5,6,7,8", "--mc-seed", str(self.seed),
               "--out", str(self.out)]
        t0 = time.perf_counter()
        rc = _cli(run)
        wall = time.perf_counter() - t0
        checks = self.run_checks(rc)
        self.clean()
        return UnitResult(wall, checks)

    def run_checks(self, rc):
        checks = [("run exits 0", rc == 0)]
        summary = json.loads(
            (self.out / f"{self.family}-run-summary.json").read_text())
        for result in summary["results"]:
            checks += _verify_checks(f"seed {result['seed']}", result["verify"])
        checks.append(("run summary passed", summary["passed"]))
        # repeat runs of the same inputs must give bitwise-identical risks
        risk = (self.out / f"{self.family}-risk.csv").read_bytes()
        digest = hashlib.sha256(risk).hexdigest()
        if self._first_risk is None:
            self._first_risk = digest
        checks.append(("risk CSV identical to the first unit's",
                       digest == self._first_risk))
        return checks

    def clean(self):
        shutil.rmtree(self.out, ignore_errors=True)


class Smoothing:
    """Pinned smoothing instances; the benchmark seed drives the sampling.

    Values use one chunk of ball samples per point and gradients one chunk
    of antithetic sphere pairs per step.  The preservation z-test is
    reported as max_z for information only: it is not calibrated, so it is
    not one of the checks.
    """

    SETUPS = {
        "gd": acceptance._smooth_gd_setup,
        "sgd": acceptance._smooth_sgd_setup,
        "smallstep": acceptance._smooth_smallstep_setup,
    }
    STEPS = {"gd": range(2, 7), "sgd": range(2, 7), "smallstep": range(1, 6)}
    MODE = {"gd": "reference", "sgd": "oracle", "smallstep": "oracle"}

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.instances = {}

    def setup(self):
        for family, build in self.SETUPS.items():
            self.instances[family] = build()

    def unit(self, span=_no_span):
        value_samples = smoothing.CHUNK
        grad_samples = 2 * smoothing.CHUNK  # one chunk of antithetic pairs
        tiny = self.size == "tiny"
        results = {}
        t0 = time.perf_counter()
        for family, (params, cb, dataset, loss, points, lipschitz) in \
                self.instances.items():
            with span("bench.family", family=family):
                vcfg = smoothing.SmoothingConfig(params.smoothing_delta,
                                                 value_samples, seed=self.seed)
                gcfg = smoothing.SmoothingConfig(params.smoothing_delta,
                                                 grad_samples, seed=self.seed)
                values = []
                for w in points[:1] if tiny else points:
                    val, stderr = smoothing.smoothed_value(loss, w, vcfg)
                    values.append((val, stderr, float(loss(w))))
                steps = self.STEPS[family]
                report = smoothing.verify_trajectory_preservation(
                    cb, dataset, params, gcfg,
                    steps=steps[:1] if tiny else steps, mode=self.MODE[family])
                results[family] = (values, report, lipschitz * vcfg.delta)
        wall = time.perf_counter() - t0

        checks = []
        info = {}
        for family, (values, report, slack) in results.items():
            for i, (val, stderr, plain) in enumerate(values):
                bound = slack + 3.0 * stderr
                checks.append((f"{family} point {i}: smoothed value within "
                               "L*delta + 3 stderr", abs(val - plain) <= bound))
            # an exact mismatch on a zero-spread coordinate reads as z = inf,
            # which JSON cannot carry
            z = max(r.max_sigma for r in report.steps)
            info[f"smoothing.{family}.max_z"] = z if math.isfinite(z) else 1e300
        return UnitResult(wall, checks, info)


WORKLOADS = {"sgd-sweep": SgdSweep, "smoothing": Smoothing}
