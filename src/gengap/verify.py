"""Trajectory/property checkers over each family's closed forms.

Each descent family has an exact per-step description of its iterates when
its good event holds: every step block is a known scalar times a known
codebook direction, and the encoding subspace holds known codepoint sums.
Those closed forms, the argmax margins they promise and the family's
checking rules live in the family's instance module, behind its params
(expected_iterate, margins, first_checked_step, strict_blocks); the
checkers here compare a recorded run against them and never ask which
family they hold.  The closed forms reproduce the optimizer's
floating-point products where the downstream decoding logic is sensitive
to bits (the encoding groups), so the tolerances can be tight.

Checkers never assert; they return small report objects with pass flags so
callers decide what is fatal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
# the family iterate generators stay importable from this module
from .instance_gd import expected_gd_iterate, good_event_gd
from .instance_sgd import expected_sgd_iterate

# two-sided 95% normal quantile, frozen to full double precision
WILSON_Z = 1.959963984540054

TOL_MAIN = 1e-9
TOL_STRICT = 1e-15
# the largest convexity, Lipschitz or subgradient violation a probe forgives
PROPERTY_SLACK = 1e-10


# ---------------------------------------------------------------------------
# closed-form iterates
# ---------------------------------------------------------------------------


def expected_suffix(m, params, dataset, codebook):
    """Mean of the last m closed-form iterates (w_1 = 0 when the window
    reaches it), averaged with the same reduction suffix_average uses."""
    T = params.horizon
    if not 1 <= m <= T:
        raise OutOfRange(f"suffix length {m} not in [1, {T}]")
    rows = [params.expected_iterate(t, dataset, codebook)
            for t in range(T - m + 1, T + 1)]
    return np.stack(rows).mean(axis=0)


# ---------------------------------------------------------------------------
# trajectory and norm checks
# ---------------------------------------------------------------------------


def require_horizon(traj, params):
    """Refuse a trajectory whose iterate count is not the family's horizon:
    its closed-form steps would go unchecked or be misread."""
    if traj.steps != params.horizon:
        raise OutOfRange(f"checkpoint holds {traj.steps} iterates; the "
                         f"configured instance has {params.horizon}")


@dataclass(frozen=True)
class StepDeviation:
    step: int
    max_main: float
    max_strict: float
    ok: bool


@dataclass(frozen=True)
class TrajectoryReport:
    steps: tuple
    tol_main: float
    tol_strict: float
    ok: bool


def check_trajectory(traj, params, dataset, codebook):
    """Compare recorded iterates with the closed forms at split tolerances.

    The closed forms are checked from the family's first_checked_step (the
    first update, or w_1 for the deterministic family) up to its horizon.
    Coordinates the closed form leaves at exactly zero, and the family's
    strict_blocks, are held to TOL_STRICT; everything else to TOL_MAIN.
    Both are absolute.  A trajectory of another length than the horizon
    raises OutOfRange (require_horizon).
    """
    require_horizon(traj, params)
    records = []
    for t in range(params.first_checked_step, params.horizon + 1):
        expected = params.expected_iterate(t, dataset, codebook)
        dev = np.abs(traj.iterate(t) - expected)
        strict_mask = expected == 0.0
        for k in params.strict_blocks:
            params.layout.block(strict_mask, k)[:] = True
        # deviations are at least 0.0, so zeroing the other coordinates
        # leaves each maximum, and 0.0 where a class is empty
        max_strict = float(np.where(strict_mask, dev, 0.0).max())
        max_main = float(np.where(strict_mask, 0.0, dev).max())
        records.append(
            StepDeviation(
                step=t,
                max_main=max_main,
                max_strict=max_strict,
                ok=bool(max_main <= TOL_MAIN and max_strict <= TOL_STRICT),
            )
        )
    return TrajectoryReport(
        steps=tuple(records),
        tol_main=TOL_MAIN,
        tol_strict=TOL_STRICT,
        ok=all(r.ok for r in records),
    )


@dataclass(frozen=True)
class NormReport:
    max_norm: float
    ok: bool


def check_norm_bound(traj):
    """Largest iterate norm and whether every norm stays strictly below 1."""
    norms = np.linalg.norm(traj.iterates, axis=1)
    top = float(norms.max())
    return NormReport(max_norm=top, ok=bool(top < 1.0))


# ---------------------------------------------------------------------------
# event probability
# ---------------------------------------------------------------------------


def wilson_interval(successes, trials):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise OutOfRange("trials must be positive")
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class EventFrequencyReport:
    frequency: float
    lower: float
    upper: float
    trials: int


def check_event_probability_gd(params, trials, seed):
    """Empirical frequency of the full-batch good event with a 95% Wilson
    interval over independently sampled datasets."""
    rng = np.random.default_rng(seed)
    child_seeds = rng.integers(0, 2**62, size=trials)
    hits = 0
    for s in child_seeds:
        ds = params.draw_dataset(int(s), "unconditioned")[0]
        if good_event_gd(ds, params):
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    return EventFrequencyReport(
        frequency=hits / trials, lower=lo, upper=hi, trials=trials
    )


# ---------------------------------------------------------------------------
# argmax margins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginReport:
    steps: tuple
    ok: bool


def check_margins(traj, params, dataset=None, codebook=None):
    """Read the family's argmax table (params.margins) at every recorded
    iterate, as one stack, and report best-vs-second-best and best-vs-floor
    gaps against the designed slack (eta/64, eta*eps/(16 n^2), eta/(8 d)).

    Steps where the construction promises nothing (the floor is active, or
    warm-up steps before the table has spread) are reported as not
    applicable and do not affect the overall flag.  A trajectory of
    another length than the horizon raises OutOfRange (require_horizon).
    """
    require_horizon(traj, params)
    records = params.margins(traj.iterates, dataset, codebook)
    return MarginReport(steps=tuple(records), ok=all(r.ok for r in records))


# ---------------------------------------------------------------------------
# loss function properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    convexity_violation: float
    lipschitz_violation: float
    subgradient_violation: float
    trials: int
    slack: float
    ok: bool


def check_loss_properties(loss, grad, sampler, lipschitz_bound, trials, seed):
    """Probe convexity, the Lipschitz bound, and the subgradient inequality
    at random point pairs; reports the worst violation of each, each held
    to PROPERTY_SLACK.

    sampler(rng) must return one probe point.  grad may be None to skip the
    subgradient probe (e.g. for losses without an implemented oracle).
    """
    rng = np.random.default_rng(seed)
    conv = lip = sub = 0.0
    for _ in range(trials):
        x = sampler(rng)
        y = sampler(rng)
        lam = float(rng.random())
        fx = float(loss(x))
        fy = float(loss(y))
        mid = float(loss(lam * x + (1.0 - lam) * y))
        conv = max(conv, mid - (lam * fx + (1.0 - lam) * fy))
        lip = max(
            lip, abs(fx - fy) - lipschitz_bound * float(np.linalg.norm(x - y))
        )
        if grad is not None:
            g = grad(x)
            sub = max(sub, fx + float(g @ (y - x)) - fy)
    return PropertyReport(
        convexity_violation=conv,
        lipschitz_violation=lip,
        subgradient_violation=sub,
        trials=trials,
        slack=PROPERTY_SLACK,
        ok=bool(conv <= PROPERTY_SLACK and lip <= PROPERTY_SLACK
                and sub <= PROPERTY_SLACK),
    )
