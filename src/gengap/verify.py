"""Closed-form iterate generators and trajectory/property checkers.

Each descent family has an exact per-step description of its iterates when
its good event holds: every step block is a known scalar times a known
codebook direction, and the encoding subspace holds known codepoint sums.
The generators below construct those vectors independently of the
optimizer, reproducing the optimizer's floating-point products where the
downstream decoding logic is sensitive to bits (the encoding groups), so a
recorded run can be compared against them at tight tolerances.

Checkers never assert; they return small report objects with pass flags so
callers decide what is fatal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .encoding import alpha_gd, encode_gd, encode_sgd
from .errors import EventViolated, InvalidClosedForm, OutOfRange
from .instance_gd import good_event_gd
from .instance_sgd import (
    _l2_decode_info,
    _l2_table_point,
    event_state_sgd,
    good_event_sgd,
)

# two-sided 95% normal quantile, frozen to full double precision
WILSON_Z = 1.959963984540054

TOL_MAIN = 1e-9
TOL_STRICT = 1e-15


# ---------------------------------------------------------------------------
# closed-form iterates
# ---------------------------------------------------------------------------


def _gd_block_coefficients(t, params):
    """Scalar coefficient of the pinned direction in each step block of w_t."""
    coef = np.zeros(params.steps + 1)  # 1-based
    if t == 2:
        return coef
    coef[1] = (t - 2) * params.eta * params.beta
    if t >= 4:
        coef[1] -= 0.375 * params.eta
        coef[t - 2] = 0.5 * params.eta
    for k in range(2, t - 2):
        coef[k] = params.eta / 8.0
    return coef


def expected_gd_iterate(t, params, dataset, codebook):
    """Exact full-batch iterate w_t under the good event.

    w^(0) is eta/n times the summed training-set encoding; every step block
    is a scalar times the direction the training set misses.  The general
    per-step table needs T >= 8 to keep its warm-up and steady-state ranges
    from overlapping, so smaller horizons are refused outright.

    Raises
    ------
    EventViolated
        If the dataset fails the good event.
    InvalidClosedForm
        If t is outside [2, T] or T < 8.
    """
    if params.steps < 8:
        raise InvalidClosedForm(
            f"per-step closed form needs steps >= 8; got {params.steps}"
        )
    if not 2 <= t <= params.steps:
        raise InvalidClosedForm(f"iterate {t} outside closed-form range [2, {params.steps}]")
    report = good_event_gd(dataset, params)
    if not report:
        raise EventViolated(f"good event fails: {report.reason}")

    lay = params.layout
    w = np.zeros(params.dim)
    enc = np.zeros(lay.encoding_dim)
    for mask, slot in zip(dataset.masks, dataset.slots):
        enc += encode_gd(mask, slot, params.n, params.n_directions)
    lay.encoding(w)[:] = (params.eta / params.n) * enc

    u0 = codebook.vectors[alpha_gd(dataset.masks, params.n_directions) - 1]
    coef = _gd_block_coefficients(t, params)
    for k in range(1, params.steps + 1):
        if coef[k] != 0.0:
            lay.block(w, k)[:] = coef[k] * u0
    return w


def expected_gd_update(t, params, dataset, codebook):
    """Closed-form full-batch gradient used at step t: (w_t - w_{t+1})/eta."""
    if not 1 <= t <= params.steps - 1:
        raise InvalidClosedForm(f"update {t} outside [1, {params.steps - 1}]")
    w_now = expected_iterate(t, params, dataset, codebook)
    w_next = expected_gd_iterate(t + 1, params, dataset, codebook)
    return (w_now - w_next) / params.eta


def expected_sgd_iterate(t, params, dataset, codebook):
    """Exact one-pass iterate w_t under the forced/checked good event.

    Step block k >= 2 carries the direction still common to the first k-1
    samples; the encoding holds the marched prefix in group t-1 and the
    accumulated position-1 leftovers in group 1.  Group contents reproduce
    the optimizer's per-sample products bit for bit when n is a power of
    two (the decode-sensitive part); step blocks are built from their
    scalar coefficients.
    """
    if not 2 <= t <= params.n:
        raise InvalidClosedForm(f"iterate {t} outside closed-form range [2, {params.n}]")
    report = good_event_sgd(dataset, params)
    if not report:
        raise EventViolated(f"good event fails: {report.reason}")

    n = params.n
    lay = params.layout
    states = event_state_sgd(dataset.masks, params.n_directions)
    w = np.zeros(params.dim)

    scale = 4.0 * n * n
    for i in range(1, t):  # prefix group: samples 1..t-1 at their positions
        enc = encode_sgd(dataset.masks[i - 1], i, n, params.n_directions)
        params.group(w, t - 1)[:] += params.eta * (enc / scale)
    if t >= 3:
        for i in range(2, t):  # group 1 keeps collecting position-1 writes
            enc = encode_sgd(dataset.masks[i - 1], 1, n, params.n_directions)
            params.group(w, 1)[:] += params.eta * (enc / scale)

    c1 = (t - 1) * (params.eta / n**3)
    if t >= 3:
        c1 -= 0.375 * params.eta
    lay.block(w, 1)[:] = c1 * codebook.vectors[0]
    if t >= 3:
        u_last = codebook.vectors[states[t - 2].j - 1]  # J_{t-1}
        lay.block(w, t - 1)[:] = 0.5 * params.eta * u_last
    for k in range(2, t - 1):
        u_k = codebook.vectors[states[k - 1].j - 1]  # J_k
        lay.block(w, k)[:] = (params.eta / 8.0) * u_k
    return w


def expected_smallstep_iterate(t, params):
    """Round-robin closed form: w_t = eta on coordinates 1..t-1.

    Valid while fresh coordinates remain and the hinge stays active, which
    the default dimension guarantees for t <= T.
    """
    if not 1 <= t <= params.steps:
        raise InvalidClosedForm(f"iterate {t} outside [1, {params.steps}]")
    if t - 1 > params.dim:
        raise InvalidClosedForm(
            f"round-robin exhausts {params.dim} coordinates before step {t}"
        )
    if params.eta * t >= 4.0 * math.sqrt(params.dim):
        raise InvalidClosedForm("hinge deactivates before the requested step")
    w = np.zeros(params.dim)
    w[: t - 1] = params.eta
    return w


def expected_iterate(t, params, dataset, codebook):
    """Closed-form iterate w_t of the params' family; w_1 is the origin."""
    if params.family == "smallstep":
        return expected_smallstep_iterate(t, params)
    if t == 1:
        return np.zeros(params.dim)
    if params.family == "gd":
        return expected_gd_iterate(t, params, dataset, codebook)
    return expected_sgd_iterate(t, params, dataset, codebook)


def expected_suffix(m, params, dataset, codebook):
    """Mean of the last m closed-form iterates (w_1 = 0 when the window
    reaches it), averaged with the same reduction suffix_average uses."""
    T = params.horizon
    if not 1 <= m <= T:
        raise OutOfRange(f"suffix length {m} not in [1, {T}]")
    rows = [expected_iterate(t, params, dataset, codebook)
            for t in range(T - m + 1, T + 1)]
    return np.stack(rows).mean(axis=0)


# ---------------------------------------------------------------------------
# trajectory and norm checks
# ---------------------------------------------------------------------------


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


def check_trajectory(traj, params, dataset, codebook,
                     tol_main=TOL_MAIN, tol_strict=TOL_STRICT):
    """Compare recorded iterates with the closed forms at split tolerances.

    The closed forms are checked from the first update on (the
    deterministic family from w_1) up to the family's horizon.  Coordinates
    the closed form leaves at exactly zero -- and, for the full-batch
    family, the first step block, where the large parts of run and closed
    form cancel and only correction-scale content remains -- are held to
    tol_strict; everything else to tol_main.  Both are absolute.
    """
    records = []
    first = 1 if params.family == "smallstep" else 2
    for t in range(first, min(params.horizon, traj.steps) + 1):
        expected = expected_iterate(t, params, dataset, codebook)
        dev = np.abs(traj.iterate(t) - expected)
        strict_mask = expected == 0.0
        if params.family == "gd":
            params.layout.block(strict_mask, 1)[:] = True
        max_strict = float(dev[strict_mask].max()) if strict_mask.any() else 0.0
        main_mask = ~strict_mask
        max_main = float(dev[main_mask].max()) if main_mask.any() else 0.0
        records.append(
            StepDeviation(
                step=t,
                max_main=max_main,
                max_strict=max_strict,
                ok=bool(max_main <= tol_main and max_strict <= tol_strict),
            )
        )
    return TrajectoryReport(
        steps=tuple(records),
        tol_main=tol_main,
        tol_strict=tol_strict,
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


def wilson_interval(successes, trials, z=WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise OutOfRange("trials must be positive")
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
    from .instance_gd import sample_gd_dataset

    rng = np.random.default_rng(seed)
    child_seeds = rng.integers(0, 2**62, size=trials)
    hits = 0
    for s in child_seeds:
        ds = sample_gd_dataset(params, int(s))
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
class MarginStep:
    step: int
    best: float
    second_best: float
    floor: float
    gap_second: float
    gap_floor: float
    threshold: float
    applicable: bool
    ok: bool


@dataclass(frozen=True)
class MarginReport:
    steps: tuple
    ok: bool


def _second_excluding_argmax(table):
    flat = table.ravel()
    top = int(np.argmax(flat))
    rest = np.delete(flat, top)
    return float(flat[top]), (float(rest.max()) if rest.size else -np.inf)


def _margins_gd(w, t, params, codebook):
    from .instance_gd import _l4_candidates

    table = _l4_candidates(w, params, codebook)
    best, second = _second_excluding_argmax(table)
    floor = params.delta2
    thr = params.eta / 64.0
    applicable = t >= 4
    ok = (not applicable) or (best - second > thr and best - floor > thr)
    return MarginStep(
        step=t,
        best=best,
        second_best=second,
        floor=floor,
        gap_second=best - second,
        gap_floor=best - floor,
        threshold=thr,
        applicable=applicable,
        ok=bool(ok),
    )


def _margins_sgd(w, t, mask, params, codebook):
    from .encoding import alpha_sgd, circle_point, subset_count

    n = params.n
    info = _l2_decode_info(w, params)
    table = _l2_table_point(w, mask, params, codebook, info)
    best, second = _second_excluding_argmax(table)
    flat = int(np.argmax(table))
    u_star, k_star = divmod(flat, n - 1)
    k = k_star + 1

    # candidates one codepoint step away from the decoded prefix: the decode
    # margin the construction promises is exactly eta*eps/(16 n^2)
    _, masks_k, _ = info[k_star]
    if masks_k is not None:
        m_mod = subset_count(params.n_directions)
        gk = params.group(w, k)
        gk1 = params.group(w, k + 1)
        point = circle_point(mask, params.n_directions)
        proj = params.layout.step_blocks(w) @ codebook.vectors.T
        for pos in range(len(masks_k)):
            for delta in (-1, 1):
                shifted = list(masks_k)
                shifted[pos] = (shifted[pos] + delta) % m_mod
                acc = np.zeros(2 * n)
                for i, mm in enumerate(shifted, start=1):
                    acc += encode_sgd(mm, i, n, params.n_directions)
                psi_adj = acc / n
                alpha_adj = alpha_sgd(shifted, params.n_directions)
                val = (
                    0.375 * proj[k - 1, u_star]
                    - 0.5 * proj[k, alpha_adj - 1]
                    + (gk @ psi_adj - gk1 @ psi_adj) / (4.0 * n)
                    - (gk1[2 * k: 2 * k + 2] @ point) / (4.0 * n * n)
                )
                second = max(second, float(val))

    floor = params.delta1
    thr = params.eta * params.eps / (16.0 * n * n)
    # the adjacent-codepoint gap meets thr with equality by construction, so
    # allow rounding slack at the scale of the cancelled candidate values
    slack = thr - 64.0 * np.finfo(float).eps * abs(best)
    applicable = t >= 2
    ok = (not applicable) or (best - second >= slack and best - floor >= slack)
    return MarginStep(
        step=t,
        best=best,
        second_best=second,
        floor=floor,
        gap_second=best - second,
        gap_floor=best - floor,
        threshold=thr,
        applicable=applicable,
        ok=bool(ok),
    )


def _margins_smallstep(w, t, params):
    vals = 1.0 / math.sqrt(params.dim) - w - params.tilts
    best, second = _second_excluding_argmax(vals)
    thr = params.eta / (8.0 * params.dim)
    applicable = params.dim >= 2
    ok = (not applicable) or (best - second > thr and best > thr)
    return MarginStep(
        step=t,
        best=float(best),
        second_best=float(second),
        floor=0.0,
        gap_second=float(best - second),
        gap_floor=float(best),
        threshold=thr,
        applicable=applicable,
        ok=bool(ok),
    )


def check_margins(traj, params, dataset=None, codebook=None):
    """Recompute the enumerable argmax tables at every recorded iterate and
    report best-vs-second-best and best-vs-floor gaps against the family's
    designed slack (eta/64, eta*eps/(16 n^2), eta/(8 d)).

    Steps where the construction promises nothing (the floor is active, or
    warm-up steps before the table has spread) are reported as not
    applicable and do not affect the overall flag.
    """
    records = []
    for t in range(1, traj.steps + 1):
        w = traj.iterate(t)
        if params.family == "gd":
            records.append(_margins_gd(w, t, params, codebook))
        elif params.family == "sgd":
            mask = params.step_sample(t, dataset)
            records.append(_margins_sgd(w, t, mask, params, codebook))
        else:
            records.append(_margins_smallstep(w, t, params))
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


def check_loss_properties(loss, grad, sampler, lipschitz_bound, trials, seed,
                          slack=1e-10):
    """Probe convexity, the Lipschitz bound, and the subgradient inequality
    at random point pairs; reports the worst violation of each.

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
        slack=slack,
        ok=bool(conv <= slack and lip <= slack and sub <= slack),
    )
