"""Randomized smoothing: ball averages, zeroth-order gradients, checks.

The smoothed loss is the average of f over a delta-ball around w.  Both the
value and the gradient are estimated by Monte Carlo:

    value: mean of f(w + delta*v), v uniform in the unit ball;
    grad:  (dim/delta) * mean of f(w + delta*a) * a, a uniform on the sphere,

the latter optionally with antithetic pairs (a, -a), which cancels the
constant part of f exactly and, for locally linear f, leaves a per-pair
contribution whose mean is the exact gradient.  Each family's params object
carries the radius its guarantees tolerate (smoothing_delta); when the
radius stays below every argmax margin, the smoothed gradient agrees with
the subgradient the optimizer uses, which is what
verify_trajectory_preservation spot-checks statistically.

Sampling is chunked with per-chunk seeds spawned from the config seed, so
estimates are reproducible and independent of how many chunks run.  Points
that share a config share their draws: smoothed_values and smoothed_grads
draw each chunk once and evaluate it at every point, and each point's
estimate equals its one-point estimate bitwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDraw, OutOfRange

CHUNK = 8192

_MIN_NORM = 1e-150
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class SmoothingConfig:
    """Radius, sample count, seed, and pairing mode for the estimators."""

    delta: float
    samples: int
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.delta <= 0:
            raise OutOfRange(f"delta must be positive; got {self.delta}")
        if self.samples < 2:
            raise OutOfRange(f"need at least 2 samples; got {self.samples}")


def sphere_sample(dim, rng, size=None):
    """Uniform unit vectors: normalized standard Gaussians.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    rng : numpy.random.Generator
        Source of randomness.
    size : int, optional
        When given, returns (size, dim); otherwise a single (dim,) vector.

    Raises
    ------
    DegenerateDraw
        If a Gaussian draw's norm underflows 100 redraws in a row (not
        observable in practice; guards the normalization).
    """
    if dim < 1:
        raise OutOfRange(f"dim must be positive; got {dim}")
    count = 1 if size is None else int(size)
    x = rng.standard_normal((count, dim))
    norms = np.linalg.norm(x, axis=1)
    for _ in range(_MAX_REDRAWS):
        bad = norms < _MIN_NORM
        if not bad.any():
            break
        x[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms[bad] = np.linalg.norm(x[bad], axis=1)
    else:
        raise DegenerateDraw("sphere draw kept underflowing after 100 redraws")
    x /= norms[:, None]
    return x[0] if size is None else x


def ball_sample(dim, rng, size=None):
    """Uniform points in the unit ball: sphere draw times U^(1/dim).

    The radial factor U^(1/dim) gives the r^dim volume law, so the mean
    norm is dim/(dim+1).
    """
    count = 1 if size is None else int(size)
    y = sphere_sample(dim, rng, size=count)
    r = rng.random(count) ** (1.0 / dim)
    y *= r[:, None]
    return y[0] if size is None else y


def _chunks(seed, count):
    """(rows, rng) per chunk of count draws: chunk i draws from the i-th
    seed spawned from seed."""
    seeds = np.random.SeedSequence(seed).spawn(-(-count // CHUNK))
    for i, chunk_seed in enumerate(seeds):
        yield min(CHUNK, count - i * CHUNK), np.random.default_rng(chunk_seed)


def _points(jobs):
    """The jobs' points as float64 vectors, and the dimension they share."""
    points = [np.asarray(w, dtype=np.float64) for _, w in jobs]
    dims = {w.size for w in points}
    if len(dims) != 1:
        raise OutOfRange(f"points sharing draws need one dimension; got {dims}")
    return points, dims.pop()


def smoothed_values(jobs, cfg):
    """Monte-Carlo ball averages of loss around w for each (loss, w) job:
    a list of (estimate, stderr).

    Each loss must accept both a single point (d,) and a batch (B, d).
    Each chunk of ball samples is drawn once and evaluated at every job;
    a job's sums run in chunk order, so its estimate is the one-point
    estimate bitwise.  The accumulation is centered at loss(w), which
    changes no estimate in exact arithmetic but keeps the variance sums
    fully precise when the perturbations are tiny (a constant loss reports
    stderr exactly 0).
    """
    points, dim = _points(jobs)
    bases = [float(loss(w)) for (loss, _), w in zip(jobs, points)]
    m = cfg.samples
    sums = [[0.0, 0.0] for _ in jobs]  # per job: values, squared values
    for b, rng in _chunks(cfg.seed, m):
        v = ball_sample(dim, rng, size=b)
        for (loss, _), w, base, acc in zip(jobs, points, bases, sums):
            vals = np.asarray(loss(w[None, :] + cfg.delta * v),
                              dtype=np.float64) - base
            acc[0] += float(vals.sum())
            acc[1] += float((vals * vals).sum())
    out = []
    for base, (total, total_sq) in zip(bases, sums):
        mean = total / m
        var = max(total_sq - m * mean * mean, 0.0) / (m - 1)
        out.append((base + mean, float(np.sqrt(var / m))))
    return out


def smoothed_value(loss, w, cfg):
    """Monte-Carlo ball average of loss around w: (estimate, stderr); see
    smoothed_values."""
    return smoothed_values([(loss, w)], cfg)[0]


def smoothed_grads(jobs, cfg):
    """Zeroth-order gradient estimates for each (loss, w) job: a list of
    (vector estimate, per-coordinate stderr).

    Averages (dim/delta) * loss(w + delta*a) * a over sphere draws.  With
    antithetic pairing each pair (a, -a) contributes
    (dim/delta) * (loss(w+delta*a) - loss(w-delta*a))/2 * a, so the sample
    count covers samples//2 pairs (an odd trailing draw is dropped).  As in
    smoothed_values, each chunk is drawn once for all jobs and each job's
    estimate is its one-point estimate bitwise.
    """
    count = cfg.samples // 2 if cfg.antithetic else cfg.samples
    if count < 2:
        raise OutOfRange("too few samples for a variance estimate")
    points, dim = _points(jobs)
    scale = dim / cfg.delta
    sums = [(np.zeros(dim), np.zeros(dim)) for _ in jobs]
    for b, rng in _chunks(cfg.seed, count):
        a = sphere_sample(dim, rng, size=b)
        for (loss, _), w, (total, total_sq) in zip(jobs, points, sums):
            if cfg.antithetic:
                f_plus = np.asarray(loss(w[None, :] + cfg.delta * a),
                                    dtype=np.float64)
                f_minus = np.asarray(loss(w[None, :] - cfg.delta * a),
                                     dtype=np.float64)
                contrib = (0.5 * scale * (f_plus - f_minus))[:, None] * a
            else:
                vals = np.asarray(loss(w[None, :] + cfg.delta * a),
                                  dtype=np.float64)
                contrib = (scale * vals)[:, None] * a
            total += contrib.sum(axis=0)
            total_sq += (contrib * contrib).sum(axis=0)
            del contrib  # a chunk-sized array: free it before the next job
    out = []
    for total, total_sq in sums:
        est = total / count
        var = np.maximum(total_sq - count * est * est, 0.0) / (count - 1)
        out.append((est, np.sqrt(var / count)))
    return out


def smoothed_grad(loss, w, cfg):
    """Zeroth-order gradient estimate at w: (vector estimate, per-coordinate
    stderr); see smoothed_grads."""
    return smoothed_grads([(loss, w)], cfg)[0]


@dataclass(frozen=True)
class PreservationStep:
    """One checked iterate: worst coordinate discrepancy vs its stderr."""

    step: int
    max_abs_diff: float
    max_sigma: float  # max over coordinates of |diff| / stderr
    within: bool


@dataclass(frozen=True)
class PreservationReport:
    steps: tuple
    ok: bool


def verify_trajectory_preservation(codebook, dataset, params, cfg, steps=None,
                                   mode="oracle"):
    """Compare exact subgradients with smoothed estimates along the
    closed-form trajectory; a pass (every coordinate within 3 stderr at
    every checked step) is the statistical evidence that descent on the
    smoothed loss reproduces the nonsmooth trajectory at this radius.

    Step t (default: every step up to the family's horizon) is checked at
    the closed-form iterate w_t against the gradient the optimizer takes
    there: the empirical-risk gradient for the full-batch family, the
    gradient of the sample step t consumes for the one-pass family (the
    final iterate, which consumes nothing, is checked against the last
    sample).  The closed forms past w_1 require the family's good event
    and raise EventViolated otherwise.
    """
    steps = sorted(set(steps or range(1, params.horizon + 1)))
    points = [params.expected_iterate(t, dataset, codebook) for t in steps]
    exacts = [params.step_grad(w, t, dataset, codebook, mode)
              for t, w in zip(steps, points)]
    losses = [params.step_loss(t, dataset, codebook, mode) for t in steps]
    # every step's estimate from the same draws, one chunk at a time
    estimates = smoothed_grads(list(zip(losses, points)), cfg)
    records = []
    for t, exact, (est, stderr) in zip(steps, exacts, estimates):
        diff = np.abs(est - exact)
        # a coordinate with zero spread must match outright
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.where(stderr > 0, diff / stderr, np.where(diff > 0, np.inf, 0.0))
        records.append(
            PreservationStep(
                step=t,
                max_abs_diff=float(diff.max()),
                max_sigma=float(sigma.max()),
                within=bool((sigma <= 3.0).all()),
            )
        )
    return PreservationReport(steps=tuple(records), ok=all(r.within for r in records))
