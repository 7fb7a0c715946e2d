"""Randomized smoothing: ball averages, zeroth-order gradients, checks.

The smoothed loss is the average of f over a delta-ball around w.  Both the
value and the gradient are estimated by Monte Carlo:

    value: mean of f(w + delta*v), v uniform in the unit ball;
    grad:  (dim/delta) * mean of (f(w + delta*a) - f(w - delta*a))/2 * a,
           a uniform on the sphere,

the latter over antithetic pairs (a, -a), which cancel the constant part of
f exactly and, for locally linear f, leave a per-pair contribution whose
mean is the exact gradient (Nesterov & Spokoiny's two-point form).  Each
family's params object carries the radius its guarantees tolerate
(smoothing_delta); when the radius stays below every argmax margin, the
smoothed gradient agrees with the subgradient the optimizer uses, which is
what verify_trajectory_preservation spot-checks statistically.

mc_chunks lays out the draws of every such number here and in
risk.population_risk_mc (per-chunk seeds spawned from the config seed make
estimates reproducible and independent of how many chunks run), and
chunk_means accumulates them.  Each chunk is drawn once for every point
that shares the config, so smoothed_values and smoothed_grads give each
point its one-point estimate bitwise.  The draws of one (dim, integer
seed, count) are held, read-only, in a one-entry memo (_held_draws, a
held_once memo; cache_clear drops it): each chunk's unit directions u
(sphere_sample) and ball radii r.  A value term forms u * r, bitwise its
ball_sample, and a gradient term reads u, so a value sweep and a
preservation check at one seed and count draw once.  A draw above
MAX_HELD_FLOATS float64, or one from fresh entropy (seed None), streams
one chunk at a time on every call.

A chunk is evaluated in its row_blocks, at most BLOCK_ROWS rows each, so
no (CHUNK, d) array exists beside the draw: sphere_sample takes its norms
a block at a time, each job's perturbed points are written into one
reused block array and the loss is called once per block, and a gradient
term forms its contributions c * a a block at a time, carrying the
chunk's sum and squared sum from block to block in row 0 of the same
(1 + BLOCK_ROWS, d) array (_carry).  The operations and their order are
those of one chunk-sized array, so each estimate is bitwise the one-array
estimate for a loss whose value at a row does not depend on the rows
batched with it.  The families' step losses are such by construction:
each is an empirical_risk, which reads a stack out in the same row_blocks.

The checks share one three-sigma rule (SIGMAS): a smoothed value within
L*delta + 3 stderr of the loss (smoothed_value_checks), and every gradient
coordinate's z-score (z_scores) at most 3.
"""

import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import wraps

import numpy as np

from .errors import DegenerateDraw, OutOfRange

CHUNK = 8192
# rows per block: the estimators form perturbed points, evaluate the loss
# and form gradient contributions one block of a chunk at a time, and
# instance_gd.empirical_risk reduces a point stack in the same blocks
BLOCK_ROWS = 1024
SIGMAS = 3.0  # the three-sigma rule: an estimate passes within 3 stderr

# a larger draw is not held but streamed one chunk at a time: 16 MiB of
# float64 directions (the pinned one-pass instance holds 8192 x 168)
MAX_HELD_FLOATS = 2 ** 21

_MIN_NORM = 1e-150

MemoInfo = namedtuple("MemoInfo", "misses currsize")


def _read_only(held):
    """held, with every array in its (nested) tuples and lists made
    read-only."""
    for item in held:
        if isinstance(item, (tuple, list)):
            _read_only(item)
        else:
            item.flags.writeable = False
    return held


def held_once(build):
    """A one-entry memo of build(*key), whose arrays (in nested tuples and
    lists) it makes read-only.

    A call with a new key drops the held entry before it builds the new
    one, so two entries are never live at once.  memo.cache_clear() drops
    the entry; memo.cache_info() gives (misses, currsize).
    """
    entry = None  # (key, value) of the held entry
    misses = 0

    @wraps(build)
    def memo(*key):
        nonlocal entry, misses
        if entry is None or entry[0] != key:
            misses += 1
            entry = None  # freed before the build, not after it
            entry = (key, _read_only(build(*key)))
        return entry[1]

    def cache_clear():
        nonlocal entry, misses
        entry, misses = None, 0

    memo.cache_clear = cache_clear
    memo.cache_info = lambda: MemoInfo(misses, int(entry is not None))
    return memo


@dataclass(frozen=True)
class SmoothingConfig:
    """Radius, sample count and seed for the estimators."""

    delta: float
    samples: int
    seed: int = 0
    # gradients always pair draws (a, -a): a class constant, not a field,
    # for code that counts a config's pairs (perfbench's tracer)
    antithetic = True

    def __post_init__(self):
        if self.delta <= 0:
            raise OutOfRange(f"delta must be positive; got {self.delta}")
        if self.samples < 2:
            raise OutOfRange(f"need at least 2 samples; got {self.samples}")


def row_blocks(count, rows=BLOCK_ROWS):
    """The row slices of count rows in max(1, ceil(count / rows)) blocks
    of near-equal size, the larger ones first: np.array_split's parts."""
    parts = max(1, -(-count // rows))
    size, extra = divmod(count, parts)
    lo = 0
    for i in range(parts):
        hi = lo + size + (i < extra)
        yield slice(lo, hi)
        lo = hi


def sphere_sample(dim, rng, size):
    """Uniform unit vectors, shape (size, dim): normalized standard
    Gaussians.

    Raises
    ------
    DegenerateDraw
        If a Gaussian draw's norm is below _MIN_NORM (not observable in
        practice; guards the normalization).
    """
    if dim < 1:
        raise OutOfRange(f"dim must be positive; got {dim}")
    x = rng.standard_normal((size, dim))
    norms = np.empty(size)
    for rows in row_blocks(size):
        # a block at a time: the squares the norm forms take a block, not
        # a draw
        norms[rows] = np.linalg.norm(x[rows], axis=1)
    if (norms < _MIN_NORM).any():
        raise DegenerateDraw(f"a sphere draw's norm underflows {_MIN_NORM}")
    x /= norms[:, None]
    return x


def _radii(dim, rng, count):
    """The radial factor U^(1/dim) of count uniform ball draws: it gives the
    r^dim volume law, so the mean norm is dim/(dim+1)."""
    return rng.random(count) ** (1.0 / dim)


def ball_sample(dim, rng, size):
    """Uniform points in the unit ball, shape (size, dim): sphere draw times
    the radial factor U^(1/dim)."""
    y = sphere_sample(dim, rng, size)
    y *= _radii(dim, rng, size)[:, None]
    return y


def mc_chunks(seed, count, draw):
    """The chunk layout of the Monte-Carlo estimator: draw(rng, rows) for
    each chunk in order, lazily.  Chunk i holds up to CHUNK of the count
    draws and uses the rng of the i-th seed spawned from seed, so a chunk
    does not depend on how many chunks follow it."""
    seeds = np.random.SeedSequence(seed).spawn(-(-count // CHUNK))
    for i, chunk_seed in enumerate(seeds):
        yield draw(np.random.default_rng(chunk_seed), min(CHUNK, count - i * CHUNK))


def chunk_sums(vals):
    """A term's (sum, squared sum) of one chunk's centered values vals,
    shape (rows,), or of each row of a stack of them (..., rows): numpy's
    sums over the last axis of vals and of its squares, which overwrite
    vals.  numpy sums each row of a C-contiguous stack as it sums that row
    alone, pairwise."""
    return vals.sum(axis=-1), np.multiply(vals, vals, out=vals).sum(axis=-1)


def _carry(block, n, running):
    """running (None at a chunk's first block) plus rows 1 to n of block,
    summed over axis 0 with running carried in row 0.

    numpy sums a (rows, d) array with d > 1 over axis 0 row after row, so
    a chunk's sum carried from block to block this way is bitwise its
    one-array sum.
    """
    if running is None:
        return block[1:1 + n].sum(axis=0)
    block[0] = running
    return block[:1 + n].sum(axis=0)


def chunk_means(count, chunks, terms):
    """(mean, stderr) of each term over the count draws that an iterable
    of chunks holds.

    Each chunk is read once for every term.  A term maps one chunk to the
    (sum, squared sum) over the chunk's draws of its centered values, a
    scalar or per coordinate (chunk_sums gives them for a scalar's values),
    which are added up in chunk order, so a term's estimate does not depend
    on the other terms.  The mean is that of the centered values (the
    caller adds its center back); scalar terms give Python floats.  Without
    terms no chunk is read.
    """
    if count < 2:
        raise OutOfRange(f"need at least 2 draws for a variance estimate; "
                         f"got {count}")
    if not terms:
        return []
    sums = [[0.0, 0.0] for _ in terms]  # per term: values, squared values
    for x in chunks:
        for term, acc in zip(terms, sums):
            total, total_sq = term(x)
            acc[0] += total
            acc[1] += total_sq
        del x  # free this chunk before the next one is read
    out = []
    for total, total_sq in sums:
        mean = total / count
        var = np.maximum(total_sq - count * mean * mean, 0.0) / (count - 1)
        stderr = np.sqrt(var / count)
        out.append((float(mean), float(stderr)) if np.ndim(mean) == 0
                   else (mean, stderr))
    return out


def _chunks(dim, seed, count):
    """The chunks of one draw, lazily: each chunk's unit directions u and
    ball radii r, drawn in that order, so u * r[:, None] is the chunk's
    ball_sample bitwise."""
    # sphere_sample is read as a module global on every call
    return mc_chunks(seed, count, lambda rng, rows: (
        sphere_sample(dim, rng, size=rows), _radii(dim, rng, rows)))


@held_once
def _held_draws(dim, seed, count):
    """The (u, r) chunks of one draw, as a held list."""
    return list(_chunks(dim, seed, count))


def _draws(dim, seed, count):
    """The (u, r) chunks of a draw: held for an integer seed up to
    MAX_HELD_FLOATS, else streamed one chunk at a time."""
    if isinstance(seed, numbers.Integral) and count * dim <= MAX_HELD_FLOATS:
        return _held_draws(dim, seed, count)
    return _chunks(dim, seed, count)


def _points(jobs):
    """The jobs' points as float64 vectors, and the dimension they share."""
    points = [np.asarray(w, dtype=np.float64) for _, w in jobs]
    for w in points:
        if w.ndim != 1:
            raise OutOfRange(f"a smoothing point must be a vector (d,); got "
                             f"shape {w.shape}")
    dims = {w.size for w in points}
    if len(dims) != 1:
        raise OutOfRange(f"points sharing draws need one dimension; got {dims}")
    return points, dims.pop()


def smoothed_values(jobs, cfg):
    """Monte-Carlo ball averages of loss around w for each (loss, w) job:
    a list of (estimate, stderr).

    Each loss must accept both a single point (d,) and a batch (B, d); it
    is called on the row_blocks of each chunk, whose points are written
    into one reused (BLOCK_ROWS, d) array.  The ball samples are shared by
    every job and held (see the module docstring).  Each job is centered at
    loss(w), which changes no estimate in exact arithmetic but keeps the
    variance sums fully precise when the perturbations are tiny (a constant
    loss reports stderr exactly 0).
    """
    points, dim = _points(jobs)
    bases = [float(loss(w)) for (loss, _), w in zip(jobs, points)]
    block = np.empty((min(cfg.samples, BLOCK_ROWS), dim))  # a block's points

    def centered(loss, w, base):
        def term(chunk):
            u, r = chunk
            vals = np.empty(len(u))
            for rows in row_blocks(len(u)):
                # w + delta * ball draw
                x = np.multiply(u[rows], r[rows, None],
                                out=block[:rows.stop - rows.start])
                x *= cfg.delta
                x += w
                vals[rows] = np.asarray(loss(x), dtype=np.float64) - base
            return chunk_sums(vals)
        return term

    means = chunk_means(cfg.samples, _draws(dim, cfg.seed, cfg.samples),
                        [centered(loss, w, base) for (loss, _), w, base
                         in zip(jobs, points, bases)])
    return [(base + mean, stderr) for base, (mean, stderr) in zip(bases, means)]


def smoothed_value(loss, w, cfg):
    """Monte-Carlo ball average of loss around w: (estimate, stderr); see
    smoothed_values."""
    return smoothed_values([(loss, w)], cfg)[0]


def smoothed_grads(jobs, cfg):
    """Zeroth-order gradient estimates for each (loss, w) job: a list of
    (vector estimate, per-coordinate stderr).

    Each antithetic pair of sphere draws (a, -a) contributes
    (dim/delta) * (loss(w+delta*a) - loss(w-delta*a))/2 * a, so the sample
    count covers samples//2 pairs (an odd trailing draw is dropped) and
    must give at least two.  The sphere draws are shared by every job and
    held, the same directions smoothed_values reads at that count (see the
    module docstring).  Each row block's points, and then its
    contributions, are written into rows 1.. of one reused
    (1 + BLOCK_ROWS, d) array, whose row 0 carries the chunk's sums
    (_carry).
    """
    count = cfg.samples // 2
    if count < 2:
        raise OutOfRange(f"an antithetic gradient needs at least 2 pairs; "
                         f"samples={cfg.samples} gives {count}")
    points, dim = _points(jobs)
    scale = dim / cfg.delta
    # numpy sums a single column pairwise, not row after row, so at dim 1
    # a chunk is one block
    blocks = row_blocks if dim > 1 else lambda rows: [slice(0, rows)]
    # row 0 carries a chunk's sums (_carry); rows 1.. hold a block's points,
    # then its contributions c * a
    block = np.empty((1 + min(count, BLOCK_ROWS if dim > 1 else CHUNK), dim))

    def contributions(loss, w):
        def term(chunk):
            a = chunk[0]
            total = total_sq = None
            for rows in blocks(len(a)):
                n = rows.stop - rows.start
                x = block[1:1 + n]
                # w + fl(delta * a); its losses are copied, as x is refilled
                # with w - fl(delta * a) next
                np.multiply(a[rows], cfg.delta, out=x)
                x += w
                f_plus = np.array(loss(x), dtype=np.float64)
                np.multiply(a[rows], cfg.delta, out=x)
                np.subtract(w, x, out=x)
                f_minus = np.asarray(loss(x), dtype=np.float64)
                coef = 0.5 * scale * (f_plus - f_minus)
                np.multiply(coef[:, None], a[rows], out=x)
                total = _carry(block, n, total)
                np.multiply(x, x, out=x)
                total_sq = _carry(block, n, total_sq)
            return total, total_sq
        return term

    return chunk_means(count, _draws(dim, cfg.seed, count),
                       [contributions(loss, w) for (loss, _), w in zip(jobs, points)])


def smoothed_grad(loss, w, cfg):
    """Zeroth-order gradient estimate at w: (vector estimate, per-coordinate
    stderr); see smoothed_grads."""
    return smoothed_grads([(loss, w)], cfg)[0]


def smoothed_value_checks(jobs, cfg, lipschitz):
    """The three-sigma value check at each (loss, w) job: a list of
    (smoothed value, stderr, plain loss, bound).

    An L-Lipschitz loss moves by at most L*delta over the delta-ball, so
    the check passes when |value - plain| <= bound = L*delta + 3 stderr.
    """
    return [(val, stderr, float(loss(w)), lipschitz * cfg.delta + SIGMAS * stderr)
            for (loss, w), (val, stderr) in zip(jobs, smoothed_values(jobs, cfg))]


def z_scores(est, exact, stderr):
    """|est - exact| / stderr per coordinate.  A coordinate with zero
    spread must match outright: it reads 0 if it does and inf if not."""
    diff = np.abs(est - exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(stderr > 0, diff / stderr, np.where(diff > 0, np.inf, 0.0))


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
        sigma = z_scores(est, exact, stderr)
        records.append(
            PreservationStep(
                step=t,
                max_abs_diff=float(np.abs(est - exact).max()),
                max_sigma=float(sigma.max()),
                within=bool((sigma <= SIGMAS).all()),
            )
        )
    return PreservationReport(steps=tuple(records), ok=all(r.within for r in records))
