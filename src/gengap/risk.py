"""Empirical and population risk, Monte-Carlo and closed-form.

Both risks reduce the family's one loss kernel: params.point_losses(points,
codebook, mode) is built once for a stack of points (P, d) and gives,
chunk by chunk, each sample's loss at each point, shape (P, B), for sample
chunks made ready by params.prepare_samples.  The training risk of every
family is one function's mean over the training set (instance_gd's
training_risks and empirical_risk, re-exported here).  Population risks are
means from the one chunked Monte-Carlo estimator (smoothing.mc_chunks lays
out the chunks, smoothing.chunk_means accumulates them), whose
seed-per-chunk layout makes an estimate for a given seed independent of
platform.  A gap report reads its suffix averages out once, reads each
chunk once for all of them, and takes their training risks from the same
read-out.

The population sample is drawn once per (instance, sample count, seed) in
a process.  Its prepared chunks are held read-only in a one-entry memo
(_population_sample, a smoothing.held_once memo that drops its entry
before it draws another; cache_clear drops it), and every gap report and
population_risk_mc on that sample reads them.  The seeds of one run share
one --mc-seed, so they share the sample, as they always did.  Per sample
the memo holds about 8 bytes for the one-pass family (the sample's row
among the sample's few distinct masks): about 160 KB at the default 20,000.
The full-batch family holds 24 + N bytes (sine, cosine, slot index and
membership): 800 KB at N=16.  A sample above MAX_HELD_SAMPLES is not
held; it is drawn again, one chunk at a time, on every call.

Each family's params carry its sampling law (draw_samples; None for a
point mass, whose risk is the loss) and the population risk of the zero
vector (baseline_population).  The full-batch family's on-trajectory
population risk also has an exact closed form, population_risk_closed_gd
in instance_gd, which the estimator is tested against.

Gap reports record the designed excess-risk targets next to the measured
numbers; they never assert them.
"""

from dataclasses import dataclass

import numpy as np

# the training risk and the full-batch closed form stay importable from
# this module
from .instance_gd import empirical_risk, population_risk_closed_gd, \
    training_risks
from .optim import suffix_average
from .smoothing import chunk_means, chunk_sums, held_once, mc_chunks

DEFAULT_SAMPLES = 20_000
# a larger population sample is not held but drawn again, one chunk at a
# time, per call: held, it would cost 24 + N bytes per gd sample
MAX_HELD_SAMPLES = 100_000


@held_once
def _population_sample(params, n_samples, seed):
    """One population sample, its chunks (mc_chunks of params.draw_samples)
    made ready by params.prepare_samples and held read-only: the one memo
    entry, cleared by _population_sample.cache_clear()."""
    return params.prepare_samples(
        list(mc_chunks(seed, n_samples, params.draw_samples)))


def _population(losses, count, params, n_samples, seed):
    """(estimates, stderrs) of the first count points of a stack, shape
    (count,) each, from the stack's point_losses read-out.  Each chunk's
    centered sums of all count points are one (count, rows) operation, each
    row summed as it would be alone."""
    if params.draw_samples is None:
        [vals] = losses(None)
        return vals[:count, 0], np.zeros(count)
    if not count:  # an estimate without points draws nothing
        return np.zeros(0), np.zeros(0)
    bases = []  # each point's first draw, (count, 1)

    def streamed():
        for chunk in mc_chunks(seed, n_samples, params.draw_samples):
            yield from losses(params.prepare_samples([chunk]))

    def chunk_losses():
        chunks = (losses(_population_sample(params, n_samples, seed))
                  if n_samples <= MAX_HELD_SAMPLES else streamed())
        for vals in chunks:
            if not bases:
                bases.append(vals[:count, :1].copy())
            yield vals
            del vals  # free this chunk's losses before the next is computed

    def centered(vals):
        # in place: each chunk's losses are read by this term alone, and a
        # (count, rows) temporary would cost a fresh allocation per chunk
        return chunk_sums(np.subtract(vals[:count], bases[0], out=vals[:count]))

    [(means, stderrs)] = chunk_means(n_samples, chunk_losses(), [centered])
    return bases[0][:, 0] + means, stderrs


def population_risk_mc(w, params, codebook=None, n_samples=DEFAULT_SAMPLES,
                       seed=0, mode="oracle"):
    """Monte-Carlo population risk: (estimate, stderr) at a point w (d,), or
    (P,) arrays of both at each point of a stack (P, d).

    The samples follow the family's sampling law (params.draw_samples);
    one (params, n_samples, seed) sample is drawn once per process and held
    (see the module docstring).  Each point is read out once
    (params.point_losses on the stack) and every point's losses are
    evaluated on each chunk, so each point's estimate is its one-point
    estimate bitwise.  A point's
    values are accumulated centered on its own first draw so near-constant
    losses do not lose their variance to cancellation.  A family without a
    sampling law is a point mass: each point's exact loss and stderr 0.0
    come back regardless of n_samples.
    """
    points = np.asarray(w, dtype=np.float64).reshape(-1, np.shape(w)[-1])
    est, stderr = _population(params.point_losses(points, codebook, mode),
                              len(points), params, n_samples, seed)
    if np.ndim(w) == 1:
        return float(est[0]), float(stderr[0])
    return est, stderr


# ---------------------------------------------------------------------------
# gap reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRecord:
    name: str
    target: float
    observed: float
    satisfied: bool


@dataclass(frozen=True)
class RiskReport:
    """Risks of one suffix average, with the designed targets recorded."""

    family: str
    suffix_length: int
    empirical: float
    population: float
    population_stderr: float
    n_samples: int
    baseline_empirical: float
    baseline_population: float
    excess_empirical: float
    excess_population: float
    thresholds: tuple

    # the CSV columns in order; a Python float prints as its shortest repr
    CSV_COLUMNS = ("family", "suffix_length", "empirical", "population",
                   "population_stderr", "baseline_population",
                   "excess_population", "excess_empirical")
    CSV_HEADER = ",".join(CSV_COLUMNS)

    def to_csv_row(self):
        return ",".join(str(getattr(self, col)) for col in self.CSV_COLUMNS)


def _thresholds(params, **observed):
    """The family's designed targets against the report fields they bound."""
    return tuple(
        ThresholdRecord(name, target, observed[field],
                        bool(observed[field] >= target))
        for name, target, field in params.gap_targets
    )


def gap_report(traj, dataset, params, codebook=None, suffix_lengths=(1,),
               n_samples=DEFAULT_SAMPLES, seed=0, mode="oracle"):
    """Risk report for each requested suffix length of a recorded run.

    Baselines are the risks of the zero vector: the training risk, and the
    population risk the family's params derive from it
    (baseline_population); targets are recorded with pass flags, never
    asserted.
    """
    # the suffix averages, then the zero vector, read out as one stack: one
    # population draw for the averages, every training risk from it
    points = np.zeros((len(suffix_lengths) + 1, traj.dim))
    for row, m in zip(points, suffix_lengths):
        row[...] = suffix_average(traj, m)
    losses = params.point_losses(points, codebook, mode)
    pops, stderrs = _population(losses, len(suffix_lengths), params, n_samples, seed)
    *emps, base_emp = training_risks(losses, dataset, params).tolist()
    base_pop = params.baseline_population(base_emp)

    reports = []
    for m, pop, stderr, emp in zip(suffix_lengths, pops.tolist(),
                                   stderrs.tolist(), emps):
        excess_pop = pop - base_pop
        excess_emp = emp - base_emp
        reports.append(
            RiskReport(
                family=params.family,
                suffix_length=m,
                empirical=emp,
                population=pop,
                population_stderr=stderr,
                n_samples=(0 if params.draw_samples is None else n_samples),
                baseline_empirical=base_emp,
                baseline_population=base_pop,
                excess_empirical=excess_emp,
                excess_population=excess_pop,
                thresholds=_thresholds(params, excess_population=excess_pop,
                                       excess_empirical=excess_emp,
                                       population=pop),
            )
        )
    return reports
