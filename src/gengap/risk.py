"""Empirical and population risk, Monte-Carlo and closed-form.

Population risks are plain Monte-Carlo means over fresh samples with a
deterministic chunked RNG layout (the estimate for a given seed does not
depend on chunk boundaries or platform).  Each family's params carry its
sampling law (draw_samples; None for a point mass, whose risk is the loss)
and the population risk of the zero vector (baseline_population).  For the
full-batch family the on-trajectory population risk also has an exact
two-branch closed form, population_risk_closed_gd in instance_gd, which the
estimator is tested against.

Gap reports record the designed excess-risk targets next to the measured
numbers; they never assert them.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
# the full-batch closed form stays importable from this module
from .instance_gd import population_risk_closed_gd
from .optim import suffix_average

CHUNK = 8192
DEFAULT_SAMPLES = 20_000


def empirical_risk(w, dataset, params, codebook=None, mode="oracle"):
    """Mean loss of w over the training set.

    The deterministic family ignores dataset (its loss has no sample);
    pass None.
    """
    samples = None if dataset is None else dataset.samples
    return float(np.mean(params.sample_losses(w, samples, codebook, mode)))


def population_risk_mc(w, params, codebook=None, n_samples=DEFAULT_SAMPLES,
                       seed=0, mode="oracle"):
    """Monte-Carlo population risk: (estimate, stderr).

    Fresh samples follow the family's sampling law (params.draw_samples).
    Values are accumulated centered on the first draw so near-constant
    losses do not lose their variance to cancellation.  A family without a
    sampling law is a point mass: its exact value and stderr 0.0 come back
    regardless of n_samples.
    """
    if params.draw_samples is None:
        return empirical_risk(w, None, params), 0.0
    if n_samples < 2:
        raise OutOfRange(f"need n_samples >= 2; got {n_samples}")
    n_chunks = -(-n_samples // CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    base = None
    total = 0.0
    total_sq = 0.0
    done = 0
    for child in seeds:
        count = min(CHUNK, n_samples - done)
        samples = params.draw_samples(np.random.default_rng(child), count)
        vals = params.sample_losses(w, samples, codebook, mode)
        if base is None:
            base = float(vals[0])
        centered = vals - base
        total += float(centered.sum())
        total_sq += float((centered * centered).sum())
        done += count
    mean_c = total / n_samples
    var = max(total_sq - n_samples * mean_c * mean_c, 0.0) / (n_samples - 1)
    return base + mean_c, math.sqrt(var / n_samples)


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

    def to_json(self):
        payload = {
            "family": self.family,
            "suffix_length": self.suffix_length,
            "empirical": self.empirical,
            "population": self.population,
            "population_stderr": self.population_stderr,
            "n_samples": self.n_samples,
            "baseline_empirical": self.baseline_empirical,
            "baseline_population": self.baseline_population,
            "excess_empirical": self.excess_empirical,
            "excess_population": self.excess_population,
            "thresholds": [
                {
                    "name": rec.name,
                    "target": rec.target,
                    "observed": rec.observed,
                    "satisfied": rec.satisfied,
                }
                for rec in self.thresholds
            ],
        }
        return json.dumps(payload, indent=2)

    CSV_HEADER = (
        "family,suffix_length,empirical,population,population_stderr,"
        "baseline_population,excess_population,excess_empirical"
    )

    def to_csv_row(self):
        return (
            f"{self.family},{self.suffix_length},{self.empirical!r},"
            f"{self.population!r},{self.population_stderr!r},"
            f"{self.baseline_population!r},{self.excess_population!r},"
            f"{self.excess_empirical!r}"
        )


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
    zero = np.zeros(traj.dim)
    base_emp = empirical_risk(zero, dataset, params, codebook, mode=mode)
    base_pop = params.baseline_population(base_emp)

    reports = []
    for m in suffix_lengths:
        w = suffix_average(traj, m)
        emp = empirical_risk(w, dataset, params, codebook, mode=mode)
        pop, stderr = population_risk_mc(
            w, params, codebook, n_samples=n_samples, seed=seed, mode=mode
        )
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
