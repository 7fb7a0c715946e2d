"""Empirical and population risk, Monte-Carlo and closed-form.

Population risks are plain Monte-Carlo means over fresh samples with a
deterministic chunked RNG layout (the estimate for a given seed does not
depend on chunk boundaries or platform).  For the full-batch family the
on-trajectory population risk also has an exact two-branch closed form --
the only randomness that survives the argmax structure is whether the fresh
sample's subset contains the direction the training set missed -- which the
estimator is tested against.

Gap reports record the designed excess-risk targets next to the measured
numbers; they never assert them.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidClosedForm, OutOfRange
from .optim import suffix_average
from .verify import _gd_block_coefficients

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
    losses do not lose their variance to cancellation.  The deterministic
    family has no sample: its exact value and stderr 0.0 come back
    regardless of n_samples.
    """
    if params.family == "smallstep":  # a point mass: the risk is the loss
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


def population_risk_closed_gd(point, params):
    """Exact population risk of a closed-form full-batch point.

    point is an iterate index t (0 or 1 give the zero vector; the per-step
    form is stated from t = 5, so 2 <= t < 5 is refused) or ("suffix", m)
    for the mean of the last m closed-form iterates.  Conditioned on the
    training set's good event, a fresh sample moves the loss only through
    whether its subset contains the direction the training set missed, so
    the expectation is the mean of two branch values plus the
    sample-independent terms.  The value does not depend on which direction
    that is.

    Suffix windows are accepted while the pinned direction's ratchet
    candidates provably outbid every other direction regardless of the
    codebook; longer windows raise InvalidClosedForm.
    """
    T = params.steps
    if T < 8:
        raise InvalidClosedForm(f"per-step closed form needs steps >= 8; got {T}")
    if isinstance(point, tuple):
        tag, m = point
        if tag != "suffix":
            raise OutOfRange(f"unknown point tag {tag!r}")
        if not 1 <= m <= T:
            raise OutOfRange(f"suffix length {m} not in [1, {T}]")
        window = range(T - m + 1, T + 1)
    else:
        t = int(point)
        if t in (0, 1):
            window = ()
        elif 5 <= t <= T:
            window = (t,)
        else:
            raise InvalidClosedForm(
                f"iterate {t} outside the closed-form risk range ({{0, 1}} or [5, {T}])"
            )

    m = max(len(window), 1)
    coefs = np.zeros(T + 1)
    rho_hits = 0
    for t in window:
        if t >= 2:
            coefs += _gd_block_coefficients(t, params)
            rho_hits += 1
    coefs /= m
    rho = rho_hits / m

    floor = params.l1_floor
    h_in = np.maximum(floor, coefs[2:])
    branch_in = math.sqrt(float(h_in @ h_in))
    branch_out = floor * math.sqrt(T - 1)
    l1 = 0.5 * (branch_in + branch_out)

    l3 = max(params.delta1, rho * params.eta / params.n - params.beta * coefs[1])

    cand = 0.375 * coefs[1:T] - 0.5 * coefs[2: T + 1]
    best = float(cand.max()) if cand.size else 0.0
    if cand.size and best < float(np.abs(cand).max()) / 8.0:
        raise InvalidClosedForm(
            "suffix window too long: a coherence-bounded direction could "
            "outbid the pinned one, so no codebook-free value exists"
        )
    l4 = max(params.delta2, best)
    return l1 + l3 + l4


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

    Baselines are the risks of the zero vector: exact for the full-batch
    population (closed form), and the training risk otherwise (the
    one-pass loss is sample-independent at zero, and the deterministic loss
    has no sample); targets are recorded with pass flags, never asserted.
    """
    zero = np.zeros(traj.dim)
    base_emp = empirical_risk(zero, dataset, params, codebook, mode=mode)
    if params.family == "gd":
        base_pop = population_risk_closed_gd(0, params)
    else:
        base_pop = base_emp

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
                n_samples=(0 if params.family == "smallstep" else n_samples),
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
