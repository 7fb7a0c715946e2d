"""Risk estimators: direct means, Monte-Carlo statistics, closed forms."""

import math

import numpy as np
import pytest

from gengap import instance_sgd, risk
from gengap.codebook import generate_codebook
from gengap.errors import InvalidClosedForm, OutOfRange
from gengap.instance_gd import GdParams, draw_gd_dataset, loss_gd
from gengap.instance_sgd import (
    SgdParams,
    force_good_event_sgd,
    loss_sgd,
    loss_sgd_samples,
)
from gengap.instance_smallstep import SmallstepParams, loss_smallstep
from gengap.optim import run_gd, run_sgd, run_smallstep, suffix_average
from gengap.risk import (
    RiskReport,
    ThresholdRecord,
    empirical_risk,
    gap_report,
    population_risk_closed_gd,
    population_risk_mc,
)
from gengap.smoothing import CHUNK


@pytest.fixture(scope="module")
def gd_setup():
    params = GdParams(2, 4, 8, dprime=8)
    codebook = generate_codebook(4, 8, seed=3)
    dataset = draw_gd_dataset(params, 11, policy="reject-until-E")[0]
    traj = run_gd(codebook, dataset, params)
    return params, codebook, dataset, traj


def test_empirical_risk_is_the_training_mean(gd_setup):
    params, codebook, dataset, traj = gd_setup
    w = traj.iterate(params.steps)
    want = np.mean([loss_gd(w, s, params, codebook)
                    for s in zip(dataset.masks, dataset.slots)])
    got = empirical_risk(w, dataset, params, codebook)
    assert math.isclose(got, want, rel_tol=1e-14)


def test_empirical_risk_smallstep_is_the_loss_itself():
    p = SmallstepParams(eta=0.1, steps=10)
    traj = run_smallstep(p)
    w = traj.iterate(p.steps)
    assert empirical_risk(w, None, p) == loss_smallstep(w, p)


def test_empirical_risk_sgd_is_the_training_mean():
    params = SgdParams(4, 8, dprime=16)
    codebook = generate_codebook(8, 16, seed=3)
    dataset = force_good_event_sgd(params, 21)
    traj = run_sgd(codebook, dataset, params)
    w = traj.iterate(params.n)
    want = np.mean([loss_sgd(w, m, params, codebook) for m in dataset.masks])
    assert math.isclose(empirical_risk(w, dataset, params, codebook), want,
                        rel_tol=1e-14)


def test_population_smallstep_is_deterministic():
    p = SmallstepParams(eta=0.1, steps=10)
    w = run_smallstep(p).iterate(p.steps)
    est, stderr = population_risk_mc(w, p)
    assert est == loss_smallstep(w, p)
    assert stderr == 0.0


def test_population_mc_is_seed_reproducible(gd_setup):
    params, codebook, _, traj = gd_setup
    w = traj.iterate(params.steps)
    a = population_risk_mc(w, params, codebook, n_samples=500, seed=42)
    b = population_risk_mc(w, params, codebook, n_samples=500, seed=42)
    assert a == b
    c = population_risk_mc(w, params, codebook, n_samples=500, seed=43)
    assert a != c


def _parent_population_loop(w, params, codebook, n_samples, seed):
    # the population estimator's own loop before it shared the chunked
    # estimator with the smoothing module
    seeds = np.random.SeedSequence(seed).spawn(-(-n_samples // CHUNK))
    base = None
    total = total_sq = 0.0
    done = 0
    for child in seeds:
        count = min(CHUNK, n_samples - done)
        samples = params.draw_samples(np.random.default_rng(child), count)
        [vals] = params.point_losses(w[None], codebook, "oracle")(
            params.prepare_samples([samples]))
        vals = vals[0]
        if base is None:
            base = float(vals[0])
        centered = vals - base
        total += float(centered.sum())
        total_sq += float((centered * centered).sum())
        done += count
    mean_c = total / n_samples
    var = max(total_sq - n_samples * mean_c * mean_c, 0.0) / (n_samples - 1)
    return base + mean_c, math.sqrt(var / n_samples)


@pytest.mark.parametrize("family", ["gd", "sgd"])
def test_population_mc_equals_its_chunked_loop_bitwise(gd_setup, family):
    # two full chunks and a partial third
    if family == "gd":
        params, codebook, _, traj = gd_setup
    else:
        params = SgdParams(4, 8, dprime=16)
        codebook = generate_codebook(8, 16, seed=3)
        dataset = force_good_event_sgd(params, 21)
        traj = run_sgd(codebook, dataset, params)
    w = traj.iterate(traj.steps)
    n = 2 * CHUNK + 5
    got = population_risk_mc(w, params, codebook, n_samples=n, seed=9)
    assert got == _parent_population_loop(w, params, codebook, n, 9)
    assert all(type(x) is float for x in got)


def test_population_mc_needs_two_samples(gd_setup):
    params, codebook, _, _ = gd_setup
    with pytest.raises(OutOfRange):
        population_risk_mc(np.zeros(params.dim), params, codebook, n_samples=1)


def test_population_mc_is_unbiased_against_the_closed_form(gd_setup):
    # 50 independent estimates of F(w_T); their mean must sit within three
    # pooled standard errors of the exact value
    params, codebook, _, traj = gd_setup
    w = traj.iterate(params.steps)
    closed = population_risk_closed_gd(params.steps, params)
    ests, ses = [], []
    for seed in range(50):
        est, se = population_risk_mc(w, params, codebook, n_samples=2000,
                                     seed=seed)
        ests.append(est)
        ses.append(se)
    pooled = math.sqrt(np.mean(np.square(ses)) / len(ses))
    assert abs(np.mean(ests) - closed) <= 3.0 * pooled


def test_closed_form_baseline_matches_the_floor_value(gd_setup):
    params, _, _, _ = gd_setup
    want = (params.l1_floor * math.sqrt(params.steps - 1)
            + params.delta1 + params.delta2)
    assert math.isclose(population_risk_closed_gd(0, params), want,
                        rel_tol=1e-12)
    # before any step block exists the risk equals the zero-vector risk
    assert population_risk_closed_gd(1, params) \
        == population_risk_closed_gd(0, params)


def test_closed_form_point_domain(gd_setup):
    params, _, _, _ = gd_setup
    for t in (2, 3, 4):
        with pytest.raises(InvalidClosedForm):
            population_risk_closed_gd(t, params)
    short = GdParams(2, 4, 4, dprime=8)
    with pytest.raises(InvalidClosedForm):
        population_risk_closed_gd(0, short)
    # length-1 suffix window is the last iterate itself
    assert population_risk_closed_gd(("suffix", 1), params) \
        == population_risk_closed_gd(params.steps, params)


def test_closed_form_excess_is_positive_beyond_the_warmup(gd_setup):
    params, _, _, _ = gd_setup
    base = population_risk_closed_gd(0, params)
    for t in range(5, params.steps + 1):
        assert population_risk_closed_gd(t, params) > base


def test_gap_report_rows_and_arithmetic(gd_setup):
    params, codebook, dataset, traj = gd_setup
    reports = gap_report(traj, dataset, params, codebook,
                         suffix_lengths=(1, 2), n_samples=500, seed=0)
    assert [r.suffix_length for r in reports] == [1, 2]
    for r in reports:
        assert r.family == "gd"
        assert math.isclose(r.excess_empirical,
                            r.empirical - r.baseline_empirical, rel_tol=1e-12)
        assert math.isclose(r.excess_population,
                            r.population - r.baseline_population,
                            rel_tol=1e-9)
        assert r.population_stderr > 0.0
        assert {t.name for t in r.thresholds} == {
            "population-excess-last-iterate", "population-excess-any-suffix"}


def test_gap_report_smallstep_thresholds():
    p = SmallstepParams(eta=0.02, steps=100)
    traj = run_smallstep(p)
    (rep,) = gap_report(traj, None, p, suffix_lengths=(10,))
    assert rep.family == "smallstep"
    (thr,) = rep.thresholds
    assert thr.name == "value-any-suffix"
    assert math.isclose(thr.target, p.risk_threshold, rel_tol=1e-12)
    assert thr.satisfied  # this family meets its designed bound at any scale


def test_risk_report_serialization(gd_setup):
    params, codebook, dataset, traj = gd_setup
    (rep,) = gap_report(traj, dataset, params, codebook, suffix_lengths=(1,),
                        n_samples=500, seed=0)
    row = rep.to_csv_row()
    fields = row.split(",")
    assert fields[0] == "gd"
    assert len(fields) == len(RiskReport.CSV_HEADER.split(","))
    # values reparse to the exact floats
    assert float(fields[2]) == rep.empirical



# ---------------------------------------------------------------------------
# one population draw per report: every point reads the same chunks
# ---------------------------------------------------------------------------


def _sgd_setup():
    params = SgdParams(4, 8, dprime=16)
    codebook = generate_codebook(8, 16, seed=3)
    dataset = force_good_event_sgd(params, 21)
    return params, codebook, dataset, run_sgd(codebook, dataset, params)


def _sgd_headline_setup():
    # eight training samples: numpy sums a row of eight or more pairwise
    params = SgdParams(8, 16)
    codebook = generate_codebook(16, params.dprime, seed=3)
    dataset = force_good_event_sgd(params, 21)
    return params, codebook, dataset, run_sgd(codebook, dataset, params)


@pytest.fixture(params=["gd", "sgd", "sgd-n8", "smallstep"])
def family_run(request, gd_setup):
    """(params, codebook, dataset, traj, suffix lengths) of each family."""
    if request.param == "gd":
        return (*gd_setup, (1, 4, 8))
    if request.param == "sgd":
        return (*_sgd_setup(), (1, 2, 3, 4))
    if request.param == "sgd-n8":
        return (*_sgd_headline_setup(), (1, 2, 5, 8))
    params = SmallstepParams(eta=0.02, steps=100)
    return params, None, None, run_smallstep(params), (1, 10, 100)


def _counting_draws(monkeypatch, params):
    """The row counts of every params.draw_samples call, as a list that
    fills while the test runs (params are frozen: the class is patched).
    The held population sample is dropped first, so the count starts from
    an empty memo."""
    risk._population_sample.cache_clear()
    calls = []
    draw = type(params).draw_samples
    if draw is not None:
        def counted(self, rng, count):
            calls.append(count)
            return draw(self, rng, count)
        monkeypatch.setattr(type(params), "draw_samples", counted)
    return calls


def _training_mean(w, dataset, params, codebook):
    """np.mean of one point's training losses: the empirical risk, computed
    without risk.empirical_risk."""
    samples = (None if dataset is None
               else params.prepare_samples([dataset.samples]))
    [losses] = params.point_losses(w[None], codebook, "oracle")(samples)
    return float(np.mean(losses[0]))


def test_gap_report_equals_a_per_suffix_loop_field_for_field(family_run):
    params, codebook, dataset, traj, suffixes = family_run
    n = 2 * CHUNK + 5
    base_emp = _training_mean(np.zeros(traj.dim), dataset, params, codebook)
    base_pop = params.baseline_population(base_emp)
    want = []
    for m in suffixes:  # one population estimate per suffix average
        w = suffix_average(traj, m)
        emp = _training_mean(w, dataset, params, codebook)
        pop, stderr = population_risk_mc(w, params, codebook, n_samples=n,
                                         seed=9)
        fields = {"population": pop, "excess_population": pop - base_pop,
                  "excess_empirical": emp - base_emp}
        want.append(RiskReport(
            family=params.family, suffix_length=m, empirical=emp,
            population=pop, population_stderr=stderr,
            n_samples=0 if params.draw_samples is None else n,
            baseline_empirical=base_emp, baseline_population=base_pop,
            excess_empirical=fields["excess_empirical"],
            excess_population=fields["excess_population"],
            thresholds=tuple(
                ThresholdRecord(name, target, fields[field],
                                bool(fields[field] >= target))
                for name, target, field in params.gap_targets)))
    got = gap_report(traj, dataset, params, codebook, suffix_lengths=suffixes,
                     n_samples=n, seed=9)
    assert got == want
    assert [r.to_csv_row() for r in got] == [r.to_csv_row() for r in want]
    assert all(type(r.population) is float and type(r.population_stderr) is float
               for r in got)


def test_population_mc_of_a_stack_equals_one_point_calls(family_run):
    params, codebook, _, traj, suffixes = family_run
    # the zero vector too: every smallstep suffix average has the same loss
    points = np.stack([np.zeros(traj.dim)]
                      + [suffix_average(traj, m) for m in suffixes])
    n = 2 * CHUNK + 5
    est, stderr = population_risk_mc(points, params, codebook, n_samples=n,
                                     seed=9)
    assert est.shape == stderr.shape == (len(points),)
    singles = [population_risk_mc(w, params, codebook, n_samples=n, seed=9)
               for w in points]
    assert [(float(e), float(s)) for e, s in zip(est, stderr)] == singles


def test_a_report_draws_each_chunk_once(family_run, monkeypatch):
    params, codebook, dataset, traj, suffixes = family_run
    calls = _counting_draws(monkeypatch, params)
    gap_report(traj, dataset, params, codebook, suffix_lengths=suffixes,
               n_samples=2 * CHUNK + 5, seed=9)
    want = [] if params.draw_samples is None else [CHUNK, CHUNK, 5]
    assert calls == want


def test_a_report_reads_each_point_out_once(monkeypatch):
    # one read-out per call, whatever the chunk count: the suffix averages
    # and the zero baseline as one stack
    params, codebook, dataset, traj = _sgd_setup()
    stacks = []
    readout = instance_sgd._l2_readout

    def counted(w2, proj, p):
        stacks.append(len(w2))
        return readout(w2, proj, p)

    monkeypatch.setattr(instance_sgd, "_l2_readout", counted)
    suffixes = (1, 2, 3, 4)
    gap_report(traj, dataset, params, codebook, suffix_lengths=suffixes,
               n_samples=2 * CHUNK + 5, seed=9)
    assert stacks == [len(suffixes) + 1]


def test_empirical_risk_of_a_stack_equals_one_point_calls(family_run):
    params, codebook, dataset, traj, suffixes = family_run
    points = np.stack([np.zeros(traj.dim)]
                      + [suffix_average(traj, m) for m in suffixes])
    got = empirical_risk(points, dataset, params, codebook)
    assert got.shape == (len(points),)
    singles = [empirical_risk(w, dataset, params, codebook) for w in points]
    assert got.tolist() == singles
    assert all(type(x) is float for x in singles)


def test_gap_report_of_no_suffix_is_empty_and_draws_nothing(family_run,
                                                            monkeypatch):
    params, codebook, dataset, traj, _ = family_run
    calls = _counting_draws(monkeypatch, params)
    assert gap_report(traj, dataset, params, codebook, suffix_lengths=(),
                      n_samples=2 * CHUNK + 5, seed=9) == []
    assert calls == []


def test_sgd_sample_losses_of_a_stack_equal_its_rows():
    params, codebook, _, traj = _sgd_setup()
    points = np.stack([suffix_average(traj, m) for m in (1, 2, 3, 4)])
    masks = params.draw_samples(np.random.default_rng(5), 3000)
    got = loss_sgd_samples(points, masks, params, codebook)
    assert got.shape == (len(points), len(masks))
    for row, w in zip(got, points):
        assert np.array_equal(row, loss_sgd_samples(w, masks, params, codebook))


# ---------------------------------------------------------------------------
# one population sample per process: the held chunks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["gd", "sgd"])
def test_a_held_sample_gives_the_fresh_results_bitwise(gd_setup, family):
    params, codebook, dataset, traj = (gd_setup if family == "gd"
                                       else _sgd_setup())
    points = np.stack([suffix_average(traj, m) for m in (1, 2)])
    n = 2 * CHUNK + 5

    def results():
        return (gap_report(traj, dataset, params, codebook,
                           suffix_lengths=(1, 2), n_samples=n, seed=9),
                population_risk_mc(points[0], params, codebook, n_samples=n,
                                   seed=9),
                [a.tolist() for a in population_risk_mc(
                    points, params, codebook, n_samples=n, seed=9)])

    risk._population_sample.cache_clear()
    cold = results()
    assert risk._population_sample.cache_info().currsize == 1
    warm = results()
    assert warm == cold
    risk._population_sample.cache_clear()
    assert results() == cold


def _arrays(prepared):
    for item in prepared:
        yield from (_arrays(item) if isinstance(item, tuple) else [item])


@pytest.mark.parametrize("family", ["gd", "sgd"])
def test_the_memo_holds_one_read_only_sample(gd_setup, family):
    params, codebook, _, traj = gd_setup if family == "gd" else _sgd_setup()
    w = suffix_average(traj, 1)
    risk._population_sample.cache_clear()
    for seed in (3, 4):
        population_risk_mc(w, params, codebook, n_samples=2 * CHUNK + 5,
                           seed=seed)
        assert risk._population_sample.cache_info().currsize == 1
    held = risk._population_sample(params, 2 * CHUNK + 5, 4)
    assert risk._population_sample.cache_info().misses == 2
    for a in _arrays(held):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_a_sample_above_the_held_size_streams(gd_setup):
    params, codebook, _, traj = gd_setup
    w = suffix_average(traj, 1)
    n = risk.MAX_HELD_SAMPLES + 1
    risk._population_sample.cache_clear()
    assert population_risk_mc(w, params, codebook, n_samples=n, seed=2) \
        == _parent_population_loop(w, params, codebook, n, 2)
    assert risk._population_sample.cache_info().currsize == 0


def test_a_report_on_a_held_sample_draws_nothing(family_run, monkeypatch):
    params, codebook, dataset, traj, suffixes = family_run
    calls = _counting_draws(monkeypatch, params)
    for _ in range(2):
        gap_report(traj, dataset, params, codebook, suffix_lengths=suffixes,
                   n_samples=2 * CHUNK + 5, seed=9)
    assert calls == ([] if params.draw_samples is None else [CHUNK, CHUNK, 5])


def _gd_n8_setup():
    # eight training samples, as in the one-pass headline run
    params = GdParams(8, 4, 16, dprime=16)
    codebook = generate_codebook(4, 16, seed=3)
    dataset = draw_gd_dataset(params, 0, policy="reject-until-E")[0]
    return params, codebook, dataset, run_gd(codebook, dataset, params)


def test_every_training_risk_is_empirical_risk_bitwise(gd_setup):
    # one function computes the training risk: numpy's mean of the kernel's
    # per-sample losses, which the one-sample losses give one at a time
    def mean(values):
        return float(np.mean(values))

    families = [(gd_setup, loss_gd), (_gd_n8_setup(), loss_gd),
                (_sgd_headline_setup(), loss_sgd)]
    for (params, codebook, dataset, traj), loss in families:
        for m in range(1, params.horizon + 1):
            w = suffix_average(traj, m)
            got = empirical_risk(w, dataset, params, codebook)
            samples = (dataset.masks if params.family == "sgd"
                       else zip(dataset.masks, dataset.slots))
            assert got == mean([loss(w, s, params, codebook) for s in samples])
            if params.family == "gd":
                steps = [params.step_loss(1, dataset, codebook, "oracle")(w)]
            else:  # the mean of the pass's step losses
                steps = [mean([params.step_loss(t, dataset, codebook, "oracle")(w)
                               for t in range(1, params.n + 1)])]
            assert steps == [got], (params.family, m)
    params = SmallstepParams(eta=0.02, steps=100)
    traj = run_smallstep(params)
    for m in range(1, params.horizon + 1):
        w = suffix_average(traj, m)
        got = empirical_risk(w, None, params)
        assert got == float(loss_smallstep(w, params))
        assert got == params.step_loss(m, None, None, "oracle")(w)
