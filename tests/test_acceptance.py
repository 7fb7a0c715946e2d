"""Pinned end-to-end gates, one per shipped guarantee.

Each test runs one named suite from `gengap.acceptance` under its frozen
configuration (sizes, seeds, tolerances all live there), reports any failing
check labels verbatim, and enforces the suite's wall-clock budget.
"""

from gengap.acceptance import SuiteResult, run_suite


def _gate(name):
    res = run_suite(name)
    failing = [f"{c.label} [{c.info}]" if c.info else c.label
               for c in res.checks if not c.passed]
    assert res.passed, f"{name}: {len(failing)} failing checks: {failing}"
    assert res.within_budget, (
        f"{name}: took {res.elapsed:.1f}s, budget {res.budget}s"
    )


def test_a_suite_at_exactly_its_budget_is_over_it():
    assert not SuiteResult("x", (), elapsed=1.0, budget=1.0).within_budget
    assert SuiteResult("x", (), elapsed=0.999, budget=1.0).within_budget


def test_small_increment_suffix_value_stays_above_threshold():
    _gate("smallstep-exact")


def test_full_batch_trajectory_matches_closed_form():
    _gate("gd-trajectory")


def test_full_batch_suffix_average_matches_piecewise_formula():
    _gate("gd-suffix")


def test_full_batch_population_risk_estimates_agree():
    _gate("gd-risk")


def test_good_draw_frequency_clears_the_floor():
    _gate("gd-event")


def test_one_pass_trajectory_matches_closed_form():
    _gate("sgd-trajectory")


def test_one_pass_empirical_gap_is_positive_and_exact():
    _gate("sgd-risk")


def test_smoothed_surrogates_track_values_and_gradients():
    _gate("smoothing")


def test_coherence_convexity_and_oracle_parity():
    _gate("properties")
