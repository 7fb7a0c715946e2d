"""Verification toolkit: checkers must pass on real runs and catch faults."""

import math

import numpy as np
import pytest

from gengap.codebook import generate_codebook
from gengap.errors import InvalidClosedForm, OutOfRange
from gengap.instance_gd import GdParams, draw_gd_dataset
from gengap.instance_smallstep import SmallstepParams
from gengap.optim import Trajectory, run_gd, run_smallstep
from gengap.verify import (
    check_event_probability_gd,
    check_loss_properties,
    check_margins,
    check_norm_bound,
    check_trajectory,
    wilson_interval,
)


@pytest.fixture(scope="module")
def gd_setup():
    params = GdParams(2, 4, 8, dprime=8)
    codebook = generate_codebook(4, 8, seed=3)
    dataset = draw_gd_dataset(params, 11, policy="reject-until-E")[0]
    traj = run_gd(codebook, dataset, params)
    return params, codebook, dataset, traj


def test_wilson_interval_shape_and_anchors():
    freq, lower, upper = 0.4, *wilson_interval(40, 100)
    assert 0.0 <= lower <= freq <= upper <= 1.0
    # exact endpoints at all-failures / all-successes
    assert wilson_interval(0, 10)[0] == 0.0
    assert math.isclose(wilson_interval(10, 10)[1], 1.0, rel_tol=1e-12)


def test_wilson_interval_matches_the_direct_formula():
    z = 1.959963984540054
    k, n = 877, 2000
    p = k / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = (z / (1 + z * z / n)) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo, hi = wilson_interval(k, n)
    assert math.isclose(lo, center - half, rel_tol=1e-12)
    assert math.isclose(hi, center + half, rel_tol=1e-12)


def test_wilson_interval_tightens_with_more_trials():
    lo1, hi1 = wilson_interval(40, 100)
    lo2, hi2 = wilson_interval(400, 1000)
    assert hi2 - lo2 < hi1 - lo1


def test_trajectory_checker_passes_a_real_run(gd_setup):
    params, codebook, dataset, traj = gd_setup
    rep = check_trajectory(traj, params, dataset, codebook)
    assert rep.ok
    assert [s.step for s in rep.steps] == list(range(2, params.steps + 1))


def test_trajectory_checker_catches_a_step_scale_fault(gd_setup):
    params, codebook, dataset, traj = gd_setup
    bad = traj.iterates.copy()
    bad[4] += 1e-6  # nudge every coordinate of w_5
    rep = check_trajectory(Trajectory(iterates=bad), params, dataset,
                           codebook)
    assert not rep.ok
    assert not rep.steps[3].ok  # step 5 is the fourth checked step


def test_trajectory_checker_catches_a_correction_scale_fault(gd_setup):
    # a 1e-12 stain on a coordinate the closed form pins to exactly zero
    # passes the step-scale tolerance but must trip the strict class
    params, codebook, dataset, traj = gd_setup
    bad = traj.iterates.copy()
    last_coord = params.dim - 1  # block T is all zeros on every iterate
    bad[2, last_coord] += 1e-12
    rep = check_trajectory(Trajectory(iterates=bad), params, dataset,
                           codebook)
    assert not rep.ok
    flagged = rep.steps[1]  # iterate 3
    assert flagged.max_strict > rep.tol_strict
    assert flagged.max_main <= rep.tol_main


def test_update_closed_form_matches_differences(gd_setup):
    params, codebook, dataset, traj = gd_setup
    # the closed-form update at step t is (w_t - w_{t+1}) / eta
    for t in range(1, params.steps):
        want = (params.expected_iterate(t, dataset, codebook)
                - params.expected_iterate(t + 1, dataset, codebook)) / params.eta
        got = (traj.iterate(t) - traj.iterate(t + 1)) / params.eta
        assert np.abs(got - want).max() < 1e-12
    # the last iterate has no update: w_{T+1} has no closed form
    with pytest.raises(InvalidClosedForm):
        params.expected_iterate(params.steps + 1, dataset, codebook)


def test_norm_bound_checker(gd_setup):
    *_, traj = gd_setup
    rep = check_norm_bound(traj)
    assert rep.ok and rep.max_norm < 1.0
    big = Trajectory(iterates=np.full((2, 4), 0.9))
    rep = check_norm_bound(big)
    assert not rep.ok and rep.max_norm >= 1.0


def test_gd_margins_applicability_window(gd_setup):
    params, codebook, dataset, traj = gd_setup
    rep = check_margins(traj, params, dataset, codebook)
    assert rep.ok
    by_step = {s.step: s for s in rep.steps}
    assert not by_step[2].applicable and not by_step[3].applicable
    assert all(by_step[t].applicable for t in range(4, params.steps + 1))
    for t in range(4, params.steps + 1):
        assert by_step[t].gap_second > by_step[t].threshold


def test_event_probability_is_reproducible():
    p = GdParams(2, 4, 8, dprime=8)
    a = check_event_probability_gd(p, 300, seed=5)
    b = check_event_probability_gd(p, 300, seed=5)
    assert a == b
    assert a.trials == 300
    assert 0.0 <= a.lower <= a.frequency <= a.upper <= 1.0


def test_loss_properties_pass_for_a_true_convex_function():
    rep = check_loss_properties(
        lambda w: float(np.abs(w).max()),
        None,
        lambda rng: rng.normal(size=4),
        1.0, trials=300, seed=0,
    )
    assert rep.ok and rep.convexity_violation <= rep.slack


def test_loss_properties_flag_nonconvexity():
    rep = check_loss_properties(
        lambda w: -float(w @ w),
        None,
        lambda rng: rng.normal(size=3),
        100.0, trials=300, seed=0,
    )
    assert not rep.ok and rep.convexity_violation > rep.slack


def test_loss_properties_flag_a_wrong_lipschitz_bound():
    rep = check_loss_properties(
        lambda w: 3.0 * float(w[0]),
        None,
        lambda rng: rng.normal(size=2),
        1.0, trials=300, seed=0,
    )
    assert not rep.ok and rep.lipschitz_violation > rep.slack


def test_loss_properties_flag_a_wrong_gradient():
    rep = check_loss_properties(
        lambda w: float(np.abs(w[0])),
        lambda w: np.array([-np.sign(w[0]) or 1.0, 0.0]),  # wrong sign
        lambda rng: rng.normal(size=2),
        1.0, trials=300, seed=0,
    )
    assert not rep.ok and rep.subgradient_violation > rep.slack


def test_smallstep_margin_checker_flags_a_shrunken_lead():
    p = SmallstepParams(eta=0.1, steps=10)
    traj = run_smallstep(p)
    assert check_margins(traj, p).ok
    # At iterate 6 the leader beats the runner-up (coordinate 7) by one tilt
    # increment, eta/(4 dim).  A small negative weight on the runner-up lifts
    # its value and eats most of that lead, dropping the gap below threshold.
    bad = traj.iterates.copy()
    bad[5, 6] = -p.eta / (6 * p.dim)
    rep = check_margins(Trajectory(iterates=bad), p)
    assert not rep.ok
    broken = [s for s in rep.steps if not s.ok]
    assert broken and broken[0].gap_second < broken[0].threshold


@pytest.mark.parametrize("check", [check_trajectory, check_margins])
@pytest.mark.parametrize("length", ["one", "horizon+1"])
@pytest.mark.parametrize("family", ["gd", "smallstep"])
def test_a_trajectory_of_another_length_than_the_horizon_is_refused(
        gd_setup, family, length, check):
    # one row would leave every closed-form step unchecked; an extra row
    # would be checked against no step of the construction
    if family == "gd":
        params, codebook, dataset, traj = gd_setup
    else:
        params, codebook, dataset = SmallstepParams(eta=0.1, steps=10), None, None
        traj = run_smallstep(params)
    rows = traj.iterates[:1] if length == "one" else np.vstack(
        [traj.iterates, traj.iterates[-1:]])
    with pytest.raises(OutOfRange, match=f"checkpoint holds {len(rows)} "
                       f"iterates; the configured instance has {params.horizon}"):
        check(Trajectory(iterates=rows), params, dataset, codebook)
