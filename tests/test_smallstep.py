"""Deterministic small-stepsize family: loss shape, exact dynamics, margins."""

import math

import numpy as np
import pytest

from gengap.errors import InvalidClosedForm, OutOfRange
from gengap.instance_smallstep import (
    SmallstepParams,
    expected_smallstep_iterate,
    grad_smallstep,
    loss_smallstep,
)
from gengap.optim import run_smallstep, suffix_average
from gengap.verify import check_margins, check_trajectory


def test_params_validation():
    with pytest.raises(OutOfRange):
        SmallstepParams(eta=-0.1, steps=10)
    with pytest.raises(OutOfRange):
        SmallstepParams(eta=0.1, steps=0)


def test_default_dimension_keeps_iterates_in_range():
    p = SmallstepParams(eta=0.02, steps=100)
    assert p.dim == 100
    # every coordinate the run can reach stays at most 1/(2*sqrt(d))
    assert p.eta <= 1.0 / (2.0 * math.sqrt(p.dim))


def test_loss_at_zero_is_first_coordinate_value():
    p = SmallstepParams(eta=0.1, steps=10)
    want = 1.0 / math.sqrt(p.dim) - p.tilts[0]
    assert math.isclose(loss_smallstep(np.zeros(p.dim), p), want, rel_tol=1e-12)


def test_loss_batched_matches_pointwise():
    p = SmallstepParams(eta=0.1, steps=10)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(7, p.dim)) * 0.05
    vals = loss_smallstep(batch, p)
    assert vals.shape == (7,)
    for row, val in zip(batch, vals):
        assert math.isclose(loss_smallstep(row, p), val, rel_tol=1e-15)


def test_gradient_is_negative_argmax_coordinate():
    p = SmallstepParams(eta=0.1, steps=10)
    w = np.zeros(p.dim)
    g = grad_smallstep(w, p)
    assert np.count_nonzero(g) == 1
    assert g[0] == -1.0  # smallest tilt wins at the origin


def test_round_robin_dynamics():
    p = SmallstepParams(eta=0.1, steps=10)
    traj = run_smallstep(p)
    for t in range(1, p.steps + 1):
        w = traj.iterate(t)
        # first t-1 coordinates stepped exactly once each
        assert np.array_equal(w[: t - 1], np.full(t - 1, p.eta))
        assert not w[t - 1:].any()
        assert np.array_equal(w, expected_smallstep_iterate(t, p))


def test_trajectory_checker_and_margins_pass():
    p = SmallstepParams(eta=0.02, steps=100)
    traj = run_smallstep(p)
    assert check_trajectory(traj, p, None, None).ok
    rep = check_margins(traj, p)
    assert rep.ok
    assert all(s.threshold == p.eta / (8 * p.dim) for s in rep.steps
               if s.applicable)


def test_suffix_value_is_constant_across_lengths():
    # the argmax coordinate of the final loss is never touched by the run,
    # so averaging any number of trailing iterates cannot change the value
    p = SmallstepParams(eta=0.02, steps=100)
    traj = run_smallstep(p)
    vals = {m: float(loss_smallstep(suffix_average(traj, m), p))
            for m in (1, 10, 100)}
    assert len(set(vals.values())) == 1
    assert vals[1] >= p.risk_threshold


def test_run_is_deterministic_and_projection_free():
    p = SmallstepParams(eta=0.1, steps=10)
    a = run_smallstep(p)
    b = run_smallstep(p, projected=True)
    assert np.array_equal(a.iterates, b.iterates)


def test_expected_iterate_guards():
    p = SmallstepParams(eta=0.1, steps=10)
    with pytest.raises(InvalidClosedForm):
        expected_smallstep_iterate(0, p)
    with pytest.raises(InvalidClosedForm):
        expected_smallstep_iterate(p.steps + 1, p)
    # an undersized explicit dimension wraps the round-robin
    tight = SmallstepParams(eta=0.1, steps=10, dim=4)
    with pytest.raises(InvalidClosedForm):
        expected_smallstep_iterate(8, tight)
