"""Optimizer loop, projection, trajectory container, and checkpoints."""

import math

import numpy as np
import pytest

from gengap.codebook import generate_codebook
from gengap.errors import OutOfRange
from gengap.instance_gd import GdParams, draw_gd_dataset
from gengap.instance_smallstep import SmallstepParams
from gengap.optim import (
    Trajectory,
    gradient_descent,
    load_trajectory,
    project_ball,
    run_gd,
    run_smallstep,
    save_trajectory,
    suffix_average,
)


def test_project_ball_is_identity_inside():
    w = np.array([0.3, -0.4])  # norm 0.5
    assert project_ball(w) is w or np.array_equal(project_ball(w), w)


def test_project_ball_normalizes_outside():
    w = np.array([3.0, 4.0])  # norm 5
    p = project_ball(w)
    assert math.isclose(np.linalg.norm(p), 1.0, rel_tol=1e-12)
    np.testing.assert_allclose(p, w / 5.0)


def test_gradient_descent_minimizes_a_quadratic():
    # grad of 0.5*||w - 1||^2; plain GD with small eta converges toward 1
    target = np.ones(3)
    traj = gradient_descent(lambda t, w: w - target, dim=3, steps=200, eta=0.1)
    assert np.abs(traj.iterate(200) - target).max() < 1e-6
    assert traj.steps == 200 and traj.dim == 3


def test_gradient_descent_starts_at_zero_and_records_every_iterate():
    traj = gradient_descent(lambda t, w: np.ones(2), dim=2, steps=4, eta=0.5)
    assert np.array_equal(traj.iterate(1), np.zeros(2))
    assert np.array_equal(traj.iterate(2), [-0.5, -0.5])
    assert np.array_equal(traj.iterate(4), [-1.5, -1.5])


def test_step_index_passed_to_grad_fn_is_one_based():
    seen = []

    def g(t, w):
        seen.append(t)
        return np.zeros(1)

    gradient_descent(g, dim=1, steps=4, eta=0.1)
    assert seen == [1, 2, 3]


def test_suffix_average_edges():
    traj = Trajectory(iterates=np.array([[0.0], [1.0], [2.0], [3.0]]))
    assert suffix_average(traj, 1) == traj.iterate(4)
    assert suffix_average(traj, 4).item() == 1.5
    assert suffix_average(traj, 2).item() == 2.5
    with pytest.raises(OutOfRange):
        suffix_average(traj, 0)
    with pytest.raises(OutOfRange):
        suffix_average(traj, 5)


def test_iterate_bounds_checked():
    traj = Trajectory(iterates=np.zeros((3, 2)))
    with pytest.raises(OutOfRange):
        traj.iterate(0)
    with pytest.raises(OutOfRange):
        traj.iterate(4)


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    p = SmallstepParams(eta=0.1, steps=10)
    traj = run_smallstep(p)
    base = tmp_path / "traj"
    save_trajectory(traj, base)
    back = load_trajectory(base)
    assert np.array_equal(back.iterates, traj.iterates)


def test_checkpoint_rejects_unknown_layout(tmp_path):
    base = tmp_path / "bad"
    (tmp_path / "bad.bin").write_bytes(b"\x00" * 16)
    (tmp_path / "bad.json").write_text('{"dtype": ">f4", "order": "C", "shape": [2, 2]}')
    with pytest.raises(OutOfRange):
        load_trajectory(base)


def test_projection_is_a_no_op_on_the_designed_runs():
    params = GdParams(2, 4, 8, dprime=8)
    codebook = generate_codebook(4, 8, seed=3)
    dataset = draw_gd_dataset(params, 11, policy="reject-until-E")[0]
    plain = run_gd(codebook, dataset, params)
    proj = run_gd(codebook, dataset, params, projected=True)
    assert np.array_equal(plain.iterates, proj.iterates)
