"""Ball-average smoothing: sampler geometry, estimator statistics, checks."""

import tracemalloc

import numpy as np
import pytest

from gengap import smoothing
from gengap.errors import DegenerateDraw, OutOfRange
from gengap.instance_smallstep import SmallstepParams, grad_smallstep, \
    loss_smallstep
from gengap.acceptance import _smooth_gd_setup, _smooth_sgd_setup
from gengap.smoothing import (
    BLOCK_ROWS,
    CHUNK,
    PreservationStep,
    SmoothingConfig,
    ball_sample,
    smoothed_grad,
    smoothed_grads,
    smoothed_value,
    smoothed_values,
    smoothed_value_checks,
    row_blocks,
    sphere_sample,
    verify_trajectory_preservation,
    z_scores,
)


def test_sphere_samples_have_unit_norm():
    rng = np.random.default_rng(0)
    pts = sphere_sample(7, rng, size=500)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-12)
    assert pts.shape == (500, 7)


class _ZeroNormals:
    """An rng whose standard normals are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_a_zero_norm_draw_raises_degenerate_draw():
    with pytest.raises(DegenerateDraw):
        sphere_sample(3, _ZeroNormals(), 4)
    with pytest.raises(DegenerateDraw):
        ball_sample(3, _ZeroNormals(), 4)


def test_ball_samples_stay_inside_and_fill_the_ball():
    rng = np.random.default_rng(1)
    pts = ball_sample(4, rng, size=4000)
    r = np.linalg.norm(pts, axis=-1)
    assert r.max() <= 1.0 + 1e-12
    # mean radius of a uniform ball draw is d/(d+1)
    assert abs(r.mean() - 4.0 / 5.0) < 0.01


def test_in_place_samplers_match_the_copying_forms():
    # sphere_sample takes its norms one row block at a time
    for size in (1, 1000, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                 CHUNK + 100):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((size, 6))
        sphere = x / np.linalg.norm(x, axis=1)[:, None]
        ball = sphere * (rng.random(size) ** (1.0 / 6))[:, None]
        assert np.array_equal(sphere_sample(6, np.random.default_rng(9), size),
                              sphere)
        assert np.array_equal(ball_sample(6, np.random.default_rng(9), size),
                              ball)


def test_row_blocks_are_the_parts_of_array_split():
    # 128 rows: the reference read-out's blocks (instance_gd._READ_ROWS)
    for rows in (128, BLOCK_ROWS):
        for count in (0, 1, 129, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                      3000, CHUNK, CHUNK + 100):
            items = np.arange(count)
            parts = np.array_split(items, max(1, -(-count // rows)))
            assert [items[s].tolist() for s in row_blocks(count, rows)] \
                == [part.tolist() for part in parts]
            assert max(s.stop - s.start for s in row_blocks(count, rows)) <= rows
    assert list(row_blocks(CHUNK + 100)) == list(row_blocks(CHUNK + 100,
                                                            BLOCK_ROWS))


def test_sphere_mean_is_near_zero():
    rng = np.random.default_rng(2)
    pts = sphere_sample(3, rng, size=20000)
    assert np.abs(pts.mean(axis=0)).max() < 0.02


def test_constant_loss_is_estimated_exactly():
    cfg = SmoothingConfig(0.2, 128, seed=0)

    def loss(w):
        w = np.asarray(w)
        return 3.25 if w.ndim == 1 else np.full(w.shape[0], 3.25)

    val, stderr = smoothed_value(loss, np.zeros(5), cfg)
    assert val == 3.25
    assert stderr == 0.0


def test_linear_loss_estimate_is_unbiased():
    a = np.array([1.0, -2.0, 0.5])
    w = np.array([0.3, 0.1, -0.2])
    cfg = SmoothingConfig(0.1, 4000, seed=0)
    val, stderr = smoothed_value(lambda v: v @ a, w, cfg)
    # the ball average of a linear function is its center value
    assert abs(val - w @ a) <= 3.0 * stderr
    assert stderr > 0.0


def test_quadratic_moment_matches_the_ball_average():
    # ball average of ||v||^2 at the origin is delta^2 * d/(d+2)
    d, delta = 6, 0.5
    cfg = SmoothingConfig(delta, 60000, seed=3)
    val, stderr = smoothed_value(lambda v: (v * v).sum(axis=-1), np.zeros(d),
                                 cfg)
    want = delta**2 * d / (d + 2)
    assert abs(val - want) <= 3.0 * stderr


def test_stderr_shrinks_like_root_n():
    a = np.array([2.0, 1.0])
    _, se1 = smoothed_value(lambda v: v @ a, np.zeros(2),
                            SmoothingConfig(0.3, 5000, seed=4))
    _, se2 = smoothed_value(lambda v: v @ a, np.zeros(2),
                            SmoothingConfig(0.3, 10000, seed=4))
    ratio = se2 / se1
    assert 0.6 < ratio < 0.82  # ~1/sqrt(2) with sampling noise


def test_smoothed_grad_recovers_a_linear_gradient():
    a = np.array([1.0, -2.0, 0.5, 3.0])
    cfg = SmoothingConfig(0.2, 20000, seed=5)
    est, stderr = smoothed_grad(lambda v: v @ a, np.zeros(4), cfg)
    assert est.shape == (4,) and stderr.shape == (4,)
    assert np.all(np.abs(est - a) <= 3.0 * stderr)


def test_smoothed_grad_needs_enough_samples():
    with pytest.raises(OutOfRange):
        smoothed_grad(lambda v: v.sum(axis=-1), np.zeros(2),
                      SmoothingConfig(0.1, 2, seed=0))


def test_a_point_must_be_a_vector():
    loss = lambda v: np.abs(v).sum(axis=-1)
    cfg = SmoothingConfig(0.1, 100)
    with pytest.raises(OutOfRange, match=r"vector \(d,\); got shape \(2, 3\)"):
        smoothed_value(loss, np.ones((2, 3)), cfg)
    with pytest.raises(OutOfRange, match=r"got shape \(\)"):
        smoothed_values([(loss, np.ones(1)), (loss, 1.0)], cfg)
    with pytest.raises(OutOfRange, match=r"got shape \(1, 3\)"):
        smoothed_grad(loss, np.ones((1, 3)), cfg)


def test_an_antithetic_gradient_needs_two_pairs():
    loss = lambda v: np.abs(v).sum(axis=-1)
    with pytest.raises(OutOfRange, match="at least 2 pairs; samples=3 gives 1"):
        smoothed_grad(loss, np.zeros(2), SmoothingConfig(0.1, 3))
    # four samples are two pairs
    est, stderr = smoothed_grad(loss, np.ones(2), SmoothingConfig(0.1, 4))
    assert est.shape == stderr.shape == (2,)


def test_estimates_are_reproducible_per_seed():
    loss = lambda v: np.abs(v).sum(axis=-1)
    cfg = SmoothingConfig(0.1, 1000, seed=7)
    # each call draws afresh: the held draw is dropped in between
    smoothing._held_draws.cache_clear()
    first = smoothed_value(loss, np.ones(3), cfg)
    smoothing._held_draws.cache_clear()
    assert smoothed_value(loss, np.ones(3), cfg) == first
    smoothing._held_draws.cache_clear()
    g1, s1 = smoothed_grad(loss, np.ones(3), cfg)
    smoothing._held_draws.cache_clear()
    g2, s2 = smoothed_grad(loss, np.ones(3), cfg)
    assert np.array_equal(g1, g2) and np.array_equal(s1, s2)


def _one_point_value(loss, w, cfg):
    # the one-point estimator before draws were shared between points
    seeds = np.random.SeedSequence(cfg.seed).spawn(-(-cfg.samples // CHUNK))
    base = float(loss(w))
    total = total_sq = 0.0
    done = 0
    for seed in seeds:
        b = min(CHUNK, cfg.samples - done)
        v = ball_sample(w.size, np.random.default_rng(seed), size=b)
        vals = np.asarray(loss(w[None, :] + cfg.delta * v)) - base
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    m = cfg.samples
    mean = total / m
    var = max(total_sq - m * mean * mean, 0.0) / (m - 1)
    return base + mean, float(np.sqrt(var / m))


def _one_point_grad(loss, w, cfg):
    count = cfg.samples // 2
    seeds = np.random.SeedSequence(cfg.seed).spawn(-(-count // CHUNK))
    scale = w.size / cfg.delta
    total = np.zeros(w.size)
    total_sq = np.zeros(w.size)
    done = 0
    for seed in seeds:
        b = min(CHUNK, count - done)
        a = sphere_sample(w.size, np.random.default_rng(seed), size=b)
        f_plus = loss(w[None, :] + cfg.delta * a)
        f_minus = loss(w[None, :] - cfg.delta * a)
        contrib = (0.5 * scale * (f_plus - f_minus))[:, None] * a
        total += contrib.sum(axis=0)
        total_sq += (contrib * contrib).sum(axis=0)
        done += b
    est = total / count
    var = np.maximum(total_sq - count * est * est, 0.0) / (count - 1)
    return est, np.sqrt(var / count)


@pytest.mark.parametrize("odd", [True, False])
def test_shared_draws_give_each_point_its_one_point_estimate(odd):
    # three points, each with its own loss, over two full chunks of pairs
    # and a partial third (with or without an odd trailing draw, which the
    # gradient drops and the value reads)
    rng = np.random.default_rng(8)
    points = [rng.normal(size=5) for _ in range(3)]
    losses = [lambda v: np.abs(v).sum(axis=-1),
              lambda v: np.maximum(0.0, v.max(axis=-1)),
              lambda v: (v * v).sum(axis=-1)]
    jobs = list(zip(losses, points))
    pairs = 2 * CHUNK + 100
    cfg = SmoothingConfig(0.1, 2 * pairs + odd, seed=3)
    for (loss, w), got in zip(jobs, smoothed_values(jobs, cfg)):
        assert got == _one_point_value(loss, w, cfg)
        assert got == smoothed_value(loss, w, cfg)
    for (loss, w), (est, stderr) in zip(jobs, smoothed_grads(jobs, cfg)):
        want_est, want_stderr = _one_point_grad(loss, w, cfg)
        assert np.array_equal(est, want_est)
        assert np.array_equal(stderr, want_stderr)


@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("pairs", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   CHUNK, 2 * CHUNK + 100])
@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("odd", [True, False])
def test_row_blocks_give_the_one_array_estimates(monkeypatch, odd, held,
                                                 pairs, dim):
    # _one_point_value and _one_point_grad evaluate each chunk in one
    # array; the estimators go one row block at a time (a chunk at dim 1)
    rng = np.random.default_rng(pairs)
    jobs = [(lambda v: np.abs(v).sum(axis=-1), rng.normal(size=dim)),
            (lambda v: np.maximum(0.0, v.max(axis=-1)), rng.normal(size=dim))]
    cfg = SmoothingConfig(0.1, 2 * pairs + odd, seed=5)
    smoothing._held_draws.cache_clear()
    if not held:
        monkeypatch.setattr(smoothing, "MAX_HELD_FLOATS", 0)
    values, grads = smoothed_values(jobs, cfg), smoothed_grads(jobs, cfg)
    assert smoothing._held_draws.cache_info().currsize == int(held)
    smoothing._held_draws.cache_clear()
    for (loss, w), value, (est, stderr) in zip(jobs, values, grads):
        assert value == _one_point_value(loss, w, cfg)
        want_est, want_stderr = _one_point_grad(loss, w, cfg)
        assert est.tobytes() == want_est.tobytes()
        assert stderr.tobytes() == want_stderr.tobytes()


def test_shared_draws_need_points_of_one_dimension():
    loss = lambda v: v.sum(axis=-1)
    cfg = SmoothingConfig(0.1, 100)
    with pytest.raises(OutOfRange):
        smoothed_values([(loss, np.zeros(2)), (loss, np.zeros(3))], cfg)
    with pytest.raises(OutOfRange):
        smoothed_grads([], cfg)


@pytest.mark.parametrize("family", ["gd", "sgd", "smallstep"])
def test_preservation_equals_a_per_step_smoothed_grad_loop(family):
    if family == "smallstep":
        params, codebook, dataset = SmallstepParams(eta=0.1, steps=10), None, None
    else:
        setup = _smooth_gd_setup if family == "gd" else _smooth_sgd_setup
        params, codebook, dataset = setup()[:3]
    mode = "reference" if family == "gd" else "oracle"
    cfg = SmoothingConfig(params.smoothing_delta, 2 * CHUNK + 10, seed=2)
    steps = (2, 3, 4)
    want = []
    for t in steps:
        w = params.expected_iterate(t, dataset, codebook)
        exact = params.step_grad(w, t, dataset, codebook, mode)
        loss = params.step_loss(t, dataset, codebook, mode)
        est, stderr = smoothed_grad(loss, w, cfg)
        diff = np.abs(est - exact)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigma = np.where(stderr > 0, diff / stderr,
                             np.where(diff > 0, np.inf, 0.0))
        want.append(PreservationStep(t, float(diff.max()), float(sigma.max()),
                                     bool((sigma <= 3.0).all())))
    rep = verify_trajectory_preservation(codebook, dataset, params, cfg,
                                         steps=steps, mode=mode)
    assert rep.steps == tuple(want)


def test_z_scores_read_zero_spread_coordinates_as_match_or_mismatch():
    est = np.array([1.0, 2.0, 2.0, 5.0])
    exact = np.array([1.0, 2.0, 3.0, 4.0])
    stderr = np.array([0.5, 0.0, 0.0, 0.25])
    # a matching zero-spread coordinate reads 0, a mismatching one inf
    assert z_scores(est, exact, stderr).tolist() == [0.0, 0.0, np.inf, 4.0]


def test_value_checks_bound_each_point_by_l_delta_plus_three_stderr():
    loss = lambda v: np.abs(v).sum(axis=-1)
    points = [np.ones(3), np.zeros(3)]
    jobs = [(loss, w) for w in points]
    cfg = SmoothingConfig(0.1, 3000, seed=4)
    checks = smoothed_value_checks(jobs, cfg, lipschitz=2.0)
    for w, (val, stderr), got in zip(points, smoothed_values(jobs, cfg), checks):
        assert got == (val, stderr, float(loss(w)), 2.0 * 0.1 + 3.0 * stderr)


def test_smallstep_value_agrees_below_the_designed_radius():
    p = SmallstepParams(eta=0.1, steps=10)
    cfg = SmoothingConfig(p.smoothing_delta, 4000, seed=0)
    w = np.zeros(p.dim)
    val, stderr = smoothed_value(lambda v: loss_smallstep(v, p), w, cfg)
    plain = loss_smallstep(w, p)
    assert abs(val - plain) <= 1.0 * cfg.delta + 3.0 * stderr


def test_preservation_check_passes_at_the_designed_radius():
    p = SmallstepParams(eta=0.1, steps=10)
    cfg = SmoothingConfig(p.smoothing_delta, 20000, seed=1)
    rep = verify_trajectory_preservation(None, None, p, cfg, steps=(1, 2, 3))
    assert rep.ok
    assert [s.step for s in rep.steps] == [1, 2, 3]


def test_preservation_check_detects_an_oversized_radius():
    p = SmallstepParams(eta=0.1, steps=10)
    w = np.zeros(p.dim)
    big = SmoothingConfig(0.3, 20000, seed=0)
    est, stderr = smoothed_grad(lambda v: loss_smallstep(v, p), w, big)
    exact = grad_smallstep(w, p)
    sigma = np.abs(est - exact) / np.where(stderr > 0, stderr, np.inf)
    assert sigma.max() > 3.0


def _counting_spheres(monkeypatch):
    """The row counts of every sphere_sample call, as a list that fills
    while the test runs; the held draw is dropped first."""
    smoothing._held_draws.cache_clear()
    calls = []
    draw = smoothing.sphere_sample

    def counted(dim, rng, size=None):
        calls.append(size)
        return draw(dim, rng, size)
    monkeypatch.setattr(smoothing, "sphere_sample", counted)
    return calls


def test_a_value_sweep_and_a_gradient_draw_the_sphere_once(monkeypatch):
    calls = _counting_spheres(monkeypatch)
    loss = lambda v: np.abs(v).sum(axis=-1)
    cfg = SmoothingConfig(0.1, CHUNK + 7, seed=4)
    for i in range(10):
        smoothed_value(loss, np.full(6, 0.1 * i), cfg)
    # antithetic: 2 * (CHUNK + 7) samples are CHUNK + 7 pairs
    smoothed_grad(loss, np.ones(6), SmoothingConfig(0.1, 2 * (CHUNK + 7), seed=4))
    assert calls == [CHUNK, 7]


def test_a_seedless_config_draws_fresh_entropy_per_call(monkeypatch):
    calls = _counting_spheres(monkeypatch)
    loss = lambda v: np.abs(v).sum(axis=-1)
    cfg = SmoothingConfig(0.1, 100, seed=None)
    assert smoothed_value(loss, np.ones(3), cfg) \
        != smoothed_value(loss, np.ones(3), cfg)
    assert len(calls) == 2
    assert smoothing._held_draws.cache_info().currsize == 0


@pytest.mark.parametrize("odd", [True, False])
def test_held_and_streamed_draws_give_the_same_estimates(monkeypatch, odd):
    # two full chunks of pairs and a partial third (with or without an odd
    # trailing draw)
    rng = np.random.default_rng(11)
    points = [rng.normal(size=5) for _ in range(2)]
    jobs = [(lambda v: np.abs(v).sum(axis=-1), points[0]),
            (lambda v: np.maximum(0.0, v.max(axis=-1)), points[1])]
    pairs = 2 * CHUNK + 100
    cfg = SmoothingConfig(0.1, 2 * pairs + odd, seed=6)

    def estimates():
        return (smoothed_values(jobs, cfg),
                [[a.tobytes() for a in est] for est in smoothed_grads(jobs, cfg)])

    smoothing._held_draws.cache_clear()
    held = estimates()
    assert smoothing._held_draws.cache_info().currsize == 1
    smoothing._held_draws.cache_clear()
    monkeypatch.setattr(smoothing, "MAX_HELD_FLOATS", 0)
    assert estimates() == held
    assert smoothing._held_draws.cache_info().currsize == 0


def test_held_draws_are_read_only():
    smoothing._held_draws.cache_clear()
    chunks = smoothing._held_draws(4, 2, CHUNK + 3)
    assert [(u.shape, r.shape) for u, r in chunks] \
        == [((CHUNK, 4), (CHUNK,)), ((3, 4), (3,))]
    for array in (a for chunk in chunks for a in chunk):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    # a ball chunk is the held directions times the held radii, bitwise
    u, r = chunks[1]
    rng = np.random.default_rng(np.random.SeedSequence(2).spawn(2)[1])
    assert np.array_equal(ball_sample(4, rng, size=3), u * r[:, None])


def test_a_new_key_frees_the_held_draw_before_drawing():
    smoothing._held_draws.cache_clear()
    tracemalloc.start()
    try:
        smoothing._held_draws(64, 1, 2 * CHUNK)
        old = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        smoothing._held_draws(64, 2, 2 * CHUNK)
        new, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert smoothing._held_draws.cache_info() == (2, 1)
    smoothing._held_draws.cache_clear()
    # holding both entries at once would peak above old + new
    assert peak < old + new


def test_holding_the_draw_adds_nothing_to_the_sweep_peak(monkeypatch):
    # the pinned one-pass smoothing sweep at one chunk: ten values and
    # preservation at steps 2-6, which share one held draw
    params, codebook, dataset, loss, points, _ = _smooth_sgd_setup()
    value_cfg = SmoothingConfig(params.smoothing_delta, CHUNK, seed=0)
    grad_cfg = SmoothingConfig(params.smoothing_delta, 2 * CHUNK, seed=0)

    def sweep_peak():
        smoothing._held_draws.cache_clear()
        tracemalloc.start()
        try:
            for w in points:
                smoothed_value(loss, w, value_cfg)
            verify_trajectory_preservation(codebook, dataset, params,
                                           grad_cfg, steps=range(2, 7))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            smoothing._held_draws.cache_clear()

    sweep_peak()  # builds the loss's cached tables, which neither run below pays
    monkeypatch.setattr(smoothing, "MAX_HELD_FLOATS", 0)
    streamed = sweep_peak()
    monkeypatch.undo()
    held = sweep_peak()
    assert held <= streamed


def test_the_sweep_peaks_below_one_and_a_half_held_draws():
    # the pinned one-pass smoothing sweep at one chunk: ten values and
    # preservation at steps 2-6 on one held (CHUNK, 168) draw; a (CHUNK, d)
    # temporary beside it would take the peak to twice the draw
    params, codebook, dataset, loss, points, _ = _smooth_sgd_setup()
    value_cfg = SmoothingConfig(params.smoothing_delta, CHUNK, seed=0)
    grad_cfg = SmoothingConfig(params.smoothing_delta, 2 * CHUNK, seed=0)

    def sweep():
        for w in points:
            smoothed_value(loss, w, value_cfg)
        verify_trajectory_preservation(codebook, dataset, params, grad_cfg,
                                       steps=range(2, 7))

    sweep()  # builds the loss's cached tables
    smoothing._held_draws.cache_clear()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draw = smoothing._held_draws(params.dim, 0, CHUNK)
    smoothing._held_draws.cache_clear()
    held_bytes = sum(array.nbytes for chunk in draw for array in chunk)
    assert held_bytes > CHUNK * params.dim * 8
    assert peak <= 1.5 * held_bytes
