"""Randomized invariants: geometry, projection, convexity, Lipschitz bounds.

Hypothesis explores the input space of the helpers the rest of the suite
checks pointwise: codepoints stay on the unit circle, block decoding inverts
encoding, ball projection is a contraction, the constructed losses are convex
and Lipschitz along arbitrary segments, and the averaging/interval utilities
agree with their direct definitions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gengap.codebook import generate_codebook
from gengap.encoding import (
    alpha_gd,
    alpha_sgd,
    circle_points,
    decode_blocks,
)
from gengap.instance_gd import GdParams, loss_gd
from gengap.instance_sgd import SgdParams, loss_sgd
from gengap.instance_smallstep import SmallstepParams, loss_smallstep
from gengap.optim import Trajectory, project_ball, suffix_average
from gengap.verify import wilson_interval

# Shared tiny problem sizes: big enough to exercise every code path, small
# enough that the exhaustive reference losses stay affordable per example.
_GD = GdParams(2, 4, 8, dprime=8)
_GD_CODEBOOK = generate_codebook(4, 8, seed=3)
_SGD = SgdParams(3, 3, dprime=8)
_SGD_CODEBOOK = generate_codebook(3, 8, seed=9)
_SMALL = SmallstepParams(eta=0.05, steps=20)


@st.composite
def mask_with_directions(draw, max_directions=10):
    n_directions = draw(st.integers(min_value=1, max_value=max_directions))
    mask = draw(st.integers(min_value=0, max_value=2**n_directions - 1))
    return mask, n_directions


@st.composite
def mask_list_with_directions(draw, max_directions=8, min_size=0):
    n_directions = draw(st.integers(min_value=1, max_value=max_directions))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**n_directions - 1),
            min_size=min_size,
            max_size=6,
        )
    )
    return masks, n_directions


@st.composite
def block_encoding_case(draw, positions_per_group):
    n = draw(st.integers(min_value=2, max_value=4))
    n_directions = draw(st.integers(min_value=2, max_value=6))
    mask = draw(st.integers(min_value=0, max_value=2**n_directions - 1))
    position = draw(st.integers(min_value=1, max_value=positions_per_group(n)))
    return mask, position, n, n_directions


@st.composite
def point_pair(draw, max_dim=8):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    u = draw(st.lists(coord, min_size=dim, max_size=dim))
    v = draw(st.lists(coord, min_size=dim, max_size=dim))
    return np.asarray(u), np.asarray(v)


@given(mask_with_directions())
@settings(max_examples=500)
def test_codepoints_sit_on_the_unit_circle(case):
    mask, n_directions = case
    assert abs(np.hypot(*circle_points(mask, n_directions)) - 1.0) < 1e-12


@given(mask_with_directions(), st.integers(min_value=0, max_value=2**10 - 1))
@settings(max_examples=500)
def test_distinct_masks_get_distinct_codepoints(case, other):
    mask, n_directions = case
    other %= 2**n_directions
    if mask == other:
        return
    a = np.array(circle_points(mask, n_directions))
    b = np.array(circle_points(other, n_directions))
    assert np.linalg.norm(a - b) > 1e-9


@given(mask_list_with_directions())
@settings(max_examples=500)
def test_lowest_uncovered_direction(case):
    masks, n_directions = case
    r = alpha_gd(masks, n_directions)
    assert 1 <= r <= n_directions
    union = 0
    for mask in masks:
        union |= mask
    if union == 2**n_directions - 1:
        assert r == n_directions
    else:
        assert not union >> (r - 1) & 1
        assert all(union >> (k - 1) & 1 for k in range(1, r))


@given(mask_list_with_directions(min_size=1))
@settings(max_examples=500)
def test_lowest_common_direction(case):
    masks, n_directions = case
    r = alpha_sgd(masks, n_directions)
    assert 1 <= r <= n_directions
    common = 2**n_directions - 1
    for mask in masks:
        common &= mask
    if common == 0:
        assert r == n_directions
    else:
        assert common >> (r - 1) & 1
        assert not any(common >> (k - 1) & 1 for k in range(1, r))


@given(block_encoding_case(lambda n: n * n))
@settings(max_examples=300)
def test_slot_encoding_roundtrip(case):
    mask, slot, n, n_directions = case
    vec = np.zeros(2 * n * n)
    vec[2 * (slot - 1): 2 * slot] = circle_points(mask, n_directions)
    assert decode_blocks(vec, n_directions, 1.0) == [(slot, mask)]


@given(block_encoding_case(lambda n: n))
@settings(max_examples=300)
def test_position_encoding_roundtrip(case):
    mask, position, n, n_directions = case
    vec = np.zeros(2 * n)
    vec[2 * (position - 1): 2 * position] = circle_points(mask, n_directions)
    assert decode_blocks(vec, n_directions, 1.0) == [(position, mask)]


@given(point_pair())
@settings(max_examples=500)
def test_ball_projection_is_a_contraction(pair):
    u, v = pair
    pu, pv = project_ball(u), project_ball(v)
    assert np.linalg.norm(pu) <= 1 + 1e-12
    assert np.allclose(project_ball(pu), pu, atol=1e-12)
    # nonexpansive: projecting can only bring points closer together
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) * (1 + 1e-9) + 1e-9


@given(
    st.lists(st.floats(-2, 2), min_size=_SMALL.dim, max_size=_SMALL.dim),
    st.lists(st.floats(-2, 2), min_size=_SMALL.dim, max_size=_SMALL.dim),
)
@settings(max_examples=300)
def test_small_increment_loss_is_1_lipschitz(u, v):
    w1, w2 = np.asarray(u), np.asarray(v)
    gap = abs(loss_smallstep(w1, _SMALL) - loss_smallstep(w2, _SMALL))
    assert gap <= np.linalg.norm(w1 - w2) + 1e-12


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_masked_losses_are_convex_along_random_segments(seed, lam):
    rng = np.random.default_rng(seed)
    u = 0.5 * rng.normal(size=_GD.dim)
    v = 0.5 * rng.normal(size=_GD.dim)
    sample = (0b0101, 2)

    def f(w):
        return loss_gd(w, sample, _GD, _GD_CODEBOOK, mode="reference")

    chord = lam * f(u) + (1 - lam) * f(v)
    assert f(lam * u + (1 - lam) * v) <= chord + 1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_masked_losses_are_lipschitz_along_random_pairs(seed):
    rng = np.random.default_rng(seed)
    u = 0.5 * rng.normal(size=_GD.dim)
    v = 0.5 * rng.normal(size=_GD.dim)
    gap = abs(
        loss_gd(u, (0b0101, 2), _GD, _GD_CODEBOOK, mode="reference")
        - loss_gd(v, (0b0101, 2), _GD, _GD_CODEBOOK, mode="reference")
    )
    assert gap <= 5.0 * np.linalg.norm(u - v) + 1e-9

    us = 0.5 * rng.normal(size=_SGD.dim)
    vs = 0.5 * rng.normal(size=_SGD.dim)
    gap = abs(
        loss_sgd(us, 0b110, _SGD, _SGD_CODEBOOK, mode="reference")
        - loss_sgd(vs, 0b110, _SGD, _SGD_CODEBOOK, mode="reference")
    )
    assert gap <= 4.0 * np.linalg.norm(us - vs) + 1e-9


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300)
def test_window_average_matches_direct_mean(seed, steps, dim):
    rng = np.random.default_rng(seed)
    iterates = rng.normal(size=(steps, dim))
    m = 1 + seed % steps
    got = suffix_average(Trajectory(iterates=iterates), m)
    assert np.allclose(got, iterates[-m:].mean(axis=0), atol=1e-12)


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=500)
def test_frequency_interval_brackets_the_point_estimate(trials, successes):
    successes %= trials + 1
    lower, upper = wilson_interval(successes, trials)
    assert 0.0 <= lower <= upper <= 1.0
    # containment of the point estimate, up to roundoff at the extremes
    assert lower <= successes / trials + 1e-12
    assert upper >= successes / trials - 1e-12
