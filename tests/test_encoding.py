"""Circle-code encodings: geometry, roundtrips, and direction selection."""

import math

import numpy as np
import pytest

from gengap.encoding import (
    EncodingLayout,
    alpha_gd,
    alpha_sgd,
    block_codes,
    block_occupancy,
    circle_point,
    circle_points,
    decode_blocks,
    full_mask,
    lowest_member,
    margin_eps,
    mask_members,
    subset_count,
)
from gengap.errors import AmbiguousBlock, OutOfRange


def test_subset_count_and_full_mask():
    assert subset_count(3) == 8
    assert subset_count(10) == 1024
    assert full_mask(3) == 0b111
    assert full_mask(1) == 0b1


def test_mask_members_lists_one_based_bits():
    assert mask_members(0b101, 3) == [1, 3]
    assert mask_members(0, 5) == []
    assert mask_members(full_mask(4), 4) == [1, 2, 3, 4]


def test_circle_points_are_unit_and_distinct():
    n_directions = 5
    pts = np.array([circle_point(m, n_directions)
                    for m in range(subset_count(n_directions))])
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # all codepoints distinct: smallest pairwise distance is the designed one
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() > 0.0
    # adjacent codepoints realize the minimum distance
    step = float(np.linalg.norm(pts[0] - pts[1]))
    assert math.isclose(math.sqrt(d2.min()), step, rel_tol=1e-12)


def test_circle_point_zero_mask_is_deterministic_anchor():
    assert np.allclose(circle_point(0, 4), [0.0, 1.0])


def test_circle_points_keep_the_masks_shape_and_match_circle_point():
    masks = np.array([[0, 5, 31], [17, 1, 30]])
    sin, cos = circle_points(masks, 5)
    assert sin.shape == cos.shape == masks.shape
    for mask, s, c in zip(masks.flat, sin.flat, cos.flat):
        assert circle_point(int(mask), 5).tolist() == [s, c]
    with pytest.raises(OutOfRange):
        circle_point(-1, 5)
    with pytest.raises(OutOfRange):
        circle_point(32, 5)


def test_margin_eps_positive_and_shrinks_with_size():
    assert margin_eps(2, 4) > margin_eps(2, 6) > 0.0
    assert margin_eps(2, 4) > margin_eps(3, 4) > 0.0


def test_decode_blocks_roundtrips_scaled_codepoints():
    n_directions = 6
    mag = 0.05
    vec = np.zeros(8)
    vec[2:4] = mag * circle_point(17, n_directions)
    vec[6:8] = mag * circle_point(63, n_directions)
    assert decode_blocks(vec, n_directions, mag) == [(2, 17), (4, 63)]


def test_decode_blocks_skips_below_occupancy_threshold():
    n_directions = 4
    vec = np.zeros(4)
    vec[0:2] = 0.04 * circle_point(3, n_directions)  # below half of 0.1
    assert decode_blocks(vec, n_directions, 0.1) == []


def test_decode_blocks_flags_superposed_codepoints():
    n_directions = 4
    vec = np.zeros(2)
    vec[:] = 0.1 * (circle_point(1, n_directions) + circle_point(2, n_directions))
    with pytest.raises(AmbiguousBlock):
        decode_blocks(vec, n_directions, 0.1)


def test_block_occupancy_decides_as_hypot_alone():
    # at, and a few ulps either side of, both thresholds (where the squared
    # norm cannot decide), at random norms, and at NaN and infinity, along
    # the axes and at random angles; blocks of a 2-dim leading shape
    exp = 0.0731
    radii = [0.5 * exp, 1.5 * exp]
    for _ in range(3):
        radii += [np.nextafter(radii[-2], 0.0), np.nextafter(radii[-1], np.inf)]
        radii += [np.nextafter(radii[-4], np.inf), np.nextafter(radii[-3], 0.0)]
    rng = np.random.default_rng(6)
    radii = np.concatenate([radii, rng.uniform(0.0, 2.0 * exp, size=64),
                            [np.nan, np.inf]])
    angles = np.concatenate([[0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi],
                             rng.uniform(-np.pi, np.pi, size=12)])
    with np.errstate(invalid="ignore"):  # infinity times a zero sine
        x = radii[:, None] * np.sin(angles)
        y = radii[:, None] * np.cos(angles)
    norms = np.hypot(x, y)
    occupied, ambiguous = block_occupancy(x, y, exp)
    assert np.array_equal(occupied, norms > 0.5 * exp)
    assert np.array_equal(ambiguous, occupied & (np.abs(norms - exp) > 0.5 * exp))


def test_block_codes_round_each_angle_to_the_nearest_codepoint():
    # the rule decode_blocks applied one block at a time: round(atan2 /
    # 2pi * M) mod M, with math.atan2 and Python's half-even round
    n_directions = 7
    m = subset_count(n_directions)
    rng = np.random.default_rng(2)
    angles = np.concatenate([2.0 * np.pi * np.arange(m) / m,
                             rng.uniform(-np.pi, np.pi, size=200)])
    x, y = 0.3 * np.sin(angles), 0.3 * np.cos(angles)
    want = [round(math.atan2(a, b) / (2.0 * math.pi) * m) % m for a, b in zip(x, y)]
    assert block_codes(x, y, n_directions).tolist() == want
    assert block_codes(x, y, n_directions)[:m].tolist() == list(range(m))


def test_lowest_member_reads_ints_and_arrays_alike():
    masks = [0, 1, 0b100, 0b0110, 0b1000, full_mask(4)]
    want = [4, 1, 3, 2, 4, 1]
    assert [lowest_member(mask, 4) for mask in masks] == want
    assert lowest_member(np.int64(0b100), 4) == 3
    got = lowest_member(np.array(masks, dtype=np.int64).reshape(2, 3), 4)
    assert got.shape == (2, 3) and got.ravel().tolist() == want


def test_decode_blocks_names_the_first_ambiguous_block():
    vec = np.zeros(8)
    vec[2:4] = vec[6:8] = (0.0, 0.2)
    vec[4:6] = (0.0, 0.1)
    with pytest.raises(AmbiguousBlock, match=r"^block 2: norm 2\.000e-01 is not "
                       r"within 50% of the single-codepoint magnitude 1\.000e-01$"):
        decode_blocks(vec, 4, 0.1)


def test_alpha_gd_picks_lowest_uncovered_direction():
    assert alpha_gd([0b011, 0b001], 3) == 3
    assert alpha_gd([0b110], 3) == 1
    assert alpha_gd([0b0101, 0b0001], 4) == 2
    # full cover falls back to the top index so callers always get a vector
    assert alpha_gd([full_mask(3)], 3) == 3


def test_alpha_sgd_picks_lowest_common_direction():
    assert alpha_sgd([0b110, 0b100], 3) == 3
    assert alpha_sgd([0b111, 0b110, 0b010], 3) == 2
    # empty intersection falls back to the top index
    assert alpha_sgd([0b001, 0b100], 3) == 3


def test_layout_views_partition_the_vector():
    lay = EncodingLayout(encoding_dim=8, block_dim=3, n_blocks=4)
    assert lay.total_dim == 8 + 12
    w = np.arange(lay.total_dim, dtype=float)
    assert np.array_equal(lay.encoding(w), w[:8])
    assert np.array_equal(lay.block(w, 1), w[8:11])
    assert np.array_equal(lay.block(w, 4), w[17:20])
    # views write through
    lay.block(w, 2)[:] = -1.0
    assert np.array_equal(w[11:14], [-1.0, -1.0, -1.0])
    with pytest.raises(OutOfRange):
        lay.block(w, 0)
    with pytest.raises(OutOfRange):
        lay.block(w, 5)


def test_layout_views_work_batched():
    lay = EncodingLayout(encoding_dim=4, block_dim=2, n_blocks=2)
    w = np.zeros((3, lay.total_dim))
    assert lay.encoding(w).shape == (3, 4)
    assert lay.block(w, 2).shape == (3, 2)
