"""Full-batch hard instance: parameters, events, losses, reference parity."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from gengap import instance_gd
from gengap.acceptance import _GD_BIG, _GD_SMOOTH, _GD_TINY, _smooth_gd_setup
from gengap.codebook import Codebook, generate_codebook
from gengap.encoding import (
    alpha_gd,
    circle_point,
    decode_blocks,
    margin_eps,
    mask_members,
)
from gengap.errors import (
    AmbiguousBlock,
    AttemptsExhausted,
    EventViolated,
    InvalidClosedForm,
    OracleDomain,
    OutOfRange,
    ReferenceTooLarge,
)
from gengap.instance_gd import (
    GdDataset,
    GdParams,
    _READ_ROWS,
    _l3_gd,
    _reference_groups_gd,
    _sample_free_gd,
    draw_gd_dataset,
    empirical_risk,
    good_event_gd,
    grad_gd,
    grad_gd_batch,
    loss_gd,
    loss_gd_samples,
    theorem_step_size,
)
from gengap.instance_sgd import SgdDataset, SgdParams
from gengap.optim import run_gd, suffix_average
from gengap.smoothing import CHUNK, ball_sample, sphere_sample
from gengap.verify import expected_gd_iterate


def _hinge_term(w, mask, params, codebook):
    """Term 1 as one product of the step blocks with the mask's member
    directions: the L2 norm over blocks k >= 2 of max(floor, max over the
    members u of <u, w^(k)>)."""
    blocks = params.layout.step_blocks(w)  # (..., T, dprime)
    rows = [r - 1 for r in mask_members(mask, params.n_directions)]
    if rows:
        inner = (blocks @ codebook.vectors[rows].T).max(axis=-1)
    else:
        inner = np.full(blocks.shape[:-1], -np.inf)
    h = np.maximum(params.l1_floor, inner[..., 1:])  # blocks k = 2..T
    return np.sqrt((h * h).sum(axis=-1))


def _ratchet_candidates(w, params, codebook):
    """Term 4's candidates (3/8)<u, w^(k)> - (1/2)<u, w^(k+1)> from the
    point's own product, shape (N, T-1), direction-major."""
    proj = (params.layout.step_blocks(w) @ codebook.vectors.T).T  # (N, T)
    return 0.375 * proj[:, :-1] - 0.5 * proj[:, 1:]


def _reference_rows(params):
    """The reference read-out's candidates one row each: (Psi, alpha)."""
    psi, starts, alphas = _reference_groups_gd(params)
    return psi, np.repeat(alphas, np.diff(np.append(starts, len(psi))))


def _decode_row(w0, params):
    """The oracle decode of one encoding subspace, the per-row reference
    the stack decode is held to: (psi, alpha), the training set that
    decode_blocks reads, re-encoded slot by slot, and its uncovered
    direction; zeros and 1 for an empty subspace; OracleDomain for an
    ambiguous block or an occupied-slot count other than 0 or n."""
    try:
        pairs = decode_blocks(w0, params.n_directions, params.codepoint_magnitude)
    except AmbiguousBlock as exc:
        raise OracleDomain(f"encoding subspace not decodable: {exc}") from exc
    if not pairs:
        return np.zeros_like(w0), 1
    if len(pairs) != params.n:
        raise OracleDomain(
            f"decoded {len(pairs)} occupied slots, expected 0 or {params.n}")
    psi = np.zeros_like(w0)
    for slot, mask in pairs:
        psi[2 * (slot - 1): 2 * slot] = circle_point(mask, params.n_directions)
    return psi / params.n, alpha_gd([mask for _, mask in pairs], params.n_directions)


def _read_row(w, params, codebook):
    """Term 3's oracle read-out at one point before the floor, one vector
    product per piece: (read, psi, alpha)."""
    lay = params.layout
    w0, w1 = lay.encoding(w), lay.block(w, 1)
    psi, alpha = _decode_row(w0, params)
    read = float(w0 @ psi) - params.beta * float(codebook.vectors[alpha - 1] @ w1)
    return read, psi, alpha


def _four_term_loss(w, sample, params, codebook, mode):
    """One sample's loss as its four terms summed in order, each from its
    own products: the reference the loss kernel is held to."""
    mask, slot = sample
    slot_block = params.layout.encoding(w)[..., 2 * (slot - 1): 2 * slot]
    ratchet = _ratchet_candidates(w, params, codebook).max()
    return (_hinge_term(w, mask, params, codebook)
            - (slot_block @ circle_point(mask, params.n_directions))
            + _l3_gd(w[None], params, codebook, mode)[0][0]
            + np.maximum(params.delta2, ratchet))


def _four_term_grad(w, sample, params, codebook, mode):
    """One sample's subgradient with its four terms written in order 1 to 4
    into one vector: the per-sample form the full-batch step sums.  Each
    term's argmax is taken over its own candidates, ties going to the lowest
    direction, then the lowest block; the hinge reads the point's one
    projection, as the loss kernel does."""
    mask, slot = sample
    lay = params.layout
    g = np.zeros_like(w)
    proj = lay.step_blocks(w) @ codebook.vectors.T  # (T, N)
    rows = [r - 1 for r in mask_members(mask, params.n_directions)]
    if rows:
        inner = proj[:, rows].max(axis=1)
        h = np.maximum(params.l1_floor, inner[1:])
        norm = math.sqrt(float((h * h).sum()))
        for k in range(2, params.steps + 1):
            if inner[k - 1] > params.l1_floor:
                star = rows[int(np.argmax(proj[k - 1, rows]))]
                lay.block(g, k)[:] += (h[k - 2] / norm) * codebook.vectors[star]
    lay.encoding(g)[2 * (slot - 1): 2 * slot] -= circle_point(
        mask, params.n_directions)
    if mode == "reference":
        w0, w1 = lay.encoding(w), lay.block(w, 1)
        psi, alpha_idx = _reference_rows(params)
        u_alpha = codebook.vectors[alpha_idx - 1]
        vals = psi @ w0 - params.beta * (u_alpha @ w1)
        best = int(np.argmax(vals))
        read, psi_star, u_read = vals[best], psi[best], u_alpha[best]
    else:
        read, psi_star, alpha_idx = _read_row(w, params, codebook)
        u_read = codebook.vectors[alpha_idx - 1]
    if read > params.delta1:
        lay.encoding(g)[:] += psi_star
        lay.block(g, 1)[:] -= params.beta * u_read
    cands = _ratchet_candidates(w, params, codebook)
    u_star, k_star = divmod(int(np.argmax(cands)), params.steps - 1)
    if cands[u_star, k_star] > params.delta2:
        lay.block(g, k_star + 1)[:] += 0.375 * codebook.vectors[u_star]
        lay.block(g, k_star + 2)[:] -= 0.5 * codebook.vectors[u_star]
    return g


def _per_sample_step(w, dataset, params, codebook, mode):
    """The full-batch step as the dataset-order sum of _four_term_grad."""
    total = np.zeros(params.dim)
    for sample in zip(dataset.masks, dataset.slots):
        total += _four_term_grad(w, sample, params, codebook, mode)
    return total / dataset.n


@pytest.fixture(scope="module")
def small():
    params = GdParams(2, 4, 8, dprime=8)
    codebook = generate_codebook(4, 8, seed=3)
    dataset = draw_gd_dataset(params, 11, policy="reject-until-E")[0]
    return params, codebook, dataset


def test_dimension_and_derived_constants():
    p = GdParams(2, 4, 8, dprime=8)
    assert p.dim == 2 * 4 + 8 * 8
    assert p.eta == theorem_step_size(8)
    assert p.eps == margin_eps(2, 4)
    assert math.isclose(p.beta, p.eps / (4 * 8 * 8), rel_tol=1e-12)
    assert math.isclose(p.delta1, p.eta / (2 * 2), rel_tol=1e-12)
    assert math.isclose(p.delta2, 3 * p.eta * p.beta / 16, rel_tol=1e-12)
    assert math.isclose(p.smoothing_delta, p.eta * p.beta / 32, rel_tol=1e-12)
    assert math.isclose(p.l1_floor, 3 * p.eta / 32, rel_tol=1e-12)
    assert math.isclose(p.codepoint_magnitude, p.eta / 2, rel_tol=1e-12)


def test_oversized_step_size_warns():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        GdParams(2, 4, 8, eta=0.2, dprime=8)
    assert any("eta" in str(w.message) for w in rec)


def test_sampling_is_deterministic_and_well_formed():
    p = GdParams(2, 4, 8, dprime=8)
    a = draw_gd_dataset(p, 7)[0]
    b = draw_gd_dataset(p, 7)[0]
    assert a.masks == b.masks and a.slots == b.slots
    assert len(a.masks) == p.n
    assert all(0 <= m < 16 for m in a.masks)
    assert all(1 <= s <= p.n * p.n for s in a.slots)


def test_rejection_sampling_lands_on_the_event():
    p = GdParams(2, 4, 8, dprime=8)
    for seed in range(5):
        ds = draw_gd_dataset(p, seed, policy="reject-until-E")[0]
        assert good_event_gd(ds, p)
    with pytest.raises(OutOfRange):
        draw_gd_dataset(p, 0, policy="nonsense")[0]


def test_good_event_reports_the_violated_clause():
    p = GdParams(2, 4, 8, dprime=8)
    covered = GdDataset(masks=(0b1100, 0b0011), slots=(1, 2))
    rep = good_event_gd(covered, p)
    assert not rep and "direction" in rep.reason
    dup = GdDataset(masks=(0b0001, 0b0010), slots=(3, 3))
    rep = good_event_gd(dup, p)
    assert not rep and "slot" in rep.reason
    ok = GdDataset(masks=(0b0001, 0b0010), slots=(1, 2))
    assert good_event_gd(ok, p)


def test_loss_at_zero_is_the_sum_of_floors(small):
    params, codebook, dataset = small
    want = (params.l1_floor * math.sqrt(params.steps - 1)
            + params.delta1 + params.delta2)
    for sample in zip(dataset.masks, dataset.slots):
        got = loss_gd(np.zeros(params.dim), sample, params, codebook)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_loss_batched_matches_pointwise(small):
    params, codebook, dataset = small
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(6, params.dim)) * 0.01
    sample = (dataset.masks[0], dataset.slots[0])
    vals = loss_gd(batch, sample, params, codebook)
    assert vals.shape == (6,)
    for row, val in zip(batch, vals):
        assert math.isclose(loss_gd(row, sample, params, codebook), val,
                            rel_tol=1e-14)


def test_loss_many_samples_matches_singles(small):
    params, codebook, dataset = small
    rng = np.random.default_rng(2)
    w = rng.normal(size=params.dim) * 0.01
    masks = np.array([0, 3, 9, 15])
    slots = np.array([1, 2, 3, 4])
    vals = loss_gd_samples(w, masks, slots, params, codebook)
    for mk, sl, val in zip(masks, slots, vals):
        assert math.isclose(loss_gd(w, (int(mk), int(sl)), params, codebook),
                            val, rel_tol=1e-12)


def test_grouped_reference_readout_equals_the_ungrouped_max():
    # the grouped form takes narrower matrix products than this one, so a
    # BLAS that rounded them differently would show up here
    params, codebook, _, _, points, _ = _smooth_gd_setup()
    psi, alpha_idx = _reference_rows(params)
    u_alpha = codebook.vectors[alpha_idx - 1]
    rng = np.random.default_rng(5)
    lay = params.layout
    for point in points:
        batch = point + params.smoothing_delta * ball_sample(params.dim, rng,
                                                             size=CHUNK)
        vals = lay.encoding(batch) @ psi.T
        vals -= params.beta * (lay.block(batch, 1) @ u_alpha.T)
        want = np.maximum(params.delta1, vals.max(axis=-1))
        got, psi_star, alpha = _l3_gd(batch, params, codebook, "reference")
        assert np.array_equal(got, want)
        # the witness is a candidate that attains the read-out
        for p in range(0, len(batch), 512):
            [row] = np.flatnonzero((psi == psi_star[p]).all(axis=-1))
            assert alpha_idx[row] == alpha[p]
            assert np.maximum(params.delta1, vals[p, row]) == got[p]


def test_blocked_reference_readout_equals_one_product():
    # the read-out as one (B, |Psi|) product, before it was blocked by rows
    params, codebook, _, _, points, _ = _smooth_gd_setup()
    psi, starts, alphas = _reference_groups_gd(params)
    lay = params.layout

    def unblocked(w):
        reads = np.maximum.reduceat(lay.encoding(w) @ psi.T, starts, axis=-1)
        moves = params.beta * (lay.block(w, 1) @ codebook.vectors[alphas - 1].T)
        return np.maximum(params.delta1, (reads - moves).max(axis=-1))

    rng = np.random.default_rng(6)
    for rows in (1, _READ_ROWS - 1, _READ_ROWS, _READ_ROWS + 1, CHUNK - 1):
        batch = points[-1] + params.smoothing_delta * ball_sample(
            params.dim, rng, size=rows)
        got = _l3_gd(batch, params, codebook, "reference")[0]
        assert got.shape == (rows,)
        assert np.array_equal(got, unblocked(batch))
        # the training risk reduces the stack in row blocks of its own
        assert np.array_equal(
            loss_gd(batch, (3, 2), params, codebook, mode="reference"),
            loss_gd_samples(batch, [3], [2], params, codebook, mode="reference")[:, 0])


@pytest.mark.parametrize("mode", ["oracle", "reference"])
def test_empirical_loss_equals_the_per_sample_sum(small, mode):
    # the training risk is numpy's mean of the one-sample losses, bitwise
    params, codebook, dataset = small
    traj = run_gd(codebook, dataset, params)
    rng = np.random.default_rng(3)
    batch = traj.iterate(5) + 1e-6 * rng.normal(size=(16, params.dim))
    for w in [traj.iterate(t) for t in range(1, params.steps + 1)] + [batch]:
        want = np.mean([loss_gd(w, sample, params, codebook, mode=mode)
                        for sample in zip(dataset.masks, dataset.slots)], axis=0)
        got = empirical_risk(w, dataset, params, codebook, mode=mode)
        assert np.array_equal(got, want)
        assert np.array_equal(params.step_loss(1, dataset, codebook, mode)(w), got)


# the headline instance is far beyond the reference budget: oracle only
@pytest.mark.parametrize("pinned, mode", [
    (_GD_TINY, "oracle"), (_GD_TINY, "reference"), (_GD_SMOOTH, "oracle"),
    (_GD_SMOOTH, "reference"), (_GD_BIG, "oracle")],
    ids=["tiny-oracle", "tiny-reference", "smoothing-oracle",
         "smoothing-reference", "headline-oracle"])
def test_kernel_losses_are_within_four_spacings_of_the_four_terms(pinned, mode):
    params, codebook, dataset = pinned.build()
    traj = run_gd(codebook, dataset, params)
    rng = np.random.default_rng(7)
    points = [traj.iterate(t) for t in range(1, params.steps + 1)]
    points += [suffix_average(traj, m) for m in (2, 3)]
    points += list(points[-1] + params.smoothing_delta * ball_sample(
        params.dim, rng, size=20))
    masks = np.concatenate([dataset.masks, rng.integers(
        0, 2 ** params.n_directions, size=12)])
    slots = np.concatenate([dataset.slots, rng.integers(
        1, params.n * params.n + 1, size=12)])
    got = loss_gd_samples(np.array(points), masks, slots, params, codebook,
                          mode=mode)
    want = np.array([[_four_term_loss(w, (int(m), int(s)), params, codebook, mode)
                      for m, s in zip(masks, slots)] for w in points])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_gradient_is_a_subgradient_and_bounded(small):
    params, codebook, dataset = small
    rng = np.random.default_rng(3)
    sample = (dataset.masks[1], dataset.slots[1])
    # random points are rarely decodable, so probe with the reference mode
    for _ in range(20):
        x = rng.normal(size=params.dim) * 0.02
        y = rng.normal(size=params.dim) * 0.02
        g = grad_gd(x, sample, params, codebook, mode="reference")
        assert np.linalg.norm(g) <= 5.0 + 1e-12
        fx = loss_gd(x, sample, params, codebook, mode="reference")
        fy = loss_gd(y, sample, params, codebook, mode="reference")
        assert fx + g @ (y - x) <= fy + 1e-10


def test_batch_gradient_is_the_sample_mean(small):
    params, codebook, dataset = small
    rng = np.random.default_rng(4)
    w = rng.normal(size=params.dim) * 0.01
    total = np.zeros(params.dim)
    for sample in zip(dataset.masks, dataset.slots):
        total += grad_gd(w, sample, params, codebook, mode="reference")
    got = grad_gd_batch(w, dataset, params, codebook, mode="reference")
    np.testing.assert_allclose(got, total / dataset.n, atol=1e-15)


def test_oracle_step_is_the_per_sample_sum_on_the_headline_run():
    params, codebook, dataset = _GD_BIG.build()
    traj = run_gd(codebook, dataset, params)
    for t in range(1, params.steps + 1):
        w = traj.iterate(t)
        want = _per_sample_step(w, dataset, params, codebook, "oracle")
        got = grad_gd_batch(w, dataset, params, codebook)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pinned", [_GD_TINY, _GD_SMOOTH], ids=["tiny", "smoothing"])
def test_reference_step_is_the_per_sample_sum_at_random_points(pinned):
    params, codebook, dataset = pinned.build()
    rng = np.random.default_rng(8)
    for scale in (0.002, 0.02, 0.2):
        for _ in range(10):
            w = rng.normal(size=params.dim) * scale
            want = _per_sample_step(w, dataset, params, codebook, "reference")
            got = grad_gd_batch(w, dataset, params, codebook, mode="reference")
            assert got.tobytes() == want.tobytes()
            sample = (dataset.masks[0], dataset.slots[0])
            one = grad_gd(w, sample, params, codebook, mode="reference")
            assert np.array_equal(
                one, _four_term_grad(w, sample, params, codebook, "reference"))


def test_the_step_reads_out_and_ratchets_once(small, monkeypatch):
    # one build of the loss kernel's sample-free parts serves every sample
    params, codebook, dataset = small
    w = run_gd(codebook, dataset, params).iterate(5)
    calls = []
    for name in ("_decoded_training_sets", "_sample_free_gd"):
        def counted(*args, _name=name, _fn=getattr(instance_gd, name)):
            calls.append((_name, len(args[0])))
            return _fn(*args)
        monkeypatch.setattr(instance_gd, name, counted)
    grad_gd_batch(w, dataset, params, codebook)
    assert dataset.n > 1
    assert sorted(calls) == [("_decoded_training_sets", 1), ("_sample_free_gd", 1)]


def _stack_matches_rows(points, params, codebook):
    """Whether every point of the stack decodes: then _l3_gd's oracle
    read-out of the stack equals _read_row of each point bitwise (read,
    psi and alpha); otherwise the stack raises the first undecodable
    point's message."""
    rows = []
    for w in points:
        try:
            rows.append(_read_row(w, params, codebook))
        except OracleDomain as exc:
            with pytest.raises(OracleDomain) as got:
                _l3_gd(points, params, codebook, "oracle")
            assert str(got.value) == str(exc)
            return False
    read, psi, alpha = _l3_gd(points, params, codebook, "oracle")
    assert read.tobytes() == np.maximum(params.delta1, [r[0] for r in rows]).tobytes()
    assert psi.tobytes() == np.array([r[1] for r in rows]).tobytes()
    assert alpha.tolist() == [r[2] for r in rows]
    return True


_ORACLE_PINNED = pytest.mark.parametrize(
    "pinned", [_GD_TINY, _GD_SMOOTH, _GD_BIG], ids=["tiny", "smoothing", "headline"])


@_ORACLE_PINNED
def test_the_stack_decode_is_the_per_row_decode_on_trajectories_and_ball_draws(pinned):
    params, codebook, dataset = pinned.build()
    traj = run_gd(codebook, dataset, params)
    assert _stack_matches_rows(traj.iterates, params, codebook)
    rng = np.random.default_rng(4)
    draws = np.concatenate([
        traj.iterate(t) + params.smoothing_delta * ball_sample(params.dim, rng, size=16)
        for t in range(2, params.steps + 1)])
    assert _stack_matches_rows(draws, params, codebook)


@_ORACLE_PINNED
def test_the_stack_decode_is_the_per_row_decode_one_ulp_from_the_thresholds(pinned):
    # one slot block at a time is set one ulp either side of the occupancy
    # threshold (half the codepoint magnitude) or the ambiguity threshold
    # (one and a half), along an axis, where hypot is exact, or at a code
    params, codebook, dataset = pinned.build()
    w = run_gd(codebook, dataset, params).iterate(3)
    mag, lay = params.codepoint_magnitude, params.layout
    units = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), circle_point(5, params.n_directions)]
    rows = []
    for slot in range(1, params.n * params.n + 1):
        for scale, toward, unit in itertools.product((0.5, 1.5), (0.0, np.inf), units):
            row = w.copy()
            lay.encoding(row)[2 * (slot - 1): 2 * slot] = np.nextafter(
                scale * mag, toward) * np.asarray(unit)
            rows.append(row)
    decodable = [row for row in rows if _stack_matches_rows(row[None], params, codebook)]
    assert 0 < len(decodable) < len(rows)
    assert _stack_matches_rows(np.array(decodable), params, codebook)
    assert not _stack_matches_rows(np.array(rows), params, codebook)


@pytest.mark.parametrize("pinned", [_GD_SMOOTH, _GD_BIG], ids=["smoothing", "headline"])
def test_the_stack_decode_is_the_per_row_decode_at_random_points(pinned):
    # off the trajectory: every row holds 0 or n slot blocks at random
    # norms inside (0.5, 1.5) codepoint magnitudes and random angles, the
    # other slot blocks below half of it, and random step blocks
    params, codebook = pinned.build()[:2]
    rng = np.random.default_rng(12)
    mag, n, lay = params.codepoint_magnitude, params.n, params.layout
    points = rng.normal(scale=0.1, size=(256, params.dim))
    for row in points:
        radii = rng.uniform(0.0, 0.49, size=n * n)
        radii[rng.choice(n * n, size=n * rng.integers(2), replace=False)] += 0.51
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n * n)
        blocks = np.stack([np.sin(angles), np.cos(angles)], axis=-1)
        lay.encoding(row)[:] = (mag * radii[:, None] * blocks).ravel()
    assert _stack_matches_rows(points, params, codebook)
    # and with random encoding subspaces, which rarely decode
    assert not _stack_matches_rows(rng.normal(scale=mag, size=(64, params.dim)),
                                   params, codebook)


@pytest.mark.parametrize("size", [1, 2, 127, 128, 129, 1024])
def test_oracle_training_risk_of_a_stack_is_each_rows_one_point_value(size):
    # in oracle mode every row of a stack reads as it would alone, across
    # the reference read-out's block edges (_READ_ROWS) and a smoothing row
    # block; the reference read-out does not promise this, since BLAS
    # rounds its matrix products by the stack's shape
    params, codebook, dataset = _GD_SMOOTH.build()
    traj = run_gd(codebook, dataset, params)
    rng = np.random.default_rng(size)
    steps = rng.integers(2, params.steps + 1, size=size)
    points = traj.iterates[steps - 1] + params.smoothing_delta * ball_sample(
        params.dim, rng, size=size)
    stack = empirical_risk(points, dataset, params, codebook, mode="oracle")
    rows = [empirical_risk(w, dataset, params, codebook, mode="oracle")
            for w in points]
    assert stack.tobytes() == np.array(rows).tobytes()


def test_a_stack_raises_its_first_undecodable_rows_message(small):
    params, codebook, dataset = small
    w = run_gd(codebook, dataset, params).iterate(3)
    mag, n, lay = params.codepoint_magnitude, params.n, params.layout

    def with_block(slot, block):
        row = w.copy()
        lay.encoding(row)[2 * (slot - 1): 2 * slot] = block
        return row

    empty = min(set(range(1, n * n + 1)) - set(dataset.slots))
    short = with_block(dataset.slots[0], (0.0, 0.0))  # n - 1 slots occupied
    over = with_block(dataset.slots[0], (0.0, 2.0 * mag))  # n, one ambiguous
    both = with_block(empty, (2.0 * mag, 0.0))  # n + 1, one ambiguous
    count = f"decoded {n - 1} occupied slots, expected 0 or {n}"

    def ambiguous(slot):
        return (f"encoding subspace not decodable: block {slot}: norm "
                f"{2.0 * mag:.3e} is not within 50% of the single-codepoint "
                f"magnitude {mag:.3e}")

    for stack, message in [([w, short, over], count),
                           ([w, over, short], ambiguous(dataset.slots[0])),
                           ([both, short], ambiguous(empty)),
                           ([short], count)]:
        with pytest.raises(OracleDomain) as got:
            _l3_gd(np.array(stack), params, codebook, "oracle")
        assert str(got.value) == message
        assert not _stack_matches_rows(np.array(stack), params, codebook)


def test_argmax_ties_go_to_the_lowest_direction_then_the_lowest_block():
    # an axis-aligned codebook makes the tied inner products bitwise equal
    params = GdParams(2, 4, 8, dprime=4)
    codebook = Codebook(vectors=np.eye(4), dim=4, seed=None)
    lay = params.layout
    a, c = 0.05, 0.5 * params.eta  # c is above the hinge floor 3 eta / 32
    w = np.zeros(params.dim)
    # ratchet candidates 0.375 a at (u=2, k=1), (u=1, k=3) and (u=1, k=7)
    lay.block(w, 1)[1] = lay.block(w, 3)[0] = lay.block(w, 7)[0] = a
    lay.block(w, 6)[2:] = c  # the hinge of directions 3 and 4 ties in block 6
    dataset = GdDataset(masks=(0b1100, 0b1100), slots=(1, 2))
    g = grad_gd_batch(w, dataset, params, codebook)
    assert lay.block(g, 3)[0] == 0.375 and lay.block(g, 4)[0] == -0.5
    assert not lay.block(g, 1).any() and not lay.block(g, 2).any()
    assert not lay.block(g, 7)[0] and not lay.block(g, 8)[0]
    assert lay.block(g, 6)[2] > 0.0 and lay.block(g, 6)[3] == 0.0
    want = np.zeros(params.dim)
    lay.block(want, 3)[0], lay.block(want, 4)[0] = 0.375, -0.5
    lay.block(want, 6)[2] = c / math.sqrt(6 * params.l1_floor**2 + c * c)
    lay.encoding(want)[:4] = -np.tile(circle_point(0b1100, 4), 2) / 2
    np.testing.assert_allclose(g, want, rtol=1e-15, atol=0.0)
    # the margins read the same tied table
    step = params.margins(np.stack([w] * 4), dataset, codebook)[3]
    assert step.best == step.second_best == 0.375 * a and not step.ok


def _bits(x):
    return np.float64(x).tobytes()


def test_margins_read_the_kernels_ratchet_bitwise():
    # the margin check's table is the one the step and the loss kernel
    # read: its best entry is the ratchet the kernel adds before the floor
    params, codebook, dataset = _GD_BIG.build()
    traj = run_gd(codebook, dataset, params)
    steps = params.margins(traj.iterates, dataset, codebook)
    assert len(steps) == params.steps
    for t, step in enumerate(steps, start=1):
        part = _sample_free_gd(traj.iterate(t)[None], params, codebook, "oracle")
        assert _bits(step.best) == _bits(part.ratchet.max())


def test_run_matches_closed_form_on_event(small):
    params, codebook, dataset = small
    traj = run_gd(codebook, dataset, params)
    for t in range(2, params.steps + 1):
        want = expected_gd_iterate(t, params, dataset, codebook)
        assert np.abs(traj.iterate(t) - want).max() < 1e-12


def test_first_step_encoding_is_the_closed_form_bitwise():
    # w_2's encoding subspace is one step's written codepoints, placed by
    # the closed form as the step writes them
    params, codebook, dataset, traj = _GD_BIG.run()
    enc = params.layout.encoding
    want = expected_gd_iterate(2, params, dataset, codebook)
    assert enc(traj.iterate(2)).tobytes() == enc(want).tobytes()


def test_oracle_and_reference_modes_agree_on_trajectory(small):
    params, codebook, dataset = small
    traj = run_gd(codebook, dataset, params)
    w = traj.iterate(5)
    for sample in zip(dataset.masks, dataset.slots):
        a = loss_gd(w, sample, params, codebook, mode="oracle")
        b = loss_gd(w, sample, params, codebook, mode="reference")
        assert abs(a - b) <= 1e-12
        ga = grad_gd(w, sample, params, codebook, mode="oracle")
        gb = grad_gd(w, sample, params, codebook, mode="reference")
        assert np.abs(ga - gb).max() <= 1e-12


def test_smoothing_reads_the_same_loss_and_step_in_both_modes():
    # gd smoothing reads the oracle's step loss: on a chunk of delta-ball
    # draws and of antithetic sphere pairs around each of the ten smoothing
    # points it is the reference's bitwise, and so is the step the
    # preservation check compares against at iterates 2-6
    params, codebook, dataset, _, points, _ = _smooth_gd_setup()
    assert len(points) == 10
    oracle, reference = (params.step_loss(params.horizon, dataset, codebook, mode)
                         for mode in ("oracle", "reference"))
    rng = np.random.default_rng(12)
    delta = params.smoothing_delta
    for w in points:
        a = delta * sphere_sample(params.dim, rng, size=CHUNK)
        for batch in (w + delta * ball_sample(params.dim, rng, size=CHUNK),
                      w + a, w - a):
            assert oracle(batch).tobytes() == reference(batch).tobytes()
    for t in range(2, 7):
        w = params.expected_iterate(t, dataset, codebook)
        assert grad_gd_batch(w, dataset, params, codebook, "oracle").tobytes() \
            == grad_gd_batch(w, dataset, params, codebook, "reference").tobytes()


def test_reference_mode_refuses_huge_enumerations():
    p = GdParams(2, 16, 8)
    cb = generate_codebook(16, p.dprime, seed=0)
    with pytest.raises(ReferenceTooLarge):
        loss_gd(np.zeros(p.dim), (0, 1), p, cb, mode="reference")
    # past 16 directions no instance of either family fits the budget
    for params in (GdParams(1, 17, 2), SgdParams(2, 17)):
        with pytest.raises(ReferenceTooLarge):
            instance_gd.check_reference_budget(params)


def test_closed_form_requires_event_and_horizon():
    p = GdParams(2, 4, 8, dprime=8)
    cb = generate_codebook(4, 8, seed=3)
    covered = GdDataset(masks=(0b1100, 0b0011), slots=(1, 2))
    with pytest.raises(EventViolated):
        expected_gd_iterate(3, p, covered, cb)
    short = GdParams(2, 4, 4, dprime=8)
    ds = draw_gd_dataset(short, 11, policy="reject-until-E")[0]
    with pytest.raises(InvalidClosedForm):
        expected_gd_iterate(3, short, ds, cb)


def test_dataset_json_roundtrip(tmp_path, small):
    _, _, dataset = small
    path = tmp_path / "ds.json"
    dataset.save(path)
    assert GdDataset.load(path) == (dataset, None)
    dataset.save(path, 7)
    assert GdDataset.load(path) == (dataset, 7)


def test_saved_datasets_are_their_payload_dumps(tmp_path, small):
    # both families' datasets share _Dataset.save: the payload, then the
    # count of rejected draws
    sgd = SgdDataset(masks=(3, 0, 5), seed=2)
    for dataset in (small[2], sgd):
        path = tmp_path / "ds.json"
        for rejections in (None, 7):
            dataset.save(path, rejections)
            assert path.read_text() == json.dumps(
                {**dataset.to_json(), "rejections": rejections})


def test_a_dataset_file_without_a_count_loads_with_none(tmp_path, small):
    sgd = SgdDataset(masks=(3, 0, 5), seed=2)
    for dataset in (small[2], sgd):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(dataset.to_json()))
        assert type(dataset).load(path) == (dataset, None)


def test_reject_until_e_raises_once_its_draws_run_out(monkeypatch):
    params = GdParams(2, 4, 8, dprime=8)
    assert params.draw_dataset(1, "reject-until-E")[1] == 2
    monkeypatch.setattr(instance_gd, "MAX_DATASET_DRAWS", 2)
    with pytest.raises(AttemptsExhausted,
                       match="no dataset satisfied the good event in 2 draws"):
        params.draw_dataset(1, "reject-until-E")
