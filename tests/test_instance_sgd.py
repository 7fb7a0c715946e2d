"""One-pass hard instance: events, forcing, losses, closed-form dynamics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gengap import instance_sgd
from gengap.acceptance import _SGD_BIG, _SGD_SMOOTH, _SGD_TINY, _smooth_sgd_setup
from gengap.codebook import Codebook, generate_codebook
from gengap.encoding import TWO_PI, alpha_sgd, circle_points, margin_eps, \
    subset_count
from gengap.errors import EventViolated, InfeasibleForcing, \
    InvalidClosedForm, OutOfRange
from gengap.instance_gd import _READ_ROWS, EventReport, mask_inputs
from gengap.instance_sgd import (
    SgdDataset,
    SgdParams,
    empirical_risk,
    event_state_sgd,
    force_good_event_sgd,
    good_event_sgd,
    grad_sgd,
    loss_sgd,
    loss_sgd_samples,
    sample_sgd_dataset,
)
from gengap.optim import run_sgd
from gengap.risk import suffix_average
from gengap.smoothing import BLOCK_ROWS, CHUNK, ball_sample
from gengap.verify import expected_sgd_iterate


@pytest.fixture(scope="module")
def small():
    params = SgdParams(4, 8, dprime=16)
    codebook = generate_codebook(8, 16, seed=3)
    dataset = force_good_event_sgd(params, 21)
    return params, codebook, dataset


def test_dimension_and_derived_constants():
    p = SgdParams(4, 8, dprime=16)
    n = p.n
    assert p.dim == 2 * n * n + n * p.dprime
    assert math.isclose(p.eta, 1.0 / (5.0 * math.sqrt(n)), rel_tol=1e-12)
    assert p.eps == margin_eps(n, p.n_directions)
    assert math.isclose(p.delta1, p.eta / (8 * n**3), rel_tol=1e-12)
    assert math.isclose(p.inclusion_probability, 1.0 / (4 * n * n), rel_tol=1e-12)
    assert math.isclose(p.group_codepoint_magnitude, p.eta / (4 * n * n),
                        rel_tol=1e-12)
    assert math.isclose(p.smoothing_delta, p.eta * p.eps / (32 * n**3),
                        rel_tol=1e-12)


def test_a_one_sample_pass_is_refused():
    # one sample makes no update, so there is no one-pass run to study
    with pytest.raises(OutOfRange):
        SgdParams(1, 4)
    assert SgdParams(2, 4).horizon == 2


def test_group_views_tile_the_encoding():
    p = SgdParams(3, 4, dprime=8)
    w = np.arange(p.dim, dtype=float)
    got = np.concatenate([p.group(w, r) for r in range(1, p.n + 1)])
    assert np.array_equal(got, w[: 2 * p.n * p.n])


def test_unconditioned_sampling_is_sparse_and_deterministic():
    p = SgdParams(4, 8, dprime=16)
    a = sample_sgd_dataset(p, 9)
    b = sample_sgd_dataset(p, 9)
    assert a.masks == b.masks
    assert len(a.masks) == p.n
    assert all(0 <= m < 2 ** p.n_directions for m in a.masks)
    # mean set size over draws is close to N * 1/(4 n^2)
    sizes = [bin(m).count("1")
             for s in range(200) for m in sample_sgd_dataset(p, s).masks]
    assert np.mean(sizes) < 2 * p.n_directions * p.inclusion_probability + 0.2


def test_forcing_always_lands_on_the_event():
    p = SgdParams(4, 8, dprime=16)
    for seed in range(5):
        ds = force_good_event_sgd(p, seed)
        assert good_event_sgd(ds, p)


@pytest.mark.parametrize("n, n_directions, seed, masks", [
    (8, 16, 0, (502, 4596, 496, 480, 448, 384, 256, 0)),
    (8, 16, 1, (12906, 12904, 12896, 12864, 12800, 12288, 8192, 0)),
    (8, 16, 2, (4572, 4568, 4560, 4544, 4480, 4352, 4096, 0)),
    (6, 9, 0, (124, 120, 112, 98, 64, 0)),
])
def test_forced_datasets_keep_their_masks(n, n_directions, seed, masks):
    # recorded from the per-(set, direction) draw the array draw replaced:
    # the free directions' uniforms come in the same order
    assert force_good_event_sgd(SgdParams(n, n_directions), seed).masks == masks


def test_a_forced_dataset_off_the_event_is_a_fault_not_a_redraw(monkeypatch):
    calls = []

    def failing(dataset, params):
        calls.append(dataset)
        return EventReport(False, "step 2: empty intersection")

    monkeypatch.setattr(instance_sgd, "good_event_sgd", failing)
    with pytest.raises(EventViolated, match="step 2: empty intersection"):
        force_good_event_sgd(SgdParams(4, 8, dprime=16), 0)
    assert len(calls) == 1


def test_forcing_needs_a_spare_direction():
    with pytest.raises(InfeasibleForcing):
        force_good_event_sgd(SgdParams(4, 4, dprime=16), 0)


def test_event_state_tracks_prefix_intersections():
    masks = (0b110, 0b100, 0b000)
    states = event_state_sgd(masks, 3)
    assert [s.j for s in states] == [1, 2, 3]
    # the common direction at step t belongs to every earlier mask
    for s in states[1:]:
        for mask in masks[: s.step - 1]:
            assert mask >> (s.j - 1) & 1
    assert good_event_sgd(SgdDataset(masks=masks), SgdParams(3, 3, dprime=8))


def test_good_event_rejects_non_nested_prefixes():
    p = SgdParams(3, 3, dprime=8)
    rep = good_event_sgd(SgdDataset(masks=(0b001, 0b010, 0b100)), p)
    assert not rep and rep.reason


def test_loss_at_zero_is_sample_independent(small):
    params, codebook, _ = small
    zero = np.zeros(params.dim)
    vals = {loss_sgd(zero, mask, params, codebook)
            for mask in (0, 1, 0b1010, 2 ** params.n_directions - 1)}
    assert len(vals) == 1
    (v,) = vals
    assert math.isclose(
        v, params.l1_floor * math.sqrt(params.n - 1) + params.delta1,
        rel_tol=1e-12)


def test_loss_batched_matches_pointwise(small):
    params, codebook, dataset = small
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(6, params.dim)) * 0.01
    mask = dataset.masks[0]
    vals = loss_sgd(batch, mask, params, codebook)
    assert vals.shape == (6,)
    for row, val in zip(batch, vals):
        assert np.array_equal(loss_sgd(row, mask, params, codebook), val)


def test_loss_many_samples_matches_singles(small):
    params, codebook, dataset = small
    traj = run_sgd(codebook, dataset, params)
    w = traj.iterate(3)
    masks = np.array([0, 5, 129, 255])
    vals = loss_sgd_samples(w, masks, params, codebook)
    for mk, val in zip(masks, vals):
        assert math.isclose(loss_sgd(w, int(mk), params, codebook), val,
                            rel_tol=1e-12)


@pytest.mark.parametrize("mode", ["oracle", "reference"])
def test_loss_samples_with_repeated_masks_equal_row_by_row(mode):
    params = SgdParams(3, 3, dprime=8)
    codebook = generate_codebook(3, 8, seed=9)
    dataset = SgdDataset(masks=(0b110, 0b100, 0b000), seed=0)
    w = run_sgd(codebook, dataset, params).iterate(2)
    masks = np.array([0, 5, 0, 0, 7, 5, 2, 0, 7, 1], dtype=np.int64)
    vals = loss_sgd_samples(w, masks, params, codebook, mode=mode)
    rows = np.concatenate([
        loss_sgd_samples(w, masks[i:i + 1], params, codebook, mode=mode)
        for i in range(len(masks))
    ])
    assert np.array_equal(vals, rows)


def test_loss_samples_of_no_masks_is_empty(small):
    params, codebook, _ = small
    vals = loss_sgd_samples(np.zeros(params.dim), np.array([], dtype=np.int64),
                            params, codebook)
    assert vals.shape == (0,)


def test_gradient_is_a_subgradient_and_bounded():
    # the exhaustive reference only fits at a tiny scale, which is where
    # arbitrary (non-decodable) probe points can be checked
    params = SgdParams(3, 3, dprime=8)
    codebook = generate_codebook(3, 8, seed=9)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=params.dim) * 0.02
        y = rng.normal(size=params.dim) * 0.02
        g = grad_sgd(x, 0b110, params, codebook, mode="reference")
        assert np.linalg.norm(g) <= 4.0 + 1e-12
        fx = loss_sgd(x, 0b110, params, codebook, mode="reference")
        fy = loss_sgd(y, 0b110, params, codebook, mode="reference")
        assert fx + g @ (y - x) <= fy + 1e-10


def test_run_matches_closed_form_on_event(small):
    params, codebook, dataset = small
    traj = run_sgd(codebook, dataset, params)
    for t in range(2, params.n + 1):
        want = expected_sgd_iterate(t, params, dataset, codebook)
        assert np.abs(traj.iterate(t) - want).max() < 1e-12


def test_run_encoding_is_the_closed_form_bitwise_at_a_power_of_two():
    # at n = 8 the closed form's groups are the run's per-sample products
    # bit for bit, at every step
    params, codebook, dataset, traj = _SGD_BIG.run()
    enc = params.layout.encoding
    for t in range(2, params.n + 1):
        want = expected_sgd_iterate(t, params, dataset, codebook)
        assert enc(traj.iterate(t)).tobytes() == enc(want).tobytes()


def test_closed_form_rejects_out_of_range_steps(small):
    params, codebook, dataset = small
    with pytest.raises(InvalidClosedForm):
        expected_sgd_iterate(1, params, dataset, codebook)
    with pytest.raises(InvalidClosedForm):
        expected_sgd_iterate(params.n + 1, params, dataset, codebook)


def test_closed_form_reads_the_event_states_once(monkeypatch, small):
    params, codebook, dataset = small
    calls = []

    def counted(masks, n_directions):
        calls.append(masks)
        return event_state_sgd(masks, n_directions)

    monkeypatch.setattr(instance_sgd, "event_state_sgd", counted)
    expected_sgd_iterate(params.n, params, dataset, codebook)
    assert len(calls) == 1


def test_closed_form_refuses_an_off_event_dataset(small):
    params, codebook, _ = small
    off = SgdDataset(masks=(0b0001, 0b0010, 0b0100, 0b1000))
    with pytest.raises(EventViolated, match="good event fails: step 1: "):
        expected_sgd_iterate(2, params, off, codebook)


def test_dataset_json_roundtrip(tmp_path, small):
    _, _, dataset = small
    path = tmp_path / "ds.json"
    dataset.save(path)
    assert SgdDataset.load(path) == (dataset, None)
    dataset.save(path, 7)
    assert SgdDataset.load(path) == (dataset, 7)


def _per_k_read_out(w2, params, codebook):
    """The decoded read-out of a batch one k at a time: the stack's
    projection, then per k the addends -0.5 <u_alpha, w^(k+1)> and
    <psi, w^(0,k) - w^(0,k+1)>/(4n) and the common direction alpha, each
    (B, n-1), and the prefix masks (B, n-1, n-1), -1 past position k and
    where group k holds no clean prefix: the reference _l2_readout must
    equal bitwise, signs of zeros included."""
    n, nd = params.n, params.n_directions
    b = w2.shape[0]
    m_mod = subset_count(nd)
    exp = params.group_codepoint_magnitude
    proj = params.layout.step_blocks(w2) @ codebook.vectors.T  # (B, n, N)
    groups = params.layout.encoding(w2).reshape(b, n, n, 2)
    norms = np.hypot(groups[..., 0], groups[..., 1])  # (B, group, position)
    occupied = norms > 0.5 * exp
    ambiguous = occupied & (np.abs(norms - exp) > 0.5 * exp)
    angles = np.arctan2(groups[..., 0], groups[..., 1])
    codes = np.round(angles / TWO_PI * m_mod).astype(np.int64) % m_mod

    alpha_terms, psi_terms = np.empty((b, n - 1)), np.empty((b, n - 1))
    alphas = np.empty((b, n - 1), dtype=np.int64)
    prefixes = np.full((b, n - 1, n - 1), -1)
    for k in range(1, n):
        gk = groups[:, k - 1]
        gk1 = groups[:, k]
        want = np.zeros(n, dtype=bool)
        want[:k] = True
        clean = (occupied[:, k - 1] == want).all(axis=1) & ~ambiguous[:, k - 1].any(
            axis=1
        )
        masks_k = codes[:, k - 1, :k]  # (B, k)
        theta = TWO_PI * (masks_k / m_mod)
        sin, cos = np.sin(theta), np.cos(theta)
        dot_k = (gk[:, :k, 0] * sin + gk[:, :k, 1] * cos).sum(axis=1) / n
        dot_k1 = (gk1[:, :k, 0] * sin + gk1[:, :k, 1] * cos).sum(axis=1) / n
        psi_terms[:, k - 1] = np.where(clean, (dot_k - dot_k1) / (4.0 * n), 0.0)
        inter = np.bitwise_and.reduce(masks_k, axis=1)
        low = inter & -inter
        alpha = np.where(
            inter > 0,
            np.round(np.log2(np.maximum(low, 1))).astype(np.int64) + 1,
            nd,
        )
        alphas[:, k - 1] = alpha = np.where(clean, alpha, 1)
        alpha_terms[:, k - 1] = -0.5 * np.take_along_axis(
            proj[:, k], alpha[:, None] - 1, axis=1)[:, 0]
        prefixes[:, k - 1, :k] = np.where(clean[:, None], masks_k, -1)
    return proj, alpha_terms, psi_terms, alphas, prefixes


def _per_k_l2_values_batch(w2, point, params, codebook):
    """The prefix-shift term of a batch decoded one k at a time, for a
    sample codepoint point = (sin, cos): the reference the loss kernel's
    term 2 must equal bitwise."""
    n = params.n
    proj, alpha_terms, psi_terms, _, _ = _per_k_read_out(w2, params, codebook)
    groups = params.layout.encoding(w2).reshape(w2.shape[0], n, n, 2)
    best = np.full(w2.shape[0], -np.inf)
    for k in range(1, n):
        gk1 = groups[:, k]
        phi_term = -(gk1[:, k, 0] * point[0] + gk1[:, k, 1] * point[1]) / (
            4.0 * n * n
        )
        k_best = (0.375 * proj[:, k - 1, :].max(axis=1) + alpha_terms[:, k - 1]
                  + psi_terms[:, k - 1] + phi_term)
        best = np.maximum(best, k_best)
    return np.maximum(params.delta1, best)


def _assert_batch_l2_is_per_k(rows, masks, params, codebook):
    # the read-out's addends, bitwise (signs of zeros included), and the
    # argmaxes it reads: each k's common direction and decoded prefix
    proj, *want = _per_k_read_out(rows, params, codebook)
    (alpha_term, psi_term), alpha, prefix = instance_sgd._l2_readout(
        rows, proj, params)
    for got, ref in zip((alpha_term, psi_term), want[:2]):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert np.array_equal(alpha, want[2]) and np.array_equal(prefix, want[3])
    # term 2 of the loss kernel, with each mask's codepoint as the kernel
    # computes it
    inputs = mask_inputs(np.asarray(masks, dtype=np.int64), params.n_directions)
    _, l2, _ = instance_sgd._loss_terms_sgd(rows, params, codebook, "oracle")(inputs)
    for got, point in zip(l2.T, zip(inputs.sin, inputs.cos)):
        want = _per_k_l2_values_batch(rows, point, params, codebook)
        assert got.tobytes() == want.tobytes()


def test_batch_read_out_equals_per_k_decode_on_the_headline_trajectory():
    # the benchmark's shape: every iterate as a one-point stack, then the
    # whole trajectory as one 8-row stack
    params, codebook, dataset, traj = _SGD_BIG.run()
    for t in range(1, params.n + 1):
        _assert_batch_l2_is_per_k(traj.iterates[t - 1:t], dataset.masks, params,
                                  codebook)
    _assert_batch_l2_is_per_k(traj.iterates, dataset.masks, params, codebook)


def test_read_out_decodes_only_clean_groups_in_one_call(monkeypatch):
    # one block_codes and one circle_points call per stack, on exactly the
    # blocks the clean prefixes read (k blocks for a clean group k), and
    # none at all when no group holds a clean prefix
    params, codebook, _, traj = _SGD_BIG.run()
    calls = {"block_codes": [], "circle_points": []}
    for name, sizes in calls.items():
        real = getattr(instance_sgd, name)

        def counted(masks_or_x, *args, real=real, sizes=sizes):
            sizes.append(np.size(masks_or_x))
            return real(masks_or_x, *args)

        monkeypatch.setattr(instance_sgd, name, counted)
    for rows in (traj.iterates, traj.iterates[4:5], np.zeros((3, params.dim))):
        for sizes in calls.values():
            sizes.clear()
        proj = params.layout.step_blocks(rows) @ codebook.vectors.T
        _, _, prefix = instance_sgd._l2_readout(rows, proj, params)
        read = int((prefix >= 0).sum())
        want = [read] if read else []
        assert calls == {"block_codes": want, "circle_points": want}
    assert read == 0  # the origin holds no prefix


@pytest.fixture(scope="module")
def smoothing_instance():
    params, codebook, dataset, _, points, _ = _smooth_sgd_setup()
    return params, codebook, dataset, points


def test_batch_read_out_equals_per_k_decode_on_smoothing_draws(
        smoothing_instance):
    params, codebook, dataset, points = smoothing_instance
    rng = np.random.default_rng(0)
    for w in points:
        ball = params.smoothing_delta * ball_sample(params.dim, rng, 300)
        rows = np.concatenate([w + ball, w - ball])
        _assert_batch_l2_is_per_k(rows, dataset.masks, params, codebook)


def _prefix_rows(params, rng, count):
    """Rows whose groups hold random codes at random norms in positions
    1..j for a random j per group; half of them have zero step blocks."""
    n, m_mod = params.n, subset_count(params.n_directions)
    exp = params.group_codepoint_magnitude
    rows = np.zeros((count, params.dim))
    rows[count // 2:, 2 * n * n:] = rng.normal(
        size=(count - count // 2, params.dim - 2 * n * n)) * 0.01
    angle = TWO_PI * (rng.integers(0, m_mod, size=(count, n, n)) / m_mod)
    radius = exp * rng.uniform(0.6, 1.4, size=(count, n, n))
    radius *= np.arange(n) < rng.integers(0, n + 1, size=(count, n, 1))
    enc = params.layout.encoding(rows).reshape(count, n, n, 2)
    enc[..., 0], enc[..., 1] = radius * np.sin(angle), radius * np.cos(angle)
    return rows


def test_batch_read_out_equals_per_k_decode_off_trajectory(smoothing_instance):
    params, codebook, dataset, _ = smoothing_instance
    exp = params.group_codepoint_magnitude
    rng = np.random.default_rng(1)
    # occupied, empty and ambiguous blocks in every pattern
    noise = rng.normal(size=(2000, params.dim)) * exp * rng.uniform(
        0.2, 1.5, size=(2000, 1))
    rows = np.concatenate([noise, _prefix_rows(params, rng, 2000)])
    _assert_batch_l2_is_per_k(rows, dataset.masks, params, codebook)


def test_batch_read_out_equals_per_k_decode_at_the_norm_thresholds(
        smoothing_instance):
    params, codebook, dataset, points = smoothing_instance
    exp = params.group_codepoint_magnitude
    norms = [np.nextafter(edge, toward) for edge in (0.5 * exp, 1.5 * exp)
             for toward in (0.0, edge, 1.0)]
    angles = TWO_PI * np.arange(16) / 16
    blocks = [(r * np.sin(a), r * np.cos(a)) for r in norms for a in angles]
    blocks += [(0.0, r) for r in norms]
    rows = []
    for w in points:
        for k in range(1, params.n):
            for pos in range(params.n):
                edited = np.repeat(w[None], len(blocks), axis=0)
                params.group(edited, k)[:, 2 * pos: 2 * pos + 2] = blocks
                rows.append(edited)
    _assert_batch_l2_is_per_k(np.concatenate(rows), dataset.masks[:2], params,
                              codebook)


def test_batch_read_out_equals_per_k_decode_on_prefixes_of_eight_or_more():
    # numpy sums eight or more terms pairwise, not one after another
    params = SgdParams(10, 12, dprime=16)
    codebook = generate_codebook(12, 16, seed=2)
    dataset = force_good_event_sgd(params, 4)
    traj = run_sgd(codebook, dataset, params)
    rng = np.random.default_rng(2)
    points = [traj.iterate(t) for t in range(2, params.n + 1)]
    points += [suffix_average(traj, m) for m in range(3, params.n + 1)]
    ball = params.smoothing_delta * ball_sample(params.dim, rng, 100)
    rows = [w + sign * ball for w in points for sign in (1, -1)]
    # group k-1 holds a clean prefix of k random codes and group k the same
    # blocks reversed and enlarged, so the prefix inner products, not the
    # step blocks or the floor, decide the value
    n, m_mod = params.n, subset_count(params.n_directions)
    k = rng.integers(1, n, size=4000)
    angle = TWO_PI * (rng.integers(0, m_mod, size=(4000, n)) / m_mod)
    radius = params.group_codepoint_magnitude * rng.uniform(0.6, 1.4, (4000, n))
    radius *= np.arange(n) < k[:, None]
    prefix = np.stack([radius * np.sin(angle), radius * np.cos(angle)], axis=-1)
    prefixes = np.zeros((4000, params.dim))
    enc = params.layout.encoding(prefixes).reshape(4000, n, n, 2)
    enc[np.arange(4000), k - 1] = prefix
    enc[np.arange(4000), k] = -50.0 * prefix
    rows.append(prefixes)
    _assert_batch_l2_is_per_k(np.concatenate(rows), dataset.masks, params,
                              codebook)


@pytest.mark.parametrize("rows", [1, 2, 1025, CHUNK + 1])
def test_batch_read_out_equals_per_k_decode_at_row_block_edges(
        smoothing_instance, rows):
    params, codebook, dataset, points = smoothing_instance
    rng = np.random.default_rng(rows)
    w = points[-1]
    batch = w + params.smoothing_delta * ball_sample(params.dim, rng, rows)
    _assert_batch_l2_is_per_k(batch, dataset.masks[:2], params, codebook)
    # the training risk reduces the stack in row blocks; one kernel call
    # over the whole stack gives the same rows
    mask = dataset.masks[0]
    assert np.array_equal(loss_sgd(batch, mask, params, codebook),
                          loss_sgd_samples(batch, [mask], params, codebook)[:, 0])


def test_empirical_loss_decodes_a_batch_once(smoothing_instance, monkeypatch):
    # one read-out per stack per call, a batch or a single point alike
    params, codebook, dataset, points = smoothing_instance
    rng = np.random.default_rng(3)
    w = points[4]
    batch = w + params.smoothing_delta * ball_sample(params.dim, rng, 500)
    decodes = []
    readout = instance_sgd._l2_readout

    def counted(*args):
        decodes.append(args)
        return readout(*args)

    monkeypatch.setattr(instance_sgd, "_l2_readout", counted)
    for x in (batch, w):
        want = np.mean([loss_sgd(x, mask, params, codebook)
                        for mask in dataset.masks], axis=0)
        decodes.clear()
        got = empirical_risk(x, dataset, params, codebook)
        assert np.array_equal(got, want)
        assert len(decodes) == 1


def _hinge_term(w, mask, params, codebook):
    """Term 1 as one product of the step blocks with the mask's member
    directions: the L2 norm over blocks k >= 2 of max(floor, max over the
    members u of <u, w^(k)>)."""
    blocks = params.layout.step_blocks(w)  # (..., n, dprime)
    rows = np.flatnonzero(
        mask_inputs(np.array([mask]), params.n_directions).member[0])
    if rows.size:
        inner = (blocks @ codebook.vectors[rows].T).max(axis=-1)
    else:
        inner = np.full(blocks.shape[:-1], -np.inf)
    h = np.maximum(params.l1_floor, inner[..., 1:])  # blocks k = 2..n
    return np.sqrt((h * h).sum(axis=-1))


def _three_term_losses(w2, mask, params, codebook, mode):
    """One mask's loss at each row of a batch as its three terms summed in
    order, each from its own products: the reference the loss kernel is
    held to.  Term 2 is the per-k decode (oracle) or the max over every
    enumerated prefix of every k (reference)."""
    n, point = params.n, np.array(circle_points(mask, params.n_directions))
    if mode == "oracle":
        l2 = _per_k_l2_values_batch(w2, point, params, codebook)
    else:
        l2 = np.full(len(w2), params.delta1)
        proj = params.layout.step_blocks(w2) @ codebook.vectors.T  # (P, n, N)
        for k, (masks, rows, _, _) in enumerate(
                instance_sgd._reference_tables_sgd(params), start=1):
            gk, gk1 = params.group(w2, k), params.group(w2, k + 1)
            alphas = np.array([alpha_sgd(m, params.n_directions) for m in masks])
            moves = params.layout.block(w2, k + 1) @ codebook.vectors[alphas - 1].T
            reads = (gk - gk1) @ rows.T / (4.0 * n) - 0.5 * moves  # (P, R)
            coupling = (gk1[:, 2 * k: 2 * k + 2] @ point) / (4.0 * n * n)
            l2 = np.maximum(l2, 0.375 * proj[:, k - 1].max(axis=-1)
                            + reads.max(axis=-1) - coupling)
    first_block = params.layout.encoding(w2)[:, 0:2]  # position 1 of group 1
    u1_read = params.layout.block(w2, 1) @ codebook.vectors[0]
    l3 = -(first_block @ point) / (4.0 * n * n) - u1_read / n**3
    return _hinge_term(w2, mask, params, codebook) + l2 + l3


# the smoothing and headline instances are beyond the reference budget
@pytest.mark.parametrize("pinned, mode", [
    (_SGD_TINY, "oracle"), (_SGD_TINY, "reference"), (_SGD_SMOOTH, "oracle"),
    (_SGD_BIG, "oracle")],
    ids=["tiny-oracle", "tiny-reference", "smoothing-oracle", "headline-oracle"])
def test_kernel_losses_are_within_four_spacings_of_the_three_terms(pinned, mode):
    params, codebook, dataset = pinned.build()
    traj = run_sgd(codebook, dataset, params)
    rng = np.random.default_rng(7)
    points = [traj.iterate(t) for t in range(1, params.n + 1)]
    points += [suffix_average(traj, m) for m in (2, 3)]
    points += list(points[-1] + params.smoothing_delta * ball_sample(
        params.dim, rng, size=20))
    points = np.array(points)
    masks = np.concatenate([dataset.masks, rng.integers(
        0, 2 ** params.n_directions, size=12)])
    got = loss_sgd_samples(points, masks, params, codebook, mode=mode)
    want = np.stack([_three_term_losses(points, int(m), params, codebook, mode)
                     for m in masks], axis=1)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_reference_tables_group_every_prefix_by_its_common_direction():
    # each k's table holds every prefix once, with its own encoding and
    # common direction, grouped by that direction in enumeration order
    params = SgdParams(3, 3, dprime=8)
    m, nd = subset_count(params.n_directions), params.n_directions
    for k, (masks, rows, starts, alphas) in enumerate(
            instance_sgd._reference_tables_sgd(params), start=1):
        prefixes = list(itertools.product(range(m), repeat=k))
        want = np.array([alpha_sgd(p, nd) for p in prefixes])
        order = np.argsort(want, kind="stable")
        assert np.array_equal(masks, np.array(prefixes)[order])
        assert np.array_equal(rows, np.array([instance_sgd._prefix_psi(p, params)
                                              for p in prefixes])[order])
        assert np.array_equal(alphas, np.unique(want))
        assert np.array_equal(want[order][starts], alphas)


@pytest.mark.parametrize("build", [
    _SGD_TINY.build,
    lambda: (SgdParams(2, 8), generate_codebook(8, seed=3),
             force_good_event_sgd(SgdParams(2, 8), 2)),
], ids=["tiny", "n2-default-dprime"])
def test_blocked_reference_readout_equals_the_per_row_max(build):
    # the read-out takes each group's best prefix row in blocks of points,
    # then the group's one movement product; against every row's value at
    # once, with that same movement product per group, it is bitwise equal
    params, codebook, dataset = build()
    n = params.n
    iterates = run_sgd(codebook, dataset, params, mode="reference").iterates
    tables = instance_sgd._reference_tables_sgd(params)
    rng = np.random.default_rng(8)
    for size in (2, _READ_ROWS - 1, _READ_ROWS, _READ_ROWS + 1, BLOCK_ROWS):
        w = iterates[rng.integers(0, n, size=size)] + params.smoothing_delta * \
            ball_sample(params.dim, rng, size=size)
        (best,), alpha, prefix = instance_sgd._l2_reference_rows(w, params, codebook)
        each = np.arange(size)
        for k, (masks, rows, starts, alphas) in enumerate(tables, start=1):
            group = np.repeat(np.arange(alphas.size),
                              np.diff(np.append(starts, len(rows))))
            moves = params.layout.block(w, k + 1) @ codebook.vectors[alphas - 1].T
            vals = ((params.group(w, k) - params.group(w, k + 1)) @ rows.T
                    / (4.0 * n) - 0.5 * moves[:, group])  # (P, R)
            assert np.array_equal(best[:, k - 1], vals.max(axis=-1))
            # the prefix read is a row that attains the max, with its alpha
            shape = (subset_count(params.n_directions),) * k
            row_of = np.empty(len(rows), dtype=np.int64)
            row_of[np.ravel_multi_index(masks.T, shape)] = np.arange(len(rows))
            row = row_of[np.ravel_multi_index(prefix[:, k - 1, :k].T, shape)]
            assert np.array_equal(vals[each, row], best[:, k - 1])
            assert np.array_equal(alphas[group[row]], alpha[:, k - 1])
            assert (prefix[:, k - 1, k:] == -1).all()


def test_reference_ties_go_to_the_lowest_common_direction():
    # at the origin every prefix reads 0: the tie goes to the lowest common
    # direction, then to the first such prefix in enumeration order
    params, codebook, _ = _SGD_TINY.build()
    for size in (1, 2):
        (best,), alpha, prefix = instance_sgd._l2_reference_rows(
            np.zeros((size, params.dim)), params, codebook)
        assert not best.any() and (alpha == 1).all()
        for k in range(1, params.n):
            assert (prefix[:, k - 1, :k] == 1).all()


def test_a_reference_loss_block_stays_small():
    # 65,536 one-mask prefixes: the read-out takes (points, |group|)
    # products in blocks of _READ_ROWS points, with no (points, prefixes)
    # temporary and no codebook row gathered per prefix
    params = SgdParams(2, 16)
    codebook = generate_codebook(16, params.dprime, seed=0)
    instance_sgd._reference_tables_sgd(params)  # built and cached outside
    w = 1e-3 * np.random.default_rng(0).normal(size=(BLOCK_ROWS, params.dim))
    for points, mib in ((w[0], 16), (w, 128)):
        tracemalloc.start()
        try:
            loss_sgd(points, 5, params, codebook, mode="reference")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


def test_blocked_sample_draws_equal_one_draw():
    params = SgdParams(8, 16)
    count = 2 * CHUNK + 5
    rng = np.random.default_rng(7)
    bits = rng.random((count, params.n_directions)) < params.inclusion_probability
    want = bits @ (np.int64(1) << np.arange(params.n_directions, dtype=np.int64))
    got = params.draw_samples(np.random.default_rng(7), count)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _adjacent_second_best(points, params, dataset, codebook):
    """Per step of a stack, the margin check's second-best term-2 value and
    the length of the decoded argmax prefix (0 for the fallback), with each
    adjacent candidate's psi encoded afresh from its whole shifted prefix."""
    n, nd = params.n, params.n_directions
    parts = instance_sgd._sample_free_sgd(points, params, codebook, "oracle")
    masks = [params.step_sample(t, dataset) for t in range(1, len(points) + 1)]
    inputs, (rows,) = params.prepare_samples([masks])
    couplings = instance_sgd._sample_reads(parts, inputs, params)[
        np.arange(len(points)), rows, 1:]
    steps = []
    for t, (table, mask) in enumerate(
            zip(instance_sgd._l2_table(parts, couplings), masks), start=1):
        top = int(np.argmax(table))
        second = float(np.delete(table.ravel(), top).max())
        u_star, k_star = divmod(top, n - 1)
        k = k_star + 1
        prefix = [int(m) for m in parts.prefix[t - 1, k_star, :k]]
        if prefix[0] < 0:
            steps.append((second, 0))
            continue
        w, proj = points[t - 1], parts.proj[t - 1]
        gk, gk1 = params.group(w, k), params.group(w, k + 1)
        read = (gk1[2 * k: 2 * k + 2] @ circle_points(mask, nd)) / (4.0 * n * n)
        for pos in range(k):
            for delta in (-1, 1):
                shifted = list(prefix)
                shifted[pos] = (shifted[pos] + delta) % subset_count(nd)
                psi = instance_sgd._prefix_psi(shifted, params)
                val = (0.375 * proj[k - 1, u_star]
                       - 0.5 * proj[k, alpha_sgd(shifted, nd) - 1]
                       + (gk @ psi - gk1 @ psi) / (4.0 * n) - read)
                second = max(second, float(val))
        steps.append((second, k))
    return steps


@pytest.mark.parametrize("build", [
    _SGD_BIG.build,
    # prefixes of eight or more codes, whose inner products numpy sums pairwise
    lambda: (SgdParams(10, 12, dprime=16), generate_codebook(12, 16, seed=2),
             force_good_event_sgd(SgdParams(10, 12, dprime=16), 4)),
], ids=["headline", "n10"])
def test_margins_adjacent_candidates_equal_a_fresh_encoding(build):
    # the check swaps one shifted codepoint into the decoded prefix's psi;
    # the positions' blocks are disjoint, so that is the shifted prefix's
    # own encoding bitwise
    params, codebook, dataset = build()
    traj = run_sgd(codebook, dataset, params)
    steps = params.margins(traj.iterates, dataset, codebook)
    want = _adjacent_second_best(traj.iterates, params, dataset, codebook)
    assert [s.second_best for s in steps] == [second for second, _ in want]
    assert want[-1][1] == params.n - 1  # the last step decodes n-1 codes


def test_argmax_ties_go_to_the_lowest_direction_then_the_lowest_block():
    # an axis-aligned codebook makes the tied inner products bitwise equal;
    # the encoding is empty, so every k falls back to psi = 0, alpha = 1
    params = SgdParams(4, 3, dprime=4)
    codebook = Codebook(vectors=np.eye(4)[:3], dim=4, seed=None)
    lay = params.layout
    a = 0.05
    w = np.zeros(params.dim)
    # term-2 candidates 0.375 a at (u=3, k=1), (u=2, k=2) and (u=2, k=3)
    lay.block(w, 1)[2] = lay.block(w, 2)[1] = lay.block(w, 3)[1] = a
    g = grad_sgd(w, 0, params, codebook)
    assert lay.block(g, 2)[1] == 0.375 and lay.block(g, 3)[0] == -0.5
    assert not lay.block(g, 1)[1:].any() and not lay.block(g, 3)[1:].any()
    assert not lay.block(g, 4).any()
    # the margins read the same tied table
    dataset = SgdDataset(masks=(0, 0, 0, 0))
    step = params.margins(np.stack([w] * 4), dataset, codebook)[1]
    assert step.best == step.second_best == 0.375 * a and not step.ok


def test_margins_read_the_kernels_term_two_bitwise():
    # the margin check's table is the one the step and the loss kernel
    # read: its best entry is term 2 before the floor for the sample the
    # step consumes, above the floor at every consuming step
    params, codebook, dataset = _SGD_BIG.build()
    traj = run_sgd(codebook, dataset, params)
    steps = params.margins(traj.iterates, dataset, codebook)
    assert len(steps) == params.n
    for t, step in enumerate(steps, start=1):
        inputs = mask_inputs(np.array([params.step_sample(t, dataset)]),
                             params.n_directions)
        _, l2, _ = instance_sgd._loss_terms_sgd(
            traj.iterate(t)[None], params, codebook, "oracle")(inputs)
        assert (step.best > params.delta1) == (t >= 2)
        assert (np.float64(max(params.delta1, step.best)).tobytes()
                == l2[0, 0].tobytes())


def test_margins_read_each_steps_own_sample_off_the_design():
    # on the designed trajectory the coupling at the argmax k reads an
    # empty block, 0 for every mask, so a check reading another step's
    # sample would agree there; off the design the couplings tell the
    # samples apart
    params, codebook, dataset = _SGD_BIG.build()
    traj = run_sgd(codebook, dataset, params)
    rng = np.random.default_rng(5)
    probes = traj.iterates + params.eta / 10 * rng.normal(size=traj.iterates.shape)
    steps = params.margins(probes, dataset, codebook)
    assert len(set(dataset.masks)) == params.n
    for t, (w, step) in enumerate(zip(probes, steps), start=1):
        # term 2's table at w_t alone, for the sample step t consumes
        parts = instance_sgd._sample_free_sgd(w[None], params, codebook, "oracle")
        inputs = mask_inputs(np.array([params.step_sample(t, dataset)]),
                             params.n_directions)
        couplings = instance_sgd._sample_reads(parts, inputs, params)[:, 0, 1:]
        table = instance_sgd._l2_table(parts, couplings)[0]
        assert step.best == table.max()
        assert couplings[0, int(np.argmax(table)) % (params.n - 1)] != 0.0
