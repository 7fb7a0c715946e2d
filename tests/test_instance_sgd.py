"""One-pass hard instance: events, forcing, losses, closed-form dynamics."""

import math

import numpy as np
import pytest

from gengap.codebook import generate_codebook
from gengap.encoding import margin_eps
from gengap.errors import InfeasibleForcing, InvalidClosedForm, OutOfRange
from gengap.instance_sgd import (
    SgdDataset,
    SgdParams,
    event_state_sgd,
    force_good_event_sgd,
    good_event_sgd,
    grad_sgd,
    loss_sgd,
    loss_sgd_samples,
    sample_sgd_dataset,
)
from gengap.optim import run_sgd
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
        assert math.isclose(loss_sgd(row, mask, params, codebook), val,
                            rel_tol=1e-14)


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


def test_closed_form_rejects_out_of_range_steps(small):
    params, codebook, dataset = small
    with pytest.raises(InvalidClosedForm):
        expected_sgd_iterate(1, params, dataset, codebook)
    with pytest.raises(InvalidClosedForm):
        expected_sgd_iterate(params.n + 1, params, dataset, codebook)


def test_dataset_json_roundtrip(tmp_path, small):
    _, _, dataset = small
    path = tmp_path / "ds.json"
    dataset.save(path)
    back = SgdDataset.load(path)
    assert back.masks == dataset.masks


if __name__ == "__main__":
    p = SgdParams(8, 16)
    ds = force_good_event_sgd(p, 21)
    print("masks", ds.masks)
