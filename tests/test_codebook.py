"""Low-coherence sign-vector codebooks: geometry, determinism, persistence."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from gengap.codebook import (
    coherence,
    default_dim,
    generate_codebook,
    load_codebook,
    save_codebook,
)
from gengap.errors import AttemptsExhausted, OutOfRange


def test_default_dim_has_floor_and_grows():
    assert default_dim(2) >= 256
    assert default_dim(4) >= 256
    dims = [default_dim(k) for k in (8, 16, 32)]
    assert dims == sorted(dims)
    assert default_dim(32) > 256


def test_generated_vectors_are_unit_sign_rows():
    cb = generate_codebook(8, 64, seed=0)
    assert cb.vectors.shape == (8, 64)
    assert cb.dim == 64 and cb.n_vectors == 8 and cb.seed == 0
    np.testing.assert_allclose(np.linalg.norm(cb.vectors, axis=1), 1.0,
                               atol=1e-12)
    scale = 1.0 / math.sqrt(64)
    assert np.all(np.isclose(np.abs(cb.vectors), scale))


def test_generated_coherence_is_bounded():
    for seed in (0, 1, 2):
        cb = generate_codebook(10, 128, seed=seed)
        assert coherence(cb) <= 0.125 + 1e-15


def test_coherence_matches_direct_gram():
    cb = generate_codebook(6, 64, seed=5)
    gram = np.abs(cb.vectors @ cb.vectors.T)
    np.fill_diagonal(gram, 0.0)
    assert math.isclose(coherence(cb), gram.max(), rel_tol=1e-12)


def test_single_vector_coherence_is_zero():
    cb = generate_codebook(1, 16, seed=0)
    assert coherence(cb) == 0.0


def test_generation_is_deterministic_per_seed():
    a = generate_codebook(7, 64, seed=3)
    b = generate_codebook(7, 64, seed=3)
    assert np.array_equal(a.vectors, b.vectors)
    c = generate_codebook(7, 64, seed=4)
    assert not np.array_equal(a.vectors, c.vectors)


def test_default_dim_is_used_when_dim_omitted():
    cb = generate_codebook(4, seed=0)
    assert cb.dim == default_dim(4)


def test_impossible_dimension_exhausts_attempts():
    # 8 nearly-orthogonal sign vectors cannot fit in 4 dims
    with pytest.raises(AttemptsExhausted):
        generate_codebook(8, 4, seed=0, max_attempts=2000)


def test_large_codebooks_pass_silently_up_to_the_cap():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert generate_codebook(17, 4096, seed=0).n_vectors == 17
    with pytest.raises(OutOfRange):
        generate_codebook(41, seed=0)


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    # the loader's integer coherence check admits whatever the generator's
    # float check accepted; the first three hold pairs at exactly dim/8
    path = tmp_path / "cb.json"
    for n_vectors, dim, seed in ((9, 64, 11), (16, 64, 0), (12, 32, 2), (40, 948, 3)):
        cb = generate_codebook(n_vectors, dim, seed=seed)
        save_codebook(cb, path)
        back = load_codebook(path)
        assert np.array_equal(cb.vectors, back.vectors)
        assert back.dim == cb.dim and back.seed == cb.seed


def test_saved_codebook_bytes_are_its_payload_dumps(tmp_path):
    cb = generate_codebook(9, 64, seed=11)
    path = tmp_path / "cb.json"
    save_codebook(cb, path)
    payload = {"dim": 64, "seed": 11,
               "vectors": np.sign(cb.vectors).astype(int).tolist()}
    assert path.read_text() == json.dumps(payload)
    # the same text json.dump writes through the pure-Python encoder
    streamed = io.StringIO()
    json.dump(payload, streamed)
    assert streamed.getvalue() == json.dumps(payload)


def test_load_rejects_inconsistent_file(tmp_path):
    path = tmp_path / "bad.json"
    good = np.sign(generate_codebook(3, 16, seed=1).vectors).astype(int)
    for rows in (
        [[1, -1, 1]],  # rows shorter than dim
        good[[0, 1, 1]],  # a duplicated row: coherence 1
        np.where(np.arange(16) == 3, 0, good),  # a 0 entry
        np.where(np.arange(16) == 3, 7, good),  # a 7 entry
    ):
        path.write_text(json.dumps({"dim": 16, "seed": 0,
                                    "vectors": np.asarray(rows).tolist()}))
        with pytest.raises(OutOfRange, match="bad.json"):
            load_codebook(path)


def test_rows_are_one_based_direction_indices():
    cb = generate_codebook(5, 64, seed=2)
    # the public convention: direction index r lives at row r-1
    assert np.array_equal(cb.vectors[0], cb.vectors[1 - 1])
    assert cb.vectors[4].shape == (64,)
