"""Low-coherence sign-vector codebooks: geometry, determinism, persistence."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from gengap import codebook
from gengap.codebook import (
    MAX_DIRECTIONS,
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


def test_impossible_dimension_exhausts_attempts(monkeypatch):
    # 8 nearly-orthogonal sign vectors cannot fit in 4 dims; the budget is
    # read at each call
    monkeypatch.setattr(codebook, "DEFAULT_ATTEMPTS", 2000)
    with pytest.raises(AttemptsExhausted, match="in 2000 attempts"):
        generate_codebook(8, 4, seed=0)


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


def _hadamard_signs(order):
    """The Sylvester-Hadamard matrix of an order 2^k: +-1 rows, pairwise
    orthogonal."""
    h = np.ones((1, 1), dtype=int)
    while len(h) < order:
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("payload, message", [
    # rows 1..63 of H_128: orthogonal, but beyond the oracle's code resolution
    ({"dim": 128, "seed": 0, "vectors": _hadamard_signs(128)[1:64].tolist()},
     f"n_vectors=63 exceeds the supported maximum of {MAX_DIRECTIONS}"),
    ({"dim": 64, "seed": 0, "vectors": _hadamard_signs(64)[1:42].tolist()},
     f"n_vectors=41 exceeds the supported maximum of {MAX_DIRECTIONS}"),
    ({"dim": 0, "seed": 0, "vectors": [[], []]}, "dim must be >= 1, got 0"),
], ids=["63-rows", "41-rows", "dim-0"])
def test_load_refuses_a_size_generation_refuses(tmp_path, payload, message):
    path = tmp_path / "cb.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(OutOfRange, match=f"codebook file {path}: {message}"):
        load_codebook(path)
    with pytest.raises(OutOfRange, match=message):
        generate_codebook(len(payload["vectors"]), payload["dim"])


def test_load_takes_the_cap_and_one_dimension(tmp_path):
    path = tmp_path / "cb.json"
    for dim, rows in ((64, _hadamard_signs(64)[1:41]), (1, [[1]])):
        path.write_text(json.dumps({"dim": dim, "seed": 0,
                                    "vectors": np.asarray(rows).tolist()}))
        assert load_codebook(path).vectors.shape == np.shape(rows)


@pytest.mark.parametrize("field, value", [("dim", 8.9), ("dim", True),
                                          ("seed", 2.5), ("seed", None)])
def test_load_refuses_a_non_integer_dim_or_seed(tmp_path, field, value):
    path = tmp_path / "cb.json"
    payload = {"dim": 8, "seed": 0, "vectors": [[1] * 8, [1, -1] * 4]}
    path.write_text(json.dumps({**payload, field: value}))
    with pytest.raises(OutOfRange,
                       match=f"cannot read codebook file .*cb.json: {value!r} "
                             "is not an integer"):
        load_codebook(path)
