"""Nearly-orthogonal direction codebooks.

A codebook is a set of N sign vectors in R^dim, entries +-1/sqrt(dim), whose
pairwise inner products all have magnitude at most 1/8.  These directions are
the "vocabulary" the hard instances are built from: each sample is a subset of
the codebook, and the loss terms reward/punish movement along specific
codebook directions.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AttemptsExhausted, OutOfRange, as_int, reading

# The oracle decodes a block by rounding its float64 angle to the nearest of
# 2^N codepoints; the cap keeps neighbours thousands of ulps apart (at N = 40,
# 2*pi/2^40 is about 6,400 ulps of an angle near 2*pi).  Nothing in oracle
# mode enumerates the 2^N subsets; the reference read-out does, and
# instance_gd.REFERENCE_BUDGET refuses it beyond N = 16.
MAX_DIRECTIONS = 40

COHERENCE_BOUND = 1.0 / 8.0
DEFAULT_ATTEMPTS = 100_000  # candidate draws before generation gives up


def default_dim(n_vectors):
    """Smallest supported dimension for a codebook of this size.

    Grows linearly with log2(N) so that rejection sampling keeps a healthy
    acceptance rate, with a floor of 256.
    """
    n = max(int(n_vectors), 2)
    return max(256, math.ceil(178 * math.log2(n)))


@dataclass(frozen=True)
class Codebook:
    """N unit-norm sign directions with pairwise coherence <= 1/8.

    Attributes
    ----------
    vectors : np.ndarray
        Shape (n_vectors, dim); rows are the directions, entries
        +-1/sqrt(dim).  Row i is direction index i+1 (indices are 1-based
        in every public API of this package).
    dim : int
        Ambient dimension of the directions.
    seed : int
        Seed the codebook was generated from (kept for provenance).
    """

    vectors: np.ndarray
    dim: int
    seed: int

    @property
    def n_vectors(self):
        return self.vectors.shape[0]


def _check_size(n_vectors, dim):
    """The one size rule of a codebook, generated or loaded: 1 <= n_vectors
    <= MAX_DIRECTIONS and dim >= 1, else OutOfRange."""
    if n_vectors < 1:
        raise OutOfRange(f"n_vectors must be >= 1, got {n_vectors}")
    if n_vectors > MAX_DIRECTIONS:
        raise OutOfRange(
            f"n_vectors={n_vectors} exceeds the supported maximum of "
            f"{MAX_DIRECTIONS}, which keeps the oracle decode's 2^N "
            f"codepoints thousands of float64 ulps apart"
        )
    if dim < 1:
        raise OutOfRange(f"dim must be >= 1, got {dim}")


def generate_codebook(n_vectors, dim=None, seed=0):
    """Generate a codebook by seeded rejection sampling.

    Draws sign vectors one at a time and accepts a candidate only if its
    inner product with every previously accepted vector has magnitude at
    most 1/8, giving up after DEFAULT_ATTEMPTS draws (read at each call).

    Parameters
    ----------
    n_vectors : int
        Number of directions N, at most MAX_DIRECTIONS = 40, set by the
        float64 code resolution the oracle decode relies on.  The reference
        read-out's own limit is instance_gd.REFERENCE_BUDGET.
    dim : int, optional
        Ambient dimension.  Defaults to ``default_dim(n_vectors)``.
    seed : int
        RNG seed; generation is deterministic given (n_vectors, dim, seed).

    Returns
    -------
    Codebook

    Raises
    ------
    OutOfRange
        If the size breaks _check_size's rule.
    AttemptsExhausted
        If the attempt budget runs out (e.g. dim too small for N).
    """
    n_vectors = int(n_vectors)
    dim = default_dim(n_vectors) if dim is None else int(dim)
    _check_size(n_vectors, dim)

    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)
    accepted = []
    attempts = 0
    while len(accepted) < n_vectors:
        if attempts >= DEFAULT_ATTEMPTS:
            raise AttemptsExhausted(
                f"found only {len(accepted)}/{n_vectors} directions in "
                f"{DEFAULT_ATTEMPTS} attempts (dim={dim}); increase dim or budget"
            )
        attempts += 1
        cand = (rng.integers(0, 2, size=dim) * 2 - 1).astype(np.float64) * scale
        if all(abs(float(cand @ v)) <= COHERENCE_BOUND for v in accepted):
            accepted.append(cand)

    return Codebook(vectors=np.array(accepted), dim=dim, seed=int(seed))


def coherence(codebook):
    """Largest pairwise |<u_i, u_k>| over distinct directions; 0.0 if N <= 1."""
    v = codebook.vectors
    if v.shape[0] <= 1:
        return 0.0
    gram = v @ v.T
    off = np.abs(gram - np.diag(np.diag(gram)))
    return float(off.max())


def save_codebook(codebook, path):
    """Write a codebook to JSON as {dim, seed, vectors} with +-1 sign entries.

    Signs (not floats) keep the file small and the reload bit-exact: the
    loader rescales by 1/sqrt(dim) with the same float operations.
    """
    signs = np.sign(codebook.vectors).astype(int)
    payload = {
        "dim": int(codebook.dim),
        "seed": int(codebook.seed),
        "vectors": signs.tolist(),
    }
    with open(path, "w") as fh:
        # dumps: the C encoder; json.dump writes the same text in pure Python
        fh.write(json.dumps(payload))


def load_codebook(path):
    """Inverse of save_codebook; reconstructs +-1/sqrt(dim) float rows.

    A file whose dim and seed are not integers (as_int), whose size
    breaks _check_size's rule, whose entries are not all +-1, or with a
    pair of rows above COHERENCE_BOUND, is not a codebook and is refused.
    The coherence is checked on the integer sign Gram matrix, exact in
    float64, against dim/8, so every codebook generate_codebook accepts
    loads.
    """
    with reading(path, "codebook file"):
        with open(path) as fh:
            payload = json.load(fh)
        dim = as_int(payload["dim"])
        signs = np.asarray(payload["vectors"], dtype=np.float64)
        seed = as_int(payload["seed"])
    if signs.ndim != 2 or signs.shape[1] != dim:
        raise OutOfRange(
            f"codebook file {path} is inconsistent: vectors shape {signs.shape} "
            f"does not match dim={dim}"
        )
    try:
        _check_size(len(signs), dim)
    except OutOfRange as exc:
        raise OutOfRange(f"codebook file {path}: {exc}") from None
    if not (np.abs(signs) == 1).all():
        raise OutOfRange(f"codebook file {path} holds entries other than +-1")
    gram = np.abs(signs @ signs.T)
    np.fill_diagonal(gram, 0)
    if (gram > dim * COHERENCE_BOUND).any():
        raise OutOfRange(f"codebook file {path} has a pair of directions with "
                         f"coherence above {COHERENCE_BOUND}")
    vectors = signs * (1.0 / math.sqrt(dim))
    return Codebook(vectors=vectors, dim=dim, seed=seed)

