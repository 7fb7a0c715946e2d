"""Subset-on-a-circle encoding and its decoders.

Every subset of the N codebook directions is identified with an integer
bitmask in [0, 2^N); bit r-1 set means direction r is a member.  The mask
doubles as an index on a circle with M = 2^N equally spaced codepoints, so a
whole subset is stored in a single 2-dim block:

    g(mask) = (sin(2*pi*mask/M), cos(2*pi*mask/M))

Adjacent codepoints are separated by an inner-product gap of
1 - cos(2*pi/M), which is what makes "which subset is stored here?" a
max-margin question downstream.

Two encoders place codepoints inside a larger encoding subspace:

- encode_gd: one 2-dim block per slot j in [n^2]  -> vector in R^{2 n^2}
- encode_sgd: one 2-dim block per position t in [n] -> vector in R^{2 n}

A block is "occupied" when its norm exceeds half the magnitude a single
codepoint would have; an occupied block whose norm is not within 50% of
that magnitude is refused as ambiguous (it usually holds a superposition
of several codepoints).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousBlock, OutOfRange

TWO_PI = 2.0 * math.pi


def subset_count(n_directions):
    """Number of subsets M = 2^N; also the number of circle codepoints."""
    return 1 << int(n_directions)


def full_mask(n_directions):
    """Bitmask of the full direction set."""
    return (1 << int(n_directions)) - 1


def mask_members(mask, n_directions):
    """1-based direction indices present in the mask, ascending."""
    return [r for r in range(1, n_directions + 1) if mask >> (r - 1) & 1]


def circle_point(mask, n_directions):
    """Unit codepoint (sin, cos) for a subset mask.

    The empty set (mask 0) maps to (0, 1); increasing masks walk the circle
    counter-clockwise in steps of 2*pi/M.
    """
    m = subset_count(n_directions)
    if not 0 <= mask < m:
        raise OutOfRange(f"mask {mask} not in [0, {m})")
    angle = TWO_PI * (mask / m)
    return np.array([math.sin(angle), math.cos(angle)])


def margin_eps(n, n_directions):
    """Adjacent-codepoint inner-product gap, scaled by the 1/n^2 block weight.

    Equals (1/n^2) * (1 - cos(2*pi/M)) but is computed as
    (1/n^2) * 2*sin^2(pi/M), which stays fully accurate when M is large and
    the direct form would cancel catastrophically.
    """
    m = subset_count(n_directions)
    s = math.sin(math.pi / m)
    return 2.0 * s * s / (n * n)


def encode_gd(mask, slot, n, n_directions):
    """Place the subset codepoint in 2-dim block `slot` of n^2 blocks.

    Parameters
    ----------
    mask : int
        Subset bitmask.
    slot : int
        1-based block index in [1, n^2].
    n : int
        Sample count; the encoding space has n^2 blocks (2*n^2 dims).
    n_directions : int
        Codebook size N (fixes the circle resolution M = 2^N).
    """
    blocks = n * n
    if not 1 <= slot <= blocks:
        raise OutOfRange(f"slot {slot} not in [1, {blocks}]")
    out = np.zeros(2 * blocks)
    out[2 * (slot - 1): 2 * slot] = circle_point(mask, n_directions)
    return out


def encode_sgd(mask, position, n, n_directions):
    """Place the subset codepoint in 2-dim block `position` of n blocks.

    Same idea as encode_gd but the block index is a sample position t in
    [1, n] and the output lives in R^{2n}.
    """
    if not 1 <= position <= n:
        raise OutOfRange(f"position {position} not in [1, {n}]")
    out = np.zeros(2 * n)
    out[2 * (position - 1): 2 * position] = circle_point(mask, n_directions)
    return out


def decode_blocks(vec, n_directions, expected_magnitude):
    """Decode every occupied 2-dim block of an encoding-subspace vector.

    Parameters
    ----------
    vec : np.ndarray
        Flat vector of concatenated 2-dim blocks (length 2*B).
    n_directions : int
        Codebook size N; codepoints live on the circle with M = 2^N points.
    expected_magnitude : float
        Norm a block holding exactly one codepoint should have (e.g. eta/n
        for the GD iterate's encoding subspace).  Blocks with norm at
        most half of it are treated as empty.

    Returns
    -------
    list of (block_index, mask)
        1-based block indices with the decoded subset masks, ascending.

    Raises
    ------
    AmbiguousBlock
        If an occupied block's norm deviates from expected_magnitude by more
        than 50% -- the usual symptom of several codepoints superposed in
        one block.
    """
    blocks = np.asarray(vec, dtype=np.float64).reshape(-1, 2)
    norms = np.hypot(blocks[:, 0], blocks[:, 1])
    m = subset_count(n_directions)
    out = []
    for b in np.nonzero(norms > 0.5 * expected_magnitude)[0]:
        norm = norms[b]
        if abs(norm - expected_magnitude) > 0.5 * expected_magnitude:
            raise AmbiguousBlock(
                f"block {b + 1}: norm {norm:.3e} is not within 50% of the "
                f"single-codepoint magnitude {expected_magnitude:.3e}"
            )
        angle = math.atan2(blocks[b, 0], blocks[b, 1])
        idx = round(angle / TWO_PI * m) % m
        out.append((int(b) + 1, int(idx)))
    return out


def alpha_gd(masks, n_directions):
    """Lowest 1-based direction index absent from the union of the masks.

    Returns N when the union covers everything (so the result is always a
    valid direction index).
    """
    union = 0
    for mask in masks:
        union |= mask
    for r in range(1, n_directions + 1):
        if not union >> (r - 1) & 1:
            return r
    return n_directions


def alpha_sgd(masks, n_directions):
    """Lowest 1-based direction index present in every mask.

    Returns N when the intersection is empty.  An empty mask list is treated
    as the intersection over no constraints, i.e. the full set (index 1).
    """
    inter = full_mask(n_directions)
    for mask in masks:
        inter &= mask
    for r in range(1, n_directions + 1):
        if inter >> (r - 1) & 1:
            return r
    return n_directions


@dataclass(frozen=True)
class EncodingLayout:
    """Where the encoding subspace and the per-step blocks live inside w.

    The weight vector is laid out as [encoding | step block 1 | ... |
    step block T]; `encoding_dim` is 2*n^2 for GD (n^2 slot blocks) and
    2*n^2 for SGD as well (n groups of 2n dims each).
    """

    encoding_dim: int
    block_dim: int
    n_blocks: int

    @property
    def total_dim(self):
        return self.encoding_dim + self.block_dim * self.n_blocks

    def encoding(self, w):
        """View of the encoding subspace (works for batched w too)."""
        return w[..., : self.encoding_dim]

    def block(self, w, k):
        """View of step block k (1-based)."""
        if not 1 <= k <= self.n_blocks:
            raise OutOfRange(f"block {k} not in [1, {self.n_blocks}]")
        lo = self.encoding_dim + self.block_dim * (k - 1)
        return w[..., lo: lo + self.block_dim]

    def step_blocks(self, w):
        """View of all step blocks as (..., n_blocks, block_dim)."""
        core = w[..., self.encoding_dim:]
        return core.reshape(core.shape[:-1] + (self.n_blocks, self.block_dim))
