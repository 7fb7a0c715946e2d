"""Subset-on-a-circle encoding and its decoders.

Every subset of the N codebook directions is identified with an integer
bitmask in [0, 2^N); bit r-1 set means direction r is a member.  The mask
doubles as an index on a circle with M = 2^N equally spaced codepoints, so a
whole subset is stored in a single 2-dim block:

    g(mask) = (sin(2*pi*mask/M), cos(2*pi*mask/M))

Adjacent codepoints are separated by an inner-product gap of
1 - cos(2*pi/M), which is what makes "which subset is stored here?" a
max-margin question downstream.

circle_points is the one place a codepoint is evaluated, for a whole
array of masks at once.  A training set is stored by writing its
codepoints into their own 2-dim blocks of the encoding subspace: slot j in
[n^2] for the full-batch family, position t in [n] of a group for the
one-pass family.

Decoding has three rules, each defined once here over blocks of any
leading shape, so both oracle read-outs decode a whole stack of points:
occupancy (block_occupancy: a block is occupied above half the norm one
codepoint would have, and ambiguous, usually a superposition of several,
beyond 50% of it), the code rounding (block_codes) and the lowest member
of a mask (lowest_member).  decode_blocks is their one-vector form.
"""

import functools
import math
import operator
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


def circle_points(masks, n_directions):
    """The codepoints of subset masks (an int or an int array) as the pair
    (sin, cos) of arrays in the masks' shape: angle 2*pi*mask/M.

    The empty set (mask 0) maps to (0, 1); increasing masks walk the circle
    counter-clockwise in steps of 2*pi/M.
    """
    angle = TWO_PI * (np.asarray(masks) / subset_count(n_directions))
    return np.sin(angle), np.cos(angle)


def circle_point(mask, n_directions):
    """Unit codepoint [sin, cos] of one subset mask (circle_points)."""
    m = subset_count(n_directions)
    if not 0 <= mask < m:
        raise OutOfRange(f"mask {mask} not in [0, {m})")
    return np.array(circle_points(mask, n_directions))


def margin_eps(n, n_directions):
    """Adjacent-codepoint inner-product gap, scaled by the 1/n^2 block weight.

    Equals (1/n^2) * (1 - cos(2*pi/M)) but is computed as
    (1/n^2) * 2*sin^2(pi/M), which stays fully accurate when M is large and
    the direct form would cancel catastrophically.
    """
    m = subset_count(n_directions)
    s = math.sin(math.pi / m)
    return 2.0 * s * s / (n * n)


def block_occupancy(x, y, expected_magnitude):
    """The occupancy rule: (occupied, ambiguous) bool arrays of 2-dim
    blocks given as coordinate arrays x and y of one shape.  A block is
    occupied when its norm exceeds half of expected_magnitude, and
    ambiguous when it is occupied and its norm is not within 50% of it.
    The squared norm decides, and hypot only within a relative 1e-9 of a
    threshold (or at NaN), which decides every block as hypot alone would.
    """
    exp = expected_magnitude
    sq = x * x + y * y
    lo, hi = (0.5 * exp) ** 2, (1.5 * exp) ** 2
    occupied, ambiguous = sq > lo, sq > hi
    near = ~((np.abs(sq - lo) > 1e-9 * lo) & (np.abs(sq - hi) > 1e-9 * hi))
    if near.any():
        norms = np.hypot(x[near], y[near])
        occupied[near] = norms > 0.5 * exp
        ambiguous[near] = occupied[near] & (np.abs(norms - exp) > 0.5 * exp)
    return occupied, ambiguous


def block_codes(x, y, n_directions):
    """The code rounding: the mask of the codepoint nearest each block's
    angle, round(atan2(x, y) / 2pi * M) mod M, an int64 array."""
    m = subset_count(n_directions)
    codes = np.round(np.arctan2(x, y) / TWO_PI * m).astype(np.int64)
    codes &= m - 1
    return codes


def lowest_member(masks, n_directions):
    """The lowest-member rule: the 1-based index of a mask's lowest
    direction, n_directions for the empty mask; of an int, or of each entry
    of an int64 array."""
    if isinstance(masks, np.ndarray):
        # 2^(j-1) has the binary exponent j
        return np.where(masks > 0, np.frexp(masks & -masks)[1], n_directions)
    mask = int(masks)
    return (mask & -mask).bit_length() or n_directions


def decode_blocks(vec, n_directions, expected_magnitude):
    """The occupied 2-dim blocks of a flat vector vec, decoded: a list of
    (1-based block index, mask), ascending; the one-vector form of
    block_occupancy and block_codes.  expected_magnitude is the norm of a
    block holding one codepoint (e.g. eta/n in the GD iterate's encoding
    subspace), and the circle has M = 2^n_directions codepoints.  Raises
    AmbiguousBlock naming the first ambiguous block."""
    blocks = np.asarray(vec, dtype=np.float64).reshape(-1, 2)
    x, y = blocks[:, 0], blocks[:, 1]
    occupied, ambiguous = block_occupancy(x, y, expected_magnitude)
    if ambiguous.any():
        b = int(np.argmax(ambiguous))
        raise AmbiguousBlock(
            f"block {b + 1}: norm {np.hypot(x[b], y[b]):.3e} is not within "
            f"50% of the single-codepoint magnitude {expected_magnitude:.3e}"
        )
    at = np.flatnonzero(occupied)
    return [(int(b) + 1, int(c))
            for b, c in zip(at, block_codes(x[at], y[at], n_directions))]


def alpha_gd(masks, n_directions):
    """Lowest 1-based direction index absent from the union of the masks;
    N when the union covers everything."""
    union = functools.reduce(operator.or_, masks, 0)
    return lowest_member(full_mask(n_directions) & ~union, n_directions)


def alpha_sgd(masks, n_directions):
    """Lowest 1-based direction index present in every mask; N when the
    intersection is empty, 1 for no masks (the full set)."""
    inter = functools.reduce(operator.and_, masks, full_mask(n_directions))
    return lowest_member(inter, n_directions)


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
