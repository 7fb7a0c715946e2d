"""Full-batch GD hard instance: distribution, loss, and (sub)gradients.

A sample is a pair (V, j): a random subset V of the N codebook directions
plus a random slot j in [n^2].  The weight vector splits into an encoding
subspace (n^2 two-dim blocks, one per slot) followed by T step blocks of
dprime dims each:

    w = [ w^(0) | w^(1) | ... | w^(T) ],   d = 2 n^2 + T * dprime

The loss is a sum of four convex pieces:

- term 1 rewards staying clear of the sampled directions in every step
  block (an L2 norm of per-block hinge maxima, floored at 3*eta/32);
- term 2 is linear and writes the sample's codepoint into its slot block,
  which makes the first GD step record the whole training set in w^(0);
- term 3 reads the training set back out of w^(0) (a max over all possible
  encoded training sets) and pays for movement along the decoded
  "uncovered" direction in block 1;
- term 4 is a ratchet that copies the uncovered direction from block k to
  block k+1, one block per step.

Together these make GD spell out, block by block, a direction no training
sample contains -- so the trained iterate generalizes badly while the
empirical risk looks fine.

Two evaluation modes exist for the read-out term: "oracle" decodes w^(0)
of a whole stack of points at once with encoding's rules (valid exactly in
the trajectory regime; the first point it cannot decode raises
OracleDomain) and "reference" enumerates every candidate encoded training
set (exact everywhere, but only feasible at tiny scales).
"""

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .codebook import default_dim
from .encoding import (
    EncodingLayout,
    alpha_gd,
    block_codes,
    block_occupancy,
    circle_points,
    decode_blocks,
    full_mask,
    lowest_member,
    margin_eps,
    subset_count,
)
from .errors import (
    AmbiguousBlock,
    AttemptsExhausted,
    EventViolated,
    InvalidClosedForm,
    OracleDomain,
    OutOfRange,
    ReferenceTooLarge,
    as_int,
    reading,
)
from .smoothing import row_blocks

REFERENCE_BUDGET = 100_000
MAX_DATASET_DRAWS = 100_000  # reject-until-E gives up after this many draws

# points per block of the batched reference read-out, which both sample-based
# families take through _grouped_max.  Its callers at scale are `--mode
# reference` runs and reference-mode preservation checks, whose loss sees
# blocks of up to smoothing.BLOCK_ROWS (1,024) points; blocks of 64 to 128
# points ran about 3x faster than one unblocked product and bound the
# (points, |group|) temporary, which stays in cache.  Each block takes one
# product per group of the table, and 128 points halve those calls
_READ_ROWS = 128

L1_FLOOR_COEF = 3.0 / 32.0  # the per-block hinge floor is (3/32) * eta


def theorem_step_size(horizon):
    """Step size the guarantees are stated for: eta = 1/(5*sqrt(horizon))."""
    return 1.0 / (5.0 * math.sqrt(horizon))


def above_theorem_step(eta, horizon):
    """Whether eta exceeds theorem_step_size(horizon) by more than a
    relative 1e-12, which lets the cap through when written out in full."""
    return eta > theorem_step_size(horizon) * (1 + 1e-12)


def _fill_defaults(params):
    """Default eta to theorem_step_size(horizon), refusing a given eta that
    is not positive and warning when it exceeds the default, and dprime to
    default_dim(n_directions)."""
    cap = theorem_step_size(params.horizon)
    if params.eta is not None and not params.eta > 0:
        raise OutOfRange(f"need eta > 0; got eta={params.eta}")
    if params.eta is None:
        object.__setattr__(params, "eta", cap)
    elif above_theorem_step(params.eta, params.horizon):
        warnings.warn(
            f"eta={params.eta:.4g} exceeds 1/(5*sqrt({params.horizon}))={cap:.4g}; "
            "closed-form trajectory guarantees need the smaller step",
            stacklevel=4,
        )
    if params.dprime is None:
        object.__setattr__(params, "dprime", default_dim(params.n_directions))


class _SampledParams:
    """What both sample-based families share: the encoding layout (2n^2
    encoding dims, then horizon step blocks of dprime dims), its dimension,
    the slot encoding's margin eps, the hinge floor and the first iterate
    the closed forms check."""

    first_checked_step = 2  # w_1 is the origin for every run

    @cached_property
    def layout(self):
        return EncodingLayout(
            encoding_dim=2 * self.n * self.n,
            block_dim=self.dprime,
            n_blocks=self.horizon,
        )

    @property
    def dim(self):
        return self.layout.total_dim

    @property
    def eps(self):
        """Scaled adjacent-codepoint margin of the slot encoding."""
        return margin_eps(self.n, self.n_directions)

    @property
    def l1_floor(self):
        """Floor of the per-block hinge term: (3/32) * eta."""
        return L1_FLOOR_COEF * self.eta


class _Dataset:
    """What both sample-based training sets share: the sample count n and
    the one dataset file, to_json's payload plus the count of draws
    rejected before the set."""

    @property
    def n(self):
        return len(self.masks)

    def save(self, path, rejections=None):
        with open(path, "w") as fh:
            fh.write(json.dumps({**self.to_json(), "rejections": rejections}))

    @classmethod
    def load(cls, path):
        """(dataset, rejections); a file without a count gives None.  Its
        masks, slots, seed and count must be integers (as_int)."""
        with reading(path, "dataset file"), open(path) as fh:
            payload = json.load(fh)
            return cls.from_json(payload), _optional_int(payload, "rejections")


def _optional_int(payload, key):
    """A payload's integer field: None when null or missing, else as_int's."""
    value = payload.get(key)
    return None if value is None else as_int(value)


@dataclass(frozen=True)
class GdParams(_SampledParams):
    """Shape of one GD hard instance.

    Parameters
    ----------
    n : int
        Training-set size (and slot grid is n^2).
    n_directions : int
        Codebook size N.
    steps : int
        Iterate count T (the trajectory is w_1 .. w_T).
    eta : float, optional
        Step size; defaults to 1/(5*sqrt(T)).  Larger values are allowed
        but warn, since the closed-form trajectory is only guaranteed in
        the small-step regime.
    dprime : int, optional
        Step-block dimension; defaults to default_dim(n_directions).
    """

    n: int
    n_directions: int
    steps: int
    eta: float = None
    dprime: int = None

    family = "gd"
    lipschitz = 5.0
    policies = ("unconditioned", "reject-until-E")
    # block 1's large parts cancel between run and closed form, leaving
    # only correction-scale content, so it is held to the strict tolerance
    strict_blocks = (1,)

    def __post_init__(self):
        if self.n < 1 or self.steps < 2 or self.n_directions < 1:
            raise OutOfRange(
                f"need n >= 1, steps >= 2, n_directions >= 1; got "
                f"n={self.n}, steps={self.steps}, n_directions={self.n_directions}"
            )
        _fill_defaults(self)

    @property
    def horizon(self):
        """Iterate count of the step-size rule and the closed forms: T."""
        return self.steps

    @property
    def beta(self):
        """Weight of the read-out term's movement reward: eps/(4 T^2)."""
        return self.eps / (4.0 * self.steps * self.steps)

    @property
    def delta1(self):
        """Floor of the read-out term: eta/(2n)."""
        return self.eta / (2.0 * self.n)

    @property
    def delta2(self):
        """Floor of the ratchet term: 3*eta*beta/16."""
        return 3.0 * self.eta * self.beta / 16.0

    @property
    def smoothing_delta(self):
        """Smoothing radius the guarantees tolerate: eta*beta/32."""
        return self.eta * self.beta / 32.0

    @property
    def codepoint_magnitude(self):
        """Norm of one slot block of the on-trajectory iterate: eta/n."""
        return self.eta / self.n

    @property
    def reference_count(self):
        """Candidates the reference read-out enumerates: every training set
        of n distinct slots and any subsets, C(n^2, n) * 2^(N n)."""
        m = subset_count(self.n_directions)
        return math.comb(self.n * self.n, self.n) * m**self.n

    @property
    def gap_targets(self):
        """Designed excess-risk targets: (name, target, RiskReport field)."""
        a = self.eta * math.sqrt(self.steps)
        return (
            ("population-excess-last-iterate", a / 128.0, "excess_population"),
            ("population-excess-any-suffix", a / 3200.0, "excess_population"),
        )

    def draw_samples(self, rng, count):
        """The sampling law: (masks, slots) of count independent samples,
        each a uniform subset of the N directions (every direction included
        with probability 1/2) and a uniform slot in [n^2]."""
        masks = rng.integers(0, subset_count(self.n_directions), size=count,
                             dtype=np.int64)
        return masks, rng.integers(1, self.n * self.n + 1, size=count)

    def prepare_samples(self, chunks):
        """The sample-only inputs point_losses reads, for a list of
        (masks, slots) chunks: per chunk, the masks' MaskInputs and each
        sample's slot block index."""
        return tuple((mask_inputs(np.asarray(masks, dtype=np.int64),
                                  self.n_directions),
                      np.asarray(slots, dtype=np.int64) - 1)
                     for masks, slots in chunks)

    def point_losses(self, points, codebook, mode):
        """The family's one loss kernel: losses(prepared) yields, for each
        chunk that prepare_samples made ready, each sample's loss at each
        point of a stack (P, d), shape (P, B).  Built once here: the
        sample-free parts (_sample_free_gd), whose read-out and ratchet are
        terms 3 and 4.  Per chunk, each mask's hinge and each sample's slot
        read; each sample's loss sums its terms in order 1 to 4, terms 3
        and 4 summed first."""
        part = _sample_free_gd(points, self, codebook, mode)
        consts = (part.read + np.maximum(self.delta2,
                                         part.ratchet.max(axis=(1, 2))))[:, None]
        slot_blocks = self.layout.encoding(points).reshape(-1, self.n * self.n, 2)

        def chunk_losses(inputs, slot_rows):
            sin, cos, member = inputs
            out = hinge_terms(part.proj, member, self)
            # term 2: minus the slot block read off at each sample's codepoint
            sel = slot_blocks[:, slot_rows]  # (P, B, 2)
            out += -(sin * sel[..., 0] + cos * sel[..., 1])
            out += consts
            return out

        return lambda prepared: (chunk_losses(*chunk) for chunk in prepared)

    def step_grad(self, w, t, dataset, codebook, mode):
        """The full-batch step's gradient (the same at every step t)."""
        return grad_gd_batch(w, dataset, self, codebook, mode)

    def step_loss(self, t, dataset, codebook, mode):
        """The loss whose subgradient step_grad takes: the training risk."""
        return lambda w: empirical_risk(w, dataset, self, codebook, mode)

    def expected_iterate(self, t, dataset, codebook):
        """Closed-form iterate w_t; w_1 is the origin."""
        if t == 1:
            return np.zeros(self.dim)
        return expected_gd_iterate(t, self, dataset, codebook)

    def margins(self, points, dataset, codebook):
        """The ratchet argmax at each iterate w_1, w_2, ... of a stack, read
        from the loss kernel's table (_ratchet_table), against the floor
        delta2 with slack eta/64; the table has spread from step 4 on."""
        tables = _ratchet_table(self.layout.step_blocks(points) @ codebook.vectors.T)
        best, second, _ = _best_and_second(tables)
        return _margin_steps(best, second, self.delta2, self.eta / 64.0,
                            np.arange(1, len(points) + 1) >= 4)

    def baseline_population(self, baseline_empirical):
        """Population risk of the zero vector: the exact closed form."""
        return population_risk_closed_gd(0, self)

    def draw_dataset(self, seed, policy):
        """A training set under one of the policies: (dataset, rejections).

        The samples follow draw_samples.  With policy="reject-until-E"
        whole datasets are redrawn from the same stream until the good
        event holds (the union of the subsets misses at least one direction
        and all slots are distinct); rejections counts the discarded draws.
        """
        if policy not in self.policies:
            raise OutOfRange(f"unknown sampling policy {policy!r}")
        rng = np.random.default_rng(seed)
        for rejections in range(MAX_DATASET_DRAWS):
            masks, slots = self.draw_samples(rng, self.n)
            ds = GdDataset(masks=tuple(int(v) for v in masks),
                           slots=tuple(int(s) for s in slots), seed=int(seed))
            if policy == "unconditioned" or good_event_gd(ds, self):
                return ds, rejections
        raise AttemptsExhausted(
            f"no dataset satisfied the good event in {MAX_DATASET_DRAWS} draws"
        )

    def good_event(self, dataset):
        return good_event_gd(dataset, self)

    def load_dataset(self, path):
        """A saved training set, refused unless it fits this instance, and
        its recorded rejections: (dataset, rejections)."""
        dataset, rejections = GdDataset.load(path)
        _check_dataset(dataset, self)
        if not all(1 <= s <= self.n * self.n for s in dataset.slots):
            raise OutOfRange(f"dataset slots must lie in [1, {self.n * self.n}]")
        return dataset, rejections


@dataclass(frozen=True)
class GdDataset(_Dataset):
    """A training set: subset masks V_i and slot indices j_i (1-based)."""

    masks: tuple
    slots: tuple
    seed: int = None

    @property
    def samples(self):
        """The training set as the (masks, slots) pair GdParams.point_losses
        reads."""
        return self.masks, self.slots

    def to_json(self):
        return {
            "seed": self.seed,
            "n": self.n,
            "samples": [
                {"mask": int(m), "slot": int(s)}
                for m, s in zip(self.masks, self.slots)
            ],
        }

    @classmethod
    def from_json(cls, payload):
        samples = payload["samples"]
        return cls(
            masks=tuple(as_int(s["mask"]) for s in samples),
            slots=tuple(as_int(s["slot"]) for s in samples),
            seed=_optional_int(payload, "seed"),
        )


def _check_dataset(dataset, params):
    """Refuse a training set of another size n or with a mask outside
    [0, 2^N); returns the dataset."""
    if dataset.n != params.n:
        raise OutOfRange(f"dataset holds {dataset.n} samples; "
                         f"the instance has n={params.n}")
    m = subset_count(params.n_directions)
    if not all(0 <= mask < m for mask in dataset.masks):
        raise OutOfRange(f"dataset masks must lie in [0, {m}) for N={params.n_directions}")
    return dataset


@dataclass(frozen=True)
class EventReport:
    """Outcome of a good-event check; truthy iff the event holds."""

    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class MarginStep:
    """One step's argmax table: the best candidate against the second best
    and against the floor; the gaps are derived from them.  Built by the
    one margin rule, _margin_steps."""

    step: int
    best: float
    second_best: float
    floor: float
    gap_second: float = field(init=False)
    gap_floor: float = field(init=False)
    threshold: float
    applicable: bool
    ok: bool

    def __post_init__(self):
        object.__setattr__(self, "gap_second", self.best - self.second_best)
        object.__setattr__(self, "gap_floor", self.best - self.floor)


def _best_and_second(tables):
    """Each table's best entry, the largest of its other entries (-inf for
    a one-entry table) and the best entry's flat index, of a stack of
    tables (P, ...), each (P,): a flat argmax per table, so ties go to the
    lowest index."""
    flat = tables.reshape(len(tables), -1)
    top = flat.argmax(axis=-1)
    best = flat[np.arange(len(flat)), top]
    others = np.where(np.arange(flat.shape[1]) == top[:, None], -np.inf, flat)
    return best, others.max(axis=-1), top


def _margin_steps(best, second, floor, threshold, applicable, allowance=0.0):
    """The one margin rule: a MarginStep per iterate w_1, w_2, ... of a
    stack, from each step's best and second-best entries (P,).  A step is
    ok when it is not applicable (P,) or when the best entry clears both
    the second best and the floor by more than threshold - allowance, the
    allowance a rounding slack (0, or an array (P,))."""
    cut = threshold - allowance
    ok = ~applicable | ((best - second > cut) & (best - floor > cut))
    return [MarginStep(step=t, best=b, second_best=s, floor=floor,
                       threshold=threshold, applicable=a, ok=o)
            for t, (b, s, a, o) in enumerate(zip(
                best.tolist(), second.tolist(), applicable.tolist(),
                ok.tolist()), start=1)]


def good_event_gd(dataset, params):
    """Check the GD good event: uncovered direction + distinct slots.

    Returns an EventReport whose reason names the violated clause (subset
    union covering every direction, or a slot collision).
    """
    union = 0
    for mask in dataset.masks:
        union |= mask
    if union == full_mask(params.n_directions):
        return EventReport(False, "subset union covers every direction")
    if len(set(dataset.slots)) != len(dataset.slots):
        return EventReport(False, "slot collision")
    return EventReport(True)


# ---------------------------------------------------------------------------
# loss terms
#
# GdParams.point_losses is the one definition of the per-sample loss, for a
# stack of points (P, d) against chunks of samples.  Every other loss
# reduces it: empirical_risk is each point's mean over the training set and
# loss_gd the training risk of a one-sample set.  Each term is a max of
# linear pieces, so its subgradient is the gradient of the piece that
# attains the max.  The kernel's parts return those argmaxes too: the
# hinge's blocks (_hinge_blocks), the read-out (_l3_gd) and the ratchet
# table (_ratchet_table).  The step (grad_gd_batch, whose one-sample case is
# grad_gd) and GdParams.margins read them and compute no term of their own;
# the margins hand the ratchet table to the one margin rule that every
# family's table goes through (_best_and_second, then _margin_steps).
# ---------------------------------------------------------------------------


class MaskInputs(NamedTuple):
    """The sample-only inputs of the mask terms for B masks: each mask's
    circle-point sine and cosine, (B,) each, and its direction membership,
    a (B, N) bool matrix."""

    sin: np.ndarray
    cos: np.ndarray
    member: np.ndarray


def mask_inputs(masks, n_directions):
    """MaskInputs of an int64 mask array (B,)."""
    member = (masks[:, None] >> np.arange(n_directions)[None, :] & 1).astype(bool)
    return MaskInputs(*circle_points(masks, n_directions), member)


def _hinge_blocks(proj, member, params):
    """Term 1's floored block maxima of B masks at each of P points, shape
    (P, B, T-1): per step block k >= 2, max(floor, max over the mask's
    directions u of <u, w^(k)>), from the points' projections proj (P, T, N)
    = step blocks @ codebook.T and the masks' (B, N) membership
    (MaskInputs.member).  The max starts at the floor and takes one
    direction at a time."""
    h = np.full((proj.shape[0], member.shape[0], proj.shape[1] - 1),
                params.l1_floor)
    for u in np.flatnonzero(member.any(axis=0)):
        np.maximum(h, proj[:, None, 1:, u], out=h, where=member[:, u, None])
    return h


def hinge_terms(proj, member, params):
    """Term 1, shared by the full-batch and one-pass families: the hinge of
    B masks at each of P points, shape (P, B), the L2 norm of their
    _hinge_blocks."""
    h = _hinge_blocks(proj, member, params)
    h *= h
    return np.sqrt(h.sum(axis=-1))


def _hinge_grads(proj, member, params, codebook):
    """Term 1's subgradient at one point for each of B masks, from the
    point's projection proj (T, N): per mask, which step blocks k >= 2 sit
    above the floor (bool, (T-1,)), and what each of them adds, its argmax
    direction (ties go to the lowest codebook index) weighted by the block's
    share h_k / ||h|| of the norm, shape (blocks, dprime)."""
    h = _hinge_blocks(proj[None], member, params)[0]  # (B, T-1)
    above = h > params.l1_floor
    if not above.any():  # every block at its floor: no mask adds anything
        return [(on, np.empty((0, codebook.dim))) for on in above]
    weight = h / np.sqrt((h * h).sum(axis=-1))[:, None]
    # a block above its floor holds one member's projection exactly
    star = (member[:, None] & (proj[1:] == h[..., None])).argmax(axis=-1)
    return [(on, weight[b, on, None] * codebook.vectors[star[b, on]])
            for b, on in enumerate(above)]


def _ratchet_table(proj):
    """Term 4's candidates (3/8)<u, w^(k)> - (1/2)<u, w^(k+1)> at each point
    of a stack, from its projection proj (P, T, N): shape (P, N, T-1),
    direction-major, so a flat argmax per point breaks ties toward the
    lowest direction, then the lowest block."""
    proj = np.swapaxes(proj, -1, -2)
    return 0.375 * proj[..., :-1] - 0.5 * proj[..., 1:]


def check_reference_budget(params):
    """Refuse a reference read-out whose enumeration, params.reference_count
    candidates, exceeds REFERENCE_BUDGET."""
    if params.reference_count > REFERENCE_BUDGET:
        raise ReferenceTooLarge(
            f"reference enumeration needs {params.reference_count} candidates "
            f"(budget {REFERENCE_BUDGET}); use the oracle mode"
        )


@lru_cache(maxsize=8)
def _reference_groups_gd(params):
    """Exhaustive encoded-training-set table for the read-out term, grouped
    by uncovered direction.

    Each candidate training set (n distinct slots, any subsets) has one row
    of Psi, (1/n) times its codepoints written into their slot blocks, the
    other blocks zero.  There are params.reference_count of them, so this
    exists only for tiny instances.  They are enumerated slot sets
    (itertools.combinations) outer, subset tuples (itertools.product)
    inner.  Returns (Psi, starts, alphas), grouped by 1-based uncovered
    direction (_by_alpha).
    """
    check_reference_budget(params)
    n, nd = params.n, params.n_directions
    slots = np.array(list(itertools.combinations(range(n * n), n)))  # (C, n)
    masks = np.array(list(itertools.product(range(subset_count(nd)), repeat=n)))
    psi_rows = np.zeros((len(slots), len(masks), n * n, 2))
    psi_rows[np.arange(len(slots))[:, None, None], np.arange(len(masks))[:, None],
             slots[:, None]] = np.stack(circle_points(masks, nd), axis=-1) / n
    psi_rows = psi_rows.reshape(params.reference_count, -1)
    uncovered = lowest_member(full_mask(nd) & ~np.bitwise_or.reduce(masks, axis=1), nd)
    return _by_alpha(np.tile(uncovered.astype(np.int64), len(slots)), psi_rows)


def _by_alpha(alpha_idx, *tables):
    """The one layout of a reference table: each of tables' rows stably
    sorted by their 1-based alpha_idx (a group keeps enumeration order),
    then each group's first row (starts) and its index (alphas)."""
    order = np.argsort(alpha_idx, kind="stable")
    alphas, starts = np.unique(alpha_idx[order], return_index=True)
    return (*(table[order] for table in tables), starts, alphas)


def _grouped_max(x, rows, starts):
    """The one reference read-out: each group's largest x @ row at each point
    of a stack x (P, D), shape (P, G), and the first row attaining it, in
    near-equal blocks of at most _READ_ROWS points (row_blocks), never a
    one-point block of a larger stack (BLAS would round it as a vector
    product)."""
    reads = np.empty((len(x), starts.size))
    attained = np.empty(reads.shape, dtype=np.int64)
    stops = np.append(starts[1:], len(rows))
    for span in row_blocks(len(x), _READ_ROWS):
        block, each = x[span], np.arange(span.stop - span.start)
        for g, (start, stop) in enumerate(zip(starts, stops)):
            prod = block @ rows[start:stop].T
            at = prod.argmax(axis=-1)
            reads[span, g] = prod[each, at]
            attained[span, g] = start + at
    return reads, attained


def _decoded_training_sets(w0, params):
    """(psi, alpha) of a stack of encoding subspaces (P, 2n^2), decoded at
    once by encoding's rules: each row's training set re-encoded, 1/n times
    its codes' circle_points, and its lowest uncovered direction; zeros and
    1 for an empty row.  The first row with an ambiguous block or with
    other than 0 or n occupied slots raises OracleDomain, with the message
    decode_blocks gives that row, an ambiguous block before the count."""
    n, nd, exp = params.n, params.n_directions, params.codepoint_magnitude
    x, y = w0[:, 0::2], w0[:, 1::2]  # each slot block's coordinates (P, n^2)
    occupied, ambiguous = block_occupancy(x, y, exp)
    bad = ambiguous.any(axis=-1) | ~np.isin(occupied.sum(axis=-1), (0, n))
    if bad.any():
        try:
            pairs = decode_blocks(w0[np.argmax(bad)], nd, exp)
        except AmbiguousBlock as exc:
            raise OracleDomain(f"encoding subspace not decodable: {exc}") from exc
        raise OracleDomain(f"decoded {len(pairs)} occupied slots, expected 0 or {n}")
    codes = block_codes(x[occupied], y[occupied], nd)
    psi = np.zeros(x.shape + (2,))
    psi[occupied] = np.stack(circle_points(codes, nd), axis=-1) / n
    union = np.zeros(len(w0), dtype=np.int64)
    np.bitwise_or.at(union, np.nonzero(occupied)[0], codes)
    return psi.reshape(w0.shape), lowest_member(full_mask(nd) & ~union, nd)


def _l3_gd(points, params, codebook, mode):
    """Term 3, the read-out, at each point of a stack (P, d), shape (P,),
    and the candidate that attains it before the floor: its encoded
    training set psi (P, 2n^2) and uncovered direction alpha (P,), 1-based.
    The oracle decodes the stack at once (_decoded_training_sets); the
    reference takes the best group of enumerated candidates, ties going to
    the lowest uncovered direction, then to the first candidate in
    enumeration order."""
    lay = params.layout
    w0, w1 = lay.encoding(points), lay.block(points, 1)
    if mode == "oracle":
        psi, alpha = _decoded_training_sets(w0, params)
        # one vector product per row, rounded as the row's own w0 @ psi
        reads = (w0[:, None] @ psi[..., None])[:, 0, 0] - params.beta * (
            codebook.vectors[alpha - 1][:, None] @ w1[..., None])[:, 0, 0]
        return np.maximum(params.delta1, reads), psi, alpha
    if mode != "reference":
        raise OutOfRange(f"unknown loss mode {mode!r}")
    psi, starts, alphas = _reference_groups_gd(params)
    # each group's best row, then its shared movement term: rounding is
    # monotone, so this is the max of the per-row differences bitwise
    reads, attained = _grouped_max(w0, psi, starts)
    reads -= params.beta * (w1 @ codebook.vectors[alphas - 1].T)  # (P, G)
    best = reads.argmax(axis=-1)
    pick = np.arange(len(points)), best
    return (np.maximum(params.delta1, reads[pick]), psi[attained[pick]],
            alphas[best])


class GdParts(NamedTuple):
    """The sample-free parts of the full-batch loss at a stack of points
    (P, d), with the argmaxes that attain them (_sample_free_gd)."""

    proj: np.ndarray  # (P, T, N): the step blocks @ codebook.T
    read: np.ndarray  # (P,): term 3, floored
    psi: np.ndarray  # (P, 2n^2): the encoded training set that attains it
    alpha: np.ndarray  # (P,): that set's uncovered direction, 1-based
    ratchet: np.ndarray  # (P, N, T-1): term 4's candidates (_ratchet_table)


def _sample_free_gd(points, params, codebook, mode):
    """GdParts of a stack: one projection of its step blocks, which terms 1
    and 4 read, and the read-out."""
    proj = params.layout.step_blocks(points) @ codebook.vectors.T  # (P, T, N)
    return GdParts(proj, *_l3_gd(points, params, codebook, mode),
                   _ratchet_table(proj))


def loss_gd(w, sample, params, codebook, mode="oracle"):
    """Loss of one sample, a (mask, slot) pair, at w: the training risk of
    a one-sample set; w may be a stack of points (P, d).

    mode picks how the read-out term is evaluated: "oracle" (decode w^(0);
    trajectory regime only) or "reference" (exhaustive; tiny instances only).
    """
    mask, slot = sample
    return empirical_risk(w, GdDataset((mask,), (slot,)), params, codebook, mode)


def loss_gd_samples(w, masks, slots, params, codebook, mode="oracle"):
    """Loss of many samples at one point w, shape (B,); w may be a stack of
    points (P, d), giving shape (P, B).  The one-shot case of
    GdParams.point_losses."""
    w = np.asarray(w, dtype=np.float64)
    [out] = params.point_losses(w.reshape(-1, w.shape[-1]), codebook, mode)(
        params.prepare_samples([(masks, slots)]))
    return out[0] if w.ndim == 1 else out


def training_risks(losses, dataset, params):
    """The one training risk: from a stack's point_losses read-out, each
    point's mean loss over the training set (dataset None: the loss)."""
    [vals] = losses(None if dataset is None
                    else params.prepare_samples([dataset.samples]))
    return vals.mean(axis=-1)


def empirical_risk(w, dataset, params, codebook=None, mode="oracle"):
    """training_risks at a point w (d,), a float, or at each point of a
    stack (P, d).  In oracle mode each row is bitwise its one-point value.
    In reference mode a row may differ from it in the last bits: the
    enumerated read-out's matrix products go through BLAS, which picks its
    kernel, and so its rounding, by the shape of the stack (a one-point
    stack takes the vector-product path).  The stack is read out in its
    row_blocks (smoothing's blocks of at most BLOCK_ROWS points, in which
    the smoothing estimators call this on their chunks), each block's loss
    kernel built and reduced before the next one's, which bounds the
    kernel's temporaries (its codebook projection among them).  The
    deterministic family takes dataset None."""
    w = np.asarray(w, dtype=np.float64)
    points = w.reshape(-1, w.shape[-1])
    risks = np.concatenate([
        training_risks(params.point_losses(points[rows], codebook, mode),
                       dataset, params)
        for rows in row_blocks(len(points))
    ])
    return float(risks[0]) if w.ndim == 1 else risks


def grad_gd(w, sample, params, codebook, mode="oracle"):
    """Subgradient of one sample's loss at w (single point only): the
    full-batch step on a one-sample set."""
    mask, slot = sample
    return grad_gd_batch(w, GdDataset((mask,), (slot,)), params, codebook, mode)


def grad_gd_batch(w, dataset, params, codebook, mode="oracle"):
    """Mean subgradient over the training set at a single point w (the
    full-batch step): the gradients of the pieces that the loss kernel's
    argmaxes name (_sample_free_gd of the one-point stack).

    Terms 3 and 4 do not depend on the sample and are written once.  Each
    sample adds its terms 1 and 2, which write a coordinate at most once,
    to a copy of them, and the samples are accumulated in dataset order.
    Addition commutes, so this equals the sum of the per-sample four-term
    subgradients bitwise (up to the sign of a zero, which summing from +0
    erases).  Argmax ties go to the lowest codebook index, then the lowest
    block index, which makes trajectories bitwise reproducible.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise OutOfRange("grad_gd expects a single point, not a batch")
    lay = params.layout
    part = _sample_free_gd(w[None], params, codebook, mode)
    shared = np.zeros_like(w)

    # term 3: the read-out's candidate, active only above its floor
    if part.read[0] > params.delta1:
        lay.encoding(shared)[:] += part.psi[0]
        lay.block(shared, 1)[:] -= params.beta * codebook.vectors[part.alpha[0] - 1]

    # term 4: the ratchet's argmax
    table = part.ratchet[0]
    u_star, k_star = divmod(int(np.argmax(table)), params.steps - 1)
    if table[u_star, k_star] > params.delta2:
        lay.block(shared, k_star + 1)[:] += 0.375 * codebook.vectors[u_star]
        lay.block(shared, k_star + 2)[:] -= 0.5 * codebook.vectors[u_star]

    inputs = mask_inputs(np.asarray(dataset.masks, dtype=np.int64),
                         params.n_directions)
    g = np.zeros_like(w)
    for (on, hinge), sin, cos, slot in zip(
            _hinge_grads(part.proj[0], inputs.member, params, codebook),
            inputs.sin, inputs.cos, dataset.slots):
        g_i = shared.copy()
        lay.step_blocks(g_i)[1:][on] += hinge  # term 1
        # term 2: linear
        lay.encoding(g_i)[2 * (slot - 1): 2 * slot] -= sin, cos
        g += g_i
    return g / dataset.n


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _gd_block_coefficients(t, params):
    """Scalar coefficient of the pinned direction in each step block of w_t."""
    coef = np.zeros(params.steps + 1)  # 1-based
    if t == 2:
        return coef
    coef[1] = (t - 2) * params.eta * params.beta
    if t >= 4:
        coef[1] -= 0.375 * params.eta
        coef[t - 2] = 0.5 * params.eta
    for k in range(2, t - 2):
        coef[k] = params.eta / 8.0
    return coef


def expected_gd_iterate(t, params, dataset, codebook):
    """Exact full-batch iterate w_t under the good event.

    w^(0) is eta/n times the training set's codepoints, each in its slot
    block; every step block is a scalar times the direction the training
    set misses.  The general per-step table needs T >= 8 to keep its
    warm-up and steady-state ranges from overlapping, so smaller horizons
    are refused outright.

    Raises
    ------
    EventViolated
        If the dataset fails the good event.
    InvalidClosedForm
        If t is outside [2, T] or T < 8.
    """
    if params.steps < 8:
        raise InvalidClosedForm(
            f"per-step closed form needs steps >= 8; got {params.steps}"
        )
    if not 2 <= t <= params.steps:
        raise InvalidClosedForm(f"iterate {t} outside closed-form range [2, {params.steps}]")
    report = good_event_gd(dataset, params)
    if not report:
        raise EventViolated(f"good event fails: {report.reason}")

    lay = params.layout
    w = np.zeros(params.dim)
    # the good event's slots are distinct: each codepoint has its own block
    enc = lay.encoding(w).reshape(-1, 2)
    enc[np.asarray(dataset.slots) - 1] = (params.eta / params.n) * np.stack(
        circle_points(np.asarray(dataset.masks), params.n_directions), axis=-1)

    u0 = codebook.vectors[alpha_gd(dataset.masks, params.n_directions) - 1]
    coef = _gd_block_coefficients(t, params)
    for k in range(1, params.steps + 1):
        if coef[k] != 0.0:
            lay.block(w, k)[:] = coef[k] * u0
    return w


def population_risk_closed_gd(point, params):
    """Exact population risk of a closed-form full-batch point.

    point is an iterate index t (0 or 1 give the zero vector; the per-step
    form is stated from t = 5, so 2 <= t < 5 is refused) or ("suffix", m)
    for the mean of the last m closed-form iterates.  Conditioned on the
    training set's good event, a fresh sample moves the loss only through
    whether its subset contains the direction the training set missed, so
    the expectation is the mean of two branch values plus the
    sample-independent terms.  The value does not depend on which direction
    that is.

    Suffix windows are accepted while the pinned direction's ratchet
    candidates provably outbid every other direction regardless of the
    codebook; longer windows raise InvalidClosedForm.
    """
    T = params.steps
    if T < 8:
        raise InvalidClosedForm(f"per-step closed form needs steps >= 8; got {T}")
    if isinstance(point, tuple):
        tag, m = point
        if tag != "suffix":
            raise OutOfRange(f"unknown point tag {tag!r}")
        if not 1 <= m <= T:
            raise OutOfRange(f"suffix length {m} not in [1, {T}]")
        window = range(T - m + 1, T + 1)
    else:
        t = int(point)
        if t in (0, 1):
            window = ()
        elif 5 <= t <= T:
            window = (t,)
        else:
            raise InvalidClosedForm(
                f"iterate {t} outside the closed-form risk range ({{0, 1}} or [5, {T}])"
            )

    m = max(len(window), 1)
    coefs = np.zeros(T + 1)
    rho_hits = 0
    for t in window:
        if t >= 2:
            coefs += _gd_block_coefficients(t, params)
            rho_hits += 1
    coefs /= m
    rho = rho_hits / m

    floor = params.l1_floor
    h_in = np.maximum(floor, coefs[2:])
    branch_in = math.sqrt(float(h_in @ h_in))
    branch_out = floor * math.sqrt(T - 1)
    l1 = 0.5 * (branch_in + branch_out)

    l3 = max(params.delta1, rho * params.eta / params.n - params.beta * coefs[1])

    cand = 0.375 * coefs[1:T] - 0.5 * coefs[2: T + 1]
    best = float(cand.max()) if cand.size else 0.0
    if cand.size and best < float(np.abs(cand).max()) / 8.0:
        raise InvalidClosedForm(
            "suffix window too long: a coherence-bounded direction could "
            "outbid the pinned one, so no codebook-free value exists"
        )
    l4 = max(params.delta2, best)
    return l1 + l3 + l4
