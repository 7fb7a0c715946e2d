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
(valid exactly in the trajectory regime; raises OracleDomain elsewhere) and
"reference" enumerates every candidate encoded training set (exact
everywhere, but only feasible at tiny scales).
"""

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codebook import default_dim
from .encoding import (
    TWO_PI,
    EncodingLayout,
    alpha_gd,
    circle_point,
    decode_blocks,
    encode_gd,
    full_mask,
    margin_eps,
    mask_members,
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
    reading,
)

REFERENCE_BUDGET = 100_000
MAX_DATASET_DRAWS = 100_000  # reject-until-E gives up after this many draws

# points per block of a training risk over a stack: each block's loss kernel
# is built and reduced before the next one's, which bounds the kernel's
# temporaries (its codebook projection among them) on 8192-row chunks
_RISK_ROWS = 1024

# rows per block of the batched reference read-out: on 8192-row smoothing
# chunks, blocks of 64 to 128 rows ran about 3x faster than one unblocked
# product (the (rows, |Psi|) temporary stays in cache); 64 is the smallest
_READ_ROWS = 64

L1_FLOOR_COEF = 3.0 / 32.0  # the per-block hinge floor is (3/32) * eta


def theorem_step_size(horizon):
    """Step size the guarantees are stated for: eta = 1/(5*sqrt(horizon))."""
    return 1.0 / (5.0 * math.sqrt(horizon))


def _fill_defaults(params):
    """Default eta to theorem_step_size(horizon), warning when a given eta
    exceeds it, and dprime to default_dim(n_directions)."""
    cap = theorem_step_size(params.horizon)
    if params.eta is None:
        object.__setattr__(params, "eta", cap)
    elif params.eta > cap * (1 + 1e-12):
        warnings.warn(
            f"eta={params.eta:.4g} exceeds 1/(5*sqrt({params.horizon}))={cap:.4g}; "
            "closed-form trajectory guarantees need the smaller step",
            stacklevel=4,
        )
    if params.dprime is None:
        object.__setattr__(params, "dprime", default_dim(params.n_directions))


@dataclass(frozen=True)
class GdParams:
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
    first_checked_step = 2  # w_1 is the origin for every run
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
    def l1_floor(self):
        """Floor of the per-block hinge term: (3/32) * eta."""
        return L1_FLOOR_COEF * self.eta

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
        point of a stack (P, d), shape (P, B); the sample-free terms are
        built once here."""
        return _point_losses_gd(points, self, codebook, mode)

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

    def margins(self, w, t, dataset, codebook):
        """The ratchet argmax at w_t against the floor delta2, with slack
        eta/64; the table has spread from step 4 on."""
        best, second = _second_excluding_argmax(_l4_candidates(w, self, codebook))
        thr = self.eta / 64.0
        applicable = t >= 4
        ok = (not applicable) or (best - second > thr and best - self.delta2 > thr)
        return MarginStep(step=t, best=best, second_best=second,
                          floor=self.delta2, threshold=thr,
                          applicable=applicable, ok=bool(ok))

    def baseline_population(self, baseline_empirical):
        """Population risk of the zero vector: the exact closed form."""
        return population_risk_closed_gd(0, self)

    def draw_dataset(self, seed, policy):
        """A training set under one of the policies: (dataset, rejections)."""
        return draw_gd_dataset(self, seed, policy)

    def good_event(self, dataset):
        return good_event_gd(dataset, self)

    def load_dataset(self, path):
        """A saved training set, refused unless it fits this instance."""
        dataset = _check_dataset(GdDataset.load(path), self)
        if not all(1 <= s <= self.n * self.n for s in dataset.slots):
            raise OutOfRange(f"dataset slots must lie in [1, {self.n * self.n}]")
        return dataset


class _Dataset:
    """What both sample-based training sets share: the sample count n and
    the JSON file round trip of to_json/from_json."""

    @property
    def n(self):
        return len(self.masks)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json()))

    @classmethod
    def load(cls, path):
        with reading(path, "dataset file"), open(path) as fh:
            return cls.from_json(json.load(fh))


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
            masks=tuple(int(s["mask"]) for s in samples),
            slots=tuple(int(s["slot"]) for s in samples),
            seed=payload.get("seed"),
        )


def draw_gd_dataset(params, seed, policy="unconditioned"):
    """Draw a training set from the GD hard distribution: (dataset, rejections).

    The samples follow GdParams.draw_samples.  With
    policy="reject-until-E" whole datasets are redrawn from the same stream
    until the good event holds (union of the subsets misses at least one
    direction AND all slots are distinct); rejections counts the discarded
    draws.
    """
    if policy not in params.policies:
        raise OutOfRange(f"unknown sampling policy {policy!r}")
    rng = np.random.default_rng(seed)
    for rejections in range(MAX_DATASET_DRAWS):
        masks, slots = params.draw_samples(rng, params.n)
        ds = GdDataset(masks=tuple(int(v) for v in masks),
                       slots=tuple(int(s) for s in slots), seed=int(seed))
        if policy == "unconditioned" or good_event_gd(ds, params):
            return ds, rejections
    raise AttemptsExhausted(
        f"no dataset satisfied the good event in {MAX_DATASET_DRAWS} draws"
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
    and against the floor; the gaps are derived from them."""

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


def _second_excluding_argmax(table):
    """The largest entry of table and the largest of the others."""
    flat = table.ravel()
    top = int(np.argmax(flat))
    rest = np.delete(flat, top)
    return float(flat[top]), (float(rest.max()) if rest.size else -np.inf)


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
# loss_gd the training risk of a one-sample set.  The step (grad_gd_batch,
# whose one-sample case is grad_gd) keeps its own per-sample products, to
# which the trajectories are pinned.
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
    angle = TWO_PI * (masks / subset_count(n_directions))
    member = (masks[:, None] >> np.arange(n_directions)[None, :] & 1).astype(bool)
    return MaskInputs(np.sin(angle), np.cos(angle), member)


def hinge_terms(proj, member, params):
    """Term 1, shared by the full-batch and one-pass families: the hinge of
    B masks at each of P points, shape (P, B).  It is the L2 norm over step
    blocks k >= 2 of max(floor, max over the mask's directions u of
    <u, w^(k)>), from the points' projections proj (P, T, N) = step blocks
    @ codebook.T and the masks' (B, N) membership (MaskInputs.member).  The
    max starts at the floor and takes one direction at a time."""
    h = np.full((proj.shape[0], member.shape[0], proj.shape[1] - 1),
                params.l1_floor)
    for u in np.flatnonzero(member.any(axis=0)):
        np.maximum(h, proj[:, None, 1:, u], out=h, where=member[:, u, None])
    h *= h
    return np.sqrt(h.sum(axis=-1))


def add_hinge_grad(g, w, mask, params, codebook):
    """Add the hinge's (term 1's) subgradient at a single point w into g.

    Each block above its floor gets its argmax direction, weighted by the
    block's share of the norm; ties go to the lowest codebook index.
    """
    rows = [r - 1 for r in mask_members(mask, params.n_directions)]
    if not rows:
        return
    lay = params.layout
    vals = lay.step_blocks(w) @ codebook.vectors[rows].T  # (T, |V|)
    inner = vals.max(axis=1)
    floor = params.l1_floor
    h = np.maximum(floor, inner[1:])
    l1 = math.sqrt(float((h * h).sum()))
    if l1 > 0.0:
        for k in range(2, lay.n_blocks + 1):
            if inner[k - 1] > floor:
                star = rows[int(np.argmax(vals[k - 1]))]
                lay.block(g, k)[:] += (h[k - 2] / l1) * codebook.vectors[star]


def _l4_candidates(w, params, codebook):
    """Ratchet candidates (3/8)<u,w^(k)> - (1/2)<u,w^(k+1)>, shape (..., N, T-1)."""
    blocks = params.layout.step_blocks(w)
    proj = blocks @ codebook.vectors.T  # (..., T, N)
    proj = np.swapaxes(proj, -1, -2)  # (..., N, T)
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
def _reference_table_gd(params):
    """Exhaustive encoded-training-set table for the read-out term.

    Returns (Psi, alpha_indices): Psi has one row per candidate training
    set (n distinct slots, any subsets), holding (1/n) * sum of the slot
    codepoints; alpha_indices holds the 1-based uncovered-direction index
    for each row.  Row count is params.reference_count, so this exists
    only for tiny instances.
    """
    check_reference_budget(params)
    n, n_directions = params.n, params.n_directions
    n_slots = n * n
    psi_rows = np.zeros((params.reference_count, 2 * n_slots))
    alpha_idx = np.zeros(params.reference_count, dtype=np.int64)
    r = 0
    for slot_combo in itertools.combinations(range(1, n_slots + 1), n):
        for masks in itertools.product(range(subset_count(n_directions)),
                                       repeat=n):
            acc = np.zeros(2 * n_slots)
            for mask, slot in zip(masks, slot_combo):
                acc += encode_gd(mask, slot, n, n_directions)
            psi_rows[r] = acc / n
            alpha_idx[r] = alpha_gd(masks, n_directions)
            r += 1
    return psi_rows, alpha_idx


@lru_cache(maxsize=8)
def _reference_groups_gd(params):
    """The reference table regrouped by uncovered direction.

    Returns (Psi, starts, alphas): the Psi rows stably sorted by alpha
    index, the first row of each group, and each group's alpha index.  The
    gradient keeps reading _reference_table_gd, whose enumeration order
    breaks its argmax ties.
    """
    psi, alpha_idx = _reference_table_gd(params)
    order = np.argsort(alpha_idx, kind="stable")
    alphas, starts = np.unique(alpha_idx[order], return_index=True)
    return psi[order], starts, alphas


def _decode_training_set(w0, params):
    """Decode the slot blocks of a single encoding-subspace vector.

    Returns (psi_star, alpha_index): the re-encoded (1/n)*sum vector and the
    uncovered-direction index of the decoded training set.  An empty
    subspace decodes to (zeros, index 1); anything with a partial or
    ambiguous occupancy raises OracleDomain.
    """
    try:
        pairs = decode_blocks(
            w0, params.n_directions, expected_magnitude=params.codepoint_magnitude
        )
    except AmbiguousBlock as exc:
        raise OracleDomain(f"encoding subspace not decodable: {exc}") from exc
    if not pairs:
        return np.zeros_like(w0), 1
    if len(pairs) != params.n:
        raise OracleDomain(
            f"decoded {len(pairs)} occupied slots, expected 0 or {params.n}"
        )
    acc = np.zeros_like(w0)
    for slot, mask in pairs:
        acc += encode_gd(mask, slot, params.n, params.n_directions)
    return acc / params.n, alpha_gd([mask for _, mask in pairs], params.n_directions)


def _oracle_read_out(w, params, codebook):
    """Term 3's candidate at a single point in the oracle mode, from the
    decoded training set: (value, psi*, u_alpha)."""
    lay = params.layout
    w0 = lay.encoding(w)
    psi_star, alpha_idx = _decode_training_set(w0, params)
    u_alpha = codebook.vectors[alpha_idx - 1]
    value = float(w0 @ psi_star) - params.beta * float(u_alpha @ lay.block(w, 1))
    return value, psi_star, u_alpha


def _l3_gd(points, params, codebook, mode):
    """Term 3, the read-out, at each point of a stack (P, d), shape (P,)."""
    if mode == "oracle":
        return np.maximum(params.delta1, np.array(
            [_oracle_read_out(w, params, codebook)[0] for w in points]))
    if mode != "reference":
        raise OutOfRange(f"unknown loss mode {mode!r}")
    psi, starts, alphas = _reference_groups_gd(params)
    # max over each group's rows first, then subtract the group's shared
    # movement term: rounding is monotone, so this equals the max of the
    # per-row differences bitwise.  Equal blocks of at most _READ_ROWS rows
    # keep the (rows, |Psi|) product in cache.  A stack of two or more rows
    # never gets a one-row block, which BLAS would round as a vector
    # product, so each row's reads equal one product's bitwise
    reads = np.empty((len(points), starts.size))
    n_blocks = max(1, -(-len(points) // _READ_ROWS))
    for out, rows in zip(np.array_split(reads, n_blocks),
                         np.array_split(params.layout.encoding(points), n_blocks)):
        out[...] = np.maximum.reduceat(rows @ psi.T, starts, axis=-1)
    moves = params.beta * (params.layout.block(points, 1)
                           @ codebook.vectors[alphas - 1].T)  # (P, G)
    return np.maximum(params.delta1, (reads - moves).max(axis=-1))


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


def _point_losses_gd(points, params, codebook, mode):
    """GdParams.point_losses.  Built once per stack: the projection of the
    step blocks, the read-out and the ratchet (terms 3 and 4, which do not
    depend on the sample).  Per chunk, each mask's hinge and each sample's
    slot read, as one (P, B) array; each sample's loss sums its terms in
    order 1 to 4, terms 3 and 4 summed first."""
    lay = params.layout
    proj = lay.step_blocks(points) @ codebook.vectors.T  # (P, T, N)
    ratchet = (0.375 * proj[:, :-1] - 0.5 * proj[:, 1:]).max(axis=(1, 2))
    consts = (_l3_gd(points, params, codebook, mode)
              + np.maximum(params.delta2, ratchet))[:, None]
    slot_blocks = lay.encoding(points).reshape(-1, params.n * params.n, 2)

    def chunk_losses(inputs, slot_rows):
        sin, cos, member = inputs
        out = hinge_terms(proj, member, params)
        # term 2: minus the slot block read off at each sample's codepoint
        sel = slot_blocks[:, slot_rows]  # (P, B, 2)
        out += -(sin * sel[..., 0] + cos * sel[..., 1])
        out += consts
        return out

    return lambda prepared: (chunk_losses(*chunk) for chunk in prepared)


def training_risks(losses, dataset, params):
    """The one training risk: from a stack's point_losses read-out, each
    point's mean loss over the training set (dataset None: the loss)."""
    [vals] = losses(None if dataset is None
                    else params.prepare_samples([dataset.samples]))
    return vals.mean(axis=-1)


def empirical_risk(w, dataset, params, codebook=None, mode="oracle"):
    """training_risks at a point w (d,), a float, or at each point of a
    stack (P, d), each bitwise its one-point value; the stack is read out in
    blocks of _RISK_ROWS points.  The deterministic family takes dataset
    None."""
    w = np.asarray(w, dtype=np.float64)
    points = w.reshape(-1, w.shape[-1])
    risks = np.concatenate([
        training_risks(params.point_losses(rows, codebook, mode), dataset, params)
        for rows in np.array_split(points, max(1, -(-len(points) // _RISK_ROWS)))
    ])
    return float(risks[0]) if w.ndim == 1 else risks


def grad_gd(w, sample, params, codebook, mode="oracle"):
    """Subgradient of one sample's loss at w (single point only): the
    full-batch step on a one-sample set."""
    mask, slot = sample
    return grad_gd_batch(w, GdDataset((mask,), (slot,)), params, codebook, mode)


def grad_gd_batch(w, dataset, params, codebook, mode="oracle"):
    """Mean subgradient over the training set at a single point w (the
    full-batch step).

    Terms 3 and 4 do not depend on the sample and are built once.  Each
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
    shared = np.zeros_like(w)

    # term 3: decoded read-out, active only above its floor
    if mode == "reference":
        psi, alpha_idx = _reference_table_gd(params)
        u_alpha = codebook.vectors[alpha_idx - 1]
        vals = psi @ lay.encoding(w) - params.beta * (u_alpha @ lay.block(w, 1))
        best = int(np.argmax(vals))
        value, psi_star, u_alpha = vals[best], psi[best], u_alpha[best]
    elif mode == "oracle":
        value, psi_star, u_alpha = _oracle_read_out(w, params, codebook)
    else:
        raise OutOfRange(f"unknown loss mode {mode!r}")
    if value > params.delta1:
        lay.encoding(shared)[:] += psi_star
        lay.block(shared, 1)[:] -= params.beta * u_alpha

    # term 4: ratchet argmax (u-major flattening = lowest direction wins ties)
    cands = _l4_candidates(w, params, codebook)  # (N, T-1)
    u_star, k_star = divmod(int(np.argmax(cands)), params.steps - 1)
    if cands[u_star, k_star] > params.delta2:
        lay.block(shared, k_star + 1)[:] += 0.375 * codebook.vectors[u_star]
        lay.block(shared, k_star + 2)[:] -= 0.5 * codebook.vectors[u_star]

    g = np.zeros_like(w)
    for mask, slot in zip(dataset.masks, dataset.slots):
        g_i = shared.copy()
        # term 1: weighted argmax directions where the hinge is above floor
        add_hinge_grad(g_i, w, mask, params, codebook)
        # term 2: linear
        lay.encoding(g_i)[2 * (slot - 1): 2 * slot] -= circle_point(
            mask, params.n_directions)
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

    w^(0) is eta/n times the summed training-set encoding; every step block
    is a scalar times the direction the training set misses.  The general
    per-step table needs T >= 8 to keep its warm-up and steady-state ranges
    from overlapping, so smaller horizons are refused outright.

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
    enc = np.zeros(lay.encoding_dim)
    for mask, slot in zip(dataset.masks, dataset.slots):
        enc += encode_gd(mask, slot, params.n, params.n_directions)
    lay.encoding(w)[:] = (params.eta / params.n) * enc

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
