"""One-pass SGD hard instance: sparse distribution, loss, and oracles.

A sample is a single sparse subset V of the N codebook directions (each
direction included independently with probability 1/(4n^2)).  The weight
vector splits into an encoding subspace of n groups -- group r is a 2n-dim
vector of n two-dim position blocks -- followed by n step blocks:

    w = [ w^(0,1) | ... | w^(0,n) | w^(1) | ... | w^(n) ],  d = 2n^2 + n*dprime

The loss is a sum of three convex pieces:

- term 1 is the same per-block hinge norm as the GD instance (blocks 2..n);
- term 2 is a max over candidates (k, u, psi) that simultaneously reads the
  length-k sample prefix out of group k, rewards movement along u in block
  k, charges movement in block k+1 along the prefix's "still-common"
  direction, and shifts the prefix (extended by the current sample) from
  group k to group k+1;
- term 3 is linear: it writes the current sample into position 1 of group 1
  and nudges block 1 along a fixed direction (the first codebook vector).

Run one pass of SGD and each step drains the prefix from group t-1 into
group t while block t picks up half a step of the direction every earlier
sample still contains -- a direction fresh samples almost never contain, so
the iterates underfit the empirical risk in a precisely known way.

Oracle mode decodes group contents on the fly (a batch of points in one
pass over positions, once for all samples); groups that do not hold a clean
length-k prefix (group 1 accumulates a superposition of codepoints in one
block after a few steps) fall back to the zero candidate psi = 0, which
keeps the oracle total equal to the true max along trajectories.  Reference
mode enumerates every possible prefix encoding and is exact everywhere but
only feasible at tiny scales.  Either read-out also returns the prefix that
attains it, so the loss, the step and the margin check read one decode,
built once per stack of points.  Ties across candidates are broken toward
the lowest codebook index, then the lowest block index.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .encoding import (
    alpha_sgd,
    block_codes,
    block_occupancy,
    circle_points,
    full_mask,
    lowest_member,
    subset_count,
)
from .errors import (
    EventViolated,
    InfeasibleForcing,
    InvalidClosedForm,
    OutOfRange,
    as_int,
)
from .instance_gd import (
    EventReport,
    _best_and_second,
    _check_dataset,
    _by_alpha,
    _Dataset,
    _fill_defaults,
    _grouped_max,
    _hinge_grads,
    _margin_steps,
    _optional_int,
    _SampledParams,
    check_reference_budget,
    empirical_risk,
    hinge_terms,
    mask_inputs,
)
from .smoothing import row_blocks


@dataclass(frozen=True)
class SgdParams(_SampledParams):
    """Shape of one SGD hard instance (sample count n doubles as the step count).

    Parameters
    ----------
    n : int
        Training-set size, at least 2; the run makes n-1 updates producing
        w_1 .. w_n.
    n_directions : int
        Codebook size N.
    eta : float, optional
        Step size; defaults to 1/(5*sqrt(n)), warns above it.
    dprime : int, optional
        Step-block dimension; defaults to default_dim(n_directions).
    """

    n: int
    n_directions: int
    eta: float = None
    dprime: int = None

    family = "sgd"
    lipschitz = 4.0
    policies = ("unconditioned", "force")
    strict_blocks = ()

    def __post_init__(self):
        # a one-sample pass makes no update
        if self.n < 2 or self.n_directions < 1:
            raise OutOfRange(
                f"need n >= 2 and n_directions >= 1; got "
                f"n={self.n}, n_directions={self.n_directions}"
            )
        _fill_defaults(self)

    @property
    def horizon(self):
        """Iterate count of the step-size rule and the closed forms: n."""
        return self.n

    @property
    def inclusion_probability(self):
        """Per-direction sampling probability: 1/(4 n^2)."""
        return 1.0 / (4.0 * self.n * self.n)

    @property
    def delta1(self):
        """Floor of the prefix-shift term: eta/(8 n^3)."""
        return self.eta / (8.0 * self.n**3)

    @property
    def smoothing_delta(self):
        """Smoothing radius the guarantees tolerate: eta*eps/(32 n^3)."""
        return self.eta * self.eps / (32.0 * self.n**3)

    @property
    def group_codepoint_magnitude(self):
        """Norm of one occupied position block on trajectory: eta/(4 n^2)."""
        return self.eta / (4.0 * self.n * self.n)

    @property
    def reference_count(self):
        """Candidates the reference read-out enumerates: every prefix of
        k = 1 .. n-1 subsets, the sum of 2^(N k)."""
        m = subset_count(self.n_directions)
        return sum(m**k for k in range(1, self.n))

    @property
    def gap_targets(self):
        """Designed excess-risk target: (name, target, RiskReport field)."""
        a = self.eta * math.sqrt(self.n) / 64000.0
        return (("empirical-excess-any-suffix", a, "excess_empirical"),)

    def group(self, w, r):
        """View of encoding group r (1-based), a 2n-dim slice of w."""
        if not 1 <= r <= self.n:
            raise OutOfRange(f"group {r} not in [1, {self.n}]")
        lo = 2 * self.n * (r - 1)
        return w[..., lo: lo + 2 * self.n]

    def draw_samples(self, rng, count):
        """The sampling law: int64 masks of count independent subsets, each
        direction included with probability 1/(4 n^2).  The row_blocks of
        uniforms continue one stream, so the masks do not depend on the
        blocking."""
        weights = np.int64(1) << np.arange(self.n_directions, dtype=np.int64)
        masks = np.empty(count, dtype=np.int64)
        for rows in row_blocks(count):
            uniforms = rng.random((rows.stop - rows.start, self.n_directions))
            masks[rows] = (uniforms < self.inclusion_probability) @ weights
        return masks

    def prepare_samples(self, chunks):
        """The sample-only inputs point_losses reads, for a list of mask
        arrays: the MaskInputs of the distinct masks of all of them (a
        sample holds few at inclusion probability 1/(4n^2)), and per chunk
        each sample's row among those."""
        chunks = [np.asarray(masks, dtype=np.int64) for masks in chunks]
        distinct, inverse = np.unique(np.concatenate(chunks),
                                      return_inverse=True)
        bounds = np.cumsum([masks.size for masks in chunks[:-1]], dtype=np.int64)
        return (mask_inputs(distinct, self.n_directions),
                tuple(np.split(inverse, bounds)))

    def point_losses(self, points, codebook, mode):
        """The family's one loss kernel: losses(prepared) yields, for each
        chunk that prepare_samples made ready, each sample's loss at each
        point of a stack (P, d), shape (P, B); the read-out is built once
        here.  Each call sums, in order 1 to 3, the terms of the distinct
        masks of its prepared samples once, then gathers each chunk back
        into sample order."""
        terms = _loss_terms_sgd(points, self, codebook, mode)

        def losses(prepared):
            table = sum(terms(prepared[0]))
            return (np.take(table, inverse, axis=1) for inverse in prepared[1])

        return losses

    def step_sample(self, t, dataset):
        """The mask step t consumes; the final iterate, which consumes none,
        is paired with the last sample."""
        return dataset.masks[min(t, dataset.n) - 1]

    def step_grad(self, w, t, dataset, codebook, mode):
        """The one-pass step's gradient: the loss of the sample step t consumes."""
        return grad_sgd(w, self.step_sample(t, dataset), self, codebook, mode)

    def step_loss(self, t, dataset, codebook, mode):
        """The loss whose subgradient step_grad takes."""
        mask = self.step_sample(t, dataset)
        return lambda w: loss_sgd(w, mask, self, codebook, mode=mode)

    def expected_iterate(self, t, dataset, codebook):
        """Closed-form iterate w_t; w_1 is the origin."""
        if t == 1:
            return np.zeros(self.dim)
        return expected_sgd_iterate(t, self, dataset, codebook)

    def margins(self, points, dataset, codebook):
        """Term 2's argmax at each iterate w_1, w_2, ... of a stack, for the
        sample step t consumes, read from the loss kernel's decoded table
        (_l2_table), against the floor delta1 with slack eta*eps/(16 n^2).
        The second best also ranges over the candidates one codepoint step
        away from the decoded argmax prefix (_adjacent_reads).  The tables
        and the candidates of every step are arrays over the stack: the best
        and second-best entries come from one pass over the tables."""
        n = self.n
        parts = _sample_free_sgd(points, self, codebook, "oracle")
        masks = [self.step_sample(t, dataset) for t in range(1, len(points) + 1)]
        inputs, (rows,) = self.prepare_samples([masks])
        couplings = _sample_reads(parts, inputs, self)[np.arange(len(points)), rows, 1:]
        best, second, top = _best_and_second(_l2_table(parts, couplings))
        codepoints = np.stack((inputs.sin, inputs.cos), axis=-1)[rows]
        second = np.maximum(second, _adjacent_reads(
            points, parts, np.divmod(top, n - 1), codepoints, self))
        # the adjacent-codepoint gap meets the threshold with equality by
        # construction, so allow rounding slack at the scale of the
        # cancelled candidates
        return _margin_steps(best, second, self.delta1,
                             self.eta * self.eps / (16.0 * n * n),
                             np.arange(1, len(points) + 1) >= 2,
                             64.0 * np.finfo(float).eps * np.abs(best))

    def baseline_population(self, baseline_empirical):
        """Population risk of the zero vector: its training risk, since the
        loss at the origin does not depend on the sample."""
        return baseline_empirical

    def draw_dataset(self, seed, policy):
        """A training set under one of the policies: (dataset, 0), since
        neither policy rejects a draw."""
        if policy not in self.policies:
            raise OutOfRange(f"unknown sampling policy {policy!r}")
        draw = force_good_event_sgd if policy == "force" else sample_sgd_dataset
        return draw(self, seed), 0

    def good_event(self, dataset):
        return good_event_sgd(dataset, self)

    def load_dataset(self, path):
        """A saved training set, refused unless it fits this instance, and
        its recorded rejections: (dataset, rejections)."""
        dataset, rejections = SgdDataset.load(path)
        return _check_dataset(dataset, self), rejections


@dataclass(frozen=True)
class SgdDataset(_Dataset):
    """A training set: one subset mask per sample position."""

    masks: tuple
    seed: int = None

    @property
    def samples(self):
        """The training set as the masks SgdParams.point_losses reads."""
        return self.masks

    def to_json(self):
        return {"seed": self.seed, "n": self.n, "masks": [int(m) for m in self.masks]}

    @classmethod
    def from_json(cls, payload):
        return cls(masks=tuple(as_int(m) for m in payload["masks"]),
                   seed=_optional_int(payload, "seed"))


def sample_sgd_dataset(params, seed):
    """Draw n subsets, each direction included with probability 1/(4 n^2)
    (SgdParams.draw_samples)."""
    masks = params.draw_samples(np.random.default_rng(seed), params.n)
    return SgdDataset(masks=tuple(int(m) for m in masks), seed=int(seed))


def force_good_event_sgd(params, seed):
    """Construct a dataset on which the SGD good event provably holds.

    Picks increasing direction indices c_2 < ... < c_n from {2..N} and wires
    membership so v_{c_t} belongs to exactly the sets before step t; that
    makes the running intersection at step t exactly {c_t, ..., c_n}, whose
    minimum c_t no later set contains.  Direction 1 is kept out of every set
    (the step-1 clause) and the remaining free directions are sprinkled with
    the distribution's own inclusion probability into sets 2..n only, which
    cannot disturb the forced pattern: one (n-1, free) draw of uniforms,
    set-major, after the anchors.  The result is re-checked with
    good_event_sgd; a failed re-check is a fault of the construction,
    raised as EventViolated rather than hidden by drawing again.
    """
    n, nd = params.n, params.n_directions
    if nd < n + 1:
        raise InfeasibleForcing(
            f"forcing needs n_directions >= n+1; got N={nd}, n={n}"
        )
    rng = np.random.default_rng(seed)
    p = params.inclusion_probability
    anchors = np.sort(rng.choice(np.arange(2, nd + 1), size=n - 1, replace=False))
    free = np.setdiff1d(np.arange(2, nd + 1), anchors)
    member = np.zeros((n, nd), dtype=bool)  # row i-1 is V_i, column r-1 is v_r
    # v_{c_t} (anchors[t-2]) in V_i iff i < t
    member[:, anchors - 1] = np.arange(n)[:, None] < np.arange(1, n)
    member[1:, free - 1] = rng.random((n - 1, free.size)) < p
    masks = member @ (np.int64(1) << np.arange(nd, dtype=np.int64))
    ds = SgdDataset(masks=tuple(int(m) for m in masks), seed=int(seed))
    report = good_event_sgd(ds, params)
    if not report:
        raise EventViolated(f"forced dataset (seed {seed}) misses the good "
                            f"event: {report.reason}")
    return ds


@dataclass(frozen=True)
class EventStep:
    """Running-intersection state at one step: P_t, S_t as masks, J_t index."""

    step: int
    p_mask: int
    s_mask: int
    j: int  # min-index member of P_t; 0 when P_t is empty


def event_state_sgd(masks, n_directions):
    """P_t / S_t / J_t for t = 1..n (1-based steps).

    P_t intersects the sets before step t (P_1 is the full universe), S_t
    intersects the complements from step t on, and J_t is the lowest-index
    member of P_t.  The states of a training set are built once and kept
    for the few most recent sets: the closed form reads them at every step.
    """
    return list(_event_states(tuple(masks), n_directions))


@lru_cache(maxsize=16)
def _event_states(masks, n_directions):
    """event_state_sgd's states of a tuple of masks, as a tuple."""
    n = len(masks)
    univ = full_mask(n_directions)
    out = []
    p = univ
    # suffix complements: s[t] = intersection of complements of V_t..V_n
    s_suffix = [univ] * (n + 2)
    for t in range(n, 0, -1):
        s_suffix[t] = s_suffix[t + 1] & (univ & ~masks[t - 1])
    for t in range(1, n + 1):
        j = lowest_member(p, n_directions) if p else 0
        out.append(EventStep(step=t, p_mask=p, s_mask=s_suffix[t], j=j))
        p &= masks[t - 1]
    return tuple(out)


def good_event_sgd(dataset, params):
    """Check the SGD good event: for every t, P_t is nonempty and no set
    from step t on contains J_t.  The report's reason lists failing steps."""
    return _event_report(event_state_sgd(dataset.masks, params.n_directions))


def _event_report(states):
    """good_event_sgd's report from the event states of a dataset."""
    bad = []
    for st in states:
        if st.p_mask == 0:
            bad.append(f"step {st.step}: empty intersection")
        elif not st.s_mask >> (st.j - 1) & 1:
            bad.append(f"step {st.step}: direction {st.j} reappears later")
    return EventReport(not bad, "; ".join(bad))


# ---------------------------------------------------------------------------
# loss terms
#
# SgdParams.point_losses is the one definition of the per-sample loss, for
# a stack of points (P, d) against the distinct masks of chunks of samples;
# loss_sgd and empirical_risk reduce it.  Its sample-free parts
# (_sample_free_sgd) also return the argmaxes that attain them: the decoded
# or enumerated prefix and its common direction per k.  The step (grad_sgd)
# and SgdParams.margins read term 2's candidates from the same parts
# (_l2_table) and the hinge from the same projection.
# ---------------------------------------------------------------------------


def _prefix_psi(masks, params):
    """(1/n) times the encoding of a prefix of masks, or of each of a stack
    (..., k): the codepoint of the mask at position p written into block p
    of a group's 2n dims, the others zero (all zeros for the empty prefix);
    the step's, the margin check's and the reference table's."""
    masks = np.asarray(masks, dtype=np.int64)
    psi = np.zeros(masks.shape[:-1] + (params.n, 2))
    for c, coord in enumerate(circle_points(masks, params.n_directions)):
        psi[..., :masks.shape[-1], c] = coord / params.n
    return psi.reshape(masks.shape[:-1] + (-1,))


@lru_cache(maxsize=None)
def _clean_blocks(n):
    """The position blocks a clean prefix occupies, (position, group): group
    k-1 holds positions 1..k and no other; read-only."""
    want = np.arange(n)[:, None] <= np.arange(n)
    want.flags.writeable = False
    return want


def _l2_readout(w2, proj, params):
    """The decoded prefix-shift read-out of a stack, without 0.375 max_u
    <u, w^(k)> and without the sample coupling: per k, the addends
    -0.5 <u_alpha, w^(k+1)> and <psi, w^(0,k) - w^(0,k+1)>/(4n), each
    (P, n-1), with the stack's projection proj (P, n, N).  Also returns the
    argmax they read: each k's common direction alpha (P, n-1), and its
    decoded prefix (P, n-1, n-1), the masks of positions 1..k, all -1 where
    group k holds no clean prefix (the fallback psi = 0, alpha = 1).  The
    decode is encoding's, as decode_blocks applies it to one vector: the
    occupancy (block_occupancy) of the blocks of groups 1..n-1, then, for
    the groups that hold a clean prefix only, the codes (block_codes) of
    the blocks it reads, position p of group k for p <= k, and each
    prefix's lowest common member (lowest_member).  The blocks are picked
    out of the stack with one boolean mask, so one block_codes call and one
    circle_points call serve the whole stack, and none is made when no
    group is clean.  Prefix products add up in position order, numpy's
    order for fewer than eight terms; longer prefixes are summed again
    numpy's way, pairwise.  Arrays run over (position, group, row), so
    each operation is one pass over the stack's rows."""
    n, nd = params.n, params.n_directions
    enc = params.layout.encoding(w2).reshape(-1, n, n, 2)  # (row, group, position)
    x, y = (np.ascontiguousarray(enc[..., c].T) for c in (0, 1))  # (pos, group, row)
    want = _clean_blocks(n)[:, :-1]  # groups 1..n-1
    occupied, ambiguous = block_occupancy(x[:, :-1], y[:, :-1],
                                          params.group_codepoint_magnitude)
    clean = ~((occupied != want[..., None]) | ambiguous).any(axis=0)  # (k-1, row)

    # position p of each clean prefix k > p, read from group k-1 and group k;
    # -1 (every bit set) is the code of a block no prefix reads
    read = want[:-1, :, None] & clean  # (pos, k-1, row)
    prefix = np.full(read.shape, -1)
    dots = np.zeros((2,) + clean.shape)
    used = np.flatnonzero(clean.any(axis=-1))  # the k-1 of clean prefixes
    if used.size:
        xs, ys = x[:-1, :-1][read], y[:-1, :-1][read]
        prefix[read] = codes = block_codes(xs, ys, nd)
        sin, cos = circle_points(codes, nd)
        terms = np.zeros((2,) + read.shape)
        terms[0][read] = xs * sin + ys * cos
        terms[1][read] = x[:-1, 1:][read] * sin + y[:-1, 1:][read] * cos
        for p in range(used[-1] + 1):
            dots[:, p:] += terms[:, p, p:]
        for k in range(8, used[-1] + 2):
            dots[:, k - 1] = terms[:, :k, k - 1].transpose(0, 2, 1).copy().sum(axis=-1)
    psi_term = np.where(clean, (dots[0] / n - dots[1] / n) / (4.0 * n), 0.0).T
    clean, prefix = clean.T, prefix.transpose(2, 1, 0)  # (row, k-1[, position])

    # lowest common member; -1 is the identity of the running intersection
    alpha = np.where(clean, lowest_member(np.bitwise_and.reduce(prefix, axis=-1),
                                          nd), 1)
    alpha_term = -0.5 * proj[np.arange(len(proj))[:, None], np.arange(1, n), alpha - 1]
    return (alpha_term, psi_term), alpha, prefix


@lru_cache(maxsize=8)
def _reference_tables_sgd(params):
    """Exhaustive prefix-encoding tables: for each k, all M^k prefixes
    (params.reference_count in all) in itertools.product order, grouped by
    common direction (alpha_sgd) as _by_alpha lays tables out.  Returns a
    list indexed by k-1 of (masks (M^k, k), psi rows, starts, alphas)."""
    check_reference_budget(params)
    m, tables = subset_count(params.n_directions), []
    for k in range(1, params.n):
        masks = np.array(list(itertools.product(range(m), repeat=k)))
        tables.append(_by_alpha(alpha_sgd(masks.T, params.n_directions), masks,
                                _prefix_psi(masks, params)))
    return tables


def _l2_reference_rows(w, params, codebook):
    """The enumerated prefix reads of a stack (P, d) without the sample
    coupling: per k, the max over the prefix rows psi of <psi, w^(0,k) -
    w^(0,k+1)>/(4n) - 0.5 <u_alpha, w^(k+1)>, as the one addend (P, n-1) of
    _l2_readout's form, and the argmax it reads, each k's alpha (P, n-1) and
    masks (P, n-1, n-1): each group's best read first (_grouped_max), so ties
    go to the lowest alpha, then to the first prefix enumerated."""
    n, each = params.n, np.arange(len(w))
    best = np.empty((len(w), n - 1))
    alpha = np.empty(best.shape, dtype=np.int64)
    prefix = np.full((len(w), n - 1, n - 1), -1)
    for k, (masks, psi, starts, alphas) in enumerate(_reference_tables_sgd(params), 1):
        gk, gk1 = params.group(w, k), params.group(w, k + 1)
        reads, attained = _grouped_max(gk - gk1, psi, starts)
        reads = reads / (4.0 * n) - 0.5 * (params.layout.block(w, k + 1)
                                           @ codebook.vectors[alphas - 1].T)
        g = reads.argmax(axis=-1)
        best[:, k - 1] = reads[each, g]
        alpha[:, k - 1] = alphas[g]
        prefix[:, k - 1, :k] = masks[attained[each, g]]
    return (best,), alpha, prefix


class SgdParts(NamedTuple):
    """The sample-free parts of the one-pass loss at a stack of points
    (P, d), with the argmaxes that attain them (_sample_free_sgd)."""

    proj: np.ndarray  # (P, n, N): the step blocks @ codebook.T
    shift: tuple  # term 2's addends after 0.375 <u, w^(k)>, (P, n-1) each
    alpha: np.ndarray  # (P, n-1): each k's common direction, 1-based
    prefix: np.ndarray  # (P, n-1, n-1): each k's prefix masks, -1: psi = 0
    blocks: np.ndarray  # (P, n, 2): term 3's block, then each k's coupling's


def _sample_free_sgd(points, params, codebook, mode):
    """SgdParts of a stack: one projection of its step blocks (read by the
    hinge, term 2 and term 3), term 2's read-out decoded (_l2_readout) or
    enumerated (_l2_reference_rows), and the two-dim blocks the sample
    reads: position 1 of group 1 (term 3) and position k+1 of group k+1
    (k's coupling)."""
    n, lay = params.n, params.layout
    proj = lay.step_blocks(points) @ codebook.vectors.T  # (P, n, N)
    if mode == "oracle":
        read = _l2_readout(points, proj, params)
    elif mode == "reference":
        read = _l2_reference_rows(points, params, codebook)
    else:
        raise OutOfRange(f"unknown loss mode {mode!r}")
    blocks = lay.encoding(points).reshape(-1, n * n, 2)[:, :: n + 1]
    return SgdParts(proj, *read, blocks)


def _l2_sum(x, parts):
    """x plus term 2's sample-free addends, in the kernel's order, for x
    (P, n-1, X): 0.375 times the projection per k and direction, or 0.375
    times its max."""
    for addend in parts.shift:
        x = x + addend[..., None]
    return x


def _sample_reads(parts, inputs, params):
    """Each mask's codepoint read off the parts' blocks, shape (P, M, n):
    term 3's at index 0 and k's coupling at index k, for the M masks of a
    MaskInputs."""
    return -(inputs.sin[:, None] * parts.blocks[:, None, :, 0]
             + inputs.cos[:, None] * parts.blocks[:, None, :, 1]) / (
                 4.0 * params.n * params.n)


def _l2_table(parts, couplings):
    """Term 2's candidates before the floor over (direction, k) at each
    point, shape (P, N, n-1), each point with its own sample's couplings
    (P, n-1): direction-major, so a flat argmax per point breaks ties
    toward the lowest direction, then the lowest k.  Rounding is monotone,
    so each point's max is the kernel's bitwise."""
    table = _l2_sum(0.375 * parts.proj[:, :-1], parts) + couplings[..., None]
    return np.swapaxes(table, 1, 2)


def _adjacent_reads(points, parts, argmax, codepoints, params):
    """The largest term-2 candidate one codepoint step away from each
    point's decoded argmax prefix, shape (P,), -inf where the argmax k
    falls back to psi = 0: for the argmax (u, k) (argmax, a pair of (P,)
    arrays) and each position of the prefix, the prefix with that position's
    mask moved one step either way round the circle, read as _l2_table
    reads a candidate, with the sample coupling of codepoints (P, 2).  A
    candidate swaps one shifted codepoint into block pos of the prefix's
    psi; the blocks are disjoint, so that is the shifted prefix's psi
    bitwise, and its common direction is the lowest member of the other
    positions' intersection and the moved mask.  Inner products are numpy's
    one-vector products (np.vecdot), so each candidate is bitwise its own
    one-point read."""
    n, nd = params.n, params.n_directions
    each = np.arange(len(points))
    u_star, k = argmax[0], argmax[1] + 1
    prefix = parts.prefix[each, k - 1]  # (P, n-1): -1 off the decoded positions
    live = prefix >= 0
    psi = _prefix_psi(prefix, params).reshape(-1, n, 2)
    psi[:, :-1][~live] = 0.0  # zero past the decoded prefix
    moved = (prefix[..., None] + np.array([-1, 1])) % subset_count(nd)  # (P, pos, side)
    moved_points = np.stack(circle_points(moved, nd), axis=-1) / n
    at = np.eye(n - 1, n, dtype=bool)[:, None, :, None]  # (pos, 1, block, 1)
    psi_adj = np.where(at, moved_points[..., None, :], psi[:, None, None])
    psi_adj = psi_adj.reshape(psi_adj.shape[:3] + (2 * n,))  # (P, pos, side, 2n)

    groups = params.layout.encoding(points).reshape(-1, n, 2 * n)
    gk, gk1 = groups[each, k - 1, None, None], groups[each, k, None, None]
    # -1 is the identity of the intersection
    others = np.bitwise_and.reduce(
        np.where(np.eye(n - 1, dtype=bool), -1, prefix[:, None]), axis=-1)
    alpha = lowest_member(others[..., None] & moved, nd)
    # k's coupling reads the sample off position k+1 of group k+1
    block = groups.reshape(-1, n, n, 2)[each, k, k]
    read = np.vecdot(block, codepoints) / (4.0 * n * n)
    vals = (0.375 * parts.proj[each, k - 1, u_star][:, None, None]
            - 0.5 * parts.proj[each[:, None, None], k[:, None, None], alpha - 1]
            + (np.vecdot(gk, psi_adj) - np.vecdot(gk1, psi_adj)) / (4.0 * n)
            - read[:, None, None])
    return np.where(live[..., None], vals, -np.inf).max(axis=(1, 2))


def loss_sgd(w, mask, params, codebook, mode="oracle"):
    """Loss of one sample (a subset mask) at w, the training risk of a
    one-sample set; w may be a stack of points (P, d)."""
    return empirical_risk(w, SgdDataset(masks=(mask,)), params, codebook, mode)


def loss_sgd_samples(w, masks, params, codebook, mode="oracle"):
    """Loss of many samples at one point w, shape (B,); w may be a stack of
    points (P, d), giving shape (P, B).  The one-shot case of
    SgdParams.point_losses: the read-out serves this one masks array."""
    w = np.asarray(w, dtype=np.float64)
    [out] = params.point_losses(w.reshape(-1, w.shape[-1]), codebook, mode)(
        params.prepare_samples([masks]))
    return out[0] if w.ndim == 1 else out


def _loss_terms_sgd(points, params, codebook, mode):
    """terms(inputs) -> (hinge, prefix shift, term 3), each shape (P, M), of
    the M masks of a MaskInputs at each point of a stack (P, d).  Built once
    per stack: the sample-free parts (_sample_free_sgd), term 2's read-out
    at each k's best direction, and term 3's block-1 read."""
    parts = _sample_free_sgd(points, params, codebook, mode)
    best_u = parts.proj[:, :-1, 0]
    for u in range(1, params.n_directions):  # one pass per direction
        best_u = np.maximum(best_u, parts.proj[:, :-1, u])
    readout = _l2_sum(0.375 * best_u[..., None], parts)[..., 0]  # (P, n-1)
    u1_read = parts.proj[:, :1, 0] / params.n**3

    def terms(inputs):
        reads = _sample_reads(parts, inputs, params)  # (P, M, n)
        l2 = np.maximum(params.delta1,
                        (readout[:, None, :] + reads[..., 1:]).max(axis=-1))
        return hinge_terms(parts.proj, inputs.member, params), l2, \
            reads[..., 0] - u1_read

    return terms


def grad_sgd(w, mask, params, codebook, mode="oracle"):
    """Subgradient of one sample's loss at w (single point only): the
    gradients of the pieces that the loss kernel's argmaxes name
    (_sample_free_sgd of the one-point stack, _l2_table), written into the
    step blocks and encoding groups of one zero vector.

    Ties go to the lowest direction, then the lowest block, so
    trajectories are bitwise reproducible.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise OutOfRange("grad_sgd expects a single point, not a batch")
    n, vectors = params.n, codebook.vectors
    parts = _sample_free_sgd(w[None], params, codebook, mode)
    inputs = mask_inputs(np.array([mask], dtype=np.int64), params.n_directions)
    # the sample's codepoint, as term 3 and k's coupling write it
    point = np.concatenate((inputs.sin, inputs.cos)) / (4.0 * n * n)
    g = np.zeros_like(w)
    groups = params.layout.encoding(g).reshape(n, 2 * n)  # group r is row r-1
    blocks = params.layout.step_blocks(g)  # block k is row k-1

    # term 1
    [(on, hinge)] = _hinge_grads(parts.proj[0], inputs.member, params, codebook)
    if len(hinge):
        blocks[1:][on] += hinge

    # term 2: the candidate (u, k) with its prefix psi and common direction
    table = _l2_table(parts, _sample_reads(parts, inputs, params)[:, 0, 1:])[0]
    u_star, k_star = divmod(int(np.argmax(table)), n - 1)
    if table[u_star, k_star] > params.delta1:
        k = k_star + 1
        prefix = parts.prefix[0, k_star, :k]
        psi = _prefix_psi(prefix if prefix[0] >= 0 else (), params) / (4.0 * n)
        blocks[k - 1] += 0.375 * vectors[u_star]
        blocks[k] -= 0.5 * vectors[parts.alpha[0, k_star] - 1]
        groups[k - 1] += psi
        groups[k] -= psi
        groups[k, 2 * k: 2 * k + 2] -= point

    # term 3 (constant)
    groups[0, 0:2] -= point
    blocks[0] -= vectors[0] / n**3
    return g


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def expected_sgd_iterate(t, params, dataset, codebook):
    """Exact one-pass iterate w_t under the forced/checked good event.

    Step block k >= 2 carries the direction still common to the first k-1
    samples; the encoding holds the marched prefix in group t-1 and the
    accumulated position-1 leftovers in group 1.  Group contents reproduce
    the optimizer's per-sample products bit for bit when n is a power of
    two (the decode-sensitive part); step blocks are built from their
    scalar coefficients.
    """
    if not 2 <= t <= params.n:
        raise InvalidClosedForm(f"iterate {t} outside closed-form range [2, {params.n}]")
    states = event_state_sgd(dataset.masks, params.n_directions)
    report = _event_report(states)
    if not report:
        raise EventViolated(f"good event fails: {report.reason}")

    n, eta = params.n, params.eta
    w = np.zeros(params.dim)
    groups = params.layout.encoding(w).reshape(n, n, 2)  # (group, position)
    blocks = params.layout.step_blocks(w)  # block k is row k-1

    scale = 4.0 * n * n
    points = np.stack(circle_points(np.asarray(dataset.masks[:t - 1]),
                                    params.n_directions), axis=-1) / scale
    writes = eta * points
    # prefix group: samples 1..t-1, each in its own position block
    groups[t - 2, :t - 1] = writes
    for write in writes[1:]:  # group 1 keeps collecting position-1 writes
        groups[0, 0] += write

    c1 = (t - 1) * (eta / n**3)
    if t >= 3:
        c1 -= 0.375 * eta
    blocks[0] = c1 * codebook.vectors[0]
    if t >= 3:
        blocks[t - 2] = 0.5 * eta * codebook.vectors[states[t - 2].j - 1]  # J_{t-1}
    # J_k for k = 2 .. t-2
    js = np.array([st.j for st in states[1:t - 2]], dtype=np.int64)
    blocks[1:t - 2] = (eta / 8.0) * codebook.vectors[js - 1]
    return w
