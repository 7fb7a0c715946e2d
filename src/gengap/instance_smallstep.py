"""Deterministic round-robin family: one fixed loss, no sampling at all.

The loss is a hinge over coordinates,

    f(w) = max(0, max_i 1/sqrt(d) - w[i] - eta*i/(4d)),   i = 1..d,

with dimension d chosen so that gradient steps never run out of fresh
coordinates.  The tilt eta*i/(4d) strictly orders the coordinates, so the
active coordinate at step t is exactly t (each step bumps one coordinate by
eta and sends the argmax to the next one), the argmax gap stays eta/(4d),
and the final value is known in closed form.  Since the distribution is a
point mass, the empirical and population risks coincide and full-batch and
one-sample updates are the same algorithm.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidClosedForm, OutOfRange
from .instance_gd import GdParams, _table_margin


@dataclass(frozen=True)
class SmallstepParams:
    """Step size, step count, and (derived) dimension of the hinge family.

    Parameters
    ----------
    eta : float
        Step size.
    steps : int
        Number of iterates T (so T-1 updates).
    dim : int, optional
        Coordinate count; defaults to max(ceil(25 eta^2 T^2), T-1, 1), enough
        that the round-robin never wraps and the hinge stays active.
    """

    eta: float
    steps: int
    dim: int = None

    family = "smallstep"
    lipschitz = 1.0
    policies = ()  # no training set: nothing to draw, load or condition on
    draw_samples = None  # a point mass: the population risk is the loss
    first_checked_step = 1  # w_1 = 0 is the closed form's first iterate
    strict_blocks = ()

    def __post_init__(self):
        if self.eta <= 0 or self.steps < 1:
            raise OutOfRange(
                f"need eta > 0 and steps >= 1; got eta={self.eta}, steps={self.steps}"
            )
        if self.dim is None:
            object.__setattr__(self, "dim", max(
                math.ceil(25.0 * self.eta**2 * self.steps**2), self.steps - 1, 1))
        if self.dim < 1:
            raise OutOfRange(f"dim must be positive; got {self.dim}")

    @property
    def horizon(self):
        """Iterate count of the closed form: T."""
        return self.steps

    @property
    def smoothing_delta(self):
        """Smoothing radius the argmax gap tolerates: eta/(16 d)."""
        return self.eta / (16.0 * self.dim)

    @property
    def risk_threshold(self):
        """Final-value lower bound this family is built to certify."""
        return min(0.25, 1.0 / (20.0 * self.eta * self.steps))

    @property
    def gap_targets(self):
        """Designed value target: (name, target, RiskReport field)."""
        return (("value-any-suffix", self.risk_threshold, "population"),)

    @property
    def tilts(self):
        """Per-coordinate offsets eta*i/(4d), i = 1..d."""
        return self.eta * np.arange(1, self.dim + 1) / (4.0 * self.dim)

    def point_losses(self, points, codebook, mode):
        """losses(prepared) yields one chunk, the loss at each point of a
        stack (P, d), shape (P, 1).  The distribution is a point mass, so
        there are no samples to prepare (pass None) and codebook and mode
        are unused."""
        losses = loss_smallstep(points, self)[:, None]
        return lambda prepared: iter((losses,))

    def step_grad(self, w, t, dataset, codebook, mode):
        """The step's gradient (full-batch and one-pass steps agree)."""
        return grad_smallstep(w, self)

    # the loss whose subgradient step_grad takes: the training risk, which
    # for a point mass is the loss itself
    step_loss = GdParams.step_loss

    def expected_iterate(self, t, dataset, codebook):
        """Closed-form iterate w_t; dataset and codebook are unused."""
        return expected_smallstep_iterate(t, self)

    def margins(self, points, dataset, codebook):
        """The hinge argmax at each iterate w_1, w_2, ... of a stack against
        the floor 0, with slack eta/(8 d); a one-coordinate hinge has no
        second candidate."""
        thr = self.eta / (8.0 * self.dim)
        return [_table_margin(t, vals, 0.0, thr, self.dim >= 2)
                for t, vals in enumerate(_hinge_values(points, self), start=1)]

    def baseline_population(self, baseline_empirical):
        """Population risk of the zero vector: the loss there, as for every
        point of a point mass."""
        return baseline_empirical

    def draw_dataset(self, seed, policy):
        return None, 0

    def good_event(self, dataset):
        return None

    def load_dataset(self, path):
        raise OutOfRange("the smallstep family has no training set to load")


def _hinge_values(w, params):
    """The hinge's pieces 1/sqrt(d) - w[i] - eta*i/(4d) at w, shape (..., d)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != params.dim:
        raise OutOfRange(f"expected {params.dim} coordinates, got {w.shape[-1]}")
    return 1.0 / math.sqrt(params.dim) - w - params.tilts


def loss_smallstep(w, params):
    """Hinge value at w; w may be batched with shape (..., d)."""
    return np.maximum(0.0, _hinge_values(w, params).max(axis=-1))


def grad_smallstep(w, params):
    """Subgradient at a single point: -e_j at the lowest maximizing
    coordinate when the hinge is active, zero otherwise."""
    if np.ndim(w) != 1:
        raise OutOfRange("grad_smallstep expects a single point, not a batch")
    vals = _hinge_values(w, params)
    j = int(np.argmax(vals))
    g = np.zeros_like(vals)
    if vals[j] > 0.0:
        g[j] = -1.0
    return g


def expected_smallstep_iterate(t, params):
    """Round-robin closed form: w_t = eta on coordinates 1..t-1.

    Valid while fresh coordinates remain and the hinge stays active, which
    the default dimension guarantees for t <= T.
    """
    if not 1 <= t <= params.steps:
        raise InvalidClosedForm(f"iterate {t} outside [1, {params.steps}]")
    if t - 1 > params.dim:
        raise InvalidClosedForm(
            f"round-robin exhausts {params.dim} coordinates before step {t}"
        )
    if params.eta * t >= 4.0 * math.sqrt(params.dim):
        raise InvalidClosedForm("hinge deactivates before the requested step")
    w = np.zeros(params.dim)
    w[: t - 1] = params.eta
    return w
