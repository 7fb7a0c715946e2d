"""Subgradient descent runners and trajectory utilities.

One generic loop serves all three families: full-batch descent averages
per-sample subgradients, the one-pass runner consumes sample t at step t,
and the deterministic family needs no samples at all.  Iterates are indexed
1-based with w_1 = 0; a run of T iterates makes T-1 updates.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OracleDomain, OutOfRange, as_int, reading


def project_ball(w):
    """Euclidean projection onto the unit ball: w / max(1, ||w||).

    Inside the ball this divides by exactly 1.0, which is bit-preserving,
    so projected and unprojected runs agree bitwise whenever the norms stay
    below one.
    """
    return w / max(1.0, float(np.linalg.norm(w)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterates, shape (T, d), 1-based access."""

    iterates: np.ndarray

    @property
    def steps(self):
        return self.iterates.shape[0]

    @property
    def dim(self):
        return self.iterates.shape[1]

    def iterate(self, t):
        """Iterate w_t (1-based); read-only view."""
        if not 1 <= t <= self.steps:
            raise OutOfRange(f"iterate {t} not in [1, {self.steps}]")
        view = self.iterates[t - 1]
        view.flags.writeable = False
        return view


def suffix_average(trajectory, m):
    """Mean of the last m iterates; m = 1 returns w_T bitwise."""
    if not 1 <= m <= trajectory.steps:
        raise OutOfRange(f"suffix length {m} not in [1, {trajectory.steps}]")
    return trajectory.iterates[trajectory.steps - m:].mean(axis=0)


def gradient_descent(grad_fn, dim, steps, eta, projected=False):
    """Run steps-1 updates of w <- w - eta * grad_fn(t, w) from w = 0.

    grad_fn receives the 1-based step index t and the current iterate.
    Returns the Trajectory of all steps iterates, written into one
    preallocated (steps, dim) array.  Oracle-domain failures are re-raised
    with the step index attached.
    """
    iterates = np.zeros((steps, dim))
    w = np.zeros(dim)
    for t in range(1, steps):
        try:
            g = grad_fn(t, w)
        except OracleDomain as exc:
            raise OracleDomain(f"update from iterate {t}: {exc}") from exc
        w = w - eta * g
        if projected:
            w = project_ball(w)
        iterates[t] = w
    return Trajectory(iterates=iterates)


def run_gd(codebook, dataset, params, mode="oracle", projected=False):
    """Full-batch subgradient descent on the GD instance's empirical risk."""
    return _run(params, dataset, codebook, mode, projected)


def run_sgd(codebook, dataset, params, mode="oracle", projected=False):
    """One-pass SGD on the sparse instance: update t consumes sample t.

    The pass makes n-1 updates, so the last sample is never consumed by the
    optimizer (it still counts toward the empirical risk).
    """
    if dataset.n < params.n:
        raise OutOfRange(
            f"dataset holds {dataset.n} samples; params.n={params.n}"
        )
    return _run(params, dataset, codebook, mode, projected)


def run_smallstep(params, projected=False):
    """Descent on the deterministic hinge (full-batch and one-pass agree)."""
    return _run(params, None, None, None, projected)


def _run(params, dataset, codebook, mode, projected):
    """Descent along the family's step gradient over its horizon."""

    def grad(t, w):
        return params.step_grad(w, t, dataset, codebook, mode)

    return gradient_descent(grad, params.dim, params.horizon, params.eta,
                            projected=projected)


def save_trajectory(trajectory, basepath):
    """Write <basepath>.bin (little-endian float64, C order) plus a JSON
    sidecar <basepath>.json describing dtype and shape."""
    base = Path(basepath)
    arr = np.ascontiguousarray(trajectory.iterates, dtype="<f8")
    arr.tofile(base.with_suffix(".bin"))
    meta = {"dtype": "<f8", "order": "C", "shape": list(arr.shape)}
    base.with_suffix(".json").write_text(json.dumps(meta))


def load_trajectory(basepath):
    """Inverse of save_trajectory.  A sidecar or .bin that cannot be read,
    a shape of other than integers (as_int), or a .bin whose size does not
    match the sidecar's shape, is OutOfRange naming the file."""
    base = Path(basepath)
    sidecar, data = base.with_suffix(".json"), base.with_suffix(".bin")
    with reading(sidecar, "checkpoint sidecar"):
        meta = json.loads(sidecar.read_text())
        layout = meta.get("dtype"), meta.get("order")
        shape = tuple(as_int(size) for size in meta["shape"])
    if layout != ("<f8", "C"):
        raise OutOfRange(f"unsupported checkpoint layout: {meta}")
    with reading(data, "checkpoint"):
        return Trajectory(iterates=np.fromfile(data, dtype="<f8").reshape(shape))
