"""Linear regression with marginalized noise, and angle-based demos.

Marginalizing rotation or dropout noise out of the squared loss turns the
least-squares problem into ridge-like problems with different penalties:

    rotation: [X^T X + lam r (trace(X^T X) I - X^T X)] w = X^T y
    dropout:  [X^T X + lam diag(X^T X)] w = X^T y

where r is the rate at which the rotation sampler pairs two coordinates,
1 / (D - 1) for even D and 1 / D for odd D.  The rotation system mixes the
total energy into every coordinate, which bounds its condition number by
1 / r at lam = 1 (D - 1 for even D, D for odd D); the dropout system
inherits any degeneracy of individual columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coadapt import _noise_moment
from .rotation import _BLOCK, AngleDistribution, BatchRotation, Estimate, _check_budget, _estimate
from .rotation import sample_batch_rotation

__all__ = [
    "RegressionProblem",
    "SingularSystemError",
    "rotation_system_matrix",
    "dropout_system_matrix",
    "solve_rotation_lr",
    "solve_dropout_lr",
    "condition_numbers",
    "marginalized_gradient",
    "dropout_rotation_angle",
    "classification_flip_rate",
    "margin_flip_curve",
]


class SingularSystemError(ArithmeticError):
    """Raised when a regularized normal system is numerically singular."""


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Design matrix, targets and the noise strength lam = (1 - p) / p."""

    X: np.ndarray
    y: np.ndarray
    lam: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if X.shape[0] != y.size:
            raise ValueError("number of rows of X must match the target length")
        if X.shape[1] < 2:
            raise ValueError("rotation-regularized regression needs at least 2 features")
        if self.lam < 0.0:
            raise ValueError("noise strength must be nonnegative")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def rotation_system_matrix(X: np.ndarray, lam: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    gram = X.T @ X
    return gram + _noise_moment(gram, "rotation", lam)


def dropout_system_matrix(X: np.ndarray, lam: float) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    gram = X.T @ X
    return gram + _noise_moment(gram, "dropout", lam)


def _solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve with a relative 1e-12 threshold on the smallest pivot."""
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("regularized system is not positive definite") from err
    pivots = np.diag(chol)
    if pivots.min() < 1e-12 * pivots.max():
        raise SingularSystemError("regularized system is numerically singular")
    z = np.linalg.solve(chol, b)
    return np.linalg.solve(chol.T, z)


def solve_rotation_lr(problem: RegressionProblem) -> np.ndarray:
    """Weights minimizing the rotation-marginalized squared loss."""
    A = rotation_system_matrix(problem.X, problem.lam)
    return _solve_spd(A, problem.X.T @ problem.y)


def solve_dropout_lr(problem: RegressionProblem) -> np.ndarray:
    """Weights minimizing the dropout-marginalized squared loss."""
    A = dropout_system_matrix(problem.X, problem.lam)
    return _solve_spd(A, problem.X.T @ problem.y)


def _condition_number(A: np.ndarray) -> float:
    # eigenvalues at or below the relative rounding floor are
    # indistinguishable from exact singularity; report the +inf sentinel
    eig = np.linalg.eigvalsh(A)
    lo, hi = eig[0], eig[-1]
    if hi <= 0.0 or lo <= hi * 1e-15:
        return float("inf")
    return float(hi / lo)


def condition_numbers(problem: RegressionProblem) -> tuple[float, float]:
    """Condition numbers (rotation system, dropout system).

    Singular systems report +inf.  At lam = 1 the rotation system is
    bounded by D - 1 for even D and by D for odd D, however degenerate X is.
    """
    if np.trace(problem.X.T @ problem.X) <= 0.0:
        raise ValueError("design matrix has no energy")
    return (
        _condition_number(rotation_system_matrix(problem.X, problem.lam)),
        _condition_number(dropout_system_matrix(problem.X, problem.lam)),
    )


def marginalized_gradient(
    problem: RegressionProblem,
    w: np.ndarray,
    angles: AngleDistribution,
    n_trials: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte-Carlo gradient of the noise-marginalized squared loss at ``w``.

    Each trial draws a fresh rotation per data point, forms the realized
    loss sum_i (y_i - w . R_i x_i)^2, and records its analytic gradient.
    Returns the per-coordinate mean and standard error over trials; at the
    closed-form solution the mean is zero up to Monte-Carlo noise.
    """
    _check_budget("n_trials", n_trials)
    X, y = problem.X, problem.y
    n, dim = X.shape
    w = np.asarray(w, dtype=np.float64)
    grads = np.empty((n_trials, dim))
    # a block of trials is rotated by one kernel call and reduced by stacked
    # matmuls; each trial still draws its own rotations, in trial order
    block = max(1, _BLOCK // (n * dim))
    for lo in range(0, n_trials, block):
        hi = min(n_trials, lo + block)
        batches = [sample_batch_rotation(n, dim, angles, rng) for _ in range(lo, hi)]
        rotation = BatchRotation(
            perm=np.concatenate([b.perm for b in batches]),
            tangents=np.concatenate([b.tangents for b in batches]),
        )
        xr = rotation.apply(np.tile(X, (hi - lo, 1))).reshape(hi - lo, n, dim)
        resid = y - xr @ w
        grads[lo:hi] = ((-2.0 * resid)[:, None, :] @ xr)[:, 0]
    return _estimate(grads, axis=0)


def dropout_rotation_angle(
    dim: int, keep_rate: float, n_samples: int, rng: np.random.Generator
) -> Estimate:
    """Mean cos^2 of the angle a dropout mask rotates a nonnegative vector by.

    Samples vectors with absolute-normal entries, applies a Bernoulli mask,
    and averages cos^2(x, masked x); concentration makes the mean approach
    the keep rate as the dimension grows.  All-zero masks (probability
    p^0 ... vanishing for the sizes used here) are rejected and redrawn.
    """
    if dim < 2:
        raise ValueError("angle demo needs at least 2 dimensions")
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError("keep rate must lie in (0, 1]")
    _check_budget("n_samples", n_samples)
    x = rng.standard_normal((n_samples, dim))
    np.abs(x, out=x)
    cos2 = np.empty(n_samples)

    def reduce_rows(rows, mask):
        x2 = x[rows] ** 2
        cos2[rows] = (x2 * mask).sum(axis=1) / x2.sum(axis=1)

    # the masks are drawn and reduced in row blocks, in the order one
    # (n_samples, dim) draw would take, so no full-size temporary is built
    block = max(1, _BLOCK // dim)
    empty = []
    for lo in range(0, n_samples, block):
        rows = slice(lo, min(n_samples, lo + block))
        mask = rng.random((rows.stop - lo, dim)) < keep_rate
        reduce_rows(rows, mask)
        empty.extend(lo + np.flatnonzero(~mask.any(axis=1)))
    empty = np.array(empty, dtype=np.intp)
    while empty.size:
        mask = rng.random((empty.size, dim)) < keep_rate
        reduce_rows(empty, mask)
        empty = empty[~mask.any(axis=1)]
    return _estimate(cos2)


def classification_flip_rate(
    W: np.ndarray,
    x: np.ndarray,
    angles: AngleDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Probability that rotation noise changes the nearest-weight decision.

    Weight rows are normalized to unit length so the decision is purely
    angular.  Returns the flip rate and its binomial standard error.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 2:
        raise ValueError("need at least two weight rows to have a decision")
    _check_budget("n_samples", n_samples)
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    x = np.asarray(x, dtype=np.float64)
    base = int(np.argmax(W @ x))
    batch = sample_batch_rotation(n_samples, x.size, angles, rng)
    scores = batch.apply(np.broadcast_to(x, (n_samples, x.size))) @ W.T
    flips = np.argmax(scores, axis=1) != base
    rate = float(flips.mean())
    return Estimate(rate, float(np.sqrt(max(rate * (1.0 - rate), 1.0 / n_samples) / n_samples)))


def _angle_scale(angles: AngleDistribution) -> float:
    if angles.kind == "uniform-angle":
        return angles.parameter
    if angles.kind == "fixed":
        return abs(angles.parameter)
    return float(np.arctan(angles.parameter))


def margin_flip_curve(
    W: np.ndarray,
    angles: AngleDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flip rate as a function of the input's angular margin.

    Takes the closest pair of (normalized) weight rows, and slides an input
    within their plane from the bisector (margin 0) toward the nearer
    weight; the margin is the angular gap between the two nearest weights
    as seen from the input.  Margins span [0, 1.5 * scale] where scale is
    the typical rotation angle of ``angles``.  Returns 20 rows of
    (margin, flip_rate, stderr).
    """
    W = np.asarray(W, dtype=np.float64)
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    m = W.shape[0]
    dots = W @ W.T - 2.0 * np.eye(m)
    a, b = np.unravel_index(np.argmax(dots), dots.shape)
    wa, wb = W[a], W[b]

    bisector = wa + wb
    bisector /= np.linalg.norm(bisector)
    inplane = wa - wb
    inplane -= (inplane @ bisector) * bisector
    inplane /= np.linalg.norm(inplane)

    margins = np.linspace(0.0, 1.5 * _angle_scale(angles), 20)
    rows = np.empty((margins.size, 3))
    for k, margin in enumerate(margins):
        # rotating by margin/2 toward w_a widens the angular gap to margin
        x = np.cos(margin / 2.0) * bisector + np.sin(margin / 2.0) * inplane
        rate, err = classification_flip_rate(W, x, angles, n_samples, rng)
        rows[k] = (margin, rate, err)
    return rows
