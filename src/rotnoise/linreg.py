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
from .rotation import _finite, _strength, sample_batch_rotation, second_moment_of_tangent

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


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"noise strength lam must be nonnegative and finite, got {lam}")


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """Design matrix, targets and the noise strength lam = (1 - p) / p."""

    X: np.ndarray
    y: np.ndarray
    lam: float

    def __post_init__(self):
        X = np.atleast_2d(_finite("X", self.X))
        y = _finite("y", self.y).ravel()
        if X.shape[0] != y.size:
            raise ValueError("number of rows of X must match the target length")
        if X.shape[1] < 2:
            raise ValueError("rotation-regularized regression needs at least 2 features")
        _check_lam(self.lam)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def rotation_system_matrix(X: np.ndarray, lam: float) -> np.ndarray:
    X = _finite("X", X)
    _check_lam(lam)
    gram = X.T @ X
    return gram + _noise_moment(gram, "rotation", lam)


def dropout_system_matrix(X: np.ndarray, lam: float) -> np.ndarray:
    X = _finite("X", X)
    _check_lam(lam)
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
    w = _finite("w", w)
    if w.shape != (dim,):
        raise ValueError(f"w of shape {w.shape} does not match the problem dimension {dim}")
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

    For absolute-normal entries and a Bernoulli mask keeping K of the D
    coordinates, cos^2(x, masked x) = A / (A + B), with independent
    A ~ Gamma(K/2) and B ~ Gamma((D - K)/2): the kept and dropped parts of
    sum x^2.  Each sample draws K ~ Binomial(D, p), redrawn while 0 (the
    all-zero mask is rejected), then A and B; no vector or mask is built.
    The mean, p / (1 - (1 - p)^D), approaches the keep rate p as D grows.
    """
    if dim < 2:
        raise ValueError("angle demo needs at least 2 dimensions")
    _strength(keep_rate)
    _check_budget("n_samples", n_samples)
    kept = rng.binomial(dim, keep_rate, n_samples)
    empty = np.flatnonzero(kept == 0)
    while empty.size:
        kept[empty] = rng.binomial(dim, keep_rate, empty.size)
        empty = empty[kept[empty] == 0]
    a = rng.standard_gamma(kept / 2.0)
    b = rng.standard_gamma((dim - kept) / 2.0)
    return _estimate(a / (a + b))


def _unit_rows(W: np.ndarray) -> np.ndarray:
    """The rows of ``W`` scaled to unit length; a zero row is refused by index."""
    norms = np.linalg.norm(W, axis=1, keepdims=True)
    if not norms.all():
        raise ValueError(f"row {np.flatnonzero(norms == 0.0)[0]} of W is zero")
    return W / norms


def classification_flip_rate(
    W: np.ndarray,
    x: np.ndarray,
    angles: AngleDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> Estimate:
    """Probability that rotation noise changes the nearest-weight decision.

    Weight rows are normalized to unit length so the decision is purely
    angular; a non-finite entry or a zero row is refused before drawing.
    Returns the flip rate and its binomial standard error.
    """
    W = _finite("W", W)
    if W.ndim != 2 or W.shape[0] < 2:
        raise ValueError("need at least two weight rows to have a decision")
    x = _finite("x", x)
    if x.shape != W.shape[1:]:
        raise ValueError(f"x of shape {x.shape} does not match the width {W.shape[1]} of W")
    _check_budget("n_samples", n_samples)
    W = _unit_rows(W)
    base = int(np.argmax(W @ x))
    batch = sample_batch_rotation(n_samples, x.size, angles, rng)
    scores = batch.apply(np.broadcast_to(x, (n_samples, x.size))) @ W.T
    flips = np.argmax(scores, axis=1) != base
    rate = float(flips.mean())
    return Estimate(rate, float(np.sqrt(max(rate * (1.0 - rate), 1.0 / n_samples) / n_samples)))


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
    arctan(sqrt(E[tan(theta)^2])), the angle of the root-mean-square
    tangent of ``angles``.  Returns 20 rows of (margin, flip_rate, stderr).

    ``W`` must be finite and 2-D with at least 2 rows and 2 columns, and
    hold no zero row; its nearest pair must be neither antiparallel nor
    parallel, so that it spans a plane with a bisector.
    """
    W = _finite("W", W)
    if W.ndim != 2 or min(W.shape) < 2:
        raise ValueError(f"W must be 2-D with at least 2 rows and 2 columns, got shape {W.shape}")
    W = _unit_rows(W)
    dots = W @ W.T
    np.fill_diagonal(dots, -np.inf)
    a, b = np.unravel_index(np.argmax(dots), dots.shape)
    wa, wb = W[a], W[b]

    bisector = wa + wb
    bisector_norm = np.linalg.norm(bisector)
    if bisector_norm == 0.0:
        raise ValueError(f"rows {a} and {b} of W, its nearest pair, are antiparallel: they have no bisector")
    bisector /= bisector_norm
    inplane = wa - wb
    inplane -= (inplane @ bisector) * bisector
    inplane_norm = np.linalg.norm(inplane)
    if inplane_norm == 0.0:
        raise ValueError(f"rows {a} and {b} of W, its nearest pair, are parallel: they span no plane")
    inplane /= inplane_norm

    margins = np.linspace(0.0, 1.5 * np.arctan(np.sqrt(second_moment_of_tangent(angles))), 20)
    rows = np.empty((margins.size, 3))
    for k, margin in enumerate(margins):
        # rotating by margin/2 toward w_a widens the angular gap to margin
        x = np.cos(margin / 2.0) * bisector + np.sin(margin / 2.0) * inplane
        rate, err = classification_flip_rate(W, x, angles, n_samples, rng)
        rows[k] = (margin, rate, err)
    return rows
