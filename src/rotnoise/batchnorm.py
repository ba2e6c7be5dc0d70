"""Batch-normalization statistics: variance shift and small-batch effects.

Two families of checks live here.  The first quantifies the train/test
variance mismatch that multiplicative noise placed around a weight layer
induces in the running statistics a normalization layer records.  The
second treats the train-mode normalized value as a random function of the
test-mode one: averaging over the batchmates that share the normalizer
gives a bent, saturating expectation curve that an odd polynomial can
correct, plus a noise floor that shrinks as the batch grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise_ops import BernoulliDropout
from .rotation import Estimate, _check_budget, _estimate, _strength

__all__ = [
    "BatchNormState",
    "bn_train_forward",
    "bn_test_forward",
    "cross_normalize",
    "DISTRIBUTIONS",
    "standardized_sampler",
    "train_statistic_samples",
    "NonlinearityCurve",
    "mc_nonlinearity_curve",
    "cross_normalization_curve",
    "PolyFit",
    "fit_poly_correction",
    "affine_residuals",
    "evaluate_odd_poly",
    "default_poly_grid",
    "noise_budget",
    "ShiftReport",
    "variance_shift",
    "sample_sphere_rows",
]


# ---------------------------------------------------------------------------
# batch normalization forward passes


@dataclass(eq=False)
class BatchNormState:
    """Running statistics and affine parameters of one normalization layer."""

    running_mean: np.ndarray
    running_var: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    n_batches: int = 0

    def __post_init__(self):
        for name in ("running_mean", "running_var", "gamma", "beta"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if np.any(self.running_var < 0):
            raise ValueError("running variance must be nonnegative")
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 < self.momentum <= 1.0:
            raise ValueError("momentum must lie in (0, 1]")

    @classmethod
    def initial(cls, width: int, eps: float = 1e-5, momentum: float = 0.1) -> "BatchNormState":
        return cls(
            running_mean=np.zeros(width),
            running_var=np.ones(width),
            gamma=np.ones(width),
            beta=np.zeros(width),
            eps=eps,
            momentum=momentum,
        )


def _train_normalize(x: np.ndarray, state: BatchNormState, update: bool):
    """``bn_train_forward`` returning (out, xhat, inv_std) for a backward pass."""
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("batch normalization needs a batch of at least 2")
    b = x.shape[0]
    mu = x.mean(axis=0)
    var = np.mean((x - mu) ** 2, axis=0)
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = (x - mu) * inv_std
    if update:
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mu
        state.running_var = (1 - m) * state.running_var + m * var * b / (b - 1)
        state.n_batches += 1
    return state.gamma * xhat + state.beta, xhat, inv_std


def _eval_normalize(x: np.ndarray, state: BatchNormState, correction=None, out=None):
    """``bn_test_forward`` writing into ``out`` when given (``out=x``: in place)."""
    if state.n_batches == 0:
        raise ValueError("running statistics are unpopulated; run training batches first")
    var = state.running_var
    if correction is not None:
        tag = correction[0]
        if tag == "scale-variance":
            keep_rate = float(correction[1])
            if not 0.0 < keep_rate <= 1.0:
                raise ValueError("keep rate must lie in (0, 1]")
            var = var * keep_rate
        elif tag != "poly":
            raise ValueError(f"unknown test-mode correction: {tag!r}")
    xhat = np.subtract(x, state.running_mean, out=out)
    xhat /= np.sqrt(var + state.eps)
    if correction is not None and correction[0] == "poly":
        xhat = evaluate_odd_poly(np.asarray(correction[1], dtype=np.float64), xhat)
    xhat *= state.gamma
    xhat += state.beta
    return xhat


def bn_train_forward(x, state: BatchNormState) -> np.ndarray:
    """Normalize a (B, D) batch with its own statistics.

    The batch variance uses the 1/B normalizer; the running variance is
    updated with the B/(B-1) debiased value through an exponential moving
    average of the configured momentum.
    """
    return _train_normalize(np.asarray(x, dtype=np.float64), state, update=True)[0]


def bn_test_forward(x, state: BatchNormState, correction=None) -> np.ndarray:
    """Normalize with running statistics; optionally correct the output.

    correction
        ``None``                    : plain affine normalization.
        ``("scale-variance", p)``   : divide the running variance by 1/p,
        undoing the fixed 1/p variance shift of centered pre-norm noise.
        ``("poly", coeffs)``        : map the normalized value through the
        odd polynomial before applying gamma/beta, compensating the bent
        small-batch expectation curve.

    The input is never written to.
    """
    return _eval_normalize(np.asarray(x, dtype=np.float64), state, correction)


def cross_normalize(x, gamma, beta, eps: float = 1e-5, normalizer: str = "b-1") -> np.ndarray:
    """Normalize each element by the statistics of the rest of its batch.

    The leave-one-out mean and variance are independent of the element
    itself, which makes the expected output exactly affine in the input.
    ``normalizer`` selects the divisor of the leave-one-out sums: "b-1"
    (the count of the remaining elements, default) or "b" (batch size).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ValueError("cross-normalization needs a batch of at least 3")
    b = x.shape[0]
    if normalizer == "b-1":
        denom = b - 1.0
    elif normalizer == "b":
        denom = float(b)
    else:
        raise ValueError("normalizer must be 'b-1' or 'b'")
    # masked sums keep the leave-one-out statistics bit-exactly independent
    # of the held-out element (its contribution is an exact 0 term)
    hold = 1.0 - np.eye(b)
    loo_sum = hold @ x
    loo_sq = hold @ x**2
    mu = loo_sum / denom
    # sum_{k != i} (x_k - mu_i)^2 / denom, expanded through the two sums
    var = loo_sq / denom - 2 * mu * loo_sum / denom + mu**2 * (b - 1) / denom
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


# ---------------------------------------------------------------------------
# source distributions, standardized to mean 0 and variance 1


def _gaussian(size, rng):
    return rng.standard_normal(size)


def _uniform(size, rng):
    return (rng.random(size) - 0.5) * np.sqrt(12.0)


_SQ_MEAN, _SQ_STD = 1.0 / 3.0, np.sqrt(1.0 / 5.0 - 1.0 / 9.0)
_CU_MEAN, _CU_STD = 1.0 / 4.0, np.sqrt(1.0 / 7.0 - 1.0 / 16.0)


def _uniform_square(size, rng):
    return (rng.random(size) ** 2 - _SQ_MEAN) / _SQ_STD


def _uniform_cube(size, rng):
    return (rng.random(size) ** 3 - _CU_MEAN) / _CU_STD


def _laplace(size, rng):
    return rng.laplace(size=size) / np.sqrt(2.0)


DISTRIBUTIONS = {
    "gaussian": _gaussian,
    "uniform": _uniform,
    "uniform-square": _uniform_square,
    "uniform-cube": _uniform_cube,
    "laplace": _laplace,
}


def standardized_sampler(dist: str):
    try:
        return DISTRIBUTIONS[dist]
    except KeyError:
        raise ValueError(f"unknown source distribution: {dist!r}") from None


# ---------------------------------------------------------------------------
# nonlinearity of the train-mode statistic


# companion rows drawn at once by mc_nonlinearity_curve
_CURVE_BLOCK = 100_000
# companion values drawn at once, and per block of noise_budget's outer points
_BUDGET_ELEMENTS = 2**17
# batches drawn at once by cross_normalization_curve
_CN_CHUNK = 5000


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 2:
        raise ValueError("batch size must be at least 2")


def _companion_moments(rows: int, batch_size: int, draw, rng) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 1/n variance of each of ``rows`` rows of B - 1 companions.

    The companions are drawn in whole rows, about ``_BUDGET_ELEMENTS``
    values at a time, which takes the same random stream as one
    ``(rows, B - 1)`` draw.  A row's moments depend only on that row, so
    neither result depends on the chunk size.  Deviations are squared in
    one chunk of scratch; the arrays ``draw`` returns are never written.
    """
    width = batch_size - 1
    step = max(1, _BUDGET_ELEMENTS // width)
    # chunk buffers before m and s2: freed, they leave a hole below them, not
    # a heap top that malloc hands back to the system and faults in per call
    z = draw((min(step, rows), width), rng)
    scratch = np.empty(z.shape)
    m = np.empty(rows)
    s2 = np.empty(rows)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        if lo:
            z = draw((hi - lo, width), rng)
        dev = np.subtract(z, np.mean(z, axis=-1, out=m[lo:hi])[:, None], out=scratch[: hi - lo])
        np.mean(np.square(dev, out=dev), axis=-1, out=s2[lo:hi])
    return m, s2


def _normalized_value(x, m, s2, batch_size: int, out, scratch):
    """Train-mode normalized value of ``x`` from its companions' moments.

    The exact identity

        (x - mu_B) / sigma_B
          = sqrt((B-1)/B) * (x - m) / sqrt(s^2 + (x - m)^2 / B)

    where m and s^2 are the mean and 1/n variance of the B - 1 companions.
    It is written into ``out``, with the denominator in ``scratch``.
    """
    b = batch_size
    delta = np.subtract(x, m, out=out)
    denom = np.divide(np.square(delta, out=scratch), b, out=scratch)
    np.sqrt(np.add(s2, denom, out=denom), out=denom)
    delta *= np.sqrt((b - 1.0) / b)
    return np.divide(delta, denom, out=delta)


def train_statistic_samples(
    x: float, batch_size: int, n: int, draw, rng: np.random.Generator
) -> np.ndarray:
    """Draws of the train-mode normalized value of a held point ``x``.

    The B - 1 batchmates are sampled fresh for each draw and the statistic
    is evaluated through the leave-one-out identity of ``_normalized_value``.
    On the standardized scale the test-mode output of ``x`` is ``x``
    itself, so these draws are directly comparable to the abscissa.
    ``draw(shape, rng)`` is called on chunks of whole rows, taking the
    random stream of one ``(n, B - 1)`` draw; what it returns is only read.
    """
    _check_batch_size(batch_size)
    m, s2 = _companion_moments(n, batch_size, draw, rng)
    return _normalized_value(x, m, s2, batch_size, np.empty(n), np.empty(n))


@dataclass(frozen=True, eq=False)
class NonlinearityCurve:
    """Conditional mean/variance of a normalized value on a test grid."""

    dist: str
    batch_size: int
    x_test: np.ndarray
    f_expect: np.ndarray
    f_var: np.ndarray
    stderr: np.ndarray


def default_poly_grid() -> np.ndarray:
    """Fit window for the degree-7 correction, [-3.3, 3.3] in steps of 0.05."""
    return np.arange(-3.3, 3.3 + 1e-9, 0.05)


def mc_nonlinearity_curve(
    dist: str,
    batch_size: int,
    rng: np.random.Generator,
    grid=None,
    n_mc: int = 100_000,
) -> NonlinearityCurve:
    """Estimate the expectation and variance curves of the train statistic.

    The companions' mean and variance do not depend on the held point, so
    every grid point is evaluated against the same ``n_mc`` companion
    draws (common random numbers).  Only their per-row moments are kept,
    in blocks of ``_CURVE_BLOCK`` rows whose per-point means and sums of
    squared deviations are merged exactly, so memory does not grow with
    the batch size.  ``f_var`` and ``stderr`` are per point and marginal:
    each point's estimate is unbiased with that standard error, but the
    errors of different grid points are correlated, so their stderrs do
    not combine as if the points were independent.  The random draws do
    not depend on the grid.
    """
    draw = standardized_sampler(dist)
    _check_batch_size(batch_size)
    _check_budget("n_mc", n_mc)
    grid = default_poly_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    mean = np.zeros_like(grid)
    sq_dev = np.zeros_like(grid)  # sums of squared deviations from the mean
    done = 0
    while done < n_mc:
        rows = min(_CURVE_BLOCK, n_mc - done)
        m, s2 = _companion_moments(rows, batch_size, draw, rng)
        f = np.empty(rows)
        dev = np.empty(rows)
        block_mean = np.empty_like(grid)
        block_sq_dev = np.empty_like(grid)
        for k, x in enumerate(grid):
            _normalized_value(float(x), m, s2, batch_size, f, dev)
            block_mean[k] = f.mean()
            block_sq_dev[k] = np.sum(np.square(np.subtract(f, block_mean[k], out=dev), out=dev))
        # pairwise merge of (count, mean, sum of squared deviations),
        # Chan, Golub & LeVeque
        total = done + rows
        delta = block_mean - mean
        mean += delta * (rows / total)
        sq_dev += block_sq_dev + delta**2 * (done * rows / total)
        done = total
    f_var = sq_dev / (n_mc - 1)
    return NonlinearityCurve(dist, batch_size, grid, mean, f_var, np.sqrt(f_var) / np.sqrt(n_mc))


def cross_normalization_curve(
    batch_size: int,
    rng: np.random.Generator,
    grid,
    n_mc: int,
    normalizer: str = "b-1",
) -> NonlinearityCurve:
    """Mean output of a cross-normalized element held at each grid value.

    For each grid value, ``n_mc`` gaussian batches (drawn as
    ``(batch_size, 5000)`` chunks) have their first element replaced by
    the value and pass through ``cross_normalize`` with unit gain and no
    eps.  The held element's leave-one-out statistics do not depend on
    it, so the mean output is exactly affine in the grid value.  Grid
    points use independent draws.
    """
    _check_budget("n_mc", n_mc)
    draw = standardized_sampler("gaussian")
    grid = np.asarray(grid, dtype=np.float64)
    gamma = np.ones(1)
    beta = np.zeros(1)
    means = np.empty_like(grid)
    f_var = np.empty_like(grid)
    for k, x1 in enumerate(grid):
        outs = np.empty(n_mc)
        for done in range(0, n_mc, _CN_CHUNK):
            m = min(_CN_CHUNK, n_mc - done)
            batch = draw((batch_size, m), rng)
            batch[0, :] = x1
            out = cross_normalize(batch, gamma, beta, eps=0.0, normalizer=normalizer)
            outs[done : done + m] = out[0]
        means[k] = outs.mean()
        f_var[k] = outs.var(ddof=1)
    stderr = np.sqrt(f_var) / np.sqrt(n_mc)
    return NonlinearityCurve("gaussian", batch_size, grid, means, f_var, stderr)


@dataclass(frozen=True, eq=False)
class PolyFit:
    """Odd-polynomial correction a1 x + a3 x^3 + a5 x^5 + a7 x^7."""

    coeffs: np.ndarray
    rmse: float

    @property
    def a1(self) -> float:
        return float(self.coeffs[0])

    @property
    def a3(self) -> float:
        return float(self.coeffs[1])

    @property
    def a5(self) -> float:
        return float(self.coeffs[2])

    @property
    def a7(self) -> float:
        return float(self.coeffs[3])


def evaluate_odd_poly(coeffs, x) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return coeffs[0] * x + coeffs[1] * x**3 + coeffs[2] * x**5 + coeffs[3] * x**7


def _fit_mean_curve(basis: np.ndarray, curve: NonlinearityCurve) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of the mean curve on ``basis``; residual mean - fit."""
    coeffs, *_ = np.linalg.lstsq(basis, curve.f_expect, rcond=None)
    return coeffs, curve.f_expect - basis @ coeffs


def fit_poly_correction(curve: NonlinearityCurve) -> PolyFit:
    """Least-squares odd polynomial mapping the test grid to the mean curve."""
    t = curve.x_test
    if t.size < 4:
        raise ValueError("need at least 4 grid points to fit 4 coefficients")
    coeffs, resid = _fit_mean_curve(np.stack([t, t**3, t**5, t**7], axis=1), curve)
    return PolyFit(coeffs=coeffs, rmse=float(np.sqrt(np.mean(resid**2))))


def affine_residuals(curve: NonlinearityCurve) -> np.ndarray:
    """Residual, mean - fit, of the least-squares line through the mean curve
    (pure Monte-Carlo noise on ``cross_normalization_curve``, which is affine)."""
    t = curve.x_test
    return _fit_mean_curve(np.stack([t, np.ones_like(t)], axis=1), curve)[1]


def noise_budget(
    batch_size: int,
    dist: str,
    rng: np.random.Generator,
    n_outer: int = 4000,
    n_inner: int = 2000,
) -> Estimate:
    """Average conditional variance of the train statistic over the data.

    Nested Monte Carlo: outer draws follow the source distribution, inner
    draws estimate the conditional variance of the normalized value with an
    unbiased sample variance.  Returns its ``Estimate`` over the outer draws.

    The inner companions of a block of k outer points are reduced to the
    moments of k * n_inner rows by ``_companion_moments``, which takes the
    same random stream as one draw per point, so the result for a given
    generator state depends on neither the block nor the chunk size.
    """
    draw = standardized_sampler(dist)
    _check_batch_size(batch_size)
    _check_budget("n_outer", n_outer)
    _check_budget("n_inner", n_inner)
    xs = draw(n_outer, rng)
    v = np.empty(n_outer)
    step = max(1, _BUDGET_ELEMENTS // (n_inner * (batch_size - 1)))
    out = np.empty((min(step, n_outer), n_inner))
    scratch = np.empty(out.shape)
    for start in range(0, n_outer, step):
        x = xs[start : start + step, None]
        k = x.shape[0]
        m, s2 = _companion_moments(k * n_inner, batch_size, draw, rng)
        m, s2 = m.reshape(-1, n_inner), s2.reshape(-1, n_inner)
        f = _normalized_value(x, m, s2, batch_size, out[:k], scratch[:k])
        v[start : start + step] = f.var(axis=-1, ddof=1)
    return _estimate(v)


# ---------------------------------------------------------------------------
# variance shift of noise placed around a weight layer


def sample_sphere_rows(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rows drawn uniformly on the unit sphere."""
    w = rng.standard_normal((n, dim))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class ShiftReport:
    """Per-unit train/test variances and their shift ratios.

    ``ratio`` is max(train/test, test/train) per unit, so it is always at
    least 1.  ``mc_var_train`` holds simulated train variances when a
    Monte-Carlo cross-check was requested.
    """

    placement: str
    centered: bool
    keep_rate: float
    var_train: np.ndarray
    var_test: np.ndarray
    ratio: np.ndarray
    mc_var_train: np.ndarray | None = None

    @property
    def ratio_mean(self) -> float:
        return float(self.ratio.mean())

    @property
    def ratio_var(self) -> float:
        return float(self.ratio.var(ddof=1))

    @property
    def ratio_max(self) -> float:
        return float(self.ratio.max())


def variance_shift(
    placement: str,
    centered: bool,
    keep_rate: float,
    source,
    W: np.ndarray | None = None,
    n_rows: int = 256,
    n_mc: int = 0,
    rng: np.random.Generator | None = None,
) -> ShiftReport:
    """Train/test variance ratios of noise placed before a normalizer.

    placement "dropout-a" puts the noise after the weight layer (right
    before the normalizer), "dropout-b" before the weight layer.  The test
    variance per unit is w Sigma w^T; the train variance adds the
    marginalized noise term, computed in closed form from the source
    moments.  ``centered`` removes the mean from what the noise sees, which
    pins the dropout-a ratio at exactly 1/p for every row.  With
    ``n_mc`` > 0 the train variances are also simulated (the source must
    then support sampling) and reported alongside.
    """
    if placement not in ("dropout-a", "dropout-b"):
        raise ValueError("placement must be 'dropout-a' or 'dropout-b'")
    if not 0.0 < keep_rate < 1.0:
        raise ValueError("keep rate must lie in (0, 1) for a nontrivial shift")
    mean = np.asarray(source.mean, dtype=np.float64)
    cov = np.asarray(source.cov, dtype=np.float64)
    eig_floor = np.linalg.eigvalsh(cov)[0]
    if eig_floor < -1e-10 or np.trace(cov) <= 0.0:
        raise ValueError("feature covariance must be positive semidefinite with positive trace")
    if W is None:
        if rng is None:
            raise ValueError("sampling weight rows requires a generator")
        W = sample_sphere_rows(n_rows, mean.size, rng)
    W = np.asarray(W, dtype=np.float64)

    lam = _strength(keep_rate)
    second = cov if centered else cov + np.outer(mean, mean)
    var_test = np.einsum("nd,de,ne->n", W, cov, W)
    if placement == "dropout-a":
        var_train = var_test + lam * np.einsum("nd,de,ne->n", W, second, W)
    else:
        var_train = var_test + lam * (W**2) @ np.diag(second)
    ratio = np.maximum(var_train / var_test, var_test / var_train)

    mc_var = None
    if n_mc > 0:
        _check_budget("n_mc", n_mc)
        if rng is None:
            raise ValueError("the Monte-Carlo cross-check requires a generator")
        x = source.sample(int(n_mc), rng)
        # anchored at the source's population mean, not the batch mean
        # that Centered would subtract
        dropout = BernoulliDropout(keep_rate)
        if placement == "dropout-a":
            y = x @ W.T
            anchor = (W @ mean) if centered else np.zeros(W.shape[0])
            noised = anchor + dropout(y - anchor, rng)
        else:
            anchor = mean if centered else np.zeros(mean.size)
            noised = (anchor + dropout(x - anchor, rng)) @ W.T
        mc_var = noised.var(axis=0, ddof=1)

    return ShiftReport(placement, centered, keep_rate, var_train, var_test, ratio, mc_var)
