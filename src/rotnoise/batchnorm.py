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

from .coadapt import CovStats
from .noise_ops import NoiseOpSpec, make_noise_op
from .rotation import Estimate, _check_budget, _estimate, _finite, _strength

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
        fields = ("running_mean", "running_var", "gamma", "beta")
        for name in fields:
            setattr(self, name, _finite(name, getattr(self, name)))
        if len({getattr(self, name).shape for name in fields}) != 1 or self.gamma.ndim != 1:
            shapes = ", ".join(f"{name} {getattr(self, name).shape}" for name in fields)
            raise ValueError(f"the four statistics must be 1-D of one width, got {shapes}")
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


def _check_width(x: np.ndarray, state: BatchNormState) -> None:
    if x.shape[-1:] != state.gamma.shape:
        raise ValueError(f"x of shape {x.shape} does not have the state's width {state.gamma.size}")


def _train_normalize(x: np.ndarray, state: BatchNormState, update: bool):
    """``bn_train_forward`` returning (out, xhat, inv_std) for a backward pass."""
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("batch normalization needs a batch of at least 2")
    _check_width(x, state)
    b = x.shape[0]
    mu = x.mean(axis=0)
    xhat = x - mu
    var = np.mean(xhat**2, axis=0)
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat *= inv_std
    if update:
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mu
        state.running_var = (1 - m) * state.running_var + m * var * b / (b - 1)
        state.n_batches += 1
    return state.gamma * xhat + state.beta, xhat, inv_std


def _check_populated(state: BatchNormState) -> None:
    if state.n_batches == 0:
        raise ValueError("running statistics are unpopulated; run training batches first")


def _eval_normalize(x: np.ndarray, state: BatchNormState, correction=None, out=None):
    """``bn_test_forward`` writing into ``out`` when given (``out=x``: in place)."""
    _check_populated(state)
    _check_width(x, state)
    var = state.running_var
    if correction is not None:
        tag = correction[0]
        if tag == "scale-variance":
            keep_rate = float(correction[1])
            _strength(keep_rate)
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


def _eval_affine(state: BatchNormState) -> tuple[np.ndarray, np.ndarray]:
    """The plain eval normalization folded into x * scale + shift, in float64."""
    _check_populated(state)
    scale = state.gamma / np.sqrt(state.running_var + state.eps)
    return scale, state.beta - scale * state.running_mean


def bn_train_forward(x, state: BatchNormState) -> np.ndarray:
    """Normalize a (B, D) batch with its own statistics.

    The batch variance uses the 1/B normalizer; the running variance is
    updated with the B/(B-1) debiased value through an exponential moving
    average of the configured momentum.
    """
    return _train_normalize(_finite("x", x), state, update=True)[0]


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
    return _eval_normalize(_finite("x", x), state, correction)


def cross_normalize(x, gamma, beta, eps: float = 1e-5, normalizer: str = "b-1") -> np.ndarray:
    """Normalize each element by the statistics of the rest of its batch.

    The leave-one-out mean and variance are independent of the element
    itself, which makes the expected output exactly affine in the input.
    ``normalizer`` selects the divisor of the leave-one-out sums: "b-1"
    (the count of the remaining elements, default) or "b" (batch size).
    ``eps`` must be finite and non-negative; at ``eps = 0`` every element's
    leave-one-out variance must be positive, so no column may hold b - 1
    equal values.
    """
    x = _finite("x", x)
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be non-negative and finite, got {eps}")
    if eps == 0 and x.ndim == 2 and len(x) >= 3:
        s = np.sort(x, axis=0)
        if np.any((s[0] == s[-2]) | (s[1] == s[-1])):
            raise ValueError(
                "eps = 0 needs a nonzero leave-one-out variance, but a column holds b - 1 equal values"
            )
    return _cross_normalize_rows(x, gamma, beta, eps, normalizer, None)


def _cross_normalize_rows(x, gamma, beta, eps: float, normalizer: str, rows: int | None) -> np.ndarray:
    """The first ``rows`` rows (all with ``None``) of ``cross_normalize``.

    The leave-one-out sums are products over the whole batch, since their
    bits depend on the product's shape; only the arithmetic after them is
    restricted to the rows kept.
    """
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
    loo_sum = (hold @ x)[:rows]
    loo_sq = (hold @ x**2)[:rows]
    mu = loo_sum / denom
    # sum_{k != i} (x_k - mu_i)^2 / denom, expanded through the two sums
    var = loo_sq / denom - 2 * mu * loo_sum / denom + mu**2 * (b - 1) / denom
    return gamma * (x[:rows] - mu) / np.sqrt(var + eps) + beta


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


# companion rows on which mc_nonlinearity_curve evaluates its grid at once
_CURVE_BLOCK = 100_000
# companion values drawn at once, and per block of noise_budget's outer points
_BUDGET_ELEMENTS = 2**17
# batches whose companion moments cross_normalization_curve draws at once
_CN_CHUNK = 5000


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 2:
        raise ValueError("batch size must be at least 2")


def _check_grid(grid) -> np.ndarray:
    grid = _finite("grid", grid)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    return grid


def _companion_moments(rows: int, batch_size: int, draw, rng) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 1/n variance of each of ``rows`` rows of B - 1 companions.

    For the Gaussian source (``draw is _gaussian``; a wrapped sampler does
    not count) the moments are drawn directly.  By Cochran's theorem the
    mean m and the 1/n variance s^2 of w = B - 1 iid N(0, 1) values are
    independent, with m ~ N(0, 1/w) and w s^2 ~ chi-square(w - 1).  So the
    call takes ``rows`` standard normals for m, then ``rows`` chi-square
    variates for s^2: two variates per row, whatever the batch size.  At
    w = 1, s^2 is exactly 0 and only the normals are drawn.

    Every other sampler has its companions drawn in whole rows, about
    ``_BUDGET_ELEMENTS`` values at a time, which takes the same random
    stream as one ``(rows, B - 1)`` draw.  Each row's moments are
    ``np.mean`` of that row bit for bit, so no bit depends on the chunk
    size.  The arrays ``draw`` returns are never written.
    """
    width = batch_size - 1
    if draw is _gaussian:
        m = rng.standard_normal(rows)
        m *= np.sqrt(1.0 / width)
        if width == 1:
            return m, np.zeros(rows)
        s2 = rng.chisquare(width - 1, rows)
        s2 /= width
        return m, s2
    step = max(1, _BUDGET_ELEMENTS // width)
    # chunk buffers before m and s2: freed, they leave a hole below them, not
    # a heap top that malloc hands back to the system and faults in per call
    z = draw((min(step, rows), width), rng)
    scratch = np.empty(z.size)
    m = np.empty(rows)
    s2 = np.empty(rows)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        if lo:
            z = draw((hi - lo, width), rng)
        dev = np.subtract(z, np.mean(z, axis=-1, out=m[lo:hi])[:, None],
                          out=scratch[: z.size].reshape(z.shape))
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
    The companions' moments come from one ``_companion_moments`` call: for
    the Gaussian source they take ``n`` normals and then ``n`` chi-square
    variates from ``rng`` (the normals only at B = 2); any other
    ``draw(shape, rng)`` is called on chunks of whole rows, taking the
    random stream of one ``(n, B - 1)`` draw, and what it returns is only
    read.
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
    draws (common random numbers).  One ``_companion_moments`` call draws
    them all, taking the same stream as ``train_statistic_samples`` with
    ``n = n_mc``, and only their per-row moments are kept: 16 bytes per
    draw, whatever the batch size.  The grid is evaluated on blocks of
    ``_CURVE_BLOCK`` rows, whose per-point means and sums of squared
    deviations are merged exactly.  ``f_var`` and ``stderr`` are per point
    and marginal: each point's estimate is unbiased with that standard
    error, but the errors of different grid points are correlated, so
    their stderrs do not combine as if the points were independent.  The
    random draws do not depend on the grid.
    """
    draw = standardized_sampler(dist)
    _check_batch_size(batch_size)
    _check_budget("n_mc", n_mc)
    grid = default_poly_grid() if grid is None else _check_grid(grid)
    m_all, s2_all = _companion_moments(n_mc, batch_size, draw, rng)
    mean = np.zeros_like(grid)
    sq_dev = np.zeros_like(grid)  # sums of squared deviations from the mean
    f_buf = np.empty(min(_CURVE_BLOCK, n_mc))
    dev_buf = np.empty(f_buf.size)
    block_mean = np.empty_like(grid)
    block_sq_dev = np.empty_like(grid)
    for done in range(0, n_mc, _CURVE_BLOCK):
        m = m_all[done : done + _CURVE_BLOCK]
        s2 = s2_all[done : done + _CURVE_BLOCK]
        rows = m.size
        f, dev = f_buf[:rows], dev_buf[:rows]
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

    For each grid value, ``n_mc`` gaussian batches have their first element
    set to the value and pass through ``cross_normalize`` with unit gain and
    no eps; only the held element's row is computed.  That row reads its
    w = b - 1 companions only through their sum and sum of squared
    deviations, so per chunk of up to ``_CN_CHUNK`` batches
    ``_companion_moments`` draws their mean mu and 1/n variance s^2 (two
    variates per batch), and the companions mu + sqrt(w s^2) e, with
    e = (1, -1, 0, ..., 0) / sqrt(2), keep the output law of a full
    gaussian batch.  The held element's statistics do not depend on it, so
    the mean output is exactly affine in the grid value.  Grid points use
    independent draws.  ``batch_size`` must be at least 3.

    Under "b-1" the mean output is x sqrt(b - 1) Gamma((b - 3)/2) /
    (sqrt(2) Gamma((b - 2)/2)).  The output has no finite mean at b = 3 and
    no finite variance at b = 4, so the stderr means nothing there.
    """
    if batch_size < 3:
        raise ValueError(f"cross-normalization needs a batch of at least 3, got batch_size {batch_size}")
    _check_budget("n_mc", n_mc)
    grid = _check_grid(grid)
    gamma = np.ones(1)
    beta = np.zeros(1)
    means = np.empty_like(grid)
    stderr = np.empty_like(grid)
    for k, x1 in enumerate(grid):
        outs = np.empty(n_mc)
        for done in range(0, n_mc, _CN_CHUNK):
            m = min(_CN_CHUNK, n_mc - done)
            mu, s2 = _companion_moments(m, batch_size, _gaussian, rng)
            spread = np.sqrt(s2 * ((batch_size - 1) / 2.0))
            batch = np.vstack([np.full(m, x1), mu + spread, mu - spread, *[mu] * (batch_size - 3)])
            outs[done : done + m] = _cross_normalize_rows(batch, gamma, beta, 0.0, normalizer, 1)[0]
        means[k], stderr[k] = _estimate(outs)
    f_var = n_mc * stderr**2
    return NonlinearityCurve("gaussian", batch_size, grid, means, f_var, stderr)


@dataclass(frozen=True, eq=False)
class PolyFit:
    """Odd-polynomial correction a1 x + a3 x^3 + a5 x^5 + a7 x^7; ``coeffs`` is (a1, a3, a5, a7)."""

    coeffs: np.ndarray
    rmse: float


def evaluate_odd_poly(coeffs, x) -> np.ndarray:
    """a1 x + a3 x^3 + a5 x^5 + a7 x^7 for ``coeffs`` = (a1, a3, a5, a7)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (4,):
        raise ValueError(f"odd-polynomial coefficients must have shape (4,), got {coeffs.shape}")
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
    # two points fit any line exactly, leaving residuals of rounding only
    if t.size < 3:
        raise ValueError("need at least 3 grid points to test an affine fit")
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

    The outer points are drawn first.  Each point's n_inner companion rows
    are then reduced to moments by their own ``_companion_moments`` call,
    as ``train_statistic_samples`` does for one point (for the Gaussian
    source: n_inner normals, then n_inner chi-square variates), and the
    points are normalized in blocks of about ``_BUDGET_ELEMENTS``
    companions.  So for a given generator state the result equals the
    per-point ``train_statistic_samples`` reference, whatever the block
    and chunk sizes.
    """
    draw = standardized_sampler(dist)
    _check_batch_size(batch_size)
    _check_budget("n_outer", n_outer)
    _check_budget("n_inner", n_inner)
    xs = draw(n_outer, rng)
    v = np.empty(n_outer)
    step = max(1, _BUDGET_ELEMENTS // (n_inner * (batch_size - 1)))
    m, s2, out, scratch = np.empty((4, min(step, n_outer), n_inner))
    for start in range(0, n_outer, step):
        x = xs[start : start + step, None]
        k = x.shape[0]
        for i in range(k):
            m[i], s2[i] = _companion_moments(n_inner, batch_size, draw, rng)
        f = _normalized_value(x, m[:k], s2[:k], batch_size, out[:k], scratch[:k])
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
    then support sampling) and reported alongside.  Every row needs a
    positive test variance, so a zero row, or a row in the covariance's
    null space, is refused by index; a given ``W`` with no rows is refused
    too.
    """
    if placement not in ("dropout-a", "dropout-b"):
        raise ValueError("placement must be 'dropout-a' or 'dropout-b'")
    if not 0.0 < keep_rate < 1.0:
        raise ValueError("keep rate must lie in (0, 1) for a nontrivial shift")
    stats = CovStats(source.mean, source.cov)
    mean, cov = stats.mean, stats.cov
    # the trace first: a source of dimension 0 has no smallest eigenvalue
    if np.trace(cov) <= 0.0 or np.linalg.eigvalsh(cov)[0] < -1e-10:
        raise ValueError("feature covariance must be positive semidefinite with positive trace")
    if W is None:
        if rng is None:
            raise ValueError("sampling weight rows requires a generator")
        if n_rows < 1:
            raise ValueError(f"n_rows must be at least 1, got {n_rows}")
        W = sample_sphere_rows(n_rows, mean.size, rng)
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != mean.size:
        raise ValueError(f"W of shape {W.shape} is not (n_rows, {mean.size}), the source dimension")
    if len(W) == 0:
        raise ValueError(f"W of shape {W.shape} has no rows; it needs at least one")

    lam = _strength(keep_rate)
    second = cov if centered else cov + np.outer(mean, mean)
    var_test = np.einsum("nd,de,ne->n", W, cov, W)
    # written as "not ..." so that a NaN fails too
    bad = np.flatnonzero(~(var_test > 0.0))
    if bad.size:
        raise ValueError(
            f"row {bad[0]} of W has test variance {float(var_test[bad[0]])!r}, not positive:"
            " a zero row, or a row in the feature covariance's null space"
        )
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
        dropout = make_noise_op(NoiseOpSpec("bernoulli-dropout", keep_rate))
        if placement == "dropout-a":
            y = x @ W.T
            anchor = (W @ mean) if centered else np.zeros(W.shape[0])
            noised = anchor + dropout(y - anchor, rng)
        else:
            anchor = mean if centered else np.zeros(mean.size)
            noised = (anchor + dropout(x - anchor, rng)) @ W.T
        mc_var = noised.var(axis=0, ddof=1)

    return ShiftReport(placement, centered, keep_rate, var_train, var_test, ratio, mc_var)
