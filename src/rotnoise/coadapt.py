"""Co-adaptation metric and closed-form noise covariance analysis.

Co-adaptation of a feature vector is measured as the entrywise L1 mass of
the off-diagonal covariance relative to the total variance.  The closed
forms below give the conditional and total covariance of dropout and
rotation noise, from which the co-adaptation reduction factors follow;
``verify_reduction`` checks them against Monte-Carlo sample covariances.

The noise law lives in one place, ``_noise_moment``, which ``linreg``'s
marginalized systems call too; it reads the rotation pair rate from
``_pair_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .noise_ops import NoiseOpSpec, make_noise_op
from .rotation import _check_budget, _estimate, _finite, _strength

__all__ = [
    "CovStats",
    "CoadaptReport",
    "coadaptation",
    "conditional_noise_covariance",
    "total_variance",
    "reduction_factor",
    "predicted_factor",
    "verify_reduction",
]

_METHODS = ("dropout", "rotation")


@dataclass(frozen=True, eq=False)
class CovStats:
    """Mean vector and covariance matrix of a feature batch."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _finite("mean", self.mean)
        cov = _finite("cov", self.cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean vector")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if np.any(np.diag(cov) < -1e-12):
            raise ValueError("covariance diagonal must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))


def _coadaptation_of(cov: np.ndarray) -> float:
    trace = float(np.trace(cov))
    if trace <= 0.0:
        raise ValueError("degenerate covariance")
    off = np.abs(cov - np.diag(np.diag(cov))).sum()
    return float(off / trace)


def _uncorrelated(cov: np.ndarray) -> bool:
    """Whether co-adaptation is (numerically) zero, leaving a reduction factor 0/0."""
    return _coadaptation_of(cov) < 1e-12


def coadaptation(stats: CovStats) -> float:
    """Off-diagonal L1 mass of the covariance over its trace.

    Zero for independent coordinates and invariant under positive scalar
    rescaling of the covariance.
    """
    return _coadaptation_of(stats.cov)


def _pair_rate(dim: int) -> float:
    """Rate at which the rotation sampler pairs two given coordinates.

    Each of the D (D - 1) / 2 coordinate pairs is one of the D // 2 planes
    of a draw with equal probability: 1 / (D - 1) for even D and 1 / D for
    odd D, whose sampler leaves one coordinate out per draw.
    """
    if dim < 2:
        raise ValueError("rotation undefined below dimension 2")
    return 2 * (dim // 2) / (dim * (dim - 1))


def _noise_moment(second: np.ndarray, method: str, lam: float) -> np.ndarray:
    """E[(y - x)(y - x)^T] of the noised y, given S = E[x x^T] (``second``).

    dropout:   lam * diag(S)
    rotation:  lam * r * (trace(S) I - S), with r = ``_pair_rate(D)``
    """
    if method == "dropout":
        return lam * np.diag(np.diag(second))
    if method == "rotation":
        d = second.shape[0]
        return lam * _pair_rate(d) * (np.trace(second) * np.eye(d) - second)
    raise ValueError(f"method must be one of {_METHODS}")


def conditional_noise_covariance(x, method: str, keep_rate: float) -> np.ndarray:
    """Covariance of the noised vector given the input, in closed form.

    dropout:   lam * diag(x x^T)
    rotation:  lam * r * (x^T x I - x x^T), r = ``_pair_rate(D)``
    with lam = (1 - p) / p.  Both have trace lam * x^T x for even D; the
    rotation form additionally carries negative cross terms proportional
    to -x_i x_j.
    """
    x = _finite("x", x)
    return _noise_moment(np.outer(x, x), method, _strength(keep_rate))


def total_variance(stats: CovStats, method: str, keep_rate: float) -> np.ndarray:
    """Unconditional covariance of the noised features, in closed form.

    By the law of total variance this is the input covariance plus the
    expectation of the conditional noise covariance over the inputs.
    """
    lam = _strength(keep_rate)
    second = stats.cov + np.outer(stats.mean, stats.mean)
    return stats.cov + _noise_moment(second, method, lam)


def reduction_factor(method: str, keep_rate: float, dim: int) -> float:
    """Co-adaptation reduction for zero-mean inputs.

    dropout scales co-adaptation by p; the strength-matched rotation noise
    scales it by |1 - lam r| / (1 + lam (D - 1) r) with r = ``_pair_rate(D)``,
    which is |p - (1 - p) / (D - 1)| for even D, strictly stronger for finite
    D while lam r < 1.  Past lam r = 1 the noise flips the sign of every
    off-diagonal covariance, and the factor, a ratio of L1 masses, rises
    again as p falls.
    """
    lam = _strength(keep_rate)
    if method == "dropout":
        return float(keep_rate)
    if method == "rotation":
        r = _pair_rate(dim)
        return float(abs(1.0 - lam * r) / (1.0 + lam * (dim - 1) * r))
    raise ValueError(f"method must be one of {_METHODS}")


def predicted_factor(stats: CovStats, method: str, keep_rate: float) -> float:
    """co(noised) / co(input) predicted from exact input moments.

    Reduces to ``reduction_factor`` when the mean is zero; with a nonzero
    mean the factor is smaller still because the mean energy inflates the
    noise floor.  An uncorrelated source has no factor: a ValueError.
    """
    if _uncorrelated(stats.cov):
        raise ValueError("the reduction factor is undefined: the input co-adaptation is below 1e-12")
    return _coadaptation_of(total_variance(stats, method, keep_rate)) / _coadaptation_of(stats.cov)


@dataclass(frozen=True)
class CoadaptReport:
    """Observed vs predicted co-adaptation reduction for one experiment."""

    method: str
    keep_rate: float
    dim: int
    n_samples: int
    co_input: float
    co_output: float
    observed_factor: float
    predicted_factor: float
    stderr: float
    undefined: bool = False


def _split_covariances(a: np.ndarray, bounds) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sample covariances (ddof=1) of all rows of ``a`` and of each row split.

    Each split's mean and centred Gram are computed once; the whole-sample
    covariance follows from them by the pairwise merge of (count, mean,
    centred Gram), Chan, Golub & LeVeque, so the rows are read only once.
    """
    done = 0
    mean = np.zeros(a.shape[1])
    gram = np.zeros((a.shape[1], a.shape[1]))
    splits = []
    for lo, hi in pairwise(bounds):
        rows = hi - lo
        part_mean = a[lo:hi].mean(axis=0)
        centred = a[lo:hi] - part_mean
        part_gram = centred.T @ centred
        splits.append(part_gram / (rows - 1))
        total = done + rows
        delta = part_mean - mean
        mean += delta * (rows / total)
        gram += part_gram + np.outer(delta, delta) * (done * rows / total)
        done = total
    return gram / (done - 1), splits


def verify_reduction(
    source,
    method: str,
    keep_rate: float,
    n_samples: int,
    rng: np.random.Generator,
    center: bool = True,
) -> CoadaptReport:
    """Monte-Carlo check of the reduction factor on a synthetic source.

    Draws ``n_samples`` vectors, optionally removes the sample mean (the
    zero-center regime the closed-form factors assume), noises each vector
    once, and compares co(output)/co(input) from sample covariances with
    the moment-based prediction.  The standard error is estimated from the
    spread of per-chunk factors over 20 equal splits.

    A source with (numerically) diagonal covariance has co(input) = 0; the
    factor is then undefined and flagged rather than reported as a number.
    """
    # each of the 20 chunks below needs two rows for a sample covariance
    _check_budget("n_samples", n_samples, least=40)
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    x = np.asarray(source.sample(int(n_samples), rng), dtype=np.float64)
    if center:
        x = x - x.mean(axis=0)
    kind = "bernoulli-dropout" if method == "dropout" else "rotation"
    noised = make_noise_op(NoiseOpSpec(kind, keep_rate))(x, rng)

    bounds = np.linspace(0, x.shape[0], 21, dtype=int)
    cov_in, splits_in = _split_covariances(x, bounds)
    cov_out, splits_out = _split_covariances(noised, bounds)
    co_in = _coadaptation_of(cov_in)
    co_out = _coadaptation_of(cov_out)

    # 0/0 guard: with an exactly diagonal source covariance the factor is
    # undefined and must be flagged, not reported as a number
    if _uncorrelated(np.asarray(source.cov, dtype=np.float64)):
        return CoadaptReport(
            method, keep_rate, source.dim, int(n_samples), co_in, co_out,
            observed_factor=float("nan"), predicted_factor=float("nan"),
            stderr=float("nan"), undefined=True,
        )

    stats = CovStats(mean=np.zeros(source.dim) if center else source.mean, cov=source.cov)
    predicted = predicted_factor(stats, method, keep_rate)

    factors = [_coadaptation_of(co) / _coadaptation_of(ci) for ci, co in zip(splits_in, splits_out)]
    stderr = _estimate(factors).stderr

    return CoadaptReport(
        method, keep_rate, source.dim, int(n_samples), co_in, co_out,
        observed_factor=co_out / co_in, predicted_factor=predicted, stderr=stderr,
    )
