"""Synthetic correlated feature sources with exact first and second moments.

Every source exposes ``mean``, ``cov`` and ``sample`` so Monte-Carlo runs
can be checked against closed forms computed from the same moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianSource",
    "ReluGaussianSource",
    "equicorrelated",
    "random_correlation",
]


def equicorrelated(dim: int, rho: float) -> np.ndarray:
    """Correlation matrix with constant off-diagonal entries."""
    if not -1.0 / (dim - 1) < rho < 1.0:
        raise ValueError("equicorrelation parameter outside the valid range")
    mat = np.full((dim, dim), float(rho))
    np.fill_diagonal(mat, 1.0)
    return mat


def random_correlation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Correlation matrix of a random (D, 2D) Gaussian Gram matrix (full rank a.s.)."""
    g = rng.standard_normal((dim, 2 * dim))
    c = g @ g.T
    d = 1.0 / np.sqrt(np.diag(c))
    return c * np.outer(d, d)


@dataclass(frozen=True)
class GaussianSource:
    """Centered Gaussian vectors with covariance ``cov``."""

    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", np.linalg.cholesky(cov))

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.dim)) @ self._chol.T


def _relu_cross_moment(rho: np.ndarray) -> np.ndarray:
    # E[max(u,0) max(v,0)] for standard normal (u, v) with correlation rho:
    # (sin t + (pi - t) cos t) / (2 pi) with t = arccos(rho).
    t = np.arccos(np.clip(rho, -1.0, 1.0))
    return (np.sin(t) + (np.pi - t) * np.cos(t)) / (2.0 * np.pi)


@dataclass(frozen=True)
class ReluGaussianSource:
    """ReLU of a standard Gaussian with correlation ``corr``.

    Moments are exact: the mean of a rectified standard normal is
    1/sqrt(2 pi) and the cross moments follow the arc-cosine kernel.
    """

    corr: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        corr = np.asarray(self.corr, dtype=np.float64)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "_chol", np.linalg.cholesky(corr))

    @property
    def dim(self) -> int:
        return self.corr.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / np.sqrt(2.0 * np.pi))

    @property
    def cov(self) -> np.ndarray:
        cov = _relu_cross_moment(self.corr) - 1.0 / (2.0 * np.pi)
        np.fill_diagonal(cov, 0.5 - 1.0 / (2.0 * np.pi))
        return cov

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim)) @ self._chol.T
        return np.maximum(z, 0.0)
