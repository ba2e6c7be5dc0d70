"""Train/eval noise operators: rotation noise and the dropout family.

Every operator is a stochastic map in train mode and the identity in eval
mode, and satisfies the zero-center contract E[noised | x] = x.  Operators
expose a fixed-realization interface (sample_state / apply_state /
backprop_state) so a training loop can replay the exact same noise during
its backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotation import (
    AngleDistribution,
    _finite,
    _keep_rate,
    _strength,
    fixed_angle,
    gaussian_tangent,
    keep_rate_for,
    sample_batch_rotation,
)

__all__ = [
    "NoiseOp",
    "BernoulliDropout",
    "GaussianDropout",
    "Uout",
    "RotationOut",
    "Centered",
    "NoiseOpSpec",
    "make_noise_op",
]


class NoiseOp:
    """Base class; subclasses implement the train-mode transform."""

    def sample_state(self, x: np.ndarray, rng: np.random.Generator):
        raise NotImplementedError

    def apply_state(self, x: np.ndarray, state) -> np.ndarray:
        raise NotImplementedError

    def backprop_state(self, g: np.ndarray, state) -> np.ndarray:
        """Pull a gradient back through the fixed-realization linear map."""
        raise NotImplementedError

    @property
    def equivalent_keep_rate(self) -> float:
        raise NotImplementedError

    def __call__(self, x, rng: np.random.Generator | None = None, mode: str = "train") -> np.ndarray:
        x = _finite("x", x)
        if mode == "eval":
            return x
        if mode != "train":
            raise ValueError(f"unknown mode: {mode!r}")
        if rng is None:
            raise ValueError("train mode needs a random generator")
        return self.apply_state(x, self.sample_state(x, rng))


class _Multiplicative(NoiseOp):
    """Common machinery for elementwise x * m noise with E[m] = 1."""

    def _multiplier(self, shape, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_state(self, x, rng):
        return self._multiplier(np.shape(x), rng)

    def apply_state(self, x, state):
        return np.asarray(x, dtype=np.float64) * state

    def backprop_state(self, g, state):
        return np.asarray(g, dtype=np.float64) * state


@dataclass
class BernoulliDropout(_Multiplicative):
    """Inverted dropout: drop with probability 1 - p, scale survivors by 1/p."""

    keep_rate: float

    def __post_init__(self):
        _strength(self.keep_rate)

    def _multiplier(self, shape, rng):
        return (rng.random(shape) < self.keep_rate) / self.keep_rate

    @property
    def equivalent_keep_rate(self) -> float:
        return self.keep_rate


@dataclass
class GaussianDropout(_Multiplicative):
    """x * (1 + eps) with eps ~ N(0, sigma2), independent per coordinate."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 <= self.sigma2 < np.inf:
            raise ValueError(f"sigma2 (the strength) must be finite and nonnegative, got {self.sigma2}")

    def _multiplier(self, shape, rng):
        return 1.0 + np.sqrt(self.sigma2) * rng.standard_normal(shape)

    @property
    def equivalent_keep_rate(self) -> float:
        return _keep_rate(self.sigma2)


@dataclass
class Uout(_Multiplicative):
    """x * (1 + r) with r ~ Unif[-beta, beta]; multiplier variance beta^2 / 3."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta (the strength) must be finite and nonnegative, got {self.beta}")

    def _multiplier(self, shape, rng):
        return 1.0 + rng.uniform(-self.beta, self.beta, shape)

    @property
    def equivalent_keep_rate(self) -> float:
        return _keep_rate(self.beta**2 / 3.0)


@dataclass
class RotationOut(NoiseOp):
    """Random pair-rotation noise, one fresh realization per batch row."""

    angles: AngleDistribution

    # a vector is handled as a one-row batch
    def sample_state(self, x, rng):
        x = np.asarray(x)
        if x.ndim not in (1, 2):
            raise ValueError("dense rotation noise expects a vector or an (n, D) batch")
        n, dim = np.atleast_2d(x).shape
        return sample_batch_rotation(n, dim, self.angles, rng)

    def apply_state(self, x, state):
        x = np.asarray(x, dtype=np.float64)
        return state.apply(np.atleast_2d(x)).reshape(x.shape)

    def backprop_state(self, g, state):
        g = np.asarray(g, dtype=np.float64)
        return state.apply_transpose(np.atleast_2d(g)).reshape(g.shape)

    @property
    def equivalent_keep_rate(self) -> float:
        return keep_rate_for(self.angles)


@dataclass
class Centered(NoiseOp):
    """Apply the wrapped op to mean-removed rows, then restore the mean.

    The centering estimate is the per-feature batch mean, recomputed on
    every call, so the regularization strength is independent of where the
    features happen to sit.
    """

    inner: NoiseOp

    def _mean(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("centered variant requires batch statistics")
        return x.mean(axis=0)

    def sample_state(self, x, rng):
        return self.inner.sample_state(np.asarray(x, dtype=np.float64), rng)

    def apply_state(self, x, state):
        x = np.asarray(x, dtype=np.float64)
        mean = self._mean(x)
        return self.inner.apply_state(x - mean, state) + mean

    def backprop_state(self, g, state):
        # y = A(x - mean(x)) + mean(x) for the fixed linear map A, so the
        # pullback is A^T g recentered plus the mean of g.
        g = np.asarray(g, dtype=np.float64)
        a = self.inner.backprop_state(g, state)
        return a - a.mean(axis=0) + g.mean(axis=0)

    @property
    def equivalent_keep_rate(self) -> float:
        return self.inner.equivalent_keep_rate


# ---------------------------------------------------------------------------
# declarative construction


@dataclass(frozen=True)
class NoiseOpSpec:
    """Declarative description of a dense noise op, constructible from config.

    ``strength`` is the keep rate p for the bernoulli and rotation kinds
    (rotation tangents are gaussian, matched through (1 - p)/p = E tan^2
    theta), the multiplier variance sigma^2 for gaussian dropout, and the
    half-width beta for uout.  ``centered`` wraps the op in ``Centered``.
    The paper's conv variant is ``apply_featuremap``; its recurrent variant
    is ``BatchRotation.apply`` with one pairing per sequence.  The
    kind and strength are checked by building the op once.
    """

    kind: str
    strength: float
    centered: bool = False

    def __post_init__(self):
        make_noise_op(self)


def make_noise_op(spec: NoiseOpSpec) -> NoiseOp:
    """Instantiate the operator described by ``spec``."""
    if spec.kind == "bernoulli-dropout":
        op: NoiseOp = BernoulliDropout(spec.strength)
    elif spec.kind == "gaussian-dropout":
        op = GaussianDropout(spec.strength)
    elif spec.kind == "uout":
        op = Uout(spec.strength)
    elif spec.kind == "rotation":
        lam = _strength(spec.strength)
        # keep rate 1 is the no-noise limit: identity rotations
        op = RotationOut(gaussian_tangent(np.sqrt(lam)) if lam else fixed_angle(0.0))
    else:
        raise ValueError(f"unknown noise kind: {spec.kind!r}")
    return Centered(op) if spec.centered else op
