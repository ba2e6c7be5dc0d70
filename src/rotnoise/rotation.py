"""Random pair-rotation operators with O(D) application.

The operator partitions the D coordinates of a vector into d = D // 2
ordered planes, rotates every plane by a random angle theta, and rescales
by 1 / cos(theta).  For a plane (i, j) the output is

    y_i = x_i + tan(theta) * x_j
    y_j = x_j - tan(theta) * x_i

so the whole map is y = x + tan(theta) * s with a sparse, signed shuffle s.
The noise each coordinate receives is another coordinate's activation,
which is what distinguishes this operator from elementwise dropout noise.

One private kernel computes s for a single pairing and for one pairing
per row; the transpose is the same map with the tangent negated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngleDistribution",
    "Pairing",
    "RotationRealization",
    "BatchRotation",
    "uniform_angle",
    "gaussian_tangent",
    "fixed_angle",
    "second_moment_of_tangent",
    "keep_rate_for",
    "uniform_angle_for_keep_rate",
    "sample_pairing",
    "pairing_from_permutation",
    "rotation_matrix",
    "apply_rotation",
    "apply_rotation_transpose",
    "sample_batch_rotation",
    "apply_featuremap",
    "fixed_direction_sequence",
]

_HALF_PI = np.pi / 2


# ---------------------------------------------------------------------------
# angle distributions


@dataclass(frozen=True)
class AngleDistribution:
    """Distribution of the rotation angle, described through its tangent.

    kind
        ``"uniform-angle"``  : theta ~ Unif(-parameter, parameter),
        parameter in (0, pi/2).
        ``"gaussian-tangent"``: tan(theta) ~ N(0, parameter**2), parameter > 0.
        ``"fixed"``          : theta = parameter in (-pi/2, pi/2).
    """

    kind: str
    parameter: float

    def __post_init__(self):
        p = float(self.parameter)
        if self.kind == "uniform-angle":
            if not 0.0 < p < _HALF_PI:
                raise ValueError("uniform-angle width must lie in (0, pi/2)")
        elif self.kind == "gaussian-tangent":
            if not 0.0 < p < np.inf:
                raise ValueError("gaussian tangent scale must be positive and finite")
        elif self.kind == "fixed":
            if not -_HALF_PI < p < _HALF_PI:
                raise ValueError("fixed angle must lie in (-pi/2, pi/2)")
        else:
            raise ValueError(f"unknown angle distribution kind: {self.kind!r}")

    def sample_tangents(self, size, rng: np.random.Generator) -> np.ndarray:
        """Draw tangent values; two-sided for every kind."""
        if self.kind == "uniform-angle":
            return np.tan(rng.uniform(-self.parameter, self.parameter, size))
        if self.kind == "gaussian-tangent":
            return self.parameter * rng.standard_normal(size)
        return np.broadcast_to(np.tan(self.parameter), size).copy()

    def sample_magnitudes(self, size, rng: np.random.Generator) -> np.ndarray:
        """One-sided tangents for the feature-map variant.

        The per-position angles of the shared-direction map are drawn from
        Unif(0, parameter) for the uniform kind; for the other kinds the
        tangent magnitude |tan(theta)| is used.
        """
        if self.kind == "uniform-angle":
            return np.tan(rng.uniform(0.0, self.parameter, size))
        return np.abs(self.sample_tangents(size, rng))


def uniform_angle(width: float) -> AngleDistribution:
    return AngleDistribution("uniform-angle", float(width))


def gaussian_tangent(sigma: float) -> AngleDistribution:
    return AngleDistribution("gaussian-tangent", float(sigma))


def fixed_angle(theta: float) -> AngleDistribution:
    return AngleDistribution("fixed", float(theta))


def second_moment_of_tangent(dist: AngleDistribution) -> float:
    """E[tan(theta)^2], the quantity that sets the regularization strength.

    Closed forms: sigma**2 for the gaussian-tangent kind, tan(theta)**2 for
    a fixed angle, and tan(T)/T - 1 for theta ~ Unif(-T, T).
    """
    if dist.kind == "gaussian-tangent":
        return dist.parameter**2
    if dist.kind == "fixed":
        return float(np.tan(dist.parameter) ** 2)
    width = dist.parameter
    return float(np.tan(width) / width - 1.0)


def keep_rate_for(dist: AngleDistribution) -> float:
    """Keep rate p of the Bernoulli dropout with matching multiplier variance.

    Strengths are matched through (1 - p) / p = E[tan(theta)^2].
    """
    return 1.0 / (1.0 + second_moment_of_tangent(dist))


def uniform_angle_for_keep_rate(keep_rate: float, tol: float = 1e-12) -> AngleDistribution:
    """Invert keep_rate_for for the uniform-angle kind by bisection.

    Solves tan(T)/T - 1 = (1 - p)/p for T in (0, pi/2); the left side is
    strictly increasing, so bisection to ``tol`` on T is sufficient.
    """
    if not 0.0 < keep_rate < 1.0:
        raise ValueError("keep rate must lie in (0, 1) to invert")
    target = (1.0 - keep_rate) / keep_rate
    lo, hi = 1e-9, _HALF_PI - 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.tan(mid) / mid - 1.0 < target:
            lo = mid
        else:
            hi = mid
    return uniform_angle(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# pairings


@dataclass(frozen=True)
class Pairing:
    """Partition of ``dim`` coordinates into ordered planes.

    ``pairs`` has shape (d, 2); for odd ``dim`` exactly one coordinate is
    left out of every plane and recorded in ``fixed``.
    """

    pairs: np.ndarray
    fixed: int | None
    dim: int

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.intp).reshape(-1, 2)
        object.__setattr__(self, "pairs", pairs)
        if self.dim < 2 or len(pairs) == 0:
            raise ValueError("rotation undefined below dimension 2")
        if (self.fixed is None) != (self.dim % 2 == 0):
            raise ValueError("fixed coordinate is present exactly when dim is odd")
        used = pairs.ravel().tolist()
        if self.fixed is not None:
            used.append(int(self.fixed))
        if sorted(used) != list(range(self.dim)):
            raise ValueError("pairing must cover every coordinate exactly once")


def pairing_from_permutation(perm) -> Pairing:
    """Build the pairing induced by a permutation of 0..D-1.

    The first half of the permutation is paired with the second half
    elementwise; for odd length the trailing entry is the fixed coordinate.
    """
    perm = np.asarray(perm, dtype=np.intp)
    dim = perm.size
    d = dim // 2
    fixed = int(perm[-1]) if dim % 2 else None
    pairs = np.stack([perm[:d], perm[d : 2 * d]], axis=1)
    return Pairing(pairs=pairs, fixed=fixed, dim=dim)


def sample_pairing(dim: int, rng: np.random.Generator) -> Pairing:
    """Draw a uniform pairing of ``dim`` coordinates.

    The draw is induced by a uniform permutation, so every coordinate is
    equally likely to be the fixed one when ``dim`` is odd.
    """
    if dim < 2:
        raise ValueError("rotation undefined below dimension 2")
    return pairing_from_permutation(rng.permutation(dim))


@dataclass(frozen=True)
class RotationRealization:
    """One concrete rotation: a pairing plus tangent value(s).

    ``tangent`` is a scalar for dense vectors; an array broadcasts against
    the input, so an (n, 1) column gives each row its own tangent.
    """

    pairing: Pairing
    tangent: float | np.ndarray


# ---------------------------------------------------------------------------
# application


def rotation_matrix(pairing: Pairing, theta: float) -> np.ndarray:
    """Dense D x D form of the normalized rotation, for reference use.

    Equals the plane-rotation matrix divided by cos(theta); the fixed
    coordinate of an odd-dimension pairing is passed through unscaled.
    Quadratic cost; prefer apply_rotation everywhere else.
    """
    t = np.tan(theta)
    mat = np.eye(pairing.dim)
    for i, j in pairing.pairs:
        mat[i, j] = t
        mat[j, i] = -t
    return mat


def _check_dim(x: np.ndarray, dim: int):
    if x.shape[-1] != dim:
        raise ValueError(f"vector dimension {x.shape[-1]} does not match pairing dimension {dim}")


def _pair_shuffle(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The signed shuffle s[i] = x[j], s[j] = -x[i] along the last axis.

    ``i`` and ``j`` hold the planes either as one (d,) pairing shared by
    every row or as (n, d) arrays with one pairing per row of an (n, D)
    ``x``.  A coordinate in no plane gets s = 0.
    """
    rows = Ellipsis if i.ndim == 1 else np.arange(x.shape[0])[:, None]
    s = np.zeros_like(x)
    s[rows, i] = x[rows, j]
    s[rows, j] = -x[rows, i]
    return s


def _rotate(x, i, j, tangent, dim: int) -> np.ndarray:
    """x + tangent * s; a transpose passes -t, as g + (-t) * s == g - t * s exactly."""
    x = np.asarray(x, dtype=np.float64)
    _check_dim(x, dim)
    return x + tangent * _pair_shuffle(x, i, j)


def apply_rotation(x, realization: RotationRealization) -> np.ndarray:
    """Apply one rotation realization along the last axis of ``x`` in O(D)."""
    pairs = realization.pairing.pairs
    return _rotate(x, pairs[:, 0], pairs[:, 1], realization.tangent, realization.pairing.dim)


def apply_rotation_transpose(g, realization: RotationRealization) -> np.ndarray:
    """Apply the transpose of the realized operator (backward pass).

    Identical to applying the same pairing with the tangent negated, so
    <R x, g> == <x, R^T g> holds for all x, g.
    """
    pairs = realization.pairing.pairs
    return _rotate(g, pairs[:, 0], pairs[:, 1], -realization.tangent, realization.pairing.dim)


# ---------------------------------------------------------------------------
# vectorized per-row realizations


@dataclass(frozen=True)
class BatchRotation:
    """Fresh rotation per row of an (n, D) batch, stored in index form.

    ``row_i``/``row_j`` hold the plane indices per row, ``tangents`` one
    tangent per row.  ``fixed`` is unused for even D and kept only so a
    realization can be reported back to callers.
    """

    row_i: np.ndarray
    row_j: np.ndarray
    tangents: np.ndarray
    dim: int
    fixed: np.ndarray | None = None

    def apply(self, x) -> np.ndarray:
        return _rotate(x, self.row_i, self.row_j, self.tangents[:, None], self.dim)

    def apply_transpose(self, g) -> np.ndarray:
        return _rotate(g, self.row_i, self.row_j, -self.tangents[:, None], self.dim)


def sample_batch_rotation(
    n: int, dim: int, angles: AngleDistribution, rng: np.random.Generator
) -> BatchRotation:
    """Draw ``n`` independent (pairing, tangent) realizations at once."""
    if dim < 2:
        raise ValueError("rotation undefined below dimension 2")
    d = dim // 2
    perm = np.argsort(rng.random((n, dim)), axis=1)
    fixed = perm[:, -1].copy() if dim % 2 else None
    tangents = np.asarray(angles.sample_tangents(n, rng), dtype=np.float64)
    return BatchRotation(
        row_i=perm[:, :d], row_j=perm[:, d : 2 * d], tangents=tangents, dim=dim, fixed=fixed
    )


def apply_featuremap(
    x,
    angles: AngleDistribution,
    rng: np.random.Generator,
    block: tuple[int, int] | None = None,
) -> np.ndarray:
    """Shared-direction rotation of a (C, H, W) or (N, C, H, W) feature map.

    Every spatial position shares one pairing of the C channels but draws
    its own one-sided angle, so the perturbations at different positions
    cannot cancel each other.  Channels are centered by their mean over
    batch and spatial axes before rotating.  With ``block`` given, only a
    uniformly anchored (bh, bw) window per sample is rotated; positions
    outside it pass through bit-exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    batched = x.ndim == 4
    if x.ndim == 3:
        x = x[None]
    elif x.ndim != 4:
        raise ValueError("feature map must have shape (C, H, W) or (N, C, H, W)")
    n, c, h, w = x.shape
    if c < 2:
        raise ValueError("feature-map rotation requires at least 2 channels")

    pairing = sample_pairing(c, rng)
    t = angles.sample_magnitudes((n, h, w), rng)
    if block is not None:
        bh, bw = block
        if bh > h or bw > w or bh < 1 or bw < 1:
            raise ValueError(f"block {block} does not fit inside spatial extent ({h}, {w})")
        keep = np.zeros((n, h, w))
        ah = rng.integers(0, h - bh + 1, size=n)
        aw = rng.integers(0, w - bw + 1, size=n)
        for k in range(n):
            keep[k, ah[k] : ah[k] + bh, aw[k] : aw[k] + bw] = 1.0
        t = t * keep

    mean = x.mean(axis=(0, 2, 3))[None, :, None, None]
    # channels moved last for the shuffle, then back
    xc = np.moveaxis(x - mean, 1, -1)
    s = np.moveaxis(_pair_shuffle(xc, pairing.pairs[:, 0], pairing.pairs[:, 1]), -1, 1)
    out = x + t[:, None, :, :] * s
    return out if batched else out[0]


def fixed_direction_sequence(xs, angles, rng: np.random.Generator) -> list[np.ndarray]:
    """Rotate a sequence of vectors with one shared pairing, fresh angles.

    The pairing plays the role of a recurrent noise mask: it is drawn once
    per sequence so the noise direction is stable across time steps, while
    the angle is redrawn at every step.  Inputs are taken as-is (centering,
    when wanted, is the caller's concern).
    """
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    if not xs:
        return []
    dim = xs[0].shape[-1]
    for x in xs:
        _check_dim(x, dim)
    pairing = sample_pairing(dim, rng)
    out = []
    for x in xs:
        tangent = float(angles.sample_tangents((), rng))
        out.append(apply_rotation(x, RotationRealization(pairing, tangent)))
    return out
