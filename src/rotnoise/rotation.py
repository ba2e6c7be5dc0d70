"""Random pair-rotation operators with O(D) application.

The operator partitions the D coordinates of a vector into d = D // 2
ordered planes, rotates every plane by a random angle theta, and rescales
by 1 / cos(theta).  For a plane (i, j) the output is

    y_i = x_i + tan(theta) * x_j
    y_j = x_j - tan(theta) * x_i

so the whole map is y = x + tan(theta) * s with a sparse, signed shuffle s.
The noise each coordinate receives is another coordinate's activation,
which is what distinguishes this operator from elementwise dropout noise.

A realization is stored as a permutation of the D coordinates: its first
D // 2 entries are paired with the next D // 2, and for odd D the last
entry is the unpaired coordinate.  A ``Pairing`` stores the one
permutation that ``sample_pairing`` draws, shared by every row it is
applied to; ``BatchRotation`` keeps one per row (the ones
``sample_batch_rotation`` draws with ``argsort``).  A ``Pairing`` exposes its
planes and unpaired coordinate as read-only views of the permutation.

One private kernel applies both forms.  It walks the rows in blocks of
about 2**15 elements, so its temporaries stay in cache; per block it
gathers x once at the flat index row * D + perm, forms x_p + t * s_p in the
permuted frame with two half-width slice operations, and scatters the
result back once.  The transpose is the same map with the tangent negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Estimate",
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
    "rotation_matrix",
    "apply_rotation",
    "apply_rotation_transpose",
    "sample_batch_rotation",
    "rotation_invariants",
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


def _strength(keep_rate: float) -> float:
    """The noise strength lam = (1 - p) / p of a keep rate p in (0, 1]."""
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError("keep rate must lie in (0, 1]")
    return (1.0 - keep_rate) / keep_rate


def _keep_rate(strength: float) -> float:
    """The keep rate p = 1 / (1 + lam) of a noise strength lam >= 0."""
    return 1.0 / (1.0 + strength)


def _check_budget(name: str, value: int, least: int = 2) -> None:
    # one draw gives no sample variance: its standard error would be NaN
    if value < least:
        raise ValueError(f"Monte-Carlo budget {name} must be at least {least}, got {value}")


class Estimate(NamedTuple):
    """A Monte-Carlo estimate and its standard error; unpacks as a pair."""

    value: float | np.ndarray
    stderr: float | np.ndarray


def _estimate(samples, axis=None) -> Estimate:
    """Mean of ``samples`` and its standard error std(ddof=1) / sqrt(n): floats
    over all samples (``axis=None``), arrays along an axis."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size if axis is None else samples.shape[axis]
    est = Estimate(samples.mean(axis=axis), samples.std(axis=axis, ddof=1) / np.sqrt(n))
    return est if axis is not None else Estimate(*map(float, est))


def keep_rate_for(dist: AngleDistribution) -> float:
    """Keep rate p of the Bernoulli dropout with matching multiplier variance.

    Strengths are matched through (1 - p) / p = E[tan(theta)^2].
    """
    return _keep_rate(second_moment_of_tangent(dist))


def uniform_angle_for_keep_rate(keep_rate: float) -> AngleDistribution:
    """Invert keep_rate_for for the uniform-angle kind by bisection.

    Solves tan(T)/T - 1 = (1 - p)/p for T in (0, pi/2); the left side is
    strictly increasing, so bisection to 1e-12 on T is sufficient.
    """
    if not 0.0 < keep_rate < 1.0:
        raise ValueError("keep rate must lie in (0, 1) to invert")
    target = _strength(keep_rate)
    lo, hi = 1e-9, _HALF_PI - 1e-9
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if np.tan(mid) / mid - 1.0 < target:
            lo = mid
        else:
            hi = mid
    return uniform_angle(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# pairings


@dataclass(frozen=True, eq=False)
class Pairing:
    """Partition of D coordinates into ordered planes, stored as a permutation.

    ``perm`` is a permutation of 0..D-1: its first D // 2 entries are paired
    with the next D // 2, and for odd D the last entry is left out of every
    plane.  ``pairs`` (shape (D // 2, 2)), ``fixed`` (None for even D) and
    ``dim`` are read-only views of it.
    """

    perm: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm)
        if perm.ndim != 1 or perm.dtype.kind not in "iu" or np.any(np.sort(perm) != np.arange(perm.size)):
            raise ValueError("pairing must hold every coordinate 0..D-1 exactly once")
        if perm.size < 2:
            raise ValueError("rotation undefined below dimension 2")
        perm = perm.astype(np.intp)
        perm.flags.writeable = False
        object.__setattr__(self, "perm", perm)

    @property
    def dim(self) -> int:
        return self.perm.size

    @property
    def pairs(self) -> np.ndarray:
        d = self.dim // 2
        return self.perm[: 2 * d].reshape(2, d).T

    @property
    def fixed(self) -> int | None:
        return int(self.perm[-1]) if self.dim % 2 else None


def sample_pairing(dim: int, rng: np.random.Generator) -> Pairing:
    """Draw a uniform pairing of ``dim`` coordinates.

    The draw is induced by a uniform permutation, so every coordinate is
    equally likely to be the fixed one when ``dim`` is odd.
    """
    return Pairing(rng.permutation(dim))


@dataclass(frozen=True, eq=False)
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


_BLOCK = 1 << 15  # elements per kernel block: every temporary of a block stays in L2


def _rotate(x, perm: np.ndarray, tangent, base=None) -> np.ndarray:
    """base + tangent * s along the last axis, s the signed pair shuffle of x.

    ``perm`` is one (D,) permutation shared by every row of ``x`` or an
    (n, D) array holding one permutation per row of an (n, D) ``x``; with
    i = perm[:D // 2] and j = perm[D // 2 : 2 * (D // 2)], s[i] = x[j] and
    s[j] = -x[i].  The unpaired coordinate of odd D gets s = 0 and still
    computes base + t * 0, so a -0.0 there rounds as everywhere else.
    ``tangent`` is a scalar or broadcasts against ``x.shape[:-1] + (1,)``,
    and ``base`` defaults to ``x``.  A transpose passes -t, as
    g + (-t) * s == g - t * s exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    dim = perm.shape[-1]
    _check_dim(x, dim)
    if perm.ndim == 2 and x.shape != perm.shape:
        raise ValueError(f"batch of shape {x.shape} does not match {perm.shape[0]} row rotations")
    shape = x.shape
    x = x.reshape(-1, dim)
    base = x if base is None else np.asarray(base, dtype=np.float64).reshape(-1, dim)
    t = np.asarray(tangent, dtype=np.float64)
    if t.ndim:
        t = np.broadcast_to(t, shape[:-1] + (1,)).reshape(-1)
    n, d = x.shape[0], dim // 2
    rows = max(1, _BLOCK // dim)
    offsets = np.arange(0, min(rows, n) * dim, dim)
    out = np.empty((n, dim))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        # (D, rows) index: the permuted frame holds one coordinate per row,
        # so the slices below run along contiguous memory
        shuffled = perm[lo:hi].T if perm.ndim == 2 else perm[:, None]
        idx = np.add(shuffled, offsets[: hi - lo], order="C")
        xp = np.take(x[lo:hi], idx)
        bp = xp if base is x else np.take(base[lo:hi], idx)
        tb = t[lo:hi] if t.ndim else t
        yp = np.empty_like(xp)
        first, second = yp[:d], yp[d : 2 * d]
        np.add(bp[:d], np.multiply(tb, xp[d : 2 * d], out=first), out=first)
        # b - t * x_i rounds exactly as b + t * (-x_i)
        np.subtract(bp[d : 2 * d], np.multiply(tb, xp[:d], out=second), out=second)
        if dim % 2:
            yp[-1] = bp[-1] + tb * 0.0
        out[lo:hi].reshape(-1)[idx] = yp
    return out.reshape(shape)


def apply_rotation(x, realization: RotationRealization) -> np.ndarray:
    """Apply one rotation realization along the last axis of ``x`` in O(D)."""
    return _rotate(x, realization.pairing.perm, realization.tangent)


def apply_rotation_transpose(g, realization: RotationRealization) -> np.ndarray:
    """Apply the transpose of the realized operator (backward pass).

    Identical to applying the same pairing with the tangent negated, so
    <R x, g> == <x, R^T g> holds for all x, g.
    """
    return _rotate(g, realization.pairing.perm, -realization.tangent)


# ---------------------------------------------------------------------------
# vectorized per-row realizations


@dataclass(frozen=True, eq=False)
class BatchRotation:
    """Fresh rotation per row of an (n, D) batch, stored as permutations.

    Row r pairs ``perm[r, :D // 2]`` with ``perm[r, D // 2 : 2 * (D // 2)]``
    and rotates by ``tangents[r]``; for odd D, ``perm[r, -1]`` is the
    unpaired coordinate.
    """

    perm: np.ndarray
    tangents: np.ndarray

    def apply(self, x) -> np.ndarray:
        return _rotate(x, self.perm, self.tangents[:, None])

    def apply_transpose(self, g) -> np.ndarray:
        return _rotate(g, self.perm, -self.tangents[:, None])


def sample_batch_rotation(
    n: int, dim: int, angles: AngleDistribution, rng: np.random.Generator
) -> BatchRotation:
    """Draw ``n`` independent (pairing, tangent) realizations at once.

    Each row's permutation is the ``argsort`` of D uniform keys.  The keys
    are drawn and sorted in blocks of rows, which consumes the generator
    exactly as one (n, D) draw would, so at most one block of float64 keys
    is alive next to the permutations.
    """
    if dim < 2:
        raise ValueError("rotation undefined below dimension 2")
    perm = np.empty((n, dim), dtype=np.intp)
    rows = max(1, _BLOCK // dim)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        perm[lo:hi] = np.argsort(rng.random((hi - lo, dim)), axis=1)
    tangents = np.asarray(angles.sample_tangents(n, rng), dtype=np.float64)
    return BatchRotation(perm=perm, tangents=tangents)


def rotation_invariants(
    dim: int, angles: AngleDistribution, n_realizations: int, n_samples: int, rng: np.random.Generator
) -> list[tuple[str, float, float]]:
    """Check the O(D) kernels against the exact laws of the rotation.

    One random x (and cotangent g) passes through ``n_realizations`` draws
    of (pairing, angle), and each invariant keeps its worst error: R x
    against ``rotation_matrix`` (dense-equivalence), <R x, g> = <x, R^T g>
    (adjoint-identity), R^T R x = (1 + tan^2) x off the unpaired coordinate
    (roundtrip), the first plane's pair formula (pair-law) and, for even D
    only, cos(x, R x) = cos(theta) (angle-cosine) and |R x|^2 = (1 + tan^2)
    |x|^2 (norm-scaling).  Last, zero-centered-mean is the largest |z| of
    the mean of ``n_samples`` rotated copies of x against x.  Returns
    (name, statistic, bound) rows; a statistic below its bound passes.
    """
    _check_budget("n_samples", n_samples)
    x = rng.standard_normal(dim)
    g = rng.standard_normal(dim)
    names = ["dense-equivalence", "adjoint-identity", "roundtrip", "pair-law", "angle-cosine", "norm-scaling"]
    bounds = [1e-12, 1e-12, 1e-12, 1e-12, 1e-10, 1e-12]
    worst = [0.0] * (4 if dim % 2 else 6)  # zip below drops the even-D rows
    for _ in range(n_realizations):
        pairing = sample_pairing(dim, rng)
        theta = float(np.arctan(angles.sample_tangents((), rng)))
        t = np.tan(theta)
        real = RotationRealization(pairing, t)
        y = apply_rotation(x, real)
        scale = np.full(dim, 1.0 + t**2)
        if pairing.fixed is not None:
            scale[pairing.fixed] = 1.0  # the unpaired coordinate passes through
        i, j = pairing.pairs[0]
        errors = [
            float(np.abs(y - rotation_matrix(pairing, theta) @ x).max()),
            abs(float(y @ g - x @ apply_rotation_transpose(g, real))) / max(1.0, abs(float(y @ g))),
            float(np.abs(apply_rotation_transpose(y, real) / scale - x).max()),
            float(np.abs(np.array([y[i], y[j]]) - np.array([x[i] + t * x[j], x[j] - t * x[i]])).max()),
        ]
        if dim % 2 == 0:
            cos = float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
            errors += [abs(cos - np.cos(theta)), abs(float(y @ y) - float(x @ x) * (1 + t**2)) / float(x @ x)]
        worst = [max(w, e) for w, e in zip(worst, errors)]

    batch = sample_batch_rotation(n_samples, dim, angles, rng)
    mean, stderr = _estimate(batch.apply(np.broadcast_to(x, (n_samples, dim))), axis=0)
    z = float((np.abs(mean - x) / stderr).max())
    return [*zip(names, map(float, worst), bounds), ("zero-centered-mean", z, 4.0)]


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

    # channels moved last for the kernel, then back: x + t * s(x - mean)
    last = np.ascontiguousarray(np.moveaxis(x, 1, -1))
    out = _rotate(last - x.mean(axis=(0, 2, 3)), pairing.perm, t[..., None], base=last)
    out = np.ascontiguousarray(np.moveaxis(out, -1, 1))
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
    perm = sample_pairing(dim, rng).perm
    return [_rotate(x, perm, float(angles.sample_tangents((), rng))) for x in xs]
