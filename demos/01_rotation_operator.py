"""Tour of the random pair-rotation operator.

Builds a pairing, applies the O(D) rotation, checks it against the dense
matrix form, and shows the geometric properties that make the operator a
usable noise layer: zero-centered noise, an exact rotation angle, and a
keep-rate equivalence with dropout.
"""

import numpy as np

from rotnoise import (
    BatchRotation,
    Pairing,
    gaussian_tangent,
    keep_rate_for,
    rotation_matrix,
    sample_batch_rotation,
    sample_pairing,
    second_moment_of_tangent,
    uniform_angle,
    uniform_angle_for_keep_rate,
)

rng = np.random.default_rng(0)

# a pairing is the rotation "direction": a permutation split into planes
pairing = Pairing([2, 1, 0, 3])
print("planes:", pairing.pairs.tolist())

# applying with tan(theta) = 1 mixes each plane's coordinates
x = np.array([1.0, 2.0, 3.0, 4.0])
real = BatchRotation(pairing.perm, tangents=1.0)
y = real.apply(x)
print("x       :", x)
print("rotated :", y)
print("norm grows by exactly 1 + tan^2:", y @ y / (x @ x))

# the sparse application agrees with the explicit matrix to machine precision
theta = np.pi / 4
dense = rotation_matrix(pairing, theta) @ x
print("max |sparse - dense| =", np.abs(y - dense).max())

# the transpose is the backward-pass operator: <Rx, g> == <x, R^T g>
g = rng.standard_normal(4)
print("adjoint gap =", abs(real.apply(x) @ g - x @ real.apply_transpose(g)))

# the angle between input and output is theta itself, for any direction
for _ in range(3):
    p = sample_pairing(8, rng)
    t = rng.uniform(-1, 1)
    v = rng.standard_normal(8)
    w = BatchRotation(p.perm, t).apply(v)
    cos = v @ w / (np.linalg.norm(v) * np.linalg.norm(w))
    print(f"tan(theta)={t:+.3f}  cos(angle)={cos:.6f}  cos(arctan t)={np.cos(np.arctan(t)):.6f}")

# noise is zero centered: averaging fresh rotations of one vector returns it
n = 100_000
batch = sample_batch_rotation(n, 8, gaussian_tangent(0.5), rng)
out = batch.apply(np.broadcast_to(v, (n, 8)))
print("max |mean(rotations) - x| =", np.abs(out.mean(axis=0) - v).max())

# strength bookkeeping: (1 - p)/p = E tan^2 theta ties every distribution
# of angles to an equivalent dropout keep rate
for dist in (gaussian_tangent(0.5), uniform_angle(np.pi / 4), uniform_angle_for_keep_rate(0.9)):
    print(
        f"{dist.kind:16s} parameter={dist.parameter:.4f}"
        f"  E tan^2={second_moment_of_tangent(dist):.4f}"
        f"  equivalent keep rate={keep_rate_for(dist):.4f}"
    )
