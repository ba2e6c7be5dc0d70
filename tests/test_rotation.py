import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rotnoise import (
    AngleDistribution,
    BatchNormState,
    Centered,
    CovStats,
    GaussianSource,
    NonlinearityCurve,
    PolyFit,
    RegressionProblem,
    ReluGaussianSource,
    RotationOut,
    RotationRealization,
    ShiftReport,
    apply_featuremap,
    apply_rotation,
    apply_rotation_transpose,
    fixed_angle,
    fixed_direction_sequence,
    gaussian_tangent,
    keep_rate_for,
    rotation_invariants,
    sample_batch_rotation,
    sample_pairing,
    second_moment_of_tangent,
    uniform_angle,
    uniform_angle_for_keep_rate,
)
from rotnoise.rotation import _BLOCK, BatchRotation, Estimate, Pairing, _estimate, _keep_rate, _strength


def centered_rotation(x, angles, rng):
    return Centered(RotationOut(angles))(x, rng)


def pair_shuffle_reference(x, i, j):
    """The signed shuffle s[i] = x[j], s[j] = -x[i] by fancy indexing.

    The formula the rotation kernel used before it stored permutations:
    ``i``/``j`` hold one (d,) pairing shared by every row or (n, d) planes
    per row of an (n, D) ``x``; a coordinate in no plane gets s = +0.0.
    """
    rows = Ellipsis if i.ndim == 1 else np.arange(x.shape[0])[:, None]
    s = np.zeros_like(x)
    s[rows, i] = x[rows, j]
    s[rows, j] = -x[rows, i]
    return s


def rotate_reference(x, i, j, tangent):
    x = np.asarray(x, dtype=np.float64)
    return x + tangent * pair_shuffle_reference(x, i, j)


def planes(perm):
    """The (i, j) halves of (n, D) per-row permutations: row r pairs i[r] with j[r]."""
    d = perm.shape[1] // 2
    return perm[:, :d], perm[:, d : 2 * d]


def assert_same_bits(actual, expected):
    # assert_array_equal treats -0.0 == +0.0; the bit patterns must agree too
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
    )


def dense_oracle(pairing, theta):
    """Explicit matrix oracle built from the elementwise definition.

    Diagonal cos(theta), +sin(theta) at (i, j) and -sin(theta) at (j, i)
    for every plane (i, j), all divided by cos(theta).  Kept independent
    of the O(D) implementation on purpose.
    """
    mat = np.eye(pairing.dim) * np.cos(theta)
    for i, j in pairing.pairs:
        mat[i, j] = np.sin(theta)
        mat[j, i] = -np.sin(theta)
    return mat / np.cos(theta)


# ---------------------------------------------------------------------------
# pairings


def test_pairing_from_permutation_matches_worked_example():
    # permutation [3,2,1,4] in 1-indexed notation pairs (3,1) and (2,4)
    pairing = Pairing([2, 1, 0, 3])
    assert pairing.pairs.tolist() == [[2, 0], [1, 3]]
    assert pairing.fixed is None


def test_dim_two_always_covers_both_coordinates():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pairing = sample_pairing(2, rng)
        assert sorted(pairing.pairs.ravel().tolist()) == [0, 1]


def test_pairing_rejects_dim_below_two():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="below dimension 2"):
        sample_pairing(1, rng)


def test_pairing_validation():
    for perm in ([0, 1, 1, 3], [0, 1, 2, 4], [0, 2], [[0, 1], [2, 3]], [0.0, 1.0]):
        with pytest.raises(ValueError, match="exactly once"):
            Pairing(perm)
    with pytest.raises(ValueError, match="below dimension 2"):
        Pairing([0])


def test_pairing_views_are_read_only():
    source = np.array([4, 2, 0, 1, 3])
    pairing = Pairing(source)
    source[0] = 0  # the pairing holds its own copy
    assert pairing.pairs.tolist() == [[4, 0], [2, 1]]
    assert pairing.fixed == 3 and pairing.dim == 5
    for view in (pairing.perm, pairing.pairs):
        with pytest.raises(ValueError):
            view[0] = 0


def test_realizations_compare_and_hash_by_identity():
    # a field-wise == or hash() of these classes' numpy fields would raise
    rng = np.random.default_rng(0)
    batch = sample_batch_rotation(3, 4, gaussian_tangent(0.5), rng)
    pairing, cov, grid = Pairing([0, 1, 2]), np.eye(3), np.zeros(4)
    makers = [
        lambda: Pairing([0, 1, 2]),
        lambda: BatchRotation(perm=batch.perm.copy(), tangents=batch.tangents.copy()),
        lambda: RotationRealization(pairing, np.ones((2, 1))),
        lambda: CovStats(n=3, mean=np.zeros(3), cov=cov),
        lambda: GaussianSource(cov),
        lambda: ReluGaussianSource(cov),
        lambda: RegressionProblem(np.eye(3), np.ones(3), 0.5),
        lambda: NonlinearityCurve("gaussian", 4, grid, grid, grid, grid),
        lambda: PolyFit(coeffs=grid, rmse=0.0),
        lambda: ShiftReport("dropout-a", False, 0.5, grid, grid, grid),
        lambda: BatchNormState.initial(3),
    ]
    for a, b in ((make(), make()) for make in makers):
        assert (a == b) is False
        assert a == a
        assert len({a, b}) == 2


def test_odd_dim_fixed_coordinate_is_uniform():
    rng = np.random.default_rng(7)
    batch = sample_batch_rotation(100_000, 5, gaussian_tangent(0.5), rng)
    fixed = batch.perm[:, -1]
    freq = np.bincount(fixed, minlength=5) / fixed.size
    assert np.all(np.abs(freq - 0.2) < 0.01)


# ---------------------------------------------------------------------------
# O(D) application vs the dense oracle


def test_apply_matches_worked_example():
    pairing = Pairing([2, 1, 0, 3])
    out = apply_rotation([1.0, 2.0, 3.0, 4.0], RotationRealization(pairing, 1.0))
    np.testing.assert_allclose(out, [-2.0, 6.0, 4.0, 2.0], atol=0)


def test_zero_tangent_is_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    pairing = sample_pairing(8, rng)
    np.testing.assert_array_equal(apply_rotation(x, RotationRealization(pairing, 0.0)), x)


def test_norm_scaling_worked_example():
    pairing = Pairing([2, 1, 0, 3])
    out = apply_rotation([1.0, 2.0, 3.0, 4.0], RotationRealization(pairing, 1.0))
    assert out @ out == pytest.approx(60.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 16])
def test_matches_dense_oracle(dim):
    rng = np.random.default_rng(dim)
    for _ in range(100):
        pairing = sample_pairing(dim, rng)
        theta = rng.uniform(-1.2, 1.2)
        real = RotationRealization(pairing, np.tan(theta))
        x = rng.standard_normal(dim)
        mat = dense_oracle(pairing, theta)
        assert np.abs(apply_rotation(x, real) - mat @ x).max() < 1e-12
        assert np.abs(apply_rotation_transpose(x, real) - mat.T @ x).max() < 1e-12


def test_transpose_worked_example():
    # value fixed by the dense oracle's transpose; the adjoint identity
    # <Rx, g> = <x, R^T g> pins the sign of the third entry
    pairing = Pairing([2, 1, 0, 3])
    real = RotationRealization(pairing, 1.0)
    out = apply_rotation_transpose([1.0, 0.0, 0.0, 0.0], real)
    oracle = dense_oracle(pairing, np.pi / 4).T @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    np.testing.assert_allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-12)


def test_transpose_zero_tangent_is_identity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal(6)
    pairing = sample_pairing(6, rng)
    np.testing.assert_array_equal(apply_rotation_transpose(g, RotationRealization(pairing, 0.0)), g)


@pytest.mark.parametrize("dim", [2, 3, 7, 16])
def test_adjoint_identity_random(dim):
    rng = np.random.default_rng(4)
    for _ in range(50):
        pairing = sample_pairing(dim, rng)
        real = RotationRealization(pairing, float(rng.standard_normal()))
        x = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        lhs = apply_rotation(x, real) @ g
        rhs = x @ apply_rotation_transpose(g, real)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_transpose_roundtrip_recovers_input():
    rng = np.random.default_rng(5)
    for dim in (2, 7, 12):
        x = rng.standard_normal(dim)
        pairing = sample_pairing(dim, rng)
        t = float(rng.standard_normal())
        real = RotationRealization(pairing, t)
        back = apply_rotation_transpose(apply_rotation(x, real), real)
        if pairing.fixed is None:
            np.testing.assert_allclose(back / (1 + t * t), x, atol=1e-12)
        else:
            scale = np.full(dim, 1 + t * t)
            scale[pairing.fixed] = 1.0
            np.testing.assert_allclose(back / scale, x, atol=1e-12)


def test_dimension_mismatch_errors():
    pairing = Pairing([0, 1, 2, 3])
    real = RotationRealization(pairing, 0.3)
    with pytest.raises(ValueError, match="dimension"):
        apply_rotation(np.zeros(5), real)
    with pytest.raises(ValueError, match="dimension"):
        apply_rotation_transpose(np.zeros(3), real)


# ---------------------------------------------------------------------------
# geometric properties


def test_angle_between_input_and_output_is_theta():
    rng = np.random.default_rng(6)
    for dim in (2, 4, 8, 16):
        for _ in range(20):
            x = rng.standard_normal(dim)
            theta = rng.uniform(-1.3, 1.3)
            real = RotationRealization(sample_pairing(dim, rng), np.tan(theta))
            y = apply_rotation(x, real)
            cos = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
            assert abs(cos - np.cos(theta)) < 1e-10


def test_norm_scaling_exact_even_dim():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(10)
        t = float(rng.standard_normal())
        y = apply_rotation(x, RotationRealization(sample_pairing(10, rng), t))
        assert y @ y == pytest.approx((x @ x) * (1 + t * t), rel=1e-12)


def test_odd_dim_fixed_coordinate_passes_through():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(7)
    pairing = sample_pairing(7, rng)
    y = apply_rotation(x, RotationRealization(pairing, 0.8))
    assert y[pairing.fixed] == x[pairing.fixed]


def test_pair_law():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(6)
    pairing = sample_pairing(6, rng)
    t = 0.37
    y = apply_rotation(x, RotationRealization(pairing, t))
    for i, j in pairing.pairs:
        assert y[i] == x[i] + t * x[j]
        assert y[j] == x[j] - t * x[i]


@pytest.mark.parametrize("dim", [2, 3, 7, 8])
def test_batch_rotation_rows_match_single_realizations(dim):
    # the per-row and the shared-pairing paths of the shuffle agree exactly
    rng = np.random.default_rng(40 + dim)
    batch = sample_batch_rotation(9, dim, gaussian_tangent(0.5), rng)
    x = rng.standard_normal((9, dim))
    fwd = batch.apply(x)
    bwd = batch.apply_transpose(x)
    for r in range(9):
        real = RotationRealization(Pairing(batch.perm[r]), batch.tangents[r])
        np.testing.assert_array_equal(fwd[r], apply_rotation(x[r], real))
        np.testing.assert_array_equal(bwd[r], apply_rotation_transpose(x[r], real))


def test_zero_centered_noise_mean():
    rng = np.random.default_rng(11)
    dim, n = 8, 200_000
    x = rng.standard_normal(dim)
    batch = sample_batch_rotation(n, dim, gaussian_tangent(0.5), rng)
    out = batch.apply(np.broadcast_to(x, (n, dim)))
    err = np.abs(out.mean(axis=0) - x)
    stderr = out.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(err < 4 * stderr)


@pytest.mark.parametrize("dim", [2, 7, 8])
def test_rotation_invariants_hold(dim):
    # the exact invariants are deterministic; zero-centered-mean is the
    # largest |z| of D normal estimates, past 4 with probability below
    # D * 6.4e-5 <= 5.1e-4 for this seed
    angles, rng = gaussian_tangent(0.5), np.random.default_rng(dim)
    rows = rotation_invariants(dim, angles, 20, 5_000, rng)
    names = [name for name, _, _ in rows]
    assert names[-1] == "zero-centered-mean"
    assert {"dense-equivalence", "adjoint-identity", "roundtrip", "pair-law"} <= set(names)
    assert ("angle-cosine" in names) is ("norm-scaling" in names) is (dim % 2 == 0)
    for name, stat, bound in rows:
        assert type(stat) is float and 0.0 <= stat < bound, name
    # the stream is taken in the order verify-rotation has always drawn it
    ref = np.random.default_rng(dim)
    x = ref.standard_normal(dim)
    ref.standard_normal(dim)
    for _ in range(20):
        sample_pairing(dim, ref)
        angles.sample_tangents((), ref)
    out = sample_batch_rotation(5_000, dim, angles, ref).apply(np.broadcast_to(x, (5_000, dim)))
    z = np.abs(out.mean(axis=0) - x) / (out.std(axis=0, ddof=1) / np.sqrt(5_000))
    assert rows[-1][1] == z.max()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_estimate_is_the_mean_and_its_ddof1_standard_error():
    x = np.random.default_rng(12).standard_normal((50, 3))
    est = _estimate(x, axis=0)
    assert isinstance(est, Estimate)
    assert_same_bits(est.value, x.mean(axis=0))
    assert_same_bits(est.stderr, x.std(axis=0, ddof=1) / np.sqrt(50))
    value, stderr = _estimate(x[:, 0])
    assert type(value) is float and value == x[:, 0].mean()
    assert type(stderr) is float and stderr == x[:, 0].std(ddof=1) / np.sqrt(50)


# ---------------------------------------------------------------------------
# tangent moments and keep rates


def test_second_moment_gaussian():
    assert second_moment_of_tangent(gaussian_tangent(0.5)) == pytest.approx(0.25, abs=0)


def test_second_moment_fixed_zero():
    assert second_moment_of_tangent(fixed_angle(0.0)) == 0.0


def test_second_moment_uniform_against_quadrature():
    width = np.pi / 4
    theta = np.linspace(-width, width, 2_000_001)
    quad = np.trapezoid(np.tan(theta) ** 2, theta) / (2 * width)
    closed = second_moment_of_tangent(uniform_angle(width))
    assert closed == pytest.approx(quad, abs=1e-10)
    assert closed == pytest.approx(4 / np.pi - 1, abs=1e-12)


def test_keep_rates_match_tabled_strengths():
    assert keep_rate_for(gaussian_tangent(0.5)) == pytest.approx(0.8, abs=1e-12)
    assert keep_rate_for(gaussian_tangent(0.333)) == pytest.approx(0.9002, abs=5e-5)
    assert keep_rate_for(gaussian_tangent(0.816)) == pytest.approx(1 / (1 + 0.816**2), abs=1e-12)
    assert keep_rate_for(fixed_angle(0.0)) == 1.0


def test_keep_rate_and_strength_are_inverse():
    for p in (0.05, 0.5, 0.8, 0.95, 1.0):
        assert _keep_rate(_strength(p)) == pytest.approx(p, rel=1e-15)
    assert _strength(1.0) == 0.0 and _keep_rate(0.0) == 1.0
    for p in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError, match="keep rate"):
            _strength(p)


@pytest.mark.parametrize("keep_rate", [0.6, 0.8, 0.95])
def test_uniform_angle_inversion_roundtrip(keep_rate):
    dist = uniform_angle_for_keep_rate(keep_rate)
    assert keep_rate_for(dist) == pytest.approx(keep_rate, abs=1e-10)


def test_angle_distribution_validation():
    with pytest.raises(ValueError):
        uniform_angle(np.pi)
    with pytest.raises(ValueError):
        gaussian_tangent(0.0)
    with pytest.raises(ValueError):
        gaussian_tangent(np.inf)
    with pytest.raises(ValueError):
        fixed_angle(2.0)
    with pytest.raises(ValueError):
        AngleDistribution("triangular", 0.3)


# ---------------------------------------------------------------------------
# centered batch variant


def test_centered_constant_batch_is_identity():
    rng = np.random.default_rng(12)
    x = np.tile(rng.standard_normal(6), (5, 1))
    out = centered_rotation(x, gaussian_tangent(0.7), rng)
    np.testing.assert_array_equal(out, x)


def test_centered_zero_angle_is_identity():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 4))
    out = centered_rotation(x, fixed_angle(0.0), rng)
    np.testing.assert_allclose(out, x, atol=0)


def test_centered_requires_batch():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="batch statistics"):
        centered_rotation(np.ones((1, 4)), gaussian_tangent(0.5), rng)


def test_centered_replications_average_to_input():
    rng = np.random.default_rng(15)
    n, dim, reps = 4096, 8, 64
    x = rng.standard_normal((n, dim)) + 3.0
    acc = np.zeros_like(x)
    acc2 = np.zeros_like(x)
    for _ in range(reps):
        out = centered_rotation(x, gaussian_tangent(0.5), rng)
        acc += out
        acc2 += out**2
    mean = acc / reps
    std = np.sqrt(np.maximum(acc2 / reps - mean**2, 0.0))
    stderr = std / np.sqrt(reps)
    # column means of the replication-averaged deviation stay within noise
    col_dev = np.abs((mean - x).mean(axis=0))
    col_err = np.maximum(stderr.mean(axis=0) / np.sqrt(n), 1e-12)
    assert np.all(col_dev < 3 * col_err)


# ---------------------------------------------------------------------------
# feature maps


def test_featuremap_identity_at_zero_angle():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 4, 3, 3))
    out = apply_featuremap(x, fixed_angle(0.0), rng)
    np.testing.assert_allclose(out, x, atol=0)


def test_featuremap_requires_two_channels():
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match="channels"):
        apply_featuremap(np.zeros((1, 4, 4)), gaussian_tangent(0.5), rng)


def test_featuremap_block_must_fit():
    rng = np.random.default_rng(18)
    with pytest.raises(ValueError, match="block"):
        apply_featuremap(np.zeros((4, 3, 3)), gaussian_tangent(0.5), rng, block=(4, 2))


def test_featuremap_shared_direction_across_positions():
    # two samples holding +v and -v at every position: the centered vector
    # at each position of sample 0 is exactly +v, so with one-sided angles
    # the perturbation sign pattern must coincide across positions, with
    # per-position magnitudes, because the pairing is shared
    rng = np.random.default_rng(19)
    v = rng.standard_normal(8)
    x = np.stack([
        np.tile(v[:, None, None], (1, 4, 4)),
        np.tile(-v[:, None, None], (1, 4, 4)),
    ])
    out = apply_featuremap(x, uniform_angle(0.9), rng)
    pert = (out - x)[0].transpose(1, 2, 0).reshape(-1, 8)
    scale = np.linalg.norm(pert, axis=1)
    assert np.all(scale > 0)
    signs = np.sign(pert)
    np.testing.assert_array_equal(signs, np.tile(signs[0], (pert.shape[0], 1)))
    ratios = pert[1:] / pert[:1]
    np.testing.assert_allclose(ratios, np.broadcast_to(ratios[:, :1], ratios.shape), rtol=1e-9)


def test_featuremap_degenerate_map_matches_centered_rows():
    # C=2, H=W=1 is the dense centered variant in disguise: with only one
    # possible plane the orientation coin is the sole randomness, so the
    # perturbation magnitude per entry is deterministic and must agree
    # exactly between the two paths
    rng_a = np.random.default_rng(20)
    rng_b = np.random.default_rng(21)
    base = np.random.default_rng(99).standard_normal((64, 2))
    for _ in range(5):
        fm = apply_featuremap(base[:, :, None, None], fixed_angle(0.6), rng_a)[:, :, 0, 0]
        ct = centered_rotation(base, fixed_angle(0.6), rng_b)
        np.testing.assert_allclose(np.abs(fm - base), np.abs(ct - base), atol=1e-12)


def test_featuremap_block_only_rotates_inside():
    rng = np.random.default_rng(21)
    x = np.random.default_rng(1).standard_normal((1, 6, 8, 8))
    out = apply_featuremap(x, uniform_angle(1.0), rng, block=(3, 3))
    changed = np.any(out != x, axis=1)[0]
    ys, xs = np.where(changed)
    assert changed.sum() <= 9
    if changed.any():
        assert ys.max() - ys.min() <= 2
        assert xs.max() - xs.min() <= 2
    untouched = ~changed
    np.testing.assert_array_equal(out[0][:, untouched], x[0][:, untouched])


# ---------------------------------------------------------------------------
# sequences


def test_sequence_empty():
    rng = np.random.default_rng(22)
    assert fixed_direction_sequence([], gaussian_tangent(0.5), rng) == []


def test_sequence_zero_angle_is_identity():
    rng = np.random.default_rng(23)
    xs = [np.arange(4.0), np.ones(4)]
    out = fixed_direction_sequence(xs, fixed_angle(0.0), rng)
    for a, b in zip(out, xs):
        np.testing.assert_allclose(a, b, atol=0)


def test_sequence_shares_pairing_across_steps():
    # a one-hot input exposes the partner of its hot coordinate: the two
    # steps must perturb the same (single) coordinate
    rng = np.random.default_rng(24)
    e0 = np.zeros(8)
    e0[0] = 1.0
    for _ in range(20):
        out = fixed_direction_sequence([e0, e0], fixed_angle(0.5), rng)
        supports = [np.nonzero(np.abs(o - e0) > 1e-15)[0].tolist() for o in out]
        assert supports[0] == supports[1]


def test_sequence_single_step_matches_dense_rotation():
    seed = 25
    xs = [np.random.default_rng(0).standard_normal(6)]
    out = fixed_direction_sequence(xs, fixed_angle(0.4), np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    pairing = sample_pairing(6, rng)
    expected = apply_rotation(xs[0], RotationRealization(pairing, np.tan(0.4)))
    np.testing.assert_allclose(out[0], expected, atol=0)


# ---------------------------------------------------------------------------
# the blocked permutation kernel against the fancy-indexing reference

# no shrink phase: a failing example is reported as drawn, at once
KERNEL_EXAMPLES = settings(
    derandomize=True, max_examples=5, deadline=None, database=None,
    phases=(Phase.explicit, Phase.generate),
)
KERNEL_DIMS = (2, 3, 7, 8, 256)
kernel_layouts = pytest.mark.parametrize("layout", ["contiguous", "broadcast", "column-slice"])
kernel_dims = pytest.mark.parametrize("dim", KERNEL_DIMS)
kernel_sizes = pytest.mark.parametrize("size", ["one block", "three blocks and a remainder"])


def kernel_input(data, dim, layout, size):
    """An (n, dim) input of the given layout; some entries are -0.0.

    ``broadcast`` repeats one row with stride 0, as ``cli verify-rotation``
    and ``classification_flip_rate`` pass it; ``column-slice`` is a
    non-contiguous view into a wider array.
    """
    rows = _BLOCK // dim
    n = data.draw(st.integers(1, rows)) if size == "one block" else 3 * rows + data.draw(st.integers(1, rows - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if layout == "broadcast":
        row = rng.standard_normal(dim)
        row[rng.random(dim) < 0.2] = -0.0
        return np.broadcast_to(row, (n, dim)), rng
    x = rng.standard_normal((n, dim + 3))
    x[rng.random(x.shape) < 0.1] = -0.0
    return (x[:, 2 : dim + 2] if layout == "column-slice" else np.ascontiguousarray(x[:, :dim])), rng


@kernel_sizes
@kernel_layouts
@kernel_dims
@KERNEL_EXAMPLES
@given(data=st.data())
def test_batch_rotation_matches_reference_shuffle(dim, layout, size, data):
    x, rng = kernel_input(data, dim, layout, size)
    batch = sample_batch_rotation(x.shape[0], dim, gaussian_tangent(0.7), rng)
    t = batch.tangents[:, None]
    assert_same_bits(batch.apply(x), rotate_reference(x, *planes(batch.perm), t))
    assert_same_bits(batch.apply_transpose(x), rotate_reference(x, *planes(batch.perm), -t))


@kernel_sizes
@kernel_layouts
@kernel_dims
@KERNEL_EXAMPLES
@given(data=st.data(), tangent=st.floats(-3.0, 3.0))
def test_shared_pairing_matches_reference_shuffle(dim, layout, size, data, tangent):
    x, rng = kernel_input(data, dim, layout, size)
    pairing = sample_pairing(dim, rng)
    real = RotationRealization(pairing, tangent)
    i, j = pairing.pairs[:, 0], pairing.pairs[:, 1]
    for rows in (x, x[0]):
        assert_same_bits(apply_rotation(rows, real), rotate_reference(rows, i, j, tangent))
        assert_same_bits(apply_rotation_transpose(rows, real), rotate_reference(rows, i, j, -tangent))


def featuremap_reference(x, angles, rng, block=None):
    """apply_featuremap's draws and arithmetic with the reference shuffle."""
    n, c, h, w = x.shape
    pairing = sample_pairing(c, rng)
    t = angles.sample_magnitudes((n, h, w), rng)
    if block is not None:
        bh, bw = block
        keep = np.zeros((n, h, w))
        ah = rng.integers(0, h - bh + 1, size=n)
        aw = rng.integers(0, w - bw + 1, size=n)
        for k in range(n):
            keep[k, ah[k] : ah[k] + bh, aw[k] : aw[k] + bw] = 1.0
        t = t * keep
    centered = np.moveaxis(x - x.mean(axis=(0, 2, 3))[None, :, None, None], 1, -1)
    s = np.moveaxis(pair_shuffle_reference(centered, pairing.pairs[:, 0], pairing.pairs[:, 1]), -1, 1)
    return x + t[:, None, :, :] * s


@KERNEL_EXAMPLES
@given(
    st.sampled_from(KERNEL_DIMS),
    st.integers(1, 3),
    st.sampled_from([None, (2, 1)]),
    st.integers(0, 2**32 - 1),
)
def test_featuremap_matches_reference_shuffle(channels, n, block, seed):
    x = np.random.default_rng(seed).standard_normal((n, channels, 3, 4))
    angles = uniform_angle(0.9)
    out = apply_featuremap(x, angles, np.random.default_rng(seed + 1), block=block)
    assert_same_bits(out, featuremap_reference(x, angles, np.random.default_rng(seed + 1), block))
    assert out.flags.c_contiguous
    single = apply_featuremap(x[0], angles, np.random.default_rng(seed + 2))
    assert_same_bits(single, featuremap_reference(x[:1], angles, np.random.default_rng(seed + 2))[0])


@KERNEL_EXAMPLES
@given(st.sampled_from(KERNEL_DIMS), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sequence_matches_reference_shuffle(dim, steps, seed):
    xs = list(np.random.default_rng(seed).standard_normal((steps, dim)))
    angles = gaussian_tangent(0.6)
    out = fixed_direction_sequence(xs, angles, np.random.default_rng(seed + 1))
    rng = np.random.default_rng(seed + 1)
    pairing = sample_pairing(dim, rng)
    for x, y in zip(xs, out, strict=True):
        t = float(angles.sample_tangents((), rng))
        assert_same_bits(y, rotate_reference(x, pairing.pairs[:, 0], pairing.pairs[:, 1], t))


@KERNEL_EXAMPLES
@given(st.sampled_from(KERNEL_DIMS), st.integers(0, 2**32 - 1))
def test_rotation_out_on_a_vector_matches_reference_shuffle(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    op = RotationOut(gaussian_tangent(0.5))
    state = op.sample_state(v, rng)
    t = state.tangents[:, None]
    expected = rotate_reference(v[None], *planes(state.perm), t)[0]
    assert_same_bits(op.apply_state(v, state), expected)
    assert_same_bits(op.backprop_state(v, state), rotate_reference(v[None], *planes(state.perm), -t)[0])


@pytest.mark.parametrize("dim", [3, 7])
def test_unpaired_coordinate_adds_a_signed_zero(dim):
    # -0.0 + t * 0 is +0.0 for t > 0; passing the coordinate through as a
    # copy would keep the sign bit
    rng = np.random.default_rng(26)
    x = np.full((4, dim), -0.0)
    batch = sample_batch_rotation(4, dim, fixed_angle(0.5), rng)
    out = batch.apply(x)
    assert not np.signbit(out[np.arange(4), batch.perm[:, -1]]).any()
    assert_same_bits(out, rotate_reference(x, *planes(batch.perm), batch.tangents[:, None]))
    pairing = sample_pairing(dim, rng)
    y = apply_rotation(x[0], RotationRealization(pairing, 0.5))
    assert not np.signbit(y[pairing.fixed])


def test_batch_rotation_rejects_a_batch_of_another_size():
    batch = sample_batch_rotation(6, 4, gaussian_tangent(0.5), np.random.default_rng(28))
    with pytest.raises(ValueError, match="row rotations"):
        batch.apply(np.zeros((5, 4)))
    with pytest.raises(ValueError, match="dimension"):
        batch.apply(np.zeros((6, 3)))


@pytest.mark.parametrize("dim", [3, 8, 256])
def test_sampler_blocks_consume_the_stream_like_one_draw(dim):
    # three blocks of sort keys plus a remainder
    n = 3 * (_BLOCK // dim) + 5
    rng = np.random.default_rng(29)
    batch = sample_batch_rotation(n, dim, gaussian_tangent(0.5), rng)
    ref = np.random.default_rng(29)
    np.testing.assert_array_equal(batch.perm, np.argsort(ref.random((n, dim)), axis=1))
    np.testing.assert_array_equal(batch.tangents, gaussian_tangent(0.5).sample_tangents(n, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_holds_one_block_of_sort_keys():
    # one (n, D) draw of float64 keys would add 12.8 MB to the 14.4 MB result
    tracemalloc.start()
    try:
        batch = sample_batch_rotation(200_000, 8, gaussian_tangent(0.5), np.random.default_rng(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch.perm.nbytes + batch.tangents.nbytes + 2**20
