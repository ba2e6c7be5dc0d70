import math
import re
import tracemalloc

import mc_utils
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mc_utils import assert_within_stderr

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
    ShiftReport,
    apply_featuremap,
    fixed_angle,
    gaussian_tangent,
    keep_rate_for,
    rotation_invariants,
    rotation_matrix,
    sample_batch_rotation,
    sample_pairing,
    second_moment_of_tangent,
    uniform_angle,
    uniform_angle_for_keep_rate,
)
from rotnoise.coadapt import _noise_moment
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
        lambda: BatchRotation(pairing.perm, np.ones(2)),
        lambda: CovStats(mean=np.zeros(3), cov=cov),
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
    out = BatchRotation(pairing.perm, 1.0).apply([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(out, [-2.0, 6.0, 4.0, 2.0], atol=0)


def test_zero_tangent_is_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    pairing = sample_pairing(8, rng)
    np.testing.assert_array_equal(BatchRotation(pairing.perm, 0.0).apply(x), x)


def test_norm_scaling_worked_example():
    pairing = Pairing([2, 1, 0, 3])
    out = BatchRotation(pairing.perm, 1.0).apply([1.0, 2.0, 3.0, 4.0])
    assert out @ out == pytest.approx(60.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 6, 8, 16])
def test_matches_dense_oracle(dim):
    rng = np.random.default_rng(dim)
    for _ in range(100):
        pairing = sample_pairing(dim, rng)
        theta = rng.uniform(-1.2, 1.2)
        real = BatchRotation(pairing.perm, np.tan(theta))
        x = rng.standard_normal(dim)
        mat = dense_oracle(pairing, theta)
        assert np.abs(real.apply(x) - mat @ x).max() < 1e-12
        assert np.abs(real.apply_transpose(x) - mat.T @ x).max() < 1e-12


def test_transpose_worked_example():
    # value fixed by the dense oracle's transpose; the adjoint identity
    # <Rx, g> = <x, R^T g> pins the sign of the third entry
    pairing = Pairing([2, 1, 0, 3])
    real = BatchRotation(pairing.perm, 1.0)
    out = real.apply_transpose([1.0, 0.0, 0.0, 0.0])
    oracle = dense_oracle(pairing, np.pi / 4).T @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    np.testing.assert_allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-12)


def test_transpose_zero_tangent_is_identity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal(6)
    pairing = sample_pairing(6, rng)
    np.testing.assert_array_equal(BatchRotation(pairing.perm, 0.0).apply_transpose(g), g)


@pytest.mark.parametrize("dim", [2, 3, 7, 16])
def test_adjoint_identity_random(dim):
    rng = np.random.default_rng(4)
    for _ in range(50):
        pairing = sample_pairing(dim, rng)
        real = BatchRotation(pairing.perm, float(rng.standard_normal()))
        x = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        lhs = real.apply(x) @ g
        rhs = x @ real.apply_transpose(g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_transpose_roundtrip_recovers_input():
    rng = np.random.default_rng(5)
    for dim in (2, 7, 12):
        x = rng.standard_normal(dim)
        pairing = sample_pairing(dim, rng)
        t = float(rng.standard_normal())
        real = BatchRotation(pairing.perm, t)
        back = real.apply_transpose(real.apply(x))
        if pairing.fixed is None:
            np.testing.assert_allclose(back / (1 + t * t), x, atol=1e-12)
        else:
            scale = np.full(dim, 1 + t * t)
            scale[pairing.fixed] = 1.0
            np.testing.assert_allclose(back / scale, x, atol=1e-12)


def test_dimension_mismatch_errors():
    pairing = Pairing([0, 1, 2, 3])
    real = BatchRotation(pairing.perm, 0.3)
    with pytest.raises(ValueError, match="dimension"):
        real.apply(np.zeros(5))
    with pytest.raises(ValueError, match="dimension"):
        real.apply_transpose(np.zeros(3))


# ---------------------------------------------------------------------------
# geometric properties


def test_angle_between_input_and_output_is_theta():
    rng = np.random.default_rng(6)
    for dim in (2, 4, 8, 16):
        for _ in range(20):
            x = rng.standard_normal(dim)
            theta = rng.uniform(-1.3, 1.3)
            real = BatchRotation(sample_pairing(dim, rng).perm, np.tan(theta))
            y = real.apply(x)
            cos = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
            assert abs(cos - np.cos(theta)) < 1e-10


def test_norm_scaling_exact_even_dim():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(10)
        t = float(rng.standard_normal())
        y = BatchRotation(sample_pairing(10, rng).perm, t).apply(x)
        assert y @ y == pytest.approx((x @ x) * (1 + t * t), rel=1e-12)


def test_odd_dim_fixed_coordinate_passes_through():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(7)
    pairing = sample_pairing(7, rng)
    y = BatchRotation(pairing.perm, 0.8).apply(x)
    assert y[pairing.fixed] == x[pairing.fixed]


def test_pair_law():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(6)
    pairing = sample_pairing(6, rng)
    t = 0.37
    y = BatchRotation(pairing.perm, t).apply(x)
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
        real = BatchRotation(batch.perm[r], batch.tangents[r])
        np.testing.assert_array_equal(fwd[r], real.apply(x[r]))
        np.testing.assert_array_equal(bwd[r], real.apply_transpose(x[r]))


def test_zero_centered_noise_mean():
    rng = np.random.default_rng(11)
    dim, n = 8, 200_000
    x = rng.standard_normal(dim)
    batch = sample_batch_rotation(n, dim, gaussian_tangent(0.5), rng)
    mean, stderr = _estimate(batch.apply(np.broadcast_to(x, (n, dim))), axis=0)
    assert_within_stderr(mean, x, stderr, 4)


@pytest.mark.parametrize("dim", [2, 7, 8])
def test_rotation_invariants_hold(dim):
    # the exact invariants are deterministic; zero-centered-mean is the
    # largest |z| of D normal estimates
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
    mean, stderr = _estimate(out, axis=0)
    z = assert_within_stderr(mean, x, stderr, rows[-1][2])
    assert rows[-1][1] == z.max()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("realizations", [0, -3])
def test_rotation_invariants_need_a_realization(realizations):
    with pytest.raises(ValueError, match="n_realizations must be at least 1, got"):
        rotation_invariants(8, gaussian_tangent(0.5), realizations, 5_000, np.random.default_rng(0))


def test_estimate_is_the_mean_and_its_ddof1_standard_error():
    x = np.random.default_rng(12).standard_normal((50, 3))
    est = _estimate(x, axis=0)
    assert isinstance(est, Estimate)
    assert_same_bits(est.value, x.mean(axis=0))
    assert_same_bits(est.stderr, x.std(axis=0, ddof=1) / np.sqrt(50))
    value, stderr = _estimate(x[:, 0])
    assert type(value) is float and value == x[:, 0].mean()
    assert type(stderr) is float and stderr == x[:, 0].std(ddof=1) / np.sqrt(50)


def test_stderr_gate_fails_at_its_bound_and_names_the_worst_z(monkeypatch):
    monkeypatch.setattr(mc_utils, "GATES", [])
    z = np.zeros(8)
    z[5] = 3.99
    np.testing.assert_array_equal(assert_within_stderr(1.0 + 0.5 * z, 1.0, 0.5, 4), z)
    z[5] = 4.0
    with pytest.raises(AssertionError, match=r"\|z\| = 4 at \(5,\) .* rate 0\.000507 over 8 entries"):
        assert_within_stderr(z, 0.0, 1.0, 4)
    assert [rate for _, rate in mc_utils.GATES] == [mc_utils.false_failure_rate(4, 8)] * 2


def test_stderr_gate_rate_is_the_union_bound_of_the_tail():
    rate = mc_utils.false_failure_rate(4, 8)
    assert rate == 8 * math.erfc(4 / math.sqrt(2)) == pytest.approx(5.07e-4, rel=1e-3)
    # Student's t: the Cauchy tail at dof 1, 1 - t / sqrt(2 + t^2) at dof 2,
    # and 2 * scipy.stats.t.sf(6, 19) at dof 19
    assert mc_utils.false_failure_rate(4, 2, dof=1) == pytest.approx(2 - 4 / np.pi * np.arctan(4), rel=1e-14)
    assert mc_utils.false_failure_rate(4, 1, dof=2) == pytest.approx(1 - 4 / np.sqrt(18), rel=1e-14)
    assert mc_utils.false_failure_rate(6, 1, dof=19) == pytest.approx(8.979235472490839e-06, rel=1e-9)


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
    assert_within_stderr(col_dev, 0.0, col_err, 3)


# ---------------------------------------------------------------------------
# feature maps


def test_featuremap_identity_at_zero_angle():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 4, 3, 3))
    out = apply_featuremap(x, fixed_angle(0.0), rng)
    np.testing.assert_allclose(out, x, atol=0)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_rotation_matrix_names_a_non_finite_angle(theta):
    pairing = sample_pairing(4, np.random.default_rng(21))
    with pytest.raises(ValueError, match="theta must be finite"):
        rotation_matrix(pairing, theta)


def test_featuremap_requires_two_channels():
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match="channels"):
        apply_featuremap(np.zeros((1, 4, 4)), gaussian_tangent(0.5), rng)


def test_featuremap_names_a_non_finite_input_before_drawing():
    rng = np.random.default_rng(19)
    before = rng.bit_generator.state
    x = np.random.default_rng(20).standard_normal((2, 4, 3, 3))
    x[1, 2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="x must be finite"):
        apply_featuremap(x, gaussian_tangent(0.5), rng)
    assert rng.bit_generator.state == before


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


def mean_abs_tangent(angles):
    """E|tan theta| of the one-sided angles ``sample_magnitudes`` draws."""
    if angles.kind == "gaussian-tangent":
        return angles.parameter * np.sqrt(2 / np.pi)
    # theta ~ Unif(0, T): the mean of tan over [0, T]
    return -np.log(np.cos(angles.parameter)) / angles.parameter


@pytest.mark.parametrize("channels, angles", [(6, gaussian_tangent(0.5)), (5, uniform_angle(0.9))])
def test_featuremap_positions_follow_the_rotation_noise_law(channels, angles):
    # one fixed (2, C, 2, 3) map through 7,000 seeded calls; at each of the
    # 12 positions, with c = x minus its channel mean, y - x has mean 0 and
    # second moment _noise_moment(c c^T, "rotation", E tan^2).  Two positions
    # p != q share the pairing but draw independent one-sided angles, so only
    # the same coordinate and the pair partner contribute:
    # E[(y_p - x_p)(y_q - x_q)^T] = _noise_moment(c_q c_p^T, "rotation",
    # (E|tan|)^2), checked between position 0 and the 11 others (5 in its
    # own sample, 6 in the other).  |z| < 5.5 on the 12 C means, 12 C (C + 1)
    # / 2 distinct moments and 11 C^2 cross moments
    rng = np.random.default_rng(32 + channels)
    x = np.random.default_rng(channels).standard_normal((2, channels, 2, 3))
    n = 7_000
    delta = np.stack([apply_featuremap(x, angles, rng) - x for _ in range(n)])
    delta = np.moveaxis(delta, 2, -1).reshape(n, -1, channels)
    c = np.moveaxis(x - x.mean(axis=(0, 2, 3), keepdims=True), 1, -1).reshape(-1, channels)
    mean, stderr = _estimate(delta, axis=0)
    assert_within_stderr(mean, 0.0, stderr, 5.5)
    moment, stderr = _estimate(delta[..., :, None] * delta[..., None, :], axis=0)
    lam = second_moment_of_tangent(angles)
    expected = np.stack([_noise_moment(np.outer(row, row), "rotation", lam) for row in c])
    assert_within_stderr(moment, expected, stderr, 5.5, entries=12 * channels * (channels + 1) // 2)
    cross, stderr = _estimate(delta[:, :1, :, None] * delta[:, 1:, None, :], axis=0)
    lam = mean_abs_tangent(angles) ** 2
    expected = np.stack([_noise_moment(np.outer(row, c[0]), "rotation", lam) for row in c[1:]])
    assert_within_stderr(cross, expected, stderr, 5.5)


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
    real = BatchRotation(pairing.perm, tangent)
    i, j = pairing.pairs[:, 0], pairing.pairs[:, 1]
    for rows in (x, x[0]):
        assert_same_bits(real.apply(rows), rotate_reference(rows, i, j, tangent))
        assert_same_bits(real.apply_transpose(rows), rotate_reference(rows, i, j, -tangent))


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
    y = BatchRotation(pairing.perm, 0.5).apply(x[0])
    assert not np.signbit(y[pairing.fixed])


def test_batch_rotation_rejects_a_batch_of_another_size():
    batch = sample_batch_rotation(6, 4, gaussian_tangent(0.5), np.random.default_rng(28))
    with pytest.raises(ValueError, match="row rotations"):
        batch.apply(np.zeros((5, 4)))
    with pytest.raises(ValueError, match="dimension"):
        batch.apply(np.zeros((6, 3)))


@pytest.mark.parametrize(
    "perm, match",
    [
        ([0, 1, 1, 3], "every coordinate"),
        ([0.0, 1.0, 2.0], "every coordinate"),
        ([0], "below dimension 2"),
        (np.zeros((2, 3, 4), dtype=np.intp), "every coordinate"),
    ],
)
def test_batch_rotation_checks_a_shared_perm_as_a_pairing(perm, match):
    with pytest.raises(ValueError, match=match):
        BatchRotation(perm, 0.5)


@pytest.mark.parametrize("tangents", [np.zeros(3), np.zeros(5), np.zeros((4, 1))])
def test_batch_rotation_names_tangents_of_another_row_count(tangents):
    perm = sample_batch_rotation(4, 6, gaussian_tangent(0.5), np.random.default_rng(30)).perm
    shapes = rf"tangents of shape {re.escape(str(tangents.shape))}.*perm of shape \(4, 6\)"
    with pytest.raises(ValueError, match=shapes):
        BatchRotation(perm, tangents)


@pytest.mark.parametrize("tangents", [np.ones((5, 1)), np.ones(3)])
def test_shared_pairing_names_tangents_that_do_not_fit_the_batch(tangents):
    # the old (n, 1) tangent column, and a count of tangents that is not the row count
    rotation = BatchRotation(sample_pairing(4, np.random.default_rng(33)).perm, tangents)
    shapes = rf"tangents of shape {re.escape(str(tangents.shape))}.*batch of shape \(5, 4\)"
    for apply in (rotation.apply, rotation.apply_transpose):
        with pytest.raises(ValueError, match=shapes):
            apply(np.zeros((5, 4)))


def test_batch_rotation_takes_a_scalar_tangent_and_keeps_its_perm():
    rng = np.random.default_rng(31)
    batch = sample_batch_rotation(4, 6, gaussian_tangent(0.5), rng)
    # a per-row perm is used as given, not copied
    shared_tangent = BatchRotation(batch.perm, 0.5)
    assert shared_tangent.perm is batch.perm
    x = rng.standard_normal((4, 6))
    expected = BatchRotation(batch.perm, np.full(4, 0.5)).apply(x)
    assert_same_bits(shared_tangent.apply(x), expected)
    # a shared perm is stored as its pairing's read-only permutation
    shared = BatchRotation([2, 1, 0, 3], 1.0)
    assert shared.perm.dtype == np.intp and not shared.perm.flags.writeable


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
