import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rotnoise import (
    BatchNormState,
    GaussianSource,
    RegressionProblem,
    ReluGaussianSource,
    affine_residuals,
    bn_test_forward,
    bn_train_forward,
    classification_flip_rate,
    cross_normalization_curve,
    cross_normalize,
    dropout_rotation_angle,
    equicorrelated,
    evaluate_odd_poly,
    fit_poly_correction,
    gaussian_tangent,
    margin_flip_curve,
    marginalized_gradient,
    mc_nonlinearity_curve,
    noise_budget,
    random_correlation,
    sample_sphere_rows,
    standardized_sampler,
    train_statistic_samples,
    variance_shift,
    verify_reduction,
)
from rotnoise import batchnorm
from rotnoise.batchnorm import _BUDGET_ELEMENTS, _CURVE_BLOCK, DISTRIBUTIONS, NonlinearityCurve


ALL_DISTS = list(DISTRIBUTIONS)


def loo_statistic_direct(batch):
    """Left side of the leave-one-out identity, computed from the raw batch."""
    mu = batch.mean()
    sigma = np.sqrt(np.mean((batch - mu) ** 2))
    return (batch[0] - mu) / sigma


def loo_statistic_identity(batch):
    """Right side: the first element against its B-1 companions."""
    b = batch.size
    rest = batch[1:]
    m = rest.mean()
    s2 = np.mean((rest - m) ** 2)
    d = batch[0] - m
    return np.sqrt((b - 1) / b) * d / np.sqrt(s2 + d * d / b)


# ---------------------------------------------------------------------------
# normalization forward passes


def test_train_forward_standardizes_batch():
    rng = np.random.default_rng(0)
    state = BatchNormState.initial(4)
    x = rng.standard_normal((64, 4)) * 3.0 + 1.0
    out = bn_train_forward(x, state)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)


def test_train_forward_constant_feature_outputs_zero():
    state = BatchNormState.initial(2)
    x = np.ones((8, 2)) * 5.0
    out = bn_train_forward(x, state)
    np.testing.assert_array_equal(out, np.zeros((8, 2)))


def test_train_forward_sum_of_squares_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 3))
    state = BatchNormState.initial(3, eps=1e-3)
    out = bn_train_forward(x, state)
    var = x.var(axis=0)
    expected = 16 * var / (var + 1e-3)
    np.testing.assert_allclose((out**2).sum(axis=0), expected, rtol=1e-12)


def test_train_forward_rejects_single_row():
    state = BatchNormState.initial(2)
    with pytest.raises(ValueError, match="at least 2"):
        bn_train_forward(np.ones((1, 2)), state)


def test_running_statistics_update():
    state = BatchNormState.initial(1, momentum=0.5)
    x = np.array([[0.0], [2.0]])  # mean 1, biased var 1, debiased var 2
    bn_train_forward(x, state)
    np.testing.assert_allclose(state.running_mean, [0.5])
    np.testing.assert_allclose(state.running_var, [1.5])
    assert state.n_batches == 1


def test_long_run_train_variance_is_one():
    # 1e5 batches of size 8: the pooled first-element variance is 1
    rng = np.random.default_rng(2)
    b, m = 8, 100_000
    x = rng.standard_normal((b, m))
    mu = x.mean(axis=0)
    sigma = np.sqrt(np.mean((x - mu) ** 2, axis=0))
    first = (x[0] - mu) / sigma
    var = first.var(ddof=1)
    stderr = np.sqrt(np.var((first - first.mean()) ** 2, ddof=1) / m)
    assert abs(var - 1.0) < max(5 * stderr, 0.005)


@pytest.mark.parametrize("dist", ["gaussian", "laplace", "uniform-square"])
@pytest.mark.parametrize("batch_size", [2, 8])
def test_strict_variance_lemma(dist, batch_size):
    rng = np.random.default_rng(3)
    draw = standardized_sampler(dist)
    m = 60_000
    x = draw((batch_size, m), rng)
    mu = x.mean(axis=0)
    sigma = np.sqrt(np.mean((x - mu) ** 2, axis=0))
    first = (x[0] - mu) / sigma
    var = first.var(ddof=1)
    stderr = np.sqrt(np.var((first - first.mean()) ** 2, ddof=1) / m)
    assert abs(var - 1.0) < 5 * max(stderr, 1e-4)


def test_test_forward_requires_populated_stats():
    state = BatchNormState.initial(2)
    with pytest.raises(ValueError, match="unpopulated"):
        bn_test_forward(np.ones((4, 2)), state)


def test_identity_poly_matches_uncorrected():
    rng = np.random.default_rng(4)
    state = BatchNormState.initial(3)
    bn_train_forward(rng.standard_normal((32, 3)), state)
    x = rng.standard_normal((10, 3))
    plain = bn_test_forward(x, state)
    poly = bn_test_forward(x, state, correction=("poly", [1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(plain, poly)


def test_variance_scaling_correction():
    rng = np.random.default_rng(5)
    state = BatchNormState.initial(2, eps=1e-12)
    bn_train_forward(rng.standard_normal((64, 2)), state)
    x = rng.standard_normal((5, 2))
    half = bn_test_forward(x, state, correction=("scale-variance", 0.5))
    manual = (x - state.running_mean) / np.sqrt(0.5 * state.running_var + 1e-12)
    np.testing.assert_allclose(half, manual, rtol=1e-12)


@pytest.mark.parametrize(
    "correction", [None, ("scale-variance", 0.5), ("poly", [1.1, -0.02, 0.001, 0.0])]
)
def test_test_forward_leaves_input_unchanged(correction):
    rng = np.random.default_rng(16)
    state = BatchNormState.initial(3)
    bn_train_forward(rng.standard_normal((16, 3)), state)
    x = rng.standard_normal((7, 3))
    x_before = x.copy()
    out = bn_test_forward(x, state, correction=correction)
    np.testing.assert_array_equal(x, x_before)
    assert not np.shares_memory(out, x)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
def test_state_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        BatchNormState.initial(2, eps=eps)


def test_unknown_correction_rejected():
    rng = np.random.default_rng(6)
    state = BatchNormState.initial(2)
    bn_train_forward(rng.standard_normal((8, 2)), state)
    with pytest.raises(ValueError, match="correction"):
        bn_test_forward(np.ones((2, 2)), state, correction=("affine", 1.0))


# ---------------------------------------------------------------------------
# the leave-one-out identity and the nonlinearity curve


def test_leave_one_out_identity_exact():
    rng = np.random.default_rng(7)
    for b in (2, 4, 8, 32):
        for _ in range(200):
            batch = rng.standard_normal(b)
            lhs = loo_statistic_direct(batch)
            rhs = loo_statistic_identity(batch)
            assert abs(lhs - rhs) < 1e-12


def test_train_statistic_samples_match_direct_simulation():
    rng = np.random.default_rng(8)
    draw = standardized_sampler("gaussian")
    x = 1.3
    b = 8
    f = train_statistic_samples(x, b, 50_000, draw, rng)
    batches = np.concatenate(
        [np.full((50_000, 1), x), draw((50_000, b - 1), rng)], axis=1
    )
    mu = batches.mean(axis=1)
    sigma = np.sqrt(np.mean((batches - mu[:, None]) ** 2, axis=1))
    direct = (x - mu) / sigma
    assert abs(f.mean() - direct.mean()) < 4 * np.hypot(
        f.std(ddof=1) / np.sqrt(f.size), direct.std(ddof=1) / np.sqrt(direct.size)
    )


def test_curve_center_is_zero_for_symmetric_sources():
    rng = np.random.default_rng(9)
    for dist in ("gaussian", "uniform", "laplace"):
        curve = mc_nonlinearity_curve(dist, 8, rng, grid=np.array([0.0]), n_mc=40_000)
        assert abs(curve.f_expect[0]) < 4 * curve.stderr[0]


def test_curve_respects_hard_bound():
    rng = np.random.default_rng(10)
    b = 8
    bound = (b - 1) / np.sqrt(b)
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    for dist in ALL_DISTS:
        curve = mc_nonlinearity_curve(dist, b, rng, grid=grid, n_mc=20_000)
        assert np.abs(curve.f_expect).max() < bound


def test_curve_is_odd_and_monotone_for_gaussian():
    # every grid point shares the companion draws, so the stderrs of the
    # sums f(x) + f(-x) and of neighbouring differences come from the
    # paired per-draw values (one block: the same draws as the curve's).
    # False-failure rate: 13 two-sided and 24 one-sided 5-sigma checks,
    # at most 1.5e-5 by a union bound under the normal approximation.
    n_mc, b = 60_000, 8
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    curve = mc_nonlinearity_curve("gaussian", b, np.random.default_rng(11), grid=grid, n_mc=n_mc)
    z = standardized_sampler("gaussian")((n_mc, b - 1), np.random.default_rng(11))
    m = z.mean(axis=1)
    s2 = np.mean((z - m[:, None]) ** 2, axis=1)
    d = grid[:, None] - m
    f = np.sqrt((b - 1) / b) * d / np.sqrt(s2 + d**2 / b)
    np.testing.assert_allclose(f.mean(axis=1), curve.f_expect, rtol=1e-12, atol=1e-15)
    sym = curve.f_expect + curve.f_expect[::-1]
    err = (f + f[::-1]).std(axis=1, ddof=1) / np.sqrt(n_mc)
    assert np.all(np.abs(sym) < 5 * err)
    steps = np.diff(curve.f_expect)
    step_err = np.diff(f, axis=0).std(axis=1, ddof=1) / np.sqrt(n_mc)
    assert np.all(steps > -5 * step_err)


def test_five_distributions_share_the_curve():
    rng = np.random.default_rng(12)
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    curves = {
        dist: mc_nonlinearity_curve(dist, 8, rng, grid=grid, n_mc=30_000).f_expect
        for dist in ALL_DISTS
    }
    for i, a in enumerate(ALL_DISTS):
        for b in ALL_DISTS[i + 1 :]:
            assert np.abs(curves[a] - curves[b]).max() < 0.25


def test_unknown_distribution_rejected():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError, match="distribution"):
        mc_nonlinearity_curve("cauchy", 8, rng, n_mc=10)


@pytest.mark.parametrize("dist, b", [("gaussian", 8), ("laplace", 3)])
def test_curve_blocks_match_one_shot_reference(dist, b):
    # more than two blocks, the last one partial, merged against one draw
    n_mc = 2 * _CURVE_BLOCK + 12_345
    grid = np.array([-2.7, -0.4, 0.0, 1.3])
    curve = mc_nonlinearity_curve(dist, b, np.random.default_rng(30), grid=grid, n_mc=n_mc)
    z = standardized_sampler(dist)((n_mc, b - 1), np.random.default_rng(30))
    m = z.mean(axis=1)
    s2 = np.mean((z - m[:, None]) ** 2, axis=1)
    for k, x in enumerate(grid):
        f = np.sqrt((b - 1) / b) * (x - m) / np.sqrt(s2 + (x - m) ** 2 / b)
        np.testing.assert_allclose(curve.f_expect[k], f.mean(), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(curve.f_var[k], f.var(ddof=1), rtol=1e-12)
        np.testing.assert_allclose(curve.stderr[k], f.std(ddof=1) / np.sqrt(n_mc), rtol=1e-12)


def test_curve_random_draws_do_not_depend_on_the_grid():
    states = []
    for grid in (np.array([0.5]), None):
        rng = np.random.default_rng(31)
        mc_nonlinearity_curve("gaussian", 8, rng, grid=grid, n_mc=5_000)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# companion moments drawn in chunks


def companion_kernels(rng):
    """Every kernel that reduces companion draws to moments, on one stream."""
    f = train_statistic_samples(0.4, 8, 1_001, standardized_sampler("laplace"), rng)
    curve = mc_nonlinearity_curve("uniform", 8, rng, grid=np.array([-1.5, 0.2]), n_mc=2_003)
    budget = noise_budget(8, "gaussian", rng, n_outer=7, n_inner=301)
    return [f, curve.f_expect, curve.f_var, curve.stderr, np.array(budget)]


# one row per chunk, and 3 rows per chunk since B - 1 = 7 does not divide 26
@pytest.mark.parametrize("elements", [1, 26])
def test_companion_chunks_change_no_bit(monkeypatch, elements):
    rng = np.random.default_rng(35)
    expected = companion_kernels(rng)
    monkeypatch.setattr(batchnorm, "_BUDGET_ELEMENTS", elements)
    chunked_rng = np.random.default_rng(35)
    for got, want in zip(companion_kernels(chunked_rng), expected):
        np.testing.assert_array_equal(got, want)
    assert chunked_rng.bit_generator.state == rng.bit_generator.state


def test_train_statistic_samples_leaves_the_drawn_array_alone(monkeypatch):
    monkeypatch.setattr(batchnorm, "_BUDGET_ELEMENTS", 26)  # 17 chunks of 3 rows
    held = np.random.default_rng(36).standard_normal((50, 7))
    before = held.copy()
    taken = 0

    def draw(shape, rng):  # successive views of the caller's array
        nonlocal taken
        taken += shape[0]
        return held[taken - shape[0] : taken]

    f = train_statistic_samples(0.3, 8, 50, draw, None)
    np.testing.assert_array_equal(held, before)
    m = before.mean(axis=1)
    s2 = np.mean((before - m[:, None]) ** 2, axis=1)
    d = 0.3 - m
    np.testing.assert_array_equal(f, np.sqrt(7 / 8) * d / np.sqrt(s2 + d**2 / 8))


@pytest.mark.parametrize("b", [8, 64])
def test_curve_peak_memory_does_not_grow_with_the_batch(b):
    rows = _CURVE_BLOCK  # 1e5 draws: one block
    bound = 8 * (
        2 * rows  # m and s2
        + 2 * _BUDGET_ELEMENTS  # one chunk of companions and its scratch
        + 2 * rows  # the two buffers of the grid loop
    ) + 2**16  # the grid-sized arrays
    rng = np.random.default_rng(37)
    tracemalloc.start()
    try:
        mc_nonlinearity_curve("gaussian", b, rng, n_mc=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


PROBLEM = RegressionProblem(np.eye(3), np.ones(3), 0.5)
ANGLES = gaussian_tangent(0.5)


@pytest.mark.parametrize(
    "call, budget",
    [
        (lambda rng: mc_nonlinearity_curve("gaussian", 8, rng, n_mc=1), "n_mc"),
        (lambda rng: noise_budget(8, "gaussian", rng, n_outer=10, n_inner=1), "n_inner"),
        (lambda rng: noise_budget(8, "gaussian", rng, n_outer=1, n_inner=10), "n_outer"),
        (lambda rng: cross_normalization_curve(8, rng, np.zeros(3), n_mc=1), "n_mc"),
        (lambda rng: variance_shift("dropout-b", False, 0.5, relu_features(4), n_mc=1, rng=rng), "n_mc"),
        (lambda rng: marginalized_gradient(PROBLEM, np.zeros(3), ANGLES, n_trials=1, rng=rng), "n_trials"),
        (lambda rng: dropout_rotation_angle(8, 0.5, 1, rng), "n_samples"),
        (lambda rng: classification_flip_rate(np.eye(3), np.ones(3), ANGLES, 1, rng), "n_samples"),
        (lambda rng: margin_flip_curve(np.eye(3), ANGLES, 1, rng), "n_samples"),
        # each of verify_reduction's 20 chunks needs two rows
        (lambda rng: verify_reduction(relu_features(4), "rotation", 0.8, 39, rng), "n_samples"),
    ],
)
def test_degenerate_monte_carlo_budget_is_rejected(call, budget):
    with pytest.raises(ValueError, match=f"budget {budget} must be at least"):
        call(np.random.default_rng(32))


# ---------------------------------------------------------------------------
# polynomial correction


def test_poly_fit_recovers_exact_line():
    grid = np.linspace(-3, 3, 41)
    curve = NonlinearityCurve("gaussian", 8, grid, grid.copy(), np.zeros_like(grid), np.zeros_like(grid))
    fit = fit_poly_correction(curve)
    np.testing.assert_allclose(fit.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert fit.rmse < 1e-12


def test_affine_residuals_are_mean_minus_fit():
    grid = np.linspace(-3, 3, 7)
    bump = grid**2 - np.mean(grid**2)  # orthogonal to 1 and to the symmetric grid
    for extra, expected in ((0.0, np.zeros(7)), (bump, bump)):
        curve = NonlinearityCurve("gaussian", 8, grid, 0.8 * grid - 0.25 + extra, np.ones(7), np.ones(7))
        np.testing.assert_allclose(affine_residuals(curve), expected, atol=1e-13)


def test_poly_fit_needs_four_points():
    grid = np.array([0.0, 1.0, 2.0])
    curve = NonlinearityCurve("gaussian", 8, grid, grid.copy(), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="4"):
        fit_poly_correction(curve)


def test_poly_fit_approaches_identity_for_large_batches():
    rng = np.random.default_rng(14)
    curve = mc_nonlinearity_curve("gaussian", 256, rng, n_mc=20_000)
    fit = fit_poly_correction(curve)
    assert fit.a1 == pytest.approx(1.0, abs=0.01)
    assert abs(fit.a3) < 5e-3
    assert abs(fit.a5) < 1e-3
    assert abs(fit.a7) < 1e-4


def test_poly_correction_shrinks_the_expectation_gap():
    # corrected test outputs track the bent expectation curve much more
    # closely than the raw affine outputs on [-3, 3]
    rng = np.random.default_rng(15)
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.2)
    curve = mc_nonlinearity_curve("gaussian", 8, rng, grid=grid, n_mc=60_000)
    fit = fit_poly_correction(curve)
    corrected = evaluate_odd_poly(fit.coeffs, grid)
    gap_raw = np.mean((grid - curve.f_expect) ** 2)
    gap_poly = np.mean((corrected - curve.f_expect) ** 2)
    assert gap_poly <= 0.25 * gap_raw


# ---------------------------------------------------------------------------
# cross-normalization


def test_cross_normalize_constant_batch_is_zero():
    out = cross_normalize(np.full((6, 3), 2.5), np.ones(3), np.zeros(3), eps=1e-5)
    np.testing.assert_array_equal(out, np.zeros((6, 3)))


def test_cross_normalize_needs_three():
    with pytest.raises(ValueError, match="at least 3"):
        cross_normalize(np.ones((2, 1)), np.ones(1), np.zeros(1))


def test_leave_one_out_stats_do_not_move_with_the_element():
    # perturbing x_0 three times: the implied normalizer (slope) and shift
    # recovered from the outputs must be identical, because the element's
    # own statistics exclude it
    rng = np.random.default_rng(16)
    base = rng.standard_normal((8, 1))
    outs = []
    values = (base[0, 0], base[0, 0] + 1.0, base[0, 0] - 2.5)
    for v in values:
        batch = base.copy()
        batch[0, 0] = v
        outs.append(cross_normalize(batch, np.ones(1), np.zeros(1), eps=0.0)[0, 0])
    slope01 = (outs[1] - outs[0]) / (values[1] - values[0])
    slope02 = (outs[2] - outs[0]) / (values[2] - values[0])
    assert slope01 == pytest.approx(slope02, rel=1e-12)


def test_other_elements_see_the_perturbation():
    rng = np.random.default_rng(17)
    base = rng.standard_normal((8, 1))
    out_a = cross_normalize(base, np.ones(1), np.zeros(1))
    batch = base.copy()
    batch[0, 0] += 1.0
    out_b = cross_normalize(batch, np.ones(1), np.zeros(1))
    assert np.all(out_a[1:] != out_b[1:])


@pytest.mark.parametrize("normalizer", ["b-1", "b"])
def test_cross_normalization_expectation_is_affine(normalizer):
    rng = np.random.default_rng(18)
    draw = standardized_sampler("gaussian")
    grid = np.linspace(-2.5, 2.5, 9)
    n = 40_000
    means = np.empty_like(grid)
    errs = np.empty_like(grid)
    for k, x1 in enumerate(grid):
        batch = draw((8, n), rng)
        batch[0, :] = x1
        out = cross_normalize(batch, np.ones(n), np.zeros(n), eps=0.0, normalizer=normalizer)
        means[k] = out[0].mean()
        errs[k] = out[0].std(ddof=1) / np.sqrt(n)
    design = np.stack([grid, np.ones_like(grid)], axis=1)
    coef, *_ = np.linalg.lstsq(design, means, rcond=None)
    resid = means - design @ coef
    assert np.all(np.abs(resid) < 3 * errs)


def test_cross_normalize_rejects_unknown_normalizer():
    with pytest.raises(ValueError, match="normalizer"):
        cross_normalize(np.ones((4, 1)), np.ones(1), np.zeros(1), normalizer="b+1")


@pytest.mark.parametrize("normalizer", ["b-1", "b"])
def test_cross_normalization_curve_matches_chunked_loop(normalizer):
    # the per-point loop over (B, 5000) chunks, as cn-check has always run it
    grid = np.linspace(-2.0, 2.0, 3)
    n, b = 12_345, 6
    curve = cross_normalization_curve(b, np.random.default_rng(33), grid, n, normalizer)
    rng = np.random.default_rng(33)
    for k, x1 in enumerate(grid):
        outs = np.empty(n)
        for done in range(0, n, 5000):
            m = min(5000, n - done)
            batch = rng.standard_normal((b, m))
            batch[0, :] = x1
            outs[done : done + m] = cross_normalize(
                batch, np.ones(1), np.zeros(1), eps=0.0, normalizer=normalizer
            )[0]
        np.testing.assert_array_equal(curve.f_expect[k], outs.mean())
        np.testing.assert_array_equal(curve.stderr[k], outs.std(ddof=1) / np.sqrt(n))


# ---------------------------------------------------------------------------
# noise budget


def test_noise_budget_bounds_light():
    rng = np.random.default_rng(19)
    value8, err8 = noise_budget(8, "gaussian", rng, n_outer=600, n_inner=600)
    assert value8 + 3 * err8 < 0.2
    value16, err16 = noise_budget(16, "gaussian", rng, n_outer=600, n_inner=600)
    assert value16 + 3 * err16 < 0.1
    assert value16 < value8


@pytest.mark.parametrize(
    "b, dist, n_outer, n_inner",
    [(8, "gaussian", 150, 300), (3, "laplace", 3_000, 50), (16, "uniform-cube", 5_000, 2)],
)
def test_noise_budget_equals_per_point_reference(b, dist, n_outer, n_inner):
    # several blocks of outer points each, the last one partial
    rng = np.random.default_rng(34)
    value, err = noise_budget(b, dist, rng, n_outer=n_outer, n_inner=n_inner)
    ref_rng = np.random.default_rng(34)
    draw = standardized_sampler(dist)
    xs = draw(n_outer, ref_rng)
    v = np.array([
        train_statistic_samples(float(x), b, n_inner, draw, ref_rng).var(ddof=1) for x in xs
    ])
    np.testing.assert_array_equal(value, float(v.mean()))
    np.testing.assert_array_equal(err, float(v.std(ddof=1) / np.sqrt(n_outer)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# variance shift


def relu_features(dim, rho=0.3):
    return ReluGaussianSource(equicorrelated(dim, rho))


def test_centered_dropout_a_ratio_is_exactly_inverse_keep_rate():
    rng = np.random.default_rng(20)
    report = variance_shift("dropout-a", True, 0.5, relu_features(16), n_rows=64, rng=rng)
    np.testing.assert_allclose(report.ratio, 2.0, rtol=1e-12)
    assert report.ratio_var == pytest.approx(0.0, abs=1e-24)


def test_ratio_approaches_one_as_keep_rate_grows():
    rng = np.random.default_rng(21)
    report = variance_shift("dropout-a", False, 0.9999, relu_features(8), n_rows=32, rng=rng)
    np.testing.assert_allclose(report.ratio, 1.0, atol=5e-3)


def test_ratios_are_at_least_one():
    rng = np.random.default_rng(22)
    for placement in ("dropout-a", "dropout-b"):
        report = variance_shift(placement, False, 0.5, relu_features(12), n_rows=128, rng=rng)
        assert np.all(report.ratio >= 1.0)


def test_expected_shift_equality_between_placements():
    # the two placements have the same sphere-averaged train-test gap
    rng = np.random.default_rng(23)
    source = relu_features(32)
    w = sample_sphere_rows(4000, 32, rng)
    rep_a = variance_shift("dropout-a", False, 0.5, source, W=w)
    rep_b = variance_shift("dropout-b", False, 0.5, source, W=w)
    diff = (rep_a.var_train - rep_a.var_test) - (rep_b.var_train - rep_b.var_test)
    stderr = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean()) < 5 * stderr


def test_observation_inequalities_hold_for_relu_features():
    rng = np.random.default_rng(24)
    wins = 0
    for rep in range(20):
        sub = np.random.default_rng((24, rep))
        source = ReluGaussianSource(random_correlation(64, sub))
        w = sample_sphere_rows(256, 64, sub)
        ra = variance_shift("dropout-a", False, 0.5, source, W=w)
        rb = variance_shift("dropout-b", False, 0.5, source, W=w)
        if rb.ratio_var < ra.ratio_var and ra.ratio_max > rb.ratio_max:
            wins += 1
    assert wins >= 19


def test_monte_carlo_cross_check_matches_closed_form():
    rng = np.random.default_rng(25)
    source = relu_features(12)
    for placement in ("dropout-a", "dropout-b"):
        for centered in (False, True):
            report = variance_shift(
                placement, centered, 0.6, source, n_rows=16, n_mc=200_000, rng=rng
            )
            np.testing.assert_allclose(report.mc_var_train, report.var_train, rtol=0.05)


def test_gaussian_source_cross_check():
    rng = np.random.default_rng(26)
    source = GaussianSource(equicorrelated(8, 0.4))
    report = variance_shift("dropout-b", False, 0.5, source, n_rows=8, n_mc=200_000, rng=rng)
    np.testing.assert_allclose(report.mc_var_train, report.var_train, rtol=0.05)


def test_monte_carlo_cross_check_keeps_the_inline_mask_draws():
    # the cross-check noises (features - anchor) with BernoulliDropout: its
    # masks are the draws rng.random(shape) < p of the inline formula it
    # replaced, and only the rounding moves, from (y - a) * m / p to
    # (y - a) * (m / p), by at most an ulp per entry
    source, p, n = relu_features(6), 0.6, 1000
    w = sample_sphere_rows(5, 6, np.random.default_rng(28))
    for placement in ("dropout-a", "dropout-b"):
        for centered in (False, True):
            rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
            report = variance_shift(placement, centered, p, source, W=w, n_mc=n, rng=rng)
            x = source.sample(n, ref_rng)
            y, anchor = (x @ w.T, w @ source.mean) if placement == "dropout-a" else (x, source.mean)
            anchor = anchor if centered else np.zeros_like(anchor)
            noised = anchor + (y - anchor) * (ref_rng.random(y.shape) < p) / p
            if placement == "dropout-b":
                noised = noised @ w.T
            np.testing.assert_allclose(report.mc_var_train, noised.var(axis=0, ddof=1), rtol=1e-12)
            assert rng.random() == ref_rng.random()


def test_variance_shift_validation():
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError, match="placement"):
        variance_shift("dropout-c", False, 0.5, relu_features(4), n_rows=4, rng=rng)
    with pytest.raises(ValueError, match="keep rate"):
        variance_shift("dropout-a", False, 1.0, relu_features(4), n_rows=4, rng=rng)
    # a non-PSD covariance that no source constructor would accept
    bad = SimpleNamespace(
        mean=np.zeros(3), cov=np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    )
    with pytest.raises(ValueError, match="semidefinite"):
        variance_shift("dropout-a", False, 0.5, bad, n_rows=4, rng=rng)
