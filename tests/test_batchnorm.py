import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from mc_utils import assert_within_stderr, first_element_variance

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
from rotnoise.rotation import _estimate


ALL_DISTS = list(DISTRIBUTIONS)


def loo_statistic_direct(batch):
    """Left side of the leave-one-out identity: x_0 normalized by its batch
    along the last axis."""
    mu = batch.mean(axis=-1)
    sigma = np.sqrt(np.mean((batch - mu[..., None]) ** 2, axis=-1))
    return (batch[..., 0] - mu) / sigma


def train_statistic(x, z):
    """Right side: x against the B-1 companions along the last axis of z."""
    b = z.shape[-1] + 1
    m = z.mean(axis=-1)
    s2 = np.mean((z - m[..., None]) ** 2, axis=-1)
    d = x - m
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalizations_name_non_finite_input(bad):
    x = np.ones((4, 3))
    x[2, 1] = bad
    state = BatchNormState.initial(3)
    trained = BatchNormState.initial(3)
    bn_train_forward(np.eye(3), trained)
    calls = [
        lambda: bn_train_forward(x, state),
        lambda: bn_test_forward(x, trained),
        lambda: cross_normalize(x, np.ones(3), np.zeros(3)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="x must be finite"):
            call()
    assert state.n_batches == 0


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
    var, stderr = first_element_variance(rng.standard_normal((b, m)))
    assert_within_stderr(var, 1.0, max(stderr, 0.005 / 5), 5)


@pytest.mark.parametrize("dist", ["gaussian", "laplace", "uniform-square"])
@pytest.mark.parametrize("batch_size", [2, 8])
def test_strict_variance_lemma(dist, batch_size):
    rng = np.random.default_rng(3)
    draw = standardized_sampler(dist)
    m = 60_000
    var, stderr = first_element_variance(draw((batch_size, m), rng))
    assert_within_stderr(var, 1.0, max(stderr, 1e-4), 5)


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


@pytest.mark.parametrize("x_width, state_width", [(1, 3), (5, 1)])
def test_normalizations_name_a_width_other_than_the_state(x_width, state_width):
    state = BatchNormState.initial(state_width)
    trained = BatchNormState.initial(state_width)
    bn_train_forward(np.ones((2, state_width)), trained)
    x = np.ones((8, x_width))
    message = re.escape(f"x of shape (8, {x_width}) does not have the state's width {state_width}")
    for call in (lambda: bn_train_forward(x, state), lambda: bn_test_forward(x, trained)):
        with pytest.raises(ValueError, match=message):
            call()
    assert state.n_batches == 0 and state.running_mean.shape == (state_width,)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
def test_state_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        BatchNormState.initial(2, eps=eps)


STATE_FIELDS = ("running_mean", "running_var", "gamma", "beta")


@pytest.mark.parametrize("field", STATE_FIELDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_names_a_non_finite_field(field, bad):
    fields = {name: np.ones(3) for name in STATE_FIELDS}
    fields[field] = np.array([1.0, bad, 1.0])
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BatchNormState(**fields)


@pytest.mark.parametrize(
    "shapes",
    [
        {"gamma": (4,)},  # a width other than the rest
        {"running_var": (2,), "beta": (5,)},
        {name: (1, 3) for name in STATE_FIELDS},  # one shape, but 2-D
        {name: () for name in STATE_FIELDS},
    ],
)
def test_state_needs_four_1d_fields_of_one_width(shapes):
    fields = {name: np.ones(shapes.get(name, (3,))) for name in STATE_FIELDS}
    with pytest.raises(ValueError, match="must be 1-D of one width"):
        BatchNormState(**fields)


@pytest.mark.parametrize(
    "coeffs", [[1.0, 0.1], [1.0, 0.1, 0.0], [1.0, 0.0, 0.0, 0.0, 0.5], [[1.0, 0.0, 0.0, 0.0]], 1.0]
)
def test_odd_poly_needs_four_coefficients(coeffs):
    message = re.escape(f"shape (4,), got {np.shape(coeffs)}")
    with pytest.raises(ValueError, match=message):
        evaluate_odd_poly(coeffs, np.ones(3))
    state = BatchNormState.initial(3)
    bn_train_forward(np.eye(3), state)
    with pytest.raises(ValueError, match=message):
        bn_test_forward(np.ones((2, 3)), state, correction=("poly", coeffs))


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
            assert abs(loo_statistic_direct(batch) - train_statistic(batch[0], batch[1:])) < 1e-12


def test_train_statistic_samples_match_direct_simulation():
    rng = np.random.default_rng(8)
    draw = standardized_sampler("gaussian")
    x = 1.3
    b = 8
    f = train_statistic_samples(x, b, 50_000, draw, rng)
    batches = np.concatenate(
        [np.full((50_000, 1), x), draw((50_000, b - 1), rng)], axis=1
    )
    mean, stderr = _estimate(f)
    direct_mean, direct_stderr = _estimate(loo_statistic_direct(batches))
    assert_within_stderr(mean, direct_mean, np.hypot(stderr, direct_stderr), 4)


def test_curve_center_is_zero_for_symmetric_sources():
    rng = np.random.default_rng(9)
    for dist in ("gaussian", "uniform", "laplace"):
        curve = mc_nonlinearity_curve(dist, 8, rng, grid=np.array([0.0]), n_mc=40_000)
        assert_within_stderr(curve.f_expect[0], 0.0, curve.stderr[0], 4, label=dist)


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
    # The 24 one-sided 5-sigma step checks fail by chance with probability
    # at most 6.9e-6 by a union bound under the normal approximation.
    n_mc, b = 60_000, 8
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    curve = mc_nonlinearity_curve("gaussian", b, np.random.default_rng(11), grid=grid, n_mc=n_mc)
    draw = standardized_sampler("gaussian")
    f = np.array([train_statistic_samples(x, b, n_mc, draw, np.random.default_rng(11)) for x in grid])
    np.testing.assert_allclose(f.mean(axis=1), curve.f_expect, rtol=1e-12, atol=1e-15)
    sym = curve.f_expect + curve.f_expect[::-1]
    err = (f + f[::-1]).std(axis=1, ddof=1) / np.sqrt(n_mc)
    assert_within_stderr(sym, 0.0, err, 5, entries=13)  # sym[k] == sym[24 - k]
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
    draw = standardized_sampler(dist)
    # the Gaussian rows' moments are drawn directly, not their companions
    z = None if dist == "gaussian" else draw((n_mc, b - 1), np.random.default_rng(30))
    for k, x in enumerate(grid):
        if z is None:
            f = train_statistic_samples(x, b, n_mc, draw, np.random.default_rng(30))
        else:
            f = train_statistic(x, z)
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
# Gaussian companion moments drawn directly


def wrapped_gaussian(size, rng):
    """The Gaussian sampler behind a wrapper, which takes the companion path."""
    return batchnorm._gaussian(size, rng)


@pytest.mark.parametrize("w", [1, 2, 7, 15])
def test_gaussian_moments_follow_cochrans_law(w):
    # m ~ N(0, 1/w) and w s^2 ~ chi-square(w - 1), independent.  Each moment
    # is a mean of iid values with its own stderr; the five 5-sigma checks
    # fail by chance with probability at most 2.9e-6 (two at w = 1, where
    # s^2 is exactly 0)
    n = 200_000
    m, s2 = batchnorm._companion_moments(n, w + 1, standardized_sampler("gaussian"), np.random.default_rng(43))
    samples = [m, m**2]
    law = [0.0, 1.0 / w]
    if w == 1:
        np.testing.assert_array_equal(s2, 0.0)
    else:
        samples += [s2, (s2 - (w - 1) / w) ** 2, m * s2]
        law += [(w - 1) / w, 2 * (w - 1) / w**2, 0.0]
    estimates = np.array([_estimate(s) for s in samples])
    assert_within_stderr(estimates[:, 0], np.array(law), estimates[:, 1], 5, label=f"w = {w}")


def test_gaussian_noise_budget_agrees_with_the_companion_path(monkeypatch):
    # one 4-sigma check on independent streams: false-failure rate 6.3e-5
    fast = noise_budget(8, "gaussian", np.random.default_rng(44), n_outer=3000, n_inner=300)
    monkeypatch.setitem(batchnorm.DISTRIBUTIONS, "gaussian", wrapped_gaussian)
    slow = noise_budget(8, "gaussian", np.random.default_rng(45), n_outer=3000, n_inner=300)
    assert_within_stderr(fast.value, slow.value, np.hypot(fast.stderr, slow.stderr), 4)


def test_gaussian_pairs_take_the_normals_only():
    # B = 2: one companion, so s^2 = 0 and the statistic is sign(x - m) up to
    # the rounding of sqrt((x - m)^2 / 2); no chi-square variate is drawn
    n, x = 10_000, 0.3
    draw = standardized_sampler("gaussian")
    rng = np.random.default_rng(46)
    m, s2 = batchnorm._companion_moments(n, 2, draw, rng)
    np.testing.assert_array_equal(s2, 0.0)
    f = train_statistic_samples(x, 2, n, draw, np.random.default_rng(46))
    np.testing.assert_allclose(f, np.sign(x - m), rtol=0, atol=2 * np.finfo(float).eps)
    ref = np.random.default_rng(46)
    np.testing.assert_array_equal(m, ref.standard_normal(n))
    assert rng.bit_generator.state == ref.bit_generator.state


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
    np.testing.assert_array_equal(f, train_statistic(0.3, before))


def row_moments(z):
    m = z.mean(axis=1)
    return m, np.mean((z - m[:, None]) ** 2, axis=1)


def assert_same_bits_or_both_nan(got, want):
    # NaN payloads are left out: numpy's compiled sum may take the two NaN
    # operands of one addition in either order, and the sign of the result
    # follows the first
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def recorded(draw):
    """``draw`` and a list that keeps a copy of every chunk it returned."""
    chunks = []

    def wrapped(shape, rng):
        z = draw(shape, rng)
        chunks.append(z.copy())
        return z

    return wrapped, chunks


def draw_with_specials(shape, rng):
    """Gaussian rows, and rows of -0.0, of mixed signed zeros, with +inf,
    with both infinities, with a NaN and with squares that overflow."""
    z = rng.standard_normal(shape)
    kind = rng.integers(0, 7, size=shape[0])
    col = rng.integers(0, shape[1], size=shape[0])
    z[kind == 1] = -0.0
    zeros = kind == 2
    z[zeros] = np.where(rng.random(z[zeros].shape) < 0.5, -0.0, 0.0)
    z[kind == 3, col[kind == 3]] = np.inf
    z[kind == 4, col[kind == 4]] = np.inf
    z[kind == 4, 0] = -np.inf
    z[kind == 5, col[kind == 5]] = np.nan
    z[kind == 6] *= 1e300
    return z


@pytest.mark.parametrize(
    "width", [*range(1, 18), 31, 32, 33, 63, 127, 128, 129, 130, 255, 256, 257, 600]
)
def test_companion_moments_equal_np_mean_bit_for_bit(monkeypatch, width):
    monkeypatch.setattr(batchnorm, "_BUDGET_ELEMENTS", 2**11)
    step = max(1, 2**11 // width)
    rng = np.random.default_rng(width)
    # the last chunk is partial, whole, a single row and three rows; a
    # whole-array reduction gives every row's bits only if no chunk boundary
    # moves them
    for rows in (step - 1, step, step + 1, 2 * step + 3):
        draw, chunks = recorded(draw_with_specials)
        with np.errstate(invalid="ignore", over="ignore"):
            got = batchnorm._companion_moments(rows, width + 1, draw, rng)
            want = row_moments(np.concatenate(chunks))
        for g, w in zip(got, want):
            assert_same_bits_or_both_nan(g, w)


@pytest.mark.parametrize("dist", ALL_DISTS)
def test_companion_moments_equal_np_mean_for_every_source(dist):
    rng = np.random.default_rng(38)
    for b, rows in ((2, 70_001), (8, 30_000), (16, 20_000), (34, 5_000), (65, 2_500)):
        draw, chunks = recorded(standardized_sampler(dist))
        got = batchnorm._companion_moments(rows, b, draw, rng)
        for g, w in zip(got, row_moments(np.concatenate(chunks))):
            assert_same_bits_or_both_nan(g, w)


@pytest.mark.parametrize("width", [7, 15, 40])
def test_companion_moments_leave_the_drawn_array_alone(monkeypatch, width):
    monkeypatch.setattr(batchnorm, "_BUDGET_ELEMENTS", 200)
    held = draw_with_specials((61, width), np.random.default_rng(39))
    before = held.copy()
    taken = 0

    def draw(shape, rng):  # successive views of the caller's array
        nonlocal taken
        taken += shape[0]
        return held[taken - shape[0] : taken]

    with np.errstate(invalid="ignore", over="ignore"):
        got = batchnorm._companion_moments(61, width + 1, draw, None)
        want = row_moments(before)
    assert taken == 61
    np.testing.assert_array_equal(held.view(np.int64), before.view(np.int64))
    for g, w in zip(got, want):
        assert_same_bits_or_both_nan(g, w)


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


@pytest.mark.parametrize(
    "grid, message",
    [
        ([0.0, np.nan], "grid must be finite"),
        ([-np.inf, 1.0], "grid must be finite"),
        (np.zeros((2, 3)), r"grid must be 1-D, got shape \(2, 3\)"),
        (0.5, r"grid must be 1-D, got shape \(\)"),
    ],
)
def test_curves_reject_a_bad_grid_before_drawing(grid, message):
    rng = np.random.default_rng(41)
    before = rng.bit_generator.state
    calls = [
        lambda: mc_nonlinearity_curve("gaussian", 8, rng, grid=grid, n_mc=100),
        lambda: cross_normalization_curve(8, rng, grid, n_mc=100),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("batch_size", [0, 1, 2])
def test_cross_normalization_curve_needs_three_before_drawing(batch_size):
    rng = np.random.default_rng(42)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"batch of at least 3, got batch_size {batch_size}"):
        cross_normalization_curve(batch_size, rng, np.zeros(3), n_mc=100)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# polynomial correction


def test_poly_fit_recovers_exact_line():
    grid = np.linspace(-3, 3, 41)
    curve = NonlinearityCurve("gaussian", 8, grid, grid.copy(), np.zeros_like(grid), np.zeros_like(grid))
    fit = fit_poly_correction(curve)
    np.testing.assert_allclose(fit.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert fit.rmse < 1e-12


@pytest.mark.parametrize("points", [0, 1, 2])
def test_affine_residuals_need_three_points(points):
    # two points fit any line exactly: the residuals would be rounding only
    grid = np.linspace(-1.0, 1.0, points)
    curve = NonlinearityCurve("gaussian", 8, grid, grid.copy(), np.zeros(points), np.zeros(points))
    with pytest.raises(ValueError, match="at least 3 grid points"):
        affine_residuals(curve)


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
    assert fit.coeffs[0] == pytest.approx(1.0, abs=0.01)
    assert abs(fit.coeffs[1]) < 5e-3
    assert abs(fit.coeffs[2]) < 1e-3
    assert abs(fit.coeffs[3]) < 1e-4


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


@pytest.mark.parametrize(
    "eps, x",
    [
        (-1.0, None), (np.nan, None), (np.inf, None),
        (0.0, np.ones((4, 2))), (0.0, [[5.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),  # b - 1 = 2 equal values
    ],
    ids=["negative", "nan", "inf", "constant-batch", "b-1-equal"],
)
def test_cross_normalize_names_a_bad_eps(eps, x):
    x = np.random.default_rng(19).standard_normal((4, 2)) if x is None else x
    with pytest.raises(ValueError, match="eps"):
        cross_normalize(x, np.ones(2), np.zeros(2), eps=eps)


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
        means[k], errs[k] = _estimate(out[0])
    design = np.stack([grid, np.ones_like(grid)], axis=1)
    coef, *_ = np.linalg.lstsq(design, means, rcond=None)
    resid = means - design @ coef
    assert_within_stderr(resid, 0.0, errs, 3)


def leave_one_out_reference(x, eps, normalizer):
    """Each element normalized by the mean and variance of the rest, in two passes."""
    b = len(x)
    denom = b - 1.0 if normalizer == "b-1" else float(b)
    out = np.empty_like(x)
    for i in range(b):
        rest = np.delete(x, i, axis=0)
        mu = rest.sum(axis=0) / denom
        out[i] = (x[i] - mu) / np.sqrt(np.square(rest - mu).sum(axis=0) / denom + eps)
    return out


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("normalizer", ["b-1", "b"])
def test_cross_normalize_keeps_its_variance_at_a_large_offset(normalizer, offset):
    # the expanded sums of x and x**2 cancelled: at an offset of 1e8 under
    # "b-1" 8 of 24 outputs were NaN, with no error, and the worst error was 792
    base = np.random.default_rng(44).standard_normal((8, 3))
    x = base + offset
    # "b-1" is shift-invariant, and x - offset is exact here, so the reference
    # works on small values; under "b" the offset stays in the deviations
    expected = leave_one_out_reference(x - offset if normalizer == "b-1" else x, 1e-5, normalizer)
    out = cross_normalize(x, np.ones(3), np.zeros(3), eps=1e-5, normalizer=normalizer)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_cross_normalize_rejects_unknown_normalizer():
    with pytest.raises(ValueError, match="normalizer"):
        cross_normalize(np.ones((4, 1)), np.ones(1), np.zeros(1), normalizer="b+1")


@pytest.mark.parametrize("normalizer", ["b-1", "b"])
def test_cross_normalize_rows_are_the_leading_rows_of_cross_normalize(normalizer):
    rng = np.random.default_rng(40)
    for b in (3, 8, 17):
        x = rng.standard_normal((b, 1_001))
        x[0] = 0.7
        gamma, beta = rng.standard_normal(1_001), rng.standard_normal(1_001)
        full = cross_normalize(x, gamma, beta, eps=1e-3, normalizer=normalizer)
        for rows in (1, 2, b):
            got = batchnorm._cross_normalize_rows(x, gamma, beta, 1e-3, normalizer, rows)
            assert got.shape == (rows, 1_001)
            assert got.tobytes() == full[:rows].tobytes()


@pytest.mark.parametrize("normalizer", ["b-1", "b"])
def test_cross_normalization_curve_matches_chunked_loop(normalizer):
    # per (B, 5000) chunk: the companions' mean and 1/n variance, drawn as a
    # normal and a chi-square variate per batch, spread over two companions
    grid = np.linspace(-2.0, 2.0, 3)
    n, b = 12_345, 6
    curve_rng = np.random.default_rng(33)
    curve = cross_normalization_curve(b, curve_rng, grid, n, normalizer)
    rng = np.random.default_rng(33)
    for k, x1 in enumerate(grid):
        outs = np.empty(n)
        for done in range(0, n, 5000):
            m = min(5000, n - done)
            mu = rng.standard_normal(m) * np.sqrt(1.0 / (b - 1))
            s2 = rng.chisquare(b - 2, m) / (b - 1)
            spread = np.sqrt(s2 * ((b - 1) / 2.0))
            batch = np.concatenate([np.full((1, m), x1), [mu + spread, mu - spread], np.tile(mu, (b - 3, 1))])
            outs[done : done + m] = cross_normalize(
                batch, np.ones(1), np.zeros(1), eps=0.0, normalizer=normalizer
            )[0]
        np.testing.assert_array_equal(curve.f_expect[k], outs.mean())
        np.testing.assert_array_equal(curve.stderr[k], outs.std(ddof=1) / np.sqrt(n))
    np.testing.assert_equal(curve_rng.bit_generator.state, rng.bit_generator.state)


@pytest.mark.parametrize("b", [5, 8, 16])
def test_cross_normalization_curve_matches_its_exact_law(b):
    # under "b-1" with eps = 0 the held output is (x - mu) / sigma, with mu
    # independent of (b - 1) sigma^2 ~ chi-square(b - 2), so E[out | x] =
    # x sqrt(b - 1) Gamma((b - 3)/2) / (sqrt(2) Gamma((b - 2)/2)); the
    # variance, and with it the stderr, is finite from b = 5
    grid = np.array([-2.0, 0.5, 2.0])
    curve = cross_normalization_curve(b, np.random.default_rng(43), grid, 200_000)
    slope = math.sqrt(b - 1) * math.gamma((b - 3) / 2) / (math.sqrt(2) * math.gamma((b - 2) / 2))
    # false-failure rate 3 x 5.7e-7 per batch size
    assert_within_stderr(curve.f_expect, slope * grid, curve.stderr, 5.0, label=f"mean output at b = {b}")


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
    mean, stderr = _estimate(diff)
    assert_within_stderr(mean, 0.0, stderr, 5)


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
    # eigvalsh would read only the lower triangle of a non-symmetric covariance
    skew = SimpleNamespace(mean=np.zeros(2), cov=np.array([[1.0, 0.9], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        variance_shift("dropout-a", False, 0.5, skew, n_rows=4, rng=rng)
    # a source of dimension 0 has no smallest eigenvalue
    empty = SimpleNamespace(mean=np.zeros(0), cov=np.zeros((0, 0)))
    with pytest.raises(ValueError, match="positive trace"):
        variance_shift("dropout-a", False, 0.5, empty, n_rows=4, rng=rng)
    # given weight rows must be 2-D and as wide as the source
    for W in (np.ones(4), np.ones((3, 5)), np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match=r"is not \(n_rows, 4\), the source dimension"):
            variance_shift("dropout-a", False, 0.5, relu_features(4), W=W)


@pytest.mark.parametrize("n_rows", [0, -1])
def test_variance_shift_needs_a_row_before_drawing(n_rows):
    rng = np.random.default_rng(28)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"n_rows must be at least 1, got {n_rows}"):
        variance_shift("dropout-a", False, 0.5, relu_features(4), n_rows=n_rows, rng=rng)
    assert rng.bit_generator.state == before


def test_variance_shift_names_a_given_w_without_rows():
    rng = np.random.default_rng(47)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"W of shape \(0, 4\) has no rows"):
        variance_shift("dropout-a", False, 0.5, relu_features(4), W=np.zeros((0, 4)), n_mc=100, rng=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("placement", ["dropout-a", "dropout-b"])
def test_variance_shift_names_a_row_without_test_variance(placement):
    # a zero row, checked before the Monte-Carlo draws
    rng = np.random.default_rng(29)
    before = rng.bit_generator.state
    w = np.eye(4)[:3].copy()
    w[1] = 0.0
    with pytest.raises(ValueError, match=r"row 1 of W has test variance 0\.0, not positive"):
        variance_shift(placement, False, 0.5, relu_features(4), W=w, n_mc=100, rng=rng)
    assert rng.bit_generator.state == before
    # a row in the null space of a singular covariance
    singular = SimpleNamespace(mean=np.ones(3), cov=np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match=r"row 2 of W has test variance 0\.0, not positive"):
        variance_shift(placement, False, 0.5, singular, W=np.eye(3))
