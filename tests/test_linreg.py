import math

import numpy as np
import pytest
from mc_utils import assert_within_stderr
from test_rotation import planes, rotate_reference

import rotnoise.linreg
from rotnoise import (
    RegressionProblem,
    SingularSystemError,
    classification_flip_rate,
    condition_numbers,
    conditional_noise_covariance,
    dropout_rotation_angle,
    dropout_system_matrix,
    fixed_angle,
    gaussian_tangent,
    margin_flip_curve,
    marginalized_gradient,
    rotation_system_matrix,
    sample_batch_rotation,
    solve_dropout_lr,
    solve_rotation_lr,
    uniform_angle,
)
from rotnoise.rotation import _BLOCK


# ---------------------------------------------------------------------------
# solvers


def test_zero_strength_reduces_to_least_squares():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    prob = RegressionProblem(x, y, 0.0)
    ols, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(solve_rotation_lr(prob), ols, atol=1e-10)
    np.testing.assert_allclose(solve_dropout_lr(prob), ols, atol=1e-10)


def test_identity_design_worked_example():
    prob = RegressionProblem(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]), 1.0)
    np.testing.assert_allclose(solve_rotation_lr(prob), [0.5, 1.0, 1.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(solve_dropout_lr(prob), [0.5, 1.0, 1.5, 2.0], atol=1e-12)


def test_dropout_solver_rejects_zero_column():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 4))
    x[:, 2] = 0.0
    prob = RegressionProblem(x, rng.standard_normal(20), 1.0)
    with pytest.raises(SingularSystemError):
        solve_dropout_lr(prob)


def test_rotation_solver_survives_zero_column():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 4))
    x[:, 2] = 0.0
    prob = RegressionProblem(x, rng.standard_normal(20), 1.0)
    w = solve_rotation_lr(prob)
    assert np.all(np.isfinite(w))


def test_singular_unregularized_system_errors():
    x = np.ones((5, 3))  # rank one
    prob = RegressionProblem(x, np.ones(5), 0.0)
    with pytest.raises(SingularSystemError):
        solve_rotation_lr(prob)


def test_problem_validation():
    with pytest.raises(ValueError, match="match"):
        RegressionProblem(np.eye(3), np.ones(4), 0.1)
    with pytest.raises(ValueError, match="2 features"):
        RegressionProblem(np.ones((4, 1)), np.ones(4), 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        RegressionProblem(np.eye(3), np.ones(3), -0.5)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_problem_names_a_non_finite_strength(lam):
    with pytest.raises(ValueError, match=f"lam must be nonnegative and finite, got {lam}"):
        RegressionProblem(np.eye(3), np.ones(3), lam)


@pytest.mark.parametrize("name", ["X", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_names_a_non_finite_input(name, bad):
    data = {"X": np.eye(3), "y": np.ones(3)}
    data[name].flat[1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RegressionProblem(data["X"], data["y"], 0.5)


def test_ridge_identity_at_unit_strength():
    # the rotation system matrix is (1 - r) X^T X + r trace(X^T X) I, a
    # multiple of a ridge system, with pair rate r = 1/(D - 1) (even D), 1/D (odd)
    rng = np.random.default_rng(3)
    for dim, r in ((4, 1 / 3), (7, 1 / 7), (12, 1 / 11)):
        x = rng.standard_normal((30, dim))
        gram = x.T @ x
        lhs = rotation_system_matrix(x, 1.0)
        rhs = (1 - r) * gram + r * np.trace(gram) * np.eye(dim)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_rotation_system_rejects_one_column():
    with pytest.raises(ValueError, match="below dimension 2"):
        rotation_system_matrix(np.ones((3, 1)), 0.5)


@pytest.mark.parametrize("system", [rotation_system_matrix, dropout_system_matrix])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_system_matrix_names_a_non_finite_design(system, bad):
    x = np.eye(3)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        system(x, 0.5)


@pytest.mark.parametrize("system", [rotation_system_matrix, dropout_system_matrix])
@pytest.mark.parametrize("lam", [np.nan, np.inf, -2.0])
def test_system_matrix_names_a_bad_strength(system, lam):
    # the problem and both builders share one message
    with pytest.raises(ValueError, match=f"lam must be nonnegative and finite, got {lam}"):
        system(np.eye(3), lam)


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("lam", [0.25, 1.0])
@pytest.mark.parametrize(
    "method, system", [("rotation", rotation_system_matrix), ("dropout", dropout_system_matrix)]
)
def test_system_penalty_sums_conditional_noise_covariances(method, system, dim, lam):
    # the marginalized penalty is the per-row noise covariance of coadapt, summed
    x = np.random.default_rng(dim).standard_normal((3 * dim, dim))
    penalty = system(x, lam) - x.T @ x
    rows = sum(conditional_noise_covariance(row, method, 1.0 / (1.0 + lam)) for row in x)
    np.testing.assert_allclose(penalty, rows, rtol=0, atol=1e-12 * np.abs(penalty).max())


# ---------------------------------------------------------------------------
# marginalization oracle


def test_rotation_solution_zeroes_marginalized_gradient():
    rng = np.random.default_rng(4)
    lam = 0.25
    x = rng.standard_normal((64, 6))
    y = rng.standard_normal(64)
    prob = RegressionProblem(x, y, lam)
    w = solve_rotation_lr(prob)
    angles = gaussian_tangent(np.sqrt(lam))
    grad, stderr = marginalized_gradient(prob, w, angles, n_trials=1500, rng=rng)
    assert_within_stderr(grad, 0.0, stderr, 4)
    # sanity: a perturbed point does not zero the gradient
    grad_off, stderr_off = marginalized_gradient(prob, w + 0.1, angles, n_trials=1500, rng=rng)
    assert np.any(np.abs(grad_off) > 10 * stderr_off)


@pytest.mark.parametrize("w", [np.zeros(5), np.zeros(7), np.zeros((1, 6))])
def test_marginalized_gradient_names_a_wrong_weight_shape(w):
    prob = RegressionProblem(np.eye(6), np.ones(6), 0.5)
    with pytest.raises(ValueError, match="does not match the problem dimension 6"):
        marginalized_gradient(prob, w, gaussian_tangent(0.5), 2, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_marginalized_gradient_names_a_non_finite_weight_before_drawing(bad):
    prob = RegressionProblem(np.eye(6), np.ones(6), 0.5)
    rng = np.random.default_rng(19)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="w must be finite"):
        marginalized_gradient(prob, [bad, 0.0, 0.0, 0.0, 0.0, 0.0], gaussian_tangent(0.5), 2, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_rotation_solution_zeroes_marginalized_gradient_odd_dim(dim):
    # criterion 04 at odd D
    rng = np.random.default_rng(320 + dim)
    prob = RegressionProblem(rng.standard_normal((40, dim)), rng.standard_normal(40), 1.0)
    w = solve_rotation_lr(prob)
    grad, stderr = marginalized_gradient(prob, w, gaussian_tangent(1.0), n_trials=4000, rng=rng)
    assert_within_stderr(grad, 0.0, stderr, 5)


def test_dropout_solution_moments_identity():
    # marginalizing elementwise masks gives the dropout system directly:
    # E[m x (m x)^T] = X^T X + lam diag(X^T X) at the matched strength
    rng = np.random.default_rng(5)
    p = 0.8
    lam = (1 - p) / p
    x = rng.standard_normal((50, 4))
    acc = np.zeros((4, 4))
    trials = 4000
    for _ in range(trials):
        mask = (rng.random(x.shape) < p) / p
        xm = x * mask
        acc += xm.T @ xm
    np.testing.assert_allclose(acc / trials, dropout_system_matrix(x, lam), rtol=0.05, atol=0.1)


# ---------------------------------------------------------------------------
# conditioning


def test_identity_design_is_perfectly_conditioned():
    prob = RegressionProblem(np.eye(4), np.ones(4), 1.0)
    kr, kd = condition_numbers(prob)
    assert kr == pytest.approx(1.0, abs=1e-12)
    assert kd == pytest.approx(1.0, abs=1e-12)


def test_tiny_column_conditioning_gap():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 6))
    x[:, 0] *= 1e-8
    kr, kd = condition_numbers(RegressionProblem(x, rng.standard_normal(50), 1.0))
    assert kr <= 5.0 + 1e-9
    assert kd > 1e6


def test_zero_column_gives_infinite_dropout_condition():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 5))
    x[:, 1] = 0.0
    kr, kd = condition_numbers(RegressionProblem(x, rng.standard_normal(30), 1.0))
    assert np.isinf(kd)
    assert kr <= 4.0 + 1e-9


def test_rotation_condition_bound_random_designs():
    rng = np.random.default_rng(8)
    for _ in range(50):
        dim = int(rng.integers(3, 17))
        n = int(rng.integers(dim, 3 * dim + 1))
        x = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10)
        kr, _ = condition_numbers(RegressionProblem(x, rng.standard_normal(n), 1.0))
        # at lam = 1 the bound is 1 / r: D - 1 for even D, D for odd D
        assert kr <= (dim - 1 if dim % 2 == 0 else dim) + 1e-9


def test_rotation_condition_bound_rank_deficient():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((20, 2))
    x = np.hstack([base, base @ rng.standard_normal((2, 4))])  # rank 2, D=6
    kr, _ = condition_numbers(RegressionProblem(x, rng.standard_normal(20), 1.0))
    assert kr <= 5 + 1e-9


def gradient_reference(problem, w, angles, n_trials, rng):
    """marginalized_gradient as one trial per loop step and the reference shuffle."""
    grads = np.empty((n_trials, problem.dim))
    for t in range(n_trials):
        batch = sample_batch_rotation(problem.n, problem.dim, angles, rng)
        xr = rotate_reference(problem.X, *planes(batch.perm), batch.tangents[:, None])
        resid = problem.y - xr @ w
        grads[t] = -2.0 * resid @ xr
    return grads.mean(axis=0), grads.std(axis=0, ddof=1) / np.sqrt(n_trials)


@pytest.mark.parametrize("n, dim", [(40, 7), (33, 4), (12, 2)])
def test_marginalized_gradient_matches_per_trial_loop(n, dim):
    data = np.random.default_rng(n + dim)
    problem = RegressionProblem(data.standard_normal((n, dim)), data.standard_normal(n), 0.5)
    w = data.standard_normal(dim)
    angles = gaussian_tangent(np.sqrt(0.5))
    trials = 2 * (_BLOCK // (n * dim)) + 7  # two trial blocks and a remainder
    rng = np.random.Generator(np.random.SFC64(5))
    ref_rng = np.random.Generator(np.random.SFC64(5))
    mean, stderr = marginalized_gradient(problem, w, angles, trials, rng)
    ref_mean, ref_stderr = gradient_reference(problem, w, angles, trials, ref_rng)
    np.testing.assert_array_equal(mean.view(np.uint64), ref_mean.view(np.uint64))
    np.testing.assert_array_equal(stderr.view(np.uint64), ref_stderr.view(np.uint64))
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def test_marginalized_gradient_draws_one_batch_rotation_per_trial(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return sample_batch_rotation(*args)

    monkeypatch.setattr(rotnoise.linreg, "sample_batch_rotation", counting)
    rng = np.random.default_rng(16)
    problem = RegressionProblem(rng.standard_normal((50, 6)), rng.standard_normal(50), 1.0)
    marginalized_gradient(problem, np.zeros(6), gaussian_tangent(1.0), 250, rng)
    assert calls == [(50, 6)] * 250


# ---------------------------------------------------------------------------
# dropout angle demo


def angle_reference(dim, keep_rate, n_samples, rng):
    """dropout_rotation_angle as the Beta law of cos^2: the kept count K, redrawn
    where it is 0, then the kept and dropped parts of sum x^2 (halves of
    chi-squares with K and D - K degrees of freedom)."""
    kept = rng.binomial(dim, keep_rate, n_samples)
    while (kept == 0).any():
        kept[kept == 0] = rng.binomial(dim, keep_rate, int((kept == 0).sum()))
    a = rng.standard_gamma(kept / 2)
    cos2 = a / (a + rng.standard_gamma((dim - kept) / 2))
    return float(cos2.mean()), float(cos2.std(ddof=1) / np.sqrt(n_samples))


@pytest.mark.parametrize(
    "dim, keep_rate, n_samples",
    [
        (2, 0.3, 3 * (_BLOCK // 2) + 77),  # about half the counts are 0 and redrawn
        (1024, 0.5, 3 * (_BLOCK // 1024) + 5),
        (64, 0.8, 10),
    ],
)
def test_angle_matches_one_shot_draw(dim, keep_rate, n_samples):
    rng = np.random.Generator(np.random.SFC64(17))
    ref_rng = np.random.Generator(np.random.SFC64(17))
    assert dropout_rotation_angle(dim, keep_rate, n_samples, rng) == angle_reference(
        dim, keep_rate, n_samples, ref_rng
    )
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def angle_central_moments(dim, keep_rate, mean):
    """Exact second and fourth central moments of cos^2 about ``mean``: a mixture
    over K ~ Binomial(D, p) given K >= 1 of Beta(K/2, (D - K)/2) laws."""
    k = np.arange(1, dim + 1)
    log_pmf = [math.lgamma(dim + 1) - math.lgamma(j + 1) - math.lgamma(dim - j + 1) for j in k]
    pmf = np.exp(np.array(log_pmf) + k * math.log(keep_rate) + (dim - k) * math.log1p(-keep_rate))
    pmf /= pmf.sum()
    # raw moments of Beta(a, b): prod_{i < r} (a + i) / (a + b + i), with a + b = D/2
    raw = [np.ones(dim)]
    for i in range(4):
        raw.append(raw[-1] * (k / 2 + i) / (dim / 2 + i))
    return [
        float(pmf @ sum(math.comb(r, j) * raw[j] * (-mean) ** (r - j) for j in range(r + 1)))
        for r in (2, 4)
    ]


@pytest.mark.parametrize("dim, keep_rate", [(2, 0.3), (64, 0.8), (1024, 0.5)])
def test_angle_matches_its_exact_law(dim, keep_rate):
    # the mean is E[K/D | K >= 1] = p / (1 - (1 - p)^D); the variance tells
    # Beta(K/2, (D - K)/2) from Beta(K, D - K), which has the same mean
    n = 200_000
    mean, stderr = dropout_rotation_angle(dim, keep_rate, n, np.random.default_rng(42))
    exact_mean = keep_rate / (1.0 - (1.0 - keep_rate) ** dim)
    var, fourth = angle_central_moments(dim, keep_rate, exact_mean)
    # false-failure rate 2 x 5.7e-7 per case
    assert_within_stderr(
        [mean, n * stderr**2], [exact_mean, var], [stderr, math.sqrt((fourth - var**2) / n)], 5.0,
        label="cos^2 mean and variance",
    )


def test_angle_keep_rate_one_is_exact():
    rng = np.random.default_rng(10)
    mean, _ = dropout_rotation_angle(64, 1.0, 500, rng)
    assert mean == 1.0


@pytest.mark.parametrize("keep_rate", [0.5, 0.8])
def test_angle_concentrates_at_keep_rate(keep_rate):
    rng = np.random.default_rng(11)
    mean, stderr = dropout_rotation_angle(1024, keep_rate, 3000, rng)
    assert mean == pytest.approx(keep_rate, abs=0.02)
    assert stderr < 0.005


# ---------------------------------------------------------------------------
# logistic flip-rate demo


def _two_weights(angle, dim=16):
    w = np.zeros((2, dim))
    w[0, 0], w[0, 1] = np.cos(angle / 2), np.sin(angle / 2)
    w[1, 0], w[1, 1] = np.cos(angle / 2), -np.sin(angle / 2)
    return w


@pytest.mark.parametrize("x", [np.ones(15), np.ones(17), np.ones((1, 16))])
def test_flip_rate_names_an_input_of_another_width(x):
    with pytest.raises(ValueError, match="does not match the width 16 of W"):
        classification_flip_rate(_two_weights(0.5), x, fixed_angle(0.0), 2, np.random.default_rng(0))


def test_flip_rate_names_a_zero_row_before_drawing():
    rng = np.random.default_rng(16)
    before = rng.bit_generator.state
    w = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match="row 1 of W is zero"):
        classification_flip_rate(w, np.array([1.0, 0.0, 0.0]), gaussian_tangent(0.5), 100, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("name", ["W", "x"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flip_rate_names_a_non_finite_input_before_drawing(name, bad):
    rng = np.random.default_rng(17)
    before = rng.bit_generator.state
    data = {"W": _two_weights(0.5), "x": np.ones(16)}
    data[name].flat[1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        classification_flip_rate(data["W"], data["x"], gaussian_tangent(0.5), 100, rng)
    assert rng.bit_generator.state == before


def test_flip_rate_zero_noise():
    rng = np.random.default_rng(12)
    w = _two_weights(0.5)
    x = np.zeros(16)
    x[0], x[1] = 1.0, 0.3
    rate, _ = classification_flip_rate(w, x, fixed_angle(0.0), 2000, rng)
    assert rate == 0.0


def test_flip_rate_on_bisector_is_half():
    # a generic bisector point: the noise reaches the decision direction
    # almost surely, and the symmetric angle makes either side equally
    # likely
    rng = np.random.default_rng(13)
    w = np.random.default_rng(3).standard_normal((2, 16))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    x = w[0] + w[1]
    x /= np.linalg.norm(x)
    rate, _ = classification_flip_rate(w, x, uniform_angle(0.5), 10_000, rng)
    assert rate == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize(
    "w, message",
    [
        (np.zeros((0, 3)), r"at least 2 rows and 2 columns, got shape \(0, 3\)"),
        (np.ones((1, 3)), r"at least 2 rows and 2 columns, got shape \(1, 3\)"),
        (np.ones((3, 1)), r"at least 2 rows and 2 columns, got shape \(3, 1\)"),
        (np.ones(3), r"at least 2 rows and 2 columns, got shape \(3,\)"),
        ([[1.0, 0.0], [np.inf, 1.0]], "W must be finite"),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], "row 1 of W is zero"),
        ([[1.0, 2.0], [-1.0, -2.0]], "rows 0 and 1 of W, its nearest pair, are antiparallel"),
        ([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], "rows 0 and 2 of W, its nearest pair, are parallel"),
    ],
    ids=["no-rows", "one-row", "one-column", "1-D", "inf", "zero-row", "antiparallel", "parallel"],
)
def test_flip_curve_rejects_degenerate_weights_before_drawing(w, message):
    rng = np.random.default_rng(15)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        margin_flip_curve(w, gaussian_tangent(0.5), 100, rng)
    assert rng.bit_generator.state == before


def test_flip_curve_monotone_within_noise():
    rng = np.random.default_rng(14)
    w = np.random.default_rng(1).standard_normal((6, 24))
    curve = margin_flip_curve(w, gaussian_tangent(0.5), 20_000, rng)
    assert curve.shape == (20, 3)
    margins, rates, errs = curve.T
    assert np.all(np.diff(margins) > 0)
    assert rates[0] > rates[-1]
    combined = np.sqrt(errs[1:] ** 2 + errs[:-1] ** 2)
    assert np.all(np.diff(rates) <= 4 * np.maximum(combined, 1e-4))
