"""Acceptance gate: every claim the library is built around, at full budget.

Each test prints one PASS/FAIL line with its runtime (run with ``pytest -s``
to see them); the stated runtime ceilings are asserted as part of the gate.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from mc_utils import assert_within_stderr, conditional_cov_mc, first_element_variance
from test_batchnorm import loo_statistic_direct, train_statistic
from test_network import assert_grads_close, finite_difference_grads
from test_rotation import dense_oracle

from rotnoise import (
    BatchRotation,
    BernoulliDropout,
    GaussianSource,
    LayerSpec,
    NoiseOpSpec,
    RegressionProblem,
    ReluGaussianSource,
    RotationOut,
    TrainConfig,
    build_network,
    condition_numbers,
    conditional_noise_covariance,
    dropout_rotation_angle,
    equicorrelated,
    fit_poly_correction,
    gaussian_tangent,
    marginalized_gradient,
    mc_nonlinearity_curve,
    noise_budget,
    random_correlation,
    sample_pairing,
    sample_sphere_rows,
    softmax_cross_entropy,
    solve_rotation_lr,
    standardized_sampler,
    train_and_report,
    variance_shift,
    verify_reduction,
)
from rotnoise.batchnorm import DISTRIBUTIONS


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_seconds else "FAIL (runtime)"
    print(f"[criterion {number:02d}] {name}: {verdict} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"


def test_criterion_01_rotation_correctness():
    with criterion(1, "rotation matches the dense operator", 10):
        rng = np.random.default_rng(101)
        for dim in (2, 4, 6, 8, 16):
            for _ in range(100):
                pairing = sample_pairing(dim, rng)
                theta = rng.uniform(-1.3, 1.3)
                real = BatchRotation(pairing.perm, np.tan(theta))
                x = rng.standard_normal(dim)
                g = rng.standard_normal(dim)
                mat = dense_oracle(pairing, theta)

                y = real.apply(x)
                gt = real.apply_transpose(g)
                assert np.abs(y - mat @ x).max() < 1e-12
                assert np.abs(gt - mat.T @ g).max() < 1e-12

                cos = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                assert abs(cos - np.cos(theta)) < 1e-10
                assert abs(y @ y - (x @ x) * (1 + np.tan(theta) ** 2)) < 1e-12 * (x @ x) * 10
                assert abs(y @ g - x @ gt) < 1e-12 * max(1.0, abs(y @ g))


def test_criterion_02_conditional_covariance_closed_forms():
    with criterion(2, "conditional covariance matches both closed forms", 60):
        rng = np.random.default_rng(102)
        n = 1_000_000
        p = 0.8
        lam = (1 - p) / p
        for dim in (2, 4, 8):
            x = rng.standard_normal(dim)
            for method, op in (
                ("dropout", BernoulliDropout(p)),
                ("rotation", RotationOut(gaussian_tangent(np.sqrt(lam)))),
            ):
                mean, stderr = conditional_cov_mc(op, x, n, rng)
                closed = conditional_noise_covariance(x, method, p)
                distinct = dim * (dim + 1) // 2  # entries of a symmetric matrix
                stderr = np.maximum(stderr, 1e-12)
                assert_within_stderr(mean, closed, stderr, 4, distinct, label=f"{method}, D={dim}")


def test_criterion_03_coadaptation_reduction_factors():
    with criterion(3, "co-adaptation reduction factors", 60):
        rng = np.random.default_rng(103)
        source = GaussianSource(equicorrelated(8, 0.5))
        dropout = verify_reduction(source, "dropout", 0.8, 1_000_000, rng)
        assert abs(dropout.observed_factor - 0.8) < 0.01
        rotation = verify_reduction(source, "rotation", 0.8, 1_000_000, rng)
        assert abs(rotation.observed_factor - (0.8 - 0.2 / 7)) < 0.01
        assert rotation.predicted_factor == pytest.approx(0.8 - 0.2 / 7, abs=1e-12)


def test_criterion_04_regression_marginalization_and_conditioning():
    with criterion(4, "marginalized regression and conditioning bounds", 60):
        rng = np.random.default_rng(104)
        for k in range(20):
            dim = int(2 * rng.integers(2, 6))  # closed form assumes paired (even) dims
            n = int(rng.integers(30, 81))
            lam = float(rng.choice([0.25, 0.5, 1.0]))
            x = rng.standard_normal((n, dim)) * rng.uniform(0.3, 3.0)
            y = rng.standard_normal(n)
            prob = RegressionProblem(x, y, lam)
            w = solve_rotation_lr(prob)
            grad, stderr = marginalized_gradient(
                prob, w, gaussian_tangent(np.sqrt(lam)), n_trials=1000, rng=rng
            )
            assert_within_stderr(grad, 0.0, stderr, 4, label=f"problem {k}")
            kr, _ = condition_numbers(RegressionProblem(x, y, 1.0))
            assert kr <= dim - 1 + 1e-9

        x = rng.standard_normal((50, 6))
        x[:, 0] *= 1e-8
        kr, kd = condition_numbers(RegressionProblem(x, rng.standard_normal(50), 1.0))
        assert kr <= 5 + 1e-9
        assert kd > 1e6


def test_criterion_05_dropout_angle_concentration():
    with criterion(5, "dropout rotates by cos^2 = keep rate", 30):
        rng = np.random.default_rng(105)
        for p in (0.5, 0.8):
            mean, _ = dropout_rotation_angle(1024, p, 10_000, rng)
            assert abs(mean - p) <= 0.02


def test_criterion_06_variance_shift_observation():
    with criterion(6, "variance-shift placement observation", 300):
        wins = 0
        for rep in range(100):
            rng = np.random.default_rng((106, rep))
            source = ReluGaussianSource(random_correlation(64, rng))
            w = sample_sphere_rows(256, 64, rng)
            rep_a = variance_shift("dropout-a", False, 0.5, source, W=w)
            rep_b = variance_shift("dropout-b", False, 0.5, source, W=w)
            if rep_b.ratio_var < rep_a.ratio_var and rep_a.ratio_max > rep_b.ratio_max:
                wins += 1
        assert wins >= 95, f"observation held in only {wins}/100 repetitions"

        rng = np.random.default_rng(1060)
        source = ReluGaussianSource(random_correlation(64, rng))
        centered_a = variance_shift("dropout-a", True, 0.5, source, n_rows=256, rng=rng)
        np.testing.assert_allclose(centered_a.ratio, 2.0, rtol=1e-12)
        assert centered_a.ratio_var < 1e-24


def test_criterion_07_small_batch_normalization():
    with criterion(7, "small-batch normalization statistics", 300):
        rng = np.random.default_rng(107)

        # (a) leave-one-out identity, exact
        for b in (2, 4, 8, 32):
            for _ in range(200):
                batch = rng.standard_normal(b)
                assert abs(loo_statistic_direct(batch) - train_statistic(batch[0], batch[1:])) < 1e-12

        # (b) train-mode output variance is 1 for every size and source
        for dist in DISTRIBUTIONS:
            draw = standardized_sampler(dist)
            for b in (2, 4, 8, 32):
                m = 60_000
                var, stderr = first_element_variance(draw((b, m), rng))
                assert_within_stderr(var, 1.0, max(stderr, 1e-4), 5, label=f"{dist}, B={b}")

        # (c) integrated conditional variance of the train statistic
        budget8, _ = noise_budget(8, "gaussian", rng, n_outer=3000, n_inner=1500)
        assert budget8 < 0.2
        budget16, _ = noise_budget(16, "gaussian", rng, n_outer=3000, n_inner=1500)
        assert budget16 < 0.1


def test_criterion_08_polynomial_correction_coefficients():
    with criterion(8, "degree-7 test-mode correction coefficients", 600):
        rng = np.random.default_rng(108)
        curve = mc_nonlinearity_curve("gaussian", 8, rng, n_mc=1_000_000)
        fit = fit_poly_correction(curve)
        reported = np.array([1.0919, -8.8903e-2, 6.5157e-3, -1.9404e-4])
        spread = np.array([0.0020, 0.24595e-2, 0.61768e-3, 0.38001e-4])
        assert_within_stderr(fit.coeffs, reported, spread, 3, label="coefficients")


def test_criterion_09_gradient_checks():
    with criterion(9, "analytic gradients match finite differences", 60):
        rotation = NoiseOpSpec("rotation", 0.8, centered=True)
        cases = [
            ([LayerSpec(6, noise=rotation), LayerSpec(4)], 1e-6, 90),
            ([LayerSpec(6, noise=rotation, noise_placement="after-weight"), LayerSpec(4)], 1e-6, 92),
            ([LayerSpec(6, noise=NoiseOpSpec("bernoulli-dropout", 0.7)), LayerSpec(4)], 1e-6, 90),
            ([LayerSpec(6, noise=NoiseOpSpec("uout", 0.8, centered=True)), LayerSpec(4)], 1e-6, 93),
            ([LayerSpec(6, noise=rotation, batchnorm=True), LayerSpec(4)], 1e-5, 94),
            ([LayerSpec(6, noise=rotation, activation="none", batchnorm=True)], 1e-5, 95),
        ]
        for hidden, tol, seed in cases:
            rng = np.random.default_rng(seed)
            model = build_network(5, hidden, 2, rng)
            x = rng.standard_normal((6, 5))
            y = rng.integers(0, 2, 6)
            logits, cache = model.forward(x, mode="train", rng=rng)
            # central differences are only trustworthy away from relu kinks
            margins = [c["kink_margin"] for c in cache.layer_caches if "kink_margin" in c]
            assert not margins or min(margins) > 1e-3
            _, dlogits = softmax_cross_entropy(logits, y)
            analytic = model.backward(cache, dlogits)
            numeric = finite_difference_grads(model, x, y, cache)
            assert_grads_close(analytic, numeric, tol)


def test_criterion_10_regularization_reduces_overfitting_gap():
    with criterion(10, "rotation noise shrinks the generalization gap", 600):
        spec = NoiseOpSpec("rotation", 0.8, centered=True)
        config = TrainConfig(
            epochs=150, n_train=200, n_val=4000, batch_size=32,
            learning_rate=0.05, class_separation=2.0, seed=0, gap_window=10,
        )
        _, summary = train_and_report(
            [("baseline", None), ("rotation", spec)],
            config,
            hidden_widths=(256, 256),
            seeds=(0, 1, 2, 3, 4),
            record_every=0,
        )
        base = np.array(summary["baseline"]["gaps"])
        rot = np.array(summary["rotation"]["gaps"])
        wins = int((rot < base).sum())
        # one-sided sign test at 5 pairs: all 5 wins gives p = 2^-5 < 0.05
        assert wins == 5, f"gap reduced in only {wins}/5 paired seeds"
        assert rot.mean() < base.mean()
