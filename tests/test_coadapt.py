import numpy as np
import pytest
from mc_utils import assert_within_stderr, conditional_cov_mc, outer_moment

from rotnoise import (
    BernoulliDropout,
    CovStats,
    GaussianDropout,
    GaussianSource,
    ReluGaussianSource,
    RotationOut,
    Uout,
    coadaptation,
    conditional_noise_covariance,
    equicorrelated,
    gaussian_tangent,
    predicted_factor,
    random_correlation,
    reduction_factor,
    total_variance,
    verify_reduction,
)


# ---------------------------------------------------------------------------
# the co-adaptation metric


def test_identity_covariance_has_zero_coadaptation():
    stats = CovStats(mean=np.zeros(3), cov=np.eye(3))
    assert coadaptation(stats) == 0.0


def test_coadaptation_worked_example():
    stats = CovStats(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert coadaptation(stats) == pytest.approx(0.5, abs=0)


def test_coadaptation_scale_invariance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    cov = a @ a.T
    s1 = CovStats(mean=np.zeros(4), cov=cov)
    s2 = CovStats(mean=np.zeros(4), cov=7.0 * cov)
    assert coadaptation(s1) == pytest.approx(coadaptation(s2), rel=1e-12)


def test_degenerate_covariance_rejected():
    stats = CovStats(mean=np.zeros(2), cov=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="degenerate"):
        coadaptation(stats)


@pytest.mark.parametrize(
    "field, mean, cov",
    [
        ("mean", [np.nan, 0.0], np.eye(2)),
        ("cov", np.zeros(2), [[1.0, np.inf], [np.inf, 1.0]]),
        ("cov", np.zeros(2), [[np.nan, 0.0], [0.0, 1.0]]),
    ],
    ids=["nan-mean", "inf-cov", "nan-cov"],
)
def test_covstats_names_a_non_finite_field(field, mean, cov):
    # np.allclose treats inf as equal to inf, and a NaN read as "not symmetric"
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        CovStats(mean=mean, cov=cov)


@pytest.mark.parametrize("method", ["dropout", "rotation"])
@pytest.mark.parametrize("off", [0.0, 1e-14], ids=["diagonal", "below-1e-12"])
def test_predicted_factor_names_an_uncorrelated_source(method, off):
    # co(input) = 0 makes the factor 0/0, which verify_reduction flags undefined
    cov = np.eye(3) + off * (1.0 - np.eye(3))
    with pytest.raises(ValueError, match="reduction factor is undefined"):
        predicted_factor(CovStats(np.zeros(3), cov), method, 0.5)
    report = verify_reduction(GaussianSource(cov), method, 0.5, 40, np.random.default_rng(11))
    assert report.undefined


def test_covstats_validation():
    with pytest.raises(ValueError, match="symmetric"):
        CovStats(mean=np.zeros(2), cov=np.array([[1.0, 0.4], [0.1, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        CovStats(mean=np.zeros(3), cov=np.eye(2))


# ---------------------------------------------------------------------------
# conditional covariance closed forms


def test_conditional_rotation_worked_example():
    out = conditional_noise_covariance(np.array([1.0, 0.0]), "rotation", keep_rate=0.5)
    np.testing.assert_allclose(out, [[0.0, 0.0], [0.0, 1.0]], atol=0)


def test_conditional_zero_input_gives_zero_matrix():
    for method in ("dropout", "rotation"):
        out = conditional_noise_covariance(np.zeros(4), method, keep_rate=0.7)
        np.testing.assert_array_equal(out, np.zeros((4, 4)))


def test_conditional_traces_agree():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6)
    p = 0.8
    td = np.trace(conditional_noise_covariance(x, "dropout", p))
    tr = np.trace(conditional_noise_covariance(x, "rotation", p))
    assert td == pytest.approx(tr, rel=1e-12)
    assert td == pytest.approx((1 - p) / p * x @ x, rel=1e-12)


@pytest.mark.parametrize("method", ["dropout", "rotation"])
def test_conditional_covariance_names_a_non_finite_input(method):
    with pytest.raises(ValueError, match="x must be finite"):
        conditional_noise_covariance([1.0, np.nan, 2.0], method, 0.5)


def test_conditional_rotation_needs_two_dims():
    with pytest.raises(ValueError, match="dimension 2"):
        conditional_noise_covariance(np.ones(1), "rotation", 0.5)


@pytest.mark.parametrize("method", ["dropout", "rotation"])
def test_conditional_covariance_matches_monte_carlo(method):
    rng = np.random.default_rng(3)
    p = 0.8
    lam = (1 - p) / p
    x = rng.standard_normal(4)
    op = BernoulliDropout(p) if method == "dropout" else RotationOut(gaussian_tangent(np.sqrt(lam)))
    mean, stderr = conditional_cov_mc(op, x, 300_000, rng)
    closed = conditional_noise_covariance(x, method, p)
    assert_within_stderr(mean, closed, np.maximum(stderr, 1e-12), 4, entries=10)


# ---------------------------------------------------------------------------
# total variance closed forms


def test_total_variance_dropout_worked_example():
    stats = CovStats(mean=np.zeros(4), cov=np.eye(4))
    out = total_variance(stats, "dropout", keep_rate=0.5)
    np.testing.assert_allclose(out, 2 * np.eye(4), atol=0)


def test_total_variance_no_noise_returns_input():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    stats = CovStats(mean=rng.standard_normal(3), cov=a @ a.T)
    for method in ("dropout", "rotation"):
        np.testing.assert_allclose(total_variance(stats, method, 1.0), stats.cov, atol=0)


@pytest.mark.parametrize("method", ["dropout", "rotation"])
def test_total_variance_matches_end_to_end_monte_carlo(method):
    rng = np.random.default_rng(5)
    dim, p = 8, 0.8
    lam = (1 - p) / p
    source = GaussianSource(equicorrelated(dim, 0.4))
    x = source.sample(300_000, rng)
    op = BernoulliDropout(p) if method == "dropout" else RotationOut(gaussian_tangent(np.sqrt(lam)))
    noised = op(x, rng)
    stats = CovStats(mean=source.mean, cov=source.cov)
    closed = total_variance(stats, method, p)
    observed = np.cov(noised.T, ddof=1)
    # chunked stderr of each covariance entry
    chunks = np.stack([np.cov(c.T, ddof=1) for c in np.array_split(noised, 20)])
    stderr = chunks.std(axis=0, ddof=1) / np.sqrt(20)
    assert_within_stderr(observed, closed, stderr, 4.5, entries=36, dof=19)


@pytest.mark.parametrize(
    "op",
    [
        BernoulliDropout(0.8),
        GaussianDropout(0.25),
        Uout(0.8),
        RotationOut(gaussian_tangent(0.5)),
    ],
)
def test_law_of_total_variance(op):
    # Var[noised] - Var[x] must equal the average conditional covariance
    rng = np.random.default_rng(6)
    dim = 6
    source = GaussianSource(equicorrelated(dim, 0.3))
    n = 200_000
    x = source.sample(n, rng)
    noised = op(x, rng)
    delta = noised - x
    lhs = np.cov(noised.T, ddof=1) - np.cov(x.T, ddof=1)
    rhs = delta.T @ delta / n
    splits = 20
    chunks = []
    for xc, nc in zip(np.array_split(x, splits), np.array_split(noised, splits)):
        dc = nc - xc
        chunks.append((np.cov(nc.T, ddof=1) - np.cov(xc.T, ddof=1)) - dc.T @ dc / dc.shape[0])
    stderr = np.stack(chunks).std(axis=0, ddof=1) / np.sqrt(splits)
    assert_within_stderr(lhs, rhs, np.maximum(stderr, 1e-6), 5, entries=21, dof=19)


def test_rotation_cross_covariance_is_inhibitory():
    # conditional cross terms carry the opposite sign of the input
    # covariance, scaled by (1-p)/(p(D-1)); independent noise has none
    rng = np.random.default_rng(7)
    dim, p = 6, 0.8
    lam = (1 - p) / p
    source = GaussianSource(equicorrelated(dim, 0.5))
    n = 400_000
    x = source.sample(n, rng)

    cross, err = outer_moment(RotationOut(gaussian_tangent(np.sqrt(lam)))(x, rng) - x)
    expected = -lam / (dim - 1) * source.cov
    i, j = 0, 1
    assert cross[i, j] < 0
    assert_within_stderr(cross[i, j], expected[i, j], err[i, j], 5)

    cross, err = outer_moment(GaussianDropout(lam)(x, rng) - x)
    assert_within_stderr(cross[i, j], 0.0, err[i, j], 5)


# ---------------------------------------------------------------------------
# reduction factors


def test_reduction_factor_dropout_is_keep_rate():
    assert reduction_factor("dropout", 0.8, 16) == 0.8


def test_reduction_factor_rotation_worked_example():
    # lam = 0.25 and the odd-D pair rate r = 1/5: (1 - lam r) / (1 + lam 4 r)
    assert reduction_factor("rotation", 0.8, 5) == pytest.approx(0.95 / 1.2, abs=1e-15)


def test_reduction_factor_rotation_large_dim_limit():
    assert reduction_factor("rotation", 0.8, 10**7) == pytest.approx(0.8, abs=1e-6)


def test_reduction_factors_monotone_in_keep_rate():
    ps = np.linspace(0.05, 1.0, 30)
    assert np.all(np.diff([reduction_factor("dropout", p, 8) for p in ps]) > 0)
    # at D = 8, lam r = (1 - p) / (7 p) reaches 1 at p = 1/8: the rotation
    # factor |8 p - 1| / 7 rises with p above that keep rate, is zero there
    # and rises again as p falls below it
    above = np.linspace(1 / 8, 1.0, 30)
    below = np.linspace(0.05, 1 / 8, 10)
    assert np.all(np.diff([reduction_factor("rotation", p, 8) for p in above]) > 0)
    assert reduction_factor("rotation", 1 / 8, 8) == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff([reduction_factor("rotation", p, 8) for p in below]) < 0)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_rotation_reduction_factor_is_predicted_factor_across_lam_r_one(dim):
    # lam r = 1 at p = 1/2 for D = 2, 1/4 for D = 3 and 4, and 1/8 for D = 8;
    # below it the noise flips the sign of the off-diagonal covariance
    stats = CovStats(mean=np.zeros(dim), cov=equicorrelated(dim, 0.5))
    for p in np.linspace(0.05, 1.0, 20):
        closed = reduction_factor("rotation", p, dim)
        assert closed >= 0.0
        assert predicted_factor(stats, "rotation", p) == pytest.approx(closed, rel=1e-12, abs=1e-15)


def test_predicted_factor_reduces_to_closed_form_at_zero_mean():
    rng = np.random.default_rng(8)
    cov = equicorrelated(8, 0.5)
    stats = CovStats(mean=np.zeros(8), cov=cov)
    for method in ("dropout", "rotation"):
        assert predicted_factor(stats, method, 0.8) == pytest.approx(
            reduction_factor(method, 0.8, 8), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Monte-Carlo reduction verification


def test_verify_reduction_equicorrelated():
    rng = np.random.default_rng(9)
    source = GaussianSource(equicorrelated(8, 0.5))
    for method, target in (("dropout", 0.8), ("rotation", 0.8 - 0.2 / 7)):
        report = verify_reduction(source, method, 0.8, 200_000, rng)
        assert not report.undefined
        assert report.predicted_factor == pytest.approx(target, rel=1e-10)
        assert report.observed_factor == pytest.approx(target, abs=0.015)
        assert report.stderr < 0.02
        assert 0.0 <= report.observed_factor <= 1.0 + 5 * report.stderr


@pytest.mark.parametrize("dim", [1, 0, -2])
def test_equicorrelated_names_a_dimension_below_2(dim):
    with pytest.raises(ValueError, match=f"dim of at least 2, got {dim}"):
        equicorrelated(dim, 0.0)


def test_verify_reduction_past_the_sign_flip():
    # D = 3, p = 0.2: lam r = 4/3 > 1, so the noise flips the sign of the
    # off-diagonal covariance, and the factor is |1 - 4/3| / (1 + 8/3) = 1/11;
    # the stderr comes from 20 chunks, so |z| has 19 degrees of freedom
    rng = np.random.default_rng(1)
    report = verify_reduction(GaussianSource(equicorrelated(3, 0.5)), "rotation", 0.2, 400_000, rng)
    assert reduction_factor("rotation", 0.2, 3) == pytest.approx(1 / 11, rel=1e-12)
    assert report.predicted_factor == pytest.approx(1 / 11, rel=1e-12)
    assert_within_stderr(report.observed_factor, 1 / 11, report.stderr, 6, dof=19)


def test_verify_reduction_diagonal_source_is_flagged():
    rng = np.random.default_rng(10)
    source = GaussianSource(np.eye(6))
    report = verify_reduction(source, "dropout", 0.8, 20_000, rng)
    assert report.undefined
    assert np.isnan(report.observed_factor)


@pytest.mark.parametrize(
    "corr, message",
    [([[1.0, 0.9], [0.0, 1.0]], "symmetric"), (4.0 * np.eye(2), "unit diagonal")],
    ids=["non-symmetric", "non-unit-diagonal"],
)
def test_relu_source_rejects_what_is_not_a_correlation(corr, message):
    # the arc-cosine moments hold only for a correlation matrix
    with pytest.raises(ValueError, match=message):
        ReluGaussianSource(corr)


@pytest.mark.parametrize(
    "make_corr",
    [lambda: random_correlation(64, np.random.default_rng(5)), lambda: equicorrelated(8, 0.5)],
    ids=["random-64", "equicorrelated-8"],
)
def test_relu_source_rectifies_gaussian_samples(make_corr):
    corr = make_corr()
    relu = ReluGaussianSource(corr).sample(1_000, np.random.default_rng(6))
    gaussian = GaussianSource(corr).sample(1_000, np.random.default_rng(6))
    assert relu.tobytes() == np.maximum(gaussian, 0.0).tobytes()


def test_uncentered_dropout_on_relu_features():
    # rectified standard normals keep their off-diagonal covariance under
    # dropout, so the factor is trace-driven and has a moment closed form;
    # keep rates 0.9 / 0.7 land near 0.86 / 0.61
    rng = np.random.default_rng(11)
    source = ReluGaussianSource(equicorrelated(8, 0.5))
    stats = CovStats(mean=source.mean, cov=source.cov)
    predictions = {}
    for p in (0.9, 0.7):
        lam = (1 - p) / p
        mean_energy = float(source.mean @ source.mean) / float(np.trace(source.cov))
        direct = 1.0 / (1.0 / p + lam * mean_energy)
        assert predicted_factor(stats, "dropout", p) == pytest.approx(direct, rel=1e-12)
        predictions[p] = direct
    assert predictions[0.9] == pytest.approx(0.86, abs=0.005)
    assert predictions[0.7] == pytest.approx(0.61, abs=0.005)

    report = verify_reduction(source, "dropout", 0.9, 400_000, rng, center=False)
    assert_within_stderr(report.observed_factor, predictions[0.9], report.stderr, 5, dof=19)


@pytest.mark.parametrize("method", ["dropout", "rotation"])
def test_verify_reduction_at_keep_rate_one_reports_factor_one(method):
    # keep rate 1 is the no-noise limit of both operators, as in NoiseOpSpec
    rng = np.random.default_rng(11)
    report = verify_reduction(GaussianSource(equicorrelated(4, 0.5)), method, 1.0, 2_000, rng)
    assert report.observed_factor == pytest.approx(1.0, abs=1e-12)
    assert report.predicted_factor == pytest.approx(1.0, abs=1e-12)


def test_verify_reduction_rejects_unknown_method():
    with pytest.raises(ValueError, match="method must be one of"):
        verify_reduction(GaussianSource(equicorrelated(4, 0.5)), "uout", 0.8, 100, np.random.default_rng(12))


def test_verify_reduction_checks_method_before_drawing():
    rng = np.random.default_rng(13)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="method must be one of"):
        verify_reduction(GaussianSource(equicorrelated(4, 0.5)), "dropuot", 0.8, 1_000, rng)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# odd D: the sampler leaves one coordinate out per draw and pairs at 1 / D


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_conditional_rotation_covariance_odd_dim_monte_carlo(dim):
    p = 0.8
    rng = np.random.default_rng(300 + dim)
    x = rng.standard_normal(dim)
    op = RotationOut(gaussian_tangent(np.sqrt((1 - p) / p)))
    mean, stderr = conditional_cov_mc(op, x, 200_000, rng)
    closed = conditional_noise_covariance(x, "rotation", p)
    assert_within_stderr(mean, closed, stderr, 5, entries=dim * (dim + 1) // 2)


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_verify_reduction_odd_dim_matches_reduction_factor(dim):
    rng = np.random.default_rng(310 + dim)
    source = GaussianSource(equicorrelated(dim, 0.5))
    report = verify_reduction(source, "rotation", 0.8, 200_000, rng)
    closed = reduction_factor("rotation", 0.8, dim)
    assert report.predicted_factor == pytest.approx(closed, rel=1e-12)
    assert_within_stderr(report.observed_factor, closed, report.stderr, 6, dof=19)
