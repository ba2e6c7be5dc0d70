import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mc_utils import assert_within_stderr

from rotnoise import (
    BernoulliDropout,
    Centered,
    GaussianDropout,
    NoiseOpSpec,
    RotationOut,
    Uout,
    gaussian_tangent,
    make_noise_op,
)
from rotnoise.rotation import _estimate


def mc_conditional_moments(op, x, n, rng):
    """Monte-Carlo conditional mean and covariance of op(x) given x."""
    outs = np.stack([op(x, rng) for _ in range(n)])
    return outs.mean(axis=0), np.cov(outs.T, ddof=1), outs


# ---------------------------------------------------------------------------
# bernoulli dropout


def test_bernoulli_keep_rate_one_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(32)
    np.testing.assert_array_equal(BernoulliDropout(1.0)(x, rng), x)


def test_bernoulli_rejects_keep_rate_zero():
    with pytest.raises(ValueError, match="keep rate"):
        BernoulliDropout(0.0)


def test_bernoulli_moments():
    # mean preserved, per-coordinate conditional variance (1-p)/p
    rng = np.random.default_rng(1)
    p = 0.8
    x = np.ones(10_000)
    out = BernoulliDropout(p)(x, rng)
    mean, stderr = _estimate(out)
    assert_within_stderr(mean, 1.0, stderr, 3)
    var = np.mean((out - 1.0) ** 2)
    assert var == pytest.approx((1 - p) / p, rel=0.1)


# ---------------------------------------------------------------------------
# gaussian dropout


def test_gaussian_zero_variance_is_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(16)
    np.testing.assert_array_equal(GaussianDropout(0.0)(x, rng), x)


def test_gaussian_rejects_negative_variance():
    with pytest.raises(ValueError):
        GaussianDropout(-0.1)


def test_gaussian_conditional_variance_scales_with_square():
    rng = np.random.default_rng(3)
    sigma2 = 0.3
    x = np.array([0.5, -2.0, 3.0])
    _, cov, _ = mc_conditional_moments(GaussianDropout(sigma2), x, 40_000, rng)
    np.testing.assert_allclose(np.diag(cov), sigma2 * x**2, rtol=0.08)


def test_gaussian_equivalence_label():
    assert GaussianDropout(0.25).equivalent_keep_rate == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# uout


def test_uout_zero_is_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8)
    np.testing.assert_array_equal(Uout(0.0)(x, rng), x)


def test_uout_rejects_negative():
    with pytest.raises(ValueError):
        Uout(-1.0)


def test_uout_conditional_variance_and_independence():
    rng = np.random.default_rng(5)
    x = np.array([1.0, -1.5, 2.0, 0.5])
    _, cov, _ = mc_conditional_moments(Uout(1.0), x, 60_000, rng)
    np.testing.assert_allclose(np.diag(cov), x**2 / 3.0, rtol=0.08)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.01  # independent noise: no cross terms


# ---------------------------------------------------------------------------
# shared contracts


@pytest.fixture(params=["bernoulli", "gaussian", "uout", "rotation"])
def any_op(request):
    return {
        "bernoulli": BernoulliDropout(0.8),
        "gaussian": GaussianDropout(0.25),
        "uout": Uout(0.9),
        "rotation": RotationOut(gaussian_tangent(0.5)),
    }[request.param]


@pytest.mark.parametrize("dim", [4, 64])
def test_zero_centered_contract(any_op, dim):
    # fresh realization per row of a tiled batch estimates E[noised | x]
    rng = np.random.default_rng(6)
    x = rng.standard_normal(dim) + 1.0
    n = 40_000
    out = any_op(np.broadcast_to(x, (n, dim)).copy(), rng)
    mean, stderr = _estimate(out, axis=0)
    assert_within_stderr(mean, x, np.maximum(stderr, 1e-12), 4)


def test_eval_mode_is_exact_identity(any_op):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 6))
    np.testing.assert_array_equal(any_op(x, rng, mode="eval"), x)


def test_nontrivial_noise(any_op):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((64, 6)) + 2.0
    out = any_op(x, rng)
    assert np.any(out != x)


# fixed-realization contracts of every operator, as properties

# no shrink phase: a failing example is reported as drawn, at once
CONTRACT_EXAMPLES = settings(
    derandomize=True, max_examples=4, deadline=None, database=None,
    phases=(Phase.explicit, Phase.generate),
)
CONTRACT_OPS = {
    "bernoulli": ("bernoulli-dropout", st.floats(0.05, 1.0)),
    "gaussian": ("gaussian-dropout", st.floats(0.0, 4.0)),
    "uout": ("uout", st.floats(0.0, 2.0)),
    "rotation": ("rotation", st.floats(0.05, 1.0)),
}


@pytest.mark.parametrize("dim", [2, 3, 7, 256])
@pytest.mark.parametrize("centered", [False, True], ids=["plain", "centered"])
@pytest.mark.parametrize("name", sorted(CONTRACT_OPS))
@CONTRACT_EXAMPLES
@given(data=st.data(), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_fixed_realization_contracts(name, centered, dim, data, n, seed):
    kind, strengths = CONTRACT_OPS[name]
    op = make_noise_op(NoiseOpSpec(kind, data.draw(strengths), centered=centered))
    rng = np.random.default_rng(seed)
    x, g = rng.standard_normal((2, n, dim)) + rng.standard_normal((2, 1, dim))
    state = op.sample_state(x, rng)
    y, back = op.apply_state(x, state), op.backprop_state(g, state)
    for out in (y, back):
        assert out.shape == x.shape and out.dtype == np.float64
    # <A x, g> == <x, A^T g>; the dot products round at most about
    # n * D * eps times the sum of the magnitudes of their terms
    scale = np.abs(y * g).sum() + np.abs(x * back).sum()
    assert abs(np.vdot(y, g) - np.vdot(x, back)) <= 1e-12 * scale
    assert op(x, mode="eval").tobytes() == x.tobytes()


def test_equivalence_triple_reports_same_keep_rate():
    p = 0.8
    lam = (1 - p) / p
    ops = [BernoulliDropout(p), GaussianDropout(lam), RotationOut(gaussian_tangent(np.sqrt(lam)))]
    rates = {op.equivalent_keep_rate for op in ops}
    assert rates == {p}


def test_train_mode_requires_rng(any_op):
    with pytest.raises(ValueError, match="generator"):
        any_op(np.ones(4))


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_named(any_op, bad, mode):
    x = np.ones((4, 8))
    x[1, 3] = bad
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    for op in (any_op, Centered(any_op)):
        with pytest.raises(ValueError, match="x must be finite"):
            op(x, rng, mode=mode)
    assert rng.bit_generator.state == before


def test_empty_input_stays_legal(any_op):
    x = np.zeros((0, 8))
    for mode in ("train", "eval"):
        assert any_op(x, np.random.default_rng(12), mode=mode).shape == (0, 8)


def test_rotation_keeps_a_zero_row_exactly_zero():
    # a rotation of 0 is 0, however large the angle
    x = np.random.default_rng(13).standard_normal((4, 8))
    x[2] = 0.0
    out = RotationOut(gaussian_tangent(2.0))(x, np.random.default_rng(14))
    assert np.all(out[2] == 0.0)
    assert np.all(out[[0, 1, 3]] != x[[0, 1, 3]])


# ---------------------------------------------------------------------------
# centered wrapper


def test_centered_constant_batch_is_identity():
    rng = np.random.default_rng(9)
    x = np.tile(np.arange(6.0), (8, 1))
    for op in (BernoulliDropout(0.5), GaussianDropout(0.5), Uout(1.0), RotationOut(gaussian_tangent(2.0))):
        np.testing.assert_array_equal(Centered(op)(x, rng), x)


def test_centered_requires_batch():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match="batch statistics"):
        Centered(BernoulliDropout(0.5))(np.ones((1, 4)), rng)


def test_centered_dropout_variance_tracks_centered_energy():
    # noising mean-3 samples: the conditional variance follows the
    # mean-removed energy, not the raw second moment
    rng = np.random.default_rng(11)
    p = 0.5
    n, dim = 4000, 16
    x = rng.standard_normal((n, dim)) + 3.0
    reps = 200
    acc = np.zeros((n, dim))
    for _ in range(reps):
        out = Centered(BernoulliDropout(p))(x, rng)
        acc += (out - x) ** 2
    cond_var = (acc / reps).mean()
    lam = (1 - p) / p
    centered_energy = ((x - x.mean(axis=0)) ** 2).mean()
    raw_energy = (x**2).mean()
    assert cond_var == pytest.approx(lam * centered_energy, rel=0.05)
    assert abs(cond_var - lam * raw_energy) > 5 * abs(cond_var - lam * centered_energy)


# ---------------------------------------------------------------------------
# declarative specs


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        NoiseOpSpec("spatial", 0.5)
    with pytest.raises(ValueError, match="keep rate"):
        NoiseOpSpec("rotation", 0.0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: GaussianDropout(v), "sigma2"),
        (lambda v: Uout(v), "beta"),
        (lambda v: NoiseOpSpec("uout", v), "strength"),
        (lambda v: NoiseOpSpec("gaussian-dropout", v), "strength"),
    ],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_strength_rejected(build, name, value):
    with pytest.raises(ValueError, match=name):
        build(value)


def test_spec_roundtrip_keep_rate():
    for kind, strength in [("bernoulli-dropout", 0.8), ("rotation", 0.8), ("gaussian-dropout", 0.25)]:
        op = make_noise_op(NoiseOpSpec(kind, strength))
        assert op.equivalent_keep_rate == pytest.approx(0.8)


def test_rotation_spec_at_keep_rate_one_is_identity():
    rng = np.random.default_rng(15)
    op = make_noise_op(NoiseOpSpec("rotation", 1.0))
    x = rng.standard_normal((6, 4))
    np.testing.assert_allclose(op(x, rng), x, atol=0)


def test_spec_centered_flag_wraps():
    op = make_noise_op(NoiseOpSpec("bernoulli-dropout", 0.5, centered=True))
    assert isinstance(op, Centered)
