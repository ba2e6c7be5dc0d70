import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from mc_utils import assert_within_stderr

from rotnoise import (
    LayerSpec,
    NoiseOpSpec,
    TrainConfig,
    bn_test_forward,
    build_network,
    gaussian_mixture_data,
    softmax_cross_entropy,
    train,
    train_and_report,
)
from rotnoise import network
from rotnoise.network import _BatchNorm, _Dense, _Noise, _Relu, _workspace
from rotnoise.rotation import _estimate


def loss_at(model, x, y, cache):
    logits, _ = model.forward(x, mode="train", reuse=cache)
    loss, _ = softmax_cross_entropy(logits, y)
    return loss


def finite_difference_grads(model, x, y, cache, step=1e-5):
    """Central differences through the replayed stochastic forward map."""
    grads = {}
    for name, p in model.params().items():
        g = np.zeros_like(p)
        flat, gf = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_at(model, x, y, cache)
            flat[i] = orig - step
            down = loss_at(model, x, y, cache)
            flat[i] = orig
            gf[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, tol):
    for name, num in numeric.items():
        ana = analytic[name]
        scale = np.maximum(1.0, np.abs(num))
        worst = np.max(np.abs(ana - num) / scale)
        assert worst < tol, f"{name}: relative gradient error {worst:.3e} exceeds {tol}"


def kink_margins(model, cache):
    """Each ReLU's smallest |preactivation| in a train cache: its distance to the kink."""
    return [float(np.abs(c["x"]).min()) for layer, c in zip(model.layers, cache.layer_caches, strict=True)
            if isinstance(layer, _Relu)]


def small_model(noise=None, batchnorm=False, activation="relu", seed=0, placement="before-weight"):
    rng = np.random.default_rng(seed)
    hidden = [
        LayerSpec(6, activation=activation, noise=noise, noise_placement=placement,
                  batchnorm=batchnorm),
        LayerSpec(4, activation=activation),
    ]
    return build_network(5, hidden, 2, rng)


def small_batch(seed=1, n=6):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 5)), rng.integers(0, 2, n)


ROTATION = NoiseOpSpec("rotation", 0.8, centered=True)


# ---------------------------------------------------------------------------
# spec validation


def test_layer_spec_validation():
    with pytest.raises(ValueError, match="width"):
        LayerSpec(0)
    with pytest.raises(ValueError, match="activation"):
        LayerSpec(4, activation="tanh")
    with pytest.raises(ValueError, match="placement"):
        LayerSpec(4, noise_placement="inside")


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", v) for v in (np.nan, np.inf, -0.05, 0.0)] + [("momentum", v) for v in (np.nan, 5.0, 1.0, -0.1)],
)
def test_train_config_names_a_bad_step(field, value):
    # a NaN step used to surface only as non-finite logits, after train had drawn
    rule = "must be positive and finite" if field == "learning_rate" else "must lie in [0, 1)"
    with pytest.raises(ValueError, match=re.escape(f"{field} {rule}, got {value}")):
        TrainConfig(**{field: value})
    assert TrainConfig(momentum=0.0).momentum == 0.0  # plain SGD stays allowed


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(batch_size=1)


@pytest.mark.parametrize("epochs", [0, -1])
def test_train_config_needs_an_epoch(epochs):
    with pytest.raises(ValueError, match="epochs must be at least 1"):
        TrainConfig(epochs=epochs)


@pytest.mark.parametrize("field, value, least", [("n_train", 1, 2), ("n_train", -3, 2), ("n_val", 0, 1)])
def test_train_config_needs_data_to_train_and_validate_on(field, value, least):
    # one training row makes no batch of two, and no validation row makes a
    # NaN accuracy; either way train_and_report would report a gap
    with pytest.raises(ValueError, match=f"{field} must be at least {least}, got {value}"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1, -1], r"labels must lie in 0\.\.1, got -1\.\.1"),  # -1 would wrap to class 1
        ([0, 5, 1], r"labels must lie in 0\.\.1, got 0\.\.5"),
        ([0.0, 1.0, 1.0], r"labels must be integers of shape \(3,\), got float64 of shape \(3,\)"),
        ([0, 1], r"labels must be integers of shape \(3,\), got int64 of shape \(2,\)"),
        ([[0], [1], [1]], r"labels must be integers of shape \(3,\), got int64 of shape \(3, 1\)"),
    ],
    ids=["negative", "too-large", "float", "too-few", "2-D"],
)
def test_softmax_cross_entropy_names_bad_labels(labels, message):
    with pytest.raises(ValueError, match=message):
        softmax_cross_entropy(np.zeros((3, 2)), np.asarray(labels))


def test_softmax_cross_entropy_names_an_empty_batch():
    # the mean loss of no rows was NaN, with only a "Mean of empty slice" warning
    with pytest.raises(ValueError, match="softmax_cross_entropy needs at least one row"):
        softmax_cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize(
    "logits, message",
    [
        ([[0.0, np.nan], [1.0, 2.0]], "logits must be finite"),
        ([[0.0, 1.0], [-np.inf, 2.0]], "logits must be finite"),
        (np.zeros(2), r"logits must have shape \(n, k\), got \(2,\)"),
        (np.zeros((2, 2, 1)), r"logits must have shape \(n, k\), got \(2, 2, 1\)"),
    ],
    ids=["nan", "inf", "1-D", "3-D"],
)
def test_softmax_cross_entropy_names_bad_logits(logits, message):
    with pytest.raises(ValueError, match=message):
        softmax_cross_entropy(np.asarray(logits), np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(separation=np.nan), "separation must be finite"),
        (dict(separation=np.inf), "separation must be finite"),
        (dict(label_noise=2.0), r"label_noise must lie in \[0, 1\], got 2\.0"),
        (dict(label_noise=-0.1), r"label_noise must lie in \[0, 1\], got -0\.1"),
        (dict(label_noise=np.nan), r"label_noise must lie in \[0, 1\], got nan"),
    ],
    ids=["nan-separation", "inf-separation", "noise-above-1", "negative-noise", "nan-noise"],
)
def test_gaussian_mixture_data_names_a_bad_parameter_before_drawing(kwargs, message):
    rng = np.random.default_rng(23)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        gaussian_mixture_data(20, rng, **kwargs)
    assert rng.bit_generator.state == before


def test_train_and_report_needs_a_seed():
    with pytest.raises(ValueError, match="at least one seed"):
        train_and_report([("baseline", None)], TrainConfig(epochs=1), hidden_widths=(4,), seeds=())


@pytest.mark.parametrize("gap_window", [0, -2])
def test_train_and_report_needs_a_gap_window(gap_window):
    # a window of fewer than one epoch has no gap to average; the window is
    # part of TrainConfig, which refuses it before train_and_report can run
    with pytest.raises(ValueError, match=f"gap_window must be at least 1, got {gap_window}"):
        train_and_report(
            [("baseline", None)], TrainConfig(epochs=1, gap_window=gap_window), hidden_widths=(4,)
        )


# ---------------------------------------------------------------------------
# forward contracts


def test_train_equals_eval_without_noise_or_norm():
    model = small_model()
    x, _ = small_batch()
    rng = np.random.default_rng(2)
    train_logits, _ = model.forward(x, mode="train", rng=rng)
    eval_logits, _ = model.forward(x, mode="eval")
    np.testing.assert_array_equal(train_logits, eval_logits)


def test_train_forward_is_seed_deterministic():
    model = small_model(noise=ROTATION)
    x, _ = small_batch()
    a, _ = model.forward(x, mode="train", rng=np.random.default_rng(7))
    b, _ = model.forward(x, mode="train", rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_eval_forward_is_idempotent():
    model = small_model(noise=ROTATION, batchnorm=True)
    rng = np.random.default_rng(3)
    x, _ = small_batch()
    model.forward(x, mode="train", rng=rng)  # populate running stats
    a, _ = model.forward(x, mode="eval")
    b, _ = model.forward(x, mode="eval")
    np.testing.assert_array_equal(a, b)


def test_width_mismatch_rejected():
    model = small_model()
    with pytest.raises(ValueError, match="shape"):
        model.forward(np.ones((4, 7)), mode="eval")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_names_non_finite_input(bad):
    model = small_model(noise=ROTATION)
    x, _ = small_batch()
    x[3, 2] = bad
    for mode in ("train", "eval"):
        with pytest.raises(ValueError, match="x must be finite"):
            model.forward(x, mode=mode, rng=np.random.default_rng(8))


def reference_eval(model, x):
    """The eval pass written out of place, one fresh array per operation."""
    h = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        if isinstance(layer, _Dense):
            h = h @ layer.w.T + layer.b
        elif isinstance(layer, _BatchNorm):
            st = layer.state
            xhat = (h - st.running_mean) / np.sqrt(st.running_var + st.eps)
            h = st.gamma * xhat + st.beta
        elif isinstance(layer, _Relu):
            h = np.maximum(h, 0.0)
        else:
            assert isinstance(layer, _Noise)
    return h


EVAL_STACKS = [
    dict(noise=ROTATION),  # the noise op is the first layer and sees x
    dict(noise=ROTATION, placement="after-weight", batchnorm=True),
    dict(noise=ROTATION, activation="none", batchnorm=True),
]
EVAL_IDS = ["rotation-first", "after-weight-bn", "linear-bn"]


def assert_eval_matches_reference(kwargs):
    model = small_model(**kwargs)
    rng = np.random.default_rng(15)
    for _ in range(3):  # move the running statistics off their initial values
        model.forward(rng.standard_normal((6, 5)), mode="train", rng=rng)
    x = rng.standard_normal((6, 5))
    x_before = x.copy()
    expected = reference_eval(model, x)
    logits, cache = model.forward(x, mode="eval")
    np.testing.assert_array_equal(logits, expected)
    np.testing.assert_array_equal(x, x_before)
    for layer_cache in cache.layer_caches:
        assert not any(isinstance(v, np.ndarray) for v in layer_cache.values())


@pytest.mark.parametrize("kwargs", EVAL_STACKS, ids=EVAL_IDS)
def test_eval_matches_reference_and_leaves_input_alone(kwargs):
    assert_eval_matches_reference(kwargs)


@pytest.mark.parametrize("kwargs", EVAL_STACKS, ids=EVAL_IDS)
def test_eval_matches_reference_over_several_eval_blocks(kwargs, monkeypatch):
    # with a 2-row floor the 6 rows run as 3 blocks of 2
    monkeypatch.setattr(network, "_EVAL_ROWS", 2)
    assert_eval_matches_reference(kwargs)


def test_network_eval_batchnorm_equals_bn_test_forward():
    model = small_model(batchnorm=True)
    rng = np.random.default_rng(17)
    for _ in range(3):
        model.forward(rng.standard_normal((6, 5)), mode="train", rng=rng)
    bn = next(layer for layer in model.layers if isinstance(layer, _BatchNorm))
    h = rng.standard_normal((6, bn.state.gamma.size))
    expected = bn_test_forward(h, bn.state)
    out, _ = network._eval_block([network._lower(bn, None)], h.copy(), None)
    np.testing.assert_array_equal(out, expected)


def test_batchnorm_eval_before_training_rejected():
    model = small_model(batchnorm=True)
    x, _ = small_batch()
    for argmax in (False, True):
        with pytest.raises(ValueError, match="unpopulated"):
            model.forward(x, mode="eval", argmax=argmax)


def test_train_cache_carries_kink_margins():
    # criterion 09 skips its kink guard when no margins are found, so a
    # train cache without them would let that guard pass vacuously
    model = small_model()
    x, _ = small_batch()
    _, cache = model.forward(x, mode="train", rng=np.random.default_rng(16))
    margins = kink_margins(model, cache)
    assert len(margins) == 2  # one per relu layer
    assert all(isinstance(m, float) and m >= 0.0 for m in margins)


def test_noisy_train_forward_averages_to_eval_for_linear_model():
    # identity activations keep the map linear in the noised features, so
    # averaging over fresh realizations recovers the eval logits
    model = small_model(noise=ROTATION, activation="none")
    x, _ = small_batch(n=4)
    rng = np.random.default_rng(4)
    reps = 3000
    acc = np.zeros((reps, 4, 2))
    for r in range(reps):
        logits, _ = model.forward(x, mode="train", rng=rng)
        acc[r] = logits
    eval_logits, _ = model.forward(x, mode="eval")
    mean, stderr = _estimate(acc, axis=0)
    assert_within_stderr(mean, eval_logits, stderr, 4)


# ---------------------------------------------------------------------------
# gradient checks


def test_zero_loss_gradient_gives_zero_parameter_gradients():
    model = small_model(noise=ROTATION)
    x, _ = small_batch()
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(5))
    grads = model.backward(cache, np.zeros_like(logits))
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_stale_cache_rejected():
    model = small_model()
    x, y = small_batch()
    _, cache = model.forward(x, mode="train", rng=np.random.default_rng(6))
    model.forward(x, mode="eval")
    with pytest.raises(ValueError, match="stale"):
        model.backward(cache, np.zeros((6, 2)))


def test_eval_cache_rejected_for_backward():
    model = small_model()
    x, _ = small_batch()
    _, cache = model.forward(x, mode="eval")
    with pytest.raises(ValueError, match="train"):
        model.backward(cache, np.zeros((6, 2)))


def test_replay_reuses_each_layer_cache_and_needs_a_train_cache():
    model = small_model(noise=ROTATION, placement="after-weight", batchnorm=True)
    x, _ = small_batch()
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(6))
    bn = next(layer for layer in model.layers if isinstance(layer, _BatchNorm))
    running = (bn.state.running_mean.copy(), bn.state.running_var.copy(), bn.state.n_batches)
    replayed, _ = model.forward(x, mode="train", reuse=cache)
    np.testing.assert_array_equal(replayed, logits)
    np.testing.assert_array_equal(bn.state.running_mean, running[0])
    np.testing.assert_array_equal(bn.state.running_var, running[1])
    assert bn.state.n_batches == running[2]
    _, eval_cache = model.forward(x, mode="eval")
    with pytest.raises(ValueError, match="train-mode cache"):
        model.forward(x, mode="train", reuse=eval_cache)


@pytest.mark.parametrize("placement", ["before-weight", "after-weight"])
def test_gradients_match_finite_differences_with_rotation(placement):
    model = small_model(noise=ROTATION, placement=placement)
    x, y = small_batch()
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(8))
    _, dlogits = softmax_cross_entropy(logits, y)
    analytic = model.backward(cache, dlogits)
    numeric = finite_difference_grads(model, x, y, cache)
    assert_grads_close(analytic, numeric, 1e-6)


@pytest.mark.parametrize(
    "spec",
    [
        NoiseOpSpec("bernoulli-dropout", 0.7),
        NoiseOpSpec("gaussian-dropout", 0.3),
        NoiseOpSpec("uout", 0.8),
        NoiseOpSpec("uout", 0.8, centered=True),
    ],
)
def test_gradients_match_finite_differences_other_noise(spec):
    model = small_model(noise=spec)
    x, y = small_batch(seed=9)
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(10))
    _, dlogits = softmax_cross_entropy(logits, y)
    analytic = model.backward(cache, dlogits)
    numeric = finite_difference_grads(model, x, y, cache)
    assert_grads_close(analytic, numeric, 1e-6)


def test_gradients_match_finite_differences_through_batchnorm():
    model = small_model(noise=ROTATION, batchnorm=True)
    x, y = small_batch(seed=11)
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(12))
    _, dlogits = softmax_cross_entropy(logits, y)
    analytic = model.backward(cache, dlogits)
    numeric = finite_difference_grads(model, x, y, cache)
    assert_grads_close(analytic, numeric, 1e-5)


def test_gradients_identity_activation_network():
    model = small_model(noise=ROTATION, activation="none")
    x, y = small_batch(seed=13)
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(14))
    _, dlogits = softmax_cross_entropy(logits, y)
    analytic = model.backward(cache, dlogits)
    numeric = finite_difference_grads(model, x, y, cache)
    assert_grads_close(analytic, numeric, 1e-6)


# ---------------------------------------------------------------------------
# training loop


def test_training_is_seed_deterministic():
    config = TrainConfig(epochs=3, n_train=40, n_val=50, batch_size=8)
    results = []
    for _ in range(2):
        data_rng = np.random.default_rng(0)
        x_tr, y_tr = gaussian_mixture_data(40, data_rng, label_noise=0.1)
        x_va, y_va = gaussian_mixture_data(50, data_rng)
        model = build_network(10, [LayerSpec(16, noise=ROTATION)], 2, np.random.default_rng(1))
        history = train(model, x_tr, y_tr, config, np.random.default_rng(2), x_va, y_va)
        results.append((history, {k: v.copy() for k, v in model.params().items()}))
    assert results[0][0] == results[1][0]
    for name in results[0][1]:
        np.testing.assert_array_equal(results[0][1][name], results[1][1][name])


def test_unregularized_overparameterized_net_overfits():
    config = TrainConfig(epochs=60, n_train=80, n_val=1000, batch_size=16)
    data_rng = np.random.default_rng(3)
    x_tr, y_tr = gaussian_mixture_data(80, data_rng, label_noise=0.1)
    x_va, y_va = gaussian_mixture_data(1000, data_rng)
    model = build_network(10, [LayerSpec(128), LayerSpec(128)], 2, np.random.default_rng(4))
    history = train(model, x_tr, y_tr, config, np.random.default_rng(5), x_va, y_va)
    _, train_acc, val_acc = history[-1]
    assert train_acc > 0.95
    assert train_acc - val_acc > 0.03


def test_vanishing_noise_strength_behaves_like_baseline():
    # keep rate 1 makes the rotation op the identity; the only difference
    # from the baseline is generator consumption, so results agree up to
    # seed-level noise
    config = TrainConfig(epochs=25, n_train=80, n_val=1000, batch_size=16)
    _, summary = train_and_report(
        [("baseline", None), ("identity-rotation", NoiseOpSpec("rotation", 1.0, centered=True))],
        config,
        hidden_widths=(32,),
        seeds=(0, 1, 2),
    )
    base = summary["baseline"]["gap_mean"]
    ident = summary["identity-rotation"]["gap_mean"]
    assert abs(base - ident) < 0.05


def test_train_and_report_emits_rows_and_summary():
    config = TrainConfig(epochs=2, n_train=30, n_val=60, batch_size=8)
    rows, summary = train_and_report(
        [("baseline", None), ("rotation", ROTATION)],
        config,
        hidden_widths=(8,),
        seeds=(0, 1),
        record_every=1,
    )
    assert len(rows) == 2 * 2 * 2  # regularizers x seeds x epochs
    assert set(summary) == {"baseline", "rotation"}
    for stats in summary.values():
        assert len(stats["gaps"]) == 2


@pytest.mark.parametrize("record_every, epochs, recorded", [(0, 7, [5, 6, 7]), (4, 11, [4, 8, 9, 10, 11])])
def test_train_records_every_kth_epoch_and_the_gap_window(record_every, epochs, recorded):
    model, data = overfit_setup("rotation")
    config = TrainConfig(epochs=epochs, gap_window=3, batch_size=8)
    history = train(model, *data[:2], config, np.random.default_rng(3), *data[2:], record_every=record_every)
    assert [row[0] for row in history] == recorded


@pytest.mark.parametrize("gap_window", [1, 3])
def test_gap_averages_the_last_epochs_of_an_every_epoch_run(gap_window):
    # the eval draws no random number and writes no parameter, so a run that
    # evaluates only the window reaches the same accuracies as one that
    # evaluates every epoch
    regularizers = [("baseline", None), ("rotation", ROTATION)]
    config = TrainConfig(epochs=6, n_train=30, n_val=60, batch_size=8)
    kwargs = dict(hidden_widths=(8,), seeds=(0, 1))
    rows, _ = train_and_report(regularizers, config, record_every=1, **kwargs)
    windowed = replace(config, gap_window=gap_window)
    _, summary = train_and_report(regularizers, windowed, record_every=0, **kwargs)
    for label, _ in regularizers:
        expected = [
            float(np.mean([tr - va for lab, _, s, epoch, tr, va in rows
                           if lab == label and s == seed and epoch > config.epochs - gap_window]))
            for seed in kwargs["seeds"]
        ]
        assert summary[label]["gaps"] == expected


# ---------------------------------------------------------------------------
# the backward pass stops at the lowest parameter layer


def full_backward(model, cache, dlogits):
    """Every layer's pullback, down to the input gradient."""
    g = np.asarray(dlogits, dtype=np.float64)
    grads = {}
    for layer, c in zip(reversed(model.layers), reversed(cache.layer_caches)):
        g, layer_grads = layer.backward(g, c)
        grads.update(layer_grads)
    return grads


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(noise=ROTATION, placement="before-weight"),
        dict(noise=ROTATION, placement="after-weight", batchnorm=True),
        dict(activation="none", batchnorm=True),
    ],
    ids=["before-weight rotation", "after-weight rotation + bn", "linear + bn"],
)
def test_backward_matches_full_pullback(kwargs):
    model = small_model(**kwargs)
    x, y = small_batch()
    logits, cache = model.forward(x, mode="train", rng=np.random.default_rng(2))
    _, dlogits = softmax_cross_entropy(logits, y)
    expected = full_backward(model, cache, dlogits)
    bottom = model.layers[0]
    if isinstance(bottom, _Noise):
        # the pullback through a noise layer under the first dense layer is dead work
        bottom.op.backprop_state = None
    grads = model.backward(cache, dlogits)
    assert grads.keys() == expected.keys()
    for name, g in expected.items():
        np.testing.assert_array_equal(grads[name], g)


# ---------------------------------------------------------------------------
# train()'s workspace


def reference_train(model, x_train, y_train, config, rng, x_val, y_val, record_every):
    """train() as it was written before the workspace: fresh arrays throughout."""
    params = model.params()
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    n = x_train.shape[0]
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue
            logits, cache = model.forward(x_train[idx], mode="train", rng=rng)
            _, dlogits = softmax_cross_entropy(logits, y_train[idx])
            grads = full_backward(model, cache, dlogits)
            for name, p in params.items():
                g = grads[name]
                v = velocity[name]
                v *= config.momentum
                v -= config.learning_rate * g
                p += v
        if epoch == config.epochs or epoch % record_every == 0:
            accuracy = [
                float((model.forward(x, mode="eval")[0].argmax(axis=1) == y).mean())
                for x, y in ((x_train, y_train), (x_val, y_val))
            ]
            history.append((epoch, *accuracy))
    return history


STACKS = {
    "baseline": LayerSpec(16),
    "rotation": LayerSpec(16, noise=ROTATION),
    "rotation-bn": LayerSpec(16, noise=ROTATION, noise_placement="after-weight", batchnorm=True),
}


def overfit_setup(stack, n_train=42, n_val=90, seed=0):
    data_rng = np.random.default_rng(seed)
    x_tr, y_tr = gaussian_mixture_data(n_train, data_rng, label_noise=0.1)
    x_va, y_va = gaussian_mixture_data(n_val, data_rng)
    layer = STACKS[stack]
    model = build_network(10, [layer, layer], 2, np.random.default_rng(seed + 1))
    return model, (x_tr, y_tr, x_va, y_va)


def held_buffers(model):
    return [
        (layer.name, attr)
        for layer in model.layers
        for attr in ("eval_out", "grad_w")
        if getattr(layer, attr, None) is not None
    ]


def assert_train_matches_reference(stack):
    config = TrainConfig(epochs=4, batch_size=8)
    model, data = overfit_setup(stack)
    reference, _ = overfit_setup(stack)
    history = train(model, *data[:2], config, np.random.default_rng(3), *data[2:], record_every=1)
    expected = reference_train(reference, *data[:2], config, np.random.default_rng(3), *data[2:], 1)
    assert history == expected
    for name, p in reference.params().items():
        np.testing.assert_array_equal(model.params()[name], p)
    assert held_buffers(model) == []


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_matches_reference_loop_bit_for_bit(stack):
    # 42 rows in batches of 8 leave a last batch of 2; the validation set
    # is the larger, so the train-set eval runs on a leading-row view
    assert_train_matches_reference(stack)


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_train_matches_reference_loop_over_several_eval_blocks(stack, monkeypatch):
    # with a 16-row floor the 90 validation rows run as 5 blocks of 18 and
    # the 42 train rows as 2 blocks of 21, the larger, which sizes the buffers
    monkeypatch.setattr(network, "_EVAL_ROWS", 16)
    assert_train_matches_reference(stack)


def test_train_releases_its_workspace_when_it_raises(monkeypatch):
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation-bn")
    config = TrainConfig(epochs=3, batch_size=8)

    def failing_accuracy(model, x, y):
        assert held_buffers(model) != []  # raised inside the workspace
        raise RuntimeError("eval failed")

    # the first recorded epoch's eval raises
    monkeypatch.setattr(network, "_accuracy", failing_accuracy)
    with pytest.raises(RuntimeError, match="eval failed"):
        train(model, x_tr, y_tr, config, np.random.default_rng(4), x_va, y_va, record_every=1)
    assert held_buffers(model) == []


@pytest.mark.parametrize("given, missing", [("x_val", "y_val"), ("y_val", "x_val")])
def test_train_needs_both_halves_of_the_validation_set(given, missing):
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation-bn")
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    val = {"x_val": x_va} if given == "x_val" else {"y_val": y_va}
    with pytest.raises(ValueError, match=f"{missing} is missing"):
        train(model, x_tr, y_tr, TrainConfig(epochs=1, batch_size=8), rng, **val)
    assert rng.bit_generator.state == before
    assert held_buffers(model) == []


@pytest.mark.parametrize("name", ["y_train", "y_val"])
def test_train_needs_a_label_per_row(name):
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation-bn")
    labels = {"y_train": y_tr, "y_val": y_va}
    labels[name] = np.append(labels[name], 0)
    rows = len(x_tr) if name == "y_train" else len(x_va)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{name} holds {rows + 1} labels for the {rows} rows"):
        train(model, x_tr, labels["y_train"], TrainConfig(epochs=1, batch_size=8), rng, x_va, labels["y_val"])
    assert rng.bit_generator.state == before
    assert held_buffers(model) == []


def test_train_rejects_a_negative_record_every():
    # epoch % -1 == 0 would record every epoch
    model, (x_tr, y_tr, _, _) = overfit_setup("rotation-bn")
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="record_every must be at least 0, got -1"):
        train(model, x_tr, y_tr, TrainConfig(epochs=1, batch_size=8), rng, record_every=-1)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("name", ["x_train", "x_val"])
def test_train_names_non_finite_input(name):
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation-bn")
    data = {"x_train": x_tr.copy(), "x_val": x_va.copy()}
    data[name][5, 1] = np.nan
    params = {k: v.copy() for k, v in model.params().items()}
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        train(model, data["x_train"], y_tr, TrainConfig(epochs=1, batch_size=8), rng, data["x_val"], y_va)
    # nothing trained: the check runs before the first step
    assert rng.bit_generator.state == before
    for k, v in model.params().items():
        np.testing.assert_array_equal(v, params[k])


@pytest.mark.parametrize(
    "case, message",
    [
        ("y_train label 7", r"y_train labels must lie in 0\.\.1, got 0\.\.7"),
        ("y_val label 5", r"y_val labels must lie in 0\.\.1, got 0\.\.5"),
        ("float y_val", r"y_val must be a 1-D array of integer labels, got float64 of shape \(90,\)"),
        ("empty x_val", r"x_val must hold at least 1 rows, got 0"),
        ("1-row x_train", r"x_train must hold at least 2 rows, got 1"),
        ("narrow x_train", r"x_train must have shape \(n, 10\), got \(42, 7\)"),
        ("narrow x_val", r"x_val must have shape \(n, 10\), got \(90, 7\)"),
        ("1-D x_val", r"x_val must have shape \(n, 10\), got \(90,\)"),
    ],
)
def test_train_checks_its_data_before_the_first_step(case, message):
    # each case once trained on (a label past the output width raised after
    # some steps) or was scored without an error (a miss, or a NaN accuracy)
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation-bn")
    data = {"x_train": x_tr, "y_train": y_tr.copy(), "x_val": x_va, "y_val": y_va.copy()}
    if case == "y_train label 7":
        data["y_train"][-1] = 7
    elif case == "y_val label 5":
        data["y_val"][-1] = 5
    elif case == "float y_val":
        data["y_val"] = y_va.astype(np.float64)
    elif case == "empty x_val":
        data["x_val"], data["y_val"] = x_va[:0], y_va[:0]
    elif case == "narrow x_train":
        data["x_train"] = x_tr[:, :7]
    elif case == "narrow x_val":  # once raised only at the first eval, after an epoch of steps
        data["x_val"] = x_va[:, :7]
    elif case == "1-D x_val":
        data["x_val"] = x_va[:, 0]
    else:
        data["x_train"], data["y_train"] = x_tr[:1], y_tr[:1]
    params = {k: v.copy() for k, v in model.params().items()}
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        train(model, data["x_train"], data["y_train"], TrainConfig(epochs=1, batch_size=8), rng,
              data["x_val"], data["y_val"])
    assert rng.bit_generator.state == before
    for k, v in model.params().items():
        np.testing.assert_array_equal(v, params[k])
    assert held_buffers(model) == []


def test_train_takes_lists_as_it_takes_arrays():
    # list data once passed the checks and failed at the first batch's indexing
    config = TrainConfig(epochs=2, batch_size=8)
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation-bn")
    reference, _ = overfit_setup("rotation-bn")
    expected = train(reference, x_tr, y_tr, config, np.random.default_rng(4), x_va, y_va)
    history = train(model, x_tr.tolist(), list(y_tr), config, np.random.default_rng(4), x_va.tolist(), list(y_va))
    assert history == expected


def test_eval_results_never_alias_the_workspace():
    model, (x_tr, y_tr, x_va, _) = overfit_setup("rotation-bn")
    train(model, x_tr, y_tr, TrainConfig(epochs=1, batch_size=8), np.random.default_rng(5))
    with _workspace(model, len(x_va)):
        buffers = [getattr(layer, attr) for layer in model.layers for attr in ("eval_out", "grad_w")
                   if getattr(layer, attr, None) is not None]
        first, _ = model.forward(x_va, mode="eval")
        second, _ = model.forward(x_tr, mode="eval")
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(out, buf) for out in (first, second) for buf in buffers)
    assert len(buffers) == 2 * 3 - 1  # three dense layers; the output layer has no eval buffer


def test_an_epoch_allocates_no_eval_sized_array(monkeypatch):
    n_val, width = 2000, 16
    model, (x_tr, y_tr, x_va, y_va) = overfit_setup("rotation", n_val=n_val)
    marks = []
    accuracy = network._accuracy

    def traced_accuracy(model, x, y):
        result = accuracy(model, x, y)
        if x is x_va:  # the epoch's last call
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(network, "_accuracy", traced_accuracy)
    tracemalloc.start()
    try:
        train(model, x_tr, y_tr, TrainConfig(epochs=4, batch_size=8), np.random.default_rng(6),
              x_va, y_va, record_every=1)
    finally:
        tracemalloc.stop()
    assert len(marks) == 4
    growth = [peak - previous for (previous, _), (_, peak) in zip(marks, marks[1:])]
    assert max(growth) < n_val * width * 8, growth


# ---------------------------------------------------------------------------
# the eval pass in row blocks


def trained_model(stack="rotation-bn", seed=0):
    """A stack whose batch norm has running statistics to evaluate with."""
    model, (x_tr, y_tr, _, _) = overfit_setup(stack, seed=seed)
    train(model, x_tr, y_tr, TrainConfig(epochs=1, batch_size=8), np.random.default_rng(seed + 7))
    return model


def test_blocked_eval_is_its_blocks_concatenated(monkeypatch):
    monkeypatch.setattr(network, "_EVAL_ROWS", 8)
    model = trained_model()
    x = np.random.default_rng(20).standard_normal((45, 10))
    bounds = range(0, 46, 9)  # 45 // 8 = 5 blocks of 9 rows, each one block on its own
    logits, _ = model.forward(x, mode="eval")
    blocks = [model.forward(x[lo:hi], mode="eval")[0] for lo, hi in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(logits, np.concatenate(blocks))
    np.testing.assert_allclose(logits, reference_eval(model, x), rtol=1e-12)


def test_no_eval_block_is_shorter_than_the_floor(monkeypatch):
    floor = 8
    monkeypatch.setattr(network, "_EVAL_ROWS", floor)
    model = trained_model("baseline")
    seen = []
    eval_block = network._eval_block

    def recording_eval_block(plan, x, p):
        seen.append(x.shape[0])
        return eval_block(plan, x, p)

    monkeypatch.setattr(network, "_eval_block", recording_eval_block)
    x = np.random.default_rng(21).standard_normal((100, 10))
    for n in range(1, 101):
        seen.clear()
        model.forward(x[:n], mode="eval")
        assert sum(seen) == n
        assert len(seen) == max(1, n // floor)
        assert min(seen) >= min(n, floor)
        assert max(seen) - min(seen) <= 1


def test_workspace_buffers_hold_the_largest_eval_block():
    model, _ = overfit_setup("baseline")
    for sizes, rows in (((200, 4000), 1334), ((2047, 4000), 2047), ((200,), 200)):
        with _workspace(model, *sizes):
            assert {layer.eval_out.shape[0] for layer in model.layers[:-1]
                    if isinstance(layer, _Dense)} == {rows}


def test_eval_peak_memory_does_not_grow_with_the_rows(monkeypatch):
    floor, n, classes = 64, 256, 2
    monkeypatch.setattr(network, "_EVAL_ROWS", floor)
    model = trained_model()
    width = max(layer.w.shape[0] for layer in model.layers if isinstance(layer, _Dense))
    x = np.random.default_rng(22).standard_normal((4 * n, 10))
    peaks = []
    tracemalloc.start()
    try:
        model.forward(x[:n], mode="eval")  # warm-up: first-call allocations
        for rows in (n, 4 * n):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.forward(x[:rows], mode="eval")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    # both inputs run in blocks of 64 rows; only the logits grow
    extra_logits = 3 * n * classes * 8
    one_block = floor * width * 8
    assert peaks[1] - peaks[0] <= extra_logits + one_block, peaks


# ---------------------------------------------------------------------------
# the certified float32 argmax


def float32_logits(model, x):
    """The float32 pass's logits of x and each row's bound on every logit's error."""
    plan = [network._lower(layer, network._F32) for layer in model.layers]
    return network._eval_block(plan, x, network._F32)


BOUND_STACKS = {
    "baseline": dict(),
    "rotation-before-weight": dict(noise=ROTATION),
    "rotation-after-weight-bn": dict(noise=ROTATION, noise_placement="after-weight", batchnorm=True),
    "dropout": dict(noise=NoiseOpSpec("bernoulli-dropout", 0.7)),
    "linear": dict(activation="none"),
}


def bound_model(stack, width, classes, epochs, seed=0):
    """Two hidden layers on 5 inputs, the first noised, trained for ``epochs`` epochs on 40 rows."""
    rng = np.random.default_rng(seed)
    spec = BOUND_STACKS[stack]
    plain = LayerSpec(width, activation=spec.get("activation", "relu"), batchnorm=spec.get("batchnorm", False))
    model = build_network(5, [LayerSpec(width, **spec), plain], classes, rng)
    x = rng.standard_normal((40, 5))
    model.forward(x[:8], mode="train", rng=rng)  # running statistics for batch norm
    if epochs:
        train(model, x, rng.integers(0, classes, 40), TrainConfig(epochs=epochs, batch_size=8), rng)
    return model


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("stack", sorted(BOUND_STACKS))
def test_float32_logits_lie_within_their_bound(stack, classes):
    x = np.random.default_rng(30).standard_normal((300, 5)) * 3
    # a rotation after the weight layer needs a width of at least 2
    for width in (1, 2, 7, 16, 64) if stack != "rotation-after-weight-bn" else (2, 7, 16, 64):
        for epochs in range(4):
            model = bound_model(stack, width, classes, epochs)
            z, bound = float32_logits(model, x)
            exact = model.forward(x, mode="eval")[0]
            assert z.dtype == np.float32 and bound.shape == (len(x),)
            assert np.all(np.abs(z - exact) <= bound[:, None]), (width, epochs)


def scaled(model, factor, layers=None):
    """``model`` with the weights and biases of the given dense layers (default all) times ``factor``."""
    dense = [layer for layer in model.layers if isinstance(layer, _Dense)]
    for layer in dense if layers is None else [dense[k] for k in layers]:
        layer.w *= factor
        layer.b *= factor
    return model


@pytest.mark.parametrize("widths", [(), (16, 16)], ids=["no-hidden-layer", "two-hidden-layers"])
def test_float32_bound_holds_in_the_subnormal_range(widths):
    # an untrained stack has zero biases, so the logits scale with the first
    # layer; with no hidden layer, normal inputs meet subnormal weights
    hidden = [LayerSpec(w) for w in widths]
    model = scaled(build_network(5, hidden, 2, np.random.default_rng(31)), 1e-40, [0])
    x = np.random.default_rng(32).standard_normal((300, 5))
    z, bound = float32_logits(model, x)
    exact = model.forward(x, mode="eval")[0]
    assert np.abs(exact).max() < np.finfo(np.float32).tiny  # every logit is subnormal in float32
    assert np.all(np.abs(z - exact) <= bound[:, None])


def test_a_layer_output_that_could_overflow_has_no_finite_bound():
    bound = network._Bound(gain=1e38, offset=0.0, fan_in=4, rounding=7, width=3)
    E = bound.apply(np.zeros(3), np.array([1.0, 4.0, np.inf]), network._F32)
    assert np.isfinite(E[0]) and np.all(E[1:] == np.inf)
    # a parameter past float32's range leaves no row a finite bound
    too_large = bound._replace(gain=1e39).apply(np.zeros(2), np.zeros(2), network._F32)
    assert np.all(too_large == np.inf)


def certified_rungs(monkeypatch):
    """Count the rows each precision evaluates and the blocks that fall back whole."""
    seen = {"float32": 0, "float64": 0, "whole block": 0}
    eval_block, block_argmax = network._eval_block, network._block_argmax
    in_ladder = []

    def spy_eval_block(plan, x, p):
        if p is not None:
            seen["float32" if p is network._F32 else "float64"] += len(x)
        elif in_ladder:  # a bound-free float64 block inside the ladder is its whole-block fallback
            seen["whole block"] += 1
        return eval_block(plan, x, p)

    def spy_block_argmax(*args):
        in_ladder.append(True)
        try:
            return block_argmax(*args)
        finally:
            in_ladder.pop()

    monkeypatch.setattr(network, "_eval_block", spy_eval_block)
    monkeypatch.setattr(network, "_block_argmax", spy_block_argmax)
    return seen


def assert_argmax_exact(model, x):
    x_before = x.copy()
    predicted, _ = model.forward(x, mode="eval", argmax=True)
    np.testing.assert_array_equal(x, x_before)
    expected = model.forward(x, mode="eval")[0].argmax(axis=1)
    assert predicted.dtype == expected.dtype
    np.testing.assert_array_equal(predicted, expected)
    return predicted


def near_boundary(model, x, gap=1e-6):
    """Rows whose float64 logits of the two classes differ by less than ``gap``, by bisection."""
    logits = model.forward(x, mode="eval")[0]
    first, second = np.flatnonzero(logits[:, 0] > logits[:, 1]), np.flatnonzero(logits[:, 0] <= logits[:, 1])
    rows = []
    for k in range(max(len(first), len(second))):
        i, j = first[k % len(first)], second[k % len(second)]
        lo, hi = x[i], x[j]
        for _ in range(200):
            mid = (lo + hi) / 2
            d = np.diff(model.forward(mid[None], mode="eval")[0][0])[0]
            if abs(d) < gap:
                rows.append(mid)
                break
            lo, hi = (lo, mid) if d > 0 else (mid, hi)
    return np.array(rows)


def test_certified_argmax_certifies_rows_far_from_the_boundary(monkeypatch):
    model = trained_model()
    x = np.random.default_rng(33).standard_normal((400, 10))
    logits = model.forward(x, mode="eval")[0]
    x = x[np.abs(logits[:, 0] - logits[:, 1]) > 1e-3]
    seen = certified_rungs(monkeypatch)
    assert_argmax_exact(model, x)
    assert seen == {"float32": len(x), "float64": 0, "whole block": 0}


def test_certified_argmax_recomputes_rows_at_the_boundary_in_float64(monkeypatch):
    model = trained_model()
    x = np.random.default_rng(34).standard_normal((60, 10))
    near = near_boundary(model, x)
    assert len(near) >= 10
    gaps = np.abs(np.diff(model.forward(near, mode="eval")[0], axis=1))
    assert np.all((gaps > 1e-12) & (gaps < 1e-6))
    seen = certified_rungs(monkeypatch)
    assert_argmax_exact(model, np.concatenate([x, near]))
    assert seen["float64"] >= len(near) and seen["whole block"] == 0


def test_certified_argmax_falls_back_whole_on_exact_ties(monkeypatch):
    model = trained_model()
    out = model.layers[-1]
    out.w[1], out.b[1] = out.w[0], out.b[0]
    seen = certified_rungs(monkeypatch)
    predicted = assert_argmax_exact(model, np.random.default_rng(35).standard_normal((50, 10)))
    assert np.all(predicted == 0)
    assert seen["whole block"] == 1


@pytest.mark.parametrize("factor, layers", [(1e20, None), (1e-40, [0])], ids=["past-float32-max", "subnormal"])
def test_certified_argmax_is_exact_at_the_edges_of_float32(factor, layers, monkeypatch):
    model = scaled(build_network(10, [LayerSpec(16), LayerSpec(16)], 2, np.random.default_rng(36)), factor, layers)
    seen = certified_rungs(monkeypatch)
    assert_argmax_exact(model, np.random.default_rng(37).standard_normal((200, 10)))
    assert seen["float64"] > 0


def test_certified_argmax_is_exact_over_several_eval_blocks(monkeypatch):
    monkeypatch.setattr(network, "_EVAL_ROWS", 16)
    model = trained_model()
    x = np.random.default_rng(38).standard_normal((80, 10))
    x = np.concatenate([x, near_boundary(model, x[:20])])
    seen = certified_rungs(monkeypatch)
    assert_argmax_exact(model, x)
    assert seen["float32"] == len(x) and seen["float64"] > 0 and seen["whole block"] == 0


def tied_model(seed=42):
    """Three classes on 10 inputs, classes 0 and 1 with one output row: every row they top is an exact tie."""
    model = build_network(10, [LayerSpec(16), LayerSpec(16)], 3, np.random.default_rng(seed))
    out = model.layers[-1]
    out.w[1], out.b[1] = out.w[0], out.b[0]
    return model


def test_certified_argmax_falls_back_block_by_block(monkeypatch):
    monkeypatch.setattr(network, "_EVAL_ROWS", 16)
    model = tied_model()
    x = np.random.default_rng(41).standard_normal((400, 10))
    logits = model.forward(x, mode="eval")[0]
    clear, tied = x[logits[:, 2] - logits[:, 0] > 1e-3], x[logits[:, 0] - logits[:, 2] > 1e-3]
    # 64 rows run as 4 blocks of 16; the second and fourth hold only ties
    x = np.concatenate([clear[:16], tied[:16], clear[16:32], tied[16:32]])
    seen = certified_rungs(monkeypatch)
    predicted = assert_argmax_exact(model, x)
    np.testing.assert_array_equal(predicted, np.repeat([2, 0, 2, 0], 16))
    assert seen == {"float32": 64, "float64": 32, "whole block": 2}


def test_certified_argmax_lowers_each_layer_at_most_twice(monkeypatch):
    monkeypatch.setattr(network, "_EVAL_ROWS", 16)
    model = tied_model()
    lowered = {}
    lower = network._lower

    def counting_lower(layer, p):
        lowered[id(layer)] = lowered.get(id(layer), 0) + 1
        return lower(layer, p)

    monkeypatch.setattr(network, "_lower", counting_lower)
    seen = certified_rungs(monkeypatch)
    x = np.random.default_rng(42).standard_normal((80, 10))
    predicted, _ = model.forward(x, mode="eval", argmax=True)
    # each of the 5 blocks redid rows, and the forward lowered every layer once per precision
    assert seen["float64"] > 0 and seen["whole block"] == 5
    assert sorted(lowered) == sorted(map(id, model.layers)) and max(lowered.values()) <= 2
    np.testing.assert_array_equal(predicted, model.forward(x, mode="eval")[0].argmax(axis=1))


def test_argmax_needs_eval_mode():
    model = small_model()
    x, _ = small_batch()
    with pytest.raises(ValueError, match="argmax needs eval mode"):
        model.forward(x, mode="train", rng=np.random.default_rng(39), argmax=True)
