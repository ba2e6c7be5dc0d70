"""Small fully-connected network with manual backpropagation.

The point of this trainer is exactness, not speed: every layer implements
its own backward pass, including the noise operators (replaying the
realization drawn in the forward pass) and train-mode batch normalization
(differentiating through the batch statistics), so analytic gradients can
be checked against finite differences to tight tolerances.

The eval pass keeps no caches and does only the arithmetic the logits
need: ReLU and batch normalization write their results into the arrays
they receive, which are always arrays the network allocated itself, never
the caller's input.

``train`` holds a workspace for the length of one call and releases it in
a ``finally``: every hidden dense layer writes its eval output into one
buffer sized for the larger of the train and validation sets, and every
dense layer writes its weight gradient into one buffer.  The output layer
still allocates its small logits, so ``forward`` never returns workspace
memory.  The buffers exist because of page faults, not arithmetic.  A
fresh 4000 x 256 activation is large enough for numpy to ask for huge
pages, and glibc hands it back to the kernel when it is freed, so every
epoch's eval faulted its activations in again and the train steps then
re-faulted their own working set: about 680k minor faults per round of
the benchmark's ``overfit`` workload, against about 5k with the buffers.
Outside ``train`` no layer holds a buffer.  The matrix products are the
same calls with ``out=``, so every result keeps its bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .batchnorm import BatchNormState, _eval_normalize, _train_normalize
from .noise_ops import NoiseOpSpec, make_noise_op

__all__ = [
    "LayerSpec",
    "TrainConfig",
    "Network",
    "build_network",
    "softmax_cross_entropy",
    "gaussian_mixture_data",
    "train",
    "train_and_report",
]


@dataclass(frozen=True)
class LayerSpec:
    """One hidden block: optional noise, linear map, optional norm, activation.

    ``noise_placement`` selects where the noise op sits relative to the
    weight layer: "before-weight" noises the block input (the dropout-b
    arrangement when a norm layer follows), "after-weight" noises the
    pre-normalization output (dropout-a).
    """

    width: int
    activation: str = "relu"
    noise: NoiseOpSpec | None = None
    noise_placement: str = "before-weight"
    batchnorm: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be positive")
        if self.activation not in ("relu", "none"):
            raise ValueError("activation must be 'relu' or 'none'")
        if self.noise_placement not in ("before-weight", "after-weight"):
            raise ValueError("noise placement must be 'before-weight' or 'after-weight'")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    n_train: int = 200
    n_val: int = 4000
    input_dim: int = 10
    label_noise: float = 0.1
    class_separation: float = 2.0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2 for batch statistics")


# ---------------------------------------------------------------------------
# layers


class _Dense:
    def __init__(self, name, w, b):
        self.name = name
        self.w = w
        self.b = b
        # workspace buffers, set only while ``train`` runs (see _workspace)
        self.eval_out = None
        self.grad_w = None

    def params(self):
        return {f"{self.name}.w": self.w, f"{self.name}.b": self.b}

    def forward(self, x, mode, rng, update_stats, reuse):
        out = None
        if mode == "eval" and self.eval_out is not None:
            out = self.eval_out[: x.shape[0]]
        h = np.matmul(x, self.w.T, out=out)
        h += self.b
        return h, ({"x": x} if mode == "train" else {})

    def param_grads(self, g, cache):
        gw = np.matmul(g.T, cache["x"], out=self.grad_w)
        return {f"{self.name}.w": gw, f"{self.name}.b": g.sum(axis=0)}

    def backward(self, g, cache):
        return g @ self.w, self.param_grads(g, cache)


class _Relu:
    def __init__(self, name):
        self.name = name

    def params(self):
        return {}

    def forward(self, x, mode, rng, update_stats, reuse):
        if mode == "eval":
            return np.maximum(x, 0.0, out=x), {}
        # the kink margin lets gradient checks confirm no preactivation sits
        # within a finite-difference step of the nondifferentiable point
        return np.maximum(x, 0.0), {"mask": x > 0.0, "kink_margin": float(np.abs(x).min())}

    def backward(self, g, cache):
        return g * cache["mask"], {}


class _BatchNorm:
    def __init__(self, name, width):
        self.name = name
        self.state = BatchNormState.initial(width)

    def params(self):
        return {f"{self.name}.gamma": self.state.gamma, f"{self.name}.beta": self.state.beta}

    def forward(self, x, mode, rng, update_stats, reuse):
        if mode == "eval":
            return _eval_normalize(x, self.state, out=x), {}
        out, xhat, inv_std = _train_normalize(x, self.state, update_stats)
        return out, {"xhat": xhat, "inv_std": inv_std}

    def param_grads(self, g, cache):
        return {
            f"{self.name}.gamma": (g * cache["xhat"]).sum(axis=0),
            f"{self.name}.beta": g.sum(axis=0),
        }

    def backward(self, g, cache):
        xhat, inv_std = cache["xhat"], cache["inv_std"]
        gx = self.state.gamma * g
        dx = inv_std * (gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0))
        return dx, self.param_grads(g, cache)


class _Noise:
    def __init__(self, name, spec: NoiseOpSpec):
        self.name = name
        self.op = make_noise_op(spec)

    def params(self):
        return {}

    def forward(self, x, mode, rng, update_stats, reuse):
        if mode == "eval":
            return x, {}
        state = reuse if reuse is not None else self.op.sample_state(x, rng)
        return self.op.apply_state(x, state), {"state": state}

    def backward(self, g, cache):
        if not cache:
            return g, {}
        return self.op.backprop_state(g, cache["state"]), {}


# ---------------------------------------------------------------------------
# network


@dataclass
class _Cache:
    token: int
    mode: str
    layer_caches: list = field(default_factory=list)

    def noise_states(self):
        return [c.get("state") if c else None for c in self.layer_caches]


class Network:
    """Sequential stack with explicit forward caches for exact backward."""

    def __init__(self, layers, input_dim):
        self.layers = layers
        self.input_dim = input_dim
        self._token = 0

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self.layers:
            out.update(layer.params())
        return out

    def forward(self, x, mode="train", rng=None, reuse: _Cache | None = None):
        """Run the stack; returns (logits, cache).

        ``reuse`` replays the noise realizations of a previous train-mode
        cache, so finite-difference probes see a fixed stochastic map.
        Batch-norm running statistics update in train mode without ``reuse``.

        In eval mode ReLU and batch-norm layers overwrite their input.  That
        is safe in every stack ``build_network`` makes: their input is always
        the output of a dense or batch-norm layer, possibly passed unchanged
        through an eval-mode noise layer, so an array the network allocated.
        Only a leading noise layer sees the caller's ``x``, and it hands it
        to a dense layer, which does not write in place.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"input must have shape (n, {self.input_dim})")
        if mode not in ("train", "eval"):
            raise ValueError("mode must be 'train' or 'eval'")
        if mode == "train" and rng is None and reuse is None:
            raise ValueError("train mode needs a generator (or a cache to replay)")
        update_stats = mode == "train" and reuse is None
        replays = reuse.noise_states() if reuse is not None else [None] * len(self.layers)
        self._token += 1
        cache = _Cache(token=self._token, mode=mode)
        h = x
        for layer, replay in zip(self.layers, replays, strict=True):
            h, c = layer.forward(h, mode, rng, update_stats, replay)
            cache.layer_caches.append(c)
        return h, cache

    def backward(self, cache: _Cache, dlogits) -> dict[str, np.ndarray]:
        """Exact gradients of the realized loss for every parameter.

        The pass stops at the lowest layer with parameters: it takes that
        layer's parameter gradients only, so neither its input gradient nor
        the pullback through any noise layer below it is computed.
        """
        if cache.token != self._token:
            raise ValueError("stale cache: run forward immediately before backward")
        if cache.mode != "train":
            raise ValueError("backward needs a train-mode cache")
        g = np.asarray(dlogits, dtype=np.float64)
        grads: dict[str, np.ndarray] = {}
        bottom = min(k for k, layer in enumerate(self.layers) if layer.params())
        for k in range(len(self.layers) - 1, bottom, -1):
            g, layer_grads = self.layers[k].backward(g, cache.layer_caches[k])
            grads.update(layer_grads)
        grads.update(self.layers[bottom].param_grads(g, cache.layer_caches[bottom]))
        return grads


def build_network(input_dim: int, hidden: list[LayerSpec], n_classes: int, rng) -> Network:
    """Assemble the stack; weights use scaled-uniform fan-in initialization."""
    layers = []
    width_in = input_dim
    for k, spec in enumerate(hidden):
        tag = f"h{k}"
        noise = _Noise(f"{tag}.noise", spec.noise) if spec.noise is not None else None
        if noise is not None and spec.noise_placement == "before-weight":
            layers.append(noise)
        bound = 1.0 / np.sqrt(width_in)
        layers.append(
            _Dense(tag, rng.uniform(-bound, bound, (spec.width, width_in)), np.zeros(spec.width))
        )
        if noise is not None and spec.noise_placement == "after-weight":
            layers.append(noise)
        if spec.batchnorm:
            layers.append(_BatchNorm(f"{tag}.bn", spec.width))
        if spec.activation == "relu":
            layers.append(_Relu(f"{tag}.relu"))
        width_in = spec.width
    bound = 1.0 / np.sqrt(width_in)
    layers.append(
        _Dense("out", rng.uniform(-bound, bound, (n_classes, width_in)), np.zeros(n_classes))
    )
    return Network(layers, input_dim)


# ---------------------------------------------------------------------------
# loss, data, training loop


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    loss = -logp[np.arange(n), labels].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


def gaussian_mixture_data(
    n: int,
    rng: np.random.Generator,
    input_dim: int = 10,
    separation: float = 1.6,
    label_noise: float = 0.0,
):
    """Two-class Gaussian mixture; the first two axes carry the signal.

    ``label_noise`` flips that fraction of labels, making the sample
    memorizable but wrong, which is what lets a small benchmark overfit.
    """
    y = rng.integers(0, 2, n)
    mu = np.zeros(input_dim)
    mu[:2] = separation / 2.0
    x = rng.standard_normal((n, input_dim)) + np.where(y[:, None] == 1, mu, -mu)
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        y = np.where(flip, 1 - y, y)
    return x, y


@contextmanager
def _workspace(model: Network, rows: int):
    """Give the dense layers their train-scoped buffers; take them back on exit.

    Every dense layer below the topmost one gets an eval-output buffer of
    ``rows`` rows, so the topmost still allocates what ``forward`` returns.
    """
    dense = [layer for layer in model.layers if isinstance(layer, _Dense)]
    try:
        for layer in dense:
            layer.grad_w = np.empty_like(layer.w)
        for layer in dense[:-1]:
            layer.eval_out = np.empty((rows, layer.w.shape[0]))
        yield
    finally:
        for layer in dense:
            layer.eval_out = layer.grad_w = None


def _accuracy(model: Network, x, y) -> float:
    logits, _ = model.forward(x, mode="eval")
    return float((logits.argmax(axis=1) == y).mean())


def train(
    model: Network,
    x_train,
    y_train,
    config: TrainConfig,
    rng: np.random.Generator,
    x_val=None,
    y_val=None,
    record_every: int = 0,
):
    """SGD with momentum on softmax cross-entropy; seeded.

    The matrix products run on numpy's BLAS thread pool, so the thread
    count follows the BLAS settings (e.g. ``OPENBLAS_NUM_THREADS``).

    Weight decay is applied to dense weight matrices only.  Returns a list
    of (epoch, train_acc, val_acc) rows; by default only the final epoch is
    recorded, ``record_every`` adds intermediate rows.
    """
    params = model.params()
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    n = x_train.shape[0]
    history = []
    with _workspace(model, max(n, 0 if x_val is None else len(x_val))):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                if idx.size < 2:
                    continue
                logits, cache = model.forward(x_train[idx], mode="train", rng=rng)
                _, dlogits = softmax_cross_entropy(logits, y_train[idx])
                grads = model.backward(cache, dlogits)
                for name, p in params.items():
                    g = grads[name]
                    if config.weight_decay and name.endswith(".w"):
                        g = g + config.weight_decay * p
                    v = velocity[name]
                    v *= config.momentum
                    # g is scratch (a workspace buffer or a fresh array);
                    # g * lr rounds exactly as lr * g
                    v -= np.multiply(g, config.learning_rate, out=g)
                    p += v
            final = epoch == config.epochs
            if final or (record_every and epoch % record_every == 0):
                train_acc = _accuracy(model, x_train, y_train)
                val_acc = _accuracy(model, x_val, y_val) if x_val is not None else float("nan")
                history.append((epoch, train_acc, val_acc))
    return history


def train_and_report(
    regularizers: list[tuple[str, NoiseOpSpec | None]],
    config: TrainConfig,
    hidden_widths: tuple[int, ...] = (256, 256),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    record_every: int = 0,
    gap_window: int = 1,
):
    """Run the overfitting benchmark over a regularizer grid and paired seeds.

    Every regularizer sees the same dataset, initialization and batch order
    for a given seed, so per-seed gap comparisons are paired.  The reported
    generalization gap averages train - validation accuracy over the last
    ``gap_window`` recorded epochs, which damps the epoch-to-epoch noise of
    a single late evaluation.  Returns per-epoch rows (regularizer,
    strength, seed, epoch, train_acc, val_acc) plus a summary dict per
    regularizer with gap mean and standard deviation across seeds.
    """
    rows = []
    gaps: dict[str, list[float]] = {label: [] for label, _ in regularizers}
    for label, spec in regularizers:
        for seed in seeds:
            data_rng = np.random.default_rng((config.seed, seed, 0))
            x_tr, y_tr = gaussian_mixture_data(
                config.n_train, data_rng, config.input_dim, config.class_separation,
                label_noise=config.label_noise,
            )
            x_va, y_va = gaussian_mixture_data(
                config.n_val, data_rng, config.input_dim, config.class_separation
            )
            init_rng = np.random.default_rng((config.seed, seed, 1))
            hidden = [
                LayerSpec(width=w, activation="relu", noise=spec) for w in hidden_widths
            ]
            model = build_network(config.input_dim, hidden, 2, init_rng)
            train_rng = np.random.default_rng((config.seed, seed, 2))
            history = train(
                model, x_tr, y_tr, config, train_rng, x_va, y_va, record_every=record_every
            )
            strength = spec.strength if spec is not None else 0.0
            for epoch, tr, va in history:
                rows.append((label, strength, seed, epoch, tr, va))
            tail = history[-max(1, gap_window):]
            gaps[label].append(float(np.mean([tr - va for _, tr, va in tail])))
    summary = {
        label: {
            "gap_mean": float(np.mean(v)),
            "gap_sd": float(np.std(v, ddof=1)) if len(v) > 1 else 0.0,
            "gaps": list(map(float, v)),
        }
        for label, v in gaps.items()
    }
    return rows, summary
