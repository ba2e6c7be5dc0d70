"""Small fully-connected network with manual backpropagation.

The point of this trainer is exactness, not speed: every layer implements
its own backward pass, including the noise operators (replaying the
realization drawn in the forward pass) and train-mode batch normalization
(differentiating through the batch statistics), so analytic gradients can
be checked against finite differences to tight tolerances.

The layers implement only their train pass.  Every eval runs through one
executor, ``_eval_block``, which takes one row block through a plan of
(step, bound) entries lowered from the layers in float32 or float64
(``_lower``).  It keeps no caches and does only the arithmetic the logits
need: ReLU and batch normalization write their results into the arrays
they receive, which are always arrays the network allocated itself, never
the caller's input.  ``forward`` runs it over k = max(1, n //
``_EVAL_ROWS``) near-equal row blocks and writes each block's logits into
one (n, classes) result, so its working set is one block's activations
however many rows it evaluates; an input under 2048 rows is one block.
Each row's arithmetic is elementwise or one row of a matrix product, but
OpenBLAS picks its kernel by the product's shape: with OpenBLAS 0.3.31
the 256 -> 2 output product of a block of 600 or fewer rows rounds
differently from the same rows inside a 4000-row product, while larger
blocks agree bit for bit.  Blocks of at least ``_EVAL_ROWS`` = 1024 rows
keep the bits with a margin.

``train`` holds a workspace for the length of one call and releases it in
a ``finally``: every hidden dense layer writes its float32 eval output
into one buffer sized for the largest eval block of the train and
validation sets, and every dense layer writes its weight gradient into
one buffer.  The output layer still allocates its small logits, so
``forward`` never returns workspace memory, and the rare float64 evals
allocate, inside ``train`` as outside it.  The buffers exist because of
page faults, not arithmetic.  A fresh 4000 x 256 activation, as the
unblocked eval made, is large enough for numpy to ask for huge pages, and
glibc hands it back to the kernel when it is freed, so every epoch's eval
faulted its activations in again and the train steps then re-faulted
their own working set: about 680k minor faults per round of the
benchmark's ``overfit`` workload, against about 5k with the buffers.
Outside ``train`` no layer holds a buffer.  The matrix products are the
same calls with ``out=``, so every result keeps its bits.

``train`` reads only each row's argmax from an eval, and
``forward(x, mode="eval", argmax=True)`` returns ``logits.argmax(axis=1)``
of the float64 eval bit for bit, but takes it from a float32 pass where it
can prove that the two agree.  Each row block goes through
``_block_argmax``: the float32 pass runs the block with float32 copies of
the parameters, and folds each eval batch norm into one scale and one
shift (two passes over the block where the float64 eval makes four).

Next to each row the pass carries a bound E on the 2-norm of its
activation error, measured against exact arithmetic on the float64 input
and parameters.  It rests on the forward-error bound of a dot product,
|fl(xᵀy) − xᵀy| ≤ γ_n·|x|ᵀ|y| with γ_n = n·u / (1 − n·u) (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, §3.1).
With u = 2⁻²⁴, tiny the smallest float32 subnormal, and A an upper bound
on the norm of the layer's input row (``_row_norms``):

- rounding x to float32 starts E at (u·A + tiny·√d) / (1 − u);
- a dense layer with n inputs and m outputs maps E to
  ‖W‖_F·E + γ_{n+3}·(A·‖W‖_F + ‖b‖) + 2·tiny·√m·(n + 2 + √n·A), which
  covers the product, the rounding of W and b, the bias add and underflow;
- batch norm, y = s·x + t with s = gamma / √(var + eps), maps E to
  max|s|·E + γ_7·(A·max|s| + ‖|beta| + |s·mean|‖) plus the same
  underflow term with n = 1; γ_7 covers both the folded float32 arithmetic
  and the float64 eval's four passes;
- ReLU is 1-Lipschitz and eval-mode noise is the identity, so both leave
  E as it is;
- a row whose layer output could overflow gets E = inf, and so does every
  row when a parameter overflows.

The output layer's E bounds the error of each logit.  A row is certified
when its top-two logit gap is more than twice the sum of those two
logits' bounds, 4·E.  The exact argmax is then the float32 argmax, and
because the same propagation at u = 2⁻⁵³ bounds the float64 logits far
more tightly, whatever order BLAS sums in, the float64 argmax is the same
too.  The factor of 2 also absorbs the float64 rounding of the bound
itself.  A NaN or inf in a row's logits or bound leaves the row
uncertified.

A block's uncertified rows, a few per thousand in the benchmark's
``overfit`` workload, are recomputed by the float64 eval's own steps with
the same bounds at u = 2⁻⁵³.  These few rows run in smaller products than
the block, and those can round differently (see above).  So if a
recomputed row is still within its own float64 bound, that block goes
through the float64 plan, as the float64 eval runs it, and its argmax is
returned.  Every other block's rows are certified equal to the float64
eval's, so every training history keeps its bits.

The argmax is a keyword of ``forward`` rather than a method of its own,
and the whole ladder runs inside that one call without calling ``forward``
again.  The benchmark's tracer records one span per ``Network.forward``
call and reads the eval calls, rows and useful share from those spans; a
separate method would drop the evals from the trace.  Without the keyword,
``forward(mode="eval")`` returns the same float64 logits as before.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .batchnorm import BatchNormState, _eval_affine, _eval_normalize, _train_normalize
from .noise_ops import NoiseOpSpec, make_noise_op
from .rotation import _finite

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
    gap_window: int = 1  # the last epochs, which train evaluates and train_and_report averages
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0
    n_train: int = 200
    n_val: int = 4000
    input_dim: int = 10
    label_noise: float = 0.1
    class_separation: float = 2.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.gap_window < 1:
            raise ValueError(f"gap_window must be at least 1, got {self.gap_window}")
        # fewer than 2 training rows make no batch, so train would take no step
        if self.n_train < 2:
            raise ValueError(f"n_train must be at least 2, got {self.n_train}")
        if self.n_val < 1:
            raise ValueError(f"n_val must be at least 1, got {self.n_val}")
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2 for batch statistics")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


# fewest rows in an eval block (module docstring)
_EVAL_ROWS = 1024


def _eval_bounds(n: int) -> list[int]:
    """Row bounds of the k = max(1, n // _EVAL_ROWS) near-equal eval blocks."""
    k = max(1, n // _EVAL_ROWS)
    return [n * i // k for i in range(k + 1)]


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

    def forward(self, x, rng, replay):
        h = x @ self.w.T
        h += self.b
        return h, {"x": x}

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

    def forward(self, x, rng, replay):
        return np.maximum(x, 0.0), {"x": x}

    def backward(self, g, cache):
        return g * (cache["x"] > 0.0), {}


class _BatchNorm:
    def __init__(self, name, width):
        self.name = name
        self.state = BatchNormState.initial(width)

    def params(self):
        return {f"{self.name}.gamma": self.state.gamma, f"{self.name}.beta": self.state.beta}

    def forward(self, x, rng, replay):
        out, xhat, inv_std = _train_normalize(x, self.state, update=replay is None)
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

    def forward(self, x, rng, replay):
        state = replay["state"] if replay is not None else self.op.sample_state(x, rng)
        return self.op.apply_state(x, state), {"state": state}

    def backward(self, g, cache):
        return self.op.backprop_state(g, cache["state"]), {}


# ---------------------------------------------------------------------------
# eval executor and certified argmax (module docstring)


class _Precision(NamedTuple):
    u: float  # unit roundoff
    tiny: float  # smallest subnormal, at least the error of a product that underflows
    big: float  # largest finite value


def _precision(dtype) -> _Precision:
    info = np.finfo(dtype)
    return _Precision(float(info.eps) / 2, float(info.smallest_subnormal), float(info.max))


_F32, _F64 = _precision(np.float32), _precision(np.float64)


class _Bound(NamedTuple):
    """How one dense or eval batch-norm layer moves a row's error bound E.

    ``gain`` is ‖W‖_F (batch norm: max|scale|), ``offset`` is ‖b‖ (batch
    norm: ‖|beta| + |scale * mean|‖), ``fan_in`` is n (batch norm: 1) and
    ``rounding`` the k of γ_k = k·u / (1 − k·u), the relative rounding of
    the layer's arithmetic: n + 3 for a dense layer, 7 for batch norm.
    """

    gain: float
    offset: float
    fan_in: int
    rounding: int
    width: int

    def apply(self, E, A, p: _Precision):
        """The bound after the layer, given E and the input row norms A.

        Rows whose output could overflow get an infinite bound; so do all
        rows if a parameter overflows p's dtype.
        """
        g = self.rounding * p.u / (1 - self.rounding * p.u)
        limit = p.big / (1 + 2 * g)
        if max(self.gain, self.offset) >= limit:
            return np.full_like(E, np.inf)
        size = A * self.gain
        size += self.offset
        E = E * self.gain
        E += g * size
        E += 2 * p.tiny * np.sqrt(self.width) * (self.fan_in + 2 + np.sqrt(self.fan_in) * A)
        E[~(size < limit)] = np.inf
        return E


def _lower(layer, p: _Precision | None):
    """One layer as a (step, bound) entry of the eval executor's plan.

    ``step(h)`` maps a row block's activations h to the layer's eval output
    in p's dtype, float64 when p is None: a dense layer into a new array or,
    in float32, its eval buffer; every other layer into h.  Batch norm folds
    into one scale and one shift in float32, and normalizes as
    ``bn_test_forward`` does in float64, so those logits keep their bits.
    ``bound`` is how the layer moves E at any precision, or None (p None,
    ReLU and noise).
    """
    if isinstance(layer, _Dense):
        w, b, out, bound = layer.w.T, layer.b, None, None
        if p is _F32:
            m, n = layer.w.shape
            bound = _Bound(np.linalg.norm(layer.w), np.linalg.norm(layer.b), n, n + 3, m)
            w, b, out = w.astype(np.float32), b.astype(np.float32), layer.eval_out

        def step(h):
            h = np.matmul(h, w, out=None if out is None else out[: len(h)])
            h += b
            return h

        return step, bound
    if isinstance(layer, _BatchNorm):
        state = layer.state
        if p is None:
            return (lambda h: _eval_normalize(h, state, out=h)), None
        scale, shift = _eval_affine(state)
        offset = np.linalg.norm(np.abs(state.beta) + np.abs(scale * state.running_mean))
        bound = _Bound(np.abs(scale).max(), offset, 1, 7, scale.size)
        scale, shift = scale.astype(np.float32), shift.astype(np.float32)
        return (lambda h: np.add(np.multiply(h, scale, out=h), shift, out=h)), bound
    if isinstance(layer, _Relu):
        return (lambda h: np.maximum(h, 0.0, out=h)), None
    return (lambda h: h), None  # eval-mode noise is the identity


def _row_norms(h, p: _Precision):
    """Upper bounds on the exact 2-norms of h's rows, summed in h's dtype.

    Each square rounds by a factor 1 + u and may underflow by tiny, and a
    sum of n nonnegative terms rounds by at most γ_n: dividing by
    1 − 2(n + 1)u covers both.
    """
    n = h.shape[1]
    squares = np.einsum("ij,ij->i", h, h).astype(np.float64)
    squares += n * p.tiny
    squares /= 1 - 2 * (n + 1) * p.u
    return np.sqrt(squares, out=squares)


def _certified(z, E):
    """Rows whose top-two logit gap exceeds twice the sum of their bounds, 4·E.

    A NaN in a row's logits or bound leaves it uncertified.
    """
    if z.shape[1] < 2:
        return np.ones(len(z), dtype=bool)
    top2 = np.partition(z.astype(np.float64), z.shape[1] - 2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] > 4 * E


def _eval_block(plan, x, p: _Precision | None):
    """The logits of the row block x through ``plan`` (``_lower``), in p's dtype.

    With p given it also returns per row a bound E on each logit's error,
    measured against exact arithmetic on x and the float64 parameters; with
    p None, E is None.  No step writes x: the float32 pass casts it first,
    and in every stack ``build_network`` makes, the first step that reads x
    is a dense layer's (a leading noise layer hands it on unchanged).
    """
    if p is _F32:
        h = x.astype(np.float32)
        E = _row_norms(h, p)
        E *= p.u
        E += p.tiny * np.sqrt(h.shape[1])
        E /= 1 - p.u
    else:
        h, E = x, (None if p is None else np.zeros(len(x)))
    for step, bound in plan:
        if bound is not None:
            E = bound.apply(E, _row_norms(h, p), p)
        h = step(h)
    return h, E


def _block_argmax(plan32, plan, x):
    """Each row's argmax of the row block x's float64 logits through ``plan``.

    The float32 pass through ``plan32`` decides the rows it certifies.  The
    rest run through ``plan``'s steps with ``plan32``'s bounds; if one of
    them is still uncertified, the block goes through ``plan`` whole, since
    products of fewer rows can round differently (module docstring).
    """
    with np.errstate(all="ignore"):  # overflow and NaN only leave rows uncertified
        z, E = _eval_block(plan32, x, _F32)
        predicted = z.argmax(axis=1)
        redo = np.flatnonzero(~_certified(z, E))
        if redo.size:
            rung = [(step, bound) for (step, _), (_, bound) in zip(plan, plan32, strict=True)]
            z, E = _eval_block(rung, x[redo], _F64)
            predicted[redo] = z.argmax(axis=1)
            redo = redo[~_certified(z, E)]
    if redo.size:
        predicted = _eval_block(plan, x, None)[0].argmax(axis=1)
    return predicted


# ---------------------------------------------------------------------------
# network


@dataclass
class _Cache:
    token: int
    mode: str
    layer_caches: list = field(default_factory=list)


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

    def forward(self, x, mode="train", rng=None, reuse: _Cache | None = None, *, argmax=False):
        """Run the stack; returns (logits, cache).

        With ``argmax=True`` (eval mode only) it returns each row's predicted
        class, ``logits.argmax(axis=1)`` bit for bit, in place of the logits,
        taking it from the certified float32 pass where it can (module
        docstring).

        ``reuse`` replays a previous train-mode cache, each layer reading its
        own entry: noise layers redraw nothing, so finite-difference probes
        see a fixed stochastic map, and batch norm keeps its running stats.

        Eval mode lowers the stack once and runs one loop over the row blocks
        (``_eval_bounds``): ``_eval_block`` for the logits, ``_block_argmax``
        for the argmax.  An input of one block returns that block's array
        itself.  The eval cache holds no layer caches.
        """
        x = _finite("x", x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"input must have shape (n, {self.input_dim})")
        if mode not in ("train", "eval"):
            raise ValueError("mode must be 'train' or 'eval'")
        if mode == "train" and rng is None and reuse is None:
            raise ValueError("train mode needs a generator (or a cache to replay)")
        if reuse is not None and reuse.mode != "train":
            raise ValueError("only a train-mode cache can be replayed")
        if argmax and mode != "eval":
            raise ValueError("argmax needs eval mode")
        self._token += 1
        cache = _Cache(token=self._token, mode=mode)
        if mode == "train":
            replays = reuse.layer_caches if reuse is not None else [None] * len(self.layers)
            h = x
            for layer, replay in zip(self.layers, replays, strict=True):
                h, c = layer.forward(h, rng, replay)
                cache.layer_caches.append(c)
            return h, cache
        plan = [_lower(layer, None) for layer in self.layers]
        plan32 = [_lower(layer, _F32) for layer in self.layers] if argmax else None
        n, out = x.shape[0], None
        for lo, hi in pairwise(_eval_bounds(n)):
            h = _block_argmax(plan32, plan, x[lo:hi]) if argmax else _eval_block(plan, x[lo:hi], None)[0]
            if hi - lo == n:
                return h, cache
            if out is None:
                out = np.empty((n, *h.shape[1:]), dtype=h.dtype)
            out[lo:hi] = h
        return out, cache

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
    """Mean cross-entropy and its gradient with respect to the logits.

    ``labels`` are integers of shape (n,) in 0..k-1 for (n, k) logits.
    """
    logits = _finite("logits", logits)
    if logits.ndim != 2:
        raise ValueError(f"logits must have shape (n, k), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(
            f"labels must be integers of shape {logits.shape[:1]}, got {labels.dtype} of shape {labels.shape}"
        )
    # the mean of no row's loss is NaN
    if logits.shape[0] == 0:
        raise ValueError("softmax_cross_entropy needs at least one row")
    k = logits.shape[1]
    if not (0 <= labels.min() and labels.max() < k):
        raise ValueError(f"labels must lie in 0..{k - 1}, got {labels.min()}..{labels.max()}")
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
    _finite("separation", separation)
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError(f"label_noise must lie in [0, 1], got {label_noise}")
    y = rng.integers(0, 2, n)
    mu = np.zeros(input_dim)
    mu[:2] = separation / 2.0
    x = rng.standard_normal((n, input_dim)) + np.where(y[:, None] == 1, mu, -mu)
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        y = np.where(flip, 1 - y, y)
    return x, y


@contextmanager
def _workspace(model: Network, *sizes: int):
    """Give the dense layers their train-scoped buffers; take them back on exit.

    Every dense layer below the topmost one gets a float32 eval-output buffer with
    as many rows as the largest eval block of an input of any of ``sizes``
    rows, at most 2 * ``_EVAL_ROWS`` - 1 however large the input; each
    block writes its leading rows.  The topmost layer still allocates what
    ``forward`` returns.
    """
    rows = max(hi - lo for n in sizes for lo, hi in pairwise(_eval_bounds(n)))
    dense = [layer for layer in model.layers if isinstance(layer, _Dense)]
    try:
        for layer in dense:
            layer.grad_w = np.empty_like(layer.w)
        for layer in dense[:-1]:
            layer.eval_out = np.empty((rows, layer.w.shape[0]), dtype=np.float32)
        yield
    finally:
        for layer in dense:
            layer.eval_out = layer.grad_w = None


def _accuracy(model: Network, x, y) -> float:
    predicted, _ = model.forward(x, mode="eval", argmax=True)
    return float((predicted == y).mean())


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

    Returns (epoch, train_acc, val_acc) rows for the last ``config.gap_window``
    epochs (by default the final one) and every ``record_every``-th epoch.
    """
    if (x_val is None) != (y_val is None):
        missing = "x_val" if x_val is None else "y_val"
        raise ValueError(f"validation needs both x_val and y_val; {missing} is missing")
    if record_every < 0:
        raise ValueError(f"record_every must be at least 0, got {record_every}")
    x_train, y_train = _finite("x_train", x_train), np.asarray(y_train)
    if x_val is not None:
        x_val, y_val = _finite("x_val", x_val), np.asarray(y_val)
    classes = model.layers[-1].w.shape[0]
    # a step needs a batch of 2, and an accuracy at least one row
    for part, x, y, least in (("train", x_train, y_train, 2), ("val", x_val, y_val, 1)):
        if x is None:
            continue
        if x.ndim != 2 or x.shape[1] != model.input_dim:
            raise ValueError(f"x_{part} must have shape (n, {model.input_dim}), got {x.shape}")
        if len(x) < least:
            raise ValueError(f"x_{part} must hold at least {least} rows, got {len(x)}")
        if len(y) != len(x):
            raise ValueError(f"y_{part} holds {len(y)} labels for the {len(x)} rows of x_{part}")
        if y.ndim != 1 or y.dtype.kind not in "iu":
            raise ValueError(f"y_{part} must be a 1-D array of integer labels, got {y.dtype} of shape {y.shape}")
        if not (0 <= y.min() and y.max() < classes):
            raise ValueError(f"y_{part} labels must lie in 0..{classes - 1}, got {y.min()}..{y.max()}")
    params = model.params()
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    n = x_train.shape[0]
    history = []
    with _workspace(model, n, 0 if x_val is None else len(x_val)):
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
                    v = velocity[name]
                    v *= config.momentum
                    # g is scratch (a workspace buffer or a fresh array);
                    # g * lr rounds exactly as lr * g
                    v -= np.multiply(g, config.learning_rate, out=g)
                    p += v
            if epoch > config.epochs - config.gap_window or (record_every and epoch % record_every == 0):
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
):
    """Run the overfitting benchmark over a regularizer grid and paired seeds.

    Every regularizer sees the same dataset, initialization and batch order
    for a given seed, so per-seed gap comparisons are paired.  The reported
    generalization gap averages train - validation accuracy over the last
    ``config.gap_window`` epochs, which ``train`` evaluates for every
    ``record_every``; the window damps the epoch-to-epoch noise of a single
    late evaluation.  Returns per-epoch rows (regularizer, strength, seed,
    epoch, train_acc, val_acc) plus a summary dict per regularizer with gap
    mean and standard deviation across seeds.
    """
    if not seeds:
        raise ValueError("train_and_report needs at least one seed")
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
            tail = history[-config.gap_window:]
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
