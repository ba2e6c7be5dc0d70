"""Spans around every call into rotnoise, recorded from outside the library.

``Tracer`` replaces, for the duration of a ``with`` block, every public
function of each ``rotnoise`` module and the methods that carry the work
(``BatchRotation.apply``, the ``NoiseOp`` family, ``Network.forward`` and
``backward``, ``*Source.sample``) with wrappers that record one span per
call.  A function is rebound at *every* module attribute that holds it,
because ``noise_ops``, ``linreg`` and ``cli`` import names such as
``sample_batch_rotation`` directly and the package re-exports everything;
patching only the defining module would miss those calls.

Spans carry their parent's id, so self time is a span's duration minus the
time of its direct children.  Counts attached to spans are exact: rows and
bytes are computed from argument shapes (labelled "computed", not
measured), and random words come from the counter of the ``SFC64``
generator the benchmark passes in, which advances by one per 64-bit output.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (name, unit, better) of every per-layer metric the traced run reports.
# A name is "<span>.<statistic>"; the statistics are defined in
# ``layer_metrics`` below.
PER_LAYER = (
    ("rotation.sample_batch_rotation.calls", "count", "lower"),
    ("rotation.sample_batch_rotation.busy_s", "s", "lower"),
    ("rotation.sample_batch_rotation.rows", "count", "lower"),
    ("rotation.sample_batch_rotation.rng_words", "count", "lower"),
    ("rotation.BatchRotation.apply.calls", "count", "lower"),
    ("rotation.BatchRotation.apply.busy_s", "s", "lower"),
    ("rotation.BatchRotation.apply.bytes_computed", "bytes", "lower"),
    ("rotation.BatchRotation.apply_transpose.calls", "count", "lower"),
    ("rotation.BatchRotation.apply_transpose.busy_s", "s", "lower"),
    ("noise_ops.sample_state.calls", "count", "lower"),
    ("noise_ops.sample_state.self_s", "s", "lower"),
    ("noise_ops.apply_state.calls", "count", "lower"),
    ("noise_ops.apply_state.self_s", "s", "lower"),
    ("noise_ops.backprop_state.calls", "count", "lower"),
    ("noise_ops.backprop_state.self_s", "s", "lower"),
    ("noise_ops.call.calls", "count", "lower"),
    ("noise_ops.call.self_s", "s", "lower"),
    ("coadapt.verify_reduction.calls", "count", "lower"),
    ("coadapt.verify_reduction.busy_s", "s", "lower"),
    ("coadapt.verify_reduction.self_s", "s", "lower"),
    ("linreg.marginalized_gradient.busy_s", "s", "lower"),
    ("linreg.marginalized_gradient.self_s", "s", "lower"),
    ("linreg.marginalized_gradient.rotation_calls", "count", "lower"),
    ("linreg.dropout_rotation_angle.busy_s", "s", "lower"),
    ("linreg.dropout_rotation_angle.rng_words", "count", "lower"),
    ("linreg.condition_numbers.busy_s", "s", "lower"),
    ("linreg.solve_rotation_lr.busy_s", "s", "lower"),
    ("batchnorm.train_statistic_samples.calls", "count", "lower"),
    ("batchnorm.train_statistic_samples.busy_s", "s", "lower"),
    ("batchnorm.train_statistic_samples.rng_words", "count", "lower"),
    ("batchnorm.mc_nonlinearity_curve.busy_s", "s", "lower"),
    ("batchnorm.mc_nonlinearity_curve.self_s", "s", "lower"),
    ("batchnorm.fit_poly_correction.busy_s", "s", "lower"),
    ("batchnorm.noise_budget.busy_s", "s", "lower"),
    ("batchnorm.noise_budget.self_s", "s", "lower"),
    ("batchnorm.cross_normalize.calls", "count", "lower"),
    ("batchnorm.cross_normalize.busy_s", "s", "lower"),
    ("network.forward_train.calls", "count", "lower"),
    ("network.forward_train.busy_s", "s", "lower"),
    ("network.forward_eval.calls", "count", "lower"),
    ("network.forward_eval.busy_s", "s", "lower"),
    ("network.forward_eval.rows", "count", "lower"),
    ("network.backward.calls", "count", "lower"),
    ("network.backward.busy_s", "s", "lower"),
    ("network.train.self_s", "s", "lower"),
    ("network.eval_useful_ratio", "ratio", "higher"),
    ("network.forward_eval.busy_s_1thread", "s", "lower"),
    ("sources.sample.calls", "count", "lower"),
    ("sources.sample.busy_s", "s", "lower"),
    ("sources.sample.rows", "count", "lower"),
    ("cli.run.busy_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.run.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Filled in by run.py from several rounds or processes, not from one round's spans.
RUN_METRICS = ("network.forward_eval.busy_s_1thread", "trace.overhead_s")

# Span statistics that are counts; they must repeat exactly for a seed.
COUNT_STATS = ("calls", "rows", "rng_words", "bytes_computed", "bytes_written", "rotation_calls")

_NOISE_METHODS = {
    "sample_state": "sample_state",
    "apply_state": "apply_state",
    "backprop_state": "backprop_state",
    "__call__": "call",
}


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: int | None
    round_id: int
    name: str
    start: float
    end: float
    self_s: float
    outermost: bool  # no ancestor span has the same name
    counts: dict


def _rng_counter(value) -> int | None:
    """Outputs drawn so far by an SFC64-backed generator, else None."""
    if not isinstance(value, np.random.Generator):
        return None
    state = value.bit_generator.state
    if state["bit_generator"] != "SFC64":
        return None
    return int(state["state"]["state"][3])


def _find_generator(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.random.Generator):
            return value
    return None


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# --- per-call counts, computed from arguments and results -----------------


def _rows_first(args, kwargs, result):
    # sample_batch_rotation(n, dim, angles, rng)
    return {"rows": int(_arg(args, kwargs, 0, "n"))}


def _rows_after_self(args, kwargs, result):
    # Source.sample(self, n, rng)
    return {"rows": int(_arg(args, kwargs, 1, "n"))}


def _apply_bytes(args, kwargs, result):
    # bytes read (x and every array of the realization) plus bytes written;
    # computed from shapes, so it follows the realization's representation
    realization, x = args[0], np.asarray(args[1])
    arrays = (getattr(realization, f.name) for f in dataclasses.fields(realization))
    read = x.size * 8 + sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return {"bytes_computed": int(read + np.asarray(result).nbytes)}


def _bytes_written(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    total = 0
    if out is not None and out.is_dir():
        total = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"bytes_written": total}


def _forward_name(args, kwargs):
    # Network.forward(self, x, mode="train", ...)
    mode = _arg(args, kwargs, 2, "mode", "train")
    return "network.forward_eval" if mode == "eval" else "network.forward_train"


def _forward_rows(args, kwargs, result):
    if _forward_name(args, kwargs) != "network.forward_eval":
        return {}
    return {"rows": int(np.shape(_arg(args, kwargs, 1, "x"))[0])}


# per-call counts of module functions, by span name
_FUNCTION_COUNTS = {"rotation.sample_batch_rotation": _rows_first}


class Tracer:
    """Context manager that records a span for every call into rotnoise.

    Entering installs the wrappers, leaving restores every original
    attribute.  Spans are held in memory; ``write_spans`` stores them once,
    at the end of the benchmark.
    """

    def __init__(self, round_id: int = 0):
        self.round_id = round_id
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span_id, name, child time]
        self._next_id = 0
        self.patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # --- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self) -> None:
        from rotnoise import cli, network, noise_ops, rotation, sources

        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "rotnoise" or n.startswith("rotnoise.")
        ]
        try:
            for mod in modules:
                short = mod.__name__.rsplit(".", 1)[-1]
                for name in getattr(mod, "__all__", ()):
                    fn = getattr(mod, name, None)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        span = f"{short}.{name}"
                        self._rebind_everywhere(modules, fn, span, _FUNCTION_COUNTS.get(span))
            self._rebind_everywhere(modules, cli.run, "cli.run", _bytes_written)

            self._patch_method(rotation.BatchRotation, "apply", "rotation.BatchRotation.apply", _apply_bytes)
            self._patch_method(rotation.BatchRotation, "apply_transpose", "rotation.BatchRotation.apply_transpose")
            for cls in vars(noise_ops).values():
                if inspect.isclass(cls) and issubclass(cls, noise_ops.NoiseOp):
                    for method, label in _NOISE_METHODS.items():
                        if method in vars(cls):
                            self._patch_method(cls, method, f"noise_ops.{label}")
            self._patch_method(network.Network, "forward", _forward_name, _forward_rows)
            self._patch_method(network.Network, "backward", "network.backward")
            for cls in vars(sources).values():
                if inspect.isclass(cls) and "sample" in vars(cls):
                    self._patch_method(cls, "sample", "sources.sample", _rows_after_self)
        except BaseException:
            self.restore()
            raise

    def _rebind_everywhere(self, modules, fn, name, measure=None) -> None:
        wrapper = self._wrap(fn, name, measure)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, measure=None) -> None:
        original = vars(cls)[attr]
        self.patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, measure))

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # --- recording ----------------------------------------------------------

    def _wrap(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, name, measure, args, kwargs)

        return wrapper

    def _call(self, fn, name, measure, args, kwargs):
        if callable(name):
            name = name(args, kwargs)
        rng = _find_generator(args, kwargs)
        words_before = _rng_counter(rng)
        parent_id = self._stack[-1][0] if self._stack else None
        outermost = all(entry[1] != name for entry in self._stack)
        span_id = self._next_id
        self._next_id += 1
        entry = [span_id, name, 0.0]
        self._stack.append(entry)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(entry, parent_id, outermost, start, time.perf_counter(), {})
            raise
        end = time.perf_counter()
        counts = measure(args, kwargs, result) if measure is not None else {}
        if words_before is not None:
            counts["rng_words"] = _rng_counter(rng) - words_before
        self._close(entry, parent_id, outermost, start, end, counts)
        return result

    def _close(self, entry, parent_id, outermost, start, end, counts):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        span_id, name, child_time = entry
        self.spans.append(
            Span(span_id, parent_id, self.round_id, name, start, end, duration - child_time, outermost, counts)
        )


# --- aggregation -------------------------------------------------------------


def _useful_eval_share(spans: list[Span], gap_window: int) -> float | None:
    """Share of eval rows whose accuracy enters the reported gap.

    Inside each ``network.train`` span, consecutive eval forwards with no
    train step between them form one evaluation, which yields one history
    row; the gap averages the last ``gap_window`` rows.
    """
    by_id = {s.span_id: s for s in spans}
    forwards: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.name in ("network.forward_eval", "network.forward_train"):
            owner = s.parent_id
            while owner is not None and by_id[owner].name != "network.train":
                owner = by_id[owner].parent_id
            if owner is not None:
                forwards[owner].append(s)
    total = useful = 0
    for calls in forwards.values():
        evaluations: list[int] = []
        open_group = False
        for s in sorted(calls, key=lambda s: s.start):
            if s.name == "network.forward_train":
                open_group = False
                continue
            if not open_group:
                evaluations.append(0)
                open_group = True
            evaluations[-1] += s.counts["rows"]
        total += sum(evaluations)
        useful += sum(evaluations[-gap_window:])
    return useful / total if total else None


def layer_metrics(spans: list[Span], gap_window: int | None = None) -> dict[str, float]:
    """Every per-layer metric that one traced round yields.

    calls       spans of that name
    busy_s      wall time inside the name, nested same-name spans counted once
    self_s      time inside the name minus time in its direct child spans
    rows, rng_words, bytes_computed, bytes_written
                sums of the per-call counts (rng_words over outermost spans)
    rotation_calls
                rotation.sample_batch_rotation spans below the name
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.span_id: s for s in spans}

    def below(span: Span, ancestor_name: str) -> bool:
        pid = span.parent_id
        while pid is not None:
            if by_id[pid].name == ancestor_name:
                return True
            pid = by_id[pid].parent_id
        return False

    out: dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        if metric in RUN_METRICS:
            continue
        if metric == "network.eval_useful_ratio":
            share = _useful_eval_share(spans, gap_window) if gap_window else None
            out[metric] = 0.0 if share is None else share
            continue
        name, stat = metric.rsplit(".", 1)
        group = by_name.get(name, [])
        if stat == "calls":
            value = len(group)
        elif stat == "busy_s":
            value = sum(s.end - s.start for s in group if s.outermost)
        elif stat == "self_s":
            value = sum(s.self_s for s in group)
        elif stat == "rotation_calls":
            value = sum(1 for s in by_name.get("rotation.sample_batch_rotation", []) if below(s, name))
        elif stat == "rng_words":
            value = sum(s.counts.get(stat, 0) for s in group if s.outermost)
        else:
            value = sum(s.counts.get(stat, 0) for s in group)
        out[metric] = value if is_count(metric) else float(value)
    return out


def is_count(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1] in COUNT_STATS or metric == "network.eval_useful_ratio"


def write_spans(path: Path, spans: list[Span]) -> None:
    """Store spans, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def spans_path(out_dir: Path, workload: str, seed: int) -> Path:
    return out_dir / f"spans-{workload}-seed{seed}.jsonl"
