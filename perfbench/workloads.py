"""The benchmark's three workloads: inputs, library calls and output checks.

A workload builds its inputs from a generator (that is set-up time), then
``run`` makes the timed library calls through ``Ops``, which checks each
output and counts the calls that raised or failed their check.  Every
call goes through an attribute of the ``rotnoise`` package or one of its
modules at call time, so the tracer's wrappers see it.

Statistical checks compare an estimate with its closed form in units of
its own standard error.  A criterion's per-entry bound (4 stderr) applied
to every entry of every round would fail by chance a few times in a
hundred rounds, so the check bounds the largest z-score of one call at a
family-wise false-failure rate of ``FAMILY_ALPHA``; the count of entries
beyond the criterion's own bound is reported next to it.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np

import rotnoise as rn
import rotnoise.cli  # noqa: F401  (makes rn.cli available)

FAMILY_ALPHA = 1e-7
KEEP_RATE = 0.8


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """SFC64 generator, so traced calls can count the words they draw."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, *stream])))


def family_bound(entries: int) -> float:
    """z-score a largest |z| of ``entries`` normal estimates exceeds w.p. FAMILY_ALPHA."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * entries))


def _digest(value, h) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        for item in value:
            _digest(item, h)
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        h.update(np.asarray(value, dtype=np.float64).tobytes())


def digest(value) -> str:
    h = hashlib.sha256()
    _digest(value, h)
    return h.hexdigest()


class Ops:
    """Checked library calls of one round: attempts, failures, output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: list[tuple[str, str]] = []
        self.counts: Counter = Counter()  # informational tallies
        self.worst: dict[str, float] = {}  # informational maxima

    def run(self, name: str, call, check):
        """Call, then check; a raise or a failed check counts the op as failed."""
        self.attempted += 1
        try:
            result = call()
            self.digests.append((name, digest(result)))
            ok = bool(check(result))
        except Exception:  # a failing library call is counted; the round goes on
            print(f"perfbench: {name} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.digests.append((name, "raised"))
            return None
        if not ok:
            print(f"perfbench: {name} failed its check", file=sys.stderr)
            self.failed += 1
        return result

    def note_max(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, -math.inf), float(value))

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.counts.update(other.counts)
        for key, value in other.worst.items():
            self.note_max(key, value)


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


def _z_ok(ops: Ops, key: str, gap, stderr) -> bool:
    z = np.abs(np.asarray(gap, dtype=np.float64)) / np.maximum(stderr, 1e-12)
    ops.note_max(f"{key} max |z|", z.max())
    ops.counts[f"{key} entries beyond 4 stderr"] += int((z > 4).sum())
    ops.counts[f"{key} entries"] += z.size
    return _finite(z) and z.max() < family_bound(z.size)


# ---------------------------------------------------------------------------


class Overfit:
    """Criterion 10's body on one seed, plus a batch-normalized arm.

    Baseline and centered rotation (p = 0.8) on a 2 x 256 ReLU network,
    150 epochs of batch 32 on 200 label-noised rows, evaluated every epoch
    on the 200 train and 4,000 validation rows; the gap averages the last
    10 epochs.  The third arm places the same rotation after the weight
    layer, followed by train-mode batch normalization (Li et al.'s
    dropout-a).  All arms share data, initialization and batch order.
    """

    name = "overfit"
    SIZES = {
        "full": dict(epochs=150, n_train=200, n_val=4000, width=256, gap_window=10),
        "tiny": dict(epochs=12, n_train=40, n_val=200, width=16, gap_window=3),
    }

    def __init__(self, size: str, out_dir: Path):
        self.size = self.SIZES[size]
        self.gap_window = self.size["gap_window"]

    def build(self, rng: np.random.Generator) -> dict:
        s = self.size
        config = rn.TrainConfig(
            epochs=s["epochs"], batch_size=32, learning_rate=0.05,
            n_train=s["n_train"], n_val=s["n_val"], class_separation=2.0,
        )
        x_tr, y_tr = rn.gaussian_mixture_data(
            s["n_train"], rng, config.input_dim, config.class_separation,
            label_noise=config.label_noise,
        )
        x_va, y_va = rn.gaussian_mixture_data(
            s["n_val"], rng, config.input_dim, config.class_separation
        )
        spec = rn.NoiseOpSpec("rotation", KEEP_RATE, centered=True)
        arms = {
            "baseline": rn.LayerSpec(s["width"]),
            "rotation": rn.LayerSpec(s["width"], noise=spec),
            "rotation-bn": rn.LayerSpec(
                s["width"], noise=spec, noise_placement="after-weight", batchnorm=True
            ),
        }
        init_seed = int(rng.integers(2**63))
        networks = {
            arm: rn.build_network(config.input_dim, [layer, layer], 2, make_rng(init_seed))
            for arm, layer in arms.items()
        }
        return dict(config=config, data=(x_tr, y_tr, x_va, y_va), networks=networks)

    def run(self, inputs: dict, rng: np.random.Generator, ops: Ops) -> None:
        config = inputs["config"]
        x_tr, y_tr, x_va, y_va = inputs["data"]
        train_seed = int(rng.integers(2**63))
        gaps = {}
        for arm, model in inputs["networks"].items():
            train_rng = make_rng(train_seed)  # same batch order for every arm
            history = ops.run(
                f"train {arm}",
                lambda: rn.train(model, x_tr, y_tr, config, train_rng, x_va, y_va, record_every=1),
                lambda h: _history_ok(h, config.epochs),
            )
            if history is not None:
                gaps[arm] = float(np.mean([tr - va for _, tr, va in history[-self.gap_window:]]))
        if "baseline" in gaps and "rotation" in gaps:
            ops.counts["paired rounds"] += 1
            ops.counts["rotation gap < baseline gap"] += int(gaps["rotation"] < gaps["baseline"])


def _history_ok(history, epochs: int) -> bool:
    rows = np.asarray(history, dtype=np.float64)
    return (
        rows.shape == (epochs, 3)
        and _finite(rows)
        and np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0))
    )


# ---------------------------------------------------------------------------


class McBn:
    """Monte-Carlo batch-normalization statistics, and the CLI's cn-check.

    Criterion 08's expectation curve of the train-mode statistic (gaussian,
    B = 8, default 133-point grid) with its degree-7 fit, criterion 07's
    noise budget at B = 8 and 16, and ``rotnoise cn-check`` at its default
    budget run through ``rotnoise.cli.run`` into a temporary directory.
    """

    name = "mc-bn"
    gap_window = None
    SIZES = {
        "full": dict(n_mc=100_000, outer=3000, inner=1500, cli_args=[]),
        "tiny": dict(n_mc=10_000, outer=200, inner=200, cli_args=["--samples", "20000"]),
    }
    # criterion 08: the reported coefficients and their spread
    REPORTED = np.array([1.0919, -8.8903e-2, 6.5157e-3, -1.9404e-4])
    SPREAD = np.array([0.0020, 0.24595e-2, 0.61768e-3, 0.38001e-4])
    BUDGET_LIMITS = ((8, 0.2), (16, 0.1))

    def __init__(self, size: str, out_dir: Path):
        self.size = self.SIZES[size]
        self.out_dir = Path(out_dir)

    def build(self, rng: np.random.Generator) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return dict(grid=rn.default_poly_grid(), cli_seed=int(rng.integers(2**31)))

    def run(self, inputs: dict, rng: np.random.Generator, ops: Ops) -> None:
        s = self.size
        curve = ops.run(
            "mc_nonlinearity_curve",
            lambda: rn.mc_nonlinearity_curve("gaussian", 8, rng, grid=inputs["grid"], n_mc=s["n_mc"]),
            lambda c: _finite(c.f_expect, c.f_var) and np.all(c.stderr > 0),
        )
        if curve is not None:
            ops.run("fit_poly_correction", lambda: rn.fit_poly_correction(curve),
                    lambda fit: self._poly_ok(ops, fit))
        for batch, limit in self.BUDGET_LIMITS:
            ops.run(
                f"noise_budget B={batch}",
                lambda: rn.noise_budget(batch, "gaussian", rng, n_outer=s["outer"], n_inner=s["inner"]),
                lambda r: _finite(r) and r[0] < limit and r[1] > 0,
            )
        # mkdtemp names have a fixed length, so the manifest's size repeats
        out = os.path.relpath(tempfile.mkdtemp(dir=self.out_dir))
        argv = ["cn-check", "--seed", str(inputs["cli_seed"]), "--out", out, *s["cli_args"]]
        try:
            ops.run("cli cn-check", lambda: (rn.cli.run(argv), _read_rows(Path(out) / "cn_linearity.csv")),
                    lambda r: r[0] == 0 and _cn_rows_ok(ops, r[1]))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _poly_ok(self, ops: Ops, fit) -> bool:
        z = np.abs(fit.coeffs - self.REPORTED) / self.SPREAD
        ops.note_max("criterion-08 coefficient z", z.max())
        return _finite(z) and np.all(z <= 3.0)


def _read_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def _cn_rows_ok(ops: Ops, rows) -> bool:
    # columns: x1, mean_output, stderr, fit_residual; the mean output of a
    # cross-normalized element is exactly affine in the held value
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 3 or not _finite(rows) or np.any(rows[:, 2] <= 0):
        return False
    return _z_ok(ops, "cn-check residual", rows[:, 3], rows[:, 2])


# ---------------------------------------------------------------------------


class ClosedForms:
    """Criteria 02-05: Monte-Carlo estimates against their closed forms.

    Conditional noise covariance at 1e6 draws for D in {2, 4, 8} under both
    operators; ``verify_reduction`` at 1e6 draws, D = 8, both operators;
    the marginalized regression gradient on 20 problems x 1,000 trials with
    the conditioning bound; and the dropout angle at 1e4 x 1024.
    """

    name = "closed-forms"
    gap_window = None
    SIZES = {
        "full": dict(cov_draws=1_000_000, dims=(2, 4, 8), reduction_draws=1_000_000,
                     problems=20, trials=1000, angle_dim=1024, angle_samples=10_000),
        "tiny": dict(cov_draws=20_000, dims=(2, 4), reduction_draws=100_000,
                     problems=3, trials=100, angle_dim=64, angle_samples=500),
    }

    def __init__(self, size: str, out_dir: Path):
        self.size = self.SIZES[size]

    def build(self, rng: np.random.Generator) -> dict:
        problems = []
        for _ in range(self.size["problems"]):
            dim = int(2 * rng.integers(2, 6))  # the closed forms assume even D
            n = int(rng.integers(30, 81))
            lam = float(rng.choice([0.25, 0.5, 1.0]))
            x = rng.standard_normal((n, dim)) * rng.uniform(0.3, 3.0)
            y = rng.standard_normal(n)
            problems.append((rn.RegressionProblem(x, y, lam), rn.RegressionProblem(x, y, 1.0)))
        degenerate = rng.standard_normal((50, 6))
        degenerate[:, 0] *= 1e-8
        return dict(
            points={dim: rng.standard_normal(dim) for dim in self.size["dims"]},
            source=rn.GaussianSource(rn.equicorrelated(8, 0.5)),
            problems=problems,
            degenerate=rn.RegressionProblem(degenerate, rng.standard_normal(50), 1.0),
        )

    def run(self, inputs: dict, rng: np.random.Generator, ops: Ops) -> None:
        s = self.size
        p = KEEP_RATE
        lam = (1 - p) / p
        for dim, x in inputs["points"].items():
            for method, op in (
                ("dropout", rn.BernoulliDropout(p)),
                ("rotation", rn.RotationOut(rn.gaussian_tangent(np.sqrt(lam)))),
            ):
                ops.run(
                    f"conditional covariance {method} D={dim}",
                    lambda: _conditional_cov(op, x, s["cov_draws"], rng),
                    lambda r: _cov_ok(ops, r, rn.conditional_noise_covariance(x, method, p)),
                )

        rotation_factor = p - (1 - p) / 7
        ops.run(
            "verify_reduction dropout D=8",
            lambda: rn.verify_reduction(inputs["source"], "dropout", p, s["reduction_draws"], rng),
            lambda r: abs(r.observed_factor - p) < 0.01,
        )
        ops.run(
            "verify_reduction rotation D=8",
            lambda: rn.verify_reduction(inputs["source"], "rotation", p, s["reduction_draws"], rng),
            lambda r: abs(r.observed_factor - rotation_factor) < 0.01
            and abs(r.predicted_factor - rotation_factor) <= 1e-12,
        )

        for k, (problem, unit_problem) in enumerate(inputs["problems"]):
            w = ops.run(f"solve_rotation_lr {k}", lambda: rn.solve_rotation_lr(problem), _finite)
            if w is not None:
                ops.run(
                    f"marginalized_gradient {k}",
                    lambda: rn.marginalized_gradient(
                        problem, w, rn.gaussian_tangent(np.sqrt(problem.lam)), n_trials=s["trials"], rng=rng
                    ),
                    lambda r: _z_ok(ops, "criterion-04 gradient", r[0], r[1]),
                )
            ops.run(
                f"condition_numbers {k}",
                lambda: rn.condition_numbers(unit_problem),
                lambda r: r[0] <= unit_problem.dim - 1 + 1e-9,
            )
        ops.run(
            "condition_numbers degenerate column",
            lambda: rn.condition_numbers(inputs["degenerate"]),
            lambda r: r[0] <= 5 + 1e-9 and r[1] > 1e6,
        )

        for keep in (0.5, 0.8):
            ops.run(
                f"dropout_rotation_angle p={keep}",
                lambda: rn.dropout_rotation_angle(s["angle_dim"], keep, s["angle_samples"], rng),
                lambda r: abs(r[0] - keep) <= 0.02,
            )


def _conditional_cov(op, x, n, rng):
    """Entrywise conditional covariance of op(x) given x, with its stderr.

    E[op(x) | x] = x, so the covariance is the mean outer product of the
    deviations; D x D matmuls avoid an (n, D, D) intermediate.
    """
    tiled = np.broadcast_to(x, (n, x.size)).copy()
    delta = op(tiled, rng) - x
    mean = delta.T @ delta / n
    sq = delta**2
    second = sq.T @ sq / n
    return mean, np.sqrt(np.maximum(second - mean**2, 0.0) / n)


def _cov_ok(ops: Ops, estimate, closed) -> bool:
    mean, stderr = estimate
    upper = np.triu_indices(mean.shape[0])
    return _z_ok(ops, "criterion-02 covariance", (mean - closed)[upper], stderr[upper])


WORKLOADS = {w.name: w for w in (Overfit, McBn, ClosedForms)}
