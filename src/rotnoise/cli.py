"""Seeded, config-driven experiment runner with CSV outputs.

Every experiment is a subcommand.  Parameters come from an optional JSON
config file plus command-line flags (flags win); a key outside its range
is rejected by name before anything is written.  Each runner returns its
(file name, header, rows) tables and writes nothing; ``run`` writes the
CSVs and a manifest echoing the merged config, the seed and library
versions into the output directory only after the runner has returned, so
a run that exits non-zero writes nothing.  Reruns with the same config and
seed produce byte-identical CSV bodies; wall-clock information is confined
to the manifest.

Exit codes: 0 success, 2 bad configuration (the offending key is named),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .batchnorm import (
    affine_residuals,
    cross_normalization_curve,
    fit_poly_correction,
    mc_nonlinearity_curve,
    noise_budget,
    variance_shift,
)
from .coadapt import verify_reduction
from .linreg import (
    RegressionProblem,
    condition_numbers,
    dropout_rotation_angle,
    margin_flip_curve,
)
from .network import TrainConfig, train_and_report
from .noise_ops import NoiseOpSpec
from .rotation import gaussian_tangent, rotation_invariants
from .sources import GaussianSource, ReluGaussianSource, equicorrelated, random_correlation

# unused here, since cn-check calls cross_normalization_curve and
# verify-rotation calls rotation_invariants; kept because perfbench's tracer
# self-test checks cli.cross_normalize and cli.sample_batch_rotation as
# binding sites
from .batchnorm import cross_normalize  # noqa: F401
from .rotation import sample_batch_rotation  # noqa: F401

__all__ = ["main", "load_config", "ConfigError"]

ENV_OUTDIR = "ROTNOISE_OUTDIR"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# parameter schema per subcommand: name -> (converter, default, help[, bound]);
# the optional bound is the least allowed value, or "positive" (and finite).
# A value passed to the library as it is carries none: the library call
# that receives it rejects it by name.  Only values the CLI builds or
# converts itself carry one: angle-demo's classes x margin_dim weight
# matrix, linreg's trials loop, the grids, and the float budgets, which
# int() would fail on at inf or NaN before the library sees them
_GLOBAL = {
    "seed": (int, 0, "random seed recorded in the manifest"),
    "out": (str, None, "output directory (default: $ROTNOISE_OUTDIR or ./rotnoise-results)"),
}

_SCHEMAS: dict[str, dict] = {
    "verify-rotation": {
        "dim": (int, 8, "vector dimension"),
        "sigma": (float, 0.5, "gaussian tangent scale"),
        "samples": (float, 1e5, "Monte-Carlo draws for the mean check", "positive"),
        "realizations": (int, 100, "realizations for the exact checks"),
    },
    "coadapt": {
        "dim": (int, 8, "feature dimension"),
        "rho": (float, 0.5, "equicorrelation of the Gaussian source"),
        "keep_rate": (float, 0.8, "matched keep rate"),
        "samples": (float, 1e6, "Monte-Carlo sample count", "positive"),
    },
    "linreg": {
        "n": (int, 64, "number of data points"),
        "dim": (int, 6, "feature dimension"),
        "lambda": (float, 1.0, "noise strength (1-p)/p"),
        "trials": (int, 50, "random design matrices to test", 1),
        "degenerate_column": (_bool, False, "scale one column down to 1e-8"),
    },
    "angle-demo": {
        "dim": (int, 1024, "vector dimension for the mask-angle check"),
        "keep_rate": (float, 0.5, "dropout keep rate"),
        "samples": (float, 1e4, "vectors per estimate", "positive"),
        "classes": (int, 10, "weight rows for the flip-rate curve", 2),
        "margin_dim": (int, 32, "feature dimension for the flip-rate curve", 2),
        "sigma": (float, 0.5, "gaussian tangent scale of the rotation noise"),
        "flip_samples": (float, 2e4, "rotations per margin grid point", "positive"),
    },
    "var-shift": {
        "dim": (int, 64, "feature dimension"),
        "rows": (int, 256, "weight rows sampled on the sphere"),
        "keep_rate": (float, 0.5, "dropout keep rate"),
        "source": (str, "relu-random", "relu-random | relu-equicorr | gaussian-equicorr"),
        "rho": (float, 0.3, "correlation parameter of the equicorrelated sources"),
        "centered": (_bool, False, "center the features the noise sees"),
    },
    "bn-curve": {
        "batch": (int, 8, "batch size"),
        "dist": (str, "gaussian", "source distribution tag"),
        "samples": (float, 1e5, "draws per grid point", "positive"),
        "grid_max": (float, 3.0, "grid half-width", "positive"),
        "grid_step": (float, 0.05, "grid spacing", "positive"),
    },
    "bn-poly": {
        "batch": (int, 8, "batch size"),
        "dist": (str, "gaussian", "source distribution tag"),
        "samples": (float, 1e6, "draws per grid point", "positive"),
        "grid_max": (float, 3.3, "fit window half-width", "positive"),
        "grid_step": (float, 0.05, "grid spacing", "positive"),
    },
    "cn-check": {
        "batch": (int, 8, "batch size"),
        "samples": (float, 2e5, "draws per grid point", "positive"),
        "grid_max": (float, 3.0, "grid half-width", "positive"),
        "points": (int, 13, "grid points"),
        "normalizer": (str, "b-1", "leave-one-out divisor: b-1 or b"),
    },
    "noise-budget": {
        "batch": (int, 8, "batch size"),
        "dist": (str, "gaussian", "source distribution tag"),
        "outer": (int, 4000, "outer draws from the source"),
        "inner": (int, 2000, "inner draws per conditional variance"),
    },
    "train-demo": {
        "epochs": (int, 150, "training epochs"),
        "seeds": (int, 5, "paired seeds"),
        "keep_rate": (float, 0.8, "equivalent keep rate of the rotation op"),
        "width": (int, 256, "hidden width"),
        "n_train": (int, 200, "training set size"),
        "record_every": (int, 1, "record accuracy every k epochs (0: the gap window only)"),
        "gap_window": (int, 10, "epochs averaged into the reported gap"),
    },
}


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str | Path) -> dict:
    """Parse a JSON config file; an empty file means all defaults."""
    text = Path(path).read_text()
    if not text.strip():
        return {}
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config parse error at line {err.lineno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _schema(command: str) -> dict:
    """Parameters of ``command``: its own, then the global ones."""
    return {**_SCHEMAS[command], **_GLOBAL}


def merge_config(command: str, file_cfg: dict, flag_cfg: dict) -> dict:
    """Validate keys against the schema and let flags override file values.

    The merged value of every key with a bound is checked against it.
    """
    schema = _schema(command)
    merged = {key: default for key, (_conv, default, *_rest) in schema.items()}
    for key, value in file_cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown config key: {key!r}")
        conv = schema[key][0]
        try:
            merged[key] = conv(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for config key {key!r}: {err}") from err
    for key, value in flag_cfg.items():
        if value is not None:
            merged[key] = value
    for key, (_conv, _default, _help, *bound) in schema.items():
        if bound:
            _check_bound(key, merged[key], bound[0])
    return merged


def _check_bound(key: str, value, bound) -> None:
    # written as "not ..." so that a NaN fails too
    if bound == "positive":
        if not 0 < value < np.inf:
            raise ConfigError(f"config key {key!r} must be positive and finite, got {value}")
    elif not value >= bound:
        raise ConfigError(f"config key {key!r} must be at least {bound}, got {value}")


def _resolve_outdir(merged: dict) -> Path:
    out = merged.get("out") or os.environ.get(ENV_OUTDIR) or "rotnoise-results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _write_manifest(outdir: Path, command: str, merged: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in merged.items() if k != "out"},
        "output_directory": str(outdir),
        "versions": {
            "rotnoise": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand implementations: each returns its (file name, header, rows)
# tables and writes nothing


def _run_verify_rotation(merged: dict, rng: np.random.Generator):
    dim = merged["dim"]
    invariants = rotation_invariants(
        dim, gaussian_tangent(merged["sigma"]), merged["realizations"], int(merged["samples"]), rng
    )
    rows = [(name, dim, stat, bound, stat < bound) for name, stat, bound in invariants]
    failed = [f"{name} (statistic {stat!r}, bound {bound!r})" for name, _, stat, bound, ok in rows if not ok]
    if failed:
        raise FloatingPointError(f"rotation invariants exceeded their bounds: {', '.join(failed)}")
    return [("rotation_invariants.csv", ["invariant", "dim", "statistic", "bound", "passed"], rows)]


def _run_coadapt(merged: dict, rng: np.random.Generator):
    source = GaussianSource(equicorrelated(merged["dim"], merged["rho"]))
    rows = []
    for method in ("dropout", "rotation"):
        rep = verify_reduction(source, method, merged["keep_rate"], int(merged["samples"]), rng)
        rows.append((
            method, rep.keep_rate, rep.dim, rep.n_samples, rep.co_input, rep.co_output,
            rep.observed_factor, rep.predicted_factor, rep.stderr,
        ))
    header = ["method", "p", "D", "n", "co_in", "co_out", "factor_obs", "factor_pred", "stderr"]
    return [("coadaptation.csv", header, rows)]


def _run_linreg(merged: dict, rng: np.random.Generator):
    n, dim, lam = merged["n"], merged["dim"], merged["lambda"]
    rows = []
    for trial in range(merged["trials"]):
        x = rng.standard_normal((n, dim))
        if merged["degenerate_column"]:
            x[:, 0] *= 1e-8
        y = rng.standard_normal(n)
        kr, kd = condition_numbers(RegressionProblem(x, y, lam))
        rows.append((lam, "rotation", dim, n, kr))
        rows.append((lam, "dropout", dim, n, kd))
    return [("conditioning.csv", ["lambda", "method", "D", "N", "kappa"], rows)]


def _run_angle_demo(merged: dict, rng: np.random.Generator):
    mean, err = dropout_rotation_angle(
        merged["dim"], merged["keep_rate"], int(merged["samples"]), rng
    )
    w = rng.standard_normal((merged["classes"], merged["margin_dim"]))
    curve = margin_flip_curve(w, gaussian_tangent(merged["sigma"]), int(merged["flip_samples"]), rng)
    return [
        ("dropout_angle.csv", ["D", "p", "n", "cos2_mean", "stderr"],
         [(merged["dim"], merged["keep_rate"], int(merged["samples"]), mean, err)]),
        ("margin_flip.csv", ["margin", "flip_rate", "stderr"], [tuple(map(float, row)) for row in curve]),
    ]


def _run_var_shift(merged: dict, rng: np.random.Generator):
    dim, rho = merged["dim"], merged["rho"]
    if merged["source"] == "relu-random":
        source = ReluGaussianSource(random_correlation(dim, rng))
    elif merged["source"] == "relu-equicorr":
        source = ReluGaussianSource(equicorrelated(dim, rho))
    elif merged["source"] == "gaussian-equicorr":
        source = GaussianSource(equicorrelated(dim, rho))
    else:
        raise ConfigError(f"unknown value for config key 'source': {merged['source']!r}")
    rows = []
    for placement in ("dropout-a", "dropout-b"):
        report = variance_shift(
            placement, merged["centered"], merged["keep_rate"], source,
            n_rows=merged["rows"], rng=rng,
        )
        for unit in range(report.ratio.size):
            rows.append((
                placement, merged["centered"], merged["keep_rate"], dim, unit,
                float(report.var_train[unit]), float(report.var_test[unit]),
                float(report.ratio[unit]),
            ))
    header = ["placement", "centered", "p", "D", "unit", "var_train", "var_test", "ratio"]
    return [("variance_shift.csv", header, rows)]


def _bn_curve(merged: dict, rng: np.random.Generator):
    grid = np.arange(-merged["grid_max"], merged["grid_max"] + 1e-9, merged["grid_step"])
    return mc_nonlinearity_curve(
        merged["dist"], merged["batch"], rng, grid=grid, n_mc=int(merged["samples"])
    )


def _run_bn_curve(merged: dict, rng: np.random.Generator):
    curve = _bn_curve(merged, rng)
    columns = zip(curve.x_test, curve.f_expect, curve.f_var, curve.stderr)
    rows = [(curve.dist, curve.batch_size, *values) for values in columns]
    return [("bn_curve.csv", ["dist", "B", "x_test", "f_expect", "f_var", "stderr"], rows)]


def _run_bn_poly(merged: dict, rng: np.random.Generator):
    fit = fit_poly_correction(_bn_curve(merged, rng))
    return [("bn_poly.csv", ["B", "a1", "a3", "a5", "a7", "rmse"],
             [(merged["batch"], *fit.coeffs, fit.rmse)])]


def _run_cn_check(merged: dict, rng: np.random.Generator):
    grid = np.linspace(-merged["grid_max"], merged["grid_max"], merged["points"])
    curve = cross_normalization_curve(
        merged["batch"], rng, grid, int(merged["samples"]), merged["normalizer"]
    )
    rows = zip(grid, curve.f_expect, curve.stderr, affine_residuals(curve))
    return [("cn_linearity.csv", ["x1", "mean_output", "stderr", "fit_residual"], rows)]


def _run_noise_budget(merged: dict, rng: np.random.Generator):
    value, err = noise_budget(
        merged["batch"], merged["dist"], rng,
        n_outer=merged["outer"], n_inner=merged["inner"],
    )
    return [("noise_budget.csv", ["B", "dist", "n_outer", "n_inner", "budget", "stderr"],
             [(merged["batch"], merged["dist"], merged["outer"], merged["inner"], value, err)])]


def _run_train_demo(merged: dict, rng: np.random.Generator):
    config = TrainConfig(
        epochs=merged["epochs"], gap_window=merged["gap_window"],
        seed=merged["seed"], n_train=merged["n_train"],
    )
    spec = NoiseOpSpec("rotation", merged["keep_rate"], centered=True)
    rows, summary = train_and_report(
        [("baseline", None), ("rotation", spec)],
        config,
        hidden_widths=(merged["width"], merged["width"]),
        seeds=tuple(range(merged["seeds"])),
        record_every=merged["record_every"],
    )
    for label, stats in summary.items():
        print(f"{label}: gap {stats['gap_mean']:.4f} +- {stats['gap_sd']:.4f}")
    return [("train_demo.csv", ["regularizer", "strength", "seed", "epoch", "train_acc", "val_acc"], rows)]


_RUNNERS = {
    "verify-rotation": _run_verify_rotation,
    "coadapt": _run_coadapt,
    "linreg": _run_linreg,
    "angle-demo": _run_angle_demo,
    "var-shift": _run_var_shift,
    "bn-curve": _run_bn_curve,
    "bn-poly": _run_bn_poly,
    "cn-check": _run_cn_check,
    "noise-budget": _run_noise_budget,
    "train-demo": _run_train_demo,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotnoise", description="rotation-noise and dropout numerics experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SCHEMAS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", default=None, help="JSON config file")
        for key, (conv, default, help_text, *_bound) in _schema(command).items():
            flag = "--" + key.replace("_", "-")
            if conv is _bool:
                sp.add_argument(flag, default=None, type=_bool, nargs="?", const=True,
                                help=f"{help_text} (default {default})")
            else:
                sp.add_argument(flag, default=None, type=conv,
                                help=f"{help_text} (default {default})")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        file_cfg = load_config(args.config) if args.config else {}
        flag_cfg = {key: getattr(args, key) for key in _schema(command)}
        merged = merge_config(command, file_cfg, flag_cfg)
        tables = _RUNNERS[command](merged, np.random.default_rng(merged["seed"]))
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    # after the numerical branch: LinAlgError is a ValueError, and so is ConfigError
    except (ValueError, KeyError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    # the one write site, reached only once the runner has returned
    outdir = _resolve_outdir(merged)
    for name, header, rows in tables:
        _write_csv(outdir / name, header, rows)
    _write_manifest(outdir, command, merged)
    return 0


def main() -> None:
    sys.exit(run())
