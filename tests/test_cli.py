import csv
import json

import numpy as np
import pytest

from rotnoise import cli, fit_poly_correction, mc_nonlinearity_curve
from rotnoise.cli import ConfigError, load_config, merge_config, run


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# config handling


def test_empty_config_file_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("")
    assert load_config(cfg) == {}
    merged = merge_config("coadapt", {}, {})
    assert merged["dim"] == 8
    assert merged["seed"] == 0


def test_unknown_config_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="rho_typo"):
        merge_config("coadapt", {"rho_typo": 0.5}, {})


def test_flag_overrides_file_value():
    merged = merge_config("coadapt", {"dim": 4}, {"dim": 6})
    assert merged["dim"] == 6


def test_file_value_overrides_default():
    merged = merge_config("coadapt", {"dim": 4}, {"dim": None})
    assert merged["dim"] == 4


def test_config_parse_error_reports_line(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(cfg)


def test_bad_value_type_is_named():
    with pytest.raises(ConfigError, match="'dim'"):
        merge_config("coadapt", {"dim": "eight"}, {})


@pytest.mark.parametrize(
    "file_cfg, flag_cfg", [({"trials": 0}, {}), ({}, {"trials": 0}), ({"trials": 0}, {"trials": None})]
)
def test_out_of_range_value_is_named_from_file_or_flag(file_cfg, flag_cfg):
    with pytest.raises(ConfigError, match="'trials' must be at least 1, got 0"):
        merge_config("linreg", file_cfg, flag_cfg)
    assert merge_config("linreg", {"trials": 0}, {"trials": 1})["trials"] == 1


# ---------------------------------------------------------------------------
# subcommand runs (tiny budgets)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code = run(["coadapt", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def boom(merged, rng):
        raise FloatingPointError("synthetic numerical failure")

    monkeypatch.setitem(cli._RUNNERS, "coadapt", boom)
    code = run(["coadapt", "--samples", "100", "--out", str(tmp_path)])
    assert code == 3
    assert not (tmp_path / "manifest.json").exists()


def test_failure_after_the_first_table_writes_nothing(tmp_path, monkeypatch):
    # dropout_angle.csv's estimate is done before the flip-rate curve fails
    def boom(*args):
        raise FloatingPointError("synthetic flip-rate failure")

    monkeypatch.setattr(cli, "margin_flip_curve", boom)
    out = tmp_path / "out"
    code = run(["angle-demo", "--dim", "64", "--samples", "500", "--out", str(out)])
    assert code == 3
    assert not (out / "dropout_angle.csv").exists()
    assert not (out / "manifest.json").exists()


def test_failed_rotation_invariant_is_named_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def one_failing(dim, angles, n_realizations, n_samples, rng):
        return [("dense-equivalence", 0.0, 1e-12), ("roundtrip", 0.5, 1e-12),
                ("zero-centered-mean", 1.0, 4.0)]

    monkeypatch.setattr(cli, "rotation_invariants", one_failing)
    code = run(["verify-rotation", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "roundtrip (statistic 0.5, bound 1e-12)" in err
    assert "dense-equivalence" not in err and "zero-centered-mean" not in err
    assert list(tmp_path.iterdir()) == []


def test_verify_rotation_run(tmp_path):
    code = run([
        "verify-rotation", "--dim", "8", "--sigma", "0.5",
        "--samples", "5e3", "--realizations", "20",
        "--seed", "7", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "rotation_invariants.csv")
    assert header == ["invariant", "dim", "statistic", "bound", "passed"]
    assert all(r[-1] == "True" for r in rows)
    for row in rows:  # plain float reprs, not numpy scalar reprs
        float(row[2]), float(row[3])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert "numpy" in manifest["versions"]


def test_coadapt_run_schema(tmp_path):
    code = run(["coadapt", "--samples", "2e4", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "coadaptation.csv")
    assert header == ["method", "p", "D", "n", "co_in", "co_out", "factor_obs", "factor_pred", "stderr"]
    assert {r[0] for r in rows} == {"dropout", "rotation"}


def test_linreg_run(tmp_path):
    code = run(["linreg", "--trials", "3", "--degenerate-column", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "conditioning.csv")
    assert header == ["lambda", "method", "D", "N", "kappa"]
    rot = [float(r[4]) for r in rows if r[1] == "rotation"]
    drop = [float(r[4]) for r in rows if r[1] == "dropout"]
    assert all(k <= 5 + 1e-9 for k in rot)
    assert all(k > 1e6 for k in drop)


def test_angle_demo_run(tmp_path):
    code = run([
        "angle-demo", "--dim", "128", "--samples", "500",
        "--flip-samples", "500", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "dropout_angle.csv")
    assert header == ["D", "p", "n", "cos2_mean", "stderr"]
    header, rows = read_csv(tmp_path / "margin_flip.csv")
    assert header == ["margin", "flip_rate", "stderr"]
    assert len(rows) == 20


def test_var_shift_run(tmp_path):
    code = run([
        "var-shift", "--dim", "16", "--rows", "32", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "variance_shift.csv")
    assert header == ["placement", "centered", "p", "D", "unit", "var_train", "var_test", "ratio"]
    assert len(rows) == 2 * 32


def test_bn_curve_run(tmp_path):
    code = run([
        "bn-curve", "--samples", "2000", "--grid-max", "1.0", "--grid-step", "0.5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "bn_curve.csv")
    assert header == ["dist", "B", "x_test", "f_expect", "f_var", "stderr"]
    assert len(rows) == 5


def test_bn_poly_run(tmp_path):
    code = run(["bn-poly", "--samples", "2000", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "bn_poly.csv")
    assert header == ["B", "a1", "a3", "a5", "a7", "rmse"]
    assert float(rows[0][1]) == pytest.approx(1.09, abs=0.05)


@pytest.mark.parametrize("seed, batch", [(0, 8), (5, 16)])
def test_bn_poly_columns_are_the_fit_coefficients_in_order(tmp_path, seed, batch):
    code = run(["bn-poly", "--seed", str(seed), "--batch", str(batch), "--samples", "2e3",
                "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_csv(tmp_path / "bn_poly.csv")
    # the same curve from the library: bn-poly's default window, grid and budget
    grid = np.arange(-3.3, 3.3 + 1e-9, 0.05)
    curve = mc_nonlinearity_curve("gaussian", batch, np.random.default_rng(seed), grid=grid, n_mc=2000)
    fit = fit_poly_correction(curve)
    assert rows[0][1:5] == [repr(float(c)) for c in fit.coeffs]
    assert rows[0][5] == repr(fit.rmse)


def test_cn_check_run(tmp_path):
    code = run(["cn-check", "--samples", "3000", "--points", "5", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "cn_linearity.csv")
    assert header == ["x1", "mean_output", "stderr", "fit_residual"]
    assert len(rows) == 5


def test_noise_budget_run(tmp_path):
    code = run(["noise-budget", "--outer", "100", "--inner", "300", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "noise_budget.csv")
    assert header == ["B", "dist", "n_outer", "n_inner", "budget", "stderr"]
    assert 0.1 < float(rows[0][4]) < 0.25


@pytest.mark.parametrize(
    "argv, csv_name",
    [
        (["bn-curve", "--samples", "1"], "bn_curve.csv"),
        (["bn-poly", "--samples", "1"], "bn_poly.csv"),
        (["noise-budget", "--inner", "1"], "noise_budget.csv"),
        (["noise-budget", "--outer", "1"], "noise_budget.csv"),
        (["cn-check", "--samples", "1"], "cn_linearity.csv"),
        (["verify-rotation", "--samples", "1"], "rotation_invariants.csv"),
        (["angle-demo", "--samples", "1"], "dropout_angle.csv"),
        (["angle-demo", "--flip-samples", "1"], "margin_flip.csv"),
        (["coadapt", "--samples", "10"], "coadaptation.csv"),
    ],
)
def test_degenerate_monte_carlo_budget_exits_2(tmp_path, capsys, argv, csv_name):
    code = run([*argv, "--out", str(tmp_path)])
    assert code == 2
    # each of verify_reduction's 20 chunks needs two rows
    least = 40 if argv[0] == "coadapt" else 2
    assert f"must be at least {least}," in capsys.readouterr().err
    assert not (tmp_path / csv_name).exists()


@pytest.mark.parametrize(
    "argv, csv_name, message",
    [
        (["bn-curve", "--grid-step", "0"], "bn_curve.csv", "'grid_step' must be positive"),
        (["bn-poly", "--grid-step", "0"], "bn_poly.csv", "'grid_step' must be positive"),
        (["bn-curve", "--grid-max", "-1"], "bn_curve.csv", "'grid_max' must be positive"),
        (["bn-poly", "--grid-max", "0"], "bn_poly.csv", "'grid_max' must be positive"),
        (["cn-check", "--points", "0", "--samples", "2e3"], "cn_linearity.csv", "at least 3 grid points"),
        (["cn-check", "--points", "1", "--samples", "2e3"], "cn_linearity.csv", "at least 3 grid points"),
        (["cn-check", "--points", "2", "--samples", "2e3"], "cn_linearity.csv", "at least 3 grid points"),
        (["linreg", "--trials", "0"], "conditioning.csv", "'trials' must be at least 1"),
        (["linreg", "--trials", "-1"], "conditioning.csv", "'trials' must be at least 1"),
        (["train-demo", "--seeds", "0"], "train_demo.csv", "at least one seed"),
        (["train-demo", "--epochs", "0"], "train_demo.csv", "epochs must be at least 1"),
        (["coadapt", "--dim", "1"], "coadaptation.csv", "needs dim of at least 2, got 1"),
        (["angle-demo", "--classes", "0"], "dropout_angle.csv", "'classes' must be at least 2"),
        (["angle-demo", "--margin-dim", "1"], "dropout_angle.csv", "'margin_dim' must be at least 2"),
        (["var-shift", "--rows", "0"], "variance_shift.csv", "n_rows must be at least 1, got 0"),
        (["cn-check", "--batch", "2"], "cn_linearity.csv", "batch of at least 5, got batch_size 2"),
        (["cn-check", "--grid-max", "0"], "cn_linearity.csv", "'grid_max' must be positive"),
        (["train-demo", "--n-train", "0"], "train_demo.csv", "n_train must be at least 2, got 0"),
        (["train-demo", "--record-every", "-1"], "train_demo.csv", "record_every must be at least 0, got -1"),
        (["train-demo", "--gap-window", "0"], "train_demo.csv", "gap_window must be at least 1, got 0"),
        (["var-shift", "--dim", "0", "--rows", "4"], "variance_shift.csv", "with positive trace"),
        (["cn-check", "--grid-max", "inf", "--samples", "2e3"], "cn_linearity.csv",
         "'grid_max' must be positive and finite"),
        (["bn-curve", "--grid-max", "inf"], "bn_curve.csv", "'grid_max' must be positive and finite"),
        (["bn-curve", "--grid-step", "inf"], "bn_curve.csv", "'grid_step' must be positive and finite"),
        (["var-shift", "--rows", "-1"], "variance_shift.csv", "n_rows must be at least 1, got -1"),
        (["cn-check", "--batch", "-1"], "cn_linearity.csv", "batch of at least 5, got batch_size -1"),
        (["train-demo", "--n-train", "-1"], "train_demo.csv", "n_train must be at least 2, got -1"),
        (["linreg", "--lambda", "nan", "--trials", "2"], "conditioning.csv",
         "lam must be nonnegative and finite, got nan"),
        (["linreg", "--lambda", "inf", "--trials", "2"], "conditioning.csv",
         "lam must be nonnegative and finite, got inf"),
    ],
)
def test_degenerate_setting_exits_2(tmp_path, capsys, argv, csv_name, message):
    code = run([*argv, "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / csv_name).exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("coadapt", "dim", 1, "needs dim of at least 2, got 1"),
        ("var-shift", "rows", 0, "n_rows must be at least 1, got 0"),
        ("cn-check", "batch", 2, "batch of at least 5, got batch_size 2"),
        ("train-demo", "n_train", 1, "n_train must be at least 2, got 1"),
        ("train-demo", "record_every", -1, "record_every must be at least 0, got -1"),
        ("train-demo", "gap_window", 0, "gap_window must be at least 1, got 0"),
    ],
)
def test_value_the_library_refuses_is_named_from_the_config_file(
    tmp_path, capsys, command, key, value, message
):
    # these keys carry no bound of their own: the library call that receives
    # the value names it
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    code = run([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("verify-rotation", "samples"),
        ("coadapt", "samples"),
        ("angle-demo", "samples"),
        ("angle-demo", "flip_samples"),
        ("bn-curve", "samples"),
        ("bn-poly", "samples"),
        ("cn-check", "samples"),
    ],
)
def test_non_finite_budget_is_named_and_writes_nothing(tmp_path, capsys, command, key, value):
    code = run([command, "--" + key.replace("_", "-"), value, "--out", str(tmp_path)])
    assert code == 2
    assert f"config key {key!r} must be positive and finite, got {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("realizations", ["0", "-3"])
def test_verify_rotation_without_a_realization_exits_2(tmp_path, capsys, realizations):
    code = run(["verify-rotation", "--realizations", realizations, "--out", str(tmp_path)])
    assert code == 2
    assert "n_realizations must be at least 1, got" in capsys.readouterr().err
    assert not (tmp_path / "rotation_invariants.csv").exists()


def test_train_demo_run(tmp_path):
    code = run([
        "train-demo", "--epochs", "1", "--seeds", "1", "--width", "8",
        "--n-train", "20", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "train_demo.csv")
    assert header == ["regularizer", "strength", "seed", "epoch", "train_acc", "val_acc"]
    assert {r[0] for r in rows} == {"baseline", "rotation"}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify-rotation", "--samples", "2e3", "--realizations", "5"], id="verify-rotation"),
        pytest.param(["verify-rotation", "--dim", "7", "--samples", "2e3", "--realizations", "5"],
                     id="verify-rotation-odd-dim"),
        pytest.param(["coadapt", "--samples", "1e4"], id="coadapt"),
        pytest.param(["linreg", "--trials", "3"], id="linreg"),
        pytest.param(["angle-demo", "--dim", "64", "--samples", "500", "--flip-samples", "300"],
                     id="angle-demo"),
        pytest.param(["var-shift", "--dim", "8", "--rows", "16"], id="var-shift"),
        pytest.param(["bn-curve", "--samples", "2000", "--grid-max", "1.0", "--grid-step", "0.5"],
                     id="bn-curve"),
        pytest.param(["bn-poly", "--samples", "2000"], id="bn-poly"),
        pytest.param(["cn-check", "--samples", "2e3", "--points", "5"], id="cn-check"),
        pytest.param(["noise-budget", "--outer", "50", "--inner", "100"], id="noise-budget"),
        pytest.param(["train-demo", "--epochs", "1", "--seeds", "1", "--width", "8", "--n-train", "20"],
                     id="train-demo"),
    ],
)
def test_reruns_are_byte_identical(tmp_path, argv):
    bodies = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run([*argv, "--seed", "3", "--out", str(out)]) == 0
        bodies.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
    assert bodies[0] and bodies[0] == bodies[1]


def test_outdir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.ENV_OUTDIR, str(target))
    code = run(["noise-budget", "--outer", "20", "--inner", "100"])
    assert code == 0
    assert (target / "noise_budget.csv").exists()


@pytest.mark.parametrize("command, flag", [("bn-curve", "--plot"), ("var-shift", "--mc")])
def test_removed_keys_are_rejected(tmp_path, command, flag):
    with pytest.raises(SystemExit):
        run([command, flag, "1", "--out", str(tmp_path)])
    key = flag.lstrip("-")
    with pytest.raises(ConfigError, match=key):
        merge_config(command, {key: 1}, {})
