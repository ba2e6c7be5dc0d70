"""Self-tests of the benchmark: tiny runs, wrapper hygiene, output checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotnoise
from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def bench(*args, cwd=ROOT):
    """The benchmark command as the contract runs it, from the root of ``cwd``."""
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_checked_result(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "overfit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _bindings():
    """Every attribute of every rotnoise module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "rotnoise" or name.startswith("rotnoise."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
                if inspect.isclass(value) and value.__module__.startswith("rotnoise"):
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_tracer_wraps_every_binding_site_and_restores_it():
    from rotnoise import batchnorm, cli, coadapt, linreg, network, noise_ops, rotation, sources

    before = _bindings()
    original = rotation.sample_batch_rotation
    with tracing.Tracer() as tracer:
        for mod in (rotation, noise_ops, linreg, cli, rotnoise):
            assert mod.sample_batch_rotation is not original
        for name, home in (("cross_normalize", batchnorm), ("noise_budget", batchnorm),
                           ("verify_reduction", coadapt)):
            assert getattr(cli, name) is getattr(home, name) is not before[(home.__name__, name)]
        assert "apply" in vars(rotation.BatchRotation)
        assert vars(rotation.BatchRotation)["apply"].__wrapped__ is before[
            ("rotnoise.rotation", "BatchRotation", "apply")]
        for cls in (noise_ops.Centered, noise_ops.RotationOut, network.Network, sources.GaussianSource):
            assert any(owner is cls for owner, _, _ in tracer.patches)
        assert len(tracer.patches) > 50
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_round_matches_untraced_and_counts_repeat(tmp_path):
    workload = workloads.ClosedForms("tiny", tmp_path)
    _, plain = run.one_round(workload, workloads, 5, 0)
    counts = []
    for round_id in range(2):
        tracer = tracing.Tracer(round_id)
        _, ops = run.one_round(workload, workloads, 5, 0, tracer)
        assert ops.digests == plain.digests and ops.failed == 0
        metrics = tracing.layer_metrics(tracer.spans)
        counts.append({k: v for k, v in metrics.items() if tracing.is_count(k)})
    assert counts[0] == counts[1]
    size = workload.size
    assert counts[0]["linreg.marginalized_gradient.rotation_calls"] == size["problems"] * size["trials"]
    assert counts[0]["sources.sample.rows"] == 2 * size["reduction_draws"]
    assert counts[0]["rotation.sample_batch_rotation.rng_words"] > 0


def test_eval_useful_ratio_is_gap_window_over_epochs(tmp_path):
    workload = workloads.Overfit("tiny", tmp_path)
    tracer = tracing.Tracer()
    _, ops = run.one_round(workload, workloads, 2, 0, tracer)
    metrics = tracing.layer_metrics(tracer.spans, workload.gap_window)
    assert ops.failed == 0
    assert metrics["network.eval_useful_ratio"] == pytest.approx(
        workload.gap_window / workload.size["epochs"]
    )
    assert metrics["network.forward_train.calls"] > 0


def test_rng_words_count_sfc64_outputs():
    rng = workloads.make_rng(0)
    before = tracing._rng_counter(rng)
    rng.random(1000)
    assert tracing._rng_counter(rng) - before == 1000
    assert tracing._rng_counter(np.random.default_rng(0)) is None


def test_corrupted_poly_coefficient_counts_as_failed(tmp_path, monkeypatch):
    genuine = rotnoise.fit_poly_correction

    def corrupted(curve):
        fit = genuine(curve)
        coeffs = fit.coeffs.copy()
        coeffs[3] = workloads.McBn.REPORTED[3] + 4 * workloads.McBn.SPREAD[3]  # beyond the gate
        return type(fit)(coeffs=coeffs, rmse=fit.rmse)

    monkeypatch.setattr(rotnoise, "fit_poly_correction", corrupted)
    _, ops = run.one_round(workloads.McBn("tiny", tmp_path), workloads, 1, 0)
    assert ops.failed == 1
    assert ops.attempted == 5


def test_raising_call_counts_as_failed():
    ops = workloads.Ops()
    assert ops.run("boom", lambda: 1 / 0, lambda r: True) is None
    ops.run("fine", lambda: 1.0, lambda r: r == 1.0)
    assert (ops.attempted, ops.failed) == (2, 1)
