"""Benchmark of the rotnoise lab: one workload in one process, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload overfit --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (the
median time of one round, from the first library call to the last
checked result), ``setup_s`` (the median, over fresh processes, of the
time from process start until numpy and rotnoise are imported and the
round's inputs are built) and ``peak_rss_mb`` (this process's resident-set
high-water mark at the end).  Rounds repeat, each on inputs drawn from
``(seed, round)``, while another round still fits in ``--seconds``; at
least one round runs.

With ``--trace 1`` untraced and traced rounds on the same inputs alternate,
and the run reports the per-layer metrics of ``tracing.PER_LAYER`` plus
the tracing overhead.  Traced outputs must equal untraced outputs, and the
counts of every traced round must agree, or the run fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The BLAS thread
count is fixed at min(2, nproc) before numpy is imported; nothing pins
CPUs or touches cgroups.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("overfit", "mc-bn", "closed-forms")
END_TO_END = (("wall_s", "s", "lower"), ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))
SETUP_PROBES = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=min(2, nproc()),
                        help="BLAS threads (default min(2, nproc))")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the benchmark's own tests")
    parser.add_argument("--mode", choices=("run", "setup", "traced-pass"), default="run",
                        help="setup and traced-pass are the child processes a run starts")
    return parser.parse_args(argv)


def child_command(args, mode: str, threads: int) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--mode", mode, "--threads", str(threads),
    ]


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until it has built its inputs."""
    start = time.perf_counter()
    with subprocess.Popen(child_command(args, "setup", args.threads), stdout=subprocess.PIPE,
                          text=True, env=child_env(args.threads)) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def one_thread_pass(args) -> dict:
    """One traced round in a fresh process with a single BLAS thread."""
    proc = subprocess.run(child_command(args, "traced-pass", 1), stdout=subprocess.PIPE,
                          text=True, env=child_env(1), timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread pass failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_threads_reported() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_set": args.threads,
        "blas_threads_reported": blas_threads_reported(),
        "nproc": nproc(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_pinning": "none: the benchmark pins no CPUs and touches no cgroups",
        "counts": "rows and bytes are computed from argument shapes, not measured",
    }


def one_round(workload, workloads, seed: int, k: int, tracer=None):
    """Build round ``k``'s inputs, then time its library calls, traced or not."""
    inputs = workload.build(workloads.make_rng(seed, k, 0))
    rng = workloads.make_rng(seed, k, 1)
    ops = workloads.Ops()
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        workload.run(inputs, rng, ops)
        elapsed = time.perf_counter() - start
    return elapsed, ops


def plain_rounds(workload, workloads, seed: int, seconds: float):
    """Untraced rounds on fresh inputs while another round fits in ``seconds``."""
    durations, total = [], workloads.Ops()
    begin = time.perf_counter()
    while True:
        elapsed, ops = one_round(workload, workloads, seed, len(durations))
        durations.append(elapsed)
        total.merge(ops)
        if time.perf_counter() - begin + elapsed > seconds:
            return durations, total


def traced_rounds(args, workload, workloads, tracing):
    """Pairs of untraced and traced rounds on round 0's inputs."""
    plain, traced, per_round, spans, total = [], [], [], [], workloads.Ops()
    begin = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        elapsed, reference = one_round(workload, workloads, args.seed, 0)
        plain.append(elapsed)
        tracer = tracing.Tracer(round_id=len(traced))
        elapsed, ops = one_round(workload, workloads, args.seed, 0, tracer)
        traced.append(elapsed)
        spans.extend(tracer.spans)
        per_round.append(tracing.layer_metrics(tracer.spans, workload.gap_window))
        total.merge(reference)
        total.merge(ops)
        if ops.digests != reference.digests:
            print("perfbench: traced outputs differ from untraced outputs", file=sys.stderr)
            total.failed += 1
        if time.perf_counter() - begin + (time.perf_counter() - pair_start) > args.seconds:
            break

    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if tracing.is_count(name):
            if len(set(values)) != 1:
                print(f"perfbench: count {name} differs between traced rounds: {values}", file=sys.stderr)
                total.failed += 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["network.forward_eval.busy_s_1thread"] = 0.0
    if metrics["network.forward_eval.calls"]:
        single = one_thread_pass(args)
        total.attempted += single["attempted"]
        total.failed += single["failed"]
        metrics["network.forward_eval.busy_s_1thread"] = single["metrics"]["network.forward_eval.busy_s"]
    tracing.write_spans(tracing.spans_path(OUT_DIR, args.workload, args.seed), spans)
    return metrics, total, {"untraced rounds s": plain, "traced rounds s": traced}


def report(args, metrics: dict, units: dict, ops, info: dict, env: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value!r} {units[name]}")
    print(f"  {'ops_failed / ops_attempted':48s} {ops.failed} / {ops.attempted} count")
    for key, value in {**info, **ops.counts, **ops.worst}.items():
        print(f"  info: {key}: {value}")
    print(json.dumps({"environment": env}))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotnoise" / "__init__.py").is_file():
        print(f"perfbench: rotnoise sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: str(args.threads) for var in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(ROOT)]

    import numpy as np
    import rotnoise

    if Path(rotnoise.__file__).resolve().parent != (SRC / "rotnoise").resolve():
        print(f"perfbench: imported rotnoise from {rotnoise.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS[args.workload](args.size, OUT_DIR)
    if args.mode == "setup":
        workload.build(workloads.make_rng(args.seed, 0, 0))
        print("ready", flush=True)
        return 0
    if args.mode == "traced-pass":
        tracer = tracing.Tracer()
        _, ops = one_round(workload, workloads, args.seed, 0, tracer)
        metrics = tracing.layer_metrics(tracer.spans, workload.gap_window)
        print(json.dumps({"attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}))
        return 0

    env = environment(args, np)
    if args.trace:
        metrics, ops, info = traced_rounds(args, workload, workloads, tracing)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: metrics[name] for name in units}
    else:
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        durations, ops = plain_rounds(workload, workloads, args.seed, args.seconds)
        metrics = {
            "wall_s": statistics.median(durations),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        info = {"rounds s": durations, "setup probes s": setup}
    report(args, metrics, units, ops, info, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
