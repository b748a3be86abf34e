"""Closed-loop measurement of one workload: set-up, timed calls, checks
and the metrics the result line reports."""

from __future__ import annotations

import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import CheckFailed, OutputChecker
from cssp import cli, instances, mmio
from spans import PRUNED_LAYER, Tracer, layer_names
from workloads import Op, build_ops

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 9
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_CALLS = 100

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY = "selector.residual_over_opt"
# The one failure the program is known to report on valid input (ROADMAP
# item 1): the score-chain tripwire at the last iteration, which fires only
# after every candidate of the selection has been scored.
KNOWN_FAILURE_EXIT = 3
KNOWN_FAILURE = "numerical failure: score chain violated at iteration {k}:"


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in layer_names():
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
    units[QUALITY] = "ratio"
    units[f"{PRUNED_LAYER}.pruned"] = "calls/op"
    units[f"{PRUNED_LAYER}.prune_frac"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    return units


@dataclass
class Call:
    op: Op
    seconds: float
    exit_code: int | None  # None when cli.main raised
    stdout: str
    stderr: str
    failure: str | None = None
    residual_sq: float | None = None
    known_failure: bool = False

    @property
    def completed(self) -> bool:
        """The call did the whole selection: it succeeded, or it hit the
        known last-iteration tripwire."""
        return self.failure is None or self.known_failure


def _run_cli(argv: list[str]) -> tuple[float, int | None, str, str]:
    """One in-process `cssp` call, timed around cli.main alone."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed call, never an aborted run
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def _call(op: Op) -> Call:
    return Call(op, *_run_cli(op.argv))


def _closed_loop(ops: list[Op], seconds: float, tracer: Tracer | None):
    """One client, one call at a time, in whole passes over ops: at least
    one pass, and more until `seconds` have passed at the end of a pass, so
    every op weighs the same whatever the machine's speed.

    With a tracer, each untraced call is followed by the same call traced,
    so both halves of a pair run under the same machine conditions.
    """
    calls, traced = [], []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        for op in ops:
            calls.append(_call(op))
            if tracer is not None:
                with tracer:
                    traced.append(_call(op))
    return calls, traced, time.perf_counter() - start


def _judge(calls: list[Call], checker: OutputChecker) -> None:
    for c in calls:
        if c.exit_code == 0:
            try:
                c.residual_sq = checker.check(c.op, c.stdout)
            except CheckFailed as exc:
                c.failure = str(exc)
            continue
        last = (c.stderr.strip().splitlines() or [""])[-1]
        c.failure = f"{c.op.key}: exit {c.exit_code}: {last}"
        c.known_failure = (c.exit_code == KNOWN_FAILURE_EXIT
                           and last.startswith(KNOWN_FAILURE.format(k=c.op.k)))


def _setup(name: str, seed: int, tiny: bool, workdir: Path, src: Path):
    """Start a fresh interpreter that imports the program, write the
    inputs, compute their reference spectra and make one tiny warm-up
    call; return (seconds, ops)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cssp.cli"],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    ops = build_ops(name, seed, tiny, workdir)
    warm_path = workdir / "warmup.mtx"
    mmio.save_matrix_market(warm_path, instances.hard_instance(2, 1.0))
    if _run_cli(["select", "--input", str(warm_path), "-k", "1", "--format", "json"])[1] != 0:
        raise RuntimeError("warm-up call of cssp select failed")
    return time.perf_counter() - start, ops


def _median_per_op(calls: list[Call]) -> list[float]:
    """Each op's median call, so that every op weighs the same."""
    times = {}
    for c in calls:
        times.setdefault(c.op.key, []).append(c.seconds)
    return [statistics.median(t) for t in times.values()]


def _quality(calls: list[Call]) -> float:
    """Geometric mean of residual_sq / sigma_{k+1}^2 over ops with k < rank,
    one call per op.

    A failed call returns no subset, which leaves the user with the whole
    matrix, so it counts with the empty selection's residual ||A||_2^2.
    """
    first = {}
    for c in calls:
        first.setdefault(c.op.key, c)
    logs = [math.log((c.op.sigma_sq[0] if c.failure else c.residual_sq) / c.op.sigma_sq[c.op.k])
            for c in first.values() if c.op.k < c.op.rank]
    return math.exp(statistics.fmean(logs)) if logs else float("nan")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "threads": 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 root: Path, setup_reps: int = SETUP_REPS) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and report lines."""
    workdir = root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_setup(name, seed, tiny, workdir, root / "src") for _ in range(setup_reps)]
        ops = setups[-1][1]
        tracer = Tracer() if trace else None
        calls, traced, wall = _closed_loop(ops, seconds, tracer)
        attempted = calls + traced
        _judge(attempted, OutputChecker())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in attempted if c.failure]
    # Timing covers the calls that did the whole selection.  Any other
    # failure makes the run incorrect, so it never reads as a speed-up;
    # the timing then falls back to every call only to stay a number.
    timed = [c for c in calls if c.completed] or calls
    lines = [f"# env {environment(seed)}",
             f"# {name} seed={seed}: {len(calls)} timed calls in {wall:.3f} s "
             f"({len(traced)} traced), {len(failed)}/{len(attempted)} "
             f"failed (fail_frac {len(failed) / len(attempted):.4f})"]
    if failed:
        lines.append(f"# failed calls: median {statistics.median(c.seconds for c in failed)!r} s "
                     f"of {len(failed)}, {sum(c.known_failure for c in failed)} of them the "
                     f"known last-iteration score-chain tripwire")
    if trace:
        metrics = _layer_metrics(tracer, traced, calls)
        metrics[QUALITY] = _quality(traced)
        units = per_layer_units()
    else:
        metrics, units = {
            "solves_per_s": len(timed) / wall,
            "solve_s_p50": statistics.median(_median_per_op(timed)),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": peak_rss_mb,
        }, END_TO_END_UNITS
        if len(timed) >= P90_MIN_CALLS:
            p90 = statistics.quantiles([c.seconds for c in timed], n=10)[-1]
            lines.append(f"# solve_s_p90 {p90!r} s (of {len(timed)} calls)")
    lines += [f"{key} {metrics[key]!r} {unit}" for key, unit in units.items()]
    lines += [f"# failed: {reason}" for reason in sorted({c.failure for c in failed})[:8]]
    result = {
        "correct": all(c.completed for c in attempted),
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, lines


def _layer_metrics(tracer: Tracer, traced: list[Call], plain: list[Call]) -> dict:
    """Per-op means over the traced calls, and the tracing overhead against
    the untraced call of each pair."""
    n = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for layer, (count, self_s) in totals.items():
        metrics[f"{layer}.calls"] = count / n
        metrics[f"{layer}.self_s"] = self_s / n
    maxroot_calls = totals[PRUNED_LAYER][0]
    metrics[f"{PRUNED_LAYER}.pruned"] = tracer.pruned / n
    metrics[f"{PRUNED_LAYER}.prune_frac"] = tracer.pruned / maxroot_calls if maxroot_calls else 0.0
    metrics["trace.overhead_frac"] = (sum(c.seconds for c in traced)
                                      / sum(c.seconds for c in plain)) - 1.0
    return metrics
