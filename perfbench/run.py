"""cssp benchmark: certified-solve time, failures and quality on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload anchor-power64 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # each workload in a fresh process
    python3 perfbench/run.py --smoke                    # tiny sizes, checks and tracer

Every operation is one in-process call of
cssp.cli.main(["select", "--input", <file>, "-k", <k>, "--format", "json"])
on a Matrix Market file written during set-up, in a closed loop with one
client and BLAS pinned to one thread.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workload_names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size, traced and untraced, and "
                             "check the result lines against BENCHMARK.json")
    return parser.parse_args(argv)


def _run_all(args, workload_names) -> int:
    """Each workload in its own process, so set-up and peak RSS are its own."""
    results = {}
    for name in workload_names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def _smoke(run_workload, workload_names) -> int:
    """Tiny sizes of all four workloads, untraced and traced."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {trace: {m["name"]: m["unit"] for m in declared[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    if [w["name"] for w in declared["workloads"]] != workload_names:
        problems.append("workloads differ from BENCHMARK.json")
    for name in workload_names:
        for trace in (0, 1):
            result, lines = run_workload(name, 1, 0.2, bool(trace), True, ROOT, setup_reps=1)
            print("\n".join(lines))
            metrics = result["metrics"]
            if {key: m["unit"] for key, m in metrics.items()} != expected[trace]:
                problems.append(f"{name} trace={trace}: metric names or units differ "
                                f"from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result}")
            if any(not isinstance(m["value"], float) for m in metrics.values()):
                problems.append(f"{name} trace={trace}: non-float metric value")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "cssp" / "__init__.py").is_file():
        print(f"error: no cssp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import run_workload
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    args = _parse_args(argv, names)
    if args.smoke:
        return _smoke(run_workload, names)
    if args.workload == "all":
        return _run_all(args, names)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 False, ROOT)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
