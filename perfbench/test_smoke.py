"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cssp.linalg  # noqa: E402
from spans import Tracer  # noqa: E402


def test_smoke_mode_runs_every_workload_checked_and_traced():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")


def test_tracer_reports_zero_calls_for_names_that_are_gone():
    original = cssp.linalg.gram
    sites = (
        ("cssp.selector", "no_such_function", "selector.no_such_function"),
        ("cssp.no_such_module", "f", "no_such_module.f"),
        ("cssp.linalg", "gram", "linalg.gram"),
    )
    with Tracer(sites) as tracer:
        cssp.linalg.gram(np.eye(2))
    assert cssp.linalg.gram is original
    totals = tracer.layer_totals()
    assert totals["selector.no_such_function"] == (0, 0.0)
    assert totals["no_such_module.f"] == (0, 0.0)
    assert totals["linalg.gram"][0] == 1


def test_only_the_known_last_iteration_tripwire_counts_as_a_completed_failure():
    from harness import Call, _judge
    from workloads import Op

    op = Op("m:k=3", "m.mtx", 3, np.eye(3), np.ones(3), 3)
    tripwire = "numerical failure: score chain violated at iteration {}: 0.7 > 0.1 + 2*eps\n"
    calls = [Call(op, 1.0, 3, "", tripwire.format(3)),
             Call(op, 1.0, 3, "", tripwire.format(2)),
             Call(op, 1.0, 1, "", "error: something else\n"),
             Call(op, 1.0, None, "", "Traceback ...\nTypeError: boom\n")]
    _judge(calls, None)
    assert all(c.failure for c in calls)
    assert [c.completed for c in calls] == [True, False, False, False]
