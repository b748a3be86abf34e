"""Output checks for `cssp select --format json`, run outside timing.

The reference residual comes from `cssp.oracle.svd_residual_sq`, the
numpy SVD route that shares no code with the selector.
"""

from __future__ import annotations

import json
import math

from cssp.oracle import svd_residual_sq

# Allowed |reported residual - SVD residual|, as a share of ||A||_2^2.
# Both routes are backward stable, so they agree to a few hundred ulps of
# the largest squared singular value; 1e-9 leaves room for the Jacobi
# stopping rule without letting a wrong subset or a stale residual pass.
RESIDUAL_RTOL = 1e-9


class CheckFailed(Exception):
    """An output that a correct `cssp select` would not print."""


class OutputChecker:
    """Checks every output and requires identical bytes on each repeat."""

    def __init__(self):
        self._first: dict[str, str] = {}
        self._verified: dict[str, float] = {}

    def check(self, op, stdout: str) -> float:
        """Return the reported residual_sq, or raise CheckFailed."""
        first = self._first.setdefault(op.key, stdout)
        if stdout != first:
            raise CheckFailed(f"{op.key}: stdout differs from an earlier repeat")
        if op.key not in self._verified:
            self._verified[op.key] = _check_report(op, stdout)
        return self._verified[op.key]


def _check_report(op, stdout: str) -> float:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{op.key}: stdout is not JSON ({exc})") from None
    if not isinstance(report, dict):
        raise CheckFailed(f"{op.key}: stdout is not a JSON object")
    d = op.matrix.shape[1]
    subset = report.get("subset")
    if (not isinstance(subset, list) or len(subset) != op.k
            or not all(type(j) is int and 1 <= j <= d for j in subset)
            or len(set(subset)) != op.k):
        raise CheckFailed(f"{op.key}: subset {subset!r} is not {op.k} distinct indices in 1..{d}")
    residual = report.get("residual_sq")
    if not isinstance(residual, float) or not math.isfinite(residual):
        raise CheckFailed(f"{op.key}: residual_sq {residual!r} is not a finite number")
    reference = svd_residual_sq(op.matrix, [j - 1 for j in subset])
    if not abs(residual - reference) <= RESIDUAL_RTOL * op.sigma_sq[0]:
        raise CheckFailed(f"{op.key}: residual_sq {residual!r} != SVD residual {reference!r}")
    if report.get("applicable") is True:
        slack = report["bound"] + 2 * op.k * report["eps"]
        if not residual <= slack:
            raise CheckFailed(f"{op.key}: residual_sq {residual!r} > bound + 2*k*eps = {slack!r}")
    return residual
