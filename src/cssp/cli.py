"""Command-line front end: selection runs, bound reports, verification,
instance generation and benchmarking, with machine-readable output.

Column indices are 1-based in every report, matching the usual convention
for column selection write-ups; the library itself is 0-based.  Reports are
byte-stable across runs and thread counts: wall time is only included when
--timing is passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace

from .bounds import hard_instance_bounds, residual_bound, spectrum_info
from .errors import (
    AllCandidatesDegenerate,
    CertificateViolation,
    CsspError,
    DegenerateDirection,
    NoRootInRange,
    ZeroPolynomial,
)
from .instances import hard_instance, power_law, random_gaussian
from .linalg import _check_rank, gram_spectrum
from .mmio import load_matrix, save_matrix_market
from .oracle import IDENTITY_TOLERANCES, run_identity_suite
from .polynomial import DEFAULT_EPS
from .selector import _select, initial_state, select

# exit code 3; every other package error, ValueError and OSError exits 1
_NUMERICAL_ERRORS = (
    ZeroPolynomial,
    NoRootInRange,
    AllCandidatesDegenerate,
    DegenerateDirection,
    CertificateViolation,
)


def _parse_threads(value: str) -> int:
    if value == "auto":
        return os.cpu_count() or 1
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1 or 'auto'")
    return n


def _parse_eps(value: str) -> float:
    try:
        eps = float(value)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0.0):
        raise argparse.ArgumentTypeError(f"eps must be finite and positive, got {value!r}")
    return eps


def _spec_params(spec: str) -> tuple[str, dict]:
    """Split an instance spec like 'hard:d=4, delta=1' into its lower-cased
    kind and a dict of its key=value parameters, whitespace stripped."""
    kind, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"bad instance parameter {item!r}, expected key=value")
        params[key.strip()] = val.strip()
    return kind.strip().lower(), params


def parse_instance_spec(spec: str):
    """Build a matrix from a spec like 'hard:d=4,delta=1'.

    Kinds: hard (d, delta), power (n, d, t, s, c, seed) and random
    (n, d, seed).  Power defaults: t=min(n,d), s=2, c=1, seed=0.
    """
    kind, params = _spec_params(spec)
    try:
        if kind == "hard":
            return hard_instance(int(params["d"]), float(params.get("delta", 1.0)))
        if kind in ("power", "powerlaw"):
            n, d = int(params["n"]), int(params["d"])
            return power_law(n, d, int(params.get("t", min(n, d))),
                             float(params.get("s", 2.0)), float(params.get("c", 1.0)),
                             int(params.get("seed", 0)))
        if kind == "random":
            return random_gaussian(int(params["n"]), int(params["d"]),
                                   int(params.get("seed", 0)))
    except KeyError as missing:
        raise ValueError(f"instance {kind!r} needs parameter {missing}") from None
    raise ValueError(f"unknown instance kind {kind!r}; use hard, power or random")


def _get_matrix(args):
    if getattr(args, "instance", None):
        return parse_instance_spec(args.instance), f"instance:{args.instance}"
    matrix = load_matrix(args.input, transpose=getattr(args, "transpose", False))
    return matrix, str(args.input)


def _base_report(command: str, source: str, args) -> dict:
    return {
        "command": command,
        "input": source,
        "k": getattr(args, "k", None),
        "eps": getattr(args, "eps", None),
        "subset": None,
        "residual_sq": None,
        "bound": None,
        "applicable": None,
        "identities": None,
        "timing_ms": None,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
        return
    if fmt == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")  # quotes only fields with commas
        if report.get("rows") is not None:
            cols = list(report["rows"][0].keys())
            out.writerow(cols)
            out.writerows([row[c] for c in cols] for row in report["rows"])
        else:
            keys = [k for k, v in report.items() if v is not None and k != "identities"]
            out.writerow(keys)
            out.writerow([report[k] for k in keys])
        if report.get("identities"):
            out.writerow(["identity", "error", "tolerance", "status"])
            out.writerows([name, rec["error"], rec["tolerance"], "pass" if rec["pass"] else "FAIL"]
                          for name, rec in report["identities"].items())
        return
    # text
    for key, value in report.items():
        if value is None:
            continue
        if key == "identities":
            print("identities:")
            for name, rec in value.items():
                status = "pass" if rec["pass"] else "FAIL"
                print(f"  {name:32s} {rec['error']:.3e}  (tol {rec['tolerance']:.1e})  {status}")
        elif key == "rows":
            for row in value:
                print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        else:
            print(f"{key}: {value}")


def _cmd_select(args) -> int:
    matrix, source = _get_matrix(args)
    result = select(matrix, args.k, eps=args.eps)
    report = _base_report("select", source, args)
    bnd = residual_bound(spectrum_info(result.eigs), args.k)
    report.update(
        subset=[j + 1 for j in result.subset],
        residual_sq=result.residual_sq,
        bound=bnd.bound,
        applicable=bnd.applicable,
        iteration_roots=[r.value for r in result.iteration_roots],
    )
    if args.sqrt:
        report["residual"] = math.sqrt(result.residual_sq)
    if args.timing:
        report["timing_ms"] = result.elapsed * 1e3
    _emit(report, args.format)
    return 0


def _cmd_bound(args) -> int:
    matrix, source = _get_matrix(args)
    eigs, _ = gram_spectrum(matrix)
    _check_rank(args.k, eigs.size)
    bnd = residual_bound(spectrum_info(eigs), args.k)
    report = _base_report("bound", source, args)
    report.update(
        bound=bnd.bound,
        applicable=bnd.applicable,
        t=bnd.t,
        alpha=bnd.alpha,
        beta=bnd.beta,
        gamma=bnd.gamma,
    )
    lower = _hard_lower_bound(args, args.k)
    if lower is not None:
        report["lower_bound"] = lower
    _emit(report, args.format)
    return 0


def _hard_lower_bound(args, k):
    """The hard instance's lower bound at k for a hard --instance spec
    (already built by parse_instance_spec) with 1 <= k < d, else None."""
    kind, params = _spec_params(getattr(args, "instance", None) or "")
    d = int(params["d"]) if kind == "hard" else 0
    return hard_instance_bounds(d, float(params.get("delta", 1.0)), k)[1] if 1 <= k < d else None


def _cmd_verify(args) -> int:
    matrix, source = _get_matrix(args)
    suite = run_identity_suite(matrix, args.k, eps=args.eps)
    identities = {}
    all_pass = True
    for name, err in suite.identity_errors.items():
        tol = IDENTITY_TOLERANCES[name]
        ok = err <= tol
        all_pass = all_pass and ok
        identities[name] = {"error": err, "tolerance": tol, "pass": ok}
    report = _base_report("verify", source, args)
    report.update(
        subset=[j + 1 for j in suite.best_subset],
        residual_sq=suite.best_residual_sq,
        identities=identities,
    )
    _emit(report, args.format)
    return 0 if all_pass else 2


def _cmd_gen(args) -> int:
    matrix = parse_instance_spec(args.instance)
    save_matrix_market(args.output, matrix)
    report = _base_report("gen", f"instance:{args.instance}", args)
    report["output"] = str(args.output)
    report["shape"] = list(matrix.shape)
    _emit(report, args.format)
    return 0


def _cmd_bench(args) -> int:
    matrix, source = _get_matrix(args)
    state = initial_state(matrix)  # one spectrum and one QR for every k
    rank = state.eigs.size
    k_lo = args.kmin if args.kmin is not None else 1
    k_hi = args.kmax if args.kmax is not None else max(rank - 1, 1)
    if k_lo > k_hi:
        raise ValueError(f"empty k range: kmin={k_lo} > kmax={k_hi}")
    ks = range(k_lo, k_hi + 1)
    for k in ks:
        _check_rank(k, rank)
    info = spectrum_info(state.eigs)
    rows = []
    for k in ks:
        result = _select(matrix, replace(state, chosen=[]), k, args.eps, time.perf_counter())
        bnd = residual_bound(info, k)
        row = {"k": k, "residual_sq": result.residual_sq,
               "bound": bnd.bound, "applicable": bnd.applicable}
        lower = _hard_lower_bound(args, k)
        if lower is not None:
            row["lower_bound"] = lower
        rows.append(row)
    report = _base_report("bench", source, args)
    report["k"] = None
    report["rows"] = rows
    _emit(report, args.format)
    return 0


def _add_io_arguments(sub, need_k=True, instance_only=False, roots=True):
    if instance_only:
        sub.add_argument("--instance", required=True,
                         help="instance spec, e.g. hard:d=4,delta=1")
    else:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help="matrix file (Matrix Market or CSV)")
        group.add_argument("--instance",
                           help="instance spec, e.g. hard:d=4,delta=1 or random:n=6,d=6,seed=1")
        sub.add_argument("--transpose", action="store_true",
                         help="transpose the file after reading")
    if need_k:
        sub.add_argument("-k", type=int, required=True, help="number of columns to pick")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    if roots:  # gen and bound compute no root
        sub.add_argument("--eps", type=_parse_eps, default=DEFAULT_EPS,
                         help="root approximation tolerance (default 1e-9)")
        sub.add_argument("--threads", type=_parse_threads, default=1,
                         help="accepted (an integer >= 1 or 'auto') but has no effect: "
                              "every command runs on one thread")


@functools.cache  # parse_args leaves the parser as it is; building it dominates small calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cssp",
        description="Spectral-norm column subset selection with certified bounds.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_select = commands.add_parser("select", help="run the greedy selection")
    _add_io_arguments(p_select)
    p_select.add_argument("--sqrt", action="store_true",
                          help="also report the unsquared residual norm")
    p_select.add_argument("--timing", action="store_true",
                          help="include wall time (breaks byte-stable output)")
    p_select.set_defaults(func=_cmd_select)

    p_bound = commands.add_parser("bound", help="closed-form residual bound")
    _add_io_arguments(p_bound, roots=False)
    p_bound.set_defaults(func=_cmd_bound)

    p_verify = commands.add_parser("verify", help="run the oracle identity suite")
    _add_io_arguments(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = commands.add_parser("gen", help="write a generated instance to Matrix Market")
    _add_io_arguments(p_gen, need_k=False, instance_only=True, roots=False)
    p_gen.add_argument("-o", "--output", required=True, help="output path")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = commands.add_parser("bench", help="residual vs bound over a range of k")
    _add_io_arguments(p_bench, need_k=False)
    p_bench.add_argument("--kmin", type=int, default=None)
    p_bench.add_argument("--kmax", type=int, default=None)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CsspError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
