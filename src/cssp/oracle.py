"""Exhaustive optima and identity checks for desk-scale instances.

Everything here exists to certify the fast path from an independent angle:
residuals come from numpy's SVD and pseudoinverse or from A deflated by
rank-one updates, never from the QR basis of `linalg`, determinants are
cross-checked between a factored product and numpy, and the operator
identity is tested against a literal weighted subset sum.  Each subset's
residual Q_S A comes from the rank-one updates of its factored determinant,
one per column under one rank tolerance of A, in O(n d) memory: no n x n
projector and no SVD of A per subset.  Every rank and tolerance comes from
one `gram_spectrum`: of the input, or of its rescaled copy in the suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import spectrum_info
from .errors import EmptySpectrum, NotFullColumnRank, TooManySubsets
from .linalg import (
    MACHINE_EPS,
    _check_rank,
    _unit_exponent,
    as_matrix,
    char_poly,
    check_subset,
    gram,
    gram_spectrum,
    sym_eigenvalues,
    symmetrize,
)
from .polynomial import DEFAULT_EPS, derivative, flip, maxroot, minroot, polar_power

ENUMERATION_CAP = 10**6

# pass/fail thresholds used by the verification suite (max relative error)
IDENTITY_TOLERANCES = {
    "expected_poly_vs_operator": 1e-7,
    "weighted_step_sum": 1e-7,
    "alpha_as_expectation": 1e-7,
    "frobenius_expectation": 1e-7,
    "det_factorization": 1e-8,
    "subset_det_sum_two_routes": 1e-8,
    "restricted_invertibility": 1e-6,
    "reciprocal_root": 1e-6,
}


@dataclass(frozen=True)
class OracleReport:
    best_subset: list[int]
    best_residual_sq: float
    identity_errors: dict


def _require_enumerable(d: int, k: int) -> int:
    total = math.comb(d, k)
    if total > ENUMERATION_CAP:
        raise TooManySubsets(f"C({d},{k}) = {total} subsets exceed the {ENUMERATION_CAP} cap")
    return total


def _volume_weighted(arr: np.ndarray, k: int, tol: float):
    """(subset, det(A_S^T A_S), Q_S A) per k-subset of columns with a nonzero
    determinant, in lexicographic order, under the rank tolerance tol of A."""
    d = arr.shape[1]
    _require_enumerable(d, k)
    weighted = ((s, *_deflated(arr, s, tol))
                for s in itertools.combinations(range(d), k))
    return (w for w in weighted if w[1] != 0.0)


def _residual_poly(resid: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of A^T Q A = (Q A)^T (Q A), given Q A."""
    return char_poly(symmetrize(resid.T @ resid))


def svd_residual_sq(a, cols) -> float:
    """Squared spectral residual through numpy's SVD and pseudoinverse.

    Deliberately shares no code with the QR basis of
    `linalg.residual_spectral_sq`, which it checks.
    """
    arr = as_matrix(a)
    cols = list(cols)
    if cols:
        sub = arr[:, cols]
        resid = arr - sub @ (np.linalg.pinv(sub) @ arr)
    else:
        resid = arr
    return float(np.linalg.svd(resid, compute_uv=False)[0] ** 2)


def brute_force_best(a, k: int):
    """Exact optimum over all k-subsets: (subset, squared residual).

    Residuals within 16 eps ||A||_F^2 of the least one tie, and ties
    resolve to the lexicographically smallest subset, not by rounding.
    """
    arr = as_matrix(a)
    d = arr.shape[1]
    k = int(k)
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
    _require_enumerable(d, k)
    scored = [(svd_residual_sq(arr, s), s) for s in itertools.combinations(range(d), k)]
    e = int(np.frexp(np.max(np.abs(arr)))[1])  # summed on 2^-e A, where no square overflows
    cutoff = min(scored)[0] + np.ldexp(16 * MACHINE_EPS * np.sum(np.ldexp(arr, -e) ** 2), 2 * e)
    return next((list(s), res) for res, s in scored if res <= cutoff)


def gram_det_factored(a, cols) -> float:
    """det(A_S^T A_S) as a product of squared projected-column norms.

    Each accepted column multiplies in the squared norm of its component
    orthogonal to the span so far; a dependent column makes the determinant
    zero.  Stabler than forming the Gram submatrix and also exercises the
    determinant factorization the expected-polynomial identity relies on.
    """
    arr = as_matrix(a)
    idx = check_subset(cols, arr.shape[1])
    return _deflated(arr, idx, gram_spectrum(arr)[1])[0]


def _deflated(resid: np.ndarray, idx, tol: float) -> tuple[float, np.ndarray]:
    """(det, Q resid) for the columns idx, one rank-one update each: u, column
    j of the residual so far, is the part of a_j outside the span so far; det
    takes |u|^2 and resid becomes resid - u (u^T resid) / |u|^2.  A column
    with |u| <= tol is skipped and makes det zero.  From A this gives
    det(A_S^T A_S) and Q_S A."""
    det = 1.0
    for j in idx:
        u = resid[:, j]
        nu2 = float(u @ u)
        if np.sqrt(nu2) <= tol:
            det = 0.0
            continue
        det *= nu2
        resid = resid - np.outer(u, (u @ resid) / nu2)
    return det, resid


def expected_poly_bruteforce(a, k: int) -> np.ndarray:
    """k! times the determinant-weighted sum of subset residual polynomials.

    Enumerates every k-subset; equals the k-th polar-operator power of the
    full Gram characteristic polynomial, which is exactly what the identity
    tests assert.
    """
    arr = as_matrix(a)
    k = int(k)
    acc = np.zeros(arr.shape[1] + 1)
    for _, det, resid in _volume_weighted(arr, k, gram_spectrum(arr)[1]):
        acc += det * _residual_poly(resid)
    return math.factorial(k) * acc


def gram_det_sum(a, k: int) -> float:
    """Sum of det(A_S^T A_S) over k-subsets, via the eigenvalue route.

    Equals the elementary symmetric polynomial of the positive Gram
    eigenvalues (of `gram_spectrum`), so it stays cheap at any width.
    """
    arr = as_matrix(a)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    return _esym(gram_spectrum(arr)[0], k)


def _esym(eigs: np.ndarray, k: int) -> float:
    """The k-th elementary symmetric polynomial of the Gram spectrum eigs:
    the sum of det(A_S^T A_S) over k-subsets."""
    if k > eigs.size:
        return 0.0
    esym = np.zeros(k + 1)
    esym[0] = 1.0
    for lam in eigs:
        upto = min(k, int(np.count_nonzero(esym)))
        for j in range(upto, 0, -1):
            esym[j] += lam * esym[j - 1]
    return float(esym[k])


def gram_det_sum_enumerated(a, k: int) -> float:
    """Same sum by direct enumeration; the slow half of the dual route."""
    arr = as_matrix(a)
    tol = gram_spectrum(arr)[1]
    return float(sum(det for _, det, _ in _volume_weighted(arr, int(k), tol)))


def volume_mean_residual(a) -> float:
    """Volume-sampling average of the squared spectral residual over
    (rank-1)-subsets.  Must reproduce the harmonic-mean constant of the
    spectrum summary; rank-deficient subsets carry zero weight."""
    arr = as_matrix(a)
    eigs, tol = gram_spectrum(arr)
    t = eigs.size
    if t == 0:
        raise EmptySpectrum("matrix has numerical rank zero")
    num = 0.0
    den = 0.0
    for _, det, resid in _volume_weighted(arr, t - 1, tol):
        num += det * float(np.linalg.svd(resid, compute_uv=False)[0]) ** 2
        den += det
    return num / den


def expected_frobenius_residual(a, k: int) -> float:
    """Volume-sampling mean of the squared Frobenius residual over
    k-subsets, through the subset-determinant ratio (k+1) c_{k+1} / c_k."""
    arr = as_matrix(a)
    k = int(k)
    eigs, _ = gram_spectrum(arr)
    if not 0 <= k < eigs.size:
        raise ValueError("need 0 <= k < rank")
    return (k + 1) * _esym(eigs, k + 1) / _esym(eigs, k)


def volume_mean_frobenius_enumerated(a, k: int) -> float:
    """The same Frobenius expectation by direct weighted enumeration."""
    arr = as_matrix(a)
    num = 0.0
    den = 0.0
    for _, det, resid in _volume_weighted(arr, int(k), gram_spectrum(arr)[1]):
        num += det * float(np.sum(resid * resid))
        den += det
    return num / den


def restricted_invertibility_pair(a, cols, eps: float = DEFAULT_EPS):
    """(largest residual-poly root, inverse squared min singular value).

    For a full-column-rank matrix these two numbers coincide: dropping the
    selected columns from the transposed pseudoinverse and taking its
    smallest singular value inverts the selection residual.
    """
    arr = as_matrix(a)
    n, d = arr.shape
    idx = check_subset(cols, d)
    if len(idx) >= d:
        raise ValueError("the subset must be a proper subset of the columns")
    eigs, tol = gram_spectrum(arr)
    if eigs.size < d:
        raise NotFullColumnRank("matrix must have full column rank")
    return _restricted_invertibility_pair(arr, idx, tol, np.linalg.pinv(arr).T, eps)


def _restricted_invertibility_pair(arr: np.ndarray, idx, tol: float, pinv_t: np.ndarray,
                                   eps: float) -> tuple[float, float]:
    """:func:`restricted_invertibility_pair` of a full-column-rank arr under
    its rank tolerance tol, given pinv(arr)^T."""
    mr = maxroot(_residual_poly(_deflated(arr, idx, tol)[1]), eps).value
    chosen = set(idx)
    comp = [j for j in range(arr.shape[1]) if j not in chosen]
    sig2_min = float(sym_eigenvalues(gram(pinv_t[:, comp]))[-1])
    return float(mr), 1.0 / sig2_min


def weighted_step_identity_error(a, cols) -> float:
    """Max relative coefficient error of the one-step weighted-sum identity.

    The sum of ||Q_S a_i||^2 * p_(S+i) over columns outside the span must
    equal one polar-operator application to p_S.
    """
    arr = as_matrix(a)
    d = arr.shape[1]
    idx = check_subset(cols, d)
    tol = gram_spectrum(arr)[1]
    resid = _deflated(arr, idx, tol)[1]
    lhs = np.zeros(d + 1)
    chosen = set(idx)
    for i in range(d):
        if i in chosen:
            continue
        nu2, step = _deflated(resid, [i], tol)
        if nu2 != 0.0:
            lhs += nu2 * _residual_poly(step)
    rhs = polar_power(_residual_poly(resid), 1)
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _rel_err(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def run_identity_suite(a, k: int, eps: float = DEFAULT_EPS) -> OracleReport:
    """Run every identity check on one instance and collect max errors.

    Pass/fail thresholds live in IDENTITY_TOLERANCES; callers compare.  The
    checks run on 2^-m A, 4^-m lam_1 in [1/2, 2] as in select's
    initial_state, with eps scaled alike and the spectrum and rank
    tolerance taken from 2^-m A: the coefficient errors and the absolute
    eps weigh terms of different sizes, so on the input scale they would
    depend on it.  Only the optimum is scaled back, exactly.
    """
    arr = as_matrix(a)
    d = arr.shape[1]
    k = int(k)
    eigs, _ = gram_spectrum(arr)
    _check_rank(k, eigs.size)
    m = _unit_exponent(eigs[0])
    arr = np.ldexp(arr, -m)
    eigs, tol = gram_spectrum(arr)
    t = eigs.size
    # eps alike, its exponent capped below the double range
    eps = float(np.ldexp(eps, min(-2 * m, 1022 - int(np.frexp(eps)[1]))))
    errors: dict[str, float] = {}

    # det[x I - A^T A] with exactly d - t zero roots, the rest from the spectrum
    p_full = np.concatenate([np.zeros(d - t), np.polynomial.polynomial.polyfromroots(eigs)])
    expected = expected_poly_bruteforce(arr, k)
    operator = polar_power(p_full, k)
    scale = max(float(np.max(np.abs(operator))), 1e-300)
    errors["expected_poly_vs_operator"] = float(np.max(np.abs(expected - operator))) / scale

    err = weighted_step_identity_error(arr, [])
    # from rank columns on, Q_S A is rounding noise and both sides are 0 exactly
    for s in ([0], [0, 1]):
        if len(s) < t:
            err = max(err, weighted_step_identity_error(arr, s))
    errors["weighted_step_sum"] = err

    errors["alpha_as_expectation"] = _rel_err(volume_mean_residual(arr),
                                              spectrum_info(eigs).alpha)

    kk = min(k, t - 1)
    errors["frobenius_expectation"] = _rel_err(
        (kk + 1) * _esym(eigs, kk + 1) / _esym(eigs, kk),
        volume_mean_frobenius_enumerated(arr, kk),
    )

    det_err = 0.0
    for s in itertools.islice(itertools.combinations(range(d), k), 64):
        sub = arr[:, list(s)]
        det_err = max(det_err, _rel_err(_deflated(arr, s, tol)[0],
                                        float(np.linalg.det(symmetrize(sub.T @ sub)))))
    errors["det_factorization"] = det_err

    errors["subset_det_sum_two_routes"] = _rel_err(_esym(eigs, k), gram_det_sum_enumerated(arr, k))

    if t == d:
        ri_err = 0.0
        pinv_t = np.linalg.pinv(arr).T
        for s in itertools.islice(itertools.combinations(range(d), min(k, d - 1)), 32):
            lhs, rhs = _restricted_invertibility_pair(arr, list(s), tol, pinv_t, eps)
            ri_err = max(ri_err, _rel_err(lhs, rhs))
        errors["restricted_invertibility"] = ri_err

    if kk >= 1:
        mr = maxroot(polar_power(p_full, kk), eps).value
        mn = minroot(derivative(flip(p_full), kk), eps).value
        errors["reciprocal_root"] = abs(mr * mn - 1.0)

    best_subset, best_res = brute_force_best(arr, k)
    return OracleReport(
        best_subset=best_subset,
        best_residual_sq=float(np.ldexp(best_res, 2 * m)),
        identity_errors=errors,
    )
