"""Dense symmetric linear algebra used by the selection pipeline.

Matrices are plain 2-D float ndarrays.  Everything here is a pure function;
Gram and projector matrices are re-symmetrized after every update so drift
cannot accumulate over long selection runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirection, NoConvergence

MACHINE_EPS = float(np.finfo(float).eps)


def as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("expected a nonempty 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _as_sym(m) -> np.ndarray:
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    bound = 1e-12 * (1.0 + float(np.max(np.abs(arr))))
    if float(np.max(np.abs(arr - arr.T))) > bound:
        raise ValueError("matrix is not symmetric within tolerance")
    return symmetrize(arr)


def gram(a, by: str = "columns") -> np.ndarray:
    """A^T A (by="columns") or A A^T (by="rows"), exactly symmetric."""
    arr = as_matrix(a)
    if by == "columns":
        g = arr.T @ arr
    elif by == "rows":
        g = arr @ arr.T
    else:
        raise ValueError("by must be 'columns' or 'rows'")
    return symmetrize(g)


def sym_eigenvalues(m, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Cyclic Jacobi sweeps run until the off-diagonal mass is at rounding
    level.  Raises NoConvergence if the sweep budget is exhausted, which
    signals pathological input rather than a tuning problem.
    """
    a = _as_sym(m).copy()
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    scale = max(1.0, float(np.max(np.abs(a))))
    target = n * MACHINE_EPS * scale
    for _ in range(max_sweeps):
        off = float(np.sqrt(np.sum(np.triu(a, 1) ** 2)))
        if off <= target:
            return np.sort(np.diag(a))[::-1].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e8:
                    t = 0.5 / theta  # asymptotic form; theta**2 would overflow
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
    raise NoConvergence(f"Jacobi sweeps did not converge in {max_sweeps} sweeps")


def gram_spectrum(a) -> tuple[np.ndarray, float]:
    """Positive Gram spectrum and rank cutoff of a matrix: (eigs, tol).

    eigs holds the eigenvalues of A^T A above tol**2, descending;
    tol = max(n, d) * eps * ||A||_2 is the numerical-rank cutoff for
    directions.  The singular values of A come from LAPACK's SVD, which
    gets them to about eps * ||A||_2, so the cutoff separates rank from
    noise; Gram eigenvalues (eigvalsh of A^T A) are accurate only to
    eps * ||A||_2**2 and would count noise as rank.
    """
    arr = as_matrix(a)
    n, d = arr.shape
    sigma = np.linalg.svd(arr, compute_uv=False)
    tol = max(n, d) * MACHINE_EPS * float(sigma[0])
    eigs = sigma * sigma
    return eigs[eigs > tol * tol], tol


def spectral_norm_sq(a) -> float:
    """Largest eigenvalue of A^T A (the squared spectral norm)."""
    eigs, _ = gram_spectrum(a)
    return float(eigs[0]) if eigs.size else 0.0


def rank_tolerance(a) -> float:
    """Numerical-rank cutoff for directions: max(n, d) * eps * ||A||_2."""
    return gram_spectrum(a)[1]


def numerical_rank(a) -> int:
    return int(gram_spectrum(a)[0].size)


def _householder_tridiagonal(m: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, offdiag)."""
    a = m.copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        s = np.copysign(nx, x[0])
        v = x.copy()
        v[0] += s
        vn2 = float(v @ v)
        if vn2 == 0.0:
            continue
        beta = 2.0 / vn2
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        u = beta * w - (0.5 * beta * beta * float(v @ w)) * v
        sub -= np.outer(v, u) + np.outer(u, v)
        a[k + 1 :, k] = 0.0
        a[k, k + 1 :] = 0.0
        a[k + 1, k] = -s
        a[k, k + 1] = -s
    return np.diag(a).copy(), np.diag(a, 1).copy()


def char_poly(m) -> np.ndarray:
    """Monic characteristic polynomial det[x I - M] of a symmetric matrix.

    Householder tridiagonalization followed by the three-term recurrence on
    leading principal minors; O(m^3) and stable for the sizes this package
    targets.  Ascending coefficients, nominal degree = dim(M).
    """
    a = _as_sym(m)
    n = a.shape[0]
    diag, off = _householder_tridiagonal(a)
    prev = np.array([1.0])
    cur = np.array([-diag[0], 1.0])
    for i in range(1, n):
        nxt = np.zeros(i + 2)
        nxt[1:] = cur
        nxt[: i + 1] -= diag[i] * cur
        nxt[: i] -= (off[i - 1] ** 2) * prev
        prev, cur = cur, nxt
    return cur


def projector_update(q, b, tol: float | None = None) -> np.ndarray:
    """Shrink an orthogonal-complement projector by the direction b.

    Returns Q - (Qb)(Qb)^T / ||Qb||^2, the projector onto the complement of
    span(range(I - Q) + {b}).  Trace drops by exactly one per successful
    update.  Raises DegenerateDirection when ||Qb|| <= tol, i.e. b already
    lies in the selected span.

    Callers tracking a parent matrix A should pass tol = rank_tolerance(A);
    the default only guards against exact degeneracy scaled by ||b||.
    """
    qm = _as_sym(q)
    vec = np.asarray(b, dtype=float).reshape(-1)
    if vec.size != qm.shape[0]:
        raise ValueError("vector length does not match projector dimension")
    if tol is None:
        tol = vec.size * MACHINE_EPS * float(np.linalg.norm(vec))
    u = qm @ vec
    nu = float(np.linalg.norm(u))
    if nu <= tol:
        raise DegenerateDirection(f"||Qb|| = {nu:.3e} <= {tol:.3e}")
    return symmetrize(qm - np.outer(u, u) / (nu * nu))


def check_subset(subset, n_cols: int) -> list[int]:
    idx = [int(j) for j in subset]
    if len(set(idx)) != len(idx):
        raise ValueError("subset contains duplicate indices")
    for j in idx:
        if not 0 <= j < n_cols:
            raise ValueError(f"column index {j} out of range [0, {n_cols})")
    return idx


def complement_projector(a, subset, tol: float | None = None) -> np.ndarray:
    """Projector onto the orthogonal complement of the selected columns.

    Built by repeated rank-one updates; columns already inside the running
    span are skipped rather than rejected.  Updates stop once rank(A)
    directions are removed: the span is then the whole column space, and
    rounding left in Q must not pass for one more direction.
    """
    arr = as_matrix(a)
    idx = check_subset(subset, arr.shape[1])
    eigs, rank_tol = gram_spectrum(arr)
    if tol is None:
        tol = rank_tol
    q = np.eye(arr.shape[0])
    removed = 0
    for j in idx:
        if removed == eigs.size:
            break
        try:
            q = projector_update(q, arr[:, j], tol)
        except DegenerateDirection:
            continue
        removed += 1
    return q


def residual_spectral_sq(a, subset=()) -> float:
    """Squared spectral norm of A minus its projection onto chosen columns:
    sigma_max(A - Q (Q^T A))^2 with Q an orthonormal basis of the columns,
    built one at a time with the skip rule and rank cap of
    :func:`complement_projector` and one re-orthogonalisation, so no n x n
    projector is formed.  The empty subset gives ||A||_2^2.
    """
    arr = as_matrix(a)
    idx = check_subset(subset, arr.shape[1])
    eigs, tol = gram_spectrum(arr)
    basis = np.zeros((arr.shape[0], 0))
    for j in idx:
        if basis.shape[1] == eigs.size:
            break
        v = arr[:, j] - basis @ (basis.T @ arr[:, j])
        norm = float(np.linalg.norm(v))
        if norm <= tol:
            continue
        v = v / norm
        v -= basis @ (basis.T @ v)
        basis = np.column_stack([basis, v / np.linalg.norm(v)])
    resid = arr - basis @ (basis.T @ arr)
    return float(np.linalg.svd(resid, compute_uv=False)[0]) ** 2
