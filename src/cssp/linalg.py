"""Dense symmetric linear algebra used by the selection pipeline.

Matrices are plain 2-D float ndarrays and everything here is a pure
function.  Gram matrices are re-symmetrized, so callers can rely on
exact symmetry.
"""

from __future__ import annotations

import numpy as np

from .errors import RankExceeded

MACHINE_EPS = float(np.finfo(float).eps)
_MAX_NORM = float(np.sqrt(np.finfo(float).max))  # largest norm with a finite square
_MIN_SIGMA = float(np.sqrt(np.finfo(float).smallest_subnormal))  # smallest with a nonzero square


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


def gram(a) -> np.ndarray:
    """A^T A, exactly symmetric."""
    arr = as_matrix(a)
    return symmetrize(arr.T @ arr)


def sym_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending (LAPACK's eigvalsh).

    Accurate to about eps * ||M||_2 in absolute terms; asymmetric input
    raises ValueError.
    """
    return np.linalg.eigvalsh(_as_sym(m))[::-1].copy()


def gram_spectrum(a) -> tuple[np.ndarray, float]:
    """Positive Gram spectrum and rank cutoff of a matrix: (eigs, tol).

    eigs holds sigma**2 for the singular values sigma of A above tol,
    descending; tol = max(n, d) * eps * ||A||_2 is the numerical-rank
    cutoff for directions.  The singular values come from LAPACK's SVD,
    which gets them to about eps * ||A||_2, so the cutoff separates rank
    from noise; Gram eigenvalues (eigvalsh of A^T A) are accurate only to
    eps * ||A||_2**2 and would count noise as rank.  Raises ValueError
    when ||A||_2 exceeds sqrt(float max), where ||A||_2**2 overflows, and
    when a kept sigma is below sqrt(smallest subnormal), where its square
    underflows to 0.
    """
    arr = as_matrix(a)
    n, d = arr.shape
    sigma = np.linalg.svd(arr, compute_uv=False)
    if sigma[0] > _MAX_NORM:
        raise ValueError(f"spectral norm {sigma[0]:.6g} exceeds {_MAX_NORM:.6g}, past which "
                         "its square overflows")
    tol = max(n, d) * MACHINE_EPS * float(sigma[0])
    kept = sigma[sigma > tol]
    eigs = kept * kept
    if eigs.size and eigs[-1] == 0.0:
        raise ValueError(f"singular value {kept[-1]:.6g} is below {_MIN_SIGMA:.6g}, past which "
                         "its square underflows")
    return eigs, tol


def _check_rank(k: int, rank: int) -> None:
    if not 1 <= k <= rank:
        raise RankExceeded(f"k={k} outside [1, rank={rank}]")


def _unit_exponent(lam1: float) -> int:
    """m with 4**-m * lam1 in [1/2, 2] (in [2, 4) above 2**1023, as
    4**512 overflows): the power-of-two rescale of a squared norm."""
    return min(int(np.round(np.log2(lam1) / 2.0)), 511)


def char_poly(m) -> np.ndarray:
    """Monic characteristic polynomial det[x I - M] of a symmetric matrix.

    Built from the eigenvalues of :func:`sym_eigenvalues` as the product of
    (x - lambda_i).  Ascending coefficients, nominal degree = dim(M).
    """
    return np.polynomial.polynomial.polyfromroots(sym_eigenvalues(m))


def check_subset(subset, n_cols: int) -> list[int]:
    idx = [int(j) for j in subset]
    if len(set(idx)) != len(idx):
        raise ValueError("subset contains duplicate indices")
    for j in idx:
        if not 0 <= j < n_cols:
            raise ValueError(f"column index {j} out of range [0, {n_cols})")
    return idx


def _span_basis(arr: np.ndarray, idx: list[int], rank: int, tol: float) -> np.ndarray:
    """Orthonormal basis of the columns idx of arr, by LAPACK's QR of the
    first rank of them.  |R_jj| is column j's distance to the span of the
    kept columns before it: the first with |R_jj| <= tol is dropped and the
    QR taken again.  At rank columns the span is the whole column space,
    where leftover rounding must not pass for one more direction.
    """
    keep = list(idx)
    while True:
        basis, r = np.linalg.qr(arr[:, keep[:rank]])
        dependent = np.flatnonzero(np.abs(np.diag(r)) <= tol)
        if not dependent.size:
            return basis
        del keep[dependent[0]]


def _residual_sq(arr: np.ndarray, idx: list[int], rank: int, tol: float) -> float:
    """sigma_max(A - B B^T A)^2 for the QR basis B of :func:`_span_basis`."""
    basis = _span_basis(arr, idx, rank, tol)
    resid = arr - basis @ (basis.T @ arr)
    return float(np.linalg.svd(resid, compute_uv=False)[0]) ** 2


def residual_spectral_sq(a, subset=()) -> float:
    """Squared spectral norm of A minus its projection onto chosen columns,
    through an n x |S| orthonormal basis of the columns, so no n x n
    projector is formed.  The empty subset gives ||A||_2^2.
    """
    arr = as_matrix(a)
    eigs, tol = gram_spectrum(arr)
    return _residual_sq(arr, check_subset(subset, arr.shape[1]), eigs.size, tol)
