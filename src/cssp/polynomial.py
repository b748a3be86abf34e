"""Real-rooted polynomial arithmetic on ascending coefficient arrays.

A polynomial is a 1-D float array ``c`` with ``c[i]`` multiplying ``x**i``.
The array length fixes the *nominal* degree ``len(c) - 1``.  Trailing zeros
are legal and meaningful: the coefficient reversal below is taken against
the nominal degree, not the true one, so ``[0., 1., 0.]`` (x as a nominal
quadratic) and ``[0., 1.]`` (x as a linear) flip differently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NoRootInRange, ZeroPolynomial

# Relative threshold below which a coefficient counts as zero in the
# balanced basis of _prepare, where the nonzero roots have magnitude near
# one: leading ones are stripped, and low ones mark a root at the origin.
_TRUNCATION = 1e-12

# Values this large are rescaled mid-Horner to keep sign evaluation finite.
_HORNER_RESCALE = 1e150

DEFAULT_EPS = 1e-9  # root accuracy of select and verify when none is given


class RootApprox(NamedTuple):
    """A certified root enclosure: |value - root| <= epsilon."""

    value: float
    epsilon: float


def as_poly(c) -> np.ndarray:
    """Validate and convert ``c`` to a 1-D float coefficient array."""
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("polynomial must be a nonempty 1-D coefficient array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("polynomial coefficients must be finite")
    return arr


def flip(c) -> np.ndarray:
    """Reverse coefficients against the nominal degree: c(x) -> x^d c(1/x).

    An involution: ``flip(flip(c))`` returns the input exactly.
    """
    return as_poly(c)[::-1].copy()


def derivative(c, k: int = 1) -> np.ndarray:
    """k-th formal derivative.  The nominal degree drops by k (floor at 0)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    p = as_poly(c)
    for _ in range(k):
        if p.size == 1:
            return np.zeros_like(p)
        p = p[1:] * np.arange(1, p.size, dtype=float)
    return p


def polar_power(c, k: int) -> np.ndarray:
    """Apply the polar-type operator (x^2 d/dx - d*x) k times.

    Here d is the nominal degree of ``c``.  Computed through the reversal
    identity: reverse the coefficients, differentiate k times, reverse again
    against the original nominal degree, and attach the sign (-1)^k.  The
    result keeps nominal degree d; its k lowest coefficients are zero.

    For an input with exactly t nonzero roots the result is identically zero
    iff k >= t + 1.
    """
    p = as_poly(c)
    if k < 0:
        raise ValueError("operator power must be nonnegative")
    if k == 0:
        return p.copy()
    g = derivative(p[::-1], k)
    out = np.zeros_like(p)
    out[: g.size] = g
    out = out[::-1]
    if k % 2:
        out = -out
    return out


def _strip_leading(p: np.ndarray, rel_tol: float = _TRUNCATION) -> np.ndarray:
    """Drop numerically-zero high-order coefficients (relative threshold)."""
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return p[:1].copy()
    keep = np.nonzero(np.abs(p) > rel_tol * scale)[0]
    return p[: keep[-1] + 1].copy()


def _root_scale_exp(p0: np.ndarray) -> int:
    """Root-magnitude estimate for conditioning, as a power-of-two exponent.

    Substituting x = 2**e * y with 2**e near the largest root magnitude
    balances graded coefficients (products of small roots span hundreds of
    orders of magnitude in the monic basis), which keeps the truncation
    thresholds below anything meaningful.  The estimate is the largest
    binomial-normalized coefficient ratio (|a_{d-j}/a_d| / C(d,j))**(1/j):
    never above the true largest root magnitude, never more than a factor
    of degree below it, and exact when all roots coincide.  Any exponent is
    mathematically valid; this one is good for conditioning.
    """
    deg = p0.size - 1
    if deg < 1:
        return 0
    lead = np.log2(abs(p0[-1]))
    lgamma_d = math.lgamma(deg + 1)
    ratios = []
    for idx in range(deg):
        if p0[idx] == 0.0:
            continue
        j = deg - idx
        log2_binom = (lgamma_d - math.lgamma(j + 1) - math.lgamma(deg - j + 1)) / math.log(2.0)
        ratios.append((np.log2(abs(p0[idx])) - lead - log2_binom) / j)
    if not ratios:
        return 0
    return int(np.clip(round(max(ratios)), -500, 500))


def _pow2_scale(p: np.ndarray, e: int = 0) -> np.ndarray:
    """Coefficients of p(2**e * y), the largest magnitude in [1/2, 1), by
    exponent arithmetic: exact, but for entries more than the double range
    below the largest, which round to subnormals or zero."""
    mant, ex = np.frexp(p)
    nonzero = mant != 0.0
    if not nonzero.any():
        return p
    ex = ex + e * np.arange(p.size)
    return np.ldexp(mant, ex - np.max(ex[nonzero]))


def _prepare(c):
    """Preprocess a polynomial for root counting: (q, zero_root, scale).

    The input is rescaled in the variable (x = scale * y) so its nonzero
    roots have magnitude near one, then structural factors of x are
    stripped (zero_root records whether any were present).  q is the
    remaining unit-max-coefficient polynomial in y.
    """
    p = as_poly(c)
    top = np.max(np.abs(p))
    if top == 0.0:
        raise ZeroPolynomial("the zero polynomial has no root structure")
    # Before the variable rescale only exact zeros may be stripped: the
    # leading coefficient sits below the peak by about the product of the
    # roots, which may pass 1e280.  The 1e-12 threshold is only safe in the
    # balanced basis produced below.
    p0 = _strip_leading(_pow2_scale(p), rel_tol=0.0)
    exp = _root_scale_exp(p0)
    scale = 2.0**exp
    if exp != 0:
        p0 = _strip_leading(_pow2_scale(p0, exp))
    low = np.nonzero(np.abs(p0) > _TRUNCATION * np.max(np.abs(p0)))[0]
    zero_root = low.size > 0 and low[0] > 0
    if zero_root:
        p0 = _pow2_scale(_strip_leading(p0[low[0] :]))
    return p0, zero_root, scale


def _fourier_matrix(q: np.ndarray) -> np.ndarray:
    """Derivative sequence q, q', ..., row-normalized, as a padded matrix.

    Sign variations of this sequence count roots with multiplicity in
    half-open intervals, exactly so when every root of q is real.  Building
    it involves no polynomial division, which keeps root isolation stable
    at high degree.
    """
    mat = np.zeros((q.size, q.size))
    row = q
    for i in range(q.size):
        mat[i, : row.size] = row
        row = _pow2_scale(derivative(row))
    return mat


def _variations_at(mat: np.ndarray, x: float) -> int:
    """Sign variations at x of the polynomials in the rows of mat, zeros
    skipped, by Horner across all rows at once.  Rows nearing overflow are
    squashed to unit magnitude; that keeps their sign, because it can only
    happen when |x| > 1 > |coefficients|, so the x-term keeps dominating."""
    vals = mat[:, -1].copy()
    for col in mat.T[-2::-1]:
        vals *= x
        vals += col
        big = np.abs(vals) > _HORNER_RESCALE
        if big.any():
            vals[big] /= np.abs(vals[big])
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def cauchy_bound(c) -> float:
    """1 + max|a_i / a_lead|: every root lies in [-bound, bound].  Only
    exactly-zero leading coefficients are dropped: a small one still
    carries a large root."""
    p = _strip_leading(as_poly(c), rel_tol=0.0)
    if np.max(np.abs(p)) == 0.0:
        raise ZeroPolynomial("the zero polynomial has no root bound")
    if p.size == 1:
        return 1.0
    return 1.0 + float(np.max(np.abs(p[:-1] / p[-1])))


def _extreme_root(c, eps: float, largest: bool) -> RootApprox:
    """Largest or smallest root in (0, U], U the Cauchy bound, bisected on
    derivative-sequence sign variations until the bracket is below eps."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    q, zero_root, s = _prepare(c)
    mat = _fourier_matrix(q)
    lo, hi = 0.0, cauchy_bound(_strip_leading(q))
    v_lo, v_hi = _variations_at(mat, lo), _variations_at(mat, hi)
    if v_lo - v_hi < 1:
        if largest and zero_root:
            return RootApprox(0.0, eps)
        raise NoRootInRange("no positive root in (0, %g]" % (hi * s))
    while hi - lo > eps / s:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at float resolution
        v_mid = _variations_at(mat, mid)
        # the largest root survives in (mid, hi], the smallest in (lo, mid]
        if (v_mid - v_hi >= 1) if largest else (v_lo - v_mid < 1):
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return RootApprox(float(0.5 * (lo + hi) * s), eps)


def maxroot(c, eps: float) -> RootApprox:
    """Largest root of a real-rooted polynomial with nonnegative roots.

    Bisects a sign-variation root count over [0, U], U the Cauchy bound,
    until the bracket width drops below ``eps``.  The count uses the
    derivative (Budan-Fourier) sequence, which is exact for real-rooted
    input and involves no fragile polynomial division.  A root exactly at
    the origin is reported as 0.  Raises NoRootInRange when no root lies in
    [0, U] (non-real-rooted or all-negative-root input).
    """
    return _extreme_root(c, eps, largest=True)


def minroot(c, eps: float) -> RootApprox:
    """Smallest strictly positive root; mirror of :func:`maxroot`."""
    return _extreme_root(c, eps, largest=False)
