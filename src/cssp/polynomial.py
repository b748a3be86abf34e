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

# Relative threshold below which coefficients are treated as zero during
# Sturm-chain work.  Floating-point Euclidean division otherwise manufactures
# spurious low-degree remainders that flip sign counts.
STURM_TRUNCATION = 1e-12

# Values this large are rescaled mid-Horner to keep sign evaluation finite.
_HORNER_RESCALE = 1e150


class RootApprox(NamedTuple):
    """A bisection-certified root enclosure: |value - root| <= epsilon."""

    value: float
    epsilon: float


def _as_polys(c) -> np.ndarray:
    """Validate and convert ``c`` to float coefficients along the last axis;
    leading axes, if any, index a batch of polynomials."""
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.shape[-1] == 0:
        raise ValueError("polynomial must have at least one coefficient")
    if not np.all(np.isfinite(arr)):
        raise ValueError("polynomial coefficients must be finite")
    return arr


def as_poly(c) -> np.ndarray:
    """Validate and convert ``c`` to a 1-D float coefficient array."""
    arr = _as_polys(c)
    if arr.ndim != 1:
        raise ValueError("polynomial must be a nonempty 1-D coefficient array")
    return arr


def flip(c) -> np.ndarray:
    """Reverse coefficients against the nominal degree: c(x) -> x^d c(1/x).

    An involution: ``flip(flip(c))`` returns the input exactly.
    """
    return as_poly(c)[::-1].copy()


def derivative(c, k: int = 1) -> np.ndarray:
    """k-th formal derivative.  The nominal degree drops by k (floor at 0).

    A 2-D input is a batch with one polynomial per row.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    p = _as_polys(c)
    for _ in range(k):
        if p.shape[-1] == 1:
            return np.zeros_like(p)
        p = p[..., 1:] * np.arange(1, p.shape[-1], dtype=float)
    return p


def polar_power(c, k: int) -> np.ndarray:
    """Apply the polar-type operator (x^2 d/dx - d*x) k times.

    Here d is the nominal degree of ``c``.  Computed through the reversal
    identity: reverse the coefficients, differentiate k times, reverse again
    against the original nominal degree, and attach the sign (-1)^k.  The
    result keeps nominal degree d; its k lowest coefficients are zero.

    For an input with exactly t nonzero roots the result is identically zero
    iff k >= t + 1.  A 2-D input is a batch with one polynomial per row.
    """
    p = _as_polys(c)
    if k < 0:
        raise ValueError("operator power must be nonnegative")
    if k == 0:
        return p.copy()
    g = derivative(p[..., ::-1], k)
    out = np.zeros_like(p)
    out[..., : g.shape[-1]] = g
    out = out[..., ::-1]
    if k % 2:
        out = -out
    return out


def from_roots(roots, degree: int) -> np.ndarray:
    """Monic polynomial with the given roots, times the power of x that
    lifts it to nominal degree ``degree``; one polynomial per row of a 2-D
    ``roots``.  With nonnegative roots the coefficients alternate in sign,
    so no step of the product cancels."""
    roots = np.atleast_2d(np.asarray(roots, dtype=float))
    coef = np.zeros((roots.shape[0], degree + 1))
    coef[:, degree - roots.shape[1]] = 1.0
    for r in roots.T:
        shifted = np.zeros_like(coef)
        shifted[:, 1:] = coef[:, :-1]
        coef = shifted - r[:, None] * coef
    return coef


def poly_eval(c, x: float) -> float:
    """Evaluate by Horner's rule."""
    p = as_poly(c)
    acc = 0.0
    for coef in p[::-1]:
        acc = acc * x + coef
    return acc


def _strip_leading(p: np.ndarray, rel_tol: float = STURM_TRUNCATION) -> np.ndarray:
    """Drop numerically-zero high-order coefficients (relative threshold)."""
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return p[:1].copy()
    keep = np.nonzero(np.abs(p) > rel_tol * scale)[0]
    return p[: keep[-1] + 1].copy()


def _polydiv(num: np.ndarray, den: np.ndarray):
    """(quotient, remainder) of num / den for ascending arrays, deg(den) >= 1."""
    rem = num.copy()
    dd = den.size - 1
    lead = den[-1]
    quot = np.zeros(max(1, rem.size - dd))
    for i in range(rem.size - 1, dd - 1, -1):
        q = rem[i] / lead
        quot[i - dd] = q
        if q != 0.0:
            rem[i - dd : i + 1] -= q * den
        rem[i] = 0.0
    return quot, (rem[:dd] if dd >= 1 else rem[:1])


def _euclid_chain(p0: np.ndarray) -> list[np.ndarray]:
    """Remainder chain of a stripped unit-scale polynomial."""
    chain = [p0]
    if p0.size == 1:
        return chain
    p1 = _pow2_normalize(_strip_leading(derivative(p0)))
    chain.append(p1)
    while chain[-1].size > 1:
        rem = -_polydiv(chain[-2], chain[-1])[1]
        top = np.max(np.abs(rem))
        if top <= STURM_TRUNCATION:
            break
        chain.append(_pow2_normalize(_strip_leading(rem)))
    return chain


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
    e = max(ratios)
    if not np.isfinite(e):
        return 0
    return int(np.clip(round(e), -500, 500))


def _pow2_normalize(arr: np.ndarray) -> np.ndarray:
    """Scale by a power of two so the max magnitude lands in (1/2, 1].

    Power-of-two scaling only shifts exponents, so coefficients (and hence
    evaluations at exactly-representable roots) stay bit-exact.
    """
    top = np.max(np.abs(arr))
    if top == 0.0 or not np.isfinite(top):
        return arr
    return arr * np.exp2(-np.ceil(np.log2(top)))


def _rescale_coeffs(p0: np.ndarray, e: int) -> np.ndarray:
    """Coefficients of p0(2**e * y), renormalized to near-unit magnitude.

    The direct path multiplies by exact powers of two.  Profiles so graded
    that the direct exponents would overflow fall back to log-space
    arithmetic, which costs an ulp of exactness but cannot overflow.
    """
    n = p0.size
    if abs(e) * (n - 1) <= 900:
        out = p0 * np.exp2(np.arange(n) * float(e))
        return _pow2_normalize(out)
    with np.errstate(divide="ignore"):
        logs = np.where(p0 != 0.0, np.log2(np.abs(p0)), -np.inf)
    logs = logs + np.arange(n) * float(e)
    top = np.max(logs)
    out = np.zeros_like(p0)
    mask = np.isfinite(logs)
    out[mask] = np.sign(p0[mask]) * np.exp2(logs[mask] - top)
    return out


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
    # Before the variable rescale only denormal-level junk may be stripped:
    # a legitimate leading coefficient can sit 1e16 below the peak when the
    # roots are large.  The 1e-12 threshold is only safe in the balanced
    # basis produced below.
    p0 = _strip_leading(_pow2_normalize(p), rel_tol=1e-280)
    exp = _root_scale_exp(p0)
    scale = 2.0**exp
    if exp != 0:
        p0 = _strip_leading(_rescale_coeffs(p0, exp))
    low = np.nonzero(np.abs(p0) > STURM_TRUNCATION * np.max(np.abs(p0)))[0]
    zero_root = low.size > 0 and low[0] > 0
    if zero_root:
        p0 = _pow2_normalize(_strip_leading(p0[low[0] :]))
    return p0, zero_root, scale


def sturm_chain(c):
    """Sturm data for distinct-root counting: (chain, zero_root, scale).

    Euclidean remainder chain of the variable-rescaled square-free part;
    remainders below the truncation threshold end the chain, and repeated
    roots are removed by dividing out the chain's last element until the
    chain terminates in a constant.  Sign-variation counts on the result
    give distinct nonzero roots of the original polynomial at y = x/scale;
    positive coefficient rescaling along the way cannot change any sign.
    """
    p0, zero_root, scale = _prepare(c)
    chain = _euclid_chain(p0)
    for _ in range(p0.size):
        if chain[-1].size == 1:
            break
        quot = _polydiv(chain[0], chain[-1])[0]
        quot = _strip_leading(quot)
        qtop = np.max(np.abs(quot))
        if qtop == 0.0 or quot.size == 1:
            break
        chain = _euclid_chain(quot / qtop)
    return chain, zero_root, scale


def _fourier_matrix(q: np.ndarray) -> np.ndarray:
    """Derivative sequence q, q', ..., row-normalized, as a padded matrix.

    Sign variations of this sequence count roots with multiplicity in
    half-open intervals, exactly so when every root of q is real.  Building
    it involves no polynomial division, which keeps root isolation stable
    at degrees where float Euclidean remainder chains fall apart.
    """
    rows = [q]
    cur = q
    while cur.size > 1:
        cur = _pow2_normalize(derivative(cur))
        rows.append(cur)
    mat = np.zeros((len(rows), q.size))
    for i, row in enumerate(rows):
        mat[i, : row.size] = row
    return mat


def _chain_matrix(chain: list[np.ndarray]) -> np.ndarray:
    width = max(p.size for p in chain)
    mat = np.zeros((len(chain), width))
    for i, p in enumerate(chain):
        mat[i, : p.size] = p
    return mat


def _sign_variations(values: np.ndarray) -> np.ndarray:
    """Sign changes along the last axis, zeros skipped."""
    signs = np.sign(values)
    # Carry the last nonzero sign forward over zeros; a change is a step
    # between two different carried signs after the first nonzero one.
    last = np.where(signs != 0, np.arange(signs.shape[-1]), 0)
    np.maximum.accumulate(last, axis=-1, out=last)
    carried = np.take_along_axis(signs, last, axis=-1)
    before, after = carried[..., :-1], carried[..., 1:]
    return np.count_nonzero((before != after) & (before != 0), axis=-1)


def _stack(mats: list[np.ndarray]) -> np.ndarray:
    """Zero-padded (coefficient, polynomial, row) stack of chain matrices.

    Padding the high coefficients with zeros leaves every Horner value
    bit-identical (the padded steps compute 0 * x + 0), and zero padding
    rows evaluate to 0, which sign-variation counts skip.
    """
    width = max(m.shape[1] for m in mats)
    stack = np.zeros((width, len(mats), max(m.shape[0] for m in mats)))
    for i, m in enumerate(mats):
        stack[: m.shape[1], i, : m.shape[0]] = m.T
    return stack


def _variations(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sign variations of each stacked sequence at its own point x[i].

    Horner across every row of every polynomial at once.  Rows nearing
    overflow are squashed to unit magnitude individually; that preserves
    their sign, because the squash can only trigger when |x| > 1 >
    |coefficients|, so the x-term keeps dominating the next Horner step.
    """
    vals = stack[-1].copy()
    xs = np.asarray(x, dtype=float)[:, None]
    for col in stack[-2::-1]:
        vals *= xs
        vals += col
        big = np.abs(vals) > _HORNER_RESCALE
        if big.any():
            vals[big] /= np.abs(vals[big])
    return _sign_variations(vals)


def _variations_at(mat: np.ndarray, x: float) -> int:
    return int(_variations(_stack([mat]), [x])[0])


def sturm_count(c, lo: float, hi: float) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    chain, zero_root, s = sturm_chain(c)
    mat = _chain_matrix(chain)
    count = max(0, _variations_at(mat, lo / s) - _variations_at(mat, hi / s))
    if zero_root and lo < 0.0 <= hi:
        count += 1
    return count


def cauchy_bound(c) -> float:
    """1 + max|a_i / a_lead|: every root lies in [-bound, bound]."""
    p = _strip_leading(as_poly(c))
    if np.max(np.abs(p)) == 0.0:
        raise ZeroPolynomial("the zero polynomial has no root bound")
    if p.size == 1:
        return 1.0
    return 1.0 + float(np.max(np.abs(p[:-1] / p[-1])))


def _bisect_smallest(mat, lo, hi, eps):
    """Shrink (lo, hi] around the smallest root already known to lie inside."""
    v_lo = _variations_at(mat, lo)
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at float resolution
        v_mid = _variations_at(mat, mid)
        if v_lo - v_mid >= 1:
            hi = mid  # a root survives in (lo, mid]
        else:
            lo, v_lo = mid, v_mid
    return 0.5 * (lo + hi)


def maxroots(polys, eps: float, hi: float | None = None,
             abort_above: float | None = None, tie: float | None = None) -> list:
    """Largest roots of a batch of real-rooted polynomials, bisected in lockstep.

    Each polynomial is handled exactly as :func:`maxroot` handles it alone:
    its own variable scale, derivative (Budan-Fourier) sequence, Cauchy
    bound, ``hi`` cap and bisection bracket, so a returned value is
    bit-identical to the one-at-a-time value.  Every step evaluates all
    unfinished polynomials in one Horner pass.

    An entry is None when its polynomial was pruned: once the lower end of
    its bracket exceeds ``abort_above``, as in :func:`maxroot`, or, when
    ``tie`` is given, exceeds ``abort_above`` or the upper end of any
    unpruned bracket in the batch by more than ``tie``.  A pruned root is
    then more than ``tie`` above the smallest result.  Raises NoRootInRange
    as :func:`maxroot` does, for the first such polynomial in batch order.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    prepared = [_prepare(c) for c in polys]
    sub = _stack([_fourier_matrix(q) for q, _, _ in prepared])
    s = np.array([scale for _, _, scale in prepared])
    upper = np.array([cauchy_bound(q) for q, _, _ in prepared])
    v_hi = _variations(sub, upper)
    if hi is not None:
        cap = hi / s
        v_cap = _variations(sub, cap)
        # the supplied bound caps the roots where no root lies above it
        use = (cap < upper) & (v_cap <= v_hi)
        upper = np.where(use, cap, upper)
        v_hi = np.where(use, v_cap, v_hi)
    empty = _variations(sub, np.zeros(s.size)) - v_hi < 1
    for i in np.flatnonzero(empty):
        if not prepared[i][1]:
            raise NoRootInRange("no root in [0, %g]" % (upper[i] * s[i]))
    # a root exactly at the origin is reported as 0
    lo = np.zeros(s.size)
    top = np.where(empty, 0.0, upper)
    width = eps / s
    pruned = np.zeros(s.size, dtype=bool)
    live = np.flatnonzero(~empty)
    if empty.any():
        sub = sub[:, live]
    while live.size:
        bar = np.inf if abort_above is None else abort_above
        if tie is not None:
            bar = min(bar, float(np.min(top[~pruned] * s[~pruned]))) + tie
        lo_l, top_l = lo[live], top[live]
        mid = 0.5 * (lo_l + top_l)
        open_ = top_l - lo_l > width[live]
        cut = open_ & (lo_l * s[live] > bar)
        pruned[live[cut]] = True
        # converged, pruned, or at float resolution: the bracket is final
        go = open_ & ~cut & (mid > lo_l) & (mid < top_l)
        if not go.all():
            live, mid, sub = live[go], mid[go], sub[:, go]
            if not live.size:
                break
        v_mid = _variations(sub, mid)
        up = v_mid - v_hi[live] >= 1  # a root survives in (mid, top]
        lo[live] = np.where(up, mid, lo[live])
        top[live] = np.where(up, top[live], mid)
        v_hi[live] = np.where(up, v_hi[live], v_mid)
    values = 0.5 * (lo + top) * s
    return [None if cut_i else RootApprox(float(v), eps) for v, cut_i in zip(values, pruned)]


def maxroot(c, eps: float, hi: float | None = None, abort_above: float | None = None):
    """Largest root of a real-rooted polynomial with nonnegative roots.

    Bisects a sign-variation root count over [0, U], where U defaults to
    the Cauchy bound, until the bracket width drops below ``eps``.  The
    count uses the derivative (Budan-Fourier) sequence, which is exact for
    real-rooted input and involves no fragile polynomial division.  A root
    exactly at the origin is reported as 0.  Raises NoRootInRange when no
    root lies in [0, U] (non-real-rooted or all-negative-root input).

    ``hi`` may supply a cheaper known upper bound on the largest root.
    ``abort_above`` stops refinement once the root is provably above that
    value and returns None; used to prune losing candidates in the greedy
    selection loop without affecting which candidate wins.  This is
    :func:`maxroots` on a batch of one.
    """
    return maxroots([c], eps, hi=hi, abort_above=abort_above)[0]


def minroot(c, eps: float):
    """Smallest strictly positive root; mirror of :func:`maxroot`."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    q, _, s = _prepare(c)
    mat = _fourier_matrix(q)
    upper = cauchy_bound(q)
    if _variations_at(mat, 0.0) - _variations_at(mat, upper) < 1:
        raise NoRootInRange("no positive root in (0, %g]" % (upper * s))
    value = _bisect_smallest(mat, 0.0, upper, eps / s)
    return RootApprox(float(value * s), eps)
