"""Certified largest roots of expected characteristic polynomials.

Scores are found in product form, never from monomial coefficients: by the
reversal identity a candidate with spectrum mu scores 1/y*, y* the smallest
root of the real-rooted g = D^k prod_j (1 - mu_j y).  One Laguerre loop
from the left, with one stopping rule, gives both a point that a
Budan-Fourier sign check certifies and a Samuelson cap on y*.  A shared
value, one that every spectrum of a batch holds m times, enters as one
factor of multiplicity m, a truncated binomial, rather than m factors.  At
power 0 a score is its spectrum's top entry, with no root to seek.

select's bracket pass starts its Laguerre runs from the score chain.  With
bound the previous winning score plus 2 eps and the tie margin, and t that
bound plus the margin above, no candidate scoring at least t can win or
tie while the chain holds.  One expansion of g at x0 = max(1, top / t)
counts the roots of g above x0 (Budan-Fourier): where all of them are,
Laguerre goes on from x0; a row with a root at or below x0 scores at least
t and is dropped, keeping top / x0, a lower bound at least t, as its floor
and as its score.  So a dropped candidate neither wins nor ties while the
chain holds, and when every candidate is dropped the chain is broken, and
select reports the least of those bounds.  The expansion takes the place
of about three Laguerre steps, each of power + 3 orders, and has two
products of about r - power orders (the coefficients and their rounding
bounds), r the rank of B, so an iteration where it is longer, as at low
powers of wide inputs, runs from 1.  Every batch of an iteration starts
alike, so a score does not depend on its batch.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificateViolation
from .linalg import MACHINE_EPS

# Laguerre converges cubically to a simple root and linearly to a multiple
# one; after this many steps the point goes to the certificate as it is.
_LAGUERRE_STEPS = 100

# Times the certificate point backs off fourfold before a score is refused.
_CERTIFICATE_RETRIES = 3

# Rounding bound of a Taylor coefficient of _taylor, in eps_mach per factor
# of nonzero b (a zero b multiplies exactly), times the sum S of the
# magnitudes of its terms.  Each factor's two entries carry at most three
# roundings (forming a_j or b_j h, the normalising division, and b_j x read
# as moving the root 1/b_j by one ulp), and the product adds two per factor
# (a multiply and a subtract), so the computed coefficient is within
# (5 factors + 10) eps_mach S of the exact one, the 10 covering
# second-order terms; one within that of 0 has no certain sign.  A fold,
# the factor of a shared value taken to its multiplicity m at once, carries
# its entries' 3 roundings into each power, so 3m in every term, one for
# each of the two powers and the binomial coefficient, two for their
# product and, past the first fold, one for the product with c and m for a
# sum of at most m + 1 terms: 4m + 6 <= 5 (m + 1), so a fold counts as
# m + 1 factors.  Folded in p parts (see _taylor), it has 4m + 6p, and
# p <= m / 1029 + 1 keeps that within 5 (m + 1) too.
_ROUNDING = 5


def _binomial(a: np.ndarray, bh: np.ndarray, m: int, count: int) -> np.ndarray:
    """The coefficients of s^i, i < count, of (a_r - bh_r s)^m for each
    entry r of the rows a and bh: C(m, i) a_r^(m - i) (-bh_r)^i, from the
    powers of |a_r| and |bh_r|, as np.power is several times slower on a
    negative base, with the signs copied onto the odd powers."""
    binom = [1]
    for j in range(1, count):
        binom.append(binom[-1] * (m - j + 1) // j)
    i = np.arange(count, dtype=float)[:, None]
    terms = np.power(np.abs(a), m - i)
    odd = terms[(m + 1) % 2 :: 2]  # the rows where m - i is odd
    np.copysign(odd, a, out=odd)
    terms *= np.array(binom, dtype=float)[:, None]
    powers = np.power(np.abs(bh), i)
    odd = powers[1::2]
    np.copysign(odd, -bh, out=odd)
    terms *= powers
    return terms


def _taylor(x: np.ndarray, b: np.ndarray, orders: int, high: bool = False, mult=()):
    """Taylor data of prod_j (1 - b_j x)^(m_j) at each row's x, over the rows
    of b, m_j = 1 but for the last len(mult) columns, folds of
    multiplicities mult: (c, h) with c[:, k], k < orders, the coefficient of
    s^k in prod_j ((a_j - b_j h s) / (|a_j| + b_j h))^(m_j), a_j = 1 - b_j x.

    With high, the top orders instead, from the reversed product in w = 1/s,
    and their sizes: (c, h, S) with c[:, i] the coefficient of
    s^(n - orders + 1 + i), n the degree sum_j m_j, and S the same
    coefficients of prod_j ((|a_j| + b_j h s) / (|a_j| + b_j h))^(m_j), the
    sums of the magnitudes of the terms of each c, which bound its rounding
    error (see _ROUNDING).

    h, the geometric mean of the distances |a_j| / b_j from x to the roots,
    balances the lowest and highest coefficients, so neither underflows
    however far the roots spread; the positive divisors keep every
    coefficient within [-1, 1].  A zero b_j gives the factor 1 exactly, and
    h's logarithms are summed one column after another, so a row's data do
    not depend on the zero columns or the rows stacked with it.

    A fold enters as its truncated binomial (:func:`_binomial`), the first
    one written into c and each later one convolved with it, before the
    other columns multiply in one at a time.  C(m, i) overflows a double
    from m = 1030, so a larger multiplicity is folded in equal parts of at
    most 1029.
    """
    # columns x rows, and orders x rows below, so each factor is three
    # in-place passes over contiguous rows
    b = np.ascontiguousarray(b.T)
    a = 1.0 - b * x
    abs_a = np.abs(a)
    live = b > 0.0
    logs = np.divide(np.maximum(abs_a, MACHINE_EPS), b, out=np.ones_like(b), where=live)
    np.log(logs, out=logs)
    count = live.sum(axis=0)
    own = b.shape[0] - len(mult)
    if own < b.shape[0]:
        weight = np.asarray(mult, dtype=float)[:, None]
        logs[own:] *= weight
        count = count + (live[own:] * (weight - 1.0)).sum(axis=0)
    h = np.exp(np.add.accumulate(logs, out=logs)[-1] / count)
    bh = b * h
    s = abs_a + bh
    a /= s
    bh /= s
    if high:
        # each pass below multiplies by a_j - bh_j s; with (-bh_j, -a_j) it
        # multiplies by a_j w - bh_j, with (bh_j, -|a_j|) by |a_j| w + bh_j
        abs_a /= s
        a, bh = np.concatenate([-bh, bh], axis=1), np.concatenate([-a, -abs_a], axis=1)
    c = np.zeros((orders, a.shape[1]))
    c[0] = 1.0
    folds = []
    for a_f, bh_f, m in zip(a[own:], bh[own:], map(int, mult)):
        parts = -(-m // 1029)
        for p in range(parts):
            piece = m // parts + (p < m % parts)
            folds.append(_binomial(a_f, bh_f, piece, min(piece, orders - 1) + 1))
    if folds:
        c[: len(folds[0])] = folds[0]
    for terms in folds[1:]:
        span = len(terms)
        padded = np.zeros((orders + span - 1, c.shape[1]))
        padded[span - 1 :] = c
        c = np.einsum("krj,jr->kr", np.lib.stride_tricks.sliding_window_view(padded, span, axis=0),
                      terms[::-1])
    head, tail = c[:-1], c[1:]
    tmp = np.empty_like(head)
    for a_j, bh_j in zip(a[:own], bh[:own]):
        np.multiply(bh_j, head, out=tmp)
        np.multiply(c, a_j, out=c)
        np.subtract(tail, tmp, out=tail)
    if high:
        c = c[::-1]
        return c[:, : x.size].T, h, c[:, x.size :].T
    return c.T, h


def _root_distances(g: np.ndarray, power: int, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Laguerre step, S1/S2) from each row's point towards the smallest
    root of the degree-n g = D^power p, given p's Taylor data g from order
    power on (g's own, up to positive factors).

    With u_i = 1 / (root_i - point), S1 = sum u_i = -g'/g and S2 = sum u_i^2.
    When every root lies above the point, max u_i is at least S2/S1 and, by
    Samuelson's inequality, at most (S1 + sqrt((n-1) (n S2 - S1^2))) / n, so
    the two values bound the distance to the root.  They are formed without
    dividing by g, so an exact hit (g = 0) gives a zero step, and with the
    larger Laguerre denominator, so a rounding-level g cannot jump a root.
    """
    data = g[:, :3]
    big = np.abs(data).max(axis=1, keepdims=True)
    g, d1, d2 = np.divide(data, big, out=np.zeros_like(data), where=big > 0.0).T
    slope = (power + 1) * d1
    curv = (power + 1) * (power + 2) * d2
    square = slope * slope
    spread = square - curv * g  # g^2 S2
    root = np.sqrt(np.maximum((n - 1) * (n * spread - square), 0.0))
    den = slope + np.copysign(root, slope)
    step = np.divide(-n * g, den, out=np.zeros_like(g), where=den != 0.0)
    upper = np.divide(-slope * g, spread, out=np.full_like(g, np.nan), where=spread > 0.0)
    return step, upper


def _alternates(g: np.ndarray, n: np.ndarray, slack=None) -> np.ndarray:
    """Whether the Taylor data g of each row's degree-n polynomial, orders
    0 .. n, strictly alternate in sign, each beyond its slack when given.
    The orders are g's derivatives up to positive factors, so for a
    real-rooted g this is Budan-Fourier's test that every root of g lies
    above the point."""
    orders = np.arange(g.shape[1])
    signs = np.sign(g) * np.sign(g[:, :1]) * (-1.0) ** orders
    ok = signs == 1.0
    if slack is not None:
        ok &= np.abs(g) > slack
    return (ok | (orders > n[:, None])).all(axis=1)


def _live_rows(mu: np.ndarray, power: int, noise: float, shared=None):
    """(live, top, deg, b, mult) of the spectra made of each row of mu and,
    with shared = (vals, mult) as :func:`_spectra` gives it, the values
    vals, each mult times, entries at most noise taken as zero: the rows
    whose g = D^power prod_j (1 - b_j x)^(m_j) has degree deg > 0 (with
    multiplicities), their top entries, and their entries over top, b: the
    row's own entries, then one column for each shared value above noise,
    a fold of multiplicity mult (see :func:`_taylor`)."""
    vals, mult = (None, ()) if shared is None else shared
    top = np.maximum(mu[:, -1], vals[-1]) if len(mult) else mu[:, -1]
    b = np.where(mu > noise, mu, 0.0)
    deg = (b > 0.0).sum(axis=1) - power
    if len(mult):
        keep = vals > noise
        vals, mult = vals[keep], mult[keep]
        deg += int(mult.sum())
    live = np.flatnonzero(deg > 0)
    top, deg, b = top[live], deg[live], b[live]
    if live.size:
        b /= top[:, None]
        # noise entries lead each row; drop the columns zero in every row
        b = b[:, (b == 0.0).sum(axis=1).min() :]
        if len(mult):
            b = np.concatenate([b, vals / top[:, None]], axis=1)
    return live, top, deg, b, mult


def _laguerre(b: np.ndarray, power: int, deg: np.ndarray, top: np.ndarray, eps: float,
              tally=None, x=None, taylor=None, mult=()) -> tuple[np.ndarray, np.ndarray]:
    """(x, cap) with x <= x* <= cap, x* the smallest root of each row's
    g = D^power prod_j (1 - b_j x)^(m_j), in the terms of :func:`_live_rows`.

    Laguerre's method from a point below x*, x = 1 unless given, stays below
    x* and converges to it, so the upper bound of :func:`_root_distances` at
    every point caps x*.  A row stops once its step or the gap to its least
    cap is within about eps / 4 on the score top / x; the steps needed grow
    with the input, so no fixed count serves.  taylor, when given, is
    (g, h): :func:`_taylor`'s data at the given x, from order power on,
    taken as the first step.  A Counter tally, when given, counts the Taylor
    expansions made here in tally["steps"]."""
    x = np.ones(top.size) if x is None else x.copy()
    cap = np.full(top.size, np.inf)
    todo = np.arange(top.size)
    expansions = 0
    for _ in range(_LAGUERRE_STEPS):
        if taylor is None:
            c, h = _taylor(x[todo], b[todo], power + 3, False, mult)
            taylor = c[:, power:], h
            expansions += 1
        (g, h), taylor = taylor, None
        step, upper = _root_distances(g, power, deg[todo])
        x_t = x[todo]
        cap[todo] = np.fmin(cap[todo], x_t + h * upper)
        small = np.maximum(eps * x_t * x_t / (4.0 * top[todo]), 8.0 * MACHINE_EPS * x_t)
        x_t += h * step
        x[todo] = x_t
        todo = todo[(np.abs(h * step) > small) & (cap[todo] - x_t > small)]
        if not todo.size:
            break
    if tally is not None:
        tally["steps"] += expansions
    return x, cap


def _anchored(b: np.ndarray, power: int, deg: np.ndarray, top: np.ndarray, eps: float, t,
              tally=None, mult=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, cap, drop): bounds x <= x* <= cap on each row's x*, from
    :func:`_laguerre` started at x0 = max(1, top / t) where a root count
    allows, and the rows the count drops.  With t None, Laguerre runs from 1
    and no row is dropped.

    One Taylor expansion at x0, of the orders power and up, which are g's
    (:func:`_taylor`'s high orders), counts the roots of g above x0 by
    Budan-Fourier, with each coefficient's sign certain beyond its _ROUNDING
    bound, counted over the row's deg + power factors and one more for each
    fold (a zero column multiplies exactly, so adds no rounding).  All of
    them above (:func:`_alternates`): x0 < x*, and the expansion is the
    first Laguerre step.  Fewer, where two certain signs break the alternation: x* <= x0,
    so the row keeps cap = x0, its score top / x* is at least top / x0 = t,
    and it is bounded no further.  A row the count cannot decide runs from
    1.  Nothing here depends on the other rows."""
    if t is None:
        return (*_laguerre(b, power, deg, top, eps, tally, None, None, mult),
                np.zeros(top.size, dtype=bool))
    folds = len(mult)
    orders = b.shape[1] - folds + int(sum(mult)) - power + 1
    x0 = np.maximum(1.0, top / t)
    g, h, sizes = _taylor(x0, b, orders, True, mult)
    if tally is not None:
        tally["steps"] += 1
    slack = (_ROUNDING * (deg + power + folds) + 10)[:, None] * MACHINE_EPS * sizes
    above = _alternates(g, deg, slack)
    order = np.arange(orders)
    certain = (np.abs(g) > slack) & (order <= deg[:, None])
    signs = np.where(certain, np.sign(g) * (-1.0) ** order, 0.0)
    drop = (signs.max(axis=1) > 0.0) & (signs.min(axis=1) < 0.0)
    if orders < 3:  # a linear g: orders above are 0
        g = np.pad(g, ((0, 0), (0, 3 - orders)))
    x, cap = np.ones(top.size), x0.copy()
    if above.any():
        x[above], cap[above] = _laguerre(b[above], power, deg[above], top[above], eps, tally,
                                         x0[above], (g[above], h[above]), mult)
    rest = ~(above | drop)
    if rest.any():
        x[rest], cap[rest] = _laguerre(b[rest], power, deg[rest], top[rest], eps, tally,
                                       None, None, mult)
    return x, cap, drop


def _root_scores(mu: np.ndarray, power: int, eps: float, noise: float, tally=None,
                 t=None, shared=None) -> np.ndarray:
    """Scores of the ascending spectra in the rows of mu, each with the
    shared values of shared = (vals, mult) when given (see :func:`_spectra`),
    entries at most noise taken as zero: the largest root of the power-th
    polar image of prod_j (x - mu_j), certified within max(eps, 64 ulps).
    With a bound t, Laguerre starts from :func:`_anchored`'s point, and a
    row it drops scores top / x0, a certified lower bound at least t, with
    no certificate.

    In x = top * y, b = mu / top, the smallest root x* of g = D^power
    prod_j (1 - b_j x), a shared value a fold (see :func:`_live_rows`), is
    at least 1 and the score is top / x*, with x from :func:`_laguerre`.  At z just left of x, strictly alternating Taylor
    orders power .. r put every root of g above z (Budan-Fourier), so the
    bounds of :func:`_root_distances` from z bracket x*, and both ends must
    score within the tolerance.  z backs off from x by the tolerance's share
    per root, but never by less than a few ulps of x, so that z < x.  A row
    with deg = r - power <= 0 has a constant g and scores 0.  At power 0, g
    is the product itself and the score is top exactly, or 0 where top is
    at most noise, with no Taylor expansion.  tally counts as
    :func:`_laguerre` does, with certificate points, and its "retries" the
    back-offs.  Raises CertificateViolation when a score cannot be
    certified.
    """
    scores = np.zeros(mu.shape[0])
    live, top, deg, b, mult = _live_rows(mu, power, noise, shared)
    if power == 0 or not live.size:
        scores[live] = top
        return scores

    x, cap, drop = _anchored(b, power, deg, top, eps, t, tally, mult)
    value = top / np.where(drop, cap, x)
    todo = np.flatnonzero(~drop)
    tol = np.maximum(eps, 64.0 * MACHINE_EPS * value)
    back = np.minimum(np.maximum(eps * x * x / top / (4.0 * deg), 4.0 * MACHINE_EPS * x), x)
    orders = max(deg.max() + 1, 3)
    passes = 0
    while todo.size:
        if passes > _CERTIFICATE_RETRIES:
            row = todo[0]
            raise CertificateViolation(
                f"score {float(value[row])!r} of spectrum row {live[row]} could not be certified "
                f"within {float(tol[row])!r}"
            )
        z = x[todo] - back[todo]
        n = deg[todo]
        c, h = _taylor(z, b[todo], power + orders, False, mult)
        g = c[:, power:]
        lower, upper = _root_distances(g, power, n)
        v, within = value[todo], tol[todo]
        certified = _alternates(g, n) & (np.abs(v - top[todo] / (z + h * lower)) <= within) & (
            np.abs(v - top[todo] / (z + h * upper)) <= within)
        todo = todo[~certified]
        back[todo] *= 4.0
        passes += 1
    if tally is not None:
        tally.update(steps=passes, retries=max(passes - 1, 0))
    scores[live] = value
    return scores


def _score_floors(mu: np.ndarray, power: int, eps: float, noise: float, tally=None,
                  t=None) -> np.ndarray:
    """Lower bounds of the scores of the ascending spectra in the rows of mu,
    as :func:`_root_scores` defines them, with no certificate pass: top / cap
    for the cap of :func:`_anchored` (at least t on a row it drops), or the
    exact scores at power 0."""
    if power == 0:
        return _root_scores(mu, power, eps, noise)
    floors = np.zeros(mu.shape[0])
    live, top, deg, b, _ = _live_rows(mu, power, noise)
    if live.size:
        floors[live] = top / _anchored(b, power, deg, top, eps, t, tally)[1]
    return floors
