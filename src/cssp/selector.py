"""Greedy spectral-norm column selection scored by expected-polynomial roots.

Each iteration scores every admissible candidate column by the largest root
of the polynomial obtained from the candidate's post-selection
characteristic polynomial under the polar-type operator, then keeps the
column with the smallest score.  Scores within a few rounding units of the
iteration's minimum count as tied, and ties go to the smallest column
index, so identical inputs always produce identical subsets.  A score
does not depend on the candidates scored with it.

Scores are found in product form, never from monomial coefficients: by the
reversal identity a candidate with spectrum mu scores 1/y*, y* the smallest
root of the real-rooted g = D^k prod_j (1 - mu_j y).  One Laguerre loop
from the left, with one stopping rule, gives both a point that a
Budan-Fourier sign check certifies and a Samuelson cap on y*.

Most candidates are ruled out before any eigen work of their own.  A
candidate's downdated spectrum interlaces the spectrum of B = E E^T, and
the sign of the secular function at grid points inside each interval,
beyond its rounding bound, certifies a lower end of each eigenvalue; the
ends are widened by twice the noise level, for eigh's backward error and
exact scoring's.  The score increases with every eigenvalue, so the cap
on the lower ends bounds it from below.  The candidate with the least
bound is scored exactly, then the others whose bound is within the tie
margin plus twice the score tolerance of that score; the winner, its root
and the tie rule are those of scoring every candidate.  The bracket pass
is skipped when all candidate matrices fit in one eigvalsh block, and
after a fully scored iteration in which every candidate tied within that
margin, where nothing can be pruned.

The bracket pass starts its Laguerre runs from the score chain.  With
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

Each iteration takes one eigh(B), B summed in one fixed order rather than
by BLAS, whose sums change with its thread count, and one product that
puts every column of E in B's eigenbasis; the bracket pass and exact
scoring read each candidate's coordinates from it, so no score depends on
the candidates scored with it.  With each cluster of eigenvalues deflated,
every candidate's downdated spectrum is one c x c eigvalsh, c the number
of clusters: r where the eigenvalues are apart, two on the hard instance,
where nothing is pruned.  At power 0 a score is its spectrum's top entry,
with no root to seek.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesDegenerate, CertificateViolation, DegenerateDirection, RankExceeded
from .linalg import MACHINE_EPS, _residual_sq, as_matrix, gram_spectrum
from .polynomial import RootApprox

DEFAULT_EPS = 1e-9

# Bytes of stacked downdated matrices whose spectra are computed at once.
# Candidates are handled in index-ordered blocks of this size, which bounds
# peak memory whatever the number of columns (8 candidates at dimension 64).
_BLOCK_BYTES = 256 * 1024

# Scores within this many rounding units of the largest possible score are
# tied.  Candidates that are equal in exact arithmetic (symmetric columns)
# differ by rounding alone, so a tie rule makes the smallest-index choice
# hold by construction rather than by luck.
_TIE_ULPS = 4.0

# Laguerre converges cubically to a simple root and linearly to a multiple
# one; after this many steps the point goes to the certificate as it is.
_LAGUERRE_STEPS = 100

# Times the certificate point backs off fourfold before a score is refused.
_CERTIFICATE_RETRIES = 3

# Points of the sign-test grid inside each interlacing interval.  More
# points tighten the lower ends of the candidate spectra, at the cost of a
# wider product w @ K.
_GRID = 15

# Eigenvalues of E E^T within this fraction of the spectrum noise level of
# each other form a cluster that exact scoring deflates (see _spectra): the
# cluster width and the backward errors of eigh and eigvalsh stay within
# the twice noise that the bracket sets aside.
_CLUSTER_WIDTH = 0.25

# Rounding bound of a Taylor coefficient of _taylor, in eps_mach per nonzero
# column of b (a zero column multiplies exactly), times the sum m of the
# magnitudes of its terms.  Each factor's two entries carry at most three
# roundings (forming a_j or b_j h, the normalising division, and b_j x read
# as moving the root 1/b_j by one ulp), and the product adds two per factor
# (a multiply and a subtract), so the computed coefficient is within
# (5 columns + 10) eps_mach m of the exact one, the 10 covering
# second-order terms; one within that of 0 has no certain sign.
_ROUNDING = 5


@dataclass
class SelectionState:
    """Mutable loop state on the rescaled input A / sqrt(scale): the residual
    factor e, (min(n, d) - |S|) x d with e^T e = A^T Q_S A / scale (Q_S the
    complement projector of the chosen columns S), whose column i is
    candidate i's direction; it starts as the triangular factor R of the
    input (R^T R = A^T A / scale) and each pick drops one row; the input's
    positive Gram eigenvalues eigs; on e's scale, the rank cutoff tol for
    directions and the spectrum noise level."""

    chosen: list[int]
    e: np.ndarray
    eigs: np.ndarray
    scale: float
    tol: float
    noise: float
    # every candidate of the last fully scored iteration tied within the
    # pruning margin, so the next iteration skips the bracket pass
    tied: bool = False

    @property
    def iteration(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class IterationStats:
    """Counts of one greedy iteration: the admissible columns, how many of
    them were scored exactly (the rest were pruned by certified lower
    bounds), the Taylor expansions over a batch of rows (Laguerre steps and
    certificate points) and the certificate's back-offs."""

    admissible: int
    scored: int
    steps: int
    retries: int

    @property
    def pruned(self) -> int:
        return self.admissible - self.scored


@dataclass(frozen=True)
class SelectionResult:
    subset: list[int]
    residual_sq: float
    iteration_roots: list[RootApprox]
    eps: float
    elapsed: float
    eigs: np.ndarray  # the input's positive Gram eigenvalues, descending
    stats: list[IterationStats]  # one entry per iteration


def initial_state(a) -> SelectionState:
    """Empty-selection state of a: one spectrum, a power-of-two rescale of
    the squared norm into [1/2, 2] and the reduction to R."""
    arr = as_matrix(a)
    eigs, tol = gram_spectrum(arr)
    lam1 = float(eigs[0]) if eigs.size else 1.0
    m = min(int(np.round(np.log2(lam1) / 2.0)), 511)  # 4**512 overflows
    scale = 4.0**m
    e = np.linalg.qr(arr * 2.0**-m, mode="r")
    # downdates and eigvalsh are accurate to about eps_mach * ||A||_2^2,
    # whatever a candidate's own top eigenvalue: smaller entries are noise;
    # rescaled first, as the product underflows on tiny inputs
    noise = e.shape[0] * MACHINE_EPS * (lam1 / scale)
    return SelectionState(chosen=[], e=e, eigs=eigs, scale=scale, tol=tol * 2.0**-m, noise=noise)


def _scaled_eps(state: SelectionState, eps) -> float:
    """eps, given on the input scale, on the scale of state, capped at
    8 T^2 / noise, T = 2 lam_1 / scale, twice any spectrum's top entry.

    Every root of a candidate's polynomial lies below top / noise, as its
    entries at most noise count as zero, so from that cap on each Laguerre
    row stops at its first step, the certificate backs off by x, and the
    tolerance and pruning margin exceed every score: every use of eps is
    saturated, and the cap changes no result.  It keeps eps * x * x finite
    where eps on the rescaled input would overflow it (about 1e291 for an
    input near 1e-150).  A noise level that underflowed to 0 bounds no
    root, and then eps is not capped."""
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    eps /= state.scale
    if state.noise > 0.0:
        top = 2.0 * (state.eigs[0] / state.scale if state.eigs.size else 1.0)
        eps = min(eps, 8.0 * top * top / state.noise)
    return eps


def _basis(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, z): the ascending spectrum of B = e e^T and, in row i of z,
    column i of e in B's eigenbasis.  einsum sums B in one fixed order,
    where a threaded BLAS would split its sums by the thread count, and z
    holds every column, whichever are scored."""
    lam, vecs = np.linalg.eigh(np.einsum("ik,jk->ij", e, e))
    return lam, e.T @ vecs


def _downdated(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The matrices P diag(lam) P, P = I - z z^T / |z|^2, for the rows z of
    z, stacked: diag(lam) after projecting off each row, by one rank-one
    update each.  Exactly symmetric."""
    nu2 = np.einsum("ij,ij->i", z, z)[:, None, None]
    w = z * lam
    s = np.einsum("ij,ij->i", z, w)[:, None, None]
    out = z[:, :, None] * w[:, None, :]
    out += out.transpose(0, 2, 1)
    out -= (s / nu2) * (z[:, :, None] * z[:, None, :])
    out /= -nu2
    out.reshape(out.shape[0], -1)[:, :: lam.size + 1] += lam  # the diagonals
    return out


def _taylor(x: np.ndarray, b: np.ndarray, orders: int, high: bool = False):
    """Taylor data of prod_j (1 - b_j x) at each row's x, over the rows of b:
    (c, h) with c[:, m], m < orders, the coefficient of s^m in
    prod_j (a_j - b_j h s) / (|a_j| + b_j h), a_j = 1 - b_j x.

    With high, the top orders instead, from the reversed product in w = 1/s,
    and their sizes: (c, h, m) with c[:, i] the coefficient of
    s^(n - orders + 1 + i), n the columns of b, and m the same coefficients
    of prod_j (|a_j| + b_j h s) / (|a_j| + b_j h), the sums of the magnitudes
    of the terms of each c, which bound its rounding error (see _ROUNDING).

    h, the geometric mean of the distances |a_j| / b_j from x to the roots,
    balances the lowest and highest coefficients, so neither underflows
    however far the roots spread; the positive divisors keep every
    coefficient within [-1, 1].  A zero b_j gives the factor 1 exactly, and
    h's logarithms are summed one column after another, so a row's data do
    not depend on the zero columns or the rows stacked with it.
    """
    # columns x rows, and orders x rows below, so each factor is three
    # in-place passes over contiguous rows
    b = np.ascontiguousarray(b.T)
    a = 1.0 - b * x
    live = b > 0.0
    logs = np.divide(np.maximum(np.abs(a), MACHINE_EPS), b, out=np.ones_like(b), where=live)
    np.log(logs, out=logs)
    h = np.exp(np.add.accumulate(logs, out=logs)[-1] / np.count_nonzero(live, axis=0))
    bh = b * h
    s = np.abs(a) + bh
    a /= s
    bh /= s
    if high:
        # each pass below multiplies by a_j - bh_j s; with (-bh_j, -a_j) it
        # multiplies by a_j w - bh_j, with (bh_j, -|a_j|) by |a_j| w + bh_j
        a, bh = np.concatenate([-bh, bh], axis=1), np.concatenate([-a, -np.abs(a)], axis=1)
    c = np.zeros((orders, a.shape[1]))
    c[0] = 1.0
    head, tail = c[:-1], c[1:]
    tmp = np.empty_like(head)
    for a_j, bh_j in zip(a, bh):
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
    big = np.max(np.abs(data), axis=1, keepdims=True)
    g, d1, d2 = np.divide(data, big, out=np.zeros_like(data), where=big > 0.0).T
    slope = (power + 1) * d1
    curv = (power + 1) * (power + 2) * d2
    spread = slope * slope - curv * g  # g^2 S2
    root = np.sqrt(np.maximum((n - 1) * (n * spread - slope * slope), 0.0))
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
    return np.all(ok | (orders > n[:, None]), axis=1)


def _live_rows(mu: np.ndarray, power: int, noise: float):
    """(live, top, deg, b) of the ascending spectra in the rows of mu,
    entries at most noise taken as zero: the rows whose g = D^power
    prod_j (1 - b_j x) has degree deg > 0, their top entries, and their
    entries over top, b."""
    top = mu[:, -1]
    b = np.where(mu > noise, mu, 0.0)
    deg = np.count_nonzero(b, axis=1) - power
    live = np.flatnonzero(deg > 0)
    top, deg, b = top[live], deg[live], b[live]
    if live.size:
        b /= top[:, None]
        # noise entries lead each row; drop the columns zero in every row
        b = b[:, np.min(np.count_nonzero(b == 0.0, axis=1)) :]
    return live, top, deg, b


def _laguerre(b: np.ndarray, power: int, deg: np.ndarray, top: np.ndarray, eps: float,
              tally=None, x=None, taylor=None) -> tuple[np.ndarray, np.ndarray]:
    """(x, cap) with x <= x* <= cap, x* the smallest root of each row's
    g = D^power prod_j (1 - b_j x), in the terms of :func:`_live_rows`.

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
            c, h = _taylor(x[todo], b[todo], power + 3)
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
              tally=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, cap, drop): bounds x <= x* <= cap on each row's x*, from
    :func:`_laguerre` started at x0 = max(1, top / t) where a root count
    allows, and the rows the count drops.  With t None, Laguerre runs from 1
    and no row is dropped.

    One Taylor expansion at x0, of the orders power and up, which are g's
    (:func:`_taylor`'s high orders), counts the roots of g above x0 by
    Budan-Fourier, with each coefficient's sign certain beyond its _ROUNDING
    bound, counted over the row's own deg + power columns (a zero column
    multiplies exactly, so adds no rounding).  All of them above
    (:func:`_alternates`): x0 < x*, and the expansion is the first Laguerre
    step.  Fewer, where two certain signs break the alternation: x* <= x0,
    so the row keeps cap = x0, its score top / x* is at least top / x0 = t,
    and it is bounded no further.  A row the count cannot decide runs from
    1.  Nothing here depends on the other rows."""
    if t is None:
        return *_laguerre(b, power, deg, top, eps, tally), np.zeros(top.size, dtype=bool)
    orders = b.shape[1] - power + 1
    x0 = np.maximum(1.0, top / t)
    g, h, sizes = _taylor(x0, b, orders, True)
    if tally is not None:
        tally["steps"] += 1
    slack = (_ROUNDING * (deg + power) + 10)[:, None] * MACHINE_EPS * sizes
    above = _alternates(g, deg, slack)
    order = np.arange(orders)
    certain = (np.abs(g) > slack) & (order <= deg[:, None])
    signs = np.where(certain, np.sign(g) * (-1.0) ** order, 0.0)
    drop = (signs.max(axis=1) > 0.0) & (signs.min(axis=1) < 0.0)
    g = np.pad(g, ((0, 0), (0, max(3 - g.shape[1], 0))))  # a linear g: orders above are 0
    x, cap = np.ones(top.size), x0.copy()
    if above.any():
        x[above], cap[above] = _laguerre(b[above], power, deg[above], top[above], eps, tally,
                                         x0[above], (g[above], h[above]))
    rest = ~(above | drop)
    if rest.any():
        x[rest], cap[rest] = _laguerre(b[rest], power, deg[rest], top[rest], eps, tally)
    return x, cap, drop


def _root_scores(mu: np.ndarray, power: int, eps: float, noise: float, tally=None,
                 t=None) -> np.ndarray:
    """Scores of the ascending spectra in the rows of mu, entries at most
    noise taken as zero: the largest root of the power-th polar image of
    prod_j (x - mu_j), certified within max(eps, 64 ulps).  With a bound t,
    Laguerre starts from :func:`_anchored`'s point, and a row it drops
    scores top / x0, a certified lower bound at least t, with no
    certificate.

    In x = top * y, b = mu / top, the smallest root x* of g = D^power
    prod_j (1 - b_j x) is at least 1 and the score is top / x*, with x from
    :func:`_laguerre`.  At z just left of x, strictly alternating Taylor
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
    if power == 0:
        top = mu[:, -1]
        return np.where(top > noise, top, 0.0)
    scores = np.zeros(mu.shape[0])
    live, top, deg, b = _live_rows(mu, power, noise)
    if not live.size:
        return scores

    x, cap, drop = _anchored(b, power, deg, top, eps, t, tally)
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
        c, h = _taylor(z, b[todo], power + orders)
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
    live, top, deg, b = _live_rows(mu, power, noise)
    if live.size:
        floors[live] = top / _anchored(b, power, deg, top, eps, t, tally)[1]
    return floors


def _lower_spectra(z: np.ndarray, noise: float, lam: np.ndarray) -> np.ndarray:
    """Certified lower ends of the downdated spectra of :func:`_spectra`,
    ascending, each lowered by twice noise and clipped at 0, without
    forming the downdated matrices, from the candidates' coordinates z in
    the eigenbasis of b and b's spectrum lam (see :func:`_basis`).

    The downdated spectrum is 0 (the candidate's direction) and mu_1 ..
    mu_r-1, which interlace lam: mu_i in [lam_i, lam_i+1].  Inside that
    interval mu_i >= x exactly when f(x) = sum_j w_j / (lam_j - x) < 0, with
    w = z^2 / |z|^2 (the constrained eigenproblem, Golub, SIAM Rev. 1973).
    f increases, so its negative signs on a grid of _GRID points in the
    interval form a prefix, and the count of certified negatives indexes a
    point no higher than mu_i.  f on the whole grid is w @ K, K[j, m] =
    near_m / (lam_j - x_m), near_m the distance from x_m to the nearer end,
    so |K| <= 1 and a value within (r + 10) ulps of 0 certifies no sign.  K
    covers all r - 1 intervals and the candidates go through it in blocks.
    The widening covers the backward error of eigh and the cluster width
    and eigvalsh error of the exact path.  Intervals narrower than noise are
    not refined.
    """
    r, n = lam.size, z.shape[0]
    w = z * z / np.einsum("ij,ij->i", z, z)[:, None]
    lo, hi = lam[:-1], lam[1:]
    gap = hi - lo
    # rounding must leave every grid point strictly inside its interval
    live = gap > np.maximum(noise, 4.0 * (_GRID + 1) * MACHINE_EPS * np.maximum(-lo, hi))
    # grid[i] is lam_i, then the points inside interval i
    grid = lo[:, None] + gap[:, None] * (np.arange(_GRID + 1) / (_GRID + 1))
    pts = grid[:, 1:]
    near = np.minimum(pts - lo[:, None], hi[:, None] - pts).ravel()
    kern = lam[:, None] - pts.ravel()  # divided in place: one r x (r - 1) _GRID array
    refined = np.repeat(live, _GRID)
    np.divide(near, kern, out=kern, where=refined[None, :])
    kern[:, ~refined] = 0.0
    slack = (r + 10) * MACHINE_EPS
    lower = np.zeros((n, r))
    # each product's result within half the block, below malloc's 128 KiB
    # mmap threshold, so its memory is reused rather than mapped per block
    rows = max(1, _BLOCK_BYTES // (16 * _GRID * r))
    for first in range(0, n, rows):
        negative = w[first : first + rows] @ kern < -slack
        # the shape is explicit, as at r = 1 there are no intervals
        count = negative.reshape(negative.shape[0], r - 1, _GRID).sum(axis=2)
        lower[first : first + rows, 1:] = grid[np.arange(r - 1), count]
    lower[:, 1:] -= 2.0 * noise
    np.maximum(lower, 0.0, out=lower)
    return lower


def _spectra(lam: np.ndarray, z: np.ndarray, noise: float) -> np.ndarray:
    """Ascending spectra, clipped at 0, of B = E E^T after selecting each
    candidate whose coordinates in B's eigenbasis are a row of z, that is
    after projecting diag(lam) off that row, lam B's spectrum (see
    :func:`_basis`), by the deflation step of rank-one eigenvalue updates
    (Bunch, Nielsen and Sorensen, Numer. Math. 1978).

    lam, ascending, is cut into clusters from the bottom, each at most
    _CLUSTER_WIDTH * noise from its least to its greatest value, and each
    cluster's values are replaced by their mean lam_c, which moves B by at
    most that width; the mean keeps the trace, so eigh's errors over a
    cluster do not add up.  In a cluster of m values, the m - 1 directions
    of its eigenspace that are orthogonal to the candidate keep lam_c after
    the downdate; what is left is the c x c :func:`_downdated` of lam_c off
    zeta, the norms of z over the c clusters.  So each candidate's spectrum
    is eigvalsh of one c x c matrix and each lam_c repeated m - 1 times;
    where every cluster is one value, c = r and zeta = z.

    The spectra differ from the exact ones by at most the cluster width plus
    the backward errors of eigh and eigvalsh; the bracket's widening by
    twice noise covers them."""
    vals, width = lam.tolist(), _CLUSTER_WIDTH * noise
    starts = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[starts[-1]] > width:
            starts.append(i)
    lam_c, zeta, kept = lam, z, lam[:0]
    if len(starts) < lam.size:
        sizes = np.diff(starts + [lam.size])
        lam_c = np.add.reduceat(lam, starts) / sizes
        zeta = np.sqrt(np.add.reduceat(z * z, starts, axis=1))
        kept = np.repeat(lam_c, sizes - 1)
    step = max(1, _BLOCK_BYTES // (8 * lam_c.size**2))
    mu = np.concatenate([np.linalg.eigvalsh(_downdated(lam_c, zeta[first : first + step]))
                         for first in range(0, z.shape[0], step)])
    if kept.size:
        mu = np.concatenate([mu, np.broadcast_to(kept, (z.shape[0], kept.size))], axis=1)
        mu.sort(axis=1)
    np.maximum(mu, 0.0, out=mu)
    return mu


def candidate_score(state: SelectionState, i: int, k: int, eps: float = DEFAULT_EPS) -> RootApprox:
    """Score one candidate column against the current selection state.

    The score is the eps-approximate largest root of the operator power
    (k - |S| - 1 applications) of the candidate's residual characteristic
    polynomial, on the input scale.  Smaller is better.  Raises
    DegenerateDirection when the candidate adds nothing to the selected span.
    """
    if not 0 <= i < state.e.shape[1]:
        raise ValueError(f"column index {i} out of range")
    if i in state.chosen:
        raise ValueError(f"column {i} already selected")
    power = int(k) - state.iteration - 1
    if power < 0:
        raise ValueError("selection already holds k columns")
    eps_s = _scaled_eps(state, eps)
    u = state.e[:, i]
    if np.sqrt(float(u @ u)) <= state.tol:
        raise DegenerateDirection(f"column {i} lies in the selected span")
    lam, z = _basis(state.e)
    mu = _spectra(lam, z[i : i + 1], state.noise)
    return RootApprox(float(_root_scores(mu, power, eps_s, state.noise)[0]) * state.scale, eps)


def _advance(state: SelectionState, j: int) -> None:
    """Select column j: reflect its direction u onto the first axis with a
    Householder reflector H and keep rows 1.. of H e.  Row 0 of H e is
    +-(u/|u|)^T e, so dropping it projects e off u, and e loses one row."""
    e = state.e
    v = e[:, j].copy()
    v[0] += np.copysign(np.sqrt(v @ v), v[0])
    state.e = e[1:] - np.outer(v[1:], (v @ e) * (2.0 / (v @ v)))
    state.chosen.append(j)


def _margin(score: float, eps: float, tie: float) -> float:
    """How far above score a certified lower bound may lie and its candidate
    still win: the tie margin plus twice the score tolerance."""
    return tie + 2.0 * max(eps, 64.0 * MACHINE_EPS * score)


def _pick(state: SelectionState, power: int, eps: float, tie: float,
          t=None) -> tuple[int, float, IterationStats]:
    """One iteration's winner, its score and counts: the smallest index among
    the admissible candidates scoring within tie of the minimum.  Raises
    AllCandidatesDegenerate when no candidate is admissible.

    Unless the bracket pass is skipped (see the module docstring), the
    candidate with the least certified lower bound is scored exactly first,
    and then, in one call, every other candidate whose bound is within
    :func:`_margin` of that score; no other candidate can tie the minimum.
    One :func:`_basis` serves the bracket pass and exact scoring.

    t, above which no candidate can win while the score chain holds, starts
    the bracket pass's Laguerre runs (:func:`_anchored`) unless its root
    count costs more than it saves (see the module docstring).  A candidate
    the count drops has a floor, and a score, of at least t: while the chain
    holds it neither wins nor ties, and when the chain is broken the least
    of these lower bounds is returned, which exceeds the chain bound.
    """
    cands = np.delete(np.arange(state.e.shape[1]), state.chosen)
    u = state.e[:, cands].T
    admissible = np.sqrt(np.einsum("ij,ij->i", u, u)) > state.tol
    if not admissible.any():
        raise AllCandidatesDegenerate(f"no admissible column at iteration {state.iteration + 1}; "
                                      "cannot happen for k <= rank")
    cands = cands[admissible]
    count = cands.size
    lam, z = _basis(state.e)
    z = z[cands]
    tally = Counter()
    scores = np.full(count, np.inf)  # inf: pruned, not scored
    todo = scored = np.ones(count, dtype=bool)
    if not state.tied and count > _BLOCK_BYTES // (8 * lam.size**2):
        if 2 * (np.count_nonzero(lam > state.noise) - power + 1) > 3 * (power + 3):
            t = None  # the count is longer than the steps it saves
        floors = _score_floors(_lower_spectra(z, state.noise, lam), power, eps, state.noise,
                               tally, t)
        first = int(np.argmin(floors))
        best = scores[first] = float(_root_scores(_spectra(lam, z[first : first + 1], state.noise),
                                                  power, eps, state.noise, tally, t)[0])
        scored = floors <= best + _margin(best, eps, tie)
        scored[first] = True
        todo = scored.copy()
        todo[first] = False
    else:
        t = None
    if todo.any():
        scores[todo] = _root_scores(_spectra(lam, z[todo], state.noise), power, eps, state.noise,
                                    tally, t)
    low = float(scores.min())
    state.tied = bool(np.all(scores <= low + _margin(low, eps, tie)))
    pos = int(np.argmax(scores <= low + tie))
    stats = IterationStats(count, int(np.count_nonzero(scored)), tally["steps"], tally["retries"])
    return int(cands[pos]), float(scores[pos]), stats


def select(a, k: int, eps: float = DEFAULT_EPS) -> SelectionResult:
    """Pick k columns whose span nearly minimizes the spectral residual.

    Runs the greedy expected-polynomial loop and returns the chosen subset
    (0-based, in selection order), the achieved squared spectral residual,
    and the per-iteration winning root approximations.  eps is measured on
    the input scale and must be finite and positive: every reported root is
    within eps (or 64 ulps, if larger) of the exact root it approximates,
    and the residual obeys the 2*k*eps guarantee against the spectrum bound
    whenever k is in its regime.

    The loop runs on the residual factor of :func:`initial_state`, so
    scores depend on A only through A^T A; the final residual is computed
    from A itself.

    CertificateViolation is raised when a winning score exceeds the previous
    one by more than 2*eps plus the tie margin (the chain cannot rise), or
    the final residual exceeds the last root by more than 1e-12 * ||A||_2^2.
    """
    start = time.perf_counter()
    arr = as_matrix(a)
    return _select(arr, initial_state(arr), int(k), eps, start)


def _check_rank(k: int, rank: int) -> None:
    if not 1 <= k <= rank:
        raise RankExceeded(f"k={k} outside [1, rank={rank}]")


def _select(arr: np.ndarray, state: SelectionState, k: int, eps, start: float) -> SelectionResult:
    """:func:`select` from the empty-selection state of arr, which it
    advances; elapsed counts from start."""
    eps_s = _scaled_eps(state, eps)
    eigs, scale = state.eigs, state.scale
    _check_rank(k, eigs.size)
    lam1 = float(eigs[0])
    tie = _TIE_ULPS * MACHINE_EPS * max(1.0, lam1 / scale)
    # the full spectrum's score heads the chain of winning scores
    roots_scaled = [float(_root_scores((eigs / scale)[None, ::-1], k, eps_s, state.noise)[0])]
    stats: list[IterationStats] = []
    for l in range(1, k + 1):
        bound = roots_scaled[-1] + 2.0 * eps_s + tie
        best_idx, best_val, counts = _pick(state, k - l, eps_s, tie,
                                           bound + _margin(bound, eps_s, tie))
        if best_val > bound:
            raise CertificateViolation(
                f"score chain violated at iteration {l}: {best_val} > {roots_scaled[-1]} + 2*eps"
            )
        roots_scaled.append(best_val)
        stats.append(counts)
        _advance(state, best_idx)

    subset = list(state.chosen)
    residual = _residual_sq(arr, subset, eigs.size, state.tol * np.sqrt(scale))
    roots = [RootApprox(v * scale, eps) for v in roots_scaled[1:]]
    if residual > roots[-1].value + roots[-1].epsilon + 1e-12 * lam1:
        raise CertificateViolation(
            f"final residual {residual!r} exceeds its certified root {roots[-1].value!r}"
        )
    return SelectionResult(
        subset=subset,
        residual_sq=float(residual),
        iteration_roots=roots,
        eps=eps,
        elapsed=time.perf_counter() - start,
        eigs=eigs,
        stats=stats,
    )
