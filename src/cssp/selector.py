"""Greedy spectral-norm column selection scored by expected-polynomial roots.

Each iteration scores every admissible candidate column by the largest root
of the polynomial obtained from the candidate's post-selection
characteristic polynomial under the polar-type operator, then keeps the
column with the smallest score.  Scores within a few rounding units of the
iteration's minimum count as tied, and ties go to the smallest column
index, so identical inputs always produce identical subsets.

Scores are found in product form, never from monomial coefficients: by the
reversal identity a candidate with spectrum mu scores 1/y*, y* the smallest
root of the real-rooted g = D^k prod_j (1 - mu_j y), which Laguerre's method
reaches from the left and a Budan-Fourier sign check certifies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesDegenerate, CertificateViolation, DegenerateDirection, RankExceeded
from .linalg import (
    MACHINE_EPS,
    as_matrix,
    gram,
    gram_spectrum,
    projector_update,
    residual_spectral_sq,
)
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


@dataclass
class SelectionState:
    """Mutable loop state: chosen columns, complement projector Q and the
    cached product matrix Q A A^T Q."""

    chosen: list[int]
    q: np.ndarray
    b: np.ndarray

    @property
    def iteration(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class SelectionResult:
    subset: list[int]
    residual_sq: float
    iteration_roots: list[RootApprox]
    eps: float
    elapsed: float
    eigs: np.ndarray  # the input's positive Gram eigenvalues, descending


def initial_state(a) -> SelectionState:
    """Empty-selection state of a with the n x n cached form A A^T, which
    has the nonzero spectrum of A^T A."""
    arr = as_matrix(a)
    return SelectionState(chosen=[], q=np.eye(arr.shape[0]), b=gram(arr, by="rows"))


def _downdated(state: SelectionState, u: np.ndarray) -> np.ndarray:
    """The cached matrix Q A A^T Q after selecting each column whose
    direction Q a_i is a row of u, that is after shrinking Q by u u^T /
    (u^T u): one rank-one update per row, stacked.  Exactly symmetric
    when the cached matrix is."""
    nu2 = np.einsum("ij,ij->i", u, u)[:, None, None]
    w = u @ state.b
    s = np.einsum("ij,ij->i", u, w)[:, None, None]
    out = u[:, :, None] * w[:, None, :]
    out += out.transpose(0, 2, 1)
    out -= (s / nu2) * (u[:, :, None] * u[:, None, :])
    out /= -nu2
    out += state.b
    return out


def _taylor(x: np.ndarray, b: np.ndarray, orders: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor data of prod_j (1 - b_j x) at each row's x, over the rows of b:
    (c, h) with c[:, m], m < orders, the coefficient of s^m in
    prod_j (a_j - b_j h s) / (|a_j| + b_j h), a_j = 1 - b_j x.

    h, the geometric mean of the distances |a_j| / b_j from x to the roots,
    balances the lowest and highest coefficients, so neither underflows
    however far the roots spread; the positive divisors keep every
    coefficient within [-1, 1].  A zero b_j gives the factor 1 exactly.
    """
    a = 1.0 - b * x[:, None]
    live = b > 0.0
    dist = np.divide(np.maximum(np.abs(a), MACHINE_EPS), b, out=np.ones_like(b), where=live)
    h = np.exp(np.log(dist).sum(axis=1) / np.count_nonzero(live, axis=1))
    bh = b * h[:, None]
    s = np.abs(a) + bh
    a /= s
    bh /= s
    c = np.zeros((x.size, orders))
    c[:, 0] = 1.0
    for j in range(b.shape[1]):
        c[:, 1:] = a[:, j, None] * c[:, 1:] - bh[:, j, None] * c[:, :-1]
        c[:, 0] *= a[:, j]
    return c, h


def _root_distances(c: np.ndarray, power: int, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Laguerre step, S1/S2) from each row's point towards the smallest
    root of the degree-n g = D^power p, given p's Taylor data c.

    With u_i = 1 / (root_i - point), S1 = sum u_i = -g'/g and S2 = sum u_i^2.
    When every root lies above the point, max u_i is at least S2/S1 and, by
    Samuelson's inequality, at most (S1 + sqrt((n-1) (n S2 - S1^2))) / n, so
    the two values bound the distance to the root.  They are formed without
    dividing by g, so an exact hit (g = 0) gives a zero step, and with the
    larger Laguerre denominator, so a rounding-level g cannot jump a root.
    """
    data = c[:, power : power + 3]
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


def _root_scores(mu: np.ndarray, power: int, eps: float, noise: float) -> np.ndarray:
    """Scores of the ascending spectra in the rows of mu, entries at most
    noise taken as zero: the largest root of the power-th polar image of
    prod_j (x - mu_j), certified within max(eps, 64 ulps).

    In x = top * y, b = mu / top, the smallest root x* of g = D^power
    prod_j (1 - b_j x) is at least 1 and the score is top / x*; Laguerre's
    method from x = 1 stays left of x* and converges to it.  At z just left
    of x, strictly alternating Taylor orders power .. r put every root of g
    above z (Budan-Fourier), so the bounds of :func:`_root_distances` from
    z bracket x*, and both ends must score within the tolerance.  A row
    with deg = r - power <= 0 has a constant g and scores 0.  Raises
    CertificateViolation when a score cannot be certified.
    """
    top = mu[:, -1]
    b = np.where(mu > noise, mu, 0.0)
    deg = np.count_nonzero(b, axis=1) - power
    scores = np.zeros(mu.shape[0])
    live = np.flatnonzero(deg > 0)
    if not live.size:
        return scores
    top, deg = top[live], deg[live]
    b = b[live] / top[:, None]
    # noise entries lead each row; drop the columns zero in every row
    b = b[:, np.min(np.count_nonzero(b == 0.0, axis=1)) :]

    x = np.ones(live.size)
    todo = np.arange(live.size)
    for _ in range(_LAGUERRE_STEPS):
        c, h = _taylor(x[todo], b[todo], power + 3)
        step = h * _root_distances(c, power, deg[todo])[0]
        x[todo] += step
        x_t = x[todo]
        small = np.maximum(eps * x_t * x_t / (4.0 * top[todo]), 8.0 * MACHINE_EPS * x_t)
        todo = todo[np.abs(step) > small]
        if not todo.size:
            break

    value = top / x
    tol = np.maximum(eps, 64.0 * MACHINE_EPS * value)
    back = np.minimum(np.maximum(eps * x * x / top, 16.0 * MACHINE_EPS * x) / (4.0 * deg), x)
    orders = np.arange(max(deg.max() + 1, 3))
    todo = np.arange(live.size)
    for _ in range(_CERTIFICATE_RETRIES + 1):
        z = x[todo] - back[todo]
        n = deg[todo]
        c, h = _taylor(z, b[todo], power + orders.size)
        signs = np.sign(c[:, power:]) * np.sign(c[:, power, None]) * (-1.0) ** orders
        alternate = np.all((signs == 1.0) | (orders > n[:, None]), axis=1)
        lower, upper = _root_distances(c, power, n)
        v, t = value[todo], tol[todo]
        certified = alternate & (np.abs(v - top[todo] / (z + h * lower)) <= t) & (
            np.abs(v - top[todo] / (z + h * upper)) <= t)
        todo = todo[~certified]
        if not todo.size:
            scores[live] = value
            return scores
        back[todo] *= 4.0
    row = todo[0]
    raise CertificateViolation(
        f"score {float(value[row])!r} of spectrum row {live[row]} could not be certified "
        f"within {float(tol[row])!r}"
    )


def _scores(state: SelectionState, u: np.ndarray, power: int, eps: float,
            noise: float) -> np.ndarray:
    """Certified scores of the candidates whose directions are the rows of
    u, in row order: the eps-approximate largest root of the operator power
    of each candidate's residual characteristic polynomial, with spectrum
    entries at most noise taken as zero."""
    dim = state.b.shape[0]
    step = max(1, _BLOCK_BYTES // (8 * dim * dim))
    eigs = np.concatenate([np.linalg.eigvalsh(_downdated(state, u[first : first + step]))
                           for first in range(0, u.shape[0], step)])
    np.maximum(eigs, 0.0, out=eigs)
    return _root_scores(eigs, power, eps, noise)


def candidate_score(state: SelectionState, i: int, a, k: int, eps: float = DEFAULT_EPS) -> RootApprox:
    """Score one candidate column against the current selection state.

    The score is the eps-approximate largest root of the operator power
    (k - |S| - 1 applications) of the candidate's residual characteristic
    polynomial.  Smaller is better.  Raises DegenerateDirection when the
    candidate adds nothing to the selected span.
    """
    arr = as_matrix(a)
    n, d = arr.shape
    if not 0 <= i < d:
        raise ValueError(f"column index {i} out of range")
    if i in state.chosen:
        raise ValueError(f"column {i} already selected")
    power = int(k) - state.iteration - 1
    if power < 0:
        raise ValueError("selection already holds k columns")
    eigs, tol = gram_spectrum(arr)
    u = state.q @ arr[:, i]
    if np.sqrt(float(u @ u)) <= tol:
        raise DegenerateDirection(f"column {i} lies in the selected span")
    noise = state.b.shape[0] * MACHINE_EPS * float(eigs[0])
    return RootApprox(float(_scores(state, u[None, :], power, eps, noise)[0]), eps)


def _advance(state: SelectionState, a: np.ndarray, j: int, tol: float) -> None:
    state.b = _downdated(state, (state.q @ a[:, j])[None, :])[0]
    state.q = projector_update(state.q, a[:, j], tol)
    state.chosen.append(j)


def _pick(state, a, power, eps, tol, tie, noise) -> tuple[int, float]:
    """One iteration's winner and its score: the smallest index among the
    admissible candidates scoring within tie of the minimum."""
    cands = np.delete(np.arange(a.shape[1]), state.chosen)
    u = (state.q @ a[:, cands]).T
    admissible = np.sqrt(np.einsum("ij,ij->i", u, u)) > tol
    if not admissible.any():
        return -1, np.inf
    cands, u = cands[admissible], u[admissible]
    scores = _scores(state, u, power, eps, noise)
    pos = int(np.argmax(scores <= scores.min() + tie))
    return int(cands[pos]), float(scores[pos])


def select(a, k: int, eps: float = DEFAULT_EPS) -> SelectionResult:
    """Pick k columns whose span nearly minimizes the spectral residual.

    Runs the greedy expected-polynomial loop and returns the chosen subset
    (0-based, in selection order), the achieved squared spectral residual,
    and the per-iteration winning root approximations.  eps is measured on
    the input scale: every reported root is within eps (or 64 ulps, if
    larger) of the exact root it approximates, and the residual obeys the 2*k*eps guarantee against the
    spectrum bound whenever k is in its regime.

    The matrix is rescaled by a power of two so its squared spectral norm
    lands in [1/2, 2] before any root work; roots are scaled back on
    output.  Every score depends on A only through A^T A, so the loop runs
    on the min(n, d) x d triangular factor R of A (R^T R = A^T A), whose
    cached form Q R R^T Q is never larger than either Gram side.  The final
    residual is computed from A itself.

    CertificateViolation is raised when a winning score exceeds the previous
    one by more than 2*eps plus the tie margin (the chain cannot rise), or
    the final residual exceeds the last root by more than 1e-12 * ||A||_2^2.
    """
    start = time.perf_counter()
    arr = as_matrix(a)
    k = int(k)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    eigs, tol = gram_spectrum(arr)
    if not 1 <= k <= eigs.size:
        raise RankExceeded(f"k={k} outside [1, rank={eigs.size}]")
    lam1 = float(eigs[0])

    # power-of-two rescale of the squared norm into [1/2, 2]
    m = int(np.round(np.log2(lam1) / 2.0))
    scale = 4.0**m
    a_s = arr * 2.0**-m
    eps_s = eps / scale
    tol_s = tol * 2.0**-m
    tie = _TIE_ULPS * MACHINE_EPS * max(1.0, lam1 / scale)

    r = np.linalg.qr(a_s, mode="r")
    state = initial_state(r)
    # downdates and eigvalsh are accurate to about eps_mach * ||A||_2^2,
    # whatever a candidate's own top eigenvalue: smaller entries are noise
    noise = r.shape[0] * MACHINE_EPS * lam1 / scale
    prev_score = float(_root_scores((eigs / scale)[None, ::-1], k, eps_s, noise)[0])

    roots_scaled: list[float] = []
    for l in range(1, k + 1):
        best_idx, best_val = _pick(state, r, k - l, eps_s, tol_s, tie, noise)
        if best_idx < 0:
            raise AllCandidatesDegenerate(
                f"no admissible column at iteration {l}; cannot happen for k <= rank"
            )
        if best_val > prev_score + 2.0 * eps_s + tie:
            raise CertificateViolation(
                f"score chain violated at iteration {l}: {best_val} > {prev_score} + 2*eps"
            )
        prev_score = best_val
        roots_scaled.append(best_val)
        _advance(state, r, best_idx, tol_s)

    subset = list(state.chosen)
    residual = residual_spectral_sq(arr, subset)
    roots = [RootApprox(v * scale, eps) for v in roots_scaled]
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
    )
