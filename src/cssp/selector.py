"""Greedy spectral-norm column selection scored by expected-polynomial roots.

Each iteration scores every admissible candidate column by the largest root
of the polynomial obtained from the candidate's post-selection
characteristic polynomial under the polar-type operator, then keeps the
column with the smallest score.  Scores within a few rounding units of the
iteration's minimum count as tied, and ties go to the smallest column
index, so identical inputs always produce identical subsets.  A score
does not depend on the candidates scored with it.

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

Each iteration takes one eigh(B), B summed in one fixed order rather than
by BLAS, whose sums change with its thread count, and one product that
puts every column of E in B's eigenbasis; the bracket pass and exact
scoring read each candidate's coordinates from it, so no score depends on
the candidates scored with it.  With each cluster of eigenvalues deflated,
every candidate's downdated spectrum is its own c values, one c x c
eigvalsh, c the number of clusters (r where the eigenvalues are apart, two
on the hard instance, where nothing is pruned), and the iteration's shared
values: each cluster of m values keeps its value m - 1 times in every
candidate's spectrum.  Scores are certified roots (see :mod:`cssp.roots`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesDegenerate, CertificateViolation, DegenerateDirection
from .linalg import MACHINE_EPS, _check_rank, _residual_sq, _unit_exponent, as_matrix, gram_spectrum
from .polynomial import DEFAULT_EPS, RootApprox
from .roots import _root_scores, _score_floors

# Bytes of stacked downdated matrices whose spectra are computed at once.
# Candidates are handled in index-ordered blocks of this size, which bounds
# peak memory whatever the number of columns (8 candidates at dimension 64).
_BLOCK_BYTES = 256 * 1024

# Scores within this many rounding units of the largest possible score are
# tied.  Candidates that are equal in exact arithmetic (symmetric columns)
# differ by rounding alone, so a tie rule makes the smallest-index choice
# hold by construction rather than by luck.
_TIE_ULPS = 4.0

# Points of the sign-test grid inside each interlacing interval.  More
# points tighten the lower ends of the candidate spectra, at the cost of a
# wider product w @ K.
_GRID = 15

# Eigenvalues of E E^T within this fraction of the spectrum noise level of
# each other form a cluster that exact scoring deflates (see _spectra): the
# cluster width and the backward errors of eigh and eigvalsh stay within
# the twice noise that the bracket sets aside.
_CLUSTER_WIDTH = 0.25


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
    m = _unit_exponent(lam1)
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


def _spectra(lam: np.ndarray, z: np.ndarray, noise: float):
    """(mu, shared): the ascending spectra, clipped at 0, of B = E E^T after
    selecting each candidate whose coordinates in B's eigenbasis are a row
    of z, that is after projecting diag(lam) off that row, lam B's spectrum
    (see :func:`_basis`), by the deflation step of rank-one eigenvalue
    updates (Bunch, Nielsen and Sorensen, Numer. Math. 1978): each row of mu
    holds a candidate's own values, and shared = (vals, mult) the values
    every candidate's spectrum also holds, vals[i] mult[i] times.

    lam, ascending, is cut into clusters from the bottom, each at most
    _CLUSTER_WIDTH * noise from its least to its greatest value, and each
    cluster's values are replaced by their mean lam_c, which moves B by at
    most that width; the mean keeps the trace, so eigh's errors over a
    cluster do not add up.  In a cluster of m values, the m - 1 directions
    of its eigenspace that are orthogonal to the candidate keep lam_c after
    the downdate; what is left is the c x c :func:`_downdated` of lam_c off
    zeta, the norms of z over the c clusters.  So a candidate's own values
    are eigvalsh of one c x c matrix, and the clusters of m >= 2 values
    share (lam_c, m - 1), which depend on lam alone, whatever the batch;
    where every cluster is one value, c = r, zeta = z and nothing is shared.

    The spectra differ from the exact ones by at most the cluster width plus
    the backward errors of eigh and eigvalsh; the bracket's widening by
    twice noise covers them."""
    vals, width = lam.tolist(), _CLUSTER_WIDTH * noise
    starts = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[starts[-1]] > width:
            starts.append(i)
    lam_c, zeta, shared = lam, z, (lam[:0], np.zeros(0, dtype=int))
    if len(starts) < lam.size:
        sizes = np.diff(starts + [lam.size])
        lam_c = np.add.reduceat(lam, starts) / sizes
        zeta = np.sqrt(np.add.reduceat(z * z, starts, axis=1))
        repeated = sizes > 1
        shared = (np.maximum(lam_c[repeated], 0.0), sizes[repeated] - 1)
    step = max(1, _BLOCK_BYTES // (8 * lam_c.size**2))
    mu = np.concatenate([np.linalg.eigvalsh(_downdated(lam_c, zeta[first : first + step]))
                         for first in range(0, z.shape[0], step)])
    np.maximum(mu, 0.0, out=mu)
    return mu, shared


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
    mu, shared = _spectra(lam, z[i : i + 1], state.noise)
    score = _root_scores(mu, power, eps_s, state.noise, None, None, shared)[0]
    return RootApprox(float(score) * state.scale, eps)


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
    the bracket pass's Laguerre runs (:func:`cssp.roots._anchored`) unless
    its root count costs more than it saves (see :mod:`cssp.roots`).  A candidate
    the count drops has a floor, and a score, of at least t: while the chain
    holds it neither wins nor ties, and when the chain is broken the least
    of these lower bounds is returned, which exceeds the chain bound.
    """
    free = np.ones(state.e.shape[1], dtype=bool)
    free[state.chosen] = False
    cands = np.flatnonzero(free)
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
        mu, shared = _spectra(lam, z[first : first + 1], state.noise)
        best = float(_root_scores(mu, power, eps, state.noise, tally, t, shared)[0])
        scores[first] = best
        scored = floors <= best + _margin(best, eps, tie)
        scored[first] = True
        todo = scored.copy()
        todo[first] = False
    else:
        t = None
    if todo.any():
        mu, shared = _spectra(lam, z[todo], state.noise)
        scores[todo] = _root_scores(mu, power, eps, state.noise, tally, t, shared)
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
