"""Greedy spectral-norm column selection scored by expected-polynomial roots.

Each iteration scores every admissible candidate column by the largest root
of the polynomial obtained from the candidate's post-selection
characteristic polynomial under the polar-type operator, then keeps the
column with the smallest root approximation.  Scores within a few rounding
units of the iteration's minimum count as tied, and ties go to the smallest
column index, so identical inputs always produce identical subsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import AllCandidatesDegenerate, DegenerateDirection, RankExceeded
from .linalg import (
    MACHINE_EPS,
    as_matrix,
    gram,
    gram_spectrum,
    projector_update,
    rank_tolerance,
    residual_spectral_sq,
)
from .polynomial import RootApprox, from_roots, maxroot, maxroots, polar_power

DEFAULT_EPS = 1e-9

# Relative cushion on the per-iteration score-chain check.  Roots of high
# multiplicity are poorly conditioned in the coefficient basis (a cluster of
# multiplicity m splits with radius around eps**(1/m) of its scale), so the
# runtime tripwire only flags gross violations; the test suite asserts the
# chain tightly on well-conditioned instances.
_CHAIN_SLACK = 0.05

# Bytes of stacked downdated matrices scored at once.  Candidates are scored
# in index-ordered blocks of this size, which bounds peak memory whatever the
# number of columns (8 candidates at dimension 64).
_BLOCK_BYTES = 256 * 1024

# Scores within this many rounding units of the largest possible score are
# tied.  Candidates that are equal in exact arithmetic (symmetric columns)
# differ by rounding alone, so a tie rule makes the smallest-index choice
# hold by construction rather than by luck.
_TIE_ULPS = 4.0


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


def _scores(state, a, u, power, eps, hi, tie) -> list[float | None]:
    """Scores of the candidates whose directions are the rows of u, in row
    order: the eps-approximate largest root of the operator power of each
    candidate's residual characteristic polynomial, or the top eigenvalue
    when power is 0.  With a tie margin, None marks a candidate pruned as
    more than tie above a smaller score."""
    dim = state.b.shape[0]
    degree = max(a.shape[1], dim)
    step = max(1, _BLOCK_BYTES // (8 * dim * dim))
    scores: list[float | None] = []
    for first in range(0, u.shape[0], step):
        eigs = np.linalg.eigvalsh(_downdated(state, u[first : first + step]))
        np.maximum(eigs, 0.0, out=eigs)
        if power == 0:
            # the top eigenvalue is far more accurate than coefficient
            # root-finding when eigenvalues cluster
            scores.extend(eigs[:, -1].tolist())
            continue
        known = min((v for v in scores if v is not None), default=None)
        roots = maxroots(polar_power(from_roots(eigs, degree), power), eps,
                         hi=hi, abort_above=known, tie=tie)
        scores.extend(None if r is None else r.value for r in roots)
    return scores


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
    u = state.q @ arr[:, i]
    if np.sqrt(float(u @ u)) <= rank_tolerance(arr):
        raise DegenerateDirection(f"column {i} lies in the selected span")
    return RootApprox(_scores(state, arr, u[None, :], power, eps, None, None)[0], eps)


def _advance(state: SelectionState, a: np.ndarray, j: int, tol: float) -> None:
    state.b = _downdated(state, (state.q @ a[:, j])[None, :])[0]
    state.q = projector_update(state.q, a[:, j], tol)
    state.chosen.append(j)


def _pick(state, a, power, eps, tol, hi, tie) -> tuple[int, float]:
    """One iteration's winner and its score: the smallest index among the
    admissible candidates scoring within tie of the minimum."""
    cands = np.delete(np.arange(a.shape[1]), state.chosen)
    u = (state.q @ a[:, cands]).T
    admissible = np.sqrt(np.einsum("ij,ij->i", u, u)) > tol
    if not admissible.any():
        return -1, np.inf
    cands, u = cands[admissible], u[admissible]
    scores = _scores(state, a, u, power, eps, hi, tie)
    low = min(v for v in scores if v is not None)
    pos = next(p for p, v in enumerate(scores) if v is not None and v <= low + tie)
    return int(cands[pos]), scores[pos]


def select(a, k: int, eps: float = DEFAULT_EPS) -> SelectionResult:
    """Pick k columns whose span nearly minimizes the spectral residual.

    Runs the greedy expected-polynomial loop and returns the chosen subset
    (0-based, in selection order), the achieved squared spectral residual,
    and the per-iteration winning root approximations.  eps is measured on
    the input scale: every reported root is within eps of the exact root it
    approximates, and the residual obeys the 2*k*eps guarantee against the
    spectrum bound whenever k is in its regime.

    The matrix is rescaled by a power of two so its squared spectral norm
    lands in [1/2, 2] before any polynomial work; roots are scaled back on
    output.  Every score depends on A only through A^T A, so the loop runs
    on the min(n, d) x d triangular factor R of A (R^T R = A^T A), whose
    cached form Q R R^T Q is never larger than either Gram side.  The final
    residual is computed from A itself.
    """
    start = time.perf_counter()
    arr = as_matrix(a)
    d = arr.shape[1]
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
    lam1_s = lam1 / scale
    hi_cap = lam1_s * (1.0 + 1e-9) + eps_s
    tie = _TIE_ULPS * MACHINE_EPS * max(1.0, hi_cap)

    r = np.linalg.qr(a_s, mode="r")
    state = initial_state(r)
    base = from_roots(eigs / scale, d)[0]
    prev_score = maxroot(polar_power(base, k), eps_s, hi=hi_cap).value

    roots_scaled: list[float] = []
    for l in range(1, k + 1):
        best_idx, best_val = _pick(state, r, k - l, eps_s, tol_s, hi_cap, tie)
        if best_idx < 0:
            raise AllCandidatesDegenerate(
                f"no admissible column at iteration {l}; cannot happen for k <= rank"
            )
        if best_val > prev_score + 2.0 * eps_s + _CHAIN_SLACK * (1.0 + abs(prev_score)):
            raise RuntimeError(
                f"score chain violated at iteration {l}: {best_val} > {prev_score} + 2*eps"
            )
        prev_score = best_val
        roots_scaled.append(best_val)
        _advance(state, r, best_idx, tol_s)

    subset = list(state.chosen)
    residual = residual_spectral_sq(arr, subset)
    roots = [RootApprox(v * scale, eps) for v in roots_scaled]
    if residual > roots[-1].value + roots[-1].epsilon + 1e-7 * max(1.0, lam1):
        raise RuntimeError("final residual exceeds its certified root approximation")
    return SelectionResult(
        subset=subset,
        residual_sq=float(residual),
        iteration_roots=roots,
        eps=eps,
        elapsed=time.perf_counter() - start,
        eigs=eigs,
    )
