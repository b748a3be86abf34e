"""Closed-form residual bounds from the Gram spectrum.

Notation used throughout: the Gram matrix A^T A has positive eigenvalues
lam_1 >= ... >= lam_t > 0 (t = rank).  alpha is the harmonic mean of those
eigenvalues and beta locates alpha inside [lam_t, lam_1] on the inverse
scale; together they drive every bound in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySpectrum, NonPositiveEigenvalue, OutOfRegime
from .linalg import _unit_exponent, gram_spectrum

# lam_1 and lam_t closer than this (relative) are treated as an equal
# spectrum, where beta is 1 and the bound formulas short-circuit.
DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumInfo:
    """Rank, positive Gram eigenvalues (descending) and derived constants."""

    t: int
    eigs: np.ndarray
    alpha: float
    beta: float
    degenerate: bool


@dataclass(frozen=True)
class BoundReport:
    k: int
    t: int
    alpha: float
    beta: float
    gamma: float
    bound: float
    applicable: bool


def spectrum_info(eigs) -> SpectrumInfo:
    """Summarize a descending positive spectrum.

    alpha is t / sum(1/lam_i); beta = (1/lam_t - 1/alpha) / (1/lam_t - 1/lam_1),
    which lies in (0, 1) whenever lam_1 > lam_t.  An equal spectrum is
    reported with beta = 1 and the degenerate flag set.  The constants are
    computed on the spectrum scaled by 4**-m, m as in select's
    initial_state, to put lam_1 in [1/2, 2]: exact, and 1/lam stays finite
    for subnormal lam.
    """
    arr = np.asarray(eigs, dtype=float).reshape(-1)
    if arr.size == 0:
        raise EmptySpectrum("need at least one eigenvalue")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise NonPositiveEigenvalue("eigenvalues must be finite and positive")
    if np.any(np.diff(arr) > 0.0):
        raise ValueError("eigenvalues must be sorted descending")
    t = arr.size
    m = 2 * _unit_exponent(float(arr[0]))
    scaled = np.ldexp(arr, -m)
    alpha = t / float(np.sum(1.0 / scaled))
    lam1, lamt = float(scaled[0]), float(scaled[-1])
    degenerate = (lam1 - lamt) <= DEGENERATE_REL_TOL * lam1
    if degenerate:
        beta = 1.0
    else:
        beta = (1.0 / lamt - 1.0 / alpha) / (1.0 / lamt - 1.0 / lam1)
    return SpectrumInfo(t=t, eigs=arr.copy(), alpha=float(np.ldexp(alpha, m)), beta=beta,
                        degenerate=degenerate)


def spectrum_of(a) -> SpectrumInfo:
    """Spectrum summary of a dense matrix, noise eigenvalues excluded.

    Gram eigenvalues at or below the squared rank tolerance are dropped so
    the rank seen here matches the rank the selector uses.
    """
    eigs, _ = gram_spectrum(a)
    if eigs.size == 0:
        raise EmptySpectrum("matrix has numerical rank zero")
    return spectrum_info(eigs)


def gamma_factor(k: int, info: SpectrumInfo) -> float:
    """Interpolation weight (sqrt(k/t) - sqrt(beta/(1-beta) (1-k/t)))^2.

    Grows from 0 at k = beta*t to 1 at k = t; only defined on that range
    and only for spectra with lam_1 > lam_t.
    """
    if info.degenerate:
        raise OutOfRegime("equal spectrum: the interpolation factor is undefined")
    k = int(k)
    t = info.t
    if not info.beta * t <= k < t:
        raise OutOfRegime(f"k={k} outside [beta*t, t) = [{info.beta * t:.6g}, {t})")
    ratio = k / t
    inner = np.sqrt(ratio) - np.sqrt(info.beta / (1.0 - info.beta) * (1.0 - ratio))
    return float(inner * inner)


def residual_bound(info: SpectrumInfo, k: int) -> BoundReport:
    """Upper bound on the squared spectral residual of the best k-subset.

    bound = lam_1 / (1 + (lam_1/alpha - 1) * gamma), a weighted harmonic
    mean of lam_1 and alpha.  The guarantee holds for beta*t <= k < t with
    lam_1 > lam_t; outside that range the report carries the clamped-gamma
    value (lam_1 below the range, alpha at or above t) with applicable set
    to False.  An equal spectrum reports its single eigenvalue.
    """
    k = int(k)
    lam1 = float(info.eigs[0])
    if info.degenerate:
        return BoundReport(k=k, t=info.t, alpha=info.alpha, beta=info.beta,
                           gamma=1.0, bound=lam1, applicable=False)
    in_regime = info.beta * info.t <= k < info.t
    if k < info.beta * info.t:
        gamma = 0.0
    elif k >= info.t:
        gamma = 1.0
    else:
        gamma = gamma_factor(k, info)
    bound = lam1 / (1.0 + (lam1 / info.alpha - 1.0) * gamma)
    return BoundReport(k=k, t=info.t, alpha=info.alpha, beta=info.beta,
                       gamma=gamma, bound=float(bound), applicable=bool(in_regime))


def hard_instance_bounds(d: int, delta: float, k: int) -> tuple[float, float]:
    """Closed-form (upper, lower) residual bounds for the hard instance.

    The hard instance is the (d+1) x d matrix whose j-th column is
    e_1 + delta * e_{j+1}; its Gram matrix is delta^2 I + ones.  The upper
    value is the spectrum bound evaluated in closed form; the lower value
    delta^2 (d + delta^2) / (k + delta^2) holds for every k-subset.
    """
    d, k = int(d), int(k)
    if d < 2:
        raise ValueError("hard instance needs d >= 2")
    if not 1 <= k < d:
        raise ValueError("need 1 <= k < d")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    d2 = delta * delta
    inner = np.sqrt(k - k / d) - np.sqrt(1.0 - k / d)
    upper = (d + d2) / (1.0 + inner * inner / d2)
    lower = d2 * (d + d2) / (k + d2)
    return float(upper), float(lower)


def barrier_root_bound(roots_in_unit, k: int) -> float:
    """Cap on the largest root of the k-th derivative of prod(x - b_i).

    For roots b_i in [0, 1] with mean g and k >= g*t the largest root after
    k derivatives is at most (sqrt(g k/t) + sqrt((1-g)(1-k/t)))^2.  Used as
    the cross-check that reproduces :func:`residual_bound` through the
    substituted polynomial route.
    """
    b = np.asarray(roots_in_unit, dtype=float).reshape(-1)
    if b.size == 0:
        raise ValueError("need at least one root")
    if np.any(b < -1e-12) or np.any(b > 1.0 + 1e-12):
        raise ValueError("roots must lie in [0, 1]")
    t = b.size
    g = float(np.mean(np.clip(b, 0.0, 1.0)))
    k = int(k)
    if k < g * t:
        raise OutOfRegime(f"k={k} below mean-root threshold {g * t:.6g}")
    ratio = min(k / t, 1.0)
    val = np.sqrt(g * ratio) + np.sqrt((1.0 - g) * (1.0 - ratio))
    return float(val * val)
