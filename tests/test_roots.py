from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cssp.roots as roots_mod
import cssp.selector as selector_mod
from cssp.instances import hard_instance
from cssp.linalg import MACHINE_EPS
from cssp.selector import initial_state
from helpers import _count_spectra, _projected


def _spectra(n, ratio, kind, seed, picked):
    """Candidate spectra at one iteration of a selection run, the noise
    level and the rank left, from select's own state: up to picked random
    columns are selected first."""
    rng = np.random.Generator(np.random.Philox(seed))
    d = max(1, round(n * ratio))
    if kind == "deficient":
        r = int(rng.integers(1, min(n, d) + 1))
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    elif kind == "cluster":
        m = min(n, d)
        u, _ = np.linalg.qr(rng.standard_normal((n, m)))
        v, _ = np.linalg.qr(rng.standard_normal((d, m)))
        a = (u * (1.0 + 10.0 ** rng.uniform(-15, -6) * rng.standard_normal(m))) @ v.T
    elif kind == "hard":
        a = hard_instance(d + 1, float(rng.uniform(0.1, 3.0)))[:, rng.permutation(d + 1)]
    else:
        spread = {"gauss": 0.0, "scaled8": 8.0, "scaled100": 100.0}[kind]
        a = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-spread, spread, size=d)
    state = initial_state(a)
    for j in rng.permutation(a.shape[1])[:picked]:
        if state.iteration < state.eigs.size - 1 and np.linalg.norm(state.e[:, j]) > state.tol:
            selector_mod._advance(state, int(j))
    u = state.e.T
    u = u[np.linalg.norm(u, axis=1) > state.tol]
    mu = np.maximum(np.linalg.eigvalsh(_projected(state.e @ state.e.T, u)), 0.0)
    return mu, state.noise, state.eigs.size - state.iteration


def _mp_score(mpmath, mu, power, noise):
    """1/y* for the smallest root y* of D^power prod_j (1 - mu_j y), over
    the entries of mu above noise, at 60 digits: Newton's method from
    y = 1/max(mu), which is no larger than y* and so converges
    monotonically, on values of g and g' from the product's Taylor
    coefficients at y."""
    with mpmath.workdps(60):
        roots = [mpmath.mpf(float(v)) for v in mu if v > noise]
        if len(roots) <= power:
            return 0.0
        y = 1 / max(roots)
        for _ in range(5000):
            c = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (power + 1)
            for v in roots:
                a = 1 - v * y
                c = [a * c[0]] + [a * c[i] - v * c[i - 1] for i in range(1, power + 2)]
            if c[power] == 0:  # y is a root: a multiple root of the product
                return float(1 / y)
            step = -c[power] / ((power + 1) * c[power + 1])
            y += step
            if abs(step) <= mpmath.mpf(10) ** -40 * y:
                return float(1 / y)
    raise AssertionError("reference Newton iteration did not converge")


class TestProductFormScores:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 20),
        ratio=st.sampled_from([0.5, 1.0, 2.0]),
        kind=st.sampled_from(["gauss", "deficient", "cluster", "hard", "scaled8", "scaled100"]),
        seed=st.integers(0, 2**16),
        picked=st.integers(0, 19),
        power_frac=st.floats(0.0, 1.0),
        eps=st.sampled_from([1e-9, 1e-13, 1e-16]),
    )
    def test_against_high_precision(self, n, ratio, kind, seed, picked, power_frac, eps):
        mpmath = pytest.importorskip("mpmath")
        mu, noise, left = _spectra(n, ratio, kind, seed, picked)
        power = int(power_frac * (left - 1))
        got = roots_mod._root_scores(mu, power, eps, noise)
        for value, row in zip(got, mu):
            ref = _mp_score(mpmath, row, power, noise)
            assert abs(value - ref) <= max(eps, 64 * MACHINE_EPS * ref)

    @pytest.mark.parametrize(
        "args, power",
        [((8, 40, 1e3, 1, 4, 18536), 20), ((8, 40, 1e3, 1, 2, 33181), 29),
         ((8, 39, 1e3, 1, 0, 37702), 30), ((8, 40, 1e3, 0, 4, 55383), 24)],
    )
    def test_certificate_below_one_ulp_of_the_score(self, args, power):
        # at eps = 1e-16 the certificate point still backs off by a few ulps
        # of x, so it lies below x and these rows certify
        mpmath = pytest.importorskip("mpmath")
        mu = _count_spectra(*args)
        noise = args[1] * MACHINE_EPS
        got = roots_mod._root_scores(mu, power, 1e-16, noise)
        for value, row in zip(got, mu):
            ref = _mp_score(mpmath, row, power, noise)
            assert abs(value - ref) <= max(1e-16, 64 * MACHINE_EPS * ref)


def _refused(*args):
    raise AssertionError("Taylor expansion ran")


class TestPowerZeroScores:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 20),
        ratio=st.sampled_from([0.5, 1.0, 2.0]),
        kind=st.sampled_from(["gauss", "deficient", "cluster", "hard", "scaled8", "scaled100"]),
        seed=st.integers(0, 2**16),
        picked=st.integers(0, 19),
    )
    def test_top_entry_without_expansion(self, n, ratio, kind, seed, picked):
        # the 0-th polar image is the characteristic polynomial itself, so
        # a score and its floor are the top entry, or 0 at the noise level
        mu, noise, _ = _spectra(n, ratio, kind, seed, picked)
        want = np.where(mu[:, -1] > noise, mu[:, -1], 0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(roots_mod, "_taylor", _refused)
            for scorer in (roots_mod._root_scores, roots_mod._score_floors):
                tally = Counter()
                got = scorer(mu, 0, 1e-9, noise, tally)
                assert got.tobytes() == want.tobytes()
                assert tally["steps"] == tally["retries"] == 0
