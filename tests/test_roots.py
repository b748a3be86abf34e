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


def _row_major_taylor(x, b, orders):
    """The scorer's Taylor DP as one loop over the rows of (rows, orders)
    coefficients; _taylor must reproduce it bit for bit."""
    a = 1.0 - b * x[:, None]
    live = b > 0.0
    dist = np.divide(np.maximum(np.abs(a), MACHINE_EPS), b, out=np.ones_like(b), where=live)
    logs = np.zeros(x.size)
    for j in range(b.shape[1]):  # in column order
        logs += np.log(dist[:, j])
    h = np.exp(logs / np.count_nonzero(live, axis=1))
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


def _unfolded(b, mult):
    """b with each of its last len(mult) columns repeated mult times."""
    own = b.shape[1] - len(mult)
    return np.concatenate([b[:, :own], np.repeat(b[:, own:], mult, axis=1)], axis=1)


def _mp_taylor(mpmath, x, b, mult, h, orders, high):
    """_taylor's data at 40 digits from its own h: each row's product of
    ((a_j - b_j h s) / (|a_j| + b_j h))^(m_j), a_j = 1 - b_j x, expanded in
    full, and of the same factors with |a_j|; the lowest orders of the
    first, or the top orders of both."""
    own = b.shape[1] - len(mult)
    coefs, sizes = [], []
    with mpmath.workdps(40):
        for row, xr, hr in zip(b, x, h):
            poly, size = [mpmath.mpf(1)], [mpmath.mpf(1)]
            for j, bj in enumerate(row.tolist()):  # a zero b_j gives the factor 1
                a = 1 - mpmath.mpf(bj) * mpmath.mpf(float(xr))
                bh = mpmath.mpf(bj) * mpmath.mpf(float(hr))
                alpha, beta = a / (abs(a) + bh), bh / (abs(a) + bh)
                m = 1 if j < own else int(mult[j - own])
                for target, lead in ((poly, alpha), (size, abs(alpha))):
                    sign = -1 if target is poly else 1
                    factor = [mpmath.binomial(m, i) * lead ** (m - i) * (sign * beta) ** i
                              for i in range(m + 1)]
                    product = [mpmath.mpf(0)] * (len(target) + m)
                    for i, p in enumerate(target):
                        for l, f in enumerate(factor):
                            product[i + l] += p * f
                    target[:] = product
            if high:
                coefs.append([float(v) for v in poly[len(poly) - orders :]])
                sizes.append([float(v) for v in size[len(size) - orders :]])
            else:
                coefs.append([float(v) for v in poly[:orders]])
                sizes.append([float(v) for v in size[:orders]])
    return np.array(coefs), np.array(sizes)


class TestTaylor:
    @pytest.mark.parametrize("orders", [1, 3, 17])
    def test_matches_row_major_loop(self, orders):
        rng = np.random.Generator(np.random.Philox(3))
        b = rng.uniform(0.0, 1.0, size=(9, 12))
        b[rng.uniform(size=b.shape) < 0.25] = 0.0
        b[:, 0] = 1.0  # every row keeps a live entry
        x = rng.uniform(0.5, 1.5, size=9)
        c, h = roots_mod._taylor(x, b, orders)
        ref_c, ref_h = _row_major_taylor(x, b.copy(), orders)
        assert c.shape == (9, orders)
        assert np.array_equal(c, ref_c)
        assert np.array_equal(h, ref_h)

    @pytest.mark.parametrize("orders", [2, 5, 13])
    def test_high_orders_within_their_rounding_bound(self, orders):
        # the reversed product gives the top orders of the full expansion,
        # each within the _ROUNDING bound of its sum of magnitudes, which
        # bounds the coefficient itself
        rng = np.random.Generator(np.random.Philox(5))
        b = 10.0 ** rng.uniform(-8.0, 0.0, size=(9, 12))
        b[rng.uniform(size=b.shape) < 0.25] = 0.0
        b[:, 0] = 1.0
        x = rng.uniform(0.5, 3.0, size=9)
        full, h = roots_mod._taylor(x, b, 13)
        c, high_h, sizes = roots_mod._taylor(x, b, orders, True)
        assert c.shape == sizes.shape == (9, orders)
        assert np.array_equal(high_h, h)
        assert np.all(np.abs(c) <= sizes * (1.0 + 1e-12))
        bound = 2 * (roots_mod._ROUNDING * 12 + 10) * MACHINE_EPS * sizes
        assert np.all(np.abs(c - full[:, 13 - orders :]) <= bound)

    @pytest.mark.parametrize("high", [False, True])
    @pytest.mark.parametrize("m", [2, 47, 1100])
    def test_fold_matches_expanded_columns_and_high_precision(self, m, high):
        # a shared value of multiplicity m, beside one of multiplicity 3 (so
        # a second fold is convolved in), on rows where x is below the
        # value's root (alpha > 0), beyond it (alpha < 0) and on it
        # (alpha = 0); 1100 is folded in two parts, C(1100, 550) being
        # past the largest double
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.Generator(np.random.Philox(m))
        b = rng.uniform(0.05, 1.0, size=(6, 12))
        b[:, 0] = 1.0
        b[rng.uniform(size=b.shape) < 0.2] = 0.0
        b[:, -2] = [0.3, 0.3, 0.5, 0.25, 0.7, 0.05]
        x = np.array([1.5, 5.0, 2.0, 4.0, 1.2, 1.0])
        a_fold = 1.0 - b[:, -2] * x
        assert (a_fold > 0.0).any() and (a_fold < 0.0).any() and (a_fold == 0.0).sum() == 2
        mult = np.array([m, 3])
        orders = 13
        folded = roots_mod._taylor(x, b, orders, high, mult)
        expanded = roots_mod._taylor(x, _unfolded(b, mult), orders, high)
        c, h = folded[:2]
        # h's logarithms summed once per fold or once per column
        assert np.allclose(h, expanded[1], rtol=1e-12, atol=0.0)
        n = (_unfolded(b, mult) > 0.0).sum(axis=1)
        for (got, at), folds in ((folded[:2], 2), (expanded[:2], 0)):
            ref, sizes = _mp_taylor(mpmath, x, b, mult, at, orders, high)
            bound = (roots_mod._ROUNDING * (n + folds) + 10)[:, None] * MACHINE_EPS * sizes
            # terms below the least double are lost, by both routes
            assert np.all(np.abs(got - ref) <= bound + 1e-300)
            if high and folds:
                assert np.all(np.abs(folded[2] - sizes) <= bound + 1e-300)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(2, 30),
        spread=st.sampled_from([1.0, 1e3, 1e6, 1e12]),
        zeros=st.integers(0, 3),
        mult=st.lists(st.integers(1, 40), min_size=1, max_size=2),
        seed=st.integers(0, 2**16),
        power_frac=st.floats(0.0, 1.0),
        shift=st.floats(-0.5, 0.5),
    )
    def test_count_slack_bounds_folded_high_orders(self, r, spread, zeros, mult, seed, power_frac,
                                                    shift):
        # the root count's coefficients at x0 = max(1, top / t), with
        # shared values folded, are within the slack _anchored gives them
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.Generator(np.random.Philox(seed))
        mu = _count_spectra(8, r, spread, min(zeros, r - 1), 0, seed)
        vals = np.sort(10.0 ** rng.uniform(-np.log10(spread), 0.0, size=len(mult)))
        shared = (vals, np.array(mult)[np.argsort(rng.uniform(size=len(mult)))])
        noise = r * MACHINE_EPS
        n = r - min(zeros, r - 1) + sum(mult)
        power = 1 + int(power_frac * (n - 2))
        free = roots_mod._root_scores(mu, power, 1e-9, noise, None, None, shared)
        t = float(np.median(free)) * 10.0**shift
        _, top, deg, b, folds = roots_mod._live_rows(mu, power, noise, shared)
        x0 = np.maximum(1.0, top / t)
        orders = b.shape[1] - len(folds) + int(sum(folds)) - power + 1  # as _anchored's
        g, h, sizes = roots_mod._taylor(x0, b, orders, True, folds)
        ref, _ = _mp_taylor(mpmath, x0, b, folds, h, orders, True)
        slack = (roots_mod._ROUNDING * (deg + power + len(folds)) + 10)[:, None] * MACHINE_EPS
        assert np.all(np.abs(g - ref) <= slack * sizes)


class TestAnchoredCount:
    @settings(max_examples=200, deadline=None)
    @given(
        r=st.integers(2, 40),
        spread=st.sampled_from([1.0, 1e3, 1e6, 1e12]),
        zeros=st.integers(0, 3),
        cluster=st.integers(0, 4),
        seed=st.integers(0, 2**16),
        power_frac=st.floats(0.0, 1.0),
        shift=st.floats(-0.5, 0.5),
        eps=st.sampled_from([1e-9, 1e-13, 1e-16]),
    )
    def test_count_against_unanchored_scores(self, r, spread, zeros, cluster, seed, power_frac,
                                             shift, eps):
        # a row the count drops has a floor and a value at least t and no
        # more than its unanchored score, up to the score tolerance; a kept
        # row's anchored score is within the tolerance of its unanchored
        # one, and its anchored floor stays below
        mu = _count_spectra(8, r, spread, min(zeros, r - 1), min(cluster, r), seed)
        noise = r * MACHINE_EPS
        left = r - min(zeros, r - 1)
        power = 1 + int(power_frac * (left - 2)) if left > 1 else 1
        free = roots_mod._root_scores(mu, power, eps, noise)
        rng = np.random.Generator(np.random.Philox(seed))
        t = max(float(free[rng.integers(free.size)]), eps) * 10.0**shift
        anchored = roots_mod._root_scores(mu, power, eps, noise, None, t)
        floors = roots_mod._score_floors(mu, power, eps, noise, None, t)
        live, top, deg, b, _ = roots_mod._live_rows(mu, power, noise)
        drop = np.zeros(mu.shape[0], dtype=bool)
        drop[live] = roots_mod._anchored(b, power, deg, top, eps, t)[2]
        tol = np.maximum(eps, 64 * MACHINE_EPS * free)
        for got in (anchored, floors):
            assert np.all(got[drop] >= t * (1.0 - MACHINE_EPS))
            assert np.all(got[drop] <= free[drop] + tol[drop])
        kept = ~drop
        assert np.all(np.abs(anchored[kept] - free[kept]) <= tol[kept])
        assert np.all(floors[kept] <= free[kept] + tol[kept])

    def test_count_decides_rows(self):
        # t between the scores: the row above it is dropped and keeps
        # x0 = top / t as its cap, the row below is anchored; a top entry
        # repeated past the power puts a root of g exactly at x0 = 1 (top
        # below t), which the count leaves undecided (its lowest orders are
        # exact zeros), so that row runs from 1
        mu = np.array([[0.0, 0.01, 0.1, 0.5, 1.0], [0.0, 0.001, 0.002, 0.003, 1.0],
                       [0.0, 0.02, 0.1, 0.1, 0.1]])
        power, noise, eps = 2, 5 * MACHINE_EPS, 1e-12
        free = roots_mod._root_scores(mu, power, eps, noise)
        t = 0.5 * (free[0] + free[1])
        assert free[1] < free[2] == 0.1 < t < free[0]
        _, top, deg, b, _ = roots_mod._live_rows(mu, power, noise)
        x, cap, drop = roots_mod._anchored(b, power, deg, top, eps, t)
        assert drop.tolist() == [True, False, False]
        assert top[1] / t < x[1] <= cap[1]
        assert x[1] == pytest.approx(top[1] / free[1], rel=1e-12)
        assert x[2] == cap[2] == 1.0
        assert cap[0] == top[0] / t
        tol = np.maximum(eps, 64 * MACHINE_EPS * free)
        scores = roots_mod._root_scores(mu, power, eps, noise, None, t)
        floors = roots_mod._score_floors(mu, power, eps, noise, None, t)
        for got in (scores[0], floors[0]):
            assert t * (1.0 - MACHINE_EPS) <= got <= free[0] + tol[0]
        assert scores[2] == free[2]
        assert abs(scores[1] - free[1]) <= tol[1]


    @pytest.mark.parametrize("t", [None, 0.5, 2.0])
    def test_rows_do_not_depend_on_their_batch(self, t):
        # a row scored beside rows with fewer zero entries, so in wider
        # columns, or beside its own copies, scores and floors as alone
        mu = np.concatenate([_count_spectra(30, 48, 1e6, zeros, 0, zeros) for zeros in (0, 1, 3)])
        mu = np.concatenate([np.repeat(mu[-1:], 40, axis=0), mu])
        noise, eps = 48 * MACHINE_EPS, 1e-9
        for power in (1, 2, 12):
            free = roots_mod._root_scores(mu, power, eps, noise)
            at = None if t is None else t * float(np.median(free))
            for fn in (roots_mod._root_scores, roots_mod._score_floors):
                batched = fn(mu, power, eps, noise, None, at)
                alone = [fn(mu[i : i + 1], power, eps, noise, None, at)[0] for i in range(len(mu))]
                assert np.array_equal(batched, alone)
