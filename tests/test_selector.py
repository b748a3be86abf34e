import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cssp.roots as roots_mod
import cssp.selector as selector_mod
from cssp.bounds import residual_bound, spectrum_of
from cssp.errors import (AllCandidatesDegenerate, CertificateViolation, DegenerateDirection,
                         RankExceeded)
from cssp.instances import hard_instance, power_law, random_gaussian
from cssp.linalg import MACHINE_EPS, char_poly, gram, gram_spectrum, residual_spectral_sq
from cssp.polynomial import maxroot, polar_power
from cssp.selector import candidate_score, initial_state, select
from helpers import _count_spectra, _projected


def _rank_deficient(n, d, r, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, d))


def _column_scores(state, cols, power, eps, t=None):
    """Certified scores of the columns cols of state's E, in the order given,
    by select's route: one _basis, then _spectra and _root_scores."""
    lam, z = selector_mod._basis(state.e)
    mu, shared = selector_mod._spectra(lam, z[cols], state.noise)
    return selector_mod._root_scores(mu, power, eps, state.noise, None, t, shared)


def _expanded(mu, shared):
    """The full ascending spectra of _spectra's (mu, shared): each row's own
    values with every shared value repeated its multiplicity."""
    vals, mult = shared
    kept = np.broadcast_to(np.repeat(vals, mult), (mu.shape[0], int(np.sum(mult))))
    return np.sort(np.concatenate([mu, kept], axis=1), axis=1)


class TestCandidateScore:
    def test_diagonal_both_columns(self):
        a = np.diag([np.sqrt(3.0), 1.0])
        state = initial_state(a)
        assert candidate_score(state, 0, 1).value == pytest.approx(1.0, abs=1e-8)
        assert candidate_score(state, 1, 1).value == pytest.approx(3.0, abs=1e-8)

    def test_hard_instance_symmetry(self):
        a = hard_instance(4, 1.0)
        state = initial_state(a)
        scores = [candidate_score(state, i, 2).value for i in range(4)]
        assert max(scores) - min(scores) <= 1e-7
        # the score is the largest root of one operator application
        expected = maxroot(
            polar_power(
                char_poly(gram(a) - np.outer(gram(a)[:, 0], gram(a)[:, 0]) / gram(a)[0, 0]), 1
            ),
            1e-9,
        )
        # direct route: residual polynomial of column 0 under the operator
        from cssp.linalg import complement_projector, symmetrize

        q = complement_projector(a, [0])
        p = char_poly(symmetrize(a.T @ q @ a))
        direct = maxroot(polar_power(p, 1), 1e-9).value
        assert scores[0] == pytest.approx(direct, abs=1e-7)

    def test_degenerate_candidate_raises(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        state = initial_state(a)
        from cssp.selector import _advance

        _advance(state, 0)
        with pytest.raises(DegenerateDirection):
            candidate_score(state, 1, 2)

    def test_bad_requests_raise(self):
        from cssp.selector import _advance

        state = initial_state(random_gaussian(4, 4, 0))
        for i in (-1, 4):
            with pytest.raises(ValueError, match=f"column index {i} out of range"):
                candidate_score(state, i, 2)
        _advance(state, 1)
        with pytest.raises(ValueError, match="column 1 already selected"):
            candidate_score(state, 1, 2)
        with pytest.raises(ValueError, match="selection already holds k columns"):
            candidate_score(state, 0, 1)

    def test_scores_scale_with_the_input(self):
        # far from unit scale the scores are the unscaled ones times f^2,
        # and the best of them is select's first pick
        a = random_gaussian(6, 8, 3)
        base = [candidate_score(initial_state(a), i, 3).value for i in range(8)]
        for f in (1e-100, 1e100, 1e150):
            eps = 1e-9 * f * f
            state = initial_state(f * a)
            got = [candidate_score(state, i, 3, eps).value for i in range(8)]
            assert got == pytest.approx([f * f * v for v in base], rel=1e-12, abs=0.0)
            assert int(np.argmin(got)) == select(f * a, 3, eps=eps).subset[0]


class TestSelect:
    def test_diagonal_prefers_small_column(self):
        result = select(np.diag([np.sqrt(3.0), 1.0]), 1)
        assert result.subset == [0]
        assert result.residual_sq == pytest.approx(1.0)

    def test_identity_tie_break(self):
        result = select(np.eye(3), 2)
        assert result.subset == [0, 1]
        assert result.residual_sq == pytest.approx(1.0)

    def test_hard_instance(self):
        result = select(hard_instance(4, 1.0), 2)
        assert result.subset == [0, 1]
        assert result.residual_sq == pytest.approx(5.0 / 3.0, abs=1e-6)
        upper, _ = (5 * (3 + np.sqrt(3)) / 6, None)
        assert result.residual_sq <= upper

    def test_rank_exceeded(self):
        with pytest.raises(RankExceeded):
            select(np.ones((4, 3)), 2)
        with pytest.raises(RankExceeded):
            select(np.eye(3), 4)

    def test_result_fields(self):
        result = select(hard_instance(5, 2.0), 3, eps=1e-8)
        assert len(result.subset) == 3
        assert len(set(result.subset)) == 3
        assert len(result.iteration_roots) == 3
        assert result.eps == 1e-8
        assert result.elapsed >= 0.0
        final = result.iteration_roots[-1]
        assert result.residual_sq <= final.value + final.epsilon + 1e-7 * 10

    def test_score_chain_monotone(self):
        # scores may only rise by 2 eps per iteration, plus rounding
        eps = 1e-9
        cases = [(random_gaussian(8, 7, seed), 5) for seed in (0, 1, 2, 3)]
        cases.append((power_law(48, 48, 48, 2.0, 1.0, 3), 12))
        for a, k in cases:
            lam1 = spectrum_of(a).eigs[0]
            result = select(a, k, eps=eps)
            values = [r.value for r in result.iteration_roots]
            for prev, cur in zip(values, values[1:]):
                assert cur <= prev + 2 * eps + 4 * MACHINE_EPS * lam1

    def test_rising_score_raises_certificate_violation(self, monkeypatch):
        monkeypatch.setattr(selector_mod, "_root_scores", rising_scores(selector_mod._root_scores))
        with pytest.raises(CertificateViolation, match="score chain violated at iteration 1:"):
            select(random_gaussian(6, 6, 0), 3)

    def test_uncertified_score_raises(self, monkeypatch):
        # with no pass allowed, the first score the Taylor loop refines fails
        monkeypatch.setattr(roots_mod, "_CERTIFICATE_RETRIES", -1)
        with pytest.raises(CertificateViolation,
                           match=r"^score \S+ of spectrum row \d+ could not be certified within \S+$"):
            select(random_gaussian(6, 6, 0), 3)

    def test_residual_above_last_root_raises(self, monkeypatch):
        a = random_gaussian(6, 6, 0)
        root = select(a, 3).iteration_roots[-1].value
        residual = 2.0 * root + spectrum_of(a).eigs[0]
        monkeypatch.setattr(selector_mod, "_residual_sq", lambda *args: residual)
        with pytest.raises(CertificateViolation) as err:
            select(a, 3)
        assert str(err.value) == f"final residual {residual!r} exceeds its certified root {root!r}"

    def test_chain_head_below_every_candidate_raises(self, monkeypatch):
        # the bracket pass's count drops every candidate at the lowered
        # chain bound t; the one pick reports the least of their certified
        # lower bounds, each at least t
        monkeypatch.setattr(selector_mod, "_root_scores", lowered_head(selector_mod._root_scores))
        bounds = []
        pick = selector_mod._pick

        def recorded(state, power, eps, tie, t=None):
            bounds.append(t)
            return pick(state, power, eps, tie, t)

        monkeypatch.setattr(selector_mod, "_pick", recorded)
        with pytest.raises(CertificateViolation, match="score chain violated at iteration 1:") as err:
            select(random_gaussian(40, 80, 7), 20)
        assert len(bounds) == 1 and bounds[0] > 0.0
        best = float(str(err.value).split(": ")[1].split(" > ")[0])
        assert bounds[0] * (1.0 - MACHINE_EPS) <= best < np.inf

    def test_end_to_end_root_bound(self):
        # residual stays below the k-fold operator root plus 2 k eps
        eps = 1e-9
        for seed in range(6):
            a = random_gaussian(7, 7, seed)
            info = spectrum_of(a)
            k = max(1, info.t - 2)
            result = select(a, k, eps=eps)
            anchor = maxroot(polar_power(char_poly(gram(a)), k), 1e-10).value
            assert result.residual_sq <= anchor + 2 * k * eps + 1e-6

    def test_guarantee_against_spectrum_bound(self):
        eps = 1e-9
        checked = 0
        for seed in range(25):
            rng = np.random.Generator(np.random.Philox(seed))
            n = int(rng.integers(2, 11))
            d = int(rng.integers(2, 11))
            a = random_gaussian(n, d, seed)
            info = spectrum_of(a)
            for k in range(1, info.t):
                if not info.beta * info.t <= k < info.t:
                    continue
                result = select(a, k, eps=eps)
                report = residual_bound(info, k)
                assert result.residual_sq <= 2 * k * eps + report.bound
                checked += 1
        assert checked >= 10

    def test_residual_matches_independent_route(self):
        for seed in range(5):
            a = random_gaussian(6, 8, seed)
            result = select(a, 3)
            assert result.residual_sq == pytest.approx(
                residual_spectral_sq(a, result.subset), rel=1e-10
            )

    @pytest.mark.parametrize(
        "a",
        [
            random_gaussian(30, 12, 1),  # tall
            power_law(16, 16, 16, 2.0, 1.0, 3),  # square
            random_gaussian(8, 20, 2),  # wide
            _rank_deficient(20, 16, 6, 4),
        ],
        ids=["tall", "square", "wide", "rank-deficient"],
    )
    def test_invariant_under_orthonormal_rows(self, a):
        # scores depend on A only through A^T A, which U @ A shares
        rng = np.random.Generator(np.random.Philox(17))
        u, _ = np.linalg.qr(rng.standard_normal((300, a.shape[0])))
        info = spectrum_of(a)
        for k in (1, info.t // 2, info.t - 1):
            base, lifted = select(a, k), select(u @ a, k)
            assert lifted.subset == base.subset
            for rb, rl in zip(base.iteration_roots, lifted.iteration_roots):
                assert abs(rb.value - rl.value) <= 1e-12 * info.eigs[0]

    def test_wide_matrix(self):
        a = random_gaussian(3, 10, 7)
        result = select(a, 2)
        assert len(result.subset) == 2
        assert result.residual_sq == pytest.approx(
            residual_spectral_sq(a, result.subset), rel=1e-9
        )

    def test_single_row_matrix(self):
        a = np.array([[3.0, 1.0, -2.0]])
        result = select(a, 1)
        assert result.subset == [0]
        assert result.residual_sq == pytest.approx(0.0, abs=1e-12)

    def test_single_column_matrix(self):
        a = np.array([[1.0], [2.0], [2.0]])
        result = select(a, 1)
        assert result.subset == [0]
        assert result.residual_sq == pytest.approx(0.0, abs=1e-12)

    def test_candidate_score_wide_state(self):
        a = random_gaussian(3, 7, 13)
        state = initial_state(a)
        scores = {i: candidate_score(state, i, 2).value for i in range(7)}
        full = select(a, 2)
        assert full.subset[0] == min(scores, key=lambda i: (scores[i], i))

    def test_scaling_invariance_of_subset(self):
        # power-of-two factors scale entries exactly; with eps scaled along,
        # the internal trajectory is identical and so is the subset
        a = random_gaussian(6, 6, 11)
        base = select(a, 3, eps=1e-9)
        for factor in (2.0**-20, 2.0**20):
            scaled = select(factor * a, 3, eps=1e-9 * factor**2)
            assert scaled.subset == base.subset
            assert scaled.residual_sq == pytest.approx(
                factor**2 * base.residual_sq, rel=1e-9
            )

    def test_eps_validation(self):
        state = initial_state(np.eye(2))
        for eps in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                select(np.eye(2), 1, eps=eps)
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                candidate_score(state, 0, 1, eps)

    def test_top_of_float_range(self):
        # at ||A||_2 = 1.2e154 the rescale exponent rounds to 512 and 4**512
        # overflows; above sqrt(float max) the squared norm itself does
        a = random_gaussian(6, 8, 3)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert select(a * (1.2e154 / top), 3).subset == select(a, 3).subset
        with pytest.raises(ValueError, match="exceeds 1.34078e\\+154"):
            select(a * (1e160 / top), 3)

    def test_bottom_of_float_range(self):
        # sigma**2 of these inputs is subnormal but nonzero, so rank and
        # subsets are the unscaled ones
        a = random_gaussian(6, 8, 3)
        assert select(a * 1e-160, 3).subset == select(a, 3).subset == [7, 1, 6]
        u, _, vt = np.linalg.svd(random_gaussian(6, 6, 1))
        graded = (u * np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14])) @ vt
        assert select(graded * 1e-140, 6).subset == select(graded, 6).subset

    def test_tiny_scale_has_no_overflow(self):
        # eps on this input's scale would be about 1e291; it is capped where
        # every use of it saturates, so no product overflows (pytest turns a
        # RuntimeWarning into an error)
        a = np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10]) * 1e-150
        assert select(a, 3).subset == [0, 1, 2]

    def test_one_spectrum_per_selection(self, monkeypatch):
        import cssp.linalg as linalg_mod

        calls = []

        def counted(a):
            calls.append(a)
            return gram_spectrum(a)

        for module in (selector_mod, linalg_mod):
            monkeypatch.setattr(module, "gram_spectrum", counted)
        a = random_gaussian(6, 8, 3)
        select(a, 3)
        assert len(calls) == 1
        state = initial_state(a)
        calls.clear()
        candidate_score(state, 0, 3)
        assert calls == []


class TestStateConsistency:
    def test_cached_matrix_matches_rebuild(self):
        # the incrementally projected residual factor must track a
        # from-scratch rebuild of the residual Gram matrix A^T Q_S A
        # through a whole selection run
        from cssp.linalg import complement_projector
        from cssp.selector import _advance

        for seed, (n, d) in enumerate(((7, 7), (7, 7), (12, 7))):
            a = random_gaussian(n, d, seed)
            state = initial_state(a)
            r0 = state.e.shape[0]
            norm_sq = spectrum_of(a).eigs[0]
            for j in (4, 1, 6, 2):
                _advance(state, j)
                # each pick deflates the factor by one row
                assert state.e.shape == (r0 - len(state.chosen), d)
                rebuilt = a.T @ complement_projector(a, state.chosen) @ a
                drift = np.linalg.norm(state.scale * (state.e.T @ state.e) - rebuilt)
                assert drift <= 1e-7 * (1.0 + norm_sq)

    def test_full_rank_selection_empties_the_factor(self, monkeypatch):
        shapes = []
        advance = selector_mod._advance

        def recorded(state, j):
            advance(state, j)
            shapes.append(state.e.shape)

        monkeypatch.setattr(selector_mod, "_advance", recorded)
        result = select(random_gaussian(6, 6, 3), 6)
        assert sorted(result.subset) == list(range(6))
        assert shapes == [(6 - l, 6) for l in range(1, 7)]

    def test_pick_after_every_column_raises(self):
        state = initial_state(np.eye(2))
        for j in (0, 1):
            selector_mod._advance(state, j)
        with pytest.raises(AllCandidatesDegenerate,
                           match=r"^no admissible column at iteration 3; cannot happen for k <= rank$"):
            selector_mod._pick(state, 0, 1e-9, 0.0)

    def test_candidate_score_on_deflated_state_matches_select(self):
        from cssp.selector import _advance

        a, k = power_law(16, 16, 16, 2.0, 1.0, 5), 10
        result = select(a, k)
        state = initial_state(a)
        for j in result.subset[:2]:
            _advance(state, j)
        got = candidate_score(state, result.subset[2], k).value
        assert got == result.iteration_roots[2].value

    def test_candidate_score_on_clustered_state_matches_select(self, monkeypatch):
        # the hard instance's scores come from deflated spectra, and
        # candidate_score takes the same route, so they agree bit for bit
        perm = np.random.Generator(np.random.Philox(7)).permutation(24)
        a, k = hard_instance(24, 1.0)[:, perm], 12
        result = select(a, k)
        calls = []
        spectra = selector_mod._spectra

        def counted(*args):
            calls.append(len(args[1]))
            return spectra(*args)

        monkeypatch.setattr(selector_mod, "_spectra", counted)
        state = initial_state(a)
        for l, j in enumerate(result.subset[:4]):
            assert candidate_score(state, j, k).value == result.iteration_roots[l].value
            selector_mod._advance(state, j)
        assert calls == [1] * 4

    @pytest.mark.parametrize(
        "a, k, picks",
        [
            (random_gaussian(40, 80, 7), 39, 3),
            (power_law(16, 16, 16, 2.0, 1.0, 5), 15, 3),
            (_rank_deficient(20, 16, 6, 4), 5, 2),
            (hard_instance(24, 1.0)[:, np.random.Generator(np.random.Philox(3)).permutation(24)],
             23, 3),
            # 40 copies of one column among 120 candidates, at low powers
            (random_gaussian(40, 80, 7)[:, [*[75] * 40, *range(80)]], 4, 3),
        ],
        ids=["wide", "power", "rank-deficient", "hard", "copies"],
    )
    def test_scores_do_not_depend_on_the_batch(self, a, k, picks):
        # each candidate scored alone gives its batched score and floor bit
        # for bit, from 1 and from a bound t between the scores, which drops
        # some rows and anchors the others
        state = initial_state(a)
        eps = 1e-9 / state.scale
        for l in range(picks):
            cands = np.delete(np.arange(a.shape[1]), state.chosen)
            cands = cands[np.linalg.norm(state.e[:, cands], axis=0) > state.tol]
            power = k - l - 1
            lam, z = selector_mod._basis(state.e)
            free = _column_scores(state, cands, power, eps)
            median = float(np.median(free))
            for t in (None, median):
                batched = _column_scores(state, cands, power, eps, t)
                alone = [_column_scores(state, cands[i : i + 1], power, eps, t)[0]
                         for i in range(len(cands))]
                assert np.array_equal(batched, alone)
                lower = selector_mod._lower_spectra(z[cands], state.noise, lam)
                floors = selector_mod._score_floors(lower, power, eps, state.noise, None, t)
                alone = [selector_mod._score_floors(lower[i : i + 1], power, eps, state.noise,
                                                    None, t)[0] for i in range(len(cands))]
                assert np.array_equal(floors, alone)
            if free.max() > 1.01 * free.min():  # not the hard instance's one score
                mu, shared = selector_mod._spectra(lam, z[cands], state.noise)
                _, top, deg, b, mult = roots_mod._live_rows(mu, power, state.noise, shared)
                drop = roots_mod._anchored(b, power, deg, top, eps, median, None, mult)[2]
                assert drop.any() and not drop.all()
            selector_mod._advance(state, int(cands[np.argmin(free)]))


class TestRegressionPins:
    # subsets and residuals of select before the residual factor was
    # deflated per pick; speed-ups must not move them
    def test_anchor(self):
        result = select(power_law(64, 64, 64, 2.0, 1.0, 7), 52)
        assert result.subset == [
            2, 37, 38, 28, 24, 58, 33, 34, 42, 10, 7, 63, 21, 35, 50, 4, 1, 53, 30, 59,
            36, 22, 8, 18, 48, 57, 27, 15, 41, 16, 26, 25, 61, 55, 47, 51, 32, 3, 6, 17,
            43, 39, 49, 20, 9, 31, 5, 0, 46, 40, 54, 62,
        ]
        assert result.residual_sq == pytest.approx(0.0009631103194978419, rel=1e-12, abs=0.0)

    def test_wide(self):
        result = select(random_gaussian(40, 80, 7), 20)
        assert result.subset == [
            75, 4, 46, 20, 57, 38, 78, 6, 13, 79, 25, 27, 42, 29, 26, 28, 14, 39, 60, 56,
        ]
        assert result.residual_sq == pytest.approx(96.17644611436523, rel=1e-12, abs=0.0)

    def test_gauss_100x1000(self):
        # taken before candidates were pruned by certified lower bounds
        result = select(random_gaussian(100, 1000, 7), 30)
        assert result.subset == [
            742, 186, 870, 564, 865, 558, 994, 867, 367, 507, 998, 982, 172, 794, 611,
            343, 517, 442, 715, 656, 518, 741, 567, 780, 202, 413, 285, 405, 961, 764,
        ]
        assert result.residual_sq == pytest.approx(1355.7524514160134, rel=1e-12, abs=0.0)


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


class TestTieBreak:
    def test_hard_instance_ties_go_to_smallest_index(self):
        # every column of the symmetric hard instance ties in exact arithmetic
        for d in range(3, 11):
            for k in range(1, d):
                assert select(hard_instance(d, 1.0), k).subset == list(range(k)), (d, k)

    def test_permuted_hard_instance_picks_smallest_indices(self):
        perm = np.random.Generator(np.random.Philox(7)).permutation(48)
        assert select(hard_instance(48, 1.0)[:, perm], 24).subset == list(range(24))


def lowered_head(scorer):
    """The scorer with the scores of its first call, the chain head's in
    select, set to 0."""
    calls = []

    def lowered(mu, power, eps, noise, tally=None, t=None, shared=None):
        calls.append(power)
        out = scorer(mu, power, eps, noise, tally, t, shared)
        return out * 0.0 if len(calls) == 1 else out

    return lowered


def rising_scores(scorer):
    """The scorer with 1, 2, 3, ... added to the scores of successive calls."""
    calls = []

    def rising(mu, power, eps, noise, tally=None, t=None, shared=None):
        calls.append(power)
        return scorer(mu, power, eps, noise, tally, t, shared) + len(calls)

    return rising


class TestBatchedScores:
    @pytest.mark.parametrize(
        "a",
        [
            random_gaussian(30, 12, 1),  # tall
            power_law(40, 40, 40, 2.0, 1.0, 3),  # square, two blocks
            random_gaussian(8, 20, 2),  # wide
            _rank_deficient(20, 16, 6, 4),
        ],
        ids=["tall", "square", "wide", "rank-deficient"],
    )
    def test_match_char_poly_route(self, a):
        from cssp.linalg import complement_projector, symmetrize
        from cssp.selector import _advance

        eps = 1e-9
        state = initial_state(a)
        _advance(state, 0)
        cands = list(range(1, a.shape[1]))
        polys = [char_poly(symmetrize(a.T @ complement_projector(a, [0, i]) @ a)) for i in cands]
        for power in (0, 1, 3):
            scores = state.scale * _column_scores(state, cands, power, eps / state.scale)
            refs = [maxroot(polar_power(p, power), eps).value for p in polys]
            for s, ref in zip(scores, refs):
                assert abs(s - ref) <= 2 * eps

    def test_first_iteration_against_high_precision(self):
        # Guards the coefficient route: building candidate polynomials from
        # a rank-one secular form in double precision cancels in exactly the
        # low coefficients the operator power keeps.
        mpmath = pytest.importorskip("mpmath")
        a = power_law(24, 24, 24, 2.0, 1.0, 5)
        k, eps = 20, 1e-9
        state = initial_state(a)
        got = [candidate_score(state, i, k, eps).value for i in range(24)]
        for value, ref in zip(got, _mp_first_scores(mpmath, a, k - 1)):
            assert abs(value - float(ref)) <= eps


def _mp_first_scores(mpmath, a, power):
    """First-iteration scores at 60 digits: each candidate's polynomial by
    the determinant lemma in M = A^T A's eigenbasis, the operator power by
    coefficient reversal, and the largest root by Newton from the right."""
    with mpmath.workdps(60):
        m = mpmath.matrix(a.tolist())
        m = m.T * m
        lam, vecs = mpmath.eigsy(m)
        d = m.rows

        def from_roots(roots):
            coef = [mpmath.mpf(1)]
            for r in roots:
                coef = [mpmath.mpf(0)] + coef
                for j in range(len(coef) - 1):
                    coef[j] -= r * coef[j + 1]
            return coef

        p_m = from_roots(lam)
        quotients = [from_roots([lam[l] for l in range(d) if l != j]) + [0] for j in range(d)]
        scores = []
        for i in range(d):
            w = [sum(vecs[r, j] * m[r, i] for r in range(d)) for j in range(d)]
            p = [p_m[c] + sum(w[j] ** 2 / m[i, i] * quotients[j][c] for j in range(d))
                 for c in range(d + 1)]
            g = p[::-1]
            for _ in range(power):
                g = [g[j] * j for j in range(1, len(g))]
            t = [mpmath.mpf(0)] * power + g[::-1]
            dt = [t[j] * j for j in range(1, len(t))]
            x = max(lam) * 1.01
            for _ in range(200):
                step = mpmath.polyval(t[::-1], x) / mpmath.polyval(dt[::-1], x)
                x -= step
                if abs(step) < mpmath.mpf(10) ** -40:
                    break
            scores.append(x)
        return scores


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


def _bracket_input(kind, n, d, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "deficient":
        return _rank_deficient(n, d, int(rng.integers(1, min(n, d) + 1)), seed)
    if kind == "hard":
        return hard_instance(d, float(rng.uniform(0.1, 3.0)))[:, rng.permutation(d)]
    if kind == "duplicated":
        a = random_gaussian(n, d, seed)
        return a[:, rng.integers(0, d, size=d + d // 2)]
    return random_gaussian(n, d, seed) * {"huge": 1e100, "tiny": 1e-100}[kind]


def _walk(a, picks, seed):
    """select's state after up to picks random admissible columns."""
    state = initial_state(a)
    rng = np.random.Generator(np.random.Philox(seed))
    for j in rng.permutation(a.shape[1])[:picks]:
        if state.iteration < state.eigs.size - 1 and np.linalg.norm(state.e[:, j]) > state.tol:
            selector_mod._advance(state, int(j))
    return state


def _admissible(state):
    """The columns of state's E whose directions are admissible."""
    cols = np.delete(np.arange(state.e.shape[1]), state.chosen)
    u = state.e[:, cols].T
    return cols[np.linalg.norm(u, axis=1) > state.tol]


def _clustered_input(kind, n, d, seed):
    """An input whose Gram matrix has repeated eigenvalues: the permuted
    hard instance, a low-rank power law (a cluster at zero) or
    Q diag(values from a set of three) W^T."""
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "hard":
        return hard_instance(d, float(rng.uniform(0.1, 3.0)))[:, rng.permutation(d)]
    m = min(n, d)
    if kind == "low-rank":
        return power_law(n, d, int(rng.integers(1, m - 1)), float(rng.uniform(0.5, 3.0)), 1.0, seed)
    q = np.linalg.qr(rng.standard_normal((n, m)))[0]
    w = np.linalg.qr(rng.standard_normal((d, m)))[0]
    return (q * rng.choice([0.3, 1.0, 2.0], size=m)) @ w.T


class TestDeflation:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["hard", "low-rank", "repeated"]),
        n=st.integers(17, 32),
        d=st.integers(17, 32),
        seed=st.integers(0, 2**16),
        picked=st.integers(0, 6),
    )
    def test_spectra_within_noise(self, kind, n, d, seed, picked):
        # clusters at most noise / 4 wide, replaced by their means, plus
        # eigh's backward error stay within the noise level
        state = _walk(_clustered_input(kind, n, d, seed), picked, seed)
        cols = _admissible(state)
        b = state.e @ state.e.T
        lam, z = selector_mod._basis(state.e)
        got = _expanded(*selector_mod._spectra(lam, z[cols], state.noise))
        want = np.maximum(np.linalg.eigvalsh(_projected(b, state.e[:, cols].T)), 0.0)
        assert np.max(np.abs(got - want)) <= state.noise

    def test_clusters_shrink_the_eigen_problems(self, monkeypatch):
        # the hard instance's B has two clusters at every iteration, so each
        # candidate's spectrum takes one 2 x 2 eigvalsh
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(m):
            sizes.append(m.shape[-1])
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        perm = np.random.Generator(np.random.Philox(29)).permutation(48)
        select(hard_instance(48, 1.0)[:, perm], 24)
        assert set(sizes) == {2}


def _small_input(kind, n, d, seed):
    """A permuted hard instance, a low-rank power law, a rank-deficient
    product or a Gaussian."""
    rng = np.random.Generator(np.random.Philox(seed))
    rank = int(rng.integers(1, min(n, d)))
    if kind == "hard":
        return hard_instance(d, float(rng.uniform(0.1, 3.0)))[:, rng.permutation(d)]
    if kind == "low-rank":
        return power_law(n, d, rank, float(rng.uniform(0.5, 3.0)), 1.0, seed)
    if kind == "deficient":
        return _rank_deficient(n, d, rank, seed)
    return random_gaussian(n, d, seed)


class TestStructuralZeros:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["hard", "low-rank", "deficient", "gauss"]),
        n=st.integers(2, 12),
        d=st.integers(2, 12),
        seed=st.integers(0, 2**16),
        picked=st.integers(0, 3),
    )
    def test_within_noise(self, kind, n, d, seed, picked):
        # the noise level of a small input is a few ulps of its top
        # eigenvalue; the min(n, d) - rank + 1 zeros of each downdated
        # spectrum, eigh's errors and the deflation's included, stay within it
        a = _small_input(kind, n, d, seed)
        state = _walk(a, picked, seed)
        lam, z = selector_mod._basis(state.e)
        mu = _expanded(*selector_mod._spectra(lam, z[_admissible(state)], state.noise))
        zeros = min(a.shape) - state.eigs.size + 1
        assert np.all(mu[:, :zeros] <= state.noise)


class TestNoOverflow:
    @pytest.mark.parametrize("f", [1.0, 1e-150, 1e-155, 1e-158])
    def test_noise_level_does_not_underflow(self, f):
        # formed on the rescaled spectrum, the noise level keeps its value
        # on tiny inputs
        state = initial_state(random_gaussian(6, 8, 3) * f)
        assert state.noise > 0.0
        assert state.noise == state.e.shape[0] * MACHINE_EPS * (state.eigs[0] / state.scale)

    @pytest.mark.parametrize("f", [1.0, 1e-150])
    def test_eps_is_capped_where_it_saturates(self, f):
        # a quarter of the cap already saturates every use of eps, so the
        # capped eps selects as that uncapped one does, at any input scale
        a = power_law(12, 12, 12, 2.0, 1.0, 3) * f
        state = initial_state(a)
        cap = selector_mod._scaled_eps(state, 1e300) * state.scale
        assert cap < 1e300 * f * f
        low, high = select(a, 6, eps=cap / 4), select(a, 6, eps=1e300 * f * f)
        assert low.subset == high.subset
        assert [r.value for r in low.iteration_roots] == [r.value for r in high.iteration_roots]


class TestBracketPass:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["deficient", "hard", "huge", "tiny", "duplicated"]),
        n=st.integers(2, 24),
        d=st.integers(2, 24),
        seed=st.integers(0, 2**16),
        picked=st.integers(0, 8),
        block=st.sampled_from([None, 2048]),
    )
    def test_lower_ends_below_spectra(self, kind, n, d, seed, picked, block):
        if block is not None:  # many products per call
            selector_mod._BLOCK_BYTES, saved = block, selector_mod._BLOCK_BYTES
        try:
            state = _walk(_bracket_input(kind, n, d, seed), picked, seed)
            cols = _admissible(state)
            lam, z = selector_mod._basis(state.e)
            lower = selector_mod._lower_spectra(z[cols], state.noise, lam)
        finally:
            if block is not None:
                selector_mod._BLOCK_BYTES = saved
        b = state.e @ state.e.T
        mu = np.maximum(np.linalg.eigvalsh(_projected(b, state.e[:, cols].T)), 0.0)
        # the exact path's spectra, clusters of eigh(b) deflated
        used = _expanded(*selector_mod._spectra(lam, z[cols], state.noise))
        assert lower.shape == mu.shape == used.shape
        assert np.all(lower <= mu)
        assert np.all(lower <= used)
        assert np.all(np.diff(lower, axis=1) >= 0.0)
        left = state.eigs.size - state.iteration
        for power in {0, (left - 1) // 2, left - 1}:
            floors = selector_mod._score_floors(lower, power, 1e-9, state.noise)
            for spectra in (mu, used):
                exact = selector_mod._root_scores(spectra, power, 1e-9, state.noise)
                assert np.all(floors <= exact + np.maximum(1e-9, 64 * MACHINE_EPS * exact))

    def test_lower_ends_at_rank_one(self):
        # no interlacing interval: each spectrum is its direction's 0
        state = initial_state(random_gaussian(1, 50, 1))
        lam, z = selector_mod._basis(state.e)
        lower = selector_mod._lower_spectra(z, state.noise, lam)
        assert np.array_equal(lower, np.zeros((50, 1)))

    def test_lower_ends_refine_interlacing(self):
        # the sign tests lift most lower ends above the interlacing bound
        state = initial_state(random_gaussian(40, 80, 7))
        b = state.e @ state.e.T
        lam, z = selector_mod._basis(state.e)
        lower = selector_mod._lower_spectra(z, state.noise, lam)
        lam = np.linalg.eigvalsh(b)
        assert np.mean(lower[:, 1:] > lam[:-1] + 2.0 * state.noise) > 0.5

    @pytest.mark.parametrize(
        "a, k",
        [
            (random_gaussian(12, 30, 2), 8),
            (power_law(20, 20, 20, 2.0, 1.0, 3), 14),
            (_rank_deficient(24, 30, 10, 5), 9),
            (random_gaussian(16, 20, 4)[:, [0, 1, 2, 3, 0, 4, 5, 1, *range(6, 20)]], 10),
        ],
        ids=["wide", "power", "rank-deficient", "duplicated"],
    )
    def test_pick_matches_full_scoring(self, monkeypatch, a, k):
        # a small block makes every iteration run the bracket pass
        monkeypatch.setattr(selector_mod, "_BLOCK_BYTES", 2048)
        state = initial_state(a)
        eps = 1e-9 / state.scale
        tie = selector_mod._TIE_ULPS * MACHINE_EPS * max(1.0, state.eigs[0] / state.scale)
        pruned = 0
        for l in range(1, k + 1):
            cands = np.delete(np.arange(a.shape[1]), state.chosen)
            u = state.e[:, cands].T
            ok = np.linalg.norm(u, axis=1) > state.tol
            scores = _column_scores(state, cands[ok], k - l, eps)
            want = int(cands[ok][np.argmax(scores <= scores.min() + tie)])
            state.tied = False
            got, score, counts = selector_mod._pick(state, k - l, eps, tie)
            assert got == want
            assert score == pytest.approx(scores.min(), rel=1e-12, abs=0.0)
            assert counts.admissible == np.count_nonzero(ok)
            pruned += counts.pruned
            selector_mod._advance(state, got)
        assert pruned > 0

    @pytest.mark.parametrize(
        "a, k",
        [
            (random_gaussian(12, 30, 2), 8),
            (power_law(20, 20, 20, 2.0, 1.0, 3), 14),
            (_rank_deficient(24, 30, 10, 5), 9),
            (random_gaussian(16, 20, 4)[:, [0, 1, 2, 3, 0, 4, 5, 1, *range(6, 20)]], 10),
            # the first winner, column 75, copied 40 times after the others
            (random_gaussian(40, 80, 7)[:, [*range(80), *[75] * 40]], 20),
        ],
        ids=["wide", "power", "rank-deficient", "duplicated", "copies"],
    )
    def test_pick_from_the_chain_bound_matches_full_scoring(self, monkeypatch, a, k):
        # started at select's chain bound t, the bracket pass keeps full
        # scoring's winner, with a score within the tolerance
        monkeypatch.setattr(selector_mod, "_BLOCK_BYTES", 2048)
        dropped = []
        anchored = roots_mod._anchored

        def recorded(*args):
            out = anchored(*args)
            dropped.append(0 if out[2] is None else int(np.count_nonzero(out[2])))
            return out

        monkeypatch.setattr(roots_mod, "_anchored", recorded)
        state = initial_state(a)
        eps = 1e-9 / state.scale
        tie = selector_mod._TIE_ULPS * MACHINE_EPS * max(1.0, state.eigs[0] / state.scale)
        prev = float(selector_mod._root_scores((state.eigs / state.scale)[None, ::-1], k, eps,
                                               state.noise)[0])
        for l in range(1, k + 1):
            cands = np.delete(np.arange(a.shape[1]), state.chosen)
            u = state.e[:, cands].T
            ok = np.linalg.norm(u, axis=1) > state.tol
            scores = _column_scores(state, cands[ok], k - l, eps)
            low = scores.min()
            want = int(cands[ok][np.argmax(scores <= low + tie)])
            bound = prev + 2.0 * eps + tie
            state.tied = False
            got, prev, counts = selector_mod._pick(state, k - l, eps, tie,
                                                   bound + selector_mod._margin(bound, eps, tie))
            assert got == want
            assert abs(prev - low) <= max(eps, 64 * MACHINE_EPS * low)
            assert counts.admissible == np.count_nonzero(ok)
            selector_mod._advance(state, got)
        assert sum(dropped) > 0

    def test_iteration_where_the_count_is_longer_runs_from_one(self, monkeypatch):
        # at power 2 on 40 x 80 the count's expansion, twice about 39
        # orders, is longer than the three 5-order steps it saves: no batch
        # gets t, and the pick is the one without t, bit for bit
        seen = []
        anchored = roots_mod._anchored

        def recorded(*args):
            seen.append(args[5])
            return anchored(*args)

        monkeypatch.setattr(roots_mod, "_anchored", recorded)
        a = random_gaussian(40, 80, 7)
        state = initial_state(a)
        eps = 1e-9 / state.scale
        tie = selector_mod._TIE_ULPS * MACHINE_EPS * max(1.0, state.eigs[0] / state.scale)
        free = _column_scores(state, np.arange(a.shape[1]), 2, eps)
        picks = [selector_mod._pick(initial_state(a), 2, eps, tie, t)
                 for t in (None, float(np.median(free)))]
        assert picks[0] == picks[1] and picks[0][2].pruned > 0
        assert seen and seen == [None] * len(seen)


class TestSelectionStats:
    def test_wide_prunes_most_candidates(self):
        result = select(random_gaussian(40, 80, 7), 20)
        assert [s.admissible for s in result.stats] == list(range(80, 60, -1))
        assert 4 * sum(s.scored for s in result.stats) <= sum(s.admissible for s in result.stats)

    def test_hard_instance_scores_every_candidate(self):
        perm = np.random.Generator(np.random.Philox(7)).permutation(48)
        result = select(hard_instance(48, 1.0)[:, perm], 24)
        assert len(result.stats) == 24
        assert all(s.scored == s.admissible and s.pruned == 0 for s in result.stats)

    def test_each_kept_candidate_is_scored_once(self, monkeypatch):
        rows = []
        spectra = selector_mod._spectra

        def recorded(lam, z, *args):
            rows.append(z.shape[0])
            return spectra(lam, z, *args)

        monkeypatch.setattr(selector_mod, "_spectra", recorded)
        result = select(random_gaussian(40, 80, 7), 20)
        assert sum(rows) == sum(s.scored for s in result.stats)

    def test_wide_counters(self):
        result = select(random_gaussian(40, 80, 7), 20)
        assert [s.steps for s in result.stats] == [
            7, 7, 7, 11, 11, 11, 11, 7, 11, 17, 17, 10, 9, 14, 9, 9, 9, 9, 4, 0,
        ]
        assert [s.retries for s in result.stats] == [0] * 20

    def test_hard_instance_counters(self):
        perm = np.random.Generator(np.random.Philox(7)).permutation(48)
        result = select(hard_instance(48, 1.0)[:, perm], 24)
        assert [s.steps for s in result.stats] == [6] + [3] * 22 + [0]
        assert [s.retries for s in result.stats] == [0] * 24

    def test_steps_count_taylor_expansions(self, monkeypatch):
        # calls[0] counts select's own score of the full spectrum
        calls = [0]
        taylor, pick = roots_mod._taylor, selector_mod._pick

        def counted(*args):
            calls[-1] += 1
            return taylor(*args)

        def tracked(*args):
            calls.append(0)
            return pick(*args)

        monkeypatch.setattr(roots_mod, "_taylor", counted)
        monkeypatch.setattr(selector_mod, "_pick", tracked)
        # an eps at the rounding level makes the certificate back off
        result = select(power_law(64, 64, 64, 2.0, 1.0, 7), 52, eps=1e-16)
        assert calls[1:] == [s.steps for s in result.stats]
        assert sum(s.retries for s in result.stats) > 0

    def test_eigen_problems_are_cluster_sized(self, monkeypatch):
        # every eigvalsh of exact scoring is c x c, c the number of clusters
        # noise / 4 wide of eigh(B), B = E E^T: in select's iterations, in
        # candidate_score, and on states advanced by hand on columns that
        # _pick did not choose
        pick, eigvalsh = selector_mod._pick, np.linalg.eigvalsh
        sizes, routes = [], []

        def recorded(m):
            sizes.append(m.shape[-2:])
            return eigvalsh(m)

        def checked(call, state, *args):
            lam = selector_mod._basis(state.e)[0]
            c, start = 1, lam[0]
            for v in lam[1:]:
                if v - start > state.noise / 4.0:
                    c, start = c + 1, v
            sizes.clear()
            out = call(state, *args)
            assert sizes and set(sizes) == {(c, c)}
            routes.append((c, lam.size))
            return out

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        monkeypatch.setattr(selector_mod, "_pick", lambda *args: checked(pick, *args))
        select(random_gaussian(40, 80, 7), 20)
        select(power_law(64, 64, 64, 2.0, 1.0, 7), 52)
        assert len(routes) == 72 and all(c == r for c, r in routes)
        routes.clear()
        perm = np.random.Generator(np.random.Philox(7)).permutation(48)
        select(hard_instance(48, 1.0)[:, perm], 24)
        assert [c for c, _ in routes] == [2] * 24
        routes.clear()
        for a in (hard_instance(24, 1.0)[:, np.random.Generator(np.random.Philox(3)).permutation(24)],
                  power_law(20, 20, 8, 2.0, 1.0, 3), random_gaussian(12, 30, 2)):
            state = initial_state(a)
            rank = state.eigs.size
            eps = 1e-9 / state.scale
            tie = selector_mod._TIE_ULPS * MACHINE_EPS * max(1.0, state.eigs[0] / state.scale)
            for _ in range(4):
                cands = np.delete(np.arange(a.shape[1]), state.chosen)
                cands = cands[np.linalg.norm(state.e[:, cands], axis=0) > state.tol]
                checked(candidate_score, state, int(cands[0]), rank)
                state.tied = False
                won = checked(pick, state, rank - state.iteration - 1, eps, tie)[0]
                selector_mod._advance(state, int(cands[-1] if cands[-1] != won else cands[-2]))
        assert any(c < r for c, r in routes) and any(c == r for c, r in routes)

    def test_corpus_matrix_skips_the_bracket_pass(self, monkeypatch):
        def refused(*args):
            raise AssertionError("bracket pass ran")

        monkeypatch.setattr(selector_mod, "_lower_spectra", refused)
        a = random_gaussian(12, 12, 3)
        for k in range(1, 13):
            result = select(a, k)
            assert [(s.admissible, s.scored) for s in result.stats] == [
                (12 - l, 12 - l) for l in range(k)
            ]
