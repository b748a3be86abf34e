import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cssp.selector as selector_mod
from cssp.bounds import residual_bound, spectrum_of
from cssp.errors import CertificateViolation, DegenerateDirection, RankExceeded
from cssp.instances import hard_instance, power_law, random_gaussian
from cssp.linalg import MACHINE_EPS, char_poly, gram, gram_spectrum, residual_spectral_sq
from cssp.polynomial import maxroot, polar_power
from cssp.selector import candidate_score, initial_state, select


def _rank_deficient(n, d, r, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, d))


class TestCandidateScore:
    def test_diagonal_both_columns(self):
        a = np.diag([np.sqrt(3.0), 1.0])
        state = initial_state(a)
        assert candidate_score(state, 0, a, 1).value == pytest.approx(1.0, abs=1e-8)
        assert candidate_score(state, 1, a, 1).value == pytest.approx(3.0, abs=1e-8)

    def test_hard_instance_symmetry(self):
        a = hard_instance(4, 1.0)
        state = initial_state(a)
        scores = [candidate_score(state, i, a, 2).value for i in range(4)]
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
        from cssp.linalg import rank_tolerance

        _advance(state, a, 0, rank_tolerance(a))
        with pytest.raises(DegenerateDirection):
            candidate_score(state, 1, a, 2)


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
        scores = {i: candidate_score(state, i, a, 2).value for i in range(7)}
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
        with pytest.raises(ValueError):
            select(np.eye(2), 1, eps=0.0)


class TestStateConsistency:
    def test_cached_matrix_matches_rebuild(self):
        # the incrementally updated product matrix must track a from-scratch
        # rebuild through a whole selection run
        from cssp.linalg import complement_projector, rank_tolerance, symmetrize
        from cssp.selector import _advance

        for seed, (n, d) in enumerate(((7, 7), (7, 7), (12, 7))):
            a = random_gaussian(n, d, seed)
            tol = rank_tolerance(a)
            state = initial_state(a)
            norm_sq = spectrum_of(a).eigs[0]
            for j in (4, 1, 6, 2):
                _advance(state, a, j, tol)
                q = complement_projector(a, state.chosen)
                rebuilt = symmetrize(q @ a @ a.T @ q)
                drift = np.linalg.norm(state.b - rebuilt)
                assert drift <= 1e-7 * (1.0 + norm_sq)
                assert np.array_equal(state.q, state.q.T)
                assert abs(np.trace(state.q) - (n - len(state.chosen))) <= 1e-8


class TestTieBreak:
    def test_hard_instance_ties_go_to_smallest_index(self):
        # every column of the symmetric hard instance ties in exact arithmetic
        for d in range(3, 11):
            for k in range(1, d):
                assert select(hard_instance(d, 1.0), k).subset == list(range(k)), (d, k)

    def test_permuted_hard_instance_picks_smallest_indices(self):
        perm = np.random.Generator(np.random.Philox(7)).permutation(48)
        assert select(hard_instance(48, 1.0)[:, perm], 24).subset == list(range(24))


def rising_scores(scorer):
    """The scorer with 1, 2, 3, ... added to the scores of successive calls."""
    calls = []

    def rising(mu, power, eps, noise):
        calls.append(power)
        return scorer(mu, power, eps, noise) + len(calls)

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
        from cssp.linalg import complement_projector, rank_tolerance, symmetrize
        from cssp.selector import _advance, _scores

        eps = 1e-9
        state = initial_state(a)
        noise = state.b.shape[0] * MACHINE_EPS * spectrum_of(a).eigs[0]
        _advance(state, a, 0, rank_tolerance(a))
        cands = list(range(1, a.shape[1]))
        u = (state.q @ a[:, cands]).T
        polys = [char_poly(symmetrize(a.T @ complement_projector(a, [0, i]) @ a)) for i in cands]
        for power in (0, 1, 3):
            scores = _scores(state, u, power, eps, noise)
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
        got = [candidate_score(state, i, a, k, eps).value for i in range(24)]
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


def _spectra(n, ratio, kind, seed, picked):
    """Candidate spectra at one iteration of a selection run, the noise
    level and the rank left, as select computes them: the input is rescaled
    to a squared norm in [1/2, 2] and reduced to R, and up to picked random
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
    eigs, tol = gram_spectrum(a)
    m = int(np.round(np.log2(eigs[0]) / 2.0))
    r = np.linalg.qr(a * 2.0**-m, mode="r")
    tol *= 2.0**-m
    state = initial_state(r)
    for j in rng.permutation(a.shape[1])[:picked]:
        if state.iteration < eigs.size - 1 and np.linalg.norm(state.q @ r[:, j]) > tol:
            selector_mod._advance(state, r, int(j), tol)
    u = (state.q @ r).T
    u = u[np.linalg.norm(u, axis=1) > tol]
    mu = np.maximum(np.linalg.eigvalsh(selector_mod._downdated(state, u)), 0.0)
    noise = r.shape[0] * MACHINE_EPS * eigs[0] * 4.0**-m
    return mu, noise, eigs.size - state.iteration


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
        got = selector_mod._root_scores(mu, power, eps, noise)
        for value, row in zip(got, mu):
            ref = _mp_score(mpmath, row, power, noise)
            assert abs(value - ref) <= max(eps, 64 * MACHINE_EPS * ref)
