import ast
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import cssp.oracle
import cssp.polynomial
from cssp.bounds import residual_bound, spectrum_of
from cssp.errors import EmptySpectrum, NotFullColumnRank, RankExceeded, TooManySubsets
from cssp.instances import hard_instance, power_law, random_gaussian
from cssp.linalg import char_poly, gram, gram_spectrum, symmetrize
from cssp.oracle import (
    IDENTITY_TOLERANCES,
    brute_force_best,
    expected_frobenius_residual,
    expected_poly_bruteforce,
    gram_det_factored,
    gram_det_sum,
    gram_det_sum_enumerated,
    restricted_invertibility_pair,
    run_identity_suite,
    svd_residual_sq,
    volume_mean_frobenius_enumerated,
    volume_mean_residual,
    weighted_step_identity_error,
)
from cssp.polynomial import maxroot, polar_power
from cssp.selector import select


class TestBruteForce:
    def test_diagonal(self):
        subset, residual = brute_force_best(np.diag([np.sqrt(3.0), 1.0]), 1)
        assert subset == [0]
        assert residual == pytest.approx(1.0)

    def test_hard_instance_tie(self):
        subset, residual = brute_force_best(hard_instance(4, 1.0), 2)
        assert subset == [0, 1]  # all six subsets tie; lexicographic first
        assert residual == pytest.approx(5.0 / 3.0, rel=1e-9)
        # every k-subset of a hard instance ties exactly, so rounding must not
        # decide: the first subset wins at every size and width
        for d in range(3, 11):
            a = hard_instance(d, 1.0)
            for k in range(1, d):
                assert brute_force_best(a, k)[0] == list(range(k)), (d, k)

    def test_tie_margin_does_not_overflow(self):
        # at ||A||_2 = 1e154, ||A||_2^2 is finite but ||A||_F^2 is not: the
        # margin must not let every subset tie
        a = random_gaussian(6, 6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subset, _ = brute_force_best(a * (1e154 / np.linalg.norm(a, 2)), 3)
        assert subset == brute_force_best(a, 3)[0] == [0, 2, 4]

    def test_full_rank_exhausts(self):
        subset, residual = brute_force_best(np.eye(3), 3)
        assert subset == [0, 1, 2]
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_cap(self):
        with pytest.raises(TooManySubsets):
            brute_force_best(np.ones((2, 60)), 30)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="^need 0 <= k <= d$"):
            brute_force_best(np.eye(3), k)


class TestExpectedPolynomial:
    def test_two_term_sum(self):
        # diag(sqrt 3, 1): 3 x(x-1) + 1 x(x-3) = 4x^2 - 6x
        out = expected_poly_bruteforce(np.diag([np.sqrt(3.0), 1.0]), 1)
        assert np.allclose(out, [0.0, -6.0, 4.0])

    def test_k_zero_is_charpoly(self):
        a = random_gaussian(4, 3, 0)
        assert np.allclose(expected_poly_bruteforce(a, 0), char_poly(gram(a)))

    def test_matches_operator_route(self):
        for seed in range(25):
            rng = np.random.Generator(np.random.Philox(seed))
            n = int(rng.integers(2, 8))
            d = int(rng.integers(2, 8))
            a = random_gaussian(n, d, seed)
            t = spectrum_of(a).t
            base = char_poly(gram(a))
            for k in range(1, t + 1):
                enumerated = expected_poly_bruteforce(a, k)
                operator = polar_power(base, k)
                scale = max(np.max(np.abs(operator)), 1e-300)
                assert np.max(np.abs(enumerated - operator)) <= 1e-7 * scale

    def test_weighted_single_step_identity(self):
        rng = np.random.default_rng(0)
        for seed in range(15):
            a = random_gaussian(5, 6, seed + 100)
            subsets = [[], [0], [1, 3]]
            s = subsets[int(rng.integers(0, 3))]
            assert weighted_step_identity_error(a, s) <= 1e-7
        # a copy of a chosen column lies in its span and adds no term
        a = random_gaussian(5, 3, 1)[:, [0, 1, 0, 2]]
        assert weighted_step_identity_error(a, [0]) <= 1e-7

    def test_tminus1_shape_gives_alpha(self):
        # after t-1 operator applications only x^(d-1) (x - alpha) survives
        for seed in range(8):
            a = random_gaussian(6, 5, seed)
            info = spectrum_of(a)
            p = polar_power(char_poly(gram(a)), info.t - 1)
            root = maxroot(p, 1e-10).value
            assert root == pytest.approx(info.alpha, rel=1e-7)
            # all coefficients below x^(d-1) vanish
            assert np.max(np.abs(p[: a.shape[1] - 1])) <= 1e-9 * np.max(np.abs(p))


class TestDeterminants:
    def test_factored_matches_numpy(self):
        for seed in range(12):
            a = random_gaussian(6, 6, seed + 30)
            for s in itertools.combinations(range(6), 3):
                sub = a[:, list(s)]
                ref = np.linalg.det(symmetrize(sub.T @ sub))
                assert gram_det_factored(a, s) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("a, cols", [
        (random_gaussian(200, 6, 1), [0, 2, 5]),
        (random_gaussian(6, 12, 2), [1, 4, 7, 10]),
        (np.column_stack([random_gaussian(8, 5, 3), random_gaussian(8, 5, 3)[:, 1]]), [1, 3, 5]),
        (random_gaussian(8, 2, 1) @ random_gaussian(2, 6, 2), [0, 3]),
        (random_gaussian(8, 2, 1) @ random_gaussian(2, 6, 2), [0, 3, 4]),
    ], ids=["tall200x6", "wide6x12", "duplicated-column", "rank2", "rank2-dependent"])
    def test_deflated_residual_matches_pinv_route(self, a, cols):
        # Q_S A from one rank-one update per column against svd_residual_sq's
        # A - A_S pinv(A_S) A, and the factored det(A_S^T A_S) against numpy's
        det, resid = cssp.oracle._deflated(a, cols, gram_spectrum(a)[1])
        sub = a[:, cols]
        assert np.max(np.abs(resid - (a - sub @ np.linalg.pinv(sub) @ a))) \
            <= 1e-12 * np.linalg.norm(a, 2)
        ref = np.linalg.det(symmetrize(sub.T @ sub))
        if np.linalg.matrix_rank(sub) < len(cols):
            assert det == 0.0
            assert abs(ref) <= 1e-8 * np.prod(np.sum(sub * sub, axis=0))
        else:
            assert det == pytest.approx(ref, rel=1e-8)

    def test_no_n_by_n_array(self):
        # the residual is n x d: the peak stays below one 2000 x 2000 array,
        # in the deflation and in the pseudoinverse route of the brute force
        a = random_gaussian(2000, 4, 1)
        tracemalloc.start()
        try:
            gram_det_factored(a, [0, 1, 2])
            svd_residual_sq(a, [0, 1, 2])
            brute_force_best(a, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2000**2

    def test_dependent_columns_give_zero(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert gram_det_factored(a, [0, 1]) == 0.0

    def test_subset_sum_examples(self):
        a = np.diag([np.sqrt(3.0), 1.0])
        assert gram_det_sum(a, 1) == pytest.approx(4.0)
        assert gram_det_sum(a, 2) == pytest.approx(3.0)
        assert gram_det_sum(a, 0) == 1.0
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            gram_det_sum(a, -1)

    def test_subset_sum_two_routes(self):
        # the rank-2 products have no nonzero 3-subset determinant; Gram
        # eigenvalues would count their rounding noise as rank
        rank2 = [random_gaussian(6, 2, 1) @ random_gaussian(2, 8, 2),
                 random_gaussian(8, 2, 1) @ random_gaussian(2, 6, 2)]
        for a in [random_gaussian(5, 7, seed + 60) for seed in range(10)] + rank2:
            for k in range(0, 5):
                fast = gram_det_sum(a, k)
                slow = gram_det_sum_enumerated(a, k)
                assert fast == pytest.approx(slow, rel=1e-8)
        for a in rank2:
            assert gram_det_sum(a, 3) == 0.0


class TestVolumeSamplingMeans:
    def test_alpha_two_column(self):
        assert volume_mean_residual(np.diag([np.sqrt(3.0), 1.0])) == pytest.approx(1.5)

    def test_alpha_hard_instance(self):
        assert volume_mean_residual(hard_instance(4, 1.0)) == pytest.approx(1.25, rel=1e-9)

    def test_alpha_degenerate(self):
        assert volume_mean_residual(np.eye(3)) == pytest.approx(1.0)

    def test_alpha_matches_spectrum(self):
        for seed in range(15):
            a = random_gaussian(6, 6, seed + 200)
            assert volume_mean_residual(a) == pytest.approx(
                spectrum_of(a).alpha, rel=1e-7
            )

    def test_alpha_rank_zero_is_typed(self):
        with pytest.raises(EmptySpectrum):
            volume_mean_residual(np.zeros((3, 2)))

    def test_frobenius_formula_values(self):
        a = np.diag([np.sqrt(3.0), 1.0])
        assert expected_frobenius_residual(a, 1) == pytest.approx(1.5)
        assert expected_frobenius_residual(a, 0) == pytest.approx(4.0)
        h = hard_instance(4, 1.0)
        assert expected_frobenius_residual(h, 3) == pytest.approx(1.25, rel=1e-9)
        for k in (-1, 2):
            with pytest.raises(ValueError, match="^need 0 <= k < rank$"):
                expected_frobenius_residual(a, k)

    def test_frobenius_formula_matches_enumeration(self):
        for seed in range(12):
            a = random_gaussian(5, 6, seed + 300)
            t = spectrum_of(a).t
            for k in range(0, t):
                fast = expected_frobenius_residual(a, k)
                slow = volume_mean_frobenius_enumerated(a, k)
                assert fast == pytest.approx(slow, rel=1e-7)


class TestRestrictedInvertibility:
    def test_diagonal(self):
        lhs, rhs = restricted_invertibility_pair(np.diag([np.sqrt(3.0), 1.0]), [0])
        assert lhs == pytest.approx(1.0, rel=1e-8)
        assert rhs == pytest.approx(1.0, rel=1e-8)

    def test_identity(self):
        lhs, rhs = restricted_invertibility_pair(np.eye(3), [0, 1])
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_random_full_rank(self):
        for seed in range(12):
            a = random_gaussian(4, 4, seed + 400)
            for s in itertools.combinations(range(4), 2):
                lhs, rhs = restricted_invertibility_pair(a, s)
                assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_requires_full_column_rank(self):
        with pytest.raises(NotFullColumnRank):
            restricted_invertibility_pair(np.ones((4, 3)), [0])

    def test_requires_a_proper_subset(self):
        with pytest.raises(ValueError, match="^the subset must be a proper subset of the columns$"):
            restricted_invertibility_pair(np.eye(3), [0, 1, 2])


class TestSandwich:
    def test_brute_force_le_greedy_le_bound(self):
        eps = 1e-9
        checked = 0
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(seed + 77))
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 9))
            a = random_gaussian(n, d, seed + 500)
            info = spectrum_of(a)
            for k in range(1, info.t):
                if not info.beta * info.t <= k < info.t:
                    continue
                _, best = brute_force_best(a, k)
                greedy = select(a, k, eps=eps).residual_sq
                bound = residual_bound(info, k).bound
                assert best <= greedy + 1e-9 * max(1.0, greedy)
                assert greedy <= 2 * k * eps + bound
                checked += 1
        assert checked >= 8

    def test_svd_residual_matches_library_route(self):
        from cssp.linalg import residual_spectral_sq

        for seed in range(10):
            a = random_gaussian(5, 6, seed)
            s = [0, 2]
            assert svd_residual_sq(a, s) == pytest.approx(
                residual_spectral_sq(a, s), rel=1e-8
            )
        # no column chosen: the squared norm of A
        assert svd_residual_sq(a, []) == pytest.approx(np.linalg.norm(a, 2) ** 2, rel=1e-12)


def _scaled_copy(m, a):
    """Whether m is a times a power of two, as the identity suite runs on a
    power-of-two rescale of its input."""
    ratio = m[0, 0] / a[0, 0] if np.shape(m) == a.shape else 0.0
    return bool(ratio > 0.0 and np.frexp(ratio)[0] == 0.5 and np.array_equal(m, a * ratio))


def _svds_of(monkeypatch, a) -> list:
    """A list that gains one entry per SVD numpy takes from then on: whether
    its input is a scaled copy of a."""
    svd = np.linalg.svd
    calls = []

    def counting_svd(m, *args, **kwargs):
        calls.append(_scaled_copy(m, a))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


class TestIdentitySuite:
    # the power-law input is full rank, and its two lowest Gram polynomial
    # coefficients are 1.3e-14 and 1.7e-11 of the largest: none is noise
    # (scaled inputs: the tolerances hold whatever the input's scale)
    @pytest.mark.parametrize("a, k", [
        (random_gaussian(6, 6, 1), 3),
        (random_gaussian(4, 7, 9), 2),
        (power_law(8, 8, 8, 3, 1, 1), 5),
        (power_law(8, 8, 8, 3, 1, 1), 7),
        *[(f * random_gaussian(6, 6, 1), 3) for f in (100.0, 1e4, 2.0**20, 1e8)],
        (1e3 * random_gaussian(8, 10, 1), 4),
        *[(f * power_law(8, 8, 8, 3, 1, 1), 5) for f in (100.0, 1e8)],
        # ranks 1 and 2: a subset of rank columns leaves Q_S A at rounding noise
        (random_gaussian(1, 5, 1), 1),
        (random_gaussian(2, 6, 1), 1),
        (random_gaussian(2, 6, 1), 2),
        (power_law(8, 8, 2, 2, 1, 1), 1),
    ], ids=["random6x6", "wide4x7", "power8-k5", "power8-k7", "random6x6-x100", "random6x6-x1e4",
            "random6x6-x2^20", "random6x6-x1e8", "wide8x10-x1e3", "power8-k5-x100",
            "power8-k5-x1e8", "rank1-1x5", "rank2-2x6-k1", "rank2-2x6-k2", "power8-rank2-k1"])
    def test_identities_within_tolerance(self, a, k):
        report = run_identity_suite(a, k)
        for name, err in report.identity_errors.items():
            assert err <= IDENTITY_TOLERANCES[name], (name, err)

    def test_outputs_on_the_input_scale(self):
        # the suite runs on a power-of-two rescale of A, so 2^20 A, with eps
        # scaled alike, gives the same identity errors and A's outputs times
        # exact powers of two
        a = random_gaussian(6, 6, 1)
        base, scaled = run_identity_suite(a, 3), run_identity_suite(2.0**20 * a, 3, 2.0**40 * 1e-9)
        assert scaled.identity_errors == base.identity_errors
        assert scaled.best_subset == base.best_subset
        assert scaled.best_residual_sq == 2.0**40 * base.best_residual_sq

    def test_all_pass_on_seeded_instance(self):
        report = run_identity_suite(random_gaussian(6, 6, 1), 3)
        assert report.best_subset == [0, 2, 4]

    def test_wide_instance(self):
        report = run_identity_suite(random_gaussian(4, 7, 9), 2)
        # no restricted-invertibility check without full column rank
        assert "restricted_invertibility" not in report.identity_errors

    def test_svd_count_independent_of_subset_count(self, monkeypatch):
        # each subset's residual comes from the factored determinant, not
        # from a fresh SVD of A: C(10, 3) = 120 and C(10, 4) = 210 subsets;
        # the spectrum before and after the rescale, then one each for the
        # expected polynomial, three weighted steps, alpha, the enumerated
        # Frobenius mean and the enumerated determinant sum
        a = random_gaussian(8, 10, 1)
        calls = _svds_of(monkeypatch, a)
        counts = []
        for k in (3, 4):
            calls.clear()
            run_identity_suite(a, k)
            counts.append(sum(calls))
        assert counts == [9, 9]

    @pytest.mark.parametrize("name, args", [
        ("expected_poly_bruteforce", (3,)),
        ("gram_det_sum", (3,)),
        ("gram_det_sum_enumerated", (3,)),
        ("volume_mean_residual", ()),
        ("expected_frobenius_residual", (3,)),
        ("volume_mean_frobenius_enumerated", (3,)),
        ("weighted_step_identity_error", ([0, 1],)),
        ("gram_det_factored", ([0, 2, 4],)),
        ("restricted_invertibility_pair", ([0, 2],)),
    ])
    def test_one_svd_of_the_input_per_routine(self, monkeypatch, name, args):
        # each public routine reads its rank and tolerance from one spectrum
        a = random_gaussian(6, 6, 1)
        calls = _svds_of(monkeypatch, a)
        getattr(cssp.oracle, name)(a, *args)
        assert sum(calls) <= 1

    def test_restricted_invertibility_shares_the_suite_spectrum(self, monkeypatch):
        # the suite checks C(6, 2) = 15 and C(6, 3) = 20 subsets against one
        # spectrum and one pseudoinverse of A
        import cssp.oracle as oracle_mod

        a = random_gaussian(6, 6, 1)
        spectra, pinvs = [], []
        gram_spectrum, pinv = oracle_mod.gram_spectrum, np.linalg.pinv

        def counting_spectrum(m):
            spectra.append(1)
            return gram_spectrum(m)

        def counting_pinv(m, *args, **kwargs):
            pinvs.append(_scaled_copy(m, a))
            return pinv(m, *args, **kwargs)

        monkeypatch.setattr(oracle_mod, "gram_spectrum", counting_spectrum)
        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        counts = []
        for k in (2, 3):
            spectra.clear()
            pinvs.clear()
            assert "restricted_invertibility" in run_identity_suite(a, k).identity_errors
            counts.append((len(spectra), sum(pinvs)))
        assert counts[0] == counts[1]
        assert counts[0][1] == 1

    def test_restricted_invertibility_pair_from_shared_spectrum(self):
        import cssp.oracle as oracle_mod

        a = random_gaussian(5, 5, 3)
        tol = gram_spectrum(a)[1]
        pinv_t = np.linalg.pinv(a).T
        for s in itertools.combinations(range(5), 2):
            shared = oracle_mod._restricted_invertibility_pair(a, list(s), tol, pinv_t, 1e-9)
            assert shared == restricted_invertibility_pair(a, s)

    @pytest.mark.parametrize("a", [
        random_gaussian(6, 6, 1) * (1e-158 / np.linalg.norm(random_gaussian(6, 6, 1), 2)),
        3e-162 * np.eye(6),
    ], ids=["gaussian-1e-158", "identity-3e-162"])
    def test_tiny_scale_returns_a_report(self, a):
        # eps scaled to the unit-norm copy stays finite, and nothing overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_identity_suite(a, 3)
        assert len(report.best_subset) == 3
        assert all(np.isfinite(err) for err in report.identity_errors.values())
        # the spectrum comes from the rescaled copy, so no subnormal Gram
        # eigenvalue is rounded before the spectral identities see it
        for name in ("expected_poly_vs_operator", "alpha_as_expectation",
                     "subset_det_sum_two_routes"):
            assert report.identity_errors[name] <= IDENTITY_TOLERANCES[name], name

    def test_huge_scale_does_not_overflow(self):
        # only the optimum is scaled back; at 1e40 A the k-th subset
        # determinant sum would be far past the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_identity_suite(random_gaussian(6, 6, 1) * 1e40, 4)
        assert np.isfinite(report.best_residual_sq)

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_outside_rank_is_typed(self, k):
        with pytest.raises(RankExceeded, match=rf"k={k} outside \[1, rank=6\]"):
            run_identity_suite(random_gaussian(6, 6, 1), k)


def _imported_names(module) -> set[str]:
    with open(module.__file__) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in imported}


@pytest.mark.parametrize("module", [cssp.oracle, cssp.polynomial], ids=["oracle", "polynomial"])
def test_independent_route_imports_nothing_from_select(module):
    # the slow path checks the fast one, so it shares none of its code
    assert not _imported_names(module) & {"selector", "roots"}


def test_oracle_imports_no_qr_basis():
    # the oracle's residuals come from its own rank-one deflation, not from
    # the QR basis behind select's final residual
    qr_basis = {"_span_basis", "_residual_sq", "residual_spectral_sq", "complement_projector"}
    assert not _imported_names(cssp.oracle) & qr_basis
