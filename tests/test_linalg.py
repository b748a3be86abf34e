import numpy as np
import pytest

from cssp.instances import hard_instance, random_gaussian
from cssp.linalg import (
    char_poly,
    gram,
    gram_spectrum,
    residual_spectral_sq,
    sym_eigenvalues,
    symmetrize,
)
from helpers import complement_projector


def random_matrix(rng, n, d):
    return rng.standard_normal((n, d))


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_two_columns(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(gram(a), [[2, 1], [1, 2]])

    def test_hard_instance_closed_form(self):
        a = hard_instance(2, 1.0)
        assert np.allclose(gram(a), [[2, 1], [1, 2]])
        b = hard_instance(3, 2.0)
        assert np.array_equal(gram(b), 4.0 * np.eye(3) + np.ones((3, 3)))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        g = gram(random_matrix(rng, 5, 7))
        assert np.array_equal(g, g.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gram(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="^expected a nonempty 2-D matrix$"):
            gram(np.ones(3))


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(sym_eigenvalues(np.diag([3.0, 1.0])), [3, 1])

    def test_two_by_two(self):
        assert np.allclose(sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [3, 1])

    def test_hard_instance_spectrum(self):
        eigs = sym_eigenvalues(gram(hard_instance(4, 1.0)))
        assert np.allclose(eigs, [5, 1, 1, 1], atol=1e-10)

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = symmetrize(rng.standard_normal((n, n)))
            mine = sym_eigenvalues(m)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            norm = 1.0 + np.abs(ref).max()
            assert np.max(np.abs(mine - ref)) <= 1e-10 * norm

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="^expected a square matrix$"):
            sym_eigenvalues(np.ones((2, 3)))

    def test_high_relative_accuracy_on_graded_spectrum(self):
        # eigvalsh's absolute error, about eps * ||M||_2, is inside the 1e-15
        # floor of the tolerance, so the 1e-9 eigenvalue keeps about 6 digits
        rng = np.random.default_rng(9)
        target = np.array([1.0, 1e-3, 1e-6, 1e-9])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = symmetrize((q * target) @ q.T)
        eigs = sym_eigenvalues(m)
        assert np.all(np.abs(eigs - target) <= 1e-8 * target + 1e-15)


class TestCharPoly:
    def test_identity(self):
        assert np.allclose(char_poly(np.eye(2)), [1, -2, 1])

    def test_diagonal(self):
        assert np.allclose(char_poly(np.diag([3.0, 1.0])), [3, -4, 1])

    def test_ones_plus_identity(self):
        m = np.eye(4) + np.ones((4, 4))
        assert np.allclose(char_poly(m), [5, -16, 18, -8, 1])

    def test_monic(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 9):
            m = symmetrize(rng.standard_normal((n, n)))
            assert char_poly(m)[-1] == 1.0

    def test_vanishes_at_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            m = symmetrize(rng.standard_normal((n, n)))
            c = char_poly(m)
            top = np.max(np.abs(c))
            for lam in sym_eigenvalues(m):
                assert abs(np.polynomial.polynomial.polyval(lam, c)) <= 1e-6 * top

    def test_coefficients_against_eigenvalue_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = symmetrize(rng.standard_normal((n, n)))
            ref = np.polynomial.polynomial.polyfromroots(np.linalg.eigvalsh(m))
            c = char_poly(m)
            assert np.max(np.abs(c - ref)) <= 1e-8 * np.max(np.abs(ref))


class TestResidual:
    def test_identity_single_column(self):
        assert residual_spectral_sq(np.eye(2), [0]) == pytest.approx(1.0)

    def test_diagonal(self):
        a = np.diag([np.sqrt(3.0), 1.0])
        assert residual_spectral_sq(a, [1]) == pytest.approx(3.0)

    def test_empty_subset_is_squared_norm(self):
        rng = np.random.default_rng(6)
        a = random_matrix(rng, 4, 3)
        assert residual_spectral_sq(a, []) == pytest.approx(gram_spectrum(a)[0][0])

    def test_hard_instance_value(self):
        a = hard_instance(4, 1.0)
        assert residual_spectral_sq(a, [0, 1]) == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_matches_svd_route(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, d = (int(x) for x in rng.integers(2, 9, size=2))
            a = random_matrix(rng, n, d)
            size = int(rng.integers(0, d + 1))
            s = list(rng.choice(d, size=size, replace=False))
            mine = residual_spectral_sq(a, s)
            sub = a[:, s] if s else np.zeros((n, 1))
            resid = a - sub @ np.linalg.pinv(sub) @ a
            ref = np.linalg.svd(resid, compute_uv=False)[0] ** 2
            assert abs(mine - ref) <= 1e-7 * max(1.0, ref)

    def test_projector_is_complement_of_subset_span(self):
        # same cases as test_matches_svd_route; a subset spanning the whole
        # column space once gave trace(Q) = -1 and ||Q A||^2 far above 0
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, d = (int(x) for x in rng.integers(2, 9, size=2))
            a = random_matrix(rng, n, d)
            size = int(rng.integers(0, d + 1))
            s = list(rng.choice(d, size=size, replace=False))
            q = complement_projector(a, s)
            rank_s = gram_spectrum(a[:, s])[0].size if s else 0
            assert abs(np.trace(q) - (n - rank_s)) <= 1e-8
            norm_sq = np.linalg.svd(q @ a, compute_uv=False)[0] ** 2
            ref = residual_spectral_sq(a, s)
            assert abs(norm_sq - ref) <= 1e-9 * max(1.0, ref)

    @pytest.mark.parametrize("case", ["sum-of-two", "repeats", "rank-cap", "all-zero"])
    def test_dependent_columns_match_svd_route(self, case):
        from cssp.oracle import svd_residual_sq

        g = random_gaussian(6, 4, 5)
        if case == "sum-of-two":  # column 3 = column 0 + column 2, then one more
            a = np.column_stack([g[:, 0], g[:, 1], g[:, 2], g[:, 0] + g[:, 2]])
            s, rank_s = [0, 2, 3, 1], 3
        elif case == "repeats":  # u, v, u, v, w chosen; z keeps rank(A) above the cap
            u, v, w, z = g.T
            a = np.column_stack([u, v, u, w, v, z])
            s, rank_s = [0, 1, 2, 4, 3], 3
        elif case == "rank-cap":
            # six columns of a rank-2 wide product whose first two are nearly
            # parallel: rounding leaves the third 1e-10 off their span, above tol
            c = random_gaussian(2, 9, 6)
            c[:, 1] = c[:, 0] + 1e-6 * c[:, 1]
            a = g[:, :2] @ c
            s, rank_s = [0, 1, 2, 3, 4, 5], 2
        else:
            a = np.zeros((3, 4))
            s, rank_s = [1, 2], 0
        q = complement_projector(a, s)
        assert abs(np.trace(q) - (a.shape[0] - rank_s)) <= 1e-9
        mine = residual_spectral_sq(a, s)
        # ||A||_2^2, 0 at rank zero
        norm_sq = np.max(gram_spectrum(a)[0], initial=0.0)
        assert abs(mine - svd_residual_sq(a, s)) <= 1e-12 * norm_sq

    def test_monotone_under_superset(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_matrix(rng, 6, 6)
            order = list(rng.permutation(6))
            prev = residual_spectral_sq(a, [])
            for j in range(1, 7):
                cur = residual_spectral_sq(a, order[:j])
                assert cur <= prev + 1e-9 * max(1.0, prev)
                prev = cur

    def test_duplicate_subset_rejected(self):
        with pytest.raises(ValueError):
            residual_spectral_sq(np.eye(3), [0, 0])

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError, match=r"^column index 3 out of range \[0, 3\)$"):
            residual_spectral_sq(np.eye(3), [0, 3])


class TestRank:
    def test_full_and_deficient(self):
        assert gram_spectrum(hard_instance(4, 1.0))[0].size == 4
        a = np.ones((5, 3))
        assert gram_spectrum(a)[0].size == 1

    def test_rank_tolerance_scales_with_norm(self):
        a = np.eye(3)
        assert gram_spectrum(1000 * a)[1] == pytest.approx(1000 * gram_spectrum(a)[1])

    def test_norm_with_infinite_square_rejected(self):
        assert gram_spectrum(np.array([[1.2e154]]))[0][0] == pytest.approx(1.44e308)
        with pytest.raises(ValueError, match="exceeds 1.34078e\\+154"):
            gram_spectrum(np.array([[1.0, 0.0], [0.0, 1e160]]))

    def test_square_underflow_rejected(self):
        # rank is decided on sigma > tol: a kept sigma whose square underflows
        # to 0 raises instead of silently lowering the rank
        u, _, vt = np.linalg.svd(random_gaussian(6, 6, 1))
        graded = (u * np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14])) @ vt
        assert gram_spectrum(graded * 1e-140)[0].size == 6
        for m in (graded * 1e-150, random_gaussian(6, 8, 3) * 1e-163):
            with pytest.raises(ValueError, match="below 2.22276e-162"):
                gram_spectrum(m)

    def test_complement_projector_skips_dependent_columns(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        q = complement_projector(a, [0, 1, 2])
        assert np.allclose(q, 0.0, atol=1e-12)
