import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from cssp.errors import NoRootInRange, ZeroPolynomial
from cssp.polynomial import (
    _fourier_matrix,
    _pow2_scale,
    _prepare,
    _root_scale_exp,
    cauchy_bound,
    derivative,
    flip,
    maxroot,
    minroot,
    polar_power,
)


def coeffs(*c):
    return np.array(c, dtype=float)


class TestFlip:
    def test_quadratic(self):
        assert np.array_equal(flip(coeffs(3, -4, 1)), coeffs(1, -4, 3))

    def test_trailing_zero_is_meaningful(self):
        # x^3 - 2x^2 + x as a nominal cubic flips to a cubic with zero top
        assert np.array_equal(flip(coeffs(0, 1, -2, 1)), coeffs(1, -2, 1, 0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    def test_involution_exact(self, c):
        p = np.array(c, dtype=float)
        assert np.array_equal(flip(flip(p)), p)

    def test_flip_at_zero_is_top_coefficient(self):
        p = coeffs(2.0, -1.0, 7.0)
        assert npoly.polyval(0.0, flip(p)) == 7.0


class TestDerivative:
    def test_first(self):
        assert np.array_equal(derivative(coeffs(3, -4, 1)), coeffs(-4, 2))

    def test_full_order(self):
        assert np.array_equal(derivative(coeffs(0, 0, 0, 1), 3), coeffs(6))

    def test_constant_goes_to_zero(self):
        assert np.array_equal(derivative(coeffs(5.0)), coeffs(0.0))


class TestPolarPower:
    def test_single_step_quadratic(self):
        # (x^2 d/dx - 2x)(x^2 - 4x + 3) = 4x^2 - 6x
        out = polar_power(coeffs(3, -4, 1), 1)
        assert np.allclose(out, coeffs(0, -6, 4))

    def test_single_step_cubic_with_zero_root(self):
        # x(x-1)^2 as a cubic: one application gives 2x^3 - 2x^2
        p = npoly.polyfromroots([0.0, 1.0, 1.0])
        assert np.allclose(polar_power(p, 1), coeffs(0, 0, -2, 2))

    def test_vanishes_past_nonzero_root_count(self):
        p = npoly.polyfromroots([0.0, 1.0, 1.0])  # t = 2 nonzero roots
        assert np.allclose(polar_power(p, 3), np.zeros(4))
        assert np.any(polar_power(p, 2) != 0.0)

    def test_identity_power_zero(self):
        p = coeffs(3, -4, 1)
        assert np.array_equal(polar_power(p, 0), p)

    def _direct_apply(self, p, k):
        # literal x^2 * p' - d * x * p, applied k times; the x^(d+1) terms
        # cancel exactly so truncating back to nominal degree d is lossless
        d = p.size - 1
        for _ in range(k):
            dp = derivative(p)
            term1 = np.zeros(d + 2)
            term1[2 : 2 + dp.size] = dp
            term2 = np.zeros(d + 2)
            term2[1 : 1 + p.size] = d * p
            p = (term1 - term2)[: d + 1]
        return p

    @given(
        st.lists(st.floats(0.0, 4.0), min_size=1, max_size=10),
        st.integers(0, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_reversal_route_matches_direct_application(self, roots, k):
        p = npoly.polyfromroots(roots)
        direct = self._direct_apply(p.copy(), k)
        via_flip = polar_power(p, k)
        scale = max(np.max(np.abs(direct)), np.max(np.abs(via_flip)), 1.0)
        assert np.max(np.abs(direct - via_flip)) <= 1e-9 * scale

    def test_reversal_route_all_powers_to_rank(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = int(rng.integers(1, 11))
            roots = rng.uniform(0.05, 4.0, size=t)
            zeros = int(rng.integers(0, 11 - t)) if t < 10 else 0
            p = npoly.polyfromroots(np.concatenate([np.zeros(zeros), roots]))
            for k in range(t + 1):
                direct = self._direct_apply(p.copy(), k)
                via_flip = polar_power(p, k)
                scale = max(np.max(np.abs(direct)), np.max(np.abs(via_flip)), 1.0)
                assert np.max(np.abs(direct - via_flip)) <= 1e-9 * scale

    def test_maxroot_nonincreasing_in_power(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            t = int(rng.integers(1, 8))
            zeros = int(rng.integers(0, 3))
            roots = rng.uniform(0.05, 3.0, size=t)
            p = npoly.polyfromroots(np.concatenate([np.zeros(zeros), roots]))
            eps = 1e-9
            prev = maxroot(polar_power(p, 0), eps).value
            for k in range(1, t + 1):
                cur = maxroot(polar_power(p, k), eps).value
                assert cur <= prev + 2 * eps + 1e-7
                prev = cur

    @staticmethod
    def _reflect(q):
        # q(-x): its roots are the negated roots of q
        return q * (-1.0) ** np.arange(q.size)

    def test_no_negative_roots_appear(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = int(rng.integers(1, 7))
            roots = rng.uniform(0.05, 2.5, size=t)
            p = npoly.polyfromroots(np.concatenate([np.zeros(2), roots]))
            for k in range(t + 1):
                assert maxroot(self._reflect(polar_power(p, k)), 1e-9).value == 0.0

    def test_reflection_reports_a_negative_root(self):
        p = npoly.polyfromroots([0.0, 0.0, -1e-3, 0.5, 2.0])
        assert abs(maxroot(self._reflect(p), 1e-12).value - 1e-3) <= 1e-12


class TestExtremeRoots:
    def test_maxroot_examples(self):
        assert abs(maxroot(coeffs(3, -4, 1), 1e-6).value - 3) <= 1e-6
        assert abs(maxroot(coeffs(0, -6, 4), 1e-8).value - 1.5) <= 1e-8
        assert maxroot(coeffs(0, 0, 0, 1), 1e-6).value == 0.0

    def test_minroot_examples(self):
        assert abs(minroot(coeffs(3, -4, 1), 1e-6).value - 1) <= 1e-6
        assert abs(minroot(coeffs(-4, 2), 1e-6).value - 2) <= 1e-6

    def test_reciprocal_root_law(self):
        # maxroot of the operator image times minroot of the flipped
        # derivative is 1
        p = coeffs(3, -4, 1)
        eps = 1e-8
        mr = maxroot(polar_power(p, 1), eps).value
        mn = minroot(derivative(flip(p), 1), eps).value
        assert abs(mr * mn - 1.0) <= 4 * eps * (1 + mr + mn)

    def test_reciprocal_root_law_random(self):
        rng = np.random.default_rng(3)
        eps = 1e-9
        for _ in range(25):
            t = int(rng.integers(2, 7))
            roots = rng.uniform(0.1, 3.0, size=t)
            p = npoly.polyfromroots(np.concatenate([np.zeros(1), roots]))
            for k in range(1, t):
                mr = maxroot(polar_power(p, k), eps).value
                mn = minroot(derivative(flip(p), k), eps).value
                assert abs(mr * mn - 1.0) <= 1e-6 * (1 + mr + mn)

    def test_no_root_in_range(self):
        with pytest.raises(NoRootInRange):
            maxroot(coeffs(1, 0, 1), 1e-6)  # x^2 + 1
        with pytest.raises(NoRootInRange):
            maxroot(npoly.polyfromroots([-2.0, -1.0]), 1e-6)
        with pytest.raises(NoRootInRange):
            minroot(coeffs(0, 0, 1), 1e-6)  # only a zero root, no positive

    def test_repeated_roots(self):
        p = npoly.polyfromroots([1.0, 1.0, 1.0])
        assert abs(maxroot(p, 1e-9).value - 1.0) <= 1e-4
        p2 = npoly.polyfromroots([0.0, 0.0, 1.0, 3.0])
        assert abs(maxroot(p2, 1e-9).value - 3.0) <= 1e-8

    def test_scale_extremes(self):
        tiny = npoly.polyfromroots([2e-7, 5e-7])
        assert abs(maxroot(tiny, 1e-15).value - 5e-7) <= 1e-12
        huge = npoly.polyfromroots([1e5, 3e5, 7e5])
        assert abs(maxroot(huge, 1e-3).value - 7e5) <= 1e-2

    @pytest.mark.parametrize("roots, eps", [
        (np.array([1e140, 2e140]), 1e131),
        (1e30 * np.arange(1.0, 11.0), 1e21),
    ], ids=["two-roots", "ten-roots"])
    def test_root_product_past_1e280(self, roots, eps):
        # the leading coefficient lies 1e-280 below the largest, and is kept
        p = npoly.polyfromroots(roots)
        for finder, want in ((maxroot, roots[-1]), (minroot, roots[0])):
            assert abs(finder(p, eps).value - want) <= eps

    def test_rescale_exact_past_900_exponent_steps(self):
        # p(2^e y) spans e (n - 1) = 1020 binary orders before normalizing,
        # yet every coefficient is p_i 2^(e i - c), c the largest exponent
        p = _pow2_scale(npoly.polyfromroots(1e30 * np.arange(1.0, 11.0)))
        e = _root_scale_exp(p)
        assert e == 102
        out = _pow2_scale(p, e)
        exact = [mpmath.ldexp(mpmath.mpf(float(x)), e * i) for i, x in enumerate(p)]
        c = max(mpmath.frexp(v)[1] for v in exact)
        assert all(mpmath.mpf(float(o)) == mpmath.ldexp(v, -c) for o, v in zip(out, exact))

    def test_graded_coefficients(self):
        # many zero roots next to a tight small cluster
        roots = 1e-3 * np.array([0.2, 0.5, 1.0, 1.9])
        p = npoly.polyfromroots(np.concatenate([np.zeros(40), roots]))
        assert abs(maxroot(p, 1e-12).value - 1.9e-3) <= 1e-9
        assert abs(minroot(p, 1e-12).value - 2e-4) <= 1e-9

    def test_random_against_numpy_roots(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            deg = int(rng.integers(1, 10))
            scale = 10.0 ** rng.integers(-4, 5)
            roots = np.sort(rng.uniform(0.1, 3.0, size=deg)) * scale
            p = npoly.polyfromroots(np.concatenate([np.zeros(int(rng.integers(0, 3))), roots]))
            got = maxroot(p, 1e-9 * scale).value
            ref = np.roots(p[::-1])
            ref = ref[np.abs(ref.imag) <= 1e-8 * (1 + np.abs(ref.real))].real.max()
            assert abs(got - ref) <= 1e-6 * scale

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("finder", [maxroot, minroot])
    def test_bad_eps_rejected(self, finder, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            finder(coeffs(3, -4, 1), eps)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            maxroot(coeffs(0, 0, 0), 1e-6)
        with pytest.raises(ZeroPolynomial, match="^the zero polynomial has no root bound$"):
            cauchy_bound(coeffs(0, 0))

    @pytest.mark.parametrize("c, message", [
        ([], "^polynomial must be a nonempty 1-D coefficient array$"),
        ([[1.0, 2.0]], "^polynomial must be a nonempty 1-D coefficient array$"),
        ([1.0, np.inf], "^polynomial coefficients must be finite$"),
    ], ids=["empty", "2-D", "infinite"])
    def test_bad_coefficients_rejected(self, c, message):
        with pytest.raises(ValueError, match=message):
            maxroot(c, 1e-6)

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError, match="^derivative order must be nonnegative$"):
            derivative(coeffs(3, -4, 1), -1)
        with pytest.raises(ValueError, match="^operator power must be nonnegative$"):
            polar_power(coeffs(3, -4, 1), -1)

    def test_cauchy_bound_contains_roots(self):
        p = npoly.polyfromroots([0.5, 2.0, 9.0])
        assert cauchy_bound(p) >= 9.0

    def test_cauchy_bound_keeps_small_leading_coefficient(self):
        # the leading coefficient is 1e-13 of the largest, and 1e13 is a root
        assert cauchy_bound(npoly.polyfromroots([1.0, 1e13])) >= 1e13


def _scalar_variations(mat, x):
    # one polynomial, one scalar point: the Horner loop _variations_at vectorizes
    vals = mat[:, -1].copy()
    for j in range(mat.shape[1] - 2, -1, -1):
        vals = vals * x + mat[:, j]
        big = np.abs(vals) > 1e150
        if big.any():
            vals[big] /= np.abs(vals[big])
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _sequential_maxroot(c, eps):
    """Reference: one polynomial bisected alone, one scalar count per step."""
    q, zero_root, s = _prepare(c)
    mat = _fourier_matrix(q)
    upper = cauchy_bound(q)
    lo, top = 0.0, upper
    v_top = _scalar_variations(mat, top)
    if _scalar_variations(mat, 0.0) - v_top < 1:
        assert zero_root
        return 0.0
    while top - lo > eps / s:
        mid = 0.5 * (lo + top)
        if mid <= lo or mid >= top:
            break
        v_mid = _scalar_variations(mat, mid)
        if v_mid - v_top >= 1:
            lo = mid
        else:
            top, v_top = mid, v_mid
    return float(0.5 * (lo + top) * s)


class TestLockstepMaxroots:
    def _batch(self, seed):
        # real-rooted, nonnegative roots, mixed degrees and zero-root counts,
        # plus a polynomial whose only root is the origin
        rng = np.random.default_rng(seed)
        polys = [coeffs(0, 0, 0, 1)]
        for _ in range(12):
            t = int(rng.integers(1, 9))
            zeros = np.zeros(int(rng.integers(0, 4)))
            roots = np.concatenate([zeros, rng.uniform(0.01, 4.0, size=t) * 10.0 ** rng.integers(-3, 3)])
            polys.append(polar_power(npoly.polyfromroots(roots), int(rng.integers(0, t))))
        return polys

    def test_bit_identical_to_sequential_bisection(self):
        for seed in range(5):
            for p in self._batch(seed):
                assert maxroot(p, 1e-9).value == _sequential_maxroot(p, 1e-9)
