import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssp.bounds import (
    gamma_factor,
    hard_instance_bounds,
    residual_bound,
    spectrum_info,
    spectrum_of,
)
from cssp.errors import EmptySpectrum, NonPositiveEigenvalue, OutOfRegime
from cssp.instances import hard_instance


def hard_spectrum(d, delta):
    return spectrum_info([d + delta**2] + [delta**2] * (d - 1))


class TestSpectrumInfo:
    def test_two_eigenvalues(self):
        info = spectrum_info([3.0, 1.0])
        assert info.t == 2
        assert info.alpha == pytest.approx(1.5)
        assert info.beta == pytest.approx(0.5)
        assert not info.degenerate

    def test_hard_instance_values(self):
        info = spectrum_info([5.0, 1.0, 1.0, 1.0])
        assert info.alpha == pytest.approx(1.25)
        assert info.beta == pytest.approx(0.25)

    def test_equal_spectrum_flagged(self):
        info = spectrum_info([2.0, 2.0, 2.0])
        assert info.degenerate and info.beta == 1.0
        assert info.alpha == pytest.approx(2.0)

    def test_alpha_between_extremes(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            eigs = np.sort(rng.uniform(0.1, 9.0, size=rng.integers(1, 9)))[::-1]
            info = spectrum_info(eigs)
            assert eigs[-1] - 1e-12 <= info.alpha <= eigs[0] + 1e-12
            if not info.degenerate:
                assert 0.0 < info.beta < 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        top=st.integers(-1021, 1024),
        entries=st.lists(st.tuples(st.floats(0.5, 1.0, exclude_max=True), st.integers(0, 1000)),
                         min_size=1, max_size=12),
        data=st.data(),
    )
    def test_exact_under_power_of_four_scaling(self, top, entries, data):
        # normal spectra anywhere in the double range spanning at most 2^1001,
        # moved by 4^j with every entry kept normal
        mant, drop = (np.array(v) for v in zip(*entries))
        eigs = np.sort(np.ldexp(mant, np.maximum(top - drop, -1021)))[::-1]
        lo, hi = np.frexp(eigs[-1])[1], np.frexp(eigs[0])[1]
        j = data.draw(st.integers(-((lo + 1021) // 2), (1024 - hi) // 2))
        info, moved = spectrum_info(eigs), spectrum_info(np.ldexp(eigs, 2 * j))
        assert moved.alpha == np.ldexp(info.alpha, 2 * j)
        assert moved.beta == info.beta
        assert moved.degenerate == info.degenerate

    @settings(max_examples=300, deadline=None)
    @given(
        top=st.integers(-1073, 1024),
        entries=st.lists(st.tuples(st.floats(0.5, 1.0, exclude_max=True), st.integers(0, 2100)),
                         min_size=1, max_size=12),
    )
    def test_finite_at_any_span(self, top, entries):
        # positive spectra anywhere in the double range, subnormals included,
        # spanning up to all of it
        mant, drop = (np.array(v) for v in zip(*entries))
        eigs = np.sort(np.ldexp(mant, np.maximum(top - drop, -1073)))[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = spectrum_info(eigs)
        assert np.isfinite(info.alpha) and np.isfinite(info.beta)
        if info.alpha >= np.finfo(float).tiny:
            with mpmath.workdps(40):
                ref = eigs.size / mpmath.fsum(1 / mpmath.mpf(float(x)) for x in eigs)
                assert abs(mpmath.mpf(info.alpha) - ref) <= 1e-13 * ref

    def test_span_beyond_double_range(self):
        # 2^-80 / 2^1000 underflows, the harmonic mean does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = spectrum_info([2.0**1000, 2.0**-80])
        assert info.alpha == 2.0**-79
        assert info.beta == 0.5
        assert not info.degenerate

    def test_input_validation(self):
        with pytest.raises(EmptySpectrum):
            spectrum_info([])
        with pytest.raises(NonPositiveEigenvalue):
            spectrum_info([2.0, 0.0])
        with pytest.raises(ValueError):
            spectrum_info([1.0, 2.0])

    def test_spectrum_of_matrix(self):
        info = spectrum_of(hard_instance(4, 1.0))
        assert info.t == 4
        assert info.alpha == pytest.approx(1.25, rel=1e-10)
        with pytest.raises(EmptySpectrum, match="^matrix has numerical rank zero$"):
            spectrum_of(np.zeros((3, 2)))


class TestGammaFactor:
    def test_boundary_is_zero(self):
        info = spectrum_info([3.0, 1.0])  # beta*t = 1
        assert gamma_factor(1, info) == pytest.approx(0.0, abs=1e-12)

    def test_hard_instance_value(self):
        info = hard_spectrum(10, 1.0)
        assert gamma_factor(5, info) == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_out_of_regime(self):
        info = hard_spectrum(10, 1.0)
        with pytest.raises(OutOfRegime):
            gamma_factor(0, info)
        with pytest.raises(OutOfRegime):
            gamma_factor(10, info)
        with pytest.raises(OutOfRegime, match="^equal spectrum: the interpolation factor is undefined$"):
            gamma_factor(1, spectrum_info([2.0, 2.0, 2.0]))

    def test_increases_toward_one(self):
        info = hard_spectrum(12, 1.0)
        values = [gamma_factor(k, info) for k in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


class TestResidualBound:
    def test_hard_instance_10(self):
        report = residual_bound(hard_spectrum(10, 1.0), 5)
        assert report.bound == pytest.approx(11.0 / 3.0, rel=1e-12)
        assert report.applicable

    def test_boundary_equals_top_eigenvalue(self):
        report = residual_bound(spectrum_info([3.0, 1.0]), 1)
        assert report.bound == pytest.approx(3.0)
        assert report.gamma == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_spectrum(self):
        report = residual_bound(spectrum_info([2.0, 2.0, 2.0]), 1)
        assert report.bound == pytest.approx(2.0)
        assert not report.applicable

    def test_below_regime_reports_trivial_bound(self):
        report = residual_bound(hard_spectrum(10, 1.0), 0)
        assert report.bound == pytest.approx(11.0)
        assert not report.applicable

    def test_at_rank_reports_alpha(self):
        # gamma clamps to 1 from k = t on, where the bound is alpha
        info = hard_spectrum(10, 1.0)
        for k in (10, 12):
            report = residual_bound(info, k)
            assert report.gamma == 1.0 and not report.applicable
            assert report.bound == pytest.approx(info.alpha, rel=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = int(rng.integers(3, 10))
            eigs = np.sort(rng.uniform(0.2, 8.0, size=t))[::-1]
            info = spectrum_info(eigs)
            if info.degenerate:
                continue
            lo = int(np.ceil(info.beta * t))
            bounds = [residual_bound(info, k).bound for k in range(max(lo, 1), t)]
            for a, b in zip(bounds, bounds[1:]):
                assert b <= a + 1e-12 * abs(a)

    def test_endpoints(self):
        info = hard_spectrum(20, 1.0)
        top = residual_bound(info, 1).bound  # beta*t = 1 exactly for delta=1
        assert top == pytest.approx(info.eigs[0], rel=1e-9)
        near_t = residual_bound(info, 19).bound
        assert near_t < info.eigs[0]
        assert near_t >= info.alpha - 1e-12


class TestHardInstanceBounds:
    def test_spot_values(self):
        upper, lower = hard_instance_bounds(10, 1.0, 5)
        assert upper == pytest.approx(11.0 / 3.0, rel=1e-12)
        assert lower == pytest.approx(11.0 / 6.0, rel=1e-12)

    def test_d4(self):
        upper, lower = hard_instance_bounds(4, 1.0, 2)
        assert upper == pytest.approx(5 * (3 + np.sqrt(3)) / 6, rel=1e-12)
        assert lower == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_k1_lower_closed_form(self):
        for d in (2, 7, 30):
            for delta in (0.5, 1.0, 2.0):
                _, lower = hard_instance_bounds(d, delta, 1)
                assert lower == pytest.approx(
                    delta**2 * (d + delta**2) / (1 + delta**2), rel=1e-12
                )

    def test_matches_spectrum_route(self):
        for d in (4, 10, 50):
            for delta in (0.5, 1.0, 2.0):
                info = hard_spectrum(d, delta)
                for k in range(1, d):
                    upper, lower = hard_instance_bounds(d, delta, k)
                    assert upper == pytest.approx(residual_bound(info, k).bound, rel=1e-10)
                    assert lower <= upper + 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError, match="^hard instance needs d >= 2$"):
            hard_instance_bounds(1, 1.0, 1)
        with pytest.raises(ValueError):
            hard_instance_bounds(4, 1.0, 4)
        with pytest.raises(ValueError):
            hard_instance_bounds(4, -1.0, 2)


class TestBarrierBound:
    def test_recovers_residual_bound(self):
        # the substituted-polynomial route must reproduce the main bound: the
        # Gram spectrum mapped into [0, 1] has roots b with mean g, and after k
        # derivatives the largest root is at most
        # (sqrt(g k/t) + sqrt((1 - g)(1 - k/t)))^2
        rng = np.random.default_rng(2)
        for _ in range(40):
            t = int(rng.integers(2, 10))
            eigs = np.sort(rng.uniform(0.2, 6.0, size=t))[::-1]
            if eigs[0] - eigs[-1] < 1e-9:
                continue
            info = spectrum_info(eigs)
            lam1, lamt = eigs[0], eigs[-1]
            b = (1 / lamt - 1 / eigs) / (1 / lamt - 1 / lam1)
            for k in range(1, t):
                if not info.beta * t <= k < t:
                    continue
                g, ratio = np.mean(b), k / t
                cap = (np.sqrt(g * ratio) + np.sqrt((1 - g) * (1 - ratio))) ** 2
                via = 1.0 / (1 / lamt - (1 / lamt - 1 / lam1) * cap)
                assert via == pytest.approx(residual_bound(info, k).bound, rel=1e-10)
