import numpy as np
import pytest

from cssp.instances import hard_instance, power_law, random_gaussian
from cssp.linalg import gram, gram_spectrum, sym_eigenvalues


class TestHardInstance:
    def test_columns(self):
        a = hard_instance(2, 1.0)
        assert np.array_equal(a, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_gram_closed_form(self):
        a = hard_instance(3, 2.0)
        assert np.array_equal(gram(a), 4.0 * np.eye(3) + np.ones((3, 3)))

    def test_spectrum(self):
        eigs = sym_eigenvalues(gram(hard_instance(10, 1.0)))
        assert eigs[0] == pytest.approx(11.0, abs=1e-10)
        assert np.allclose(eigs[1:], 1.0, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            hard_instance(1, 1.0)
        with pytest.raises(ValueError):
            hard_instance(4, 0.0)


class TestPowerLaw:
    def test_rank_one(self):
        a = power_law(5, 4, 1, 2.0, 3.0, 0)
        assert gram_spectrum(a)[0][0] == pytest.approx(3.0, rel=1e-10)
        assert np.linalg.matrix_rank(a) == 1

    def test_flat_spectrum(self):
        a = power_law(4, 4, 4, 0.0, 1.0, 3)
        assert np.allclose(sym_eigenvalues(gram(a)), 1.0, atol=1e-10)

    def test_spectrum_round_trip(self):
        a = power_law(16, 16, 16, 2.0, 1.0, 7)
        eigs = sym_eigenvalues(gram(a))
        target = 1.0 / np.arange(1.0, 17.0) ** 2
        assert np.max(np.abs(eigs - target) / target) <= 1e-8

    def test_rectangular_shapes(self):
        a = power_law(9, 5, 4, 1.0, 2.0, 11)
        assert a.shape == (9, 5)
        eigs = sym_eigenvalues(gram(a))[:4]
        assert np.allclose(eigs, 2.0 / np.arange(1.0, 5.0), rtol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law(3, 3, 4, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match="^c must be positive$"):
            power_law(3, 3, 2, 1.0, 0.0, 0)


class TestDeterminism:
    def test_power_law_bit_identical(self):
        a = power_law(8, 6, 5, 1.5, 2.0, 123)
        b = power_law(8, 6, 5, 1.5, 2.0, 123)
        assert np.array_equal(a, b)

    def test_random_gaussian_validation(self):
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            random_gaussian(0, 3, 1)

    def test_random_gaussian_bit_identical(self):
        assert np.array_equal(random_gaussian(7, 5, 9), random_gaussian(7, 5, 9))

    def test_seeds_differ(self):
        assert not np.array_equal(random_gaussian(7, 5, 9), random_gaussian(7, 5, 10))
