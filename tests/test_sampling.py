"""Tests for the observation model and precision-factor construction."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lapdiff.errors import InvalidInputError, NotPsdError, SingularMatrixError
from lapdiff.estimator import plugin_delta
from lapdiff.linalg import as_symmetric, inv_sqrt_pd, sqrt_psd
from lapdiff.network import random_base_matrix
from lapdiff.sampling import (
    precision_factor,
    precision_factor_from_covariance,
    sample_covariance,
    sample_potentials,
)


class TestSamplePotentials:
    def test_shape_and_determinism(self):
        b = random_base_matrix(5, 0.5, seed=1)
        sigma = np.eye(5)
        y1 = sample_potentials(b, sigma, 40, seed=7)
        y2 = sample_potentials(b, sigma, 40, seed=7)
        assert y1.shape == (40, 5)
        assert np.array_equal(y1, y2)
        y3 = sample_potentials(b, sigma, 40, seed=8)
        assert not np.array_equal(y1, y3)

    def test_population_covariance(self):
        # empirical covariance of y must approach b^{-1} sigma b^{-1}
        rng = np.random.default_rng(2)
        b = random_base_matrix(4, 1.0, margin=1.0, seed=3)
        diag = rng.uniform(0.5, 2.0, size=4)
        sigma = np.diag(diag)
        n = 50000
        y = sample_potentials(b, sigma, n, seed=11)
        b_inv = np.linalg.inv(b)
        target = b_inv @ sigma @ b_inv
        emp = y.T @ y / n
        assert np.max(np.abs(emp - target)) <= 0.05

    def test_identity_system_identity_sigma(self):
        y = sample_potentials(np.eye(4), np.eye(4), 50000, seed=5)
        emp = y.T @ y / y.shape[0]
        assert np.max(np.abs(emp - np.eye(4))) <= 0.05

    def test_singular_b_rejected(self):
        with pytest.raises(SingularMatrixError):
            sample_potentials(np.diag([1.0, 0.0]), np.eye(2), 10)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sample_potentials(np.eye(3), np.eye(2), 10)
        with pytest.raises(InvalidInputError):
            sample_potentials(np.eye(3), np.eye(3), 0)


class TestSampleCovariance:
    def test_uncentered_psd_even_when_n_below_p(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((3, 10))
        cov = sample_covariance(y)
        assert cov.shape == (10, 10)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-12
        assert_allclose(cov, y.T @ y / 3, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sample_covariance(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            sample_covariance(np.array([[np.inf, 0.0]]))


class TestPrecisionFactor:
    def test_population_limit_recovers_inverse_system_matrix(self):
        # with many samples the factor approaches b^{-1} entrywise
        b = random_base_matrix(4, 1.0, margin=1.5, seed=6)
        sigma = np.diag([1.0, 2.0, 0.5, 1.5])
        y = sample_potentials(b, sigma, 200000, seed=13)
        est = precision_factor(y, sigma)
        assert np.max(np.abs(est - np.linalg.inv(b))) <= 0.05

    def test_defined_for_n_below_p(self):
        b = random_base_matrix(8, 0.5, seed=7)
        y = sample_potentials(b, np.eye(8), 3, seed=17)
        est = precision_factor(y, np.eye(8))
        assert est.shape == (8, 8)
        assert np.all(np.isfinite(est))
        assert_allclose(est, est.T, rtol=0, atol=0)

    def test_exact_on_synthetic_whitened_square(self):
        # hand-built samples whose uncentered covariance is an exact square:
        # rows sqrt(n) * e_i scaled so Y.T Y / n = diag(v); sigma = identity
        v = np.array([4.0, 9.0, 1.0])
        y = np.diag(np.sqrt(v)) * np.sqrt(3)
        est = precision_factor(y, np.eye(3))
        assert_allclose(est, np.diag(np.sqrt(v)), rtol=1e-12)

    def test_sigma_must_be_pd(self):
        y = np.zeros((5, 3))
        with pytest.raises(SingularMatrixError):
            precision_factor(y, np.diag([1.0, 1.0, 0.0]))

    def test_from_covariance_matches_sample_route(self):
        b = random_base_matrix(5, 0.8, seed=9)
        sigma = np.diag([1.0, 0.5, 2.0, 1.0, 1.5])
        y = sample_potentials(b, sigma, 40, seed=23)
        direct = precision_factor(y, sigma)
        via_cov = precision_factor_from_covariance(sample_covariance(y), sigma, n_used=40)
        assert_allclose(via_cov, direct, rtol=0, atol=1e-12)

    def test_factors_at_or_above_p_keep_the_full_root_bit_for_bit(self):
        # n >= p and population input keep every eigenvalue: the factor is
        # m^{-1} sqrt_psd(m cov m) m^{-1} exactly as before the rank cap
        # existed
        p = 6
        b = random_base_matrix(p, 0.8, seed=9)
        sigma = np.diag([1.0, 0.5, 2.0, 1.0, 1.5, 0.8])
        root, m_inv = sqrt_psd(sigma), inv_sqrt_pd(sigma)

        def full_root_factor(whitened_cov):
            factor = m_inv @ sqrt_psd(whitened_cov) @ m_inv
            return (factor + factor.T) / 2.0

        for n in (p, 40):
            y = sample_potentials(b, sigma, n, seed=23)
            cov = sample_covariance(y)
            expected = full_root_factor(as_symmetric(root @ cov @ root))
            assert np.array_equal(precision_factor(y, sigma), expected)
            for n_used in (0, n):
                via_cov = precision_factor_from_covariance(cov, sigma, n_used=n_used)
                assert np.array_equal(via_cov, expected)

    def test_identity_whitener_at_or_above_p_is_the_plain_root_bit_for_bit(self):
        # with sigma_x = I the whitening products are exact, so the factor is
        # the PSD root of the sample covariance itself
        for p in (16, 117):
            b = random_base_matrix(p, 0.3, seed=p)
            for n in (p, 2 * p + 1, 4000):
                y = sample_potentials(b, np.eye(p), n, seed=n)
                expected = sqrt_psd(sample_covariance(y))
                assert np.array_equal(precision_factor(y, np.eye(p)), expected), (p, n)

    def test_routes_agree_below_p(self):
        # precision_factor is the covariance route with n_used = n, and at
        # n < p it keeps exactly the n genuine eigenvalues
        p = 36
        b = random_base_matrix(p, 0.3, seed=5)
        sigma = np.diag(np.linspace(0.5, 2.0, p))
        for n in (20, 30):
            for seed in range(3):
                y = sample_potentials(b, sigma, n, seed=seed)
                direct = precision_factor(y, sigma)
                via_cov = precision_factor_from_covariance(sample_covariance(y), sigma, n_used=n)
                gap = np.max(np.abs(via_cov - direct)) / np.max(np.abs(direct))
                assert gap <= 1e-12, (n, seed, gap)
                assert np.linalg.matrix_rank(direct, tol=1e-10 * np.max(np.abs(direct))) == n

    def test_large_samples_with_dense_sigma_give_the_scaled_factor(self):
        # the whitened covariance m @ cov @ m is asymmetric by rounding in
        # proportion to its entries; scaling the samples by c scales the
        # factor by c, at and below p
        p = 8
        a = np.random.default_rng(3).standard_normal((p, p))
        sigma = a @ a.T / p + np.eye(p)
        b = random_base_matrix(p, 0.5, seed=4)
        for n in (5, 40):
            y = sample_potentials(b, sigma, n, seed=5)
            base = precision_factor(y, sigma)
            for scale in (1e2, 1e4):
                scaled = precision_factor(scale * y, sigma)
                tol = 1e-9 * scale * np.max(np.abs(base))
                assert_allclose(scaled, scale * base, rtol=0, atol=tol)
                via_cov = precision_factor_from_covariance(
                    sample_covariance(scale * y), sigma, n_used=n
                )
                assert np.array_equal(via_cov, scaled)

    def test_overflowing_covariance_raises_without_a_warning(self):
        # finite samples whose uncentered covariance overflows are reported by
        # the library's error alone: numpy's overflow warning stays silent.
        # precision_factor scales such samples first (next test)
        y = np.full((4, 3), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
                sample_covariance(y)

    @pytest.mark.parametrize(
        "scale",
        [2.0**-600, 2.0**600, 1e-200, 1e200, 1e-160, 1e160],
        ids=["2^-600", "2^600", "1e-200", "1e200", "1e-160", "1e160"],
    )
    def test_samples_at_any_scale_give_the_scaled_factor(self, scale):
        # their covariance is subnormal or overflows, but the factor is
        # proportional to the samples: exactly so at a power of two. The
        # plug-in estimate is inversely proportional to them
        rng = np.random.default_rng(0)
        y1, y2 = rng.standard_normal((40, 6)), rng.standard_normal((40, 6))
        base, estimate = precision_factor(y1, np.eye(6)), plugin_delta(y1, y2, np.eye(6), np.eye(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = precision_factor(scale * y1, np.eye(6))
            inverse = plugin_delta(scale * y1, scale * y2, np.eye(6), np.eye(6))
        if scale in (2.0**-600, 2.0**600):
            assert np.array_equal(scaled, scale * base) and np.array_equal(inverse, estimate / scale)
        tol = 1e-12 * np.max(np.abs(base))
        assert_allclose(scaled / scale, base, rtol=0, atol=tol)
        assert_allclose(inverse * scale, estimate, rtol=0, atol=1e-12 * np.max(np.abs(estimate)))

    def test_indefinite_covariance_is_rejected_beside_a_small_sigma(self):
        # eigenvalues (1, -0.5): beside sigma = 1e-12 I the whitened
        # covariance has eigenvalues (1e-12, -5e-13), which an absolute clip
        # band of 1e-10 forgives; it is judged at sigma's unit scale instead
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        cov = q @ np.diag([1.0, -0.5]) @ q.T
        for sigma in (np.eye(2), 1e-12 * np.eye(2)):
            with pytest.raises(NotPsdError):
                precision_factor_from_covariance(cov, sigma)

    def test_from_covariance_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            precision_factor_from_covariance(np.eye(3), np.eye(4))
