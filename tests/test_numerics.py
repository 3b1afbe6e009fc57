"""Tests for the numeric primitives: log-sum-exp, Gauss-Hermite, SPD matrices."""

import numpy as np
import pytest

from sfsampler import SpdMatrix, gauss_hermite, gauss_hermite_normal, log_sum_exp
from sfsampler.errors import ConfigError
from sfsampler.numerics import softmax


class TestLogSumExp:
    def test_symmetric_pair(self):
        assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(np.log(2.0))

    def test_shift_invariance(self):
        assert log_sum_exp(np.array([-1000.0, -1000.0])) == pytest.approx(
            -1000.0 + np.log(2.0)
        )

    def test_absorbing_zero_mass(self):
        assert log_sum_exp(np.array([0.0, -np.inf])) == pytest.approx(0.0)

    def test_all_minus_inf(self):
        assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_axis_handling(self):
        w = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = log_sum_exp(w, axis=1)
        assert out == pytest.approx([np.log(2.0), 1.0 + np.log(2.0)])

    def test_matches_naive_in_safe_range(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((7, 5))
        naive = np.log(np.sum(np.exp(w), axis=-1))
        assert log_sum_exp(w, axis=-1) == pytest.approx(naive, abs=1e-14)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 6)) * 50
        p = softmax(w, axis=-1)
        assert np.sum(p, axis=-1) == pytest.approx(np.ones(4))

    def test_extreme_logits_no_overflow(self):
        p = softmax(np.array([1e4, 0.0]))
        assert p == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize("axis", [0, -1])
    def test_bytes_equal_the_reference_formula(self, axis):
        # exp(w - m) / sum, m the max with non-finite maxima set to 0: all-(-inf) slices
        # give NaN, a +inf logit NaN for its slice, -inf entries weight 0
        w = np.random.default_rng(2).standard_normal((6, 5)) * 40
        w[1] = -np.inf
        w[3, 2] = np.inf
        w[4, 0] = w[0, 4] = -np.inf
        m = np.max(w, axis=axis, keepdims=True)
        m[~np.isfinite(m)] = 0.0
        with np.errstate(invalid="ignore"):
            e = np.exp(w - m)
            expect = e / np.sum(e, axis=axis, keepdims=True)
            got = softmax(w, axis=axis)
        assert got.tobytes() == expect.tobytes()


class TestGaussHermite:
    def test_single_node_constant(self):
        z, p = gauss_hermite_normal(1)
        assert z == pytest.approx([0.0])
        assert np.sum(p) == pytest.approx(1.0)

    def test_second_moment_exact(self):
        for n in (2, 3, 8, 64):
            z, p = gauss_hermite_normal(n)
            assert np.sum(p * z * z) == pytest.approx(1.0, abs=1e-14)

    def test_mgf_identity(self):
        # E[exp(c xi)] = exp(c^2 / 2) for xi ~ N(0, 1)
        z, p = gauss_hermite_normal(20)
        assert np.sum(p * np.exp(0.3 * z)) == pytest.approx(np.exp(0.045), rel=1e-13)

    def test_polynomial_exactness(self):
        # the n-node rule integrates monomials up to degree 2n - 1 exactly;
        # Gaussian moments E[xi^{2k}] = (2k - 1)!!
        z, p = gauss_hermite_normal(6)
        double_fact = {0: 1.0, 2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0, 10: 945.0}
        for deg, expect in double_fact.items():
            assert np.sum(p * z**deg) == pytest.approx(expect, rel=1e-12)
        for deg in (1, 3, 5, 7, 9, 11):
            assert np.sum(p * z**deg) == pytest.approx(0.0, abs=1e-10)

    def test_node_count_validation(self):
        with pytest.raises(ConfigError):
            gauss_hermite(0)
        with pytest.raises(ConfigError):
            gauss_hermite(129)


class TestSpdMatrix:
    def test_accepts_spd(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = SpdMatrix.from_matrix(a)
        assert m.dim == 2
        assert np.allclose(m.chol @ m.chol.T, a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            SpdMatrix.from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ConfigError):
            SpdMatrix.from_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_near_singular(self):
        with pytest.raises(ConfigError):
            SpdMatrix.from_matrix(np.diag([1.0, 1e-15]))

    def test_eigen_reconstructs_matrix(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 3))
        a = b @ b.T + 3.0 * np.eye(3)
        lam, q = SpdMatrix.from_matrix(a).eigen()
        assert np.max(np.abs(q @ np.diag(lam) @ q.T - a)) < 1e-12
        assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-12

    def test_eigen_logdet(self):
        for a in (np.diag([2.0, 0.5, 4.0]), np.array([[1.0, 0.6], [0.6, 2.0]])):
            lam, _ = SpdMatrix.from_matrix(a).eigen()
            sign, logdet = np.linalg.slogdet(a)
            assert sign == 1.0
            assert np.sum(np.log(lam)) == pytest.approx(logdet, rel=1e-12)

    def test_eigen_keeps_diagonal_unrotated(self):
        # eigh would sort these; the diagonal path keeps the order and Q = I
        lam, q = SpdMatrix.from_matrix(np.diag([2.0, 0.5, 4.0])).eigen()
        assert np.array_equal(lam, [2.0, 0.5, 4.0])
        assert q is None

    def test_sample_covariance(self):
        a = np.array([[1.0, 0.6], [0.6, 2.0]])
        m = SpdMatrix.from_matrix(a)
        gen = np.random.default_rng(3)
        draws = m.sample(np.array([1.0, -1.0]), gen, 200_000)
        assert draws.mean(axis=0) == pytest.approx([1.0, -1.0], abs=0.02)
        assert np.cov(draws, rowvar=False) == pytest.approx(a, abs=0.03)
