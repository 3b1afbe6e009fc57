"""Tests for Wasserstein estimators, mode/moment reports, and convergence fits."""

import itertools

import numpy as np
import pytest

from sfsampler import (
    RngStream,
    SfsConfig,
    fit_loglog_slope,
    gaussian_w2_analytic,
    make_gaussian_mixture,
    mode_weights,
    moment_stats,
    sliced_w2,
    strong_error_curve,
    w2_1d,
    w2_exact_smalln,
)
from sfsampler import metrics
from sfsampler.errors import ConfigError


class TestW21d:
    def test_identical_sets(self):
        a = np.array([0.3, -1.0, 2.0])
        assert w2_1d(a, a) == 0.0

    def test_point_masses(self):
        assert w2_1d(np.array([0.0]), np.array([3.0])) == pytest.approx(3.0)

    def test_two_point_coupling(self):
        # monotone coupling pairs 0-1 and 1-3: sqrt((1 + 4) / 2)
        a, b = np.array([0.0, 1.0]), np.array([1.0, 3.0])
        assert w2_1d(a, b) == pytest.approx(np.sqrt(2.5))

    def test_matches_assignment_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(32)
            b = rng.standard_normal(32) + rng.uniform(-1, 1)
            assert abs(w2_1d(a, b) - w2_exact_smalln(a[:, None], b[:, None])) < 1e-10

    def test_unequal_sizes_resampled(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(500)
        b = rng.standard_normal(900) + 2.0
        v = w2_1d(a, b)
        assert 1.5 < v < 2.5

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            w2_1d(np.array([]), np.array([1.0]))


class TestW2ExactSmallN:
    def test_identical_sets(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((16, 3))
        assert w2_exact_smalln(a, a) == 0.0

    def test_d1_equals_quantile_coupling(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((64, 1))
        b = rng.standard_normal((64, 1)) * 1.5 + 0.3
        assert abs(w2_exact_smalln(a, b) - w2_1d(a, b)) < 1e-10

    def test_beats_greedy_pairing_matches_brute_force(self):
        # 2-point sets where pairing by the x-coordinate order is suboptimal
        a = np.array([[0.0, 0.0], [0.1, 5.0]])
        b = np.array([[0.05, 5.0], [0.2, 0.0]])
        best = min(
            np.sqrt(np.mean([np.sum((a[i] - b[p[i]]) ** 2) for i in range(2)]))
            for p in itertools.permutations(range(2))
        )
        assert w2_exact_smalln(a, b) == pytest.approx(best, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            w2_exact_smalln(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_size_cap(self):
        big = np.zeros((4097, 1))
        with pytest.raises(ConfigError):
            w2_exact_smalln(big, big)


class TestSlicedW2:
    def test_identical_sets(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 4))
        assert sliced_w2(a, a) == 0.0

    def test_d1_reduces_to_quantile_coupling(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((128, 1))
        b = rng.standard_normal((128, 1)) + 1.0
        assert sliced_w2(a, b, n_projections=16) == pytest.approx(w2_1d(a, b), rel=1e-10)

    def test_monotone_in_mean_separation(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2000, 3))
        vals = []
        for shift in (0.0, 1.0, 2.0):
            b = rng.standard_normal((2000, 3))
            b[:, 0] += shift
            vals.append(sliced_w2(a, b, rng=np.random.default_rng(7)))
        assert vals[0] < vals[1] < vals[2]


class TestGaussianW2Analytic:
    def test_identical(self):
        c = np.array([[2.0, 0.3], [0.3, 1.0]])
        # the Bures trace difference cancels to roundoff; the square root
        # amplifies that floor to ~1e-8
        assert gaussian_w2_analytic(np.zeros(2), c, np.zeros(2), c) == pytest.approx(0.0, abs=1e-6)

    def test_mean_shift(self):
        m = np.array([2.0, 0.0])
        assert gaussian_w2_analytic(np.zeros(2), np.eye(2), m, np.eye(2)) == pytest.approx(2.0)

    def test_scalar_bures(self):
        s1, s2 = 0.7, 1.9
        v = gaussian_w2_analytic([0.0], [[s1**2]], [0.0], [[s2**2]])
        assert v == pytest.approx(abs(s1 - s2), rel=1e-12)


class TestModeWeights:
    def test_all_mass_at_first_center(self):
        samples = np.tile([1.0, 1.0], (50, 1))
        rep = mode_weights(samples, [[1.0, 1.0], [5.0, 5.0]], radius=0.5)
        assert rep.weights == pytest.approx([1.0, 0.0])
        assert rep.unassigned == 0.0

    def test_even_split(self):
        samples = np.concatenate([np.full((25, 1), -3.0), np.full((25, 1), 3.0)])
        rep = mode_weights(samples, [[-3.0], [3.0]], radius=1.0)
        assert rep.weights == pytest.approx([0.5, 0.5])

    def test_unassigned_mass(self):
        samples = np.array([[0.0], [10.0]])
        rep = mode_weights(samples, [[0.0], [4.0]], radius=1.0)
        assert rep.unassigned == pytest.approx(0.5)

    def test_radius_keeps_balls_disjoint(self):
        with pytest.raises(ConfigError):
            mode_weights(np.zeros((2, 1)), [[-1.0], [1.0]], radius=1.5)

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ConfigError):
            mode_weights(np.zeros((2, 1)), [[1.0], [1.0]], radius=0.1)


class TestMomentStats:
    def test_repeated_point(self):
        samples = np.tile([2.0, -1.0], (10, 1))
        mean, cov = moment_stats(samples)
        assert mean == pytest.approx([2.0, -1.0])
        assert cov == pytest.approx(np.zeros((2, 2)))

    def test_standard_normal_clt(self):
        n = 100_000
        samples = np.random.default_rng(8).standard_normal((n, 3))
        mean, cov = moment_stats(samples)
        assert np.all(np.abs(mean) < 5.0 / np.sqrt(n))
        assert cov == pytest.approx(np.eye(3), abs=0.02)


class TestFitLoglogSlope:
    def test_pure_order_one(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        slope, _, r2 = fit_loglog_slope(h, 3.0 * h)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_pure_order_half(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        slope, _, _ = fit_loglog_slope(h, 2.0 * np.sqrt(h))
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_noisy_order_one(self):
        h = 2.0 ** -np.arange(5, 10)
        noise = 1.0 + 0.01 * np.random.default_rng(9).standard_normal(5)
        slope, _, _ = fit_loglog_slope(h, 0.7 * h * noise)
        assert 0.95 <= slope <= 1.05

    def test_needs_three_points(self):
        with pytest.raises(ConfigError):
            fit_loglog_slope([0.1, 0.05], [1.0, 0.5])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            fit_loglog_slope([0.1, 0.05, 0.025], [1.0, 0.0, 0.2])


class TestStrongErrorCurve:
    def test_reference_step_gives_zero_exactly(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
        rep = strong_error_curve(
            target, cfg, [2.0**-4, 2.0**-5, 2.0**-6], ref_level=6, n_chains=16, root_seed=0
        )
        assert rep.rmse[-1] == 0.0  # h = h_ref: identical computation, bit-exact

    def test_gaussian_target_reported_exact(self):
        beta = 2.0
        target = make_gaussian_mixture([1.0], [1.5], [beta])
        cfg = SfsConfig(n_steps=1, beta=beta, drift="gmm_exact")
        rep = strong_error_curve(
            target, cfg, [2.0**-3, 2.0**-4, 2.0**-5], ref_level=8, n_chains=32, root_seed=1
        )
        assert rep.exact
        assert rep.slope is None
        assert np.all(rep.rmse <= 1e-12)

    def test_non_dyadic_step_rejected(self):
        target = make_gaussian_mixture([1.0], [0.0], [1.0])
        cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
        with pytest.raises(ConfigError):
            strong_error_curve(target, cfg, [0.1, 0.05, 0.025], 8, 4, 0)

    def test_coarser_than_reference_enforced(self):
        target = make_gaussian_mixture([1.0], [0.0], [1.0])
        cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
        with pytest.raises(ConfigError):
            strong_error_curve(target, cfg, [2.0**-9], ref_level=8, n_chains=4, root_seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n_chains", 0), ("n_chains", -3), ("h_list", []), ("ref_level", -1),
         ("ref_level", 21)],
    )
    def test_inputs_checked_before_sampling(self, monkeypatch, field, value):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the inputs")

        monkeypatch.setattr(metrics, "open_chains", no_sampling)
        target = make_gaussian_mixture([1.0], [0.0], [1.0])
        cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
        args = {"h_list": [2.0**-3, 2.0**-4, 2.0**-5], "ref_level": 6, "n_chains": 4,
                "root_seed": 0, field: value}
        with pytest.raises(ConfigError, match=field):
            strong_error_curve(target, cfg, **args)

    def test_worker_count_never_changes_the_curve(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
        a, b = (
            strong_error_curve(target, cfg, [2.0**-2, 2.0**-3, 2.0**-4], 6, 1030, 5, threads=t)
            for t in (1, 2)
        )
        assert a.rmse.tobytes() == b.rmse.tobytes()
        assert a.slope == b.slope

    def test_report_serializes(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
        rep = strong_error_curve(
            target, cfg, [2.0**-3, 2.0**-4, 2.0**-5], ref_level=7, n_chains=8, root_seed=2
        )
        doc = rep.to_dict()
        assert doc["n_chains"] == 8
        assert len(doc["h"]) == 3
        assert "reference" in doc
