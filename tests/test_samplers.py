"""Tests for the integrators and the deterministic ensemble runner."""

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from sfsampler import (
    LangevinConfig,
    RngStream,
    SfsConfig,
    baoab_run,
    brownian_ladder_make,
    make_custom,
    make_drift,
    make_gaussian_mixture,
    run_ensemble,
    sfs_run,
    ula_run,
    uld_euler_run,
)
from sfsampler.errors import ConfigError, DivergenceError
from sfsampler.samplers import _chain_gaussians


def standard_gaussian_target(d=1):
    if d == 1:
        return make_gaussian_mixture([1.0], [0.0], [1.0])
    return make_gaussian_mixture([1.0], [np.zeros(d)], [np.eye(d)])


def zero_grad_target(d=1):
    return make_custom(
        lambda x: np.zeros(x.shape[:-1]), dim=d, grad=lambda x: np.zeros_like(x)
    )


class TestSfsRun:
    def test_constant_drift_closed_form(self):
        # constant drift alpha telescopes: Y_1 = alpha + sqrt(beta) W_1, up to
        # floating-point accumulation order
        alpha, beta, d, n = np.array([1.5, -0.5]), 2.0, 2, 64
        target = make_gaussian_mixture([1.0], [alpha], [beta * np.eye(d)])
        drift = make_drift(target, beta, "gmm_exact")
        inc = brownian_ladder_make(d, 6, RngStream(1, 0)).increments
        out = sfs_run(drift, SfsConfig(n_steps=n, beta=beta, drift="gmm_exact"), inc)
        expected = alpha + np.sqrt(beta) * inc.sum(axis=0)
        assert out == pytest.approx(expected, abs=1e-12)

    def test_single_step_unrolled(self):
        target = make_gaussian_mixture([1.0], [1.5], [2.0])
        drift = make_drift(target, 2.0, "gmm_exact")
        inc = np.array([[0.37]])
        out = sfs_run(drift, SfsConfig(n_steps=1, beta=2.0), inc)
        expected = 1.0 * drift(np.zeros((1, 1)), 0.0)[0] + np.sqrt(2.0) * inc[0]
        assert np.array_equal(out, expected)

    def test_batched_matches_single(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        drift = make_drift(target, 1.0, "gmm_exact")
        cfg = SfsConfig(n_steps=32, beta=1.0)
        incs = np.stack(
            [brownian_ladder_make(1, 5, RngStream(2, i)).increments for i in range(3)]
        )
        batched = sfs_run(drift, cfg, incs)
        singles = np.stack([sfs_run(drift, cfg, incs[i]) for i in range(3)])
        assert np.array_equal(batched, singles)

    def test_record_path_shape(self):
        target = standard_gaussian_target()
        drift = make_drift(target, 1.0, "gmm_exact")
        inc = brownian_ladder_make(1, 4, RngStream(3, 0)).increments
        out, path = sfs_run(drift, SfsConfig(n_steps=16, record_path=True), inc)
        assert path.shape == (17, 1)
        assert np.array_equal(path[-1], out)

    def test_step_count_mismatch(self):
        drift = make_drift(standard_gaussian_target(), 1.0, "gmm_exact")
        with pytest.raises(ConfigError):
            sfs_run(drift, SfsConfig(n_steps=8), np.zeros((4, 1)))

    def test_divergence_reports_step_and_chains(self):
        def bad_drift(x, t):
            return np.full_like(x, np.inf)

        with pytest.raises(DivergenceError) as err:
            sfs_run(bad_drift, SfsConfig(n_steps=4), np.zeros((2, 4, 1)))
        assert err.value.step == 0
        assert err.value.chains == [0, 1]


class TestUlaRun:
    def test_zero_gradient_random_walk(self):
        target = zero_grad_target(2)
        cfg = LangevinConfig(step=0.25, horizon=4.0, method="ula")
        inc = np.random.default_rng(4).standard_normal((16, 2)) * np.sqrt(0.25)
        out = ula_run(target, cfg, inc)
        assert out == pytest.approx(np.sqrt(2.0) * inc.sum(axis=0), abs=1e-12)

    def test_quadratic_stationary_variance(self):
        # AR(1): x' = (1 - h) x + sqrt(2) dW, stationary variance 1 / (1 - h/2)
        target = standard_gaussian_target()
        h, n = 0.1, 100_000
        cfg = LangevinConfig(step=h, horizon=h * n, method="ula", record_path=True)
        inc = RngStream(5, 0).generator().standard_normal((n, 1)) * np.sqrt(h)
        _, path = ula_run(target, cfg, inc)
        x = path[1000:, 0]
        expect = 1.0 / (1.0 - h / 2.0)
        # 3 standard errors for an AR(1) variance estimate with phi = 1 - h
        phi = 1.0 - h
        se = expect * np.sqrt(2.0 * (1.0 + phi**2) / ((1.0 - phi**2) * x.size))
        assert np.var(x) == pytest.approx(expect, abs=3.0 * se)

    def test_initial_state(self):
        target = zero_grad_target(1)
        cfg = LangevinConfig(step=0.5, horizon=0.5, method="ula", x0=np.array([3.0]))
        out = ula_run(target, cfg, np.zeros((1, 1)))
        assert out == pytest.approx([3.0])


class TestUldEulerRun:
    def test_momentum_mean_reverts(self):
        target = zero_grad_target(1)
        gamma, h, n = 50.0, 0.01, 2000
        cfg = LangevinConfig(step=h, horizon=h * n, method="uld", gamma=gamma)
        inc = RngStream(6, 0).generator().standard_normal((256, n, 1)) * np.sqrt(h)
        _, m = uld_euler_run(target, cfg, inc)
        # stationary momentum variance of the discrete recursion is
        # 2 gamma h / (1 - (1 - h gamma)^2)
        var = 2.0 * gamma * h / (1.0 - (1.0 - h * gamma) ** 2)
        assert np.mean(np.abs(m)) < 4.0 * np.sqrt(var)

    def test_quadratic_moments_match_affine_recursion(self):
        # V = x^2 / 2, gamma = 1: iterate the exact 2x2 covariance recursion
        target = standard_gaussian_target()
        h, n, chains = 0.05, 40, 50_000
        cfg = LangevinConfig(step=h, horizon=h * n, method="uld", gamma=1.0)
        inc = RngStream(7, 0).generator().standard_normal((chains, n, 1)) * np.sqrt(h)
        x, m = uld_euler_run(target, cfg, inc)

        A = np.array([[1.0, h], [-h, 1.0 - h]])
        Q = np.diag([0.0, 2.0 * h])
        S = np.zeros((2, 2))
        for _ in range(n):
            S = A @ S @ A.T + Q
        emp = np.cov(np.stack([x[:, 0], m[:, 0]]), ddof=1)
        for i in range(2):
            se = S[i, i] * np.sqrt(2.0 / chains)
            assert emp[i, i] == pytest.approx(S[i, i], abs=3.0 * se)
        se_cross = np.sqrt(S[0, 0] * S[1, 1] / chains)
        assert emp[0, 1] == pytest.approx(S[0, 1], abs=3.0 * se_cross)
        assert np.mean(x) == pytest.approx(0.0, abs=3.0 * np.sqrt(S[0, 0] / chains))

    def test_default_gamma_is_one(self):
        cfg = LangevinConfig(step=0.1, horizon=1.0, method="uld")
        assert cfg.gamma == 1.0


class TestBaoabRun:
    def test_zero_gradient_momentum_is_stationary_ou(self):
        # with no force, momentum is the exact OU recursion with stationary variance 1
        target = zero_grad_target(1)
        h, n, chains = 0.2, 200, 20_000
        cfg = LangevinConfig(step=h, horizon=h * n, method="baoab", gamma=1.0)
        xi = RngStream(8, 0).generator().standard_normal((chains, n, 1))
        x, m = baoab_run(target, cfg, xi)
        assert np.all(np.isfinite(x))
        se = np.sqrt(2.0 / chains)
        assert np.var(m) == pytest.approx(1.0, abs=3.0 * se)

    def test_quadratic_stationary_covariance_fixed_point(self):
        # V = x^2 / 2: the one-step BAOAB map is linear; its stationary
        # covariance solves the discrete Lyapunov equation S = A S A^T + b b^T
        target = standard_gaussian_target()
        h, gamma, n, chains = 0.2, 1.0, 400, 50_000
        cfg = LangevinConfig(step=h, horizon=h * n, method="baoab", gamma=gamma)

        def one_step(x, m, xi):
            c1, c2 = np.exp(-gamma * h), np.sqrt(1.0 - np.exp(-2.0 * gamma * h))
            m = m - 0.5 * h * x
            x = x + 0.5 * h * m
            m = c1 * m + c2 * xi
            x = x + 0.5 * h * m
            m = m - 0.5 * h * x
            return x, m

        A = np.column_stack([one_step(*e, 0.0) for e in ((1.0, 0.0), (0.0, 1.0))])
        b = np.array(one_step(0.0, 0.0, 1.0))
        S = solve_discrete_lyapunov(A, np.outer(b, b))

        xi = RngStream(9, 0).generator().standard_normal((chains, n, 1))
        x, m = baoab_run(target, cfg, xi)
        emp_var = np.var(x[:, 0], ddof=1)
        se = S[0, 0] * np.sqrt(2.0 / chains)
        assert emp_var == pytest.approx(S[0, 0], abs=3.0 * se)
        # configurational marginal is close to the target variance 1 at small h
        assert S[0, 0] == pytest.approx(1.0, rel=0.02)

    def test_full_refresh_limit(self):
        # gamma h -> infinity: the OU step discards the old momentum entirely
        target = zero_grad_target(1)
        h, gamma = 0.1, 1000.0
        cfg = LangevinConfig(
            step=h, horizon=h, method="baoab", gamma=gamma, m0=np.array([5.0])
        )
        xi = np.array([[0.7]])
        _, m = baoab_run(target, cfg, xi)
        c2 = np.sqrt(1.0 - np.exp(-2.0 * gamma * h))
        assert m == pytest.approx([c2 * 0.7], abs=1e-12)


class TestLangevinConfig:
    def test_horizon_must_divide(self):
        with pytest.raises(ConfigError):
            LangevinConfig(step=0.3, horizon=1.0, method="ula")

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            LangevinConfig(step=0.1, horizon=1.0, method="mala")

    def test_positive_gamma(self):
        with pytest.raises(ConfigError):
            LangevinConfig(step=0.1, horizon=1.0, method="uld", gamma=0.0)


class TestRunEnsemble:
    def test_single_chain_equals_direct_run(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        cfg = SfsConfig(n_steps=32, beta=1.0, drift="gmm_exact")
        batch = run_ensemble(cfg, target, n_chains=1, root_seed=17)
        noise = _chain_gaussians(cfg, target, 17, [0])["noise"]
        drift = make_drift(target, 1.0, "gmm_exact")
        direct = sfs_run(drift, cfg, noise)
        assert np.array_equal(batch.samples, direct)

    def test_worker_count_never_changes_results(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        cfg = SfsConfig(n_steps=16, beta=1.0, drift="gmm_exact")
        a = run_ensemble(cfg, target, n_chains=1030, root_seed=5, threads=1)
        b = run_ensemble(cfg, target, n_chains=1030, root_seed=5, threads=8)
        assert np.array_equal(a.samples, b.samples)

    def test_chain_count_extension_is_prefix_stable(self):
        # chain i depends only on (root_seed, i): growing the ensemble keeps a prefix
        target = standard_gaussian_target()
        cfg = SfsConfig(n_steps=8, beta=1.0, drift="gmm_exact")
        small = run_ensemble(cfg, target, n_chains=10, root_seed=3)
        large = run_ensemble(cfg, target, n_chains=20, root_seed=3)
        assert np.array_equal(large.samples[:10], small.samples)

    def test_langevin_ensemble_runs(self):
        target = standard_gaussian_target()
        cfg = LangevinConfig(step=0.1, horizon=1.0, method="baoab")
        batch = run_ensemble(cfg, target, n_chains=8, root_seed=1)
        assert batch.samples.shape == (8, 1)
        assert batch.meta["method"] == "baoab"

    def test_divergence_aggregates_global_chain_ids(self):
        steep = make_custom(
            lambda x: 1e6 * np.sum(x**4, axis=-1),
            dim=1,
            grad=lambda x: 4e6 * x**3,
        )
        cfg = LangevinConfig(step=1.0, horizon=30.0, method="ula")
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            run_ensemble(cfg, steep, n_chains=600, root_seed=0)
        assert err.value.chains
        assert all(0 <= c < 600 for c in err.value.chains)

    def test_divergence_reports_first_step(self):
        # V(x) = -x^4 drives ULA from x0 = 3 to overflow within a few steps
        runaway = make_custom(
            lambda x: -np.sum(x**4, axis=-1), dim=1, grad=lambda x: -4.0 * x**3
        )
        cfg = LangevinConfig(step=0.5, horizon=5.0, method="ula", x0=np.array([3.0]))
        noise = _chain_gaussians(cfg, runaway, 0, range(8))["noise"]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_ensemble(cfg, runaway, n_chains=8, root_seed=0)
            with pytest.raises(DivergenceError) as direct:
                ula_run(runaway, cfg, noise)
        assert err.value.step is not None
        assert err.value.step == direct.value.step
        assert f"step {direct.value.step}" in str(err.value)

    def test_meta_fields(self):
        target = standard_gaussian_target()
        cfg = SfsConfig(n_steps=8, beta=2.0, drift="gmm_exact")
        batch = run_ensemble(cfg, target, n_chains=4, root_seed=9)
        assert batch.meta["beta"] == 2.0
        assert batch.meta["n_chains"] == 4
        assert batch.meta["seed"] == 9
        assert batch.meta["wall_time_s"] > 0
