"""Tests for the integrators and the deterministic ensemble runner."""

import tracemalloc

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
    make_two_mode_gmm,
    run_ensemble,
    strong_error_curve,
    sfs_run,
    ula_run,
    uld_euler_run,
)
from sfsampler import metrics, samplers
from sfsampler.errors import ConfigError, DivergenceError, ZeroMassError
from sfsampler.samplers import open_chains


def standard_gaussian_target(d=1):
    if d == 1:
        return make_gaussian_mixture([1.0], [0.0], [1.0])
    return make_gaussian_mixture([1.0], [np.zeros(d)], [np.eye(d)])


def chain_noise(cfg, target, root_seed, chain_ids):
    """Each chain's whole Brownian path, drawn through the per-chain draw protocol."""
    streams = open_chains(cfg, target.dim, root_seed, chain_ids)
    noise = np.empty((len(streams.gens), cfg.n_steps, target.dim))
    streams.fill(noise)
    return noise


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
        with pytest.raises(ConfigError):
            sfs_run(drift, SfsConfig(n_steps=8), np.zeros((4, 1)), start=6)

    def test_zero_mass_reports_step(self):
        def drift(x, t):
            if t >= 0.5:
                raise ZeroMassError("no mass", t=t, chains=[1])
            return np.zeros_like(x)

        with pytest.raises(ZeroMassError) as err:
            sfs_run(drift, SfsConfig(n_steps=8), np.zeros((3, 8, 1)))
        assert (err.value.step, err.value.t, err.value.chains) == (4, 0.5, [1])
        assert "step 4" in str(err.value)

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
        noise = chain_noise(cfg, target, 17, [0])
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
        noise = chain_noise(cfg, runaway, 0, range(8))
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

    def test_record_path_rejected(self):
        cfg = SfsConfig(n_steps=4, record_path=True)
        with pytest.raises(ConfigError, match="record_path"):
            run_ensemble(cfg, standard_gaussian_target(), n_chains=2, root_seed=0)

    def test_zero_mass_names_global_chain_ids(self):
        # support x > -1: at t = 0 every chain sits at 0 and evaluates y = xi, so a
        # chain loses all weight mass exactly when both its pool draws lie at or below -1
        half_line = make_custom(lambda x: np.where(x[..., 0] > -1.0, 0.0, np.inf), dim=1)
        cfg = SfsConfig(n_steps=4, drift="stein_mc", n_mc=2)
        n = 600
        xi = open_chains(cfg, 1, 5, range(n)).pool.xi[..., 0]
        dead = np.flatnonzero(np.all(xi <= -1.0, axis=-1)).tolist()
        assert any(c < 512 for c in dead) and any(c >= 512 for c in dead)
        with pytest.raises(ZeroMassError) as err:
            run_ensemble(cfg, half_line, n_chains=n, root_seed=5)
        assert (err.value.step, err.value.t) == (0, 0.0)
        assert err.value.chains == dead


def chunk_steps(monkeypatch, n_chains, dim, steps):
    """Make run_ensemble draw and integrate `steps`-step chunks."""
    monkeypatch.setattr(samplers, "NOISE_CHUNK_BYTES", n_chains * dim * 8 * steps)


def record_increments(monkeypatch, module, name):
    """Copies of the increments each call of module.name receives (the buffer is reused)."""
    seen, original = [], getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(np.array(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


class TestChunkedIncrements:
    CASES = {
        "gmm_exact": (SfsConfig(n_steps=20, beta=1.5, drift="gmm_exact"), "sfs_run"),
        "grad_mc": (SfsConfig(n_steps=20, beta=2.0, drift="grad_mc", n_mc=6), "sfs_run"),
        "uld_momentum": (
            LangevinConfig(step=0.1, horizon=2.0, method="uld", draw_momentum=True),
            "uld_euler_run",
        ),
        "baoab_momentum": (
            LangevinConfig(step=0.1, horizon=2.0, method="baoab", draw_momentum=True),
            "baoab_run",
        ),
    }

    @pytest.mark.parametrize("steps", [1, 7])
    @pytest.mark.parametrize("case", list(CASES))
    def test_chunk_length_never_changes_samples(self, monkeypatch, case, steps):
        cfg, integrator = self.CASES[case]
        target = make_two_mode_gmm(3, separation=4.0, variance=0.5)
        whole = run_ensemble(cfg, target, n_chains=5, root_seed=12).samples
        chunk_steps(monkeypatch, 5, target.dim, steps)
        seen = record_increments(monkeypatch, samplers, integrator)
        chunked = run_ensemble(cfg, target, n_chains=5, root_seed=12).samples
        assert [c.shape[1] for c in seen] == [min(steps, 20 - s) for s in range(0, 20, steps)]
        assert np.array_equal(chunked, whole)

    def test_divergence_past_a_chunk_boundary_reports_the_global_step(self, monkeypatch):
        runaway = make_custom(
            lambda x: -np.sum(x**4, axis=-1), dim=1, grad=lambda x: -4.0 * x**3
        )
        cfg = LangevinConfig(step=0.5, horizon=5.0, method="ula", x0=np.array([3.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as whole:
                run_ensemble(cfg, runaway, n_chains=8, root_seed=0)
            chunk_steps(monkeypatch, 8, 1, 2)
            with pytest.raises(DivergenceError) as chunked:
                run_ensemble(cfg, runaway, n_chains=8, root_seed=0)
        assert whole.value.step >= 2
        assert (chunked.value.step, chunked.value.t) == (whole.value.step, whole.value.t)
        assert chunked.value.chains == whole.value.chains

    def test_noise_memory_is_one_chunk(self):
        # the whole path of 64 chains, 1000 steps, d = 100 would take 51 MB
        d = 100
        target = make_gaussian_mixture(
            [1.0], [np.linspace(-2.0, 2.0, d)], [np.geomspace(0.25, 4.0, d)]
        )
        cfg = SfsConfig(n_steps=1000, drift="gmm_exact")
        tracemalloc.start()
        try:
            run_ensemble(cfg, target, n_chains=64, root_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_sample_and_convergence_reference_share_one_path(self, monkeypatch):
        # run_ensemble at h = 2^-5 in 3-step chunks, and the 2^-5 reference of the
        # convergence curve, each drawn after the same per-chain pool
        target = make_two_mode_gmm(2, separation=3.0, variance=0.5)
        level, n = 5, 3
        cfg = SfsConfig(n_steps=2**level, drift="stein_mc", n_mc=8)
        chunk_steps(monkeypatch, n, target.dim, 3)
        streamed = record_increments(monkeypatch, samplers, "sfs_run")
        run_ensemble(cfg, target, n_chains=n, root_seed=21)
        reference = record_increments(monkeypatch, metrics, "sfs_run")
        strong_error_curve(target, cfg, [2.0**-2, 2.0**-3, 2.0**-4], level, n, 21)
        assert len(streamed) == 11
        assert reference[0].shape == (n, 2**level, target.dim)
        assert np.array_equal(np.concatenate(streamed, axis=1), reference[0])
