"""Tests for the integrators and the deterministic ensemble runner."""

import os
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from queue import SimpleQueue

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from sfsampler import (
    LangevinConfig,
    RngStream,
    SfsConfig,
    baoab_run,
    brownian_ladder_make,
    make_builtin,
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
from sfsampler.drift import make_noise_pool
from sfsampler.errors import ConfigError, DivergenceError, ZeroMassError
from sfsampler.samplers import increment_chunks, open_chains


def standard_gaussian_target(d=1):
    if d == 1:
        return make_gaussian_mixture([1.0], [0.0], [1.0])
    return make_gaussian_mixture([1.0], [np.zeros(d)], [np.eye(d)])


def chain_noise(cfg, target, root_seed, chain_ids):
    """Each chain's whole Brownian path, drawn through the per-chain draw protocol."""
    streams = open_chains(cfg, target.dim, root_seed, chain_ids)
    chunks = increment_chunks(streams, cfg.n_steps, target.dim)
    return np.concatenate([chunk.copy() for _, chunk in chunks], axis=1)


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


class TestCheckFinite:
    """One sum per state decides; a non-finite sum falls back to the entry-wise search."""

    def test_finite_states_whose_sum_overflows_pass(self):
        x = np.full((4, 3), 1e308)
        m = np.full((4, 3), -1e308)
        with np.errstate(over="ignore"):  # the sum's overflow is numpy's to report
            assert not np.isfinite(np.add.reduce(x, axis=None))
            samplers._check_finite(5, 0.5, x)
            samplers._check_finite(5, 0.5, m, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_chains_are_named(self, bad):
        x, m = np.zeros((6, 3)), np.full((6, 3), 1e308)
        x[1, 2] = x[4, 0] = bad
        m[3, 1] = -bad
        for states, chains in [((x,), [1, 4]), ((m, x), [1, 3, 4]), ((m,), [3])]:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
                samplers._check_finite(2, 0.25, *states)
            assert (err.value.step, err.value.t, err.value.chains) == (2, 0.25, chains)
            assert f"non-finite state at step 2 (t=0.25) in chains {chains}" == str(err.value)

    def test_opposite_infinities_are_named(self):
        x = np.zeros((3, 2))
        x[0, 0], x[2, 1] = np.inf, -np.inf
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
            samplers._check_finite(0, 0.1, x)
        assert err.value.chains == [0, 2]


class TestUlaRun:
    def test_zero_gradient_random_walk(self):
        target = zero_grad_target(2)
        cfg = LangevinConfig(step=0.25, horizon=4.0, method="ula")
        inc = np.random.default_rng(4).standard_normal((16, 2)) * np.sqrt(0.25)
        out = ula_run(target, cfg, inc)
        assert out == pytest.approx(np.sqrt(2.0) * inc.sum(axis=0), abs=1e-12)

    def test_quadratic_stationary_variance(self):
        # AR(1): x' = phi x + sqrt(2) dW from x = 0 with phi = 1 - h; after n steps the
        # variance is (1 - phi^(2n)) / (1 - h/2), stationary 1 / (1 - h/2) as n grows
        target = standard_gaussian_target()
        h, n, chains = 0.1, 200, 20_000
        cfg = LangevinConfig(step=h, horizon=h * n, method="ula")
        inc = RngStream(5, 0).generator().standard_normal((chains, n, 1)) * np.sqrt(h)
        x = ula_run(target, cfg, inc)[:, 0]
        phi = 1.0 - h
        expect = (1.0 - phi ** (2 * n)) / (1.0 - h / 2.0)
        # 3 standard errors of the variance of independent Gaussian chains
        se = expect * np.sqrt(2.0 / (chains - 1))
        assert np.var(x, ddof=1) == pytest.approx(expect, abs=3.0 * se)

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

    @pytest.mark.parametrize("name", ["step", "horizon", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ConfigError, match=name):
            LangevinConfig(**{"step": 0.1, "horizon": 1.0, "method": "uld", name: value})

    @pytest.mark.parametrize("name, value", [("m0", np.array([1.0])), ("draw_momentum", True)])
    def test_ula_rejects_momentum_field(self, name, value):
        with pytest.raises(ConfigError, match=f"field '{name}'"):
            LangevinConfig(step=0.1, horizon=1.0, method="ula", **{name: value})


def states_of(out):
    """An integrator's terminal state as a tuple of arrays."""
    return out if isinstance(out, tuple) else (out,)


def state_bytes(out):
    return b"".join(np.ascontiguousarray(s).tobytes() for s in states_of(out))


class TestIntegratorProtocol:
    """The step protocol every integrator shares: noise shapes, chunks and checks."""

    TARGET = make_two_mode_gmm(3, separation=4.0, variance=0.5)
    LANGEVIN = dict(step=0.1, horizon=1.2, x0=np.array([0.5, -0.2, 0.1]))
    CASES = {
        "sfs_run": (
            (make_drift(TARGET, 1.5, "gmm_exact"), SfsConfig(n_steps=12, beta=1.5)), "increments"
        ),
        "ula_run": ((TARGET, LangevinConfig(method="ula", **LANGEVIN)), "increments"),
        "uld_euler_run": (
            (TARGET, LangevinConfig(method="uld", m0=np.full(3, 0.3), **LANGEVIN)), "increments"
        ),
        "baoab_run": (
            (TARGET, LangevinConfig(method="baoab", m0=np.full(3, 0.3), **LANGEVIN)), "gaussians"
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_shapes_chunks_and_step_range(self, name):
        run = getattr(samplers, name)
        head, what = self.CASES[name]
        noise = np.random.default_rng(7).standard_normal((4, 12, 3)) * 0.3
        whole = run(*head, noise)
        for i in range(4):  # one chain's 2-D noise gives that chain's row of the batch
            assert state_bytes(run(*head, noise[i])) == state_bytes(
                tuple(s[i] for s in states_of(whole))
            )
        first = run(*head, noise[:, :5], 0)
        assert state_bytes(run(*head, noise[:, 5:], 5, first)) == state_bytes(whole)
        for args in [(noise[:, :11],), (noise[:, :5], 8), (noise[:, :5], -1)]:
            with pytest.raises(ConfigError, match=what):
                run(*head, *args)

    @pytest.mark.parametrize(
        "name, method, x1", [("uld_euler_run", "uld", 2.0), ("baoab_run", "baoab", 0.9)]
    )
    def test_non_finite_momentum_alone_diverges(self, monkeypatch, name, method, x1):
        # grad V is infinite beyond x = 1: chain 1's momentum overflows in step 0 while
        # its position stays finite (ULD starts there; BAOAB's kicks carry it there)
        wall = make_custom(
            lambda x: np.zeros(x.shape[:-1]), dim=1, grad=lambda x: np.where(x > 1.0, np.inf, 0.0)
        )
        cfg = LangevinConfig(step=0.1, horizon=0.5, method=method)
        x0, m0 = np.array([[0.0], [x1], [0.0]]), np.array([[0.0], [10.0], [0.0]])
        checked, check = [], samplers._check_finite

        def recording(step, t, x, m):
            checked.append((np.isfinite(x).all(), np.isfinite(m).all()))
            check(step, t, x, m)

        monkeypatch.setattr(samplers, "_check_finite", recording)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
            getattr(samplers, name)(wall, cfg, np.zeros((3, 5, 1)), None, (x0, m0))
        assert checked == [(True, False)]
        assert "step 0 (t=0.1) in chains [1]" in str(err.value)


class TestRunEnsemble:
    def test_single_chain_equals_direct_run(self):
        target = make_gaussian_mixture([0.75, 0.25], [-2.0, 2.0], [0.2, 0.8])
        cfg = SfsConfig(n_steps=32, beta=1.0, drift="gmm_exact")
        batch = run_ensemble(cfg, target, n_chains=1, root_seed=17)
        noise = chain_noise(cfg, target, 17, [0])
        drift = make_drift(target, 1.0, "gmm_exact")
        direct = sfs_run(drift, cfg, noise)
        assert np.array_equal(batch.samples, direct)

    def test_worker_count_never_changes_results(self, blocks_of):
        blocks_of(512)  # three blocks
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

    @pytest.mark.parametrize(
        "cfg",
        [SfsConfig(n_steps=8, beta=1.0, drift="gmm_exact"),
         SfsConfig(n_steps=4, beta=1.0, drift="stein_mc", n_mc=16),
         SfsConfig(n_steps=4, beta=1.0, drift="grad_mc", n_mc=16),
         LangevinConfig(step=0.05, horizon=0.4, method="ula")],
        ids=["gmm_exact", "stein_mc", "grad_mc", "ula"],
    )
    def test_full_covariance_prefix_at_every_block_size(self, cfg, blocks_of):
        # 1 and 513 chains end in a one-chain block, whose rotations must match the others'
        blocks_of(512)
        covs = [np.full((5, 5), 0.3) + 0.3 * np.eye(5), np.full((5, 5), -0.08) + 0.48 * np.eye(5)]
        target = make_gaussian_mixture([0.6, 0.4], [[-4.0, 0, 0, 0, 0], [4.0, 2, 0, 0, 0]], covs)
        large = run_ensemble(cfg, target, n_chains=600, root_seed=3).samples
        for n in (1, 2, 7, 513):
            small = run_ensemble(cfg, target, n_chains=n, root_seed=3).samples
            assert np.array_equal(small, large[:n])

    def test_langevin_ensemble_runs(self):
        target = standard_gaussian_target()
        cfg = LangevinConfig(step=0.1, horizon=1.0, method="baoab")
        batch = run_ensemble(cfg, target, n_chains=8, root_seed=1)
        assert batch.samples.shape == (8, 1)
        assert batch.meta["method"] == "baoab"

    def test_divergence_aggregates_global_chain_ids(self, blocks_of):
        blocks_of(512)  # two blocks
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

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda cfg, target, n: run_ensemble(cfg, target, n, 5), id="run_ensemble"),
            pytest.param(
                lambda cfg, target, n: strong_error_curve(target, cfg, [1.0, 0.5], 2, n, 5),
                id="strong_error_curve",
            ),
        ],
    )
    def test_zero_mass_names_global_chain_ids(self, run, blocks_of):
        # support x > -1: at t = 0 every chain sits at 0 and evaluates y = xi, so a
        # chain loses all weight mass exactly when both its pool draws lie at or below -1
        blocks_of(512)
        half_line = make_custom(lambda x: np.where(x[..., 0] > -1.0, 0.0, np.inf), dim=1)
        cfg = SfsConfig(n_steps=4, drift="stein_mc", n_mc=2)
        n = 600
        xi = open_chains(cfg, 1, 5, range(n)).pool.xi[..., 0]
        dead = np.flatnonzero(np.all(xi <= -1.0, axis=-1)).tolist()
        assert any(c < 512 for c in dead) and any(c >= 512 for c in dead)
        with pytest.raises(ZeroMassError) as err:
            run(cfg, half_line, n)
        assert (err.value.step, err.value.t) == (0, 0.0)
        assert err.value.chains == dead


def chunk_steps(monkeypatch, n_chains, dim, steps):
    """Make run_ensemble draw and integrate `steps`-step chunks (twice that long where no
    noise helper shares the draws)."""
    monkeypatch.setattr(samplers, "NOISE_CHUNK_BYTES", n_chains * dim * 8 * steps)


def record_runs(monkeypatch, module, name):
    """(n_steps, start, increments) of each call of the integrator module.name; the
    increments are copied because the chunk buffer is reused."""
    seen, original = [], getattr(module, name)

    def recording(*args, **kwargs):
        seen.append((args[1].n_steps, args[3], np.array(args[2])))
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
        pretend_cpus(monkeypatch, 2)  # a helper shares the draws, so chunks take `steps` steps
        chunk_steps(monkeypatch, 5, target.dim, steps)
        seen = record_runs(monkeypatch, samplers, integrator)
        chunked = run_ensemble(cfg, target, n_chains=5, root_seed=12).samples
        assert [c.shape[1] for _, _, c in seen] == [min(steps, 20 - s) for s in range(0, 20, steps)]
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

    @staticmethod
    def curve_peak(coarsest, d):
        target = make_two_mode_gmm(d, separation=3.0, variance=0.5)
        cfg = SfsConfig(n_steps=1, drift="gmm_exact")
        h_list = [2.0 ** -(coarsest + j) for j in range(3)]
        tracemalloc.start()
        try:
            strong_error_curve(target, cfg, h_list, 10, 512, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("coarsest, d", [(3, 10), (1, 10), (3, 9)], ids=["3", "1", "3-d9"])
    def test_curve_memory_is_one_chunk(self, coarsest, d):
        # one block's whole 2^10-step path at d = 10 would take 42 MB (84 MB with the
        # halved levels held as well); chunks of whole 2^-1 steps would take 37 MB
        peak = self.curve_peak(coarsest, d)
        assert peak < 30e6
        if d == 9:
            # the reference chunk is 113 steps long: its odd step is carried, not copied
            assert peak < 1.1 * self.curve_peak(coarsest, 10)

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
        pretend_cpus(monkeypatch, 2)  # a helper shares the draws, so chunks take 3 steps
        chunk_steps(monkeypatch, n, target.dim, 3)
        streamed = record_runs(monkeypatch, samplers, "sfs_run")
        run_ensemble(cfg, target, n_chains=n, root_seed=21)
        runs = record_runs(monkeypatch, metrics, "sfs_run")
        strong_error_curve(target, cfg, [2.0**-2, 2.0**-3, 2.0**-4], level, n, 21)
        reference = [(start, inc) for n_steps, start, inc in runs if n_steps == 2**level]
        assert len(streamed) == 11
        assert [(start, inc.shape[1]) for start, inc in reference] == [
            (start, inc.shape[1]) for _, start, inc in streamed
        ]
        for (_, ref_inc), (_, _, inc) in zip(reference, streamed):
            assert np.array_equal(ref_inc, inc)

    CURVES = {
        "gmm_exact": (
            make_gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [0.8, 0.8]),
            SfsConfig(n_steps=1, drift="gmm_exact"),
        ),
        "stein_mc_antithetic": (
            make_two_mode_gmm(2, separation=3.0, variance=0.5),
            SfsConfig(n_steps=1, drift="stein_mc", n_mc=8, antithetic=True),
        ),
    }

    @pytest.mark.parametrize("steps", [1, 3, 20])
    @pytest.mark.parametrize("case", list(CURVES))
    def test_chunk_length_never_changes_the_curve(self, monkeypatch, case, steps):
        target, cfg = self.CURVES[case]
        h_list, ref_level, n = [2.0**-3, 2.0**-4, 2.0**-5], 6, 6
        whole = strong_error_curve(target, cfg, h_list, ref_level, n, 8)
        pretend_cpus(monkeypatch, 2)  # a helper shares the draws, so chunks take `steps` steps
        chunk_steps(monkeypatch, n, target.dim, steps)
        runs = record_runs(monkeypatch, metrics, "sfs_run")
        chunked = strong_error_curve(target, cfg, h_list, ref_level, n, 8)
        assert chunked.rmse.tobytes() == whole.rmse.tobytes()
        assert chunked.slope == whole.slope
        for level in (6, 5, 4, 3):
            calls = [(start, inc.shape[1]) for n_steps, start, inc in runs if n_steps == 2**level]
            if level == ref_level:
                assert [k for _, k in calls] == [min(steps, 64 - s) for s in range(0, 64, steps)]
            # nonempty chunks that cover the level's steps in order
            ends = np.cumsum([k for _, k in calls])
            assert all(k > 0 for _, k in calls)
            assert [start for start, _ in calls] == [0, *ends[:-1]]
            assert ends[-1] == 2**level


class TestPoolBlock:
    """open_chains draws every chain's pool straight into one block array."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_block_pool_equals_per_chain_pools(self, d, antithetic):
        cfg = SfsConfig(n_steps=3, drift="stein_mc", n_mc=8, antithetic=antithetic)
        streams = open_chains(cfg, d, 14, range(5))
        per_chain = np.stack([make_noise_pool(8, d, RngStream(14, i), antithetic).xi for i in range(5)])
        # the protocol spelled out: one (M, d) draw, or (M/2, d) for the even rows
        expect = []
        for i in range(5):
            gen = RngStream(14, i).generator()
            if antithetic:
                half = gen.standard_normal((4, d))
                expect.append(np.stack([half, -half], axis=1).reshape(8, d))
            else:
                expect.append(gen.standard_normal((8, d)))
        assert streams.pool.xi.shape == (5, 8, d) and streams.pool.antithetic == antithetic
        assert streams.pool.xi.tobytes() == per_chain.tobytes() == np.stack(expect).tobytes()
        # each generator then stands at its chain's first increment
        increments = next(increment_chunks(streams, 3, d))[1]
        assert increments.tobytes() == serial_noise(cfg, d, 14, range(5)).tobytes()

    def test_open_chains_holds_one_block_pool(self):
        # one (512, 200, 10) pool takes 8.2 MB; per-chain pools stacked into a copy took twice that
        cfg = SfsConfig(n_steps=10, drift="grad_mc", n_mc=200)
        open_chains(cfg, 10, 3, range(512))
        tracemalloc.start()
        try:
            streams = open_chains(cfg, 10, 3, range(512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streams.pool.xi.nbytes == 512 * 200 * 10 * 8
        assert peak < 1.5 * streams.pool.xi.nbytes

    @pytest.mark.parametrize("kind, drift", [("ring", "stein_mc"), ("funnel", "grad_mc")])
    def test_prefixes_keep_bytes(self, kind, drift):
        target = make_builtin(kind)
        cfg = SfsConfig(n_steps=8, drift=drift, n_mc=32)
        reference = run_ensemble(cfg, target, 600, 9).samples
        for n in (1, 7, 513):
            assert run_ensemble(cfg, target, n, 9).samples.tobytes() == reference[:n].tobytes()


def serial_noise(cfg, d, root_seed, chain_ids):
    """Each chain's whole path drawn in one call from RngStream(root_seed, i), after its
    momentum or pool, without increment_chunks."""
    if isinstance(cfg, SfsConfig):
        scale = np.sqrt(cfg.h)
    else:
        scale = 1.0 if cfg.method == "baoab" else np.sqrt(cfg.step)
    paths = []
    for i in chain_ids:
        gen = RngStream(root_seed, i).generator()
        if isinstance(cfg, LangevinConfig) and cfg.draw_momentum:
            gen.standard_normal(d)
        if isinstance(cfg, SfsConfig) and cfg.drift in ("stein_mc", "grad_mc"):
            make_noise_pool(cfg.n_mc, d, gen, antithetic=cfg.antithetic)
        paths.append(gen.standard_normal((cfg.n_steps, d)) * scale)
    return np.stack(paths)


def pretend_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def spy_helpers(monkeypatch):
    """The noise-helper executors increment_chunks makes from now on."""
    made = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            if kwargs.get("thread_name_prefix") == "increment-chunks":
                made.append(self)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(samplers, "ThreadPoolExecutor", Spy)
    return made


def helper_threads():
    """The noise-helper threads alive now."""
    return [t for t in threading.enumerate() if t.name.startswith("increment-chunks")]


class TestSharedDraws:
    """A helper future draws the next chunk's rows while the block integrates this one."""

    D100 = make_gaussian_mixture(
        [1.0], [np.linspace(-2.0, 2.0, 100)], [np.geomspace(0.25, 4.0, 100)]
    )

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case", list(TestChunkedIncrements.CASES))
    def test_chunks_equal_serial_draws(self, monkeypatch, case, cpus):
        # with one CPU the caller draws every chunk, each filling the buffer of two; with
        # two a helper shares them, each filling half of it
        cfg, _ = TestChunkedIncrements.CASES[case]
        target = make_two_mode_gmm(3, separation=4.0, variance=0.5)
        pretend_cpus(monkeypatch, cpus)
        chunk_steps(monkeypatch, 5, target.dim, 3)
        helpers = spy_helpers(monkeypatch)
        streams = open_chains(cfg, target.dim, 12, range(5))
        chunks = [(start, c.copy()) for start, c in increment_chunks(streams, 20, target.dim)]
        lengths = [(start, c.shape[1]) for start, c in chunks]
        k = 6 if cpus == 1 else 3
        assert lengths == [(s, min(k, 20 - s)) for s in range(0, 20, k)]
        assert len(helpers) == cpus - 1
        noise = np.concatenate([c for _, c in chunks], axis=1)
        assert noise.tobytes() == serial_noise(cfg, target.dim, 12, range(5)).tobytes()

    def test_default_chunks_at_d100_equal_serial_draws(self, monkeypatch):
        # 64 chains at d = 100 take 81 steps per 4 MiB chunk: 200 steps are 3 chunks
        cfg = SfsConfig(n_steps=200, drift="gmm_exact")
        pretend_cpus(monkeypatch, 2)
        helpers = spy_helpers(monkeypatch)
        streams = open_chains(cfg, 100, 4, range(64))
        chunks = [(start, c.copy()) for start, c in increment_chunks(streams, 200, 100)]
        assert [(start, c.shape[1]) for start, c in chunks] == [(0, 81), (81, 81), (162, 38)]
        assert len(helpers) == 1
        serial = serial_noise(cfg, 100, 4, range(64))
        assert np.concatenate([c for _, c in chunks], axis=1).tobytes() == serial.tobytes()
        drift = make_drift(self.D100, cfg.beta, cfg.drift)
        samples = run_ensemble(cfg, self.D100, 64, 4).samples
        assert samples.tobytes() == sfs_run(drift, cfg, serial).tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_threads_and_prefixes_keep_bytes(self, monkeypatch, blocks_of, cpus):
        # multi-chunk paths in every block of more than one chain; with 4 CPUs both
        # block workers at threads=2 have a helper
        blocks_of(512)
        target = make_two_mode_gmm(3, separation=4.0, variance=0.5)
        cfg = SfsConfig(n_steps=20, beta=1.5, drift="grad_mc", n_mc=6)
        pretend_cpus(monkeypatch, cpus)
        chunk_steps(monkeypatch, 512, target.dim, 3)
        helpers = spy_helpers(monkeypatch)
        serial = serial_noise(cfg, target.dim, 2, range(600))
        pool = open_chains(cfg, target.dim, 2, range(600)).pool
        reference = sfs_run(make_drift(target, cfg.beta, cfg.drift, pool=pool), cfg, serial)
        for threads in (1, 2):
            samples = run_ensemble(cfg, target, 600, 2, threads=threads).samples
            assert samples.tobytes() == reference.tobytes()
        for n in (1, 513):
            samples = run_ensemble(cfg, target, n, 2, threads=2).samples
            assert samples.tobytes() == reference[:n].tobytes()
        assert bool(helpers) == (cpus > 1)

    def test_helpers_are_joined_after_a_run_and_a_divergence(self, monkeypatch):
        runaway = make_custom(
            lambda x: -np.sum(x**4, axis=-1), dim=1, grad=lambda x: -4.0 * x**3
        )
        cfg = LangevinConfig(step=0.5, horizon=5.0, method="ula", x0=np.array([3.0]))
        pretend_cpus(monkeypatch, 2)
        chunk_steps(monkeypatch, 8, 1, 2)  # five 2-step chunks
        helpers = spy_helpers(monkeypatch)
        before = threading.active_count()
        run_ensemble(cfg, standard_gaussian_target(), n_chains=8, root_seed=0)
        assert len(helpers) == 1 and threading.active_count() == before
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            run_ensemble(cfg, runaway, n_chains=8, root_seed=0)
        assert err.value.step < 8  # the path is left before its last chunk
        assert len(helpers) == 2 and helper_threads() == []
        assert threading.active_count() == before

    def test_no_helper_without_a_free_cpu(self, monkeypatch):
        target = self.D100
        cfg = SfsConfig(n_steps=200, drift="gmm_exact")
        helpers = spy_helpers(monkeypatch)
        pretend_cpus(monkeypatch, 1)
        one_cpu = run_ensemble(cfg, target, 64, 5).samples
        assert helpers == []
        pretend_cpus(monkeypatch, 2)
        two_cpus = run_ensemble(cfg, target, 64, 5).samples
        assert len(helpers) == 1
        assert one_cpu.tobytes() == two_cpus.tobytes()

    def test_no_helper_for_a_block_beyond_helper_max_chains(self, monkeypatch):
        cfg = SfsConfig(n_steps=12)
        pretend_cpus(monkeypatch, 2)
        helpers = spy_helpers(monkeypatch)
        for n in (samplers.HELPER_MAX_CHAINS, samplers.HELPER_MAX_CHAINS + 1):
            chunk_steps(monkeypatch, n, 1, 3)
            streams = open_chains(cfg, 1, 9, range(n))
            noise = np.concatenate([c.copy() for _, c in increment_chunks(streams, 12, 1)], axis=1)
            assert noise.tobytes() == serial_noise(cfg, 1, 9, range(n)).tobytes()
        assert len(helpers) == 1  # the first block's alone

    def test_single_chunk_path_starts_no_helper(self, monkeypatch):
        pretend_cpus(monkeypatch, 2)
        helpers = spy_helpers(monkeypatch)
        run_ensemble(SfsConfig(n_steps=1000), standard_gaussian_target(), 512, 1)
        assert helpers == []

    def test_rows_shared_by_many_threads_are_drawn_once(self):
        # more drawing threads than CPUs, started together and switching as often as
        # the interpreter allows: a row handed out twice, or never, changes the bytes
        cfg, n = SfsConfig(n_steps=3), 20000
        streams = open_chains(cfg, 2, 6, range(n))
        chunk, runs = np.empty((n, 3, 2)), SimpleQueue()
        for lo in range(0, n, samplers.ROW_RUN):  # the first row of each run
            runs.put(lo)
        start = threading.Barrier(5)

        def draw():
            start.wait(timeout=30)
            samplers._draw_rows(streams, chunk, runs)

        threads = [threading.Thread(target=draw) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            draw()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert runs.empty()
        assert chunk.tobytes() == serial_noise(cfg, 2, 6, range(n)).tobytes()

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # the caller's first run waits until the helper's draw has failed, so the
        # helper surely takes a run; asking for the chunk raises what the helper raised
        failed = threading.Event()

        class FailingInHelper:
            def standard_normal(self, out):
                if threading.current_thread().name.startswith("increment-chunks"):
                    failed.set()
                    raise RuntimeError("draw failed")
                assert failed.wait(timeout=30)
                out[...] = 0.0

        pretend_cpus(monkeypatch, 2)
        chunk_steps(monkeypatch, 20, 1, 2)
        helpers = spy_helpers(monkeypatch)
        streams = open_chains(SfsConfig(n_steps=4), 1, 0, range(20))
        streams.gens = [FailingInHelper()] * 20
        with closing(increment_chunks(streams, 4, 1)) as chunks:
            with pytest.raises(RuntimeError, match="draw failed"):
                next(chunks)
        assert len(helpers) == 1 and helper_threads() == []

    def test_workers_keep_the_callers_errstate(self, monkeypatch, blocks_of):
        # ULA at step 5 diverges on the ring, and 1030 chains make three blocks; the
        # caller silences the overflow met on the way, and so must every block worker
        blocks_of(512)
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        cfg = LangevinConfig(step=5.0, horizon=500.0, method="ula")
        pretend_cpus(monkeypatch, 2)
        failures = {}
        for threads in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
                    run_ensemble(cfg, ring, 1030, 0, threads=threads)
            assert [str(w.message) for w in caught] == []
            failures[threads] = (err.value.step, err.value.chains)
        assert failures[1] == failures[2]

    def test_map_blocks_workers_capped_at_usable_cpus(self, monkeypatch):
        seen = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(samplers, "ThreadPoolExecutor", Recording)
        workers = []
        for cpus in (1, 2, 3):
            pretend_cpus(monkeypatch, cpus)
            samplers.map_blocks(lambda ids, w: workers.append(w), 3 * 512, threads=8)
        assert seen == [2, 3]
        assert workers == [1] * 3 + [2] * 3 + [3] * 3


FULL_D3 = make_gaussian_mixture(
    [0.6, 0.4], [[-2.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    [np.full((3, 3), 0.2) + 0.3 * np.eye(3), np.diag([0.5, 1.0, 0.25])],
)
RING = make_builtin("ring", r0=2.0, sigma=0.2)


class TestBlockSizing:
    """Blocks are sized by the bytes one chain's step touches, never by the ensemble."""

    CASES = {
        "gmm_exact_diag": (SfsConfig(n_steps=6, beta=2.0), make_two_mode_gmm(3)),
        "gmm_exact_full": (SfsConfig(n_steps=6, beta=2.0), FULL_D3),
        "stein_mc": (SfsConfig(n_steps=6, drift="stein_mc", n_mc=8), RING),
        "stein_mc_antithetic": (SfsConfig(n_steps=6, drift="stein_mc", n_mc=8, antithetic=True),
                                FULL_D3),
        "grad_mc": (SfsConfig(n_steps=6, beta=1.5, drift="grad_mc", n_mc=8), FULL_D3),
        "quadrature": (SfsConfig(n_steps=4, drift="quadrature"), RING),
        "ula": (LangevinConfig(step=0.05, horizon=0.3, method="ula"), FULL_D3),
        "uld": (LangevinConfig(step=0.05, horizon=0.3, method="uld", draw_momentum=True), RING),
        "baoab": (LangevinConfig(step=0.05, horizon=0.3, method="baoab", draw_momentum=True),
                  FULL_D3),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_block_size_never_changes_the_bytes(self, blocks_of, case):
        cfg, target = self.CASES[case]
        n = 150 if case != "quadrature" else 40
        sized = run_ensemble(cfg, target, n, 21).samples
        for block in (1, 7, 64):
            blocks_of(block)
            assert run_ensemble(cfg, target, n, 21).samples.tobytes() == sized.tobytes()

    @pytest.mark.parametrize(
        "cfg, target, chains",
        [(SfsConfig(n_steps=10, beta=5.0, drift="grad_mc", n_mc=200), make_two_mode_gmm(10), 128),
         (SfsConfig(n_steps=50, drift="stein_mc", n_mc=200), RING, 512),
         (SfsConfig(n_steps=10), make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8]),
          samplers.MAX_BLOCK),
         (SfsConfig(n_steps=10), TestSharedDraws.D100, 512),
         (LangevinConfig(step=0.1, horizon=1.0, method="ula"), make_two_mode_gmm(200), 256),
         (SfsConfig(n_steps=10, drift="quadrature"), RING, 32),
         (LangevinConfig(step=0.1, horizon=1.0, method="uld"), FULL_D3, samplers.MAX_BLOCK),
         (SfsConfig(n_steps=10, drift="grad_mc", n_mc=10**6), make_two_mode_gmm(10), 1),
         (SfsConfig(n_steps=1000), TestSharedDraws.D100, samplers.HELPER_MAX_CHAINS),
         (SfsConfig(n_steps=40), TestSharedDraws.D100, 512),
         (SfsConfig(n_steps=41), TestSharedDraws.D100, samplers.HELPER_MAX_CHAINS),
         (SfsConfig(n_steps=1000), make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8]),
          samplers.MAX_BLOCK),
         (SfsConfig(n_steps=10**4), make_two_mode_gmm(10), 4096),
         (LangevinConfig(step=0.01, horizon=10.0, method="ula"), make_two_mode_gmm(200), 128)],
        ids=["grad_mc_d10", "ring_stein_mc", "gmm_exact_d1", "gmm_exact_d100", "ula_d200",
             "quadrature", "uld", "pool_beyond_budget", "gmm_exact_d100_1000_steps",
             "gmm_exact_d100_one_helper_chunk", "gmm_exact_d100_two_helper_chunks",
             "gmm_exact_d1_1000_steps", "gmm_exact_d10_10000_steps", "ula_d200_1000_steps"],
    )
    def test_chains_per_block(self, cfg, target, chains):
        assert samplers.chains_per_block(cfg, target) == chains

    def test_size_ignores_chain_and_thread_counts(self, monkeypatch):
        cfg = SfsConfig(n_steps=4, drift="grad_mc", n_mc=200)
        target = make_two_mode_gmm(10)
        sizes, original = [], samplers.map_blocks

        def recording(fn, n_chains, threads=1, block=samplers.ENSEMBLE_BLOCK):
            sizes.append(block)
            return original(fn, n_chains, threads, block)

        for module in (samplers, metrics):
            monkeypatch.setattr(module, "map_blocks", recording)
        for n, threads in ((1, 1), (300, 1), (300, 4), (1000, 2)):
            run_ensemble(cfg, target, n, 3, threads=threads)
        strong_error_curve(target, cfg, [0.5, 0.25, 0.125], 3, 300, 3, threads=2)
        assert sizes == [128] * 5

    def test_block_size_never_changes_the_curve(self, blocks_of):
        # per-chain squared errors summed in chain order: block sums added in block
        # order moved the last bit of this curve under both cuts
        target = make_two_mode_gmm(3, separation=4.0, variance=0.5)
        cfg, h_list = SfsConfig(n_steps=8), [2.0**-3, 2.0**-4, 2.0**-5]
        sized = strong_error_curve(target, cfg, h_list, 6, 600, 8).rmse
        for block in (128, 512):
            blocks_of(block)
            assert strong_error_curve(target, cfg, h_list, 6, 600, 8).rmse.tobytes() == sized.tobytes()

    def test_curve_sizes_blocks_by_its_reference_path(self, monkeypatch):
        # at d = 100 a 10-step config is one chunk of 512 chains; the curve draws the
        # 1024-step reference path, whose chunks the helper shares in 128-chain blocks
        cfg = SfsConfig(n_steps=10)
        sizes, original = [], samplers.map_blocks

        def recording(fn, n_chains, threads=1, block=samplers.ENSEMBLE_BLOCK):
            sizes.append(block)
            return original(fn, n_chains, threads, block)

        monkeypatch.setattr(metrics, "map_blocks", recording)
        strong_error_curve(TestSharedDraws.D100, cfg, [0.5, 0.25, 0.125], 10, 3, 1)
        assert samplers.chains_per_block(cfg, TestSharedDraws.D100) == 512
        assert sizes == [samplers.HELPER_MAX_CHAINS]

    def test_helper_blocks_keep_the_bytes_at_d100(self, monkeypatch, blocks_of):
        # 600 chains x 1000 steps: 128-chain blocks with a noise helper each, 512-chain
        # blocks (too many chains for a helper), and 128-chain blocks on one CPU (none)
        cfg, target = SfsConfig(n_steps=1000), TestSharedDraws.D100
        helpers = spy_helpers(monkeypatch)
        pretend_cpus(monkeypatch, 2)
        sized = run_ensemble(cfg, target, 600, 8).samples
        assert len(helpers) == 5
        pretend_cpus(monkeypatch, 1)
        one_cpu = run_ensemble(cfg, target, 600, 8).samples
        pretend_cpus(monkeypatch, 2)
        blocks_of(512)
        blocks_512 = run_ensemble(cfg, target, 600, 8).samples
        assert len(helpers) == 6  # the 88-chain block of the 512-chain cut has one too
        assert sized.tobytes() == one_cpu.tobytes() == blocks_512.tobytes()
