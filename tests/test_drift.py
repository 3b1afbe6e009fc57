"""Tests for the drift evaluators: closed form, Monte Carlo pool, quadrature."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from sfsampler import (
    GmmExactDrift,
    NoisePool,
    QuadratureDrift,
    RngStream,
    SteinMcDrift,
    fit_loglog_slope,
    make_builtin,
    make_drift,
    make_gaussian_mixture,
    make_noise_pool,
    make_two_mode_gmm,
    run_ensemble,
    strong_error_curve,
)
from sfsampler import samplers, targets
from sfsampler.errors import ConfigError, DivergenceError, ZeroMassError
from sfsampler.samplers import STEP_NOISE_BYTES, SfsConfig
from sfsampler.targets import (
    EXP_FLOOR, MixturePoolEvaluator, PoolEvaluator, RadialPoolEvaluator, log_g_and_grad, log_g_beta,
)

SKEWED_BIMODAL_PM2 = dict(weights=[0.75, 0.25], means=[-2.0, 2.0], covs=[0.2, 0.8])


def pm2_target():
    return make_gaussian_mixture(**SKEWED_BIMODAL_PM2)


class TestNoisePool:
    def test_antithetic_pairs(self):
        pool = make_noise_pool(2, 3, RngStream(0, 0), antithetic=True)
        assert np.array_equal(pool.xi[1], -pool.xi[0])

    def test_same_stream_identical(self):
        a = make_noise_pool(8, 2, RngStream(1, 4))
        b = make_noise_pool(8, 2, RngStream(1, 4))
        assert np.array_equal(a.xi, b.xi)

    def test_mean_clt_bound(self):
        pool = make_noise_pool(1000, 3, RngStream(2, 0))
        assert np.all(np.abs(pool.xi.mean(axis=0)) < 4.0 / np.sqrt(1000))

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            make_noise_pool(1, 2, RngStream(0, 0))
        with pytest.raises(ConfigError):
            make_noise_pool(3, 2, RngStream(0, 0), antithetic=True)

    def test_pool_is_frozen(self):
        pool = make_noise_pool(4, 2, RngStream(0, 0))
        with pytest.raises(ValueError):
            pool.xi[0, 0] = 0.0
        assert isinstance(pool, NoisePool)


class TestGmmExactDrift:
    def test_centered_gaussian_zero_drift(self):
        for beta in (0.5, 1.0, 3.0):
            t = make_gaussian_mixture([1.0], [[0.0, 0.0]], [beta * np.eye(2)])
            for tt in (0.0, 0.3, 0.99):
                f = GmmExactDrift(t, beta)(np.array([0.7, -2.0]), tt)
                assert f == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_shifted_gaussian_constant_drift(self):
        beta = 2.0
        alpha = np.array([1.5, -0.5])
        t = make_gaussian_mixture([1.0], [alpha], [beta * np.eye(2)])
        for tt in (0.0, 0.5, 0.9):
            for x in (np.zeros(2), np.array([3.0, 1.0])):
                assert GmmExactDrift(t, beta)(x, tt) == pytest.approx(alpha, abs=1e-12)

    def test_shifted_gaussian_matches_quadrature(self):
        beta = 2.0
        t = make_gaussian_mixture([1.0], [1.5], [beta])
        f = GmmExactDrift(t, beta)(np.array([0.4]), 0.3)
        q = QuadratureDrift(t, beta)(np.array([0.4]), 0.3)
        assert f == pytest.approx(q, abs=1e-8)

    def test_skewed_bimodal_point_matches_quadrature(self):
        t = pm2_target()
        x, tt = np.array([0.3]), 0.5
        f = GmmExactDrift(t, 1.0)(x, tt)
        q = QuadratureDrift(t, 1.0)(x, tt)
        assert f == pytest.approx(q, abs=1e-6)

    def test_full_covariance_matches_quadrature(self):
        t = make_gaussian_mixture(
            [0.4, 0.6],
            [[-1.0, 0.5], [2.0, -0.5]],
            [np.array([[1.0, 0.3], [0.3, 0.8]]), np.array([[0.5, -0.1], [-0.1, 1.2]])],
        )
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(2) * 2.0
            tt = rng.uniform(0.0, 1.0 - 2.0**-9)
            f = GmmExactDrift(t, 1.0)(x, tt)
            q = QuadratureDrift(t, 1.0)(x, tt)
            assert f == pytest.approx(q, abs=1e-6)

    def test_rotation_equivariance(self):
        # rotating a diagonal mixture by R rotates its drift: f_R(R x, t) = R f(x, t);
        # the diagonal target takes the unrotated path, the rotated one the eigenbasis path
        weights = [0.3, 0.5, 0.2]
        means = np.array([[-2.0, 0.5, 1.0], [2.0, -1.0, 0.0], [0.0, 2.0, -1.5]])
        variances = np.array([[0.3, 1.2, 0.7], [0.9, 0.4, 1.5], [0.6, 0.6, 0.2]])
        r, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((3, 3)))
        rotated_covs = [(r * v) @ r.T for v in variances]
        rotated_covs = [0.5 * (c + c.T) for c in rotated_covs]
        plain = make_gaussian_mixture(weights, means, list(variances))
        rotated = make_gaussian_mixture(weights, means @ r.T, rotated_covs)
        x = np.random.default_rng(22).standard_normal((16, 3)) * 2.0
        for beta in (1.0, 2.5):
            f, f_r = GmmExactDrift(plain, beta), GmmExactDrift(rotated, beta)
            assert f.diagonal and not f_r.diagonal
            for tt in (0.0, 0.5, 0.99):
                assert np.max(np.abs(f_r(x @ r.T, tt) - f(x, tt) @ r.T)) < 1e-10

    def test_symmetric_mixture_odd_drift(self):
        # symmetric target: f(-x, t) = -f(x, t)
        t = make_gaussian_mixture([0.5, 0.5], [-3.0, 3.0], [0.5, 0.5])
        x = np.array([0.8])
        for tt in (0.1, 0.6, 0.95):
            assert GmmExactDrift(t, 1.0)(-x, tt) == pytest.approx(
                -GmmExactDrift(t, 1.0)(x, tt), abs=1e-12
            )

    def test_batched_evaluation(self):
        t = pm2_target()
        xs = np.array([[-1.0], [0.3], [2.0]])
        batched = GmmExactDrift(t, 1.0)(xs, 0.5)
        singles = np.stack([GmmExactDrift(t, 1.0)(x, 0.5) for x in xs])
        assert np.array_equal(batched, singles)

    def test_far_tail_stays_finite(self):
        t = make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8])
        f = GmmExactDrift(t, 1.0)(np.array([80.0]), 0.999)
        assert np.all(np.isfinite(f))

    def test_time_domain_validation(self):
        t = pm2_target()
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                GmmExactDrift(t, 1.0)(np.zeros(1), bad)

    def test_requires_mixture(self):
        ring = make_builtin("ring")
        with pytest.raises(ConfigError):
            GmmExactDrift(ring, 1.0)(np.zeros(2), 0.5)


def solve_long_double(a, b):
    """a^{-1} b in long double by Gaussian elimination, for an SPD a and columns b."""
    a, b = a.copy(), b.copy()
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            f = a[j, i] / a[i, i]
            a[j] -= f * a[i]
            b[j] -= f * b[i]
    out = np.zeros_like(b)
    for i in reversed(range(n)):
        out[i] = (b[i] - a[i, i + 1 :] @ out[i + 1 :]) / a[i, i]
    return out


def smoothed_mixture_drift(target, beta, x, t):
    """The exact drift from its definition, one component at a time.

    Under component i the smoothed mean of x is u_i = C_i^{-1} (Sigma_i x + s alpha_i),
    C_i = t Sigma_i + s I, s = (1 - t) beta, and the drift is sum_i p_i (u_i - x) / (1 - t)
    with u_i - x = s C_i^{-1} (Sigma_i x / beta + alpha_i - x), solved as such so that no
    digits are lost near t = 1. The posterior weights p_i are the softmax of
    log theta_i - log det C_i / 2 + alpha_i^T C_i^{-1} (x - t alpha_i) / 2 + x^T (u_i - x) / (2 s),
    the log of the Gaussian integral of component i against N(x, s I) / N(0, beta I) less
    its common factor exp(-|x|^2 / (2 s)). Returns the drift and the largest
    per-component drift beta |C_i^{-1} (...)|, which the weighted sum may cancel.
    """
    gmm = target.mixture
    s = (1.0 - t) * beta
    logw, steps = [], []
    for theta, alpha, cov in zip(gmm.weights, gmm.means, gmm.covs):
        sigma = cov.entries
        c = t * sigma + s * np.eye(target.dim)
        step = np.linalg.solve(c, sigma @ x / beta + alpha - x)
        c_alpha = np.linalg.solve(c, alpha)
        logw.append(np.log(theta) - 0.5 * np.linalg.slogdet(c)[1]
                    + 0.5 * (x - t * alpha) @ c_alpha + 0.5 * x @ step)
        steps.append(beta * step)
    p = softmax(np.array(logw))
    return p @ np.array(steps), max(np.max(np.abs(step)) for step in steps)


def five_d_mixture():
    """Three correlated components in d = 5."""
    def equicorrelated(rho, scale):
        return scale * (np.full((5, 5), rho) + (1.0 - rho) * np.eye(5))

    means = [[-4.0, 0, 0, 0, 0], [4.0, 2, 0, 0, 0], [0.0, -2, 4, 1, 0]]
    covs = [equicorrelated(0.5, 0.6), equicorrelated(-0.2, 0.4),
            np.diag([0.3, 0.5, 0.7, 0.9, 1.1]) + 0.2]
    return make_gaussian_mixture([0.5, 0.3, 0.2], means, covs)


class TestComponentMajorDrift:
    """The exact drift against its definition, and its rows against the batch they share."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        kappa=st.integers(1, 3),
        d=st.integers(1, 6),
        full=st.booleans(),
        beta=st.floats(0.2, 5.0),
        t=st.floats(0.0, 0.999),
        scale=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_smoothed_components(self, kappa, d, full, beta, t, scale, seed):
        gen = np.random.default_rng(seed)
        target = random_mixture(gen, kappa, d, full, 0.0)
        x = gen.standard_normal((5, d)) * scale
        got = GmmExactDrift(target, beta)(x, t)
        for row, point in zip(got, x):
            expect, largest = smoothed_mixture_drift(target, beta, point, t)
            assert np.all(np.abs(row - expect) <= 1e-9 * max(largest, 1.0))

    @pytest.mark.parametrize(
        "target",
        [make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8]),
         make_two_mode_gmm(10, separation=6.0, variance=0.25),
         make_gaussian_mixture([1.0], [np.linspace(-2.0, 2.0, 100)], [np.geomspace(0.25, 4.0, 100)]),
         five_d_mixture()],
        ids=["bimodal_1d", "two_mode_d10", "gaussian_d100", "full_d5"],
    )
    def test_rows_do_not_depend_on_the_batch(self, target):
        drift = GmmExactDrift(target, 1.0)
        x = np.random.default_rng(3).standard_normal((600, target.dim)) * 3.0
        for t in (0.0, 0.5, 0.99):
            whole = drift(x, t)
            for size in (1, 7, 88, 512, 513):
                parts = [drift(x[lo : lo + size], t) for lo in range(0, 600, size)]
                assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("d", [1, 5, 100])
    def test_one_component_equals_its_two_halves(self, d):
        # the one-component path returns U_0 and forms no weight; two equal halves take
        # the general path, where both weights are exactly 1 and their total exactly 2
        gen = np.random.default_rng(d)
        mean, var = gen.standard_normal(d), gen.uniform(0.2, 3.0, d)
        one = GmmExactDrift(make_gaussian_mixture([1.0], [mean], [var]), 1.3)
        halves = GmmExactDrift(make_gaussian_mixture([0.5, 0.5], [mean, mean], [var, var]), 1.3)
        x = gen.standard_normal((300, d)) * 4.0
        for t in (0.0, 0.3, 0.5, 0.999):
            assert one(x, t).tobytes() == halves(x, t).tobytes()
            assert one(x[7], t).tobytes() == halves(x[7], t).tobytes()

    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal_d100", "rotated_d3"])
    def test_last_step_matches_a_long_double_closed_form(self, rotated):
        # one Gaussian's drift is C^{-1} ((Sigma - beta I) x + beta alpha), C = t Sigma + s I;
        # at t = 1 - 2^-12 a drift formed as (mean - x) / (1 - t) loses 12 bits
        gen = np.random.default_rng(40)
        if rotated:
            q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
            cov = (q * np.array([0.3, 1.0, 2.5])) @ q.T
            cov = 0.5 * (cov + cov.T)
            mean = np.array([1.0, -2.0, 0.5])
        else:
            cov, mean = np.geomspace(0.25, 4.0, 100), np.linspace(-2.0, 2.0, 100)
        target = make_gaussian_mixture([1.0], [mean], [cov])
        d, beta, t = target.dim, 1.5, 1.0 - 2.0**-12
        assert GmmExactDrift(target, beta).diagonal != rotated
        x = gen.standard_normal((64, d)) * 3.0
        sigma = np.diag(cov) if cov.ndim == 1 else cov
        ld = lambda a: np.asarray(a, dtype=np.longdouble)
        c = ld(t) * ld(sigma) + (1 - ld(t)) * ld(beta) * np.eye(d, dtype=np.longdouble)
        rhs = ld(x) @ (ld(sigma) - ld(beta) * np.eye(d, dtype=np.longdouble)) + ld(beta) * ld(mean)
        exact = solve_long_double(c, rhs.T).T
        err = np.max(np.abs(GmmExactDrift(target, beta)(x, t) - exact), axis=-1)
        assert np.all(err <= 1e-14 * np.maximum(np.max(np.abs(x), axis=-1), 1.0))


class TestAffineMixtureKernel:
    """Edge cases of the one weighted mean the exact drift and grad V share."""

    FAR_APART = make_gaussian_mixture([0.75, 0.25], [-40.0, 40.0], [0.2, 0.8])

    @pytest.mark.parametrize(
        "target",
        [make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8]), FAR_APART,
         five_d_mixture(), make_two_mode_gmm(10, separation=6.0, variance=0.25)],
        ids=["bimodal_1d", "far_apart_1d", "full_d5", "two_mode_d10"],
    )
    def test_finite_batches_raise_no_floating_point_error(self, target):
        # the far tail (x = 80 near t = 1) and, for the far-apart pair, a component whose
        # weight underflows to exactly 0 against the other's
        gen = np.random.default_rng(9)
        x = np.concatenate([gen.standard_normal((64, target.dim)) * 4.0,
                            np.full((2, target.dim), 80.0), np.full((2, target.dim), -40.0)])
        drift = GmmExactDrift(target, 1.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for t in (0.0, 0.5, 0.999):
                assert np.isfinite(drift(x, t)).all()
            assert np.isfinite(target.mixture.grad_potential(x)).all()
        if target is self.FAR_APART:
            # at x = -40 the component at +40 weighs about exp(-2720) against the other: 0 in
            # floats, so the drift is the first component's map alone
            alone = GmmExactDrift(make_gaussian_mixture([1.0], [-40.0], [0.2]), 1.0)
            assert drift(x[-1:], 0.0).tobytes() == alone(x[-1:], 0.0).tobytes()

    def test_an_overflowing_chain_fails_in_its_own_row(self, monkeypatch):
        target = make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8])
        drift = GmmExactDrift(target, 1.0)
        x = np.random.default_rng(10).standard_normal((9, 1)) * 3.0
        x[4] = 1e160   # its log weights overflow
        with np.errstate(over="ignore", invalid="ignore"):
            got = drift(x, 0.5)
        assert not np.isfinite(got[4]).any()
        assert np.delete(got, 4, axis=0).tobytes() == drift(np.delete(x, 4, axis=0), 0.5).tobytes()
        # in an ensemble: chain 4's first increment takes it to 1e160, and the next step's
        # drift fails that chain alone
        chunks = samplers.increment_chunks

        def poisoned(streams, n_steps, d, workers=1):
            for start, chunk in chunks(streams, n_steps, d, workers):
                if start == 0:
                    chunk[4, 0] = 1e160
                yield start, chunk

        monkeypatch.setattr(samplers, "increment_chunks", poisoned)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            run_ensemble(SfsConfig(n_steps=20), target, 9, 0)
        assert (err.value.step, err.value.chains) == (1, [4])


def rotated_d3_mixture():
    """Three rotated components in d = 3."""
    gen = np.random.default_rng(12)
    covs = [m @ m.T / 3.0 + 0.2 * np.eye(3) for m in gen.standard_normal((3, 3, 3))]
    return make_gaussian_mixture([0.5, 0.3, 0.2], gen.uniform(-4.0, 4.0, (3, 3)),
                                 [0.5 * (c + c.T) for c in covs])


def one_gaussian(d, rotated=False):
    variances = np.geomspace(0.25, 4.0, d)
    if not rotated:
        return make_gaussian_mixture([1.0], [np.linspace(-2.0, 2.0, d)], [variances])
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    cov = (q * variances) @ q.T
    return make_gaussian_mixture([1.0], [np.linspace(-2.0, 2.0, d)], [0.5 * (cov + cov.T)])


class TestTimeTable:
    """The exact drift's coefficients for a known grid, built a slice of steps at a time."""

    @pytest.mark.parametrize(
        "target",
        [make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8]), rotated_d3_mixture(),
         one_gaussian(100), one_gaussian(100, rotated=True)],
        ids=["diagonal_k2_d1", "rotated_k3_d3", "one_component_d100", "rotated_one_component_d100"],
    )
    def test_every_grid_time_and_off_grid_time_keeps_the_bytes(self, target):
        # a rotated target's table holds (kappa, d, d) maps per step, built by one BLAS
        # product per slice
        n_steps, beta = 1000, 1.3
        gridded, plain = GmmExactDrift(target, beta, n_steps), GmmExactDrift(target, beta)
        assert gridded.slice_steps < n_steps or target.dim < 100
        x = np.random.default_rng(5).standard_normal((40, target.dim)) * 4.0
        grid = [n * (1.0 / n_steps) for n in range(n_steps)]
        # forwards, then backwards, which builds every slice again
        for t in grid + grid[::-1]:
            assert gridded(x, t).tobytes() == plain(x, t).tobytes()
        # between grid times, within an ulp of one, and past the last
        for t in (0.0005, 1.0 / 3.0, 0.5 + 2.0**-40, 0.5 - 2.0**-53, 0.9995, 0.9999):
            assert gridded(x, t).tobytes() == plain(x, t).tobytes()
            assert gridded(x[3], t).tobytes() == plain(x[3], t).tobytes()

    @pytest.mark.parametrize(
        "target", [make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8]), one_gaussian(100)],
        ids=["bimodal_d1", "one_component_d100"],
    )
    def test_one_pass_per_slice_in_a_run(self, target, monkeypatch):
        calls = []
        coefficients = GmmExactDrift._coefficients
        monkeypatch.setattr(GmmExactDrift, "_coefficients",
                            lambda self, t: calls.append(len(t)) or coefficients(self, t))
        cfg = SfsConfig(n_steps=1000, beta=1.0)
        slice_steps = GmmExactDrift(target, 1.0, cfg.n_steps).slice_steps
        calls.clear()
        run_ensemble(cfg, target, 64, 3)   # one block
        # one sizing pass when the drift is built, then each slice once
        assert calls == [1] + [min(slice_steps, cfg.n_steps - lo)
                               for lo in range(0, cfg.n_steps, slice_steps)]

    def test_the_curve_levels_hit_the_reference_table(self, monkeypatch):
        calls = []
        coefficients = GmmExactDrift._coefficients
        monkeypatch.setattr(GmmExactDrift, "_coefficients",
                            lambda self, t: calls.append(len(t)) or coefficients(self, t))
        target = make_gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [0.8, 0.8])
        strong_error_curve(target, SfsConfig(n_steps=2), [2.0**-k for k in range(3, 7)], 9, 64, 1)
        assert calls == [1, 2**9]

    @pytest.mark.parametrize("kappa, rotated", [(1, False), (2, False), (1, True)],
                             ids=["1", "2", "rotated_1"])
    def test_a_long_wide_grid_stays_within_the_byte_budget(self, kappa, rotated):
        # the rotated d = 100 maps take 80 kB a step, so a slice holds six steps
        d, n_steps = (100, 2_000) if rotated else (200, 10_000)
        if rotated:
            target = one_gaussian(d, rotated=True)
        else:
            target = make_gaussian_mixture([1.0 / kappa] * kappa, np.zeros((kappa, d)),
                                           [np.geomspace(0.25, 4.0, d)] * kappa)
        drift = GmmExactDrift(target, 1.0, n_steps)
        assert drift.diagonal != rotated
        x = np.ones((2, d))
        rows = 0
        for n in range(0, n_steps, 37):
            drift(x, n * (1.0 / n_steps))
            coefficients = drift.table[1]
            assert len(coefficients) == (2 if kappa == 1 else 3)   # A, c (and k)
            assert sum(v.nbytes for v in coefficients) <= STEP_NOISE_BYTES
            rows = max(rows, len(coefficients[0]))
        assert rows == drift.slice_steps > 1


class TestSteinMcDrift:
    def test_antithetic_cancellation_constant_g(self):
        # reference-Gaussian target written so log g is bitwise zero: the
        # softmax is exactly uniform and antithetic pairs cancel exactly
        from sfsampler import make_custom

        beta = 2.0
        t = make_custom(lambda x: np.sum(x * x, axis=-1) / (2.0 * beta), dim=2)
        pool = make_noise_pool(64, 2, RngStream(3, 0), antithetic=True)
        f = SteinMcDrift(t, beta, pool)(np.array([0.7, -1.0]), 0.4)
        assert np.array_equal(f, np.zeros(2))

    def test_antithetic_cancellation_gmm_roundoff(self):
        # same target through the mixture path: log g constant only up to
        # roundoff in the component quadratic form, so near-zero, not zero
        beta = 2.0
        t = make_gaussian_mixture([1.0], [[0.0, 0.0]], [beta * np.eye(2)])
        pool = make_noise_pool(64, 2, RngStream(3, 0), antithetic=True)
        f = SteinMcDrift(t, beta, pool)(np.array([0.7, -1.0]), 0.4)
        assert f == pytest.approx([0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("kind", ["ring", "mixture"])
    def test_antithetic_sum_equals_the_sum_over_every_row(self, kind):
        # the antithetic pool's sum of pair differences against the plain weighted sum
        # over the same rows, each pair's odd row being the even one negated
        target = make_builtin("ring") if kind == "ring" else five_d_mixture()
        anti = stacked_pool(32, 40, target.dim, antithetic=True)
        plain = NoisePool(xi=anti.xi, antithetic=False)
        x = np.random.default_rng(9).standard_normal((32, target.dim)) * 2.0
        for t in (0.0, 0.5, 0.99):
            got = SteinMcDrift(target, 1.0, anti)(x, t)
            expect = SteinMcDrift(target, 1.0, plain)(x, t)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_large_pool_approaches_constant_drift(self):
        alpha, beta, M = 1.5, 2.0, 4096
        t = make_gaussian_mixture([1.0], [alpha], [beta])
        errs = []
        for p in range(200):
            pool = make_noise_pool(M, 1, RngStream(31, p))
            est = SteinMcDrift(t, beta, pool)(np.array([0.4]), 0.3)
            errs.append(np.sum((est - alpha) ** 2))
        rmse = np.sqrt(np.mean(errs))
        assert rmse < 5.0 * alpha / np.sqrt(M)

    def test_grad_form_rate_minus_half(self):
        target = pm2_target()
        x, tt = np.array([0.3]), 0.5
        exact = GmmExactDrift(target, 1.0)(x, tt)
        Ms = [16, 64, 256, 1024, 4096]
        rmse = []
        for M in Ms:
            errs = []
            for p in range(200):
                pool = make_noise_pool(M, 1, RngStream(777, p))
                est = SteinMcDrift(target, 1.0, pool, form="grad")(x, tt)
                errs.append(np.sum((est - exact) ** 2))
            rmse.append(np.sqrt(np.mean(errs)))
        slope, _, _ = fit_loglog_slope(Ms, rmse)
        assert -0.6 <= slope <= -0.4

    def test_stein_form_error_decreases_with_pool_size(self):
        target = pm2_target()
        x, tt = np.array([0.3]), 0.5
        exact = GmmExactDrift(target, 1.0)(x, tt)
        rmse = []
        for M in (16, 256, 4096):
            errs = []
            for p in range(100):
                pool = make_noise_pool(M, 1, RngStream(777, p))
                est = SteinMcDrift(target, 1.0, pool)(x, tt)
                errs.append(np.sum((est - exact) ** 2))
            rmse.append(np.sqrt(np.mean(errs)))
        assert rmse[0] > rmse[1] > rmse[2]

    def test_forms_agree_on_average(self):
        # both estimators are consistent for the same drift
        target = pm2_target()
        x, tt = np.array([0.3]), 0.5
        pool = make_noise_pool(65536, 1, RngStream(5, 0))
        a = SteinMcDrift(target, 1.0, pool)(x, tt)
        b = SteinMcDrift(target, 1.0, pool, form="grad")(x, tt)
        exact = GmmExactDrift(target, 1.0)(x, tt)
        assert a == pytest.approx(exact, abs=0.1)
        assert b == pytest.approx(exact, abs=0.1)

    def test_grad_form_matches_separate_evaluations(self):
        # one log_g_and_grad pass gives the drift of separate log_g_beta and grad V calls
        from sfsampler import log_g_beta

        target = make_two_mode_gmm(10, separation=6.0, variance=0.25)
        beta, tt = 5.0, 0.3
        pools = [make_noise_pool(200, 10, RngStream(8, i)) for i in range(16)]
        pool = NoisePool(xi=np.stack([p.xi for p in pools]))
        x = np.random.default_rng(2).standard_normal((16, 10)) * 3.0
        got = SteinMcDrift(target, beta, pool, form="grad")(x, tt)
        y = x[:, None, :] + np.sqrt((1.0 - tt) * beta) * pool.xi
        logg = log_g_beta(target, beta, y)
        p = np.exp(logg - logg.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        expect = beta * np.sum(p[..., None] * (-target.grad_potential(y) + y / beta), axis=-2)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_grad_form_under_rho_floor_matches_quadrature(self):
        # the floor has zero gradient: grad log g_rho is grad log g scaled by (1-rho) g / g_rho
        target = make_gaussian_mixture([0.5, 0.5], [-3.0, 3.0], [0.5, 0.5], rho=0.2)
        x, tt, beta = np.array([0.5]), 0.6, 1.0
        pool = make_noise_pool(200_000, 1, RngStream(3, 0), antithetic=True)
        est = SteinMcDrift(target, beta, pool, form="grad")(x, tt)
        exact = QuadratureDrift(target, beta)(x, tt)
        # delta-method standard error of the self-normalised estimate
        y = x + np.sqrt((1.0 - tt) * beta) * pool.xi
        logg, grad = target.log_g_and_grad(beta, y)
        p = np.exp(logg - logg.max())
        p /= p.sum()
        se = np.sqrt(np.sum(p**2 * (beta * grad[:, 0] - est[0]) ** 2))
        assert se < 0.02
        assert abs(est[0] - exact[0]) < 5.0 * se

    def test_zero_mass_error(self):
        # a hard-support potential far from the evaluation point zeroes every weight
        from sfsampler import make_custom

        t = make_custom(
            lambda x: np.where(np.sum(x * x, axis=-1) < 1.0, 0.0, np.inf), dim=1
        )
        pool = make_noise_pool(16, 1, RngStream(6, 0))
        with pytest.raises(ZeroMassError):
            SteinMcDrift(t, 1.0, pool)(np.array([50.0]), 0.5)

    def test_dimension_mismatch(self):
        t = pm2_target()
        pool = make_noise_pool(8, 2, RngStream(0, 0))
        with pytest.raises(ConfigError):
            SteinMcDrift(t, 1.0, pool)(np.zeros(1), 0.5)


def random_mixture(gen, kappa, d, full, rho):
    means = gen.uniform(-4.0, 4.0, (kappa, d))
    if full:
        a = gen.standard_normal((kappa, d, d))
        covs = [m @ m.T / d + 0.2 * np.eye(d) for m in a]
        covs = [0.5 * (c + c.T) for c in covs]
    else:
        covs = list(gen.uniform(0.2, 2.0, (kappa, d)))
    return make_gaussian_mixture(gen.dirichlet(np.ones(kappa)), means, covs, rho=rho)


def stacked_pool(n_chains, M, d, seed=8, antithetic=False):
    pools = [make_noise_pool(M, d, RngStream(seed, i), antithetic=antithetic) for i in range(n_chains)]
    return NoisePool(xi=np.stack([p.xi for p in pools]), antithetic=antithetic)


class TestPoolFrame:
    """The mixture pool evaluator against the default one, which builds y = x + sqrt(s) xi."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        kappa=st.integers(1, 3),
        d=st.integers(1, 6),
        full=st.booleans(),
        beta=st.floats(0.2, 5.0),
        t=st.floats(0.0, 0.99),
        rho=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_points(self, kappa, d, full, beta, t, rho, seed):
        gen = np.random.default_rng(seed)
        target = random_mixture(gen, kappa, d, full, rho)
        xi = gen.standard_normal((4, 16, d))
        x = gen.standard_normal((4, d)) * 3.0
        s = (1.0 - t) * beta
        frame, points = MixturePoolEvaluator(target, beta, xi), PoolEvaluator(target, beta, xi)
        logg, weighted = frame.log_g_and_grad(x, s)
        expect, expect_weighted = points.log_g_and_grad(x, s)
        scale = np.maximum(np.max(np.abs(expect), axis=-1, keepdims=True), 1.0)
        assert np.all(np.abs(logg - expect) <= 1e-9 * scale)
        assert np.array_equal(frame.log_g(x, s), logg)
        p = softmax(expect, axis=-1)
        # relative to the largest gradient over the pool, which the weighted sum may cancel
        _, grads = target.log_g_and_grad(beta, x[:, None, :] + np.sqrt(s) * xi)
        scale = np.maximum(np.max(np.abs(grads), axis=(-2, -1))[:, None], 1.0)
        assert np.all(np.abs(weighted(p) - expect_weighted(p)) <= 1e-9 * scale)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        r0=st.floats(0.5, 4.0),
        sigma=st.floats(0.05, 1.0),
        beta=st.floats(0.2, 5.0),
        t=st.floats(0.0, 0.99),
        rho=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_radial_frame_matches_the_points(self, r0, sigma, beta, t, rho, seed):
        gen = np.random.default_rng(seed)
        target = make_builtin("ring", r0=r0, sigma=sigma, rho=rho)
        xi = gen.standard_normal((5, 16, 2))
        x = gen.standard_normal((5, 2)) * 3.0
        x[0] = 0.0                                                     # at the origin
        x[1] *= (r0 + 50.0 * sigma) / np.linalg.norm(x[1])             # 50 sigma out
        s = (1.0 - t) * beta
        frame, points = RadialPoolEvaluator(target, beta, xi), PoolEvaluator(target, beta, xi)
        logg, weighted = frame.log_g_and_grad(x, s)
        expect, expect_weighted = points.log_g_and_grad(x, s)
        scale = np.maximum(np.max(np.abs(expect), axis=-1, keepdims=True), 1.0)
        assert np.all(np.abs(logg - expect) <= 1e-9 * scale)
        assert np.array_equal(frame.log_g(x, s), logg)
        p = softmax(expect, axis=-1)
        # relative to the largest gradient over the pool, which the weighted sum may cancel
        _, grads = target.log_g_and_grad(beta, x[:, None, :] + np.sqrt(s) * xi)
        scale = np.maximum(np.max(np.abs(grads), axis=(-2, -1))[:, None], 1.0)
        assert np.all(np.abs(weighted(p) - expect_weighted(p)) <= 1e-9 * scale)

    def test_mixtures_take_the_pool_frame_and_others_the_points(self):
        # the ring works from its radial profile in the frame of the pool; the funnel, with
        # neither a mixture nor a profile, takes the points
        xi = make_noise_pool(8, 2, RngStream(0, 0)).xi
        mixture = make_two_mode_gmm(2, separation=3.0, variance=0.5)
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        funnel = make_builtin("funnel", alpha=0.6)
        assert type(mixture.pool_evaluator(1.0, xi)) is MixturePoolEvaluator
        assert type(ring.pool_evaluator(1.0, xi)) is RadialPoolEvaluator
        assert type(SteinMcDrift(ring, 1.0, NoisePool(xi)).evaluator) is RadialPoolEvaluator
        assert type(funnel.pool_evaluator(1.0, xi)) is PoolEvaluator
        assert type(SteinMcDrift(funnel, 1.0, NoisePool(xi)).evaluator) is PoolEvaluator

    @pytest.mark.parametrize("form", ["stein", "grad"])
    def test_unstacked_pool_and_single_point(self, form):
        # drift-check passes one (M, d) pool for one point or for many
        target = make_gaussian_mixture(
            [0.4, 0.6], [[-1.0, 0.5], [2.0, -0.5]],
            [np.array([[1.0, 0.3], [0.3, 0.8]]), np.array([[0.5, -0.1], [-0.1, 1.2]])],
        )
        pool = make_noise_pool(64, 2, RngStream(4, 0))
        frame = SteinMcDrift(target, 2.0, pool, form=form)
        points = SteinMcDrift(target, 2.0, pool, form=form)
        points.evaluator = PoolEvaluator(target, 2.0, pool.xi)
        xs = np.random.default_rng(5).standard_normal((3, 2)) * 2.0
        for x in (xs[0], xs):
            got, expect = frame(x, 0.4), points(x, 0.4)
            assert got.shape == expect.shape == x.shape
            assert np.max(np.abs(got - expect)) < 1e-12

    def test_zero_mass_chain_ids_unchanged(self):
        target = make_two_mode_gmm(3, separation=3.0, variance=0.5)
        pool = stacked_pool(5, 16, 3)
        x = np.zeros((5, 3))
        x[[1, 3]] = 1e160  # the component quadratic forms overflow
        frame, points = SteinMcDrift(target, 1.0, pool), SteinMcDrift(target, 1.0, pool)
        points.evaluator = PoolEvaluator(target, 1.0, pool.xi)
        for drift in (frame, points):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ZeroMassError) as err:
                    drift(x, 0.5)
            assert err.value.chains == [1, 3]

    def test_weights_far_below_the_top_are_exactly_zero(self):
        # at t = 0, beta = 1 the points are y_j = xi_j, and the weight of the component at
        # +40 against the one at -40 is e^(80 y_j): below e^-700 for y_j < -8.75
        target = make_gaussian_mixture([0.5, 0.5], [-40.0, 40.0], [1.0, 1.0])
        xi = np.linspace(-12.0, 12.0, 97)[None, :, None]
        frame = MixturePoolEvaluator(target, 1.0, xi)
        forms = frame._evaluate(np.zeros((1, 1)), 1.0)[2][3]           # (kappa + 1, chains, M)
        weights = forms[:2, 0]
        log_ratio = -80.0 * np.abs(xi[0, :, 0])
        assert np.all(np.max(weights, axis=0) == 1.0)
        lower = np.min(weights, axis=0)
        assert np.all(lower[log_ratio < EXP_FLOOR] == 0.0)
        kept = log_ratio >= EXP_FLOOR
        assert np.all(lower[kept] > 0.0)
        assert np.allclose(np.log(lower[kept]), log_ratio[kept], rtol=1e-12, atol=1e-9)

    def test_floor_where_the_density_underflows(self):
        # a mean of 1e200 overflows every component form: the floor's uniform weights give an
        # antithetic Stein drift of exactly 0, and the gradient is 0 there, not NaN
        target = make_gaussian_mixture([0.5, 0.5], [1e200, -1e200], [1.0, 1.0], rho=0.2)
        pool = stacked_pool(3, 8, 1, antithetic=True)
        x = np.array([[0.5], [-1.0], [2.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            stein = SteinMcDrift(target, 1.0, pool)(x, 0.3)
            grad = SteinMcDrift(target, 1.0, pool, form="grad")(x, 0.3)
        assert np.array_equal(stein, np.zeros((3, 1)))
        assert np.array_equal(grad, np.zeros((3, 1)))

    def test_grad_call_builds_no_pool_sized_array(self):
        # one (B, M, d) array of pool points at B = 512, M = 200, d = 10 takes 8.2 MB. At
        # d = 2 such an array is only twice a (B, M) one, so the ring's calls run its own
        # profile and evaluator on a 10-d shell, where their (B, M) arrays are a tenth of it
        mixture = make_two_mode_gmm(10, separation=6.0, variance=0.25)
        shell = replace(make_builtin("ring", r0=2.0, sigma=0.2), dim=10)
        pool = stacked_pool(512, 200, 10)
        x = np.random.default_rng(2).standard_normal((512, 10)) * 3.0
        for target, beta, form in [(mixture, 5.0, "grad"), (shell, 1.0, "stein"),
                                   (shell, 1.0, "grad")]:
            drift = SteinMcDrift(target, beta, pool, form=form)
            assert type(drift.evaluator) is not PoolEvaluator
            tracemalloc.start()
            try:
                drift(x, 0.3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6, (target.kind, form, peak)

    def test_pool_squares_are_built_a_run_of_pools_at_a_time(self, monkeypatch):
        # xi^2 over a (128, 200, 10) block would take 2 MB beside the 0.6 MB forms; runs of
        # whole pools give the same bytes whatever the run length, one pool at a time too
        target = make_two_mode_gmm(10, separation=6.0, variance=0.25)
        xi = stacked_pool(128, 200, 10).xi
        tracemalloc.start()
        try:
            quad = MixturePoolEvaluator(target, 5.0, xi).quad
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < quad.nbytes + targets.POOL_RUN_BYTES + 2e5, peak
        for run_bytes in (1, 3 * xi[0].nbytes, xi.nbytes):
            monkeypatch.setattr(targets, "POOL_RUN_BYTES", run_bytes)
            assert MixturePoolEvaluator(target, 5.0, xi).quad.tobytes() == quad.tobytes()
        single = MixturePoolEvaluator(target, 5.0, xi[7]).quad
        assert single.shape == (3, 200) and single.tobytes() == quad[:, 7].tobytes()


def row_points(x, r, xi):
    """The points x + r xi_j built the plain way, as a C-contiguous (B, M, d) array."""
    return np.ascontiguousarray(x[:, None, :] + r * xi)


class TestPoolLayout:
    """The pool-axis-last points and sums against a reference from contiguous (B, M, d) points."""

    RING = make_builtin("ring", r0=2.0, sigma=0.2)
    FUNNEL = make_builtin("funnel", alpha=0.6)

    @staticmethod
    def reference(target, beta, xi, x, t, form, antithetic):
        s = (1.0 - t) * beta
        y = row_points(x, np.sqrt(s), xi)
        if form == "grad":
            logg, grad = log_g_and_grad(target, beta, y)
        else:
            logg = log_g_beta(target, beta, y)
        p = softmax(logg, axis=-1)
        if form == "grad":
            return beta * np.einsum("bm,bmd->bd", p, grad)
        if antithetic:
            paired = p[:, 0::2, None] * xi[:, 0::2] + p[:, 1::2, None] * xi[:, 1::2]
            return np.sqrt(beta / (1.0 - t)) * paired.sum(axis=1)
        return np.sqrt(beta / (1.0 - t)) * np.einsum("bm,bmd->bd", p, xi)

    @pytest.mark.parametrize("form, antithetic", [("stein", False), ("stein", True), ("grad", False)])
    @pytest.mark.parametrize("kind", ["ring", "funnel"])
    def test_mc_drift_matches_row_points(self, kind, form, antithetic):
        target = self.RING if kind == "ring" else self.FUNNEL
        pool = stacked_pool(64, 40, 2, antithetic=antithetic)
        drift = SteinMcDrift(target, 1.0, pool, form=form)
        x = np.random.default_rng(3).standard_normal((64, 2)) * 1.5
        for t in (0.0, 0.5, 0.9):
            got = drift(x, t)
            expect = self.reference(target, 1.0, pool.xi, x, t, form, antithetic)
            assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(np.abs(expect), 1.0))

    @pytest.mark.parametrize("kind", ["ring", "funnel"])
    def test_plain_stein_keeps_the_bytes_of_row_points(self, kind):
        # the Stein sum reads the rows: the weights exp(log g - top), summed against the pool
        # as stored, then divided by their total; the funnel's points are the same sums in
        # the same order as row points, and the ring's log g comes from its radial evaluator
        target = self.RING if kind == "ring" else self.FUNNEL
        pool = stacked_pool(64, 40, 2)
        x = np.random.default_rng(4).standard_normal((64, 2))
        beta, t = 1.0, 0.3
        s = (1.0 - t) * beta
        logg = target.pool_evaluator(beta, pool.xi).log_g(x, s)
        if kind == "funnel":
            points = x[:, None, :] + np.sqrt(s) * pool.xi
            assert logg.tobytes() == log_g_beta(target, beta, points).tobytes()
        e = np.exp(logg - np.max(logg, axis=-1, keepdims=True))
        expect = (e[:, None, :] @ pool.xi)[:, 0, :] / np.sum(e, axis=-1)[:, None]
        expect *= np.sqrt(beta / (1.0 - t))
        assert SteinMcDrift(target, beta, pool)(x, t).tobytes() == expect.tobytes()

    def test_points_are_the_view_of_a_pool_axis_last_array(self):
        pool = stacked_pool(8, 16, 3)
        evaluator = PoolEvaluator(self.RING, 1.0, pool.xi)
        assert evaluator.xi_t.shape == (8, 3, 16) and evaluator.xi_t.flags.c_contiguous
        x = np.random.default_rng(5).standard_normal((8, 3))
        y = evaluator._points(x, 0.7)
        assert y.shape == (8, 16, 3) and np.swapaxes(y, -1, -2).flags.c_contiguous
        assert y.tobytes() == row_points(x, np.sqrt(0.7), pool.xi).tobytes()

    def test_quadrature_matches_row_points(self):
        from sfsampler.numerics import gauss_hermite_normal

        beta, n = 1.0, 32
        z, w = gauss_hermite_normal(n)
        z1, z2 = np.meshgrid(z, z, indexing="ij")
        nodes = np.stack([z1.ravel(), z2.ravel()], axis=-1)            # (n^2, 2) rows
        log_wts = (np.log(w)[:, None] + np.log(w)[None, :]).ravel()
        drift = QuadratureDrift(self.RING, beta, n_nodes=n)
        x = np.random.default_rng(6).standard_normal((16, 2)) * 1.5
        for t in (0.0, 0.5, 0.9):
            s = (1.0 - t) * beta
            y = row_points(x, np.sqrt(s), np.broadcast_to(nodes, (16,) + nodes.shape))
            p = softmax(log_wts + log_g_beta(self.RING, beta, y), axis=-1)
            expect = np.sqrt(beta / (1.0 - t)) * np.einsum("bm,md->bd", p, nodes)
            got = drift(x, t)
            assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(np.abs(expect), 1.0))


class TestQuadratureDrift:
    def test_centered_gaussian_zero(self):
        beta = 2.0
        t = make_gaussian_mixture([1.0], [[0.0, 0.0]], [beta * np.eye(2)])
        f = QuadratureDrift(t, beta)(np.array([0.3, -0.8]), 0.4)
        assert f == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_shifted_gaussian_constant(self):
        beta = 2.0
        t = make_gaussian_mixture([1.0], [1.5], [beta])
        f = QuadratureDrift(t, beta)(np.array([0.4]), 0.3)
        assert f == pytest.approx([1.5], abs=1e-8)

    def test_ring_regression_pin(self):
        # frozen 64-node value; guards refactors of the oracle itself
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        f = QuadratureDrift(ring, 1.0)(np.array([1.0, 0.0]), 0.2)
        assert f[0] == pytest.approx(0.7102051705436702, abs=1e-12)
        assert f[1] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_limit(self):
        t = make_two_mode_gmm(3)
        with pytest.raises(ConfigError):
            QuadratureDrift(t, 1.0)(np.zeros(3), 0.5)


class TestMakeDrift:
    def test_variants_construct(self):
        t = pm2_target()
        pool = make_noise_pool(8, 1, RngStream(0, 0))
        assert make_drift(t, 1.0, "gmm_exact") is not None
        assert make_drift(t, 1.0, "stein_mc", pool=pool) is not None
        assert make_drift(t, 1.0, "grad_mc", pool=pool) is not None
        assert make_drift(t, 1.0, "quadrature") is not None

    def test_mc_variant_needs_pool(self):
        with pytest.raises(ConfigError):
            make_drift(pm2_target(), 1.0, "stein_mc")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            make_drift(pm2_target(), 1.0, "magic")
