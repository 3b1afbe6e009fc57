"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each test exercises the full pipeline at the scale stated in its docstring and
prints a single summary line (bypassing capture, so the line lands in the
terminal log next to the pytest verdict).
"""

import json
import sys
import time

import numpy as np

from sfsampler import (
    GmmExactDrift,
    LangevinConfig,
    QuadratureDrift,
    RngStream,
    SfsConfig,
    SteinMcDrift,
    fit_loglog_slope,
    gaussian_w2_analytic,
    make_builtin,
    make_gaussian_mixture,
    make_noise_pool,
    make_two_mode_gmm,
    mode_weights,
    moment_stats,
    run_ensemble,
    strong_error_curve,
    w2_1d,
    w2_exact_smalln,
)
from sfsampler.cli import main


REPORT_LINES = []


def _report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def skewed_bimodal_target(separation=6.0):
    return make_gaussian_mixture([0.75, 0.25], [-separation, separation], [0.2, 0.8])


def test_criterion_01_gaussian_exactness():
    """N(1.5*1_5, 2 I): terminal law exact; coupled strong error at roundoff; < 30 s."""
    t0 = time.perf_counter()
    d, beta, n_chains = 5, 2.0, 100_000
    alpha = 1.5 * np.ones(d)
    target = make_gaussian_mixture([1.0], [alpha], [beta * np.eye(d)])
    cfg = SfsConfig(n_steps=32, beta=beta, drift="gmm_exact")
    batch = run_ensemble(cfg, target, n_chains=n_chains, root_seed=42, threads=4)
    mean, cov = moment_stats(batch)

    mean_tol = 5.0 * np.sqrt(beta / n_chains)
    mean_err = float(np.max(np.abs(mean - alpha)))
    cov_rel = float(
        np.linalg.norm(cov - beta * np.eye(d)) / np.linalg.norm(beta * np.eye(d))
    )
    # coupled error against a finer grid: zero in exact arithmetic (the drift is
    # the constant alpha), so only accumulation-order roundoff remains
    curve = strong_error_curve(
        target, cfg, [2.0**-5], ref_level=9, n_chains=256, root_seed=42
    )
    rmse = float(curve.rmse[0])
    elapsed = time.perf_counter() - t0

    ok = mean_err < mean_tol and cov_rel < 0.05 and rmse <= 1e-12 and elapsed < 30.0
    _report(
        1,
        "Gaussian exactness",
        ok,
        f"mean err {mean_err:.4f} < {mean_tol:.4f}, cov rel {cov_rel:.4f} < 0.05, "
        f"coupled rmse {rmse:.2e} <= 1e-12, {elapsed:.1f} s < 30 s",
    )


def test_criterion_02_strong_convergence_rate():
    """Exact-drift coupled strong error is order one in h; < 3 min."""
    t0 = time.perf_counter()
    target = make_gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [0.8, 0.8])
    cfg = SfsConfig(n_steps=1, beta=1.0, drift="gmm_exact")
    h_list = [2.0**-k for k in range(5, 10)]
    report = strong_error_curve(
        target, cfg, h_list, ref_level=12, n_chains=1000, root_seed=123
    )
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= report.slope <= 1.15 and elapsed < 180.0
    _report(
        2,
        "strong convergence rate",
        ok,
        f"slope {report.slope:.3f} in [0.85, 1.15], r^2 {report.r_squared:.4f}, "
        f"{elapsed:.1f} s < 180 s",
    )


def test_criterion_03_mc_drift_rate():
    """Monte Carlo drift error decays as M^(-1/2) at a fixed (x, t)."""
    target = skewed_bimodal_target(separation=2.0)
    x, t = np.array([0.3]), 0.5
    exact = GmmExactDrift(target, 1.0)(x, t)
    Ms = [16, 64, 256, 1024, 4096]
    rmse = []
    for M in Ms:
        errs = []
        for p in range(200):
            pool = make_noise_pool(M, 1, RngStream(777, p))
            est = SteinMcDrift(target, 1.0, pool, form="grad")(x, t)
            errs.append(np.sum((est - exact) ** 2))
        rmse.append(float(np.sqrt(np.mean(errs))))
    slope, _, r2 = fit_loglog_slope(Ms, rmse)
    ok = -0.6 <= slope <= -0.4
    _report(
        3,
        "MC drift rate",
        ok,
        f"slope {slope:.3f} in [-0.6, -0.4], r^2 {r2:.4f}, rmse {rmse[0]:.3f} -> {rmse[-1]:.3f}",
    )


def _zoo_targets():
    lam = [6.0 if i % 2 == 0 else 2.0 * np.sqrt(3.0) for i in range(8)]
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    ring_means = np.stack(
        [l * np.array([np.cos(a), np.sin(a)]) for l, a in zip(lam, angles)]
    )
    return [
        ("single 2-d", make_gaussian_mixture(
            [1.0], [[0.5, -0.5]], [np.array([[1.0, 0.3], [0.3, 0.8]])]
        )),
        ("pm2 1-d", skewed_bimodal_target(2.0)),
        ("pm6 1-d", skewed_bimodal_target(6.0)),
        ("two-mode 2-d", make_two_mode_gmm(2, separation=3.0, variance=0.5)),
        ("kappa=8 ring", make_gaussian_mixture(
            np.full(8, 1.0 / 8.0), ring_means, [0.2 * np.eye(2)] * 8
        )),
    ]


def test_criterion_04_drift_oracle_agreement():
    """Closed-form mixture drift matches 64-node quadrature on the zoo."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _, target in _zoo_targets():
        d = target.dim
        for _ in range(50):
            x = rng.standard_normal(d) * 2.0
            t = rng.uniform(0.0, 1.0 - 2.0**-9)
            f = GmmExactDrift(target, 1.0)(x, t)
            q = QuadratureDrift(target, 1.0)(x, t)
            worst = max(worst, float(np.max(np.abs(f - q))))
    ok = worst < 1e-6
    _report(4, "drift oracle agreement", ok, f"max |closed - quadrature| {worst:.2e} < 1e-6")


def test_criterion_05_multimodal_recovery():
    """Exact-drift sampler recovers (0.75, 0.25); Langevin baselines collapse."""
    target = skewed_bimodal_target(6.0)
    centers = [[-6.0], [6.0]]
    radius = 2.0
    theta = np.array([0.75, 0.25])

    cfg = SfsConfig(n_steps=1000, beta=1.0, drift="gmm_exact")
    batch = run_ensemble(cfg, target, n_chains=2000, root_seed=11, threads=4)
    sfs_w = mode_weights(batch, centers, radius).weights
    sfs_err = float(np.max(np.abs(sfs_w - theta)))

    baseline_errs = {}
    for method in ("ula", "uld"):
        lcfg = LangevinConfig(step=1e-3, horizon=10.0, method=method)
        lb = run_ensemble(lcfg, target, n_chains=2000, root_seed=11, threads=4)
        w = mode_weights(lb, centers, radius).weights
        baseline_errs[method] = float(np.max(np.abs(w - theta)))

    ok = sfs_err <= 0.05 and all(e >= 2.0 * sfs_err for e in baseline_errs.values())
    _report(
        5,
        "multimodal recovery",
        ok,
        f"weights ({sfs_w[0]:.3f}, {sfs_w[1]:.3f}) err {sfs_err:.3f} <= 0.05; "
        f"ula err {baseline_errs['ula']:.3f}, uld err {baseline_errs['uld']:.3f} "
        f">= {2.0 * sfs_err:.3f}",
    )


def test_criterion_06_temperature_invariance():
    """The terminal law does not depend on the temperature beta."""
    target = skewed_bimodal_target(6.0)
    n_chains, n_steps = 5000, 4000
    batches = {}
    for beta, seed in ((1.0, 21), (2.0, 22)):
        cfg = SfsConfig(n_steps=n_steps, beta=beta, drift="gmm_exact")
        batches[beta] = run_ensemble(cfg, target, n_chains, root_seed=seed, threads=4).samples

    cross = w2_1d(batches[1.0], batches[2.0])
    gen = np.random.default_rng(0)
    floor_trials = []
    base = np.ravel(batches[1.0])
    for _ in range(50):
        r1 = gen.choice(base, size=n_chains, replace=True)
        r2 = gen.choice(base, size=n_chains, replace=True)
        floor_trials.append(w2_1d(r1, r2))
    floor = float(np.median(floor_trials))
    ok = cross <= 1.5 * floor
    _report(
        6,
        "temperature invariance",
        ok,
        f"cross-beta W2 {cross:.3f} <= 1.5 x resampling floor {floor:.3f} = {1.5 * floor:.3f}",
    )


def test_criterion_07_temperature_benefit_at_scale():
    """d=10, far-apart modes, Monte Carlo drift: beta=5 captures both modes."""
    d = 10
    target = make_two_mode_gmm(d, separation=6.0, variance=0.25)
    centers = np.stack([-6.0 * np.ones(d), 6.0 * np.ones(d)])
    radius = 4.8
    weights = {}
    for beta in (5.0, 1.0):
        cfg = SfsConfig(n_steps=1000, beta=beta, drift="grad_mc", n_mc=200)
        batch = run_ensemble(cfg, target, n_chains=1000, root_seed=2024, threads=4)
        weights[beta] = mode_weights(batch, centers, radius).weights
    w5 = weights[5.0]
    ok = bool(np.all(w5 >= 0.2))
    _report(
        7,
        "temperature benefit at scale",
        ok,
        f"beta=5 weights ({w5[0]:.3f}, {w5[1]:.3f}) both >= 0.2; "
        f"beta=1 weights ({weights[1.0][0]:.3f}, {weights[1.0][1]:.3f}) reported alongside",
    )


def test_criterion_08_ring_geometry():
    """Monte Carlo sampler reproduces the ring's radial geometry."""
    ring = make_builtin("ring", r0=2.0, sigma=0.2)
    cfg = SfsConfig(n_steps=1000, beta=1.0, drift="stein_mc", n_mc=200)
    batch = run_ensemble(cfg, ring, n_chains=2000, root_seed=99, threads=4)
    radii = np.sqrt(np.sum(batch.samples**2, axis=1))
    mean_r, std_r = float(np.mean(radii)), float(np.std(radii))
    ok = abs(mean_r - 2.0) <= 0.1 and abs(std_r - 0.2) <= 0.1
    _report(
        8,
        "ring geometry",
        ok,
        f"mean radius {mean_r:.3f} in 2 +- 0.1, radius std {std_r:.3f} in 0.2 +- 0.1",
    )


def test_criterion_09_w2_estimator_correctness():
    """Exact W2 estimator against the analytic Gaussian oracle and the 1-d coupling."""
    gen = np.random.default_rng(7)
    a = gen.standard_normal((512, 2))
    b = gen.standard_normal((512, 2)) + np.array([2.0, 0.0])
    analytic = gaussian_w2_analytic(np.zeros(2), np.eye(2), [2.0, 0.0], np.eye(2))
    est = w2_exact_smalln(a, b)
    gauss_err = abs(est - analytic)

    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        n = int(rng.integers(4, 64))
        u = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        v = rng.standard_normal(n) + rng.uniform(-2.0, 2.0)
        worst = max(worst, abs(w2_1d(u, v) - w2_exact_smalln(u[:, None], v[:, None])))
    ok = gauss_err < 0.15 and worst < 1e-10
    _report(
        9,
        "W2 estimator correctness",
        ok,
        f"|exact - analytic 2| = {gauss_err:.3f} < 0.15; "
        f"max 1-d vs assignment gap {worst:.1e} < 1e-10",
    )


def test_criterion_10_determinism(tmp_path):
    """`compare` output bytes do not depend on the worker count or the rerun."""
    target = {
        "kind": "gaussian_mixture",
        "weights": [0.75, 0.25],
        "means": [-2.0, 2.0],
        "covs": [0.2, 0.8],
    }
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        cfg_path = tmp_path / f"cfg{threads}.json"
        cfg_path.write_text(json.dumps({
            "target": target,
            "betas": [1.0, 2.0],
            "h": 2.0**-6,
            "n_chains": 1030,
            "seed": 31,
            "threads": threads,
            "out": str(out),
        }))
        assert main(["compare", "--config", str(cfg_path)]) == 0
        outputs[threads] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    same_names = set(outputs[1]) == set(outputs[8])
    same_bytes = same_names and all(
        outputs[1][name] == outputs[8][name] for name in outputs[1]
    )
    ok = same_names and same_bytes and len(outputs[1]) >= 5
    _report(
        10,
        "determinism",
        ok,
        f"{len(outputs[1])} artifacts byte-identical across 1 vs 8 workers",
    )
