"""Correctness checks for the benchmark workloads.

Every check compares program output against a computation made here with
NumPy and the standard library, or against a property the sampler must have.
None reads a stored copy of earlier output. Each check returns a list of
problems; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# z-score used for every sampling-error tolerance
Z = 5.0


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def mixture_moments(weights, means, covs):
    """Mean and covariance of sum_k w_k N(m_k, C_k)."""
    w = np.asarray(weights, float)
    m = np.asarray(means, float)
    mean = w @ m
    second = sum(wk * (np.asarray(ck, float) + np.outer(mk, mk)) for wk, mk, ck in zip(w, m, covs))
    return mean, second - np.outer(mean, mean)


def draw_mixture(gen, n, weights, means, covs):
    """n i.i.d. draws from a Gaussian mixture, by component index then Cholesky factor."""
    means = np.asarray(means, float)
    idx = np.searchsorted(np.cumsum(weights), gen.random(n), side="right")
    idx = np.minimum(idx, len(weights) - 1)
    z = gen.standard_normal((n, means.shape[1]))
    out = np.empty_like(z)
    for k, ck in enumerate(covs):
        sel = idx == k
        out[sel] = means[k] + z[sel] @ np.linalg.cholesky(np.asarray(ck, float)).T
    return out


def nearest_centre_weights(samples, centres, radius):
    """Share of samples whose nearest centre lies within radius, per centre."""
    samples = np.atleast_2d(samples)
    centres = np.atleast_2d(centres)
    dist = np.sqrt(((samples[:, None, :] - centres[None, :, :]) ** 2).sum(-1))
    near = dist.argmin(1)
    hit = dist[np.arange(len(samples)), near] <= radius
    return np.bincount(near[hit], minlength=len(centres)) / len(samples)


def w2_sorted_1d(a, b):
    """Exact empirical W2 between equal-size 1-d samples (sorted coupling)."""
    a = np.sort(np.ravel(a))
    b = np.sort(np.ravel(b))
    return float(np.sqrt(np.mean((a - b) ** 2)))


def check_binomial(label, observed, expected, n, extra=0.0):
    """Each observed share within Z binomial standard errors (+ extra) of expected."""
    problems = []
    for k, (o, e) in enumerate(zip(observed, expected)):
        tol = Z * math.sqrt(max(e * (1.0 - e), 1e-12) / n) + extra
        if not abs(o - e) <= tol:
            problems.append(f"{label}: share of mode {k} is {o:.4f}, expected {e:.4f} +- {tol:.4f}")
    return problems


def check_close(label, a, b, tol=1e-10):
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=tol):
        return [f"{label}: program value {a.tolist()} disagrees with the recomputed {b.tolist()}"]
    return []


# --- bimodal_1d -----------------------------------------------------------------


def bimodal_capture(theta, centres, variances, radius):
    """Expected mass of each mode's capture ball |x - c_k| <= radius.

    The modes sit far apart relative to their widths, so the mass a component
    puts into another component's ball is below double precision and omitted.
    """
    return [
        t * (2.0 * normal_cdf(radius / math.sqrt(v)) - 1.0)
        for t, v in zip(theta, variances)
    ]


def mode_error(weights, theta):
    return float(np.max(np.abs(np.asarray(weights) - np.asarray(theta))))


def check_langevin_collapse(sfs_errors, langevin_errors):
    """Langevin baselines miss the far mode: error at least twice the worst SFS error."""
    worst = max(sfs_errors.values())
    return [
        f"{lab}: mode error {err:.4f} is not at least twice the SFS error {worst:.4f}"
        for lab, err in langevin_errors.items()
        if not err >= 2.0 * worst
    ]


def resampling_floor(gen, n, theta, centres, variances, pairs=16):
    """Median 1-d W2 between two independent size-n samples of the mixture."""
    means = np.reshape(centres, (-1, 1))
    covs = [np.array([[v]]) for v in variances]
    vals = [
        w2_sorted_1d(draw_mixture(gen, n, theta, means, covs), draw_mixture(gen, n, theta, means, covs))
        for _ in range(pairs)
    ]
    return float(np.median(vals))


def check_temperature_invariance(w2_between, floor, factor=3.0):
    """Samples at two temperatures are as close as two i.i.d. samples, up to factor."""
    if not w2_between <= factor * floor:
        return [f"W2 between temperatures {w2_between:.4f} exceeds {factor} x floor {floor:.4f}"]
    return []


def check_slope(slope, lo=0.85, hi=1.15):
    """The paper's order-one strong rate."""
    if slope is None or not lo <= slope <= hi:
        return [f"convergence slope {slope} outside [{lo}, {hi}]"]
    return []


# --- mixture_d5_full ---------------------------------------------------------------


def check_moments(label, samples, weights, means, covs, ref):
    """Sample mean and covariance against the mixture's analytic moments.

    Standard errors come from a large i.i.d. reference sample `ref`, which
    captures the mixture's fourth moments; the tolerance is Z of them.
    """
    n = len(samples)
    mean, cov = mixture_moments(weights, means, covs)
    problems = []
    se_mean = np.sqrt(np.diag(cov) / n)
    err = np.abs(samples.mean(0) - mean)
    if not np.all(err <= Z * se_mean):
        j = int(np.argmax(err / se_mean))
        problems.append(f"{label}: mean[{j}] off by {err[j]:.4f} > {Z} SE ({se_mean[j]:.4f})")
    cen = ref - mean
    prod = cen[:, :, None] * cen[:, None, :]
    se_cov = prod.std(0) / np.sqrt(n)
    cerr = np.abs(np.cov(samples.T) - cov)
    if not np.all(cerr <= Z * se_cov):
        i, j = np.unravel_index(int(np.argmax(cerr / se_cov)), cerr.shape)
        problems.append(
            f"{label}: cov[{i},{j}] off by {cerr[i, j]:.4f} > {Z} SE ({se_cov[i, j]:.4f})"
        )
    return problems


def check_mixture_modes(label, samples, reported_weights, centres, radius, ref):
    """Nearest-centre shares against those of a large i.i.d. reference sample."""
    own = nearest_centre_weights(samples, centres, radius)
    problems = check_close(f"{label} mode weights", reported_weights, own)
    expected = nearest_centre_weights(ref, centres, radius)
    # the reference share is itself estimated; add its own binomial error
    extra = Z * math.sqrt(0.25 / len(ref))
    return problems + check_binomial(label, own, expected, len(samples), extra=extra)


def w2_assignment(a, b):
    """Exact empirical W2 between equal-size samples by optimal assignment."""
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def w2_iid_floor(gen, n, weights, means, covs, pairs=8):
    """Median exact W2 between two independent size-n samples of the mixture.

    The W2 of a single pair is dominated by mode-share fluctuations: at n=512 it
    varied by a factor of 1.66 over 20 pairs, so one pair is no floor.
    """
    return float(np.median([
        w2_assignment(draw_mixture(gen, n, weights, means, covs),
                      draw_mixture(gen, n, weights, means, covs))
        for _ in range(pairs)
    ]))


def check_w2_ratio(label, w2_to_iid, floor, factor=2.5):
    """W2 to an i.i.d. sample within `factor` of the i.i.d. floor (about 5 sigma)."""
    if not w2_to_iid <= factor * floor:
        return [f"{label}: W2 to i.i.d. {w2_to_iid:.4f} exceeds {factor} x i.i.d. floor {floor:.4f}"]
    return []


# --- mc_d10_ring -----------------------------------------------------------------------


def check_both_modes(label, weights, floor=0.2):
    if not np.all(np.asarray(weights) >= floor):
        return [f"{label}: mode weights {np.round(weights, 4).tolist()} not all >= {floor}"]
    return []


def check_ring(samples, r0=2.0, sigma=0.2, tol=0.1):
    r = np.sqrt((np.asarray(samples) ** 2).sum(1))
    problems = []
    if not abs(r.mean() - r0) <= tol:
        problems.append(f"ring: mean radius {r.mean():.4f} not in {r0} +- {tol}")
    if not abs(r.std() - sigma) <= tol:
        problems.append(f"ring: radius std {r.std():.4f} not in {sigma} +- {tol}")
    return problems


# --- gaussian_d100 ---------------------------------------------------------------------


def euler_gaussian_moments(alpha, var, beta, n_steps):
    """Exact mean and variance of the Euler chain for a diagonal Gaussian target.

    For N(alpha, var) per coordinate the drift is linear,
    f(x, t) = ((var - beta) x + beta alpha) / (t var + (1 - t) beta),
    so the Euler recursion Y <- Y + h f(Y, t) + sqrt(beta) dW keeps a Gaussian
    law whose moments follow a scalar recursion from Y_0 = 0.
    """
    alpha, var = np.asarray(alpha, float), np.asarray(var, float)
    h = 1.0 / n_steps
    m = np.zeros_like(alpha)
    v = np.zeros_like(alpha)
    for n in range(n_steps):
        t = n * h
        den = t * var + (1.0 - t) * beta
        a = 1.0 + h * (var - beta) / den
        m = a * m + h * beta * alpha / den
        v = a * a * v + beta * h
    return m, v


def check_gaussian(samples, alpha, var, beta, n_steps, reported_mean=None):
    """Per-coordinate mean and variance: Z standard errors plus the Euler O(h) bias."""
    n = len(samples)
    m_euler, v_euler = euler_gaussian_moments(alpha, var, beta, n_steps)
    mean = samples.mean(0)
    svar = samples.var(0, ddof=1)
    problems = []
    if reported_mean is not None:
        problems += check_close("moment_stats mean", reported_mean, mean)
    tol_m = Z * np.sqrt(v_euler / n) + np.abs(m_euler - alpha)
    tol_v = Z * v_euler * np.sqrt(2.0 / (n - 1)) + np.abs(v_euler - var)
    bad_m = np.nonzero(np.abs(mean - alpha) > tol_m)[0]
    bad_v = np.nonzero(np.abs(svar - var) > tol_v)[0]
    if bad_m.size:
        j = bad_m[0]
        problems.append(f"d100: {bad_m.size} coordinate means off; dim {j}: {mean[j]:.4f} vs {alpha[j]:.4f} +- {tol_m[j]:.4f}")
    if bad_v.size:
        j = bad_v[0]
        problems.append(f"d100: {bad_v.size} coordinate variances off; dim {j}: {svar[j]:.4f} vs {var[j]:.4f} +- {tol_v[j]:.4f}")
    return problems
