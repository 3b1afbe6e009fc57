"""Drift evaluators for the temperature-scaled diffusion.

The drift is beta * grad log E[g_beta(x + sqrt((1-t) beta) xi)], xi ~ N(0, I):
closed form for Gaussian mixtures, a gradient-free Monte Carlo estimator with
a fixed noise pool for general targets, and a deterministic Gauss-Hermite
oracle (d <= 2) for testing. All component/sample weighting happens in the
log domain to survive exponents of quadratic forms at far-apart modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ZeroMassError
from .numerics import gauss_hermite_normal, softmax
from .rng import RngStream, _as_generator
from .targets import GaussianMixture, TargetSpec

DRIFT_VARIANTS = ("gmm_exact", "stein_mc", "grad_mc", "quadrature")


def _check_t(t) -> float:
    t = float(t)
    if not (0.0 <= t < 1.0):
        raise ValueError(f"drift is defined for t in [0, 1), got t={t}")
    return t


@dataclass(frozen=True)
class NoisePool:
    """M standard-normal vectors drawn once per chain and reused at every step.

    With antithetic=True the pool holds exact negation pairs (xi_{2j+1} =
    -xi_{2j}), so constant-weight averages cancel to exactly zero.
    """

    xi: np.ndarray  # (M, d), or (B, M, d) for a stacked per-chain batch
    antithetic: bool = False

    @property
    def dim(self) -> int:
        return self.xi.shape[-1]


def make_noise_pool(M, d, rng, antithetic=False) -> NoisePool:
    """Draw a pool of M standard-normal d-vectors from the given stream."""
    if M < 2:
        raise ConfigError(f"pool size M must be >= 2, got {M}")
    if antithetic and M % 2 != 0:
        raise ConfigError(f"antithetic pools need even M, got {M}")
    gen = _as_generator(rng)
    if antithetic:
        half = gen.standard_normal((M // 2, d))
        xi = np.empty((M, d))
        xi[0::2] = half
        xi[1::2] = -half
    else:
        xi = gen.standard_normal((M, d))
    xi.setflags(write=False)
    return NoisePool(xi=xi, antithetic=antithetic)


def stack_pools(pools) -> NoisePool:
    """Stack per-chain pools into one (B, M, d) pool for batched evaluation."""
    xi = np.stack([p.xi for p in pools])
    return NoisePool(xi=xi, antithetic=all(p.antithetic for p in pools))


class GmmExactDrift:
    """Closed-form drift for Gaussian-mixture targets.

    The reference N(0, beta I) is isotropic, so in component i's eigenbasis
    (Sigma_i = Q_i diag(lambda_i) Q_i^T) the smoothed covariance
    C_i(t) = Q_i (t lambda_i + s) Q_i^T, s = (1-t) beta, is diagonal. With
    rotated coordinates x~ = Q_i^T x and alpha~ = Q_i^T alpha_i, the smoothed
    component mean is u~ = (lambda_i x~ + s alpha~) / (t lambda_i + s) and the
    drift is (sum_i p_i Q_i u~_i - x) / (1 - t), with log-domain weights p_i
    built from theta_i, det C_i and the component quadratic forms. Both
    rotations are skipped when every covariance is diagonal.
    """

    def __init__(self, target, beta):
        gmm = target.mixture if isinstance(target, TargetSpec) else target
        if not isinstance(gmm, GaussianMixture):
            raise ConfigError("exact drift requires a Gaussian-mixture target")
        self.beta = float(beta)
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ConfigError(f"beta must be positive and finite, got {beta}")
        self.log_theta = np.log(gmm.weights)
        self.sig = gmm.eigvals                       # (kappa, d)
        self.alpha = gmm.rotated_means               # (kappa, d)
        self.alpha_quad = np.sum(self.alpha**2 / self.sig, axis=-1)
        self.diagonal = gmm.rotations is None
        if not self.diagonal:
            # x @ rot_in stacks x Q_i over components; w @ rot_in.T sums w_i Q_i^T
            self.rot_in = np.concatenate(gmm.rotations, axis=1)   # (d, kappa d)

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        beta = self.beta
        s = (1.0 - t) * beta
        # (..., kappa, d) intermediates
        if self.diagonal:
            xk = x[..., None, :]
        else:
            xk = (x @ self.rot_in).reshape(x.shape[:-1] + self.sig.shape)
        c = t * self.sig + s
        u = (self.sig * xk + s * self.alpha) / c
        term = (
            xk * xk * (self.sig - beta) / (2.0 * beta)
            + xk * self.alpha
            + 0.5 * s * self.alpha**2 / self.sig
        ) / c
        logw = (
            self.log_theta
            - 0.5 * np.sum(np.log(c), axis=-1)
            + np.sum(term, axis=-1)
            - 0.5 * self.alpha_quad
        )
        p = softmax(logw, axis=-1)
        if self.diagonal:
            return (np.sum(p[..., None] * u, axis=-2) - x) / (1.0 - t)
        pu = (p[..., None] * u).reshape(x.shape[:-1] + (-1,))
        return (pu @ self.rot_in.T - x) / (1.0 - t)


class SteinMcDrift:
    """Monte Carlo drift from a fixed noise pool.

    form="stein" uses the gradient-free identity (weighted mean of the pool
    vectors); form="grad" uses the analytic gradient of the density ratio,
    available when the target supplies grad V.
    """

    def __init__(self, target: TargetSpec, beta, pool: NoisePool, form="stein"):
        if form not in ("stein", "grad"):
            raise ConfigError(f"unknown estimator form '{form}'")
        if pool.dim != target.dim:
            raise ConfigError(
                f"pool dimension {pool.dim} does not match target dimension {target.dim}"
            )
        self.target = target
        self.beta = float(beta)
        self.pool = pool
        self.form = form

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        beta = self.beta
        xi = self.pool.xi
        s = (1.0 - t) * beta
        y = x[..., None, :] + np.sqrt(s) * xi
        logg = self.target.log_g_beta(beta, y)
        dead = ~np.any(np.isfinite(logg), axis=-1)
        if np.any(dead):
            chains = np.flatnonzero(dead).tolist()
            raise ZeroMassError(
                f"all pool weights underflowed to zero mass at t={t} in chains {chains}",
                t=t,
                chains=chains,
            )
        p = softmax(logg, axis=-1)
        if self.form == "grad":
            glog = -self.target.grad_potential(y) + y / beta
            return beta * np.sum(p[..., None] * glog, axis=-2)
        if self.pool.antithetic:
            # sum negation pairs first so a uniform-weight mean is exactly zero
            paired = p[..., 0::2, None] * xi[..., 0::2, :] + p[..., 1::2, None] * xi[..., 1::2, :]
            num = np.sum(paired, axis=-2)
        else:
            num = np.sum(p[..., None] * xi, axis=-2)
        return np.sqrt(beta / (1.0 - t)) * num


class QuadratureDrift:
    """Deterministic tensorized Gauss-Hermite drift oracle for d <= 2."""

    def __init__(self, target: TargetSpec, beta, n_nodes=64):
        if target.dim > 2:
            raise ConfigError("quadrature drift supports d <= 2 only")
        self.target = target
        self.beta = float(beta)
        z, p = gauss_hermite_normal(n_nodes)
        if target.dim == 1:
            self.nodes = z[:, None]
            self.log_wts = np.log(p)
        else:
            z1, z2 = np.meshgrid(z, z, indexing="ij")
            self.nodes = np.stack([z1.ravel(), z2.ravel()], axis=-1)
            self.log_wts = (np.log(p)[:, None] + np.log(p)[None, :]).ravel()

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        beta = self.beta
        s = (1.0 - t) * beta
        y = x[..., None, :] + np.sqrt(s) * self.nodes
        logits = self.log_wts + self.target.log_g_beta(beta, y)
        p = softmax(logits, axis=-1)
        return np.sqrt(beta / (1.0 - t)) * np.sum(p[..., None] * self.nodes, axis=-2)


def make_drift(target: TargetSpec, beta, variant, pool=None, n_nodes=64):
    """Build a drift evaluator f(x, t) of the requested variant."""
    if variant == "gmm_exact":
        return GmmExactDrift(target, beta)
    if variant in ("stein_mc", "grad_mc"):
        if pool is None:
            raise ConfigError(f"variant '{variant}' requires a noise pool")
        form = "stein" if variant == "stein_mc" else "grad"
        return SteinMcDrift(target, beta, pool, form=form)
    if variant == "quadrature":
        return QuadratureDrift(target, beta, n_nodes=n_nodes)
    raise ConfigError(f"unknown drift variant '{variant}' (known: {', '.join(DRIFT_VARIANTS)})")
