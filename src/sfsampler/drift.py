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
from .numerics import gauss_hermite_normal, rows_times, shifted_points, softmax, weighted_sum
from .rng import _as_generator
from .schema import DRIFT_VARIANTS
from .targets import GaussianMixture, TargetSpec, _check_beta


# Gauss-Hermite nodes per axis of the quadrature drift
QUADRATURE_NODES = 64


def _check_t(t) -> float:
    t = float(t)
    if not (0.0 <= t < 1.0):
        raise ValueError(f"drift is defined for t in [0, 1), got t={t}")
    return t


@dataclass(frozen=True)
class NoisePool:
    """M standard-normal vectors drawn once per chain and reused at every step.

    The vectors are rows: xi is (M, d), or (B, M, d) for a block of per-chain pools
    drawn into one array (`draw_noise_pools`). The BLAS reductions over the pool (the
    Stein sum, the mixture's per-pool forms and weighted gradient) read these rows: on
    pool-axis-last storage BLAS takes another kernel, which sums in another order and
    changes the samples' last bits. The default pool evaluator, which builds points,
    keeps its own pool-axis-last copy (`PoolEvaluator.xi_t`).

    With antithetic=True the pool holds exact negation pairs (xi_{2j+1} =
    -xi_{2j}), so constant-weight averages cancel to exactly zero.
    """

    xi: np.ndarray  # (M, d), or (B, M, d) for a block of per-chain pools
    antithetic: bool = False

    @property
    def dim(self) -> int:
        return self.xi.shape[-1]


def draw_noise_pools(M, d, gens, antithetic=False) -> NoisePool:
    """One pool of M standard-normal d-vectors per generator, drawn from each in turn
    straight into one (B, M, d) array.

    Each generator gives one (M, d) draw, or with antithetic=True one (M/2, d) draw for
    the even rows, whose negations fill the odd rows.
    """
    if M < 2:
        raise ConfigError(f"pool size M must be >= 2, got {M}")
    if antithetic and M % 2 != 0:
        raise ConfigError(f"antithetic pools need even M, got {M}")
    xi = np.empty((len(gens), M, d))
    for gen, rows in zip(gens, xi):
        if antithetic:
            half = gen.standard_normal((M // 2, d))
            rows[0::2] = half
            np.negative(half, out=rows[1::2])
        else:
            gen.standard_normal(out=rows)
    xi.setflags(write=False)
    return NoisePool(xi=xi, antithetic=antithetic)


def make_noise_pool(M, d, rng, antithetic=False) -> NoisePool:
    """Draw a pool of M standard-normal d-vectors from the given stream."""
    block = draw_noise_pools(M, d, [_as_generator(rng)], antithetic)
    return NoisePool(xi=block.xi[0], antithetic=antithetic)


class GmmExactDrift:
    """Closed-form drift for Gaussian-mixture targets, computed component by component.

    The reference N(0, beta I) is isotropic, so in component i's eigenbasis
    (Sigma_i = Q_i diag(lambda_i) Q_i^T) the smoothed covariance
    C_i(t) = Q_i diag(c_i) Q_i^T, c_i = t lambda_i + s, s = (1-t) beta, is diagonal. With
    rotated coordinates x~ = Q_i^T x and alpha~ = Q_i^T alpha_i, the smoothed component mean
    is u~_i = g_i x~ + h_i and the log weight of component i is
        sum_d (a_i x~^2 + b_i x~) + k_i,
    where g_i = lambda_i / c_i, h_i = s alpha~ / c_i, a_i = (lambda_i - beta) / (2 beta c_i),
    b_i = alpha~ / c_i and k_i = log theta_i - sum_d (log c_i + t alpha~^2 / c_i) / 2. The
    drift is (sum_i p_i Q_i u~_i - x) / (1 - t), p_i the softmax of the log weights.

    The (kappa, d) coefficients depend on t alone and are built once per call. The log
    weights form one (kappa, B) array, one row per component from elementwise work on
    (B, d) arrays, and the softmax reduces over its first axis. With every covariance
    diagonal (no rotations) the mean is x * sum_i p_i g_i + sum_i p_i h_i, accumulated in
    component order; otherwise x~ for all components comes from one rotation and the
    weighted u~_i are rotated back by another. No product runs across the chain axis, so a
    chain's drift does not depend on how many chains share the call.

    One diagonal component has weight p_1 = 1: the softmax of one finite log weight is
    exactly 1, so x * g_1 + h_1 gives the general path's bytes without forming the log
    weight. Where that weight would overflow (x or the mean beyond about 1e154), the
    general path gives NaN and this one the finite drift.
    """

    def __init__(self, target, beta):
        gmm = target.mixture if isinstance(target, TargetSpec) else target
        if not isinstance(gmm, GaussianMixture):
            raise ConfigError("exact drift requires a Gaussian-mixture target")
        self.beta = _check_beta(beta)
        self.sig = gmm.eigvals                       # (kappa, d)
        alpha = gmm.rotated_means                    # (kappa, d)
        self.log_theta = np.log(gmm.weights)
        # divided by c they give a, b, g and alpha~^2 / c
        self.numerators = np.stack([(self.sig - self.beta) / (2.0 * self.beta), alpha,
                                    self.sig, alpha**2])
        self.diagonal = gmm.rotations is None
        self.single = self.diagonal and gmm.n_components == 1
        if not self.diagonal:
            # x @ rot_in stacks x Q_i over components; w @ rot_in.T sums w_i Q_i^T
            self.rot_in = np.concatenate(gmm.rotations, axis=1)   # (d, kappa d)

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        kappa, d = self.sig.shape
        s = (1.0 - t) * self.beta
        # (kappa, d) coefficients of t alone
        c = t * self.sig + s
        xf = x.reshape(-1, d)
        if self.single:
            lin, g = self.numerators[1:3] / c
            mean = xf * g[0]
            mean += s * lin[0]
            mean -= xf
            mean /= 1.0 - t
            return mean.reshape(x.shape)
        quad, lin, g, alpha_sq = self.numerators / c
        h = s * lin
        const = self.log_theta - 0.5 * np.sum(t * alpha_sq + np.log(c), axis=-1)
        if self.diagonal:
            rotated = [xf] * kappa
        else:
            xr = rows_times(xf, self.rot_in).reshape(-1, kappa, d)
            rotated = [xr[:, i] for i in range(kappa)]
        logw = np.empty((kappa, xf.shape[0]))
        for i, xt in enumerate(rotated):
            v = quad[i] * xt
            v += lin[i]
            np.einsum("nd,nd->n", v, xt, out=logw[i])
        logw += const[:, None]
        p = softmax(logw, axis=0)
        if self.diagonal:
            gm, hm = p[0][:, None] * g[0], p[0][:, None] * h[0]
            for i in range(1, kappa):
                gm += p[i][:, None] * g[i]
                hm += p[i][:, None] * h[i]
            mean = xf * gm
            mean += hm
        else:
            u = xr * g + h
            u *= p.T[:, :, None]
            mean = rows_times(u.reshape(-1, kappa * d), self.rot_in.T)
        mean -= xf
        mean /= 1.0 - t
        return mean.reshape(x.shape)


class SteinMcDrift:
    """Monte Carlo drift from a fixed noise pool.

    form="stein" uses the gradient-free identity (weighted mean of the pool
    vectors); form="grad" uses the analytic gradient of the density ratio,
    available when the target supplies grad V. Both evaluate the target through
    its pool evaluator (`TargetSpec.pool_evaluator`), built once per pool: one
    pass per step gives the log weights and, for form="grad", the weighted
    gradient.
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
        self.evaluator = target.pool_evaluator(self.beta, pool.xi)

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        beta = self.beta
        s = (1.0 - t) * beta
        if self.form == "grad":
            logg, weighted_grad = self.evaluator.log_g_and_grad(x, s)
        else:
            logg = self.evaluator.log_g(x, s)
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
            return beta * weighted_grad(p)
        if self.pool.antithetic:
            # sum negation pairs first so a uniform-weight mean is exactly zero; both sums
            # run along the pool axis of the evaluator's pool-axis-last copy
            xi_t = self.evaluator.xi_t
            paired = p[..., None, 0::2] * xi_t[..., 0::2]
            paired += p[..., None, 1::2] * xi_t[..., 1::2]
            num = np.sum(paired, axis=-1)
        else:
            num = weighted_sum(p, self.pool.xi)
        return np.sqrt(beta / (1.0 - t)) * num


class QuadratureDrift:
    """Deterministic tensorized Gauss-Hermite drift oracle for d <= 2.

    The n nodes are kept node-axis-last, (d, n): the points are built along the node axis
    (`numerics.shifted_points`), the target gets their (..., n, d) view, and the weighted
    sum runs along the node axis too.
    """

    def __init__(self, target: TargetSpec, beta, n_nodes=QUADRATURE_NODES):
        if target.dim > 2:
            raise ConfigError("quadrature drift supports d <= 2 only")
        self.target = target
        self.beta = _check_beta(beta)
        z, p = gauss_hermite_normal(n_nodes)
        if target.dim == 1:
            self.nodes = z[None, :]
            self.log_wts = np.log(p)
        else:
            z1, z2 = np.meshgrid(z, z, indexing="ij")
            self.nodes = np.stack([z1.ravel(), z2.ravel()])
            self.log_wts = (np.log(p)[:, None] + np.log(p)[None, :]).ravel()

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        beta = self.beta
        s = (1.0 - t) * beta
        y = shifted_points(x, np.sqrt(s), self.nodes)
        logits = self.log_wts + self.target.log_g_beta(beta, y)
        p = softmax(logits, axis=-1)
        return np.sqrt(beta / (1.0 - t)) * (self.nodes @ p[..., :, None])[..., 0]


def make_drift(target: TargetSpec, beta, variant, pool=None, n_nodes=QUADRATURE_NODES):
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
