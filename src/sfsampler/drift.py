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
from .schema import DRIFT_VARIANTS, POOL_DRIFTS
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
    drawn into one array (`draw_noise_pools`). Every BLAS product over the pool (the
    Stein sum; the mixture's and the radial evaluator's forms and weighted gradients)
    reads these rows as stored. Only the default pool evaluator, which builds the points
    of targets with neither a mixture nor a radial profile, keeps a pool-axis-last copy
    (`PoolEvaluator.xi_t`).

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
    C_i(t) = Q_i diag(c_i) Q_i^T, c_i = t lambda_i + (1-t) beta, is diagonal. With rotated
    coordinates x~ = Q_i^T x and alpha~ = Q_i^T alpha_i, and a_i = (lambda_i - beta) / c_i,
    b_i = beta alpha~ / c_i, component i drives x~ by a_i x~ + b_i, and its log weight is
        sum_d x~ (a_i x~ / 2 + b_i) / beta + k_i,
    k_i = log theta_i - sum_d (log c_i + t alpha~^2 / c_i) / 2. The drift is sum_i p_i Q_i (a_i x~ + b_i), p_i the softmax of the log weights. As the
    p_i sum to 1 this is the smoothed mean's (sum_i p_i Q_i u~_i - x) / (1 - t) with the
    division done by hand, so nothing cancels as t -> 1.

    The (kappa, d) coefficients depend on t alone. Given the grid t_n = n h, h = 1 / n_steps,
    that `samplers.sfs_run` steps on, they are built for many grid times in one
    vectorised pass (`_coefficients`) and looked up by t: one slice of consecutive steps
    is kept, built when a call first needs it and as long as fits STEP_NOISE_BYTES, with
    a and b alone for one component. A time off the grid (or any time, with no grid) goes
    through the same function on [t] alone, so a table hit and a direct call give the same
    bytes.

    The log weights form one (kappa, B) array, one row per component from elementwise
    work on (B, d) arrays, and the softmax reduces over its first axis. With every
    covariance diagonal (no rotations) the drift is x * sum_i p_i a_i + sum_i p_i b_i,
    each sum one einsum over the components; otherwise x~ for all components comes from
    one rotation and the weighted a_i x~ + b_i are rotated back by another. No product
    runs across the chain axis, so a chain's drift does not depend on how many chains
    share the call.

    One component has weight p_1 = 1 (the softmax of one finite log weight is exactly 1),
    so its log weight is never formed. Where that weight would overflow (x beyond about
    1e154) a mixture's drift is NaN and a single Gaussian's stays finite.
    """

    def __init__(self, target, beta, n_steps=None):
        gmm = target.mixture if isinstance(target, TargetSpec) else target
        if not isinstance(gmm, GaussianMixture):
            raise ConfigError("exact drift requires a Gaussian-mixture target")
        self.beta = beta = _check_beta(beta)
        self.sig = gmm.eigvals                       # (kappa, d)
        self.alpha = gmm.rotated_means               # (kappa, d)
        self.log_theta = np.log(gmm.weights)
        # divided by c they give a and b
        self.sig_gap, self.beta_alpha = self.sig - beta, beta * self.alpha
        self.diagonal = gmm.rotations is None
        if not self.diagonal:
            # x @ rot_in stacks x Q_i over components; w @ rot_in.T sums w_i Q_i^T
            self.rot_in = np.concatenate(gmm.rotations, axis=1)   # (d, kappa d)
        from .samplers import STEP_NOISE_BYTES  # samplers imports this module
        step_bytes = sum(v.nbytes for v in self._coefficients(np.zeros(1)))
        self.n_steps, self.slice_steps = n_steps, max(1, STEP_NOISE_BYTES // step_bytes)
        self.table = None, ()   # the first step and the coefficients of the slice built last

    def _coefficients(self, t):
        """For times t (n,): a and b as (n, kappa, d) arrays, and with several components
        the log-weight constants k (n, kappa) and a / 2."""
        t = t[:, None, None]
        c = t * self.sig
        c += (1.0 - t) * self.beta
        a = self.sig_gap / c
        logw_terms = () if len(self.sig) == 1 else (
            self.log_theta - 0.5 * np.sum(t * self.alpha**2 / c + np.log(c), axis=-1), 0.5 * a)
        return (a, np.divide(self.beta_alpha, c, out=c), *logw_terms)   # b takes the buffer of c

    def _at(self, t):
        """The coefficients at time t: a row of the grid's table, or built for t alone."""
        n = round(t * self.n_steps) if self.n_steps else -1
        if not (0 <= n < self.n_steps and n * (1.0 / self.n_steps) == t):
            return [v[0] for v in self._coefficients(np.array([t]))]
        lo, table = n - n % self.slice_steps, self.table   # one slice read, even if shared
        if table[0] != lo:
            self.table = table = None, ()   # the old slice is freed before the next is built
            steps = np.arange(lo, min(lo + self.slice_steps, self.n_steps))
            table = self.table = lo, self._coefficients(steps * (1.0 / self.n_steps))
        return [v[n - lo] for v in table[1]]

    def __call__(self, x, t):
        t = _check_t(t)
        x = np.asarray(x, dtype=float)
        kappa, d = self.sig.shape
        a, b, *logw_terms = self._at(t)
        xf = x.reshape(-1, d)
        if not self.diagonal:
            xr = rows_times(xf, self.rot_in).reshape(-1, kappa, d)
        if kappa > 1:
            const, half_a = logw_terms
            logw = np.empty((kappa, xf.shape[0]))
            for i in range(kappa):
                xt = xf if self.diagonal else xr[:, i]
                v = half_a[i] * xt
                v += b[i]
                np.einsum("nd,nd->n", v, xt, out=logw[i])
            logw /= self.beta
            logw += const[:, None]
            p = softmax(logw, axis=0)
        if self.diagonal:
            am, bm = (a[0], b[0]) if kappa == 1 else (np.einsum("kn,kd->nd", p, a),
                                                      np.einsum("kn,kd->nd", p, b))
            drift = xf * am
            drift += bm
        else:
            u = xr * a
            u += b
            if kappa > 1:
                u *= p.T[:, :, None]
            drift = rows_times(u.reshape(-1, kappa * d), self.rot_in.T)
        return drift.reshape(x.shape)


class SteinMcDrift:
    """Monte Carlo drift from a fixed noise pool.

    form="stein" uses the gradient-free identity (weighted mean of the pool
    vectors); form="grad" uses the analytic gradient of the density ratio,
    available when the target supplies grad V. Both evaluate the target through
    its pool evaluator (`TargetSpec.pool_evaluator`), built once per pool: one
    pass per step gives the log weights and, for form="grad", the weighted
    gradient. The log weights are shifted by their top and exponentiated in place,
    and the pooled (..., d) sum, linear in the weights, is divided by their total:
    no normalised (..., M) weights are formed.
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
        top = np.max(logg, axis=-1, keepdims=True)
        if not np.isfinite(top).all():
            dead = ~np.any(np.isfinite(logg), axis=-1)
            if np.any(dead):
                chains = np.flatnonzero(dead).tolist()
                raise ZeroMassError(
                    f"all pool weights underflowed to zero mass at t={t} in chains {chains}",
                    t=t,
                    chains=chains,
                )
            top[~np.isfinite(top)] = 0.0
        e = logg   # the evaluator's new array: the weights e_j = exp(logg_j - top) over it
        e -= top
        np.exp(e, out=e)
        total = np.sum(e, axis=-1, keepdims=True)
        if self.form == "grad":
            num, scale = weighted_grad(e), beta
        else:
            if self.pool.antithetic:
                # xi_{2j+1} = -xi_{2j}: one sum of pair differences, exactly 0 for uniform weights
                num = weighted_sum(e[..., 0::2] - e[..., 1::2], self.pool.xi[..., 0::2, :])
            else:
                num = weighted_sum(e, self.pool.xi)
            scale = np.sqrt(beta / (1.0 - t))
        num /= total
        num *= scale
        return num


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


def make_drift(target: TargetSpec, beta, variant, pool=None, n_nodes=QUADRATURE_NODES,
               n_steps=None):
    """Build a drift evaluator f(x, t) of the requested variant; the exact drift builds its
    time coefficients once for the grid of n_steps steps, if given."""
    if variant == "gmm_exact":
        return GmmExactDrift(target, beta, n_steps)
    if variant in POOL_DRIFTS:
        if pool is None:
            raise ConfigError(f"variant '{variant}' requires a noise pool")
        form = "stein" if variant == "stein_mc" else "grad"
        return SteinMcDrift(target, beta, pool, form=form)
    if variant == "quadrature":
        return QuadratureDrift(target, beta, n_nodes=n_nodes)
    raise ConfigError(f"unknown drift variant '{variant}' (known: {', '.join(DRIFT_VARIANTS)})")
