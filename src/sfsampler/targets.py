"""Target distribution zoo.

Gaussian mixtures with full covariance structure, the shaped 2-D densities
(ring, funnel, a cross-shaped polynomial potential), and a Bayesian ridge
posterior. Every target exposes an unnormalized potential V (batched over
points), an analytic gradient where available, and the log density ratio
against N(0, beta I) used by the diffusion drift. The ring is defined by its
radial profile, V(y) = phi(||y||^2), from which its potential and gradient follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, GradientUnavailable
from .numerics import (SpdMatrix, log_sum_exp, log_weighted_mean, rows_times, shifted_points,
                       weighted_sum)
from .schema import TARGETS, check

WEIGHT_SUM_TOL = 1e-9
# log of the smallest nonzero component weight, against the top one, in the mixture pool
# evaluator: e^-700 is far from underflow, where np.exp leaves its vectorized path
EXP_FLOOR = -700.0
# the buffer of squared pool entries the mixture pool evaluator builds its quadratic forms
# from, a run of whole pools at a time: below glibc's mmap threshold, so it is reused heap
POOL_RUN_BYTES = 64 * 2**10

_LOG_2PI = np.log(2.0 * np.pi)


def _as_spd(cov, dim) -> SpdMatrix:
    """Accept a scalar variance, a diagonal vector, or a full matrix."""
    a = np.asarray(cov, dtype=float)
    if a.ndim == 0:
        a = np.eye(dim) * float(a)
    elif a.ndim == 1:
        a = np.diag(a)
    return SpdMatrix.from_matrix(a)


@dataclass(frozen=True)
class GaussianMixture:
    """A mixture sum_i theta_i N(alpha_i, Sigma_i) with normalized weights.

    Each covariance is also kept in its eigenbasis, Sigma_i = Q_i diag(lambda_i) Q_i^T,
    computed once at construction. The component densities work in the rotated
    coordinates Q_i^T x, where every component is diagonal, and the exact drift builds
    its per-component maps from the same basis. `rotations` is None when every Sigma_i
    is diagonal (all Q_i = I).
    """

    weights: np.ndarray        # (kappa,)
    means: np.ndarray          # (kappa, d)
    covs: tuple                # kappa SpdMatrix instances
    # derived at construction: (kappa, d) lambda_i, (kappa, d, d) Q_i, (kappa, d) Q_i^T alpha_i
    eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    rotations: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    rotated_means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eig = [c.eigen() for c in self.covs]
        lam = np.stack([vals for vals, _ in eig])
        if np.any(lam < np.finfo(float).tiny):   # 1 / lambda overflows below the normal floats
            raise ConfigError("covariance is numerically singular (eigenvalue below 2.2e-308)")
        if all(q is None for _, q in eig):
            rot, rotated_means = None, self.means
        else:
            rot = np.stack([np.eye(self.dim) if q is None else q for _, q in eig])
            rotated_means = np.stack([m @ q for m, q in zip(self.means, rot)])
        sd = np.sqrt(lam)
        log_norms = self.dim * _LOG_2PI + 2.0 * np.sum(np.log(sd), axis=-1)
        # Sigma_i^{-1}, (kappa, d) diagonals or (kappa, d, d); log theta_i / sqrt(det 2 pi Sigma_i)
        inv_var = (1.0 / sd) ** 2
        precision = inv_var if rot is None else np.einsum("kde,ke,kfe->kdf", rot, inv_var, rot)
        log_coef = np.log(self.weights) - 0.5 * log_norms
        for name, value in (("eigvals", lam), ("rotations", rot), ("rotated_means", rotated_means),
                            ("_inv_sd", 1.0 / sd), ("_log_norms", log_norms),
                            ("_precision", precision), ("_log_coef", log_coef)):
            object.__setattr__(self, name, value)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def max_std(self) -> float:
        return float(np.sqrt(max(np.max(c.diagonal_part) for c in self.covs)))

    def _log_components(self, xf):
        """(kappa, n) log N(x; alpha_i, Sigma_i) for flat points xf (n, d), each component
        whitened once, z = diag(lambda_i)^(-1/2) Q_i^T (x - alpha_i)."""
        out = np.empty((self.n_components, xf.shape[0]))
        for i in range(self.n_components):
            z = xf - self.means[i]
            if self.rotations is not None:
                z = rows_times(z, self.rotations[i])
            z *= self._inv_sd[i]
            out[i] = np.einsum("nd,nd->n", z, z)
        out += self._log_norms[:, None]
        out *= -0.5
        return out

    def component_log_densities(self, x):
        """log N(x; alpha_i, Sigma_i) for each component; x shape (..., d) -> (..., kappa)."""
        x = np.asarray(x, dtype=float)
        comp = self._log_components(x.reshape(-1, self.dim))
        return comp.T.reshape(x.shape[:-1] + (self.n_components,))

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        comp = self._log_components(x.reshape(-1, self.dim))
        comp += np.log(self.weights)[:, None]
        return log_sum_exp(comp, axis=0).reshape(x.shape[:-1])

    def potential(self, x):
        return -self.log_density(x)

    def grad_potential(self, x):
        """grad V(x) = -grad log p(x) = sum_i e_i W_i / sum_i e_i, the exact drift's weighted
        mean (`numerics.log_weighted_mean`) of the maps W_i = Sigma_i^{-1} (x - alpha_i), with
        e_i = exp(l_i - max_j l_j), l_i = -<W_i, x - alpha_i> / 2 + log theta_i
        - log det(2 pi Sigma_i) / 2 (the constant built at construction). Each chain's row is
        computed on its own (no BLAS product).
        """
        x = np.asarray(x, dtype=float)
        diff = x.reshape(-1, self.dim) - self.means[:, None, :]           # (kappa, n, d)
        if self.rotations is None:
            w = diff * self._precision[:, None, :]
        else:
            w = np.empty_like(diff)
            for i, precision in enumerate(self._precision):
                np.einsum("nd,de->ne", diff[i], precision, out=w[i])
        logw = np.einsum("knd,knd->kn", w, diff)
        logw *= -0.5
        logw += self._log_coef[:, None]
        return log_weighted_mean(logw, w).reshape(x.shape)

    def sample(self, n, gen):
        """n i.i.d. draws from the mixture."""
        idx = gen.choice(self.n_components, size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for i, cov in enumerate(self.covs):
            mask = idx == i
            if np.any(mask):
                out[mask] = cov.sample(self.means[i], gen, int(mask.sum()))
        return out


@dataclass(frozen=True)
class RadialProfile:
    """A potential of the squared radius alone, V(y) = phi(q) with q = ||y||^2.

    `value` gives phi(q) and `slope` phi'(q), elementwise over q, each as a new array.
    grad V(y) = 2 phi'(q) y, so a slope that stays finite at q = 0 makes grad V exactly 0
    at the origin, not NaN.
    """

    value: Callable
    slope: Callable

    def potential(self, x):
        return self.value(_sq_norm(x))

    def grad(self, x):
        slope = 2.0 * self.slope(_sq_norm(x))
        return slope[..., None] * x


@dataclass(frozen=True)
class TargetSpec:
    """An unnormalized target density exp(-V) with optional gradient and mixture structure.

    rho > 0 mixes a constant floor into the (unnormalized) density ratio
    against N(0, beta I), which keeps Monte Carlo drift weights away from
    total underflow far in the tails. A target whose potential depends on the
    radius alone carries its `radial` profile, which its pool evaluator reads.
    """

    kind: str
    dim: int
    potential: Callable
    grad: Optional[Callable] = None
    mixture: Optional[GaussianMixture] = None
    params: dict = field(default_factory=dict)
    rho: float = 0.0
    radial: Optional[RadialProfile] = None

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")

    def log_g_beta(self, beta, x):
        return log_g_beta(self, beta, x)

    def log_g_and_grad(self, beta, x):
        return log_g_and_grad(self, beta, x)

    def grad_potential(self, x):
        return grad_potential(self, x)

    def pool_evaluator(self, beta, xi):
        """The evaluator of log g_beta over a fixed pool xi: a mixture's or a radial target's
        works in the frame of the pool, any other target's builds the points (PoolEvaluator)."""
        if self.mixture is not None:
            return MixturePoolEvaluator(self, beta, xi)
        return (PoolEvaluator if self.radial is None else RadialPoolEvaluator)(self, beta, xi)


def _sq_norm(x):
    """||x||^2 over the last axis."""
    return np.einsum("...d,...d->...", x, x)


def _floored(target: TargetSpec, base):
    """log((1 - rho) exp(base) + rho): the rho floor applied to a log density ratio."""
    return np.logaddexp(np.log1p(-target.rho) + base, np.log(target.rho))


def _floor(target: TargetSpec, base):
    """(log g_rho, sigma) for a log density ratio: the rho floor and the factor
    sigma = (1 - rho) g / g_rho it puts on grad log g, 0 where g underflows; (base, None)
    without a floor."""
    if target.rho == 0.0:
        return base, None
    logg = _floored(target, base)
    return logg, np.exp(np.log1p(-target.rho) + base - logg)


def log_g_beta(target: TargetSpec, beta, x):
    """log of the density ratio of the target against N(0, beta I).

    Computed as -V(x) + ||x||^2 / (2 beta), dropping the x-independent
    normalization; the dropped constant cancels in every drift ratio.
    """
    beta = _check_beta(beta)
    x = np.asarray(x, dtype=float)
    base = -target.potential(x) + _sq_norm(x) / (2.0 * beta)
    return base if target.rho == 0.0 else _floored(target, base)


def log_g_and_grad(target: TargetSpec, beta, x):
    """(log g_beta(x), grad_x log g_beta(x)): the potential composed with the analytic
    gradient; a target without one raises GradientUnavailable.

    Under the rho floor the gradient is sigma * grad(-V + ||x||^2 / (2 beta)) with
    sigma = (1 - rho) g / g_rho, which is 0 (not NaN) where g underflows.
    """
    beta = _check_beta(beta)
    x = np.asarray(x, dtype=float)
    grad_v = grad_potential(target, x)
    base = -target.potential(x) + _sq_norm(x) / (2.0 * beta)
    grad = x / beta
    grad -= grad_v
    logg, sigma = _floor(target, base)
    if sigma is not None:
        grad *= sigma[..., None]
        grad[sigma == 0.0] = 0.0
    return logg, grad


class PoolEvaluator:
    """log g_beta over a fixed noise pool, y_j = x + sqrt(s) xi_j, and the pool-weighted gradient.

    Built once per pool xi, (M, d) or (B, M, d) for a block of per-chain pools.
    `log_g(x, s)` gives the (..., M) values, a new array the caller may overwrite;
    `log_g_and_grad(x, s)` gives them with a function that maps (..., M) weights p to
    sum_j p_j grad_y log g_beta(y_j), linear in p. This default, taken by targets with
    neither a mixture nor a radial profile, builds the points y and evaluates the target
    on them. It keeps the pool pool-axis-last as well, xi_t a C-contiguous (..., d, M)
    copy, and builds the points along the pool axis (`numerics.shifted_points`): the
    target gets their (..., M, d) view, and no step broadcasts over the short d axis.
    """

    def __init__(self, target: TargetSpec, beta, xi):
        self.target, self.beta, self.xi = target, _check_beta(beta), xi
        self.xi_t = np.ascontiguousarray(np.swapaxes(xi, -1, -2))

    def _points(self, x, s):
        return shifted_points(x, np.sqrt(s), self.xi_t)

    def log_g(self, x, s):
        return log_g_beta(self.target, self.beta, self._points(x, s))

    def log_g_and_grad(self, x, s):
        logg, grad = log_g_and_grad(self.target, self.beta, self._points(x, s))
        return logg, lambda p: weighted_sum(p, grad)


def _pool_forms(xi, lin, offset, quad, s):
    """The forms offset_i + xi_j.lin_i + s quad_ij over a pool of rows xi (..., M, d), for K
    columns lin (..., d, K), offsets (..., K) and quadratic parts quad (K, ..., M) built once
    per pool: one (K, ..., M) array, component-major, each row contiguous.

    The product reads the pool rows as stored and writes into the rows of the result; each
    chain's product is its own BLAS call, whatever the number of chains. It gives the forms
    over s, so that quad and the offsets join them in passes over the whole array.
    """
    batch = np.broadcast_shapes(lin.shape[:-2], xi.shape[:-2])
    forms = np.empty(quad.shape[:1] + batch + xi.shape[-2:-1])
    view = np.moveaxis(forms, 0, -2)                     # (..., K, M): batch axes first
    np.matmul(xi, lin / s, out=np.swapaxes(view, -1, -2))
    view += np.moveaxis(quad, 0, -2)
    forms *= s
    view += offset[..., None]
    return forms


class RadialPoolEvaluator:
    """The pool evaluator of a radial target, V(y) = phi(||y||^2), in the frame of the pool.

    With r = sqrt(s), q_j = ||y_j||^2 = ||x||^2 + 2 r x.xi_j + s ||xi_j||^2 is one form
    over the pool (`_pool_forms`, as the mixture's row kappa is q_j / (2 beta)), with
    ||xi_j||^2 built once per pool, and log g_beta(y_j) = q_j / (2 beta) - phi(q_j). As
    grad log g_beta(y_j) = c_j y_j with c_j = 1/beta - 2 phi'(q_j), the weighted gradient
    with v_j = p_j sigma_j is
        (sum_j v_j c_j) x + r sum_j v_j c_j xi_j.
    No (..., M, d) array is built per step; the sum over the pool reads the rows as stored.
    """

    def __init__(self, target: TargetSpec, beta, xi):
        self.target, self.beta, self.xi = target, _check_beta(beta), xi
        self.profile, self.sq_xi = target.radial, _sq_norm(xi)[None]

    def _evaluate(self, x, s, grad):
        """log g_beta over the pool, the floor factor sigma_j (None without a floor) and,
        with grad, c_j."""
        lin = (2.0 * np.sqrt(s)) * x[..., None]
        q = _pool_forms(self.xi, lin, _sq_norm(x)[..., None], self.sq_xi, s)[0]   # ||y_j||^2
        c = None
        if grad:
            c = self.profile.slope(q)
            c *= -2.0
            c += 1.0 / self.beta
        phi = self.profile.value(q)
        base = np.divide(q, 2.0 * self.beta, out=q)
        base -= phi
        return (*_floor(self.target, base), c)

    def log_g(self, x, s):
        return self._evaluate(np.asarray(x, dtype=float), s, grad=False)[0]

    def log_g_and_grad(self, x, s):
        x, r = np.asarray(x, dtype=float), np.sqrt(s)
        logg, sigma, c = self._evaluate(x, s, grad=True)

        def weighted_grad(p):
            w = p * c
            if sigma is not None:
                w *= sigma
                w[sigma == 0.0] = 0.0   # 0, not NaN, where g underflows
            grad = np.sum(w, axis=-1)[..., None] * x
            grad += r * weighted_sum(w, self.xi)
            return grad

        return logg, weighted_grad


class MixturePoolEvaluator:
    """The pool evaluator of a Gaussian mixture, in the frame of the pool.

    With P_i = Sigma_i^{-1}, r = sqrt(s) and b_i = P_i (x - alpha_i), every quantity is a
    form in xi_j:
        (y_j - alpha_i)^T P_i (y_j - alpha_i) = (x - alpha_i)^T b_i + 2 r xi_j.b_i + s xi_j^T P_i xi_j,
        ||y_j||^2 = ||x||^2 + 2 r xi_j.x + s ||xi_j||^2.
    The quadratic forms in xi_j are computed once per pool (with every covariance diagonal,
    as xi^2 times one (d, kappa + 1) coefficient matrix), so a step costs one batched
    mat-vec over the pool (`_pool_forms`). The forms are kept component-major,
    (kappa + 1, ..., M), so the max, shift, floor and sum over the components are passes
    over rows of one shape. The gradient sum_j v_j grad log g(y_j), v_j = p_j sigma_j, is
    linear in y_j once the posterior component weights pi_i(y_j) are known: with
    w_ij = v_j pi_i(y_j), V = sum_j v_j and W_i = sum_j w_ij it is
        (V x + r sum_j v_j xi_j) / beta - sum_i P_i (W_i (x - alpha_i) + r sum_j w_ij xi_j),
    one more batched mat-vec. No (..., M, d) array is built per step, and both products
    read the pool rows xi as stored.
    """

    def __init__(self, target: TargetSpec, beta, xi):
        self.target, self.beta, self.xi = target, _check_beta(beta), xi
        gmm = self.gmm = target.mixture
        k = gmm.n_components
        # the forms' quadratic parts, -xi_j^T P_i xi_j / 2 per component then ||xi_j||^2 / (2 beta),
        # over the pools as (N, M, d); a BLAS product is safe: every pool has M >= 2 rows
        pools = xi.reshape((-1,) + xi.shape[-2:])
        quad = np.empty((k + 1,) + pools.shape[:-1])
        if gmm.rotations is None:
            coef = np.concatenate([-0.5 * gmm._precision, np.full((1, gmm.dim), 0.5 / self.beta)])
            # xi^2 for a run of whole pools at a time, in one buffer of at most POOL_RUN_BYTES
            run = max(1, POOL_RUN_BYTES // pools[0].nbytes)
            sq, out = np.empty((min(run, len(pools)),) + pools.shape[1:]), np.moveaxis(quad, 0, -1)
            for lo in range(0, len(pools), run):
                n = min(run, len(pools) - lo)
                np.matmul(np.square(pools[lo : lo + n], out=sq[:n]), coef.T, out=out[lo : lo + n])
        else:
            for i in range(k):
                z = pools @ gmm.rotations[i]
                z *= gmm._inv_sd[i]
                quad[i] = -0.5 * _sq_norm(z)
            quad[k] = _sq_norm(pools) / (2.0 * self.beta)
        quad = quad.reshape((k + 1,) + xi.shape[:-1])
        self.quad, self.log_coef, self.precision = quad, gmm._log_coef, gmm._precision

    def _times_precision(self, u):
        """P_i u_i for (..., kappa, d) vectors u."""
        if self.precision.ndim == 2:
            return u * self.precision
        return np.stack([rows_times(u[..., i, :], p) for i, p in enumerate(self.precision)], axis=-2)

    def _evaluate(self, x, s):
        """log g_beta over the pool, with the state the weighted gradient needs."""
        x = np.asarray(x, dtype=float)
        k, beta, r = self.gmm.n_components, self.beta, np.sqrt(s)
        diff = x[..., None, :] - self.gmm.means                       # (..., kappa, d)
        prec_diff = self._times_precision(diff)
        # row i of forms: log theta_i N(y_j; alpha_i, Sigma_i); row kappa: ||y_j||^2 / (2 beta)
        lin = np.concatenate([-r * np.swapaxes(prec_diff, -1, -2), (r / beta) * x[..., None]],
                             axis=-1)                                 # (..., d, kappa + 1)
        offset = np.concatenate(
            [self.log_coef - 0.5 * np.einsum("...kd,...kd->...k", diff, prec_diff),
             _sq_norm(x)[..., None] / (2.0 * beta)], axis=-1)
        forms = _pool_forms(self.xi, lin, offset, self.quad, s)       # (kappa + 1, ..., M)
        # the components exponentiated in place against their top; a weight below
        # e^EXP_FLOOR of the top (exactly 1) is set to exactly 0 instead, which leaves
        # np.exp's fast path for no argument that would underflow
        comp = forms[:k]
        top = np.max(comp, axis=0)
        top[~np.isfinite(top)] = 0.0
        comp -= top
        kept = comp >= EXP_FLOOR
        np.maximum(comp, EXP_FLOOR, out=comp)
        np.exp(comp, out=comp)
        comp *= kept
        total = np.sum(comp, axis=0)
        with np.errstate(divide="ignore"):
            base = np.log(total)
        base += top
        base += forms[k]
        return (*_floor(self.target, base), (x, r, diff, forms, total))

    def log_g(self, x, s):
        return self._evaluate(x, s)[0]

    def log_g_and_grad(self, x, s):
        logg, sigma, (x, r, diff, forms, total) = self._evaluate(x, s)
        k = self.gmm.n_components

        def weighted_grad(p):  # reuses the forms buffer, so call it once
            v = p if sigma is None else p * sigma
            # posterior component weights, 0 (not NaN) where the density underflows
            forms[:k] *= v / np.where(total > 0.0, total, 1.0)
            forms[k] = v
            sums = np.moveaxis(np.sum(forms, axis=-1), 0, -1)          # W_i, then V
            pooled = np.moveaxis(forms, 0, -2) @ self.xi               # (..., kappa + 1, d)
            u = sums[..., :k, None] * diff + r * pooled[..., :k, :]
            grad = sums[..., k, None] * x + r * pooled[..., k, :]
            grad /= self.beta
            grad -= np.sum(self._times_precision(u), axis=-2)
            return grad

        return logg, weighted_grad


def grad_potential(target: TargetSpec, x):
    """Analytic gradient of V; raises GradientUnavailable for gradient-free customs."""
    if target.grad is None:
        raise GradientUnavailable(
            f"target kind '{target.kind}' provides no analytic gradient"
        )
    return target.grad(np.asarray(x, dtype=float))


def _check_beta(beta) -> float:
    beta = float(beta)
    if not (beta > 0.0 and np.isfinite(beta)):
        raise ConfigError(f"temperature beta must be positive and finite, got {beta}")
    return beta


def make_gaussian_mixture(weights, means, covs, rho=0.0) -> TargetSpec:
    """Build a Gaussian-mixture target; weights renormalized if off by <= 1e-9."""
    return make_builtin("gaussian_mixture", rho, weights=weights, means=means, covs=covs)


def make_two_mode_gmm(d, **params) -> TargetSpec:
    """Symmetric-mean two-component mixture with means +-separation * 1_d; the keywords
    and their defaults are those of `_make_two_mode_gmm`, plus `rho`."""
    return make_builtin("two_mode_gmm", d=d, **params)


def _make_gaussian_mixture(weights, means, covs, rho):
    """The mixture, given parameters that passed the table: the checks left tie fields together."""
    weights = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf, rejected below
        total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"target field 'weights': must sum to 1 within {WEIGHT_SUM_TOL}, got {total}")
    weights = weights / total
    means = np.asarray(means, dtype=float)
    if means.ndim == 1:
        means = means[:, None]
    if means.shape[0] != weights.shape[0]:
        raise ConfigError("target field 'means': one mean per weight is needed")
    d = means.shape[1]
    if len(covs) != weights.shape[0]:
        raise ConfigError("target field 'covs': one covariance per weight is needed")
    spd = tuple(_as_spd(c, dim=d) for c in covs)
    if any(c.dim != d for c in spd):
        raise ConfigError("target field 'covs': covariance dimension does not match the means")
    weights.setflags(write=False)
    means.setflags(write=False)
    gmm = GaussianMixture(weights=weights, means=means, covs=spd)
    return TargetSpec("gaussian_mixture", d, gmm.potential, gmm.grad_potential, gmm, rho=rho)


def _make_two_mode_gmm(d, separation=6.0, variance=0.25, weights=(0.5, 0.5), rho=0.0):
    means = np.stack([-separation * np.ones(d), separation * np.ones(d)])
    covs = [variance * np.eye(d), variance * np.eye(d)]
    params = {"d": int(d), "separation": float(separation), "variance": float(variance),
              "weights": list(map(float, weights))}
    return replace(_make_gaussian_mixture(weights, means, covs, rho), kind="two_mode_gmm",
                   params=params)


def _make_ring(r0=2.0, sigma=0.2) -> RadialProfile:
    """V(y) = (||y|| - r0)^2 / (2 sigma^2), as the profile phi(q) = (sqrt(q) - r0)^2 * half_inv."""
    r0, half_inv = float(r0), 0.5 / (sigma * sigma)

    def value(q):
        v = np.sqrt(q)
        v -= r0
        v *= v
        v *= half_inv
        return v

    def slope(q):
        # phi'(q) = (1 - r0 / sqrt(q)) / (2 sigma^2), finite at q = 0 where r0 / sqrt(q) reads 0
        root = np.sqrt(q)
        ratio = np.divide(r0, root, out=np.zeros_like(root), where=root > 0.0)
        return half_inv * (1.0 - ratio)

    return RadialProfile(value, slope)


def _make_funnel(alpha=0.6):
    alpha = float(alpha)

    def potential(x):
        x1, x2 = x[..., 0], x[..., 1]
        return 0.5 * x1 * x1 + 0.5 * x2 * x2 * np.exp(-2.0 * alpha * x1)

    def grad(x):
        x1, x2 = x[..., 0], x[..., 1]
        e = np.exp(-2.0 * alpha * x1)
        return np.stack([x1 - alpha * x2 * x2 * e, x2 * e], axis=-1)

    return potential, grad


def _make_example64():
    # V(x) = ((x1 x2)^2 + x1^2 + x2^2 - 8 (x1 + x2)) / 2, a cross-shaped density
    def potential(x):
        x1, x2 = x[..., 0], x[..., 1]
        return 0.5 * ((x1 * x2) ** 2 + x1 * x1 + x2 * x2 - 8.0 * (x1 + x2))

    def grad(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack(
            [x1 * x2 * x2 + x1 - 4.0, x1 * x1 * x2 + x2 - 4.0], axis=-1
        )

    return potential, grad


def _make_bayes_ridge(y, sigma1=1.0, sigma2=1.0):
    # posterior of ridge regression with design X = I_d and n = d observations y
    y = np.atleast_1d(np.asarray(y, dtype=float))
    a, b = 1.0 / (sigma1 * sigma1), 1.0 / (sigma2 * sigma2)

    def potential(eta):
        return 0.5 * a * np.sum((y - eta) ** 2, axis=-1) + 0.5 * b * np.sum(
            eta * eta, axis=-1
        )

    def grad(eta):
        return a * (eta - y) + b * eta

    return y, potential, grad


_SHAPED_2D = {"ring": _make_ring, "funnel": _make_funnel, "example64": _make_example64}
_MIXTURES = {"gaussian_mixture": _make_gaussian_mixture, "two_mode_gmm": _make_two_mode_gmm}
BUILTIN_KINDS = tuple(TARGETS)


def make_builtin(kind, rho=0.0, **params) -> TargetSpec:
    """Construct a zoo target by name (see BUILTIN_KINDS), its parameters checked against
    `schema.TARGETS[kind]`."""
    if kind not in BUILTIN_KINDS:
        raise ConfigError(f"unknown target kind {kind!r} (known: {', '.join(BUILTIN_KINDS)})")
    check(TARGETS[kind], {**params, "rho": rho}, "target field")
    if kind in _MIXTURES:
        return _MIXTURES[kind](rho=rho, **params)
    if kind in _SHAPED_2D:
        made = _SHAPED_2D[kind](**params)
        if isinstance(made, RadialProfile):
            return TargetSpec(kind, 2, made.potential, made.grad, params=dict(params), rho=rho,
                              radial=made)
        potential, grad = made
        return TargetSpec(kind, 2, potential, grad, params=dict(params), rho=rho)
    y, potential, grad = _make_bayes_ridge(**params)
    return TargetSpec(kind, y.shape[0], potential, grad, params={**params, "y": y.tolist()}, rho=rho)


def make_custom(potential, dim, grad=None, rho=0.0) -> TargetSpec:
    """Wrap a user potential (batched over the last axis) as a target."""
    return TargetSpec("custom_potential", int(dim), potential, grad, rho=rho)


def target_from_dict(doc: dict) -> TargetSpec:
    """Build a target from its JSON document form."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("target document must be an object with a 'kind' field")
    doc = dict(doc)
    return make_builtin(doc.pop("kind"), **doc)


def target_to_dict(target: TargetSpec) -> dict:
    """Serialize a built-in target to its JSON document form."""
    if target.kind == "gaussian_mixture":
        gmm = target.mixture
        doc = {
            "kind": "gaussian_mixture",
            "weights": gmm.weights.tolist(),
            "means": gmm.means.tolist(),
            "covs": [c.entries.tolist() for c in gmm.covs],
        }
    elif target.kind in ("two_mode_gmm", "ring", "funnel", "example64", "bayes_ridge"):
        doc = {"kind": target.kind, **target.params}
    else:
        raise ConfigError(f"target kind '{target.kind}' is not serializable")
    if target.rho:
        doc["rho"] = target.rho
    return doc
