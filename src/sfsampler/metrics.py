"""Evaluation metrics: Wasserstein-2 estimators, moments, mode coverage,
coupled strong-error curves and log-log slope fits."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .drift import make_drift
from .errors import ConfigError
from .numerics import SpdMatrix
from .rng import MAX_LADDER_LEVEL, _as_generator, halve_increments
# unused here since the curve streams its paths, but perfbench/tracing.py patches it
from .rng import brownian_ladder_make  # noqa: F401
from .samplers import (
    SampleBatch, SfsConfig, chains_per_block, increment_chunks, map_blocks, open_chains, sfs_run,
)
from .targets import TargetSpec

W2_EXACT_MAX_N = 4096

# RMSE at or below this floor is floating-point roundoff, not discretization
# error: a drift constant in space and time makes every grid telescope to the
# same terminal state up to accumulation order.
EXACT_RMSE_FLOOR = 1e-12


def _as_samples(x):
    if isinstance(x, SampleBatch):
        return x.samples
    return np.asarray(x, dtype=float)


def w2_1d(a, b, rng=None):
    """Exact empirical W2 in one dimension via the sorted quantile coupling.

    Unequal sizes are resampled with replacement down to the smaller size
    (deterministically, from `rng` or a fixed seed).
    """
    a = np.ravel(_as_samples(a))
    b = np.ravel(_as_samples(b))
    if a.size == 0 or b.size == 0:
        raise ConfigError("w2_1d needs nonempty inputs")
    if a.size != b.size:
        n = min(a.size, b.size)
        gen = _as_generator(rng) if rng is not None else np.random.default_rng(0)
        if a.size > n:
            a = gen.choice(a, size=n, replace=True)
        if b.size > n:
            b = gen.choice(b, size=n, replace=True)
    a = np.sort(a)
    b = np.sort(b)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def w2_exact_smalln(a, b):
    """Exact empirical W2 by minimum-cost perfect matching (O(n^3), n <= 4096)."""
    a = np.atleast_2d(_as_samples(a))
    b = np.atleast_2d(_as_samples(b))
    if a.shape != b.shape:
        raise ConfigError(f"sample sets must match in shape, got {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n > W2_EXACT_MAX_N:
        raise ConfigError(f"exact W2 supports n <= {W2_EXACT_MAX_N}, got {n}")
    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def sliced_w2(a, b, n_projections=128, rng=None):
    """Root-mean of squared 1-D W2 over random unit projection directions."""
    a = np.atleast_2d(_as_samples(a))
    b = np.atleast_2d(_as_samples(b))
    if a.shape[1] != b.shape[1]:
        raise ConfigError("sample sets must share the dimension")
    if n_projections < 1:
        raise ConfigError("n_projections must be >= 1")
    d = a.shape[1]
    gen = _as_generator(rng) if rng is not None else np.random.default_rng(0)
    u = gen.standard_normal((n_projections, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    total = 0.0
    for k in range(n_projections):
        total += w2_1d(a @ u[k], b @ u[k], rng=gen) ** 2
    return float(np.sqrt(total / n_projections))


def _sqrtm_psd(a):
    w, v = eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def gaussian_w2_analytic(m1, c1, m2, c2):
    """Closed-form W2 between N(m1, c1) and N(m2, c2) (Bures metric)."""
    c1 = np.atleast_2d(np.asarray(c1, dtype=float))
    c2 = np.atleast_2d(np.asarray(c2, dtype=float))
    SpdMatrix.from_matrix(c1)
    SpdMatrix.from_matrix(c2)
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    s2 = _sqrtm_psd(c2)
    cross = _sqrtm_psd(s2 @ c1 @ s2)
    bures = np.trace(c1) + np.trace(c2) - 2.0 * np.trace(cross)
    return float(np.sqrt(np.sum((m1 - m2) ** 2) + max(bures, 0.0)))


@dataclass(frozen=True)
class ModeReport:
    """Empirical mass captured by balls of a common radius around mode centers."""

    centers: np.ndarray
    radius: float
    weights: np.ndarray
    unassigned: float

    def to_dict(self) -> dict:
        return {
            "centers": self.centers.tolist(),
            "radius": self.radius,
            "weights": self.weights.tolist(),
            "unassigned": self.unassigned,
        }


def default_mode_radius(gmm) -> float:
    """3x the largest component standard deviation."""
    return 3.0 * gmm.max_std()


def mode_weights(batch, centers, radius) -> ModeReport:
    """Assign each sample to the nearest center within `radius`; report weights."""
    samples = np.atleast_2d(_as_samples(batch))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[0] < 1:
        raise ConfigError("need at least one mode center")
    if centers.shape[0] > 1:
        sep = cdist(centers, centers)
        min_sep = np.min(sep[np.triu_indices(centers.shape[0], k=1)])
        if min_sep == 0.0:
            raise ConfigError("mode centers must be distinct")
        if not (0.0 < radius < 0.5 * min_sep):
            raise ConfigError(
                f"radius must lie in (0, {0.5 * min_sep}) to keep capture balls disjoint"
            )
    elif radius <= 0:
        raise ConfigError("radius must be positive")
    dist = cdist(samples, centers)
    nearest = np.argmin(dist, axis=1)
    captured = dist[np.arange(samples.shape[0]), nearest] <= radius
    weights = np.bincount(nearest[captured], minlength=centers.shape[0]) / samples.shape[0]
    return ModeReport(
        centers=centers,
        radius=float(radius),
        weights=weights,
        unassigned=float(1.0 - weights.sum()),
    )


def moment_stats(batch):
    """Sample mean and unbiased sample covariance."""
    samples = np.atleast_2d(_as_samples(batch))
    if samples.shape[0] < 2:
        raise ConfigError("moment_stats needs at least two samples")
    mean = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False, ddof=1)
    return mean, np.atleast_2d(cov)


def fit_loglog_slope(h_list, err_list):
    """OLS fit of log err against log h; returns (slope, intercept, r_squared)."""
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(err_list, dtype=float)
    if h.size < 3:
        raise ConfigError("slope fit needs at least 3 points")
    if np.any(h <= 0) or np.any(e <= 0):
        raise ConfigError("slope fit needs strictly positive entries")
    x, y = np.log(h), np.log(e)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - np.sum(resid**2) / ss_tot
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True)
class ConvergenceReport:
    """Coupled strong-error curve RMSE(h) against a fine reference grid."""

    h_values: np.ndarray
    rmse: np.ndarray
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]
    n_chains: int
    target_id: str
    ref_level: int
    exact: bool = False          # all RMSE at roundoff level (constant drift)

    def to_dict(self) -> dict:
        return {
            "h": self.h_values.tolist(),
            "rmse": self.rmse.tolist(),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n_chains": self.n_chains,
            "target": self.target_id,
            "ref_level": self.ref_level,
            "exact": self.exact,
            "reference": "coupled fine-grid run, not the true target law",
        }


def _dyadic_level(h) -> int:
    level = np.log2(1.0 / h)
    if abs(level - round(level)) > 1e-12:
        raise ConfigError(f"step {h} is not a dyadic 2**-k")
    return int(round(level))


def _pair_up(carry, head, body):
    """The pairwise sums of the steps carry, head, body (carry and head hold one step or
    are None) as the coarser level's (head, body), and its unpaired last step, if any."""
    lead = [part for part in (carry, head) if part is not None]
    if len(lead) == 1 and body.shape[1]:
        lead.append(body[:, :1])
        body = body[:, 1:]
    if len(lead) == 1:
        return None, body, lead[0]
    even = body.shape[1] // 2 * 2
    spare = body[:, even:].copy() if even < body.shape[1] else None  # the chunk buffer is reused
    return (lead[0] + lead[1] if lead else None), halve_increments(body[:, :even]), spare


def strong_error_curve(
    target: TargetSpec, cfg: SfsConfig, h_list, ref_level, n_chains, root_seed, threads=1
) -> ConvergenceReport:
    """Pathwise RMSE of coarse runs against a coupled 2**-ref_level reference.

    Chain i's reference path is the one `run_ensemble` draws at step 2**-ref_level, in
    the same blocks (sized by that reference config) and time chunks; coarse runs use
    pairwise sums of its increments (an odd one left at a chunk's end pairs with the next
    chunk's first), and Monte Carlo drifts reuse the chain's pool at every step size.
    """
    if not (0 <= ref_level <= MAX_LADDER_LEVEL):
        raise ConfigError(f"ref_level must be in [0, {MAX_LADDER_LEVEL}], got {ref_level}")
    levels = [_dyadic_level(h) for h in h_list]
    if not levels or len(set(levels)) != len(levels):
        raise ConfigError(f"h_list must hold distinct step sizes, got {list(h_list)}")
    if max(levels) > ref_level:
        raise ConfigError("every h must be at least as coarse as the reference step")

    coarsest = min(levels)
    ref_cfg = replace(cfg, n_steps=1 << ref_level)

    def block(ids, workers):  # (B, len(h_list)): each chain's squared error at each step
        streams = open_chains(ref_cfg, target.dim, root_seed, ids)
        # every coarse level's t is a time of the reference grid
        drift_fn = make_drift(target, cfg.beta, cfg.drift, pool=streams.pool,
                              n_steps=ref_cfg.n_steps)
        out = dict.fromkeys([ref_level, *levels])  # each run's state after the chunks so far
        done = dict.fromkeys(out, 0)                # and its steps so far
        carry = dict.fromkeys(range(coarsest, ref_level))  # an unpaired finer increment
        with closing(increment_chunks(streams, ref_cfg.n_steps, target.dim, workers)) as chunks:
            for _, inc in chunks:
                head = None  # at most one step in front of the chunk's body `inc`
                for level in range(ref_level, coarsest - 1, -1):
                    if level < ref_level:
                        head, inc, carry[level] = _pair_up(carry[level], head, inc)
                        if head is None and not inc.shape[1]:
                            break
                    if level in out:
                        level_cfg = replace(cfg, n_steps=1 << level)
                        for part in (head, inc):
                            if part is not None and part.shape[1]:
                                out[level] = sfs_run(
                                    drift_fn, level_cfg, part, done[level], out[level]
                                )
                                done[level] += part.shape[1]
        return np.stack([np.sum((out[level] - out[ref_level]) ** 2, axis=-1) for level in levels],
                        axis=-1)

    # one sum over all chains in chain order, so the block size never moves the last bit
    blocks = map_blocks(block, n_chains, threads, chains_per_block(ref_cfg, target))
    sq_errors = np.concatenate(blocks)
    rmse = np.sqrt(sq_errors.sum(axis=0) / n_chains)
    h_arr = np.array([2.0 ** (-k) for k in levels])
    order = np.argsort(h_arr)[::-1]
    h_arr, rmse = h_arr[order], rmse[order]
    exact = bool(np.all(rmse <= EXACT_RMSE_FLOOR))
    if exact or np.any(rmse <= EXACT_RMSE_FLOOR):
        slope = intercept = r2 = None
    else:
        slope, intercept, r2 = fit_loglog_slope(h_arr, rmse)
    return ConvergenceReport(
        h_values=h_arr,
        rmse=rmse,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        n_chains=int(n_chains),
        target_id=target.kind,
        ref_level=int(ref_level),
        exact=exact,
    )
