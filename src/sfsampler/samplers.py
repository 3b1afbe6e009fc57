"""Time integrators and the ensemble runner.

The diffusion sampler integrates over the unit interval with the Euler-
Maruyama scheme Y_{n+1} = Y_n + h f(Y_n, t_n) + sqrt(beta) dW_n from Y_0 = 0.
Baselines: overdamped Langevin (ULA), the Euler scheme for underdamped
Langevin, and BAOAB splitting. Ensembles derive chain i's randomness from
RngStream(root_seed, i), so results are independent of worker count and
scheduling.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .drift import make_drift, make_noise_pool, stack_pools
from .errors import ConfigError, DivergenceError
from .rng import RngStream
from .targets import TargetSpec, grad_potential

# chains per vectorized block; fixed so that the partition (and therefore the
# arithmetic) never depends on the worker count
ENSEMBLE_BLOCK = 512


@dataclass(frozen=True)
class SfsConfig:
    """Configuration of the diffusion sampler on the uniform grid t_n = n / n_steps."""

    n_steps: int
    beta: float = 1.0
    drift: str = "gmm_exact"
    n_mc: int = 200          # pool size M for the Monte Carlo drift
    antithetic: bool = False
    n_nodes: int = 64        # quadrature variant only
    record_path: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_steps


@dataclass(frozen=True)
class LangevinConfig:
    """Configuration of the Langevin baselines over horizon T = n_steps * step."""

    step: float
    horizon: float
    method: str = "ula"      # ula | uld | baoab
    gamma: float = 1.0
    x0: Optional[np.ndarray] = None
    m0: Optional[np.ndarray] = None
    draw_momentum: bool = False
    record_path: bool = False

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.method != "ula" and self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.method not in ("ula", "uld", "baoab"):
            raise ConfigError(f"unknown Langevin method '{self.method}'")
        n = self.horizon / self.step
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigError(
                f"horizon {self.horizon} is not a positive multiple of step {self.step}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


def _as_batch(increments, n_steps, what):
    inc = np.asarray(increments, dtype=float)
    single = inc.ndim == 2
    if single:
        inc = inc[None]
    if inc.ndim != 3:
        raise ConfigError(f"{what} must have shape (n_steps, d) or (chains, n_steps, d)")
    if inc.shape[1] != n_steps:
        raise ConfigError(
            f"{what} provide {inc.shape[1]} steps but the config asks for {n_steps}"
        )
    return inc, single


def _check_finite(y, step):
    bad = ~np.all(np.isfinite(y), axis=-1)
    if np.any(bad):
        chains = np.nonzero(bad)[0].tolist()
        raise DivergenceError(
            f"non-finite state at step {step} in chains {chains}",
            step=step,
            chains=chains,
        )


def _finish(states, path, single, record):
    """The terminal states, then the path if recorded; a single chain drops its chain axis."""
    out = states + (np.stack(path, axis=1),) if record else states
    if single:
        out = tuple(a[0] for a in out)
    return out[0] if len(out) == 1 else out


def sfs_run(drift_fn, cfg: SfsConfig, increments):
    """Integrate the diffusion from 0 over [0, 1] with the given Brownian increments.

    increments must be N(0, h I) draws; the drift is only ever evaluated on the
    grid t_n = n h <= 1 - h. Identical increments and drift give bit-identical
    output. Returns the terminal state, plus the path if cfg.record_path.
    """
    inc, single = _as_batch(increments, cfg.n_steps, "increments")
    n_chains, n_steps, d = inc.shape
    h = cfg.h
    sqrt_beta = np.sqrt(cfg.beta)
    y = np.zeros((n_chains, d))
    path = [y.copy()] if cfg.record_path else None
    for n in range(n_steps):
        f = drift_fn(y, n * h)
        y = y + h * f + sqrt_beta * inc[:, n]
        _check_finite(y, n)
        if path is not None:
            path.append(y.copy())
    return _finish((y,), path, single, cfg.record_path)


def ula_run(target: TargetSpec, cfg: LangevinConfig, increments):
    """Overdamped Langevin: x <- x - h grad V(x) + sqrt(2) dW, dW ~ N(0, h I)."""
    inc, single = _as_batch(increments, cfg.n_steps, "increments")
    n_chains, n_steps, d = inc.shape
    h = cfg.step
    x = _initial_state(cfg.x0, n_chains, d)
    path = [x.copy()] if cfg.record_path else None
    for n in range(n_steps):
        x = x - h * grad_potential(target, x) + np.sqrt(2.0) * inc[:, n]
        _check_finite(x, n)
        if path is not None:
            path.append(x.copy())
    return _finish((x,), path, single, cfg.record_path)


def uld_euler_run(target: TargetSpec, cfg: LangevinConfig, increments):
    """Euler scheme for underdamped Langevin; returns the terminal (x, m) pair."""
    inc, single = _as_batch(increments, cfg.n_steps, "increments")
    n_chains, n_steps, d = inc.shape
    h, gamma = cfg.step, cfg.gamma
    x = _initial_state(cfg.x0, n_chains, d)
    m = _initial_state(cfg.m0, n_chains, d)
    path = [x.copy()] if cfg.record_path else None
    for n in range(n_steps):
        x_new = x + h * m
        m = m - h * grad_potential(target, x) - h * gamma * m + np.sqrt(2.0 * gamma) * inc[:, n]
        x = x_new
        _check_finite(np.concatenate([x, m], axis=-1), n)
        if path is not None:
            path.append(x.copy())
    return _finish((x, m), path, single, cfg.record_path)


def baoab_run(target: TargetSpec, cfg: LangevinConfig, gaussians):
    """BAOAB splitting: half kick, half drift, exact OU refresh, half drift, half kick.

    gaussians are plain standard normals (the OU step scales them itself).
    """
    xi, single = _as_batch(gaussians, cfg.n_steps, "gaussians")
    n_chains, n_steps, d = xi.shape
    h, gamma = cfg.step, cfg.gamma
    c1 = np.exp(-gamma * h)
    c2 = np.sqrt(1.0 - c1 * c1)
    x = _initial_state(cfg.x0, n_chains, d)
    m = _initial_state(cfg.m0, n_chains, d)
    path = [x.copy()] if cfg.record_path else None
    for n in range(n_steps):
        m = m - 0.5 * h * grad_potential(target, x)
        x = x + 0.5 * h * m
        m = c1 * m + c2 * xi[:, n]
        x = x + 0.5 * h * m
        m = m - 0.5 * h * grad_potential(target, x)
        _check_finite(np.concatenate([x, m], axis=-1), n)
        if path is not None:
            path.append(x.copy())
    return _finish((x, m), path, single, cfg.record_path)


def _initial_state(x0, n_chains, d):
    if x0 is None:
        return np.zeros((n_chains, d))
    return np.array(np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)))


@dataclass
class SampleBatch:
    """Terminal samples of an ensemble, one row per chain, with provenance."""

    samples: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_chains(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def _chain_gaussians(cfg, target, root_seed, chain_ids):
    """Per-chain noise, drawn in the documented order: momentum, pool, increments."""
    d = target.dim
    pools, m0s, noise = [], [], []
    if isinstance(cfg, SfsConfig):
        n_steps, scale = cfg.n_steps, np.sqrt(cfg.h)
        needs_pool = cfg.drift in ("stein_mc", "grad_mc")
    else:
        n_steps = cfg.n_steps
        scale = 1.0 if cfg.method == "baoab" else np.sqrt(cfg.step)
        needs_pool = False
    for i in chain_ids:
        gen = RngStream(root_seed, i).generator()
        if isinstance(cfg, LangevinConfig) and cfg.draw_momentum:
            m0s.append(gen.standard_normal(d))
        if needs_pool:
            pools.append(make_noise_pool(cfg.n_mc, d, gen, antithetic=cfg.antithetic))
        noise.append(gen.standard_normal((n_steps, d)) * scale)
    out = {"noise": np.stack(noise)}
    if pools:
        out["pool"] = stack_pools(pools)
    if m0s:
        out["m0"] = np.stack(m0s)
    return out


def _run_block(cfg, target, root_seed, chain_ids):
    inputs = _chain_gaussians(cfg, target, root_seed, chain_ids)
    if isinstance(cfg, SfsConfig):
        drift_fn = make_drift(
            target, cfg.beta, cfg.drift, pool=inputs.get("pool"), n_nodes=cfg.n_nodes
        )
        return sfs_run(drift_fn, replace(cfg, record_path=False), inputs["noise"])
    lcfg = cfg
    if "m0" in inputs:
        lcfg = replace(cfg, m0=inputs["m0"], draw_momentum=False)
    if cfg.method == "ula":
        return ula_run(target, lcfg, inputs["noise"])
    if cfg.method == "uld":
        return uld_euler_run(target, lcfg, inputs["noise"])[0]
    return baoab_run(target, lcfg, inputs["noise"])[0]


def run_ensemble(cfg, target: TargetSpec, n_chains, root_seed, threads=1) -> SampleBatch:
    """Run n_chains independent chains; chain i draws from RngStream(root_seed, i).

    The chain partition into fixed-size blocks is independent of `threads`, so
    the result is bit-identical for any worker count. Divergent chains fail
    the whole batch, with the offending chain indices aggregated.
    """
    if n_chains < 1:
        raise ConfigError(f"n_chains must be >= 1, got {n_chains}")
    t0 = time.perf_counter()
    blocks = [
        list(range(lo, min(lo + ENSEMBLE_BLOCK, n_chains)))
        for lo in range(0, n_chains, ENSEMBLE_BLOCK)
    ]

    def task(ids):
        try:
            return _run_block(cfg, target, root_seed, ids), None
        except DivergenceError as exc:
            chains = [ids[c] for c in (exc.chains or [])]
            return None, DivergenceError(str(exc), step=exc.step, chains=chains)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task, blocks))
    else:
        results = [task(ids) for ids in blocks]

    failed = [err for _, err in results if err is not None]
    if failed:
        chains = sorted(c for err in failed for c in (err.chains or []))
        step = min((err.step for err in failed if err.step is not None), default=None)
        raise DivergenceError(
            f"{len(chains)} chains diverged, first at step {step}: "
            f"{chains[:20]}{'...' if len(chains) > 20 else ''}",
            step=step,
            chains=chains,
        )
    samples = np.concatenate([out for out, _ in results], axis=0)
    meta = {
        "sampler": cfg.drift if isinstance(cfg, SfsConfig) else cfg.method,
        "method": "sfs" if isinstance(cfg, SfsConfig) else cfg.method,
        "target": target.kind,
        "beta": cfg.beta if isinstance(cfg, SfsConfig) else None,
        "h": cfg.h if isinstance(cfg, SfsConfig) else cfg.step,
        "M": cfg.n_mc if isinstance(cfg, SfsConfig) and cfg.drift in ("stein_mc", "grad_mc") else None,
        "seed": int(root_seed),
        "n_chains": int(n_chains),
        "dim": target.dim,
        "wall_time_s": time.perf_counter() - t0,  # excluded from serialized artifacts
    }
    return SampleBatch(samples=samples, meta=meta)
