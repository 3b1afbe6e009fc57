"""Time integrators and the ensemble runner.

The diffusion sampler integrates over the unit interval with the Euler-
Maruyama scheme Y_{n+1} = Y_n + h f(Y_n, t_n) + sqrt(beta) dW_n from Y_0 = 0.
Baselines: overdamped Langevin (ULA), the Euler scheme for underdamped
Langevin, and BAOAB splitting. Ensembles derive chain i's randomness from
RngStream(root_seed, i), so results are independent of worker count and
scheduling; each block draws and integrates its Brownian increments in time
chunks of at most NOISE_CHUNK_BYTES, so results are independent of the chunk
length too.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .drift import NoisePool, make_drift, make_noise_pool, stack_pools
from .errors import ConfigError, DivergenceError, NumericalError, ZeroMassError
from .rng import RngStream
from .targets import TargetSpec, grad_potential

# chains per vectorized block; fixed so that the partition (and therefore the
# arithmetic) never depends on the worker count
ENSEMBLE_BLOCK = 512
# bytes of Brownian increments held per block: a longer path is drawn and
# integrated in time chunks, which never changes the result
NOISE_CHUNK_BYTES = 8 * 2**20


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


def _as_batch(increments, n_steps, start, what):
    """The increments as (chains, k, d), whether one chain was given, and the global steps."""
    inc = np.asarray(increments, dtype=float)
    single = inc.ndim == 2
    if single:
        inc = inc[None]
    if inc.ndim != 3:
        raise ConfigError(f"{what} must have shape (n_steps, d) or (chains, n_steps, d)")
    k = inc.shape[1]
    if start is None:
        if k != n_steps:
            raise ConfigError(f"{what} provide {k} steps but the config asks for {n_steps}")
        start = 0
    elif not (0 <= start and start + k <= n_steps):
        raise ConfigError(
            f"{what} cover steps {start}..{start + k - 1}, outside the config's {n_steps} steps"
        )
    return inc, single, range(start, start + k)


def _check_finite(y, step, t):
    bad = ~np.all(np.isfinite(y), axis=-1)
    if np.any(bad):
        chains = np.nonzero(bad)[0].tolist()
        raise DivergenceError(
            f"non-finite state at step {step} (t={t:g}) in chains {chains}",
            step=step,
            t=t,
            chains=chains,
        )


def _finish(states, path, single, record):
    """The terminal states, then the path if recorded; a single chain drops its chain axis."""
    out = states + (np.stack(path, axis=1),) if record else states
    if single:
        out = tuple(a[0] for a in out)
    return out[0] if len(out) == 1 else out


# Every integrator takes either the whole path (start=None) or one time chunk
# of it: increments for the global steps start, ..., start + k - 1, entered
# from `state` (the value an earlier chunk returned; None for the initial
# state). Feeding consecutive chunks gives the result of one whole run.


def sfs_run(drift_fn, cfg: SfsConfig, increments, start=None, state=None):
    """Integrate the diffusion from 0 over [0, 1] with the given Brownian increments.

    increments must be N(0, h I) draws; the drift is only ever evaluated on the
    grid t_n = n h <= 1 - h. Identical increments and drift give bit-identical
    output. Returns the terminal state, plus the path if cfg.record_path.
    """
    inc, single, steps = _as_batch(increments, cfg.n_steps, start, "increments")
    n_chains, _, d = inc.shape
    h = cfg.h
    sqrt_beta = np.sqrt(cfg.beta)
    y = _initial_state(state, n_chains, d)
    path = [y.copy()] if cfg.record_path else None
    try:
        for j, n in enumerate(steps):
            f = drift_fn(y, n * h)
            y = y + h * f + sqrt_beta * inc[:, j]
            _check_finite(y, n, (n + 1) * h)
            if path is not None:
                path.append(y.copy())
    except ZeroMassError as exc:
        raise ZeroMassError(f"{exc} at step {n}", step=n, t=exc.t, chains=exc.chains) from None
    return _finish((y,), path, single, cfg.record_path)


def ula_run(target: TargetSpec, cfg: LangevinConfig, increments, start=None, state=None):
    """Overdamped Langevin: x <- x - h grad V(x) + sqrt(2) dW, dW ~ N(0, h I)."""
    inc, single, steps = _as_batch(increments, cfg.n_steps, start, "increments")
    n_chains, _, d = inc.shape
    h = cfg.step
    x = _initial_state(cfg.x0 if state is None else state, n_chains, d)
    path = [x.copy()] if cfg.record_path else None
    for j, n in enumerate(steps):
        x = x - h * grad_potential(target, x) + np.sqrt(2.0) * inc[:, j]
        _check_finite(x, n, (n + 1) * h)
        if path is not None:
            path.append(x.copy())
    return _finish((x,), path, single, cfg.record_path)


def uld_euler_run(target: TargetSpec, cfg: LangevinConfig, increments, start=None, state=None):
    """Euler scheme for underdamped Langevin; returns the terminal (x, m) pair."""
    inc, single, steps = _as_batch(increments, cfg.n_steps, start, "increments")
    n_chains, _, d = inc.shape
    h, gamma = cfg.step, cfg.gamma
    x0, m0 = (cfg.x0, cfg.m0) if state is None else state
    x = _initial_state(x0, n_chains, d)
    m = _initial_state(m0, n_chains, d)
    path = [x.copy()] if cfg.record_path else None
    for j, n in enumerate(steps):
        x_new = x + h * m
        m = m - h * grad_potential(target, x) - h * gamma * m + np.sqrt(2.0 * gamma) * inc[:, j]
        x = x_new
        _check_finite(np.concatenate([x, m], axis=-1), n, (n + 1) * h)
        if path is not None:
            path.append(x.copy())
    return _finish((x, m), path, single, cfg.record_path)


def baoab_run(target: TargetSpec, cfg: LangevinConfig, gaussians, start=None, state=None):
    """BAOAB splitting: half kick, half drift, exact OU refresh, half drift, half kick.

    gaussians are plain standard normals (the OU step scales them itself).
    """
    xi, single, steps = _as_batch(gaussians, cfg.n_steps, start, "gaussians")
    n_chains, _, d = xi.shape
    h, gamma = cfg.step, cfg.gamma
    c1 = np.exp(-gamma * h)
    c2 = np.sqrt(1.0 - c1 * c1)
    x0, m0 = (cfg.x0, cfg.m0) if state is None else state
    x = _initial_state(x0, n_chains, d)
    m = _initial_state(m0, n_chains, d)
    path = [x.copy()] if cfg.record_path else None
    for j, n in enumerate(steps):
        m = m - 0.5 * h * grad_potential(target, x)
        x = x + 0.5 * h * m
        m = c1 * m + c2 * xi[:, j]
        x = x + 0.5 * h * m
        m = m - 0.5 * h * grad_potential(target, x)
        _check_finite(np.concatenate([x, m], axis=-1), n, (n + 1) * h)
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


@dataclass
class ChainStreams:
    """One block's per-chain Philox generators, each positioned at its chain's first
    Brownian increment, with the momenta and pools already drawn from them."""

    gens: list
    scale: float                       # N(0, 1) draws times scale give one increment
    m0: Optional[np.ndarray] = None    # (B, d) initial momenta (Langevin draw_momentum)
    pool: Optional[NoisePool] = None   # (B, M, d) stacked pools (Monte Carlo drifts)

    def fill(self, chunk):
        """Draw every chain's next chunk.shape[1] increments into chunk (B, k, d), in place."""
        for gen, rows in zip(self.gens, chunk):
            gen.standard_normal(out=rows)
        chunk *= self.scale


def open_chains(cfg, d, root_seed, chain_ids) -> ChainStreams:
    """Open RngStream(root_seed, i) for each chain i and draw, in the documented order,
    its momentum (if any) and its noise pool (if any); increments come next."""
    if isinstance(cfg, SfsConfig):
        scale = np.sqrt(cfg.h)
        momentum, needs_pool = False, cfg.drift in ("stein_mc", "grad_mc")
    else:
        scale = 1.0 if cfg.method == "baoab" else np.sqrt(cfg.step)
        momentum, needs_pool = cfg.draw_momentum, False
    gens, m0s, pools = [], [], []
    for i in chain_ids:
        gen = RngStream(root_seed, i).generator()
        if momentum:
            m0s.append(gen.standard_normal(d))
        if needs_pool:
            pools.append(make_noise_pool(cfg.n_mc, d, gen, antithetic=cfg.antithetic))
        gens.append(gen)
    return ChainStreams(
        gens, scale, m0=np.stack(m0s) if m0s else None, pool=stack_pools(pools) if pools else None
    )


def _run_block(cfg, target, root_seed, chain_ids):
    """Terminal positions of one block, its increments drawn and integrated chunk by chunk."""
    streams = open_chains(cfg, target.dim, root_seed, chain_ids)
    if isinstance(cfg, SfsConfig):
        drift_fn = make_drift(target, cfg.beta, cfg.drift, pool=streams.pool, n_nodes=cfg.n_nodes)
        integrator, head = sfs_run, (drift_fn, cfg)
    else:
        if streams.m0 is not None:
            cfg = replace(cfg, m0=streams.m0, draw_momentum=False)
        integrator = {"ula": ula_run, "uld": uld_euler_run, "baoab": baoab_run}[cfg.method]
        head = (target, cfg)
    n_steps, d = cfg.n_steps, target.dim
    k = max(1, min(n_steps, NOISE_CHUNK_BYTES // (len(chain_ids) * d * 8)))
    buf = np.empty((len(chain_ids), k, d))
    state = None
    for start in range(0, n_steps, k):
        chunk = buf[:, : min(k, n_steps - start)]
        streams.fill(chunk)
        state = integrator(*head, chunk, start, state)
    return state[0] if isinstance(state, tuple) else state


def _aggregate(failed):
    """One error for every failed block: the kind that failed first, with all its chains."""
    first = min(failed, key=lambda err: err.step)
    kind = type(first)
    chains = sorted(c for err in failed if type(err) is kind for c in err.chains)
    others = sorted(c for err in failed if type(err) is not kind for c in err.chains)
    what = "diverged" if kind is DivergenceError else "lost all Monte Carlo weight mass"
    message = (
        f"{len(chains)} chains {what}, first at step {first.step} (t={first.t:g}): "
        f"{chains[:20]}{'...' if len(chains) > 20 else ''}"
    )
    if others:
        message += f"; {len(others)} other chains failed otherwise: {others[:20]}"
    return kind(message, step=first.step, t=first.t, chains=chains)


def run_ensemble(cfg, target: TargetSpec, n_chains, root_seed, threads=1) -> SampleBatch:
    """Run n_chains independent chains; chain i draws from RngStream(root_seed, i).

    The chain partition into fixed-size blocks is independent of `threads`, so
    the result is bit-identical for any worker count. A numerical failure in any
    block (a non-finite state, a drift with zero weight mass) fails the whole
    batch, with the step, t and global chain indices aggregated.
    """
    if n_chains < 1:
        raise ConfigError(f"n_chains must be >= 1, got {n_chains}")
    if cfg.record_path:
        raise ConfigError("field 'record_path': run_ensemble returns terminal states only")
    t0 = time.perf_counter()
    blocks = [
        list(range(lo, min(lo + ENSEMBLE_BLOCK, n_chains)))
        for lo in range(0, n_chains, ENSEMBLE_BLOCK)
    ]

    def task(ids):
        try:
            return _run_block(cfg, target, root_seed, ids), None
        except NumericalError as exc:
            exc.chains = [ids[c] for c in exc.chains]
            return None, exc

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task, blocks))
    else:
        results = [task(ids) for ids in blocks]

    failed = [err for _, err in results if err is not None]
    if failed:
        raise _aggregate(failed)
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
