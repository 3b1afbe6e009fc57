"""Time integrators and the ensemble runner.

The diffusion sampler integrates over the unit interval with the Euler-
Maruyama scheme Y_{n+1} = Y_n + h f(Y_n, t_n) + sqrt(beta) dW_n from Y_0 = 0.
Baselines: overdamped Langevin (ULA), the Euler scheme for underdamped
Langevin, and BAOAB splitting. Ensembles derive chain i's randomness from
RngStream(root_seed, i), so results are independent of worker count and
scheduling; each block draws and integrates its Brownian increments in time
chunks held in one buffer of at most 2 NOISE_CHUNK_BYTES, so results are
independent of the chunk length too. Every chunk is drawn one way: a queue of its
ROW_RUN-row runs, each row one call to its chain's generator. When a CPU is free,
a block of at most HELPER_MAX_CHAINS chains hands each next chunk's queue to a
helper thread as one future, drawn into one half of the buffer while the block
integrates the other; the rows are drawn in chunk order, so who draws a row never
changes a result. Blocks are sized by the bytes one chain's step touches
(`chains_per_block`), and a wide path of several chunks runs in blocks small
enough for a helper; the size never depends on the chain or worker count.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, suppress
from dataclasses import dataclass, field
from functools import partial
from queue import Empty, SimpleQueue
from typing import Optional

import numpy as np

from .drift import QUADRATURE_NODES, NoisePool, draw_noise_pools, make_drift
from .errors import ConfigError, DivergenceError, NumericalError, ZeroMassError
from .rng import RngStream
from .schema import POOL_DRIFTS
from .targets import TargetSpec, _check_beta, grad_potential

# chains per block of `map_blocks` when the caller gives no size
ENSEMBLE_BLOCK = 512
# the bytes the widest per-chain array of one step may take in a block, and the most
# chains a block holds (`chains_per_block`)
BLOCK_BYTES = 2 * 2**20
MAX_BLOCK = 8192
# bytes of Brownian increments per chunk a noise helper shares; a block's buffer holds
# two, and with no helper one chunk fills it: a longer path is drawn and integrated in
# time chunks, which never changes the result
NOISE_CHUNK_BYTES = 4 * 2**20
# the bytes one step's increments may take in a block (`chains_per_block`), so that a
# chunk holds at least 8 steps
STEP_NOISE_BYTES = NOISE_CHUNK_BYTES // 8
# rows of a chunk a thread takes at a time when drawing it: one queue get and one scaling each
ROW_RUN = 8
# the most chains of a block whose chunks a helper thread shares: a chunk row then holds
# about NOISE_CHUNK_BYTES / (8 * 128) = 4096 normals or more (4000 at d = 100), and the
# helper's draws leave the GIL free most of the time; with shorter rows the block's own
# steps wait for the GIL around every row (with 1024-normal rows, 512-chain blocks at
# d = 1 and 10 ran 1.1x slower with a helper than without on a 2-vCPU machine)
HELPER_MAX_CHAINS = 128
# the fewest increments per chain-step (d) for which `chains_per_block` cuts a multi-chunk
# path into helper-sized blocks: 512 or 2048 chains of the exact drift in 128-chain blocks
# with a helper took, against one block without, 0.54-0.59 of the wall time at d = 100,
# 0.54-0.65 at d = 50, 0.71-0.88 at d = 20 and 30, 0.93-1.12 at d = 10 and 2.4-2.5 at
# d = 1, with at most 16 % more CPU time at d = 50 and 100 but 24-70 % more at d = 10 to
# 30 (2 vCPUs)
HELPER_MIN_DIM = 50


@dataclass(frozen=True)
class SfsConfig:
    """Configuration of the diffusion sampler on the uniform grid t_n = n / n_steps."""

    n_steps: int
    beta: float = 1.0
    drift: str = "gmm_exact"
    n_mc: int = 200          # pool size M for the Monte Carlo drift
    antithetic: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        _check_beta(self.beta)

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

    def __post_init__(self):
        for name in ("step", "horizon", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.method != "ula" and self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if self.method not in ("ula", "uld", "baoab"):
            raise ConfigError(f"unknown Langevin method '{self.method}'")
        if self.method == "ula" and (self.m0 is not None or self.draw_momentum):
            name = "m0" if self.m0 is not None else "draw_momentum"
            raise ConfigError(f"field '{name}': ULA has no momentum")
        n = self.horizon / self.step
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigError(
                f"horizon {self.horizon} is not a positive multiple of step {self.step}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


def _check_finite(step, t, *states):
    """Raise DivergenceError naming every chain with a non-finite entry in any state.

    One `isfinite(...).all()` per state decides. Unlike a sum it cannot overflow on finite
    entries, so numpy warns of nothing; for 512 chains at d = 1 it takes 1.65 us (2 vCPUs),
    a sum 1.2 us and a max and a min 2.6 us."""
    if all(np.isfinite(s).all() for s in states):
        return
    bad = np.logical_or.reduce([~np.isfinite(s).all(axis=-1) for s in states])
    chains = np.flatnonzero(bad).tolist()
    raise DivergenceError(
        f"non-finite state at step {step} (t={t:g}) in chains {chains}",
        step=step,
        t=t,
        chains=chains,
    )


def _integrate(kernel, h, n_steps, noise, start, states, what):
    """The one loop of every integrator: states <- kernel(n, dw_n, *states) for each
    global step n of `noise`, each step followed by a finite check at t = (n + 1) h.

    noise, (k, d) for one chain or (chains, k, d), is either the whole path (start=None)
    or one time chunk of it: the global steps start, ..., start + k - 1, entered from
    `states` (what an earlier chunk returned; None for zeros), which are copied, so a
    kernel may update them in place. Feeding consecutive chunks gives the result of one
    whole run. A ZeroMassError is tagged with its step. Returns the terminal state, a
    tuple if there are several.
    """
    dw = np.asarray(noise, dtype=float)
    single = dw.ndim == 2
    if single:
        dw = dw[None]
    if dw.ndim != 3:
        raise ConfigError(f"{what} must have shape (n_steps, d) or (chains, n_steps, d)")
    n_chains, k, d = dw.shape
    if start is None:
        if k != n_steps:
            raise ConfigError(f"{what} provide {k} steps but the config asks for {n_steps}")
        start = 0
    elif not (0 <= start and start + k <= n_steps):
        raise ConfigError(
            f"{what} cover steps {start}..{start + k - 1}, outside the config's {n_steps} steps"
        )
    states = [np.array(np.broadcast_to(0.0 if s is None else s, (n_chains, d)), dtype=float)
              for s in states]
    try:
        for n in range(start, start + k):
            states = kernel(n, dw[:, n - start], *states)
            _check_finite(n, (n + 1) * h, *states)
    except ZeroMassError as exc:
        raise ZeroMassError(f"{exc} at step {n}", step=n, t=exc.t, chains=exc.chains) from None
    if single:
        states = tuple(s[0] for s in states)
    return states if len(states) > 1 else states[0]


def sfs_run(drift_fn, cfg: SfsConfig, increments, start=None, state=None):
    """Integrate the diffusion from 0 over [0, 1] with the given Brownian increments.

    increments must be N(0, h I) draws; the drift is only ever evaluated on the
    grid t_n = n h <= 1 - h. Identical increments and drift give bit-identical
    output. Returns the terminal state; see `_integrate` for chunks.
    """
    h, sqrt_beta = cfg.h, np.sqrt(cfg.beta)
    term = None  # h f, then sqrt(beta) dW: one scratch array for the call, made at its first step

    def step(n, dw, y):
        nonlocal term
        if term is None:
            term = np.empty_like(y)
        # y is _integrate's copy; the drift's output is never written
        y += np.multiply(drift_fn(y, n * h), h, out=term)
        y += np.multiply(dw, sqrt_beta, out=term)
        return (y,)

    return _integrate(step, h, cfg.n_steps, increments, start, [state], "increments")


def ula_run(target: TargetSpec, cfg: LangevinConfig, increments, start=None, state=None):
    """Overdamped Langevin: x <- x - h grad V(x) + sqrt(2) dW, dW ~ N(0, h I)."""
    h = cfg.step

    def step(n, dw, x):
        x -= h * grad_potential(target, x)
        x += np.sqrt(2.0) * dw
        return (x,)

    x0 = cfg.x0 if state is None else state
    return _integrate(step, h, cfg.n_steps, increments, start, [x0], "increments")


def uld_euler_run(target: TargetSpec, cfg: LangevinConfig, increments, start=None, state=None):
    """Euler scheme for underdamped Langevin; returns the terminal (x, m) pair."""
    h, gamma = cfg.step, cfg.gamma

    def step(n, dw, x, m):
        x_new = x + h * m
        m = m - h * grad_potential(target, x) - h * gamma * m + np.sqrt(2.0 * gamma) * dw
        return x_new, m

    xm = (cfg.x0, cfg.m0) if state is None else state
    return _integrate(step, h, cfg.n_steps, increments, start, xm, "increments")


def baoab_run(target: TargetSpec, cfg: LangevinConfig, gaussians, start=None, state=None):
    """BAOAB splitting: half kick, half drift, exact OU refresh, half drift, half kick.

    gaussians are plain standard normals (the OU step scales them itself).
    """
    h, gamma = cfg.step, cfg.gamma
    c1 = np.exp(-gamma * h)
    c2 = np.sqrt(1.0 - c1 * c1)

    def step(n, xi, x, m):
        m = m - 0.5 * h * grad_potential(target, x)
        x = x + 0.5 * h * m
        m = c1 * m + c2 * xi
        x = x + 0.5 * h * m
        m = m - 0.5 * h * grad_potential(target, x)
        return x, m

    xm = (cfg.x0, cfg.m0) if state is None else state
    return _integrate(step, h, cfg.n_steps, gaussians, start, xm, "gaussians")


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
    pool: Optional[NoisePool] = None   # (B, M, d) block of pools (Monte Carlo drifts)


def open_chains(cfg, d, root_seed, chain_ids) -> ChainStreams:
    """Open RngStream(root_seed, i) for each chain i and draw, in the documented order,
    its momentum (if any) and its noise pool (if any), the pools straight into the
    block's one (B, M, d) array; increments come next."""
    if isinstance(cfg, SfsConfig):
        scale = np.sqrt(cfg.h)
        momentum, needs_pool = False, cfg.drift in POOL_DRIFTS
    else:
        scale = 1.0 if cfg.method == "baoab" else np.sqrt(cfg.step)
        momentum, needs_pool = cfg.draw_momentum, False
    gens = [RngStream(root_seed, i).generator() for i in chain_ids]
    m0 = np.stack([gen.standard_normal(d) for gen in gens]) if momentum else None
    pool = draw_noise_pools(cfg.n_mc, d, gens, cfg.antithetic) if needs_pool else None
    return ChainStreams(gens, scale, m0=m0, pool=pool)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_rows(streams: ChainStreams, chunk, runs):
    """Take the first row of a ROW_RUN-row run of `chunk` off the queue `runs` until it is
    empty: draw each row i of the run from chain i's generator, then scale the run."""
    gens, scale = streams.gens, streams.scale
    while True:
        try:
            lo = runs.get_nowait()
        except Empty:
            return
        hi = min(lo + ROW_RUN, len(chunk))
        for i in range(lo, hi):
            gens[i].standard_normal(out=chunk[i])
        chunk[lo:hi] *= scale


def increment_chunks(streams: ChainStreams, n_steps, d, workers=1):
    """Yield (start, chunk): every chain's increments for the global steps start, ...,
    chunk by chunk; a chunk stays valid until the next one is asked for.

    The chunks are drawn into one (B, 2k, d) buffer, k the most steps (at least one)
    that fit NOISE_CHUNK_BYTES, each from a queue of its ROW_RUN-row runs by
    `_draw_rows`. If the path has more than one chunk, the block has at most
    HELPER_MAX_CHAINS chains and the process has more CPUs than `workers` (the block
    workers running), one helper thread shares the draws, and k-step chunks alternate
    between the buffer's halves: each chunk's queue goes to the helper as one future as
    soon as the previous chunk is handed out, and asking for the chunk draws the runs
    left on the queue, then waits for the future, which raises what the helper raised.
    With no helper no chunk is drawn while another is in use, so each fills the whole
    buffer, at half the generator calls. A chain's rows of a chunk are one call to its
    generator, and the chunks are drawn in order, so who draws a row never changes a
    result. Close the generator to leave a path early: that empties the pending queue
    and joins the helper.
    """
    b = len(streams.gens)
    k = min(n_steps, max(1, NOISE_CHUNK_BYTES // (b * d * 8)))
    buf = np.empty((b, min(2 * k, n_steps), d))
    helper = None
    if n_steps > k and b <= HELPER_MAX_CHAINS and usable_cpus() > workers:
        helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="increment-chunks")
    k = buf.shape[1] if helper is None else k

    def next_chunk(start):  # the chunk of steps start, ..., its queue of runs, and its future
        lo = start % buf.shape[1]
        chunk, runs = buf[:, lo : lo + min(k, n_steps - start)], SimpleQueue()
        for row in range(0, b, ROW_RUN):
            runs.put(row)
        return chunk, runs, helper.submit(_draw_rows, streams, chunk, runs) if helper else None

    chunk, runs, pending = next_chunk(0)
    try:
        for start in range(0, n_steps, k):
            _draw_rows(streams, chunk, runs)
            if pending is not None:
                pending.result()
            drawn = chunk
            if start + k < n_steps:
                chunk, runs, pending = next_chunk(start + k)
            yield start, drawn
    finally:
        if helper is not None:
            with suppress(Empty):  # the helper may take the last run first
                while True:
                    runs.get_nowait()
            helper.shutdown()


def chains_per_block(cfg, target: TargetSpec) -> int:
    """The chains of one ensemble block: the largest power of two, at most MAX_BLOCK (and
    at least 1), whose widest per-chain array of one step fits BLOCK_BYTES and whose
    increments of one step fit STEP_NOISE_BYTES. Shorter noise chunks would mean more
    generator calls per step: at d = 100, 1024 chains in one block ran 1.5x slower than
    in two blocks of 512 (2-vCPU machine). A path of d >= HELPER_MIN_DIM whose increments
    take more than one chunk at HELPER_MAX_CHAINS chains runs in blocks of at most that
    many, so that a noise helper may share its draws (`increment_chunks`); the steps of
    a smaller d are too light for the helper to pay for the extra blocks.

    Floats per chain: kappa d for the exact drift (kappa mixture components), M max(d,
    kappa + 1) for the Monte Carlo drifts (the pool, or the mixture's forms over it),
    n^d d for n-node quadrature, and kappa d on a mixture (d otherwise) for Langevin. The
    size depends on the config (its step count included) and the target alone, never on
    the chain or thread count, and no step reads another chain's row, so it never
    changes a result.
    """
    d = target.dim
    kappa = 0 if target.mixture is None else target.mixture.n_components
    if not isinstance(cfg, SfsConfig):
        width = max(kappa, 1) * d
    elif cfg.drift == "gmm_exact":
        width = kappa * d
    elif cfg.drift == "quadrature":
        width = QUADRATURE_NODES**d * d
    else:
        width = cfg.n_mc * max(d, kappa + 1)
    chains = MAX_BLOCK
    while chains > 1 and (chains * width * 8 > BLOCK_BYTES or chains * d * 8 > STEP_NOISE_BYTES):
        chains //= 2
    if d >= HELPER_MIN_DIM and cfg.n_steps * HELPER_MAX_CHAINS * d * 8 > NOISE_CHUNK_BYTES:
        chains = min(chains, HELPER_MAX_CHAINS)
    return chains


def _run_block(cfg, target, root_seed, chain_ids, workers):
    """Terminal positions of one block, its increments drawn and integrated chunk by chunk."""
    streams = open_chains(cfg, target.dim, root_seed, chain_ids)
    if isinstance(cfg, SfsConfig):
        drift_fn = make_drift(target, cfg.beta, cfg.drift, pool=streams.pool, n_steps=cfg.n_steps)
        integrator, head = sfs_run, (drift_fn, cfg)
    else:
        integrator = {"ula": ula_run, "uld": uld_euler_run, "baoab": baoab_run}[cfg.method]
        head = (target, cfg)
    state = None if streams.m0 is None else (cfg.x0, streams.m0)
    with closing(increment_chunks(streams, cfg.n_steps, target.dim, workers)) as chunks:
        for start, chunk in chunks:
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


def map_blocks(fn, n_chains, threads=1, block=ENSEMBLE_BLOCK) -> list:
    """fn(ids, workers) for each run of `block` consecutive chain ids (fewer in the last),
    in block order, on `workers` = min(threads, blocks, usable CPUs) workers, which never
    changes a result. The caller picks a block size that depends on neither n_chains nor
    threads (`chains_per_block`), so the partition is fixed too. Each block runs in a copy
    of the caller's context, so a worker thread sees the caller's `np.errstate`. A
    numerical failure in any block fails the whole call, with the step, t and global
    chain ids of every failed block."""
    if n_chains < 1:
        raise ConfigError(f"n_chains must be >= 1, got {n_chains}")
    ids = list(range(n_chains))
    blocks = [ids[lo : lo + block] for lo in range(0, n_chains, block)]
    workers = max(1, min(threads, len(blocks), usable_cpus()))

    def task(ids):
        try:
            return fn(ids, workers), None
        except NumericalError as exc:
            exc.chains = [ids[c] for c in exc.chains]
            return None, exc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, task, ids) for ids in blocks]
            results = [f.result() for f in futures]
    else:
        results = [task(ids) for ids in blocks]

    failed = [err for _, err in results if err is not None]
    if failed:
        raise _aggregate(failed)
    return [out for out, _ in results]


def run_ensemble(cfg, target: TargetSpec, n_chains, root_seed, threads=1) -> SampleBatch:
    """Run n_chains chains through `map_blocks`; chain i draws from RngStream(root_seed, i)."""
    blocks = map_blocks(partial(_run_block, cfg, target, root_seed), n_chains, threads,
                        chains_per_block(cfg, target))
    samples = np.concatenate(blocks, axis=0)
    sfs = isinstance(cfg, SfsConfig)
    meta = {
        "sampler": cfg.drift if sfs else cfg.method,
        "method": "sfs" if sfs else cfg.method,
        "target": target.kind,
        "beta": cfg.beta if sfs else None,
        "h": cfg.h if sfs else cfg.step,
        "M": cfg.n_mc if sfs and cfg.drift in POOL_DRIFTS else None,
        "seed": int(root_seed),
        "n_chains": int(n_chains),
        "dim": target.dim,
    }
    return SampleBatch(samples=samples, meta=meta)
