"""Deterministic, refinable randomness.

Counter-based (Philox) streams keyed by (root_seed, stream_id), so ensemble
results do not depend on execution order, plus dyadically refinable Brownian
increments for coupled coarse/fine path simulation.

Per-chain draw protocol (fixed so that coupled experiments stay reproducible):
momentum init (if any), then the noise pool (if any), then Brownian increments.
`samplers.open_chains` and `samplers.increment_chunks` implement it, in the
same blocks (`samplers.map_blocks`) and time chunks for the ensemble runner and
the convergence curve. Consecutive draws from one generator equal one whole
draw, so results do not depend on the chunk size, and a Brownian ladder drawn
after the same pool is the same path. Every chunk is drawn one way: its rows
are handed out from a queue of runs, to the block's own thread and, on a path of
several chunks, to a helper that draws the next chunk as one future. Each row is
one call to its chain's generator per chunk, and the chunks are drawn in order,
so who draws a row never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError

MAX_LADDER_LEVEL = 20


class _ZeroSeed(ISeedSequence):
    """Seeds every Philox with a zero key, without the OS entropy an unseeded one reads."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED = _ZeroSeed()


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream derived from (root_seed, stream_id)."""

    root_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        """The stream of Philox(key=(root_seed, stream_id)) from counter 0. The key is set
        through the documented state, written whole (counter 0, empty buffer):
        Philox(key=...) would first build and discard a seed sequence drawn from OS
        entropy."""
        bits = np.random.Philox(_ZERO_SEED)
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([self.root_seed, self.stream_id], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return np.random.Generator(bits)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ConfigError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class BrownianLadder:
    """2**fine_level Brownian increments over [0, 1] at step 2**(-fine_level).

    Coarser grids are pairwise sums of adjacent increments (`halve_increments`),
    never new draws, so coarse and fine paths are coupled pathwise.
    """

    fine_level: int
    increments: np.ndarray  # (2**fine_level, d)

    @property
    def dim(self) -> int:
        return self.increments.shape[-1]


def brownian_ladder_make(d, fine_level, rng) -> BrownianLadder:
    """Draw a ladder of 2**fine_level increments, each ~ N(0, 2**(-fine_level) I)."""
    if not (0 <= fine_level <= MAX_LADDER_LEVEL):
        raise ConfigError(f"fine_level must be in [0, {MAX_LADDER_LEVEL}], got {fine_level}")
    gen = _as_generator(rng)
    n = 1 << fine_level
    inc = gen.standard_normal((n, d)) * np.sqrt(2.0 ** (-fine_level))
    inc.setflags(write=False)
    return BrownianLadder(fine_level=fine_level, increments=inc)


def halve_increments(increments):
    """Sum adjacent increments along the step axis (second to last axis). Halving
    repeatedly sums in a fixed binary tree, so the terminal value W_1 is bit-identical
    at every level."""
    return increments[..., 0::2, :] + increments[..., 1::2, :]
