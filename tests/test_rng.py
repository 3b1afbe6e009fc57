"""Tests for counter-based streams and dyadically refinable Brownian ladders."""

import numpy as np
import pytest

from sfsampler import BrownianLadder, RngStream, brownian_ladder_make
from sfsampler.errors import ConfigError
from sfsampler.rng import halve_increments


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(42, 7).generator().standard_normal(16)
        b = RngStream(42, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(42, 0).generator().standard_normal(16)
        b = RngStream(42, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_root_seeds_are_distinct(self):
        a = RngStream(1, 0).generator().standard_normal(16)
        b = RngStream(2, 0).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("key", [(7, 0), (7, 5), (7, 511), (0, 0), (2**64 - 1, 2**64 - 1)])
    def test_stream_is_philox_keyed_by_seed_and_id(self, key):
        gen = RngStream(*key).generator()
        philox = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        assert gen.standard_normal(1000).tobytes() == philox.standard_normal(1000).tobytes()
        assert gen.integers(0, 2**63, 7).tobytes() == philox.integers(0, 2**63, 7).tobytes()
        # 32-bit draws read the buffered halves of 64-bit words
        for _ in range(2):
            small = [g.integers(0, 2**31, 9, dtype=np.uint32).tobytes() for g in (gen, philox)]
            assert small[0] == small[1]


class TestBrownianLadder:
    def test_level_zero_single_increment(self):
        ladder = brownian_ladder_make(1, 0, RngStream(0, 0))
        assert ladder.increments.shape == (1, 1)

    def test_deterministic(self):
        a = brownian_ladder_make(3, 5, RngStream(9, 1)).increments
        b = brownian_ladder_make(3, 5, RngStream(9, 1)).increments
        assert np.array_equal(a, b)

    def test_increment_variance(self):
        ladder = brownian_ladder_make(2, 10, RngStream(4, 0))
        # each increment ~ N(0, 2^-10 I): pooled variance over 1024 * 2 draws
        assert np.var(ladder.increments) == pytest.approx(2.0**-10, rel=0.15)

    def test_pairwise_sum_equals_coarse_view(self):
        ladder = brownian_ladder_make(1, 3, RngStream(5, 0))
        fine = ladder.increments
        expected = fine[0::2] + fine[1::2]
        assert np.array_equal(halve_increments(fine), expected)

    def test_telescoping_terminal_sum_bit_exact(self):
        # pairwise-tree summation makes W_1 bit-identical at every level
        ladder = brownian_ladder_make(3, 6, RngStream(8, 0))
        levels = [ladder.increments]  # level 6 down to level 0
        while levels[-1].shape[0] > 1:
            levels.append(halve_increments(levels[-1]))
        assert [level.shape for level in levels] == [(2**k, 3) for k in range(6, -1, -1)]
        w1 = levels[-1][0]
        for coarse in levels:
            total = coarse
            while total.shape[0] > 1:
                total = halve_increments(total)
            assert np.array_equal(total[0], w1)

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            brownian_ladder_make(1, -1, RngStream(0, 0))
        with pytest.raises(ConfigError):
            brownian_ladder_make(1, 21, RngStream(0, 0))

    def test_frozen_increments(self):
        ladder = brownian_ladder_make(1, 2, RngStream(0, 0))
        with pytest.raises(ValueError):
            ladder.increments[0, 0] = 1.0
        assert isinstance(ladder, BrownianLadder)
