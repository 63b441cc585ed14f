import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brt import rng as rng_module
from brt.rng import SplitMix64, sample_blocks, sample_without_replacement


def test_reference_values():
    # splitmix64 reference outputs for seed 1234567 (public test vectors)
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973
    assert rng.next_u64() == 9817491932198370423


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_uniform_in_unit_interval():
    rng = SplitMix64(9)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_below_bounds():
    rng = SplitMix64(5)
    vals = [rng.below(7) for _ in range(200)]
    assert set(vals) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_sample_without_replacement_properties():
    rng = SplitMix64(3)
    picked = sample_without_replacement(25, 23, rng)
    assert len(picked) == 23
    assert len(set(picked)) == 23
    assert picked == sorted(picked)
    assert all(0 <= i < 25 for i in picked)


def test_sample_consumes_exactly_k_draws():
    a = SplitMix64(8)
    sample_without_replacement(10, 4, a)
    b = SplitMix64(8)
    for _ in range(4):
        b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_sample_full_and_empty():
    rng = SplitMix64(1)
    assert sample_without_replacement(5, 5, rng) == [0, 1, 2, 3, 4]
    assert sample_without_replacement(5, 0, rng) == []
    with pytest.raises(ValueError):
        sample_without_replacement(3, 4, rng)


def _next_draw(rng):
    """The stream's next output, read from a copy so that rng does not move."""
    return copy.copy(rng).next_u64()


@st.composite
def _block_cases(draw):
    n = draw(st.integers(0, 60))
    k = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    seed = draw(st.integers(0, 2**64 - 1))
    return n, k, seed, draw(st.integers(1, 9)), draw(st.integers(0, 30))


def _check_blocks_match_scalar(n, k, seed, per_block, stages):
    blocked, scalar = SplitMix64(seed), SplitMix64(seed)
    yielded = 0
    with mock.patch.object(rng_module, "BLOCK_BYTES", per_block * 8 * (n + 2 * k + 3)):  # per_block stages a block
        for rows in sample_blocks(n, k, blocked, stages):
            assert rows.dtype == np.intp
            assert rows.tolist() == sample_without_replacement(n, k, scalar)
            assert _next_draw(blocked) == _next_draw(scalar)
            yielded += 1
    assert yielded == stages
    assert _next_draw(blocked) == _next_draw(scalar)


@settings(max_examples=300, deadline=None)
@given(_block_cases())
def test_sample_blocks_draw_what_the_scalar_calls_draw(case):
    _check_blocks_match_scalar(*case)


@pytest.mark.parametrize(
    "n, k, seed, per_block, stages",
    [(25, 23, 1, 4, 10), (25, 0, 7, 3, 7), (25, 25, 2**64 - 1, 3, 7), (1, 1, 0, 2, 5), (0, 0, 3, 1, 2)],
)
def test_sample_blocks_edges_and_partial_last_block(n, k, seed, per_block, stages):
    _check_blocks_match_scalar(n, k, seed, per_block, stages)


def test_sample_blocks_reject_what_they_cannot_draw():
    with pytest.raises(ValueError, match="0 <= k <= n"):
        next(sample_blocks(3, 4, SplitMix64(1), 1))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        next(sample_blocks(2**32, 1, SplitMix64(1), 1))
