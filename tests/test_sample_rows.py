"""``dgp.sample_rows``: any block of rows [start, stop) of a sample drawn
alone, bit for bit the same rows of ``dgp.sample``; its refusals; and
``dgp.sample`` drawing through it.

Philox is counter-based, so a block skips to each variable's words (stream
word k*n + i for variable k and row i) instead of drawing the rows before
it. The grid covers blocks that start and stop inside, at and across the
generator's 4-word counter blocks, at both ends of the sample and empty.
The whole sample, the block of all n rows, is pinned to the per-row
sampler in ``test_dgp``.
"""

import numpy as np
import pytest

from proxidtr import dgp

SIZES = (1, 2, 3, 5, 7, 8, 35000, 35001)
SEEDS = (0, 1, 2 ** 64 - 1)


def _blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) pairs: starts 0-5, n // 2, n - 1 and n, each with several stops."""
    starts = sorted({0, 1, 2, 3, 4, 5, n // 2, n - 1, n} & set(range(n + 1)))
    return [(start, stop) for start in starts
            for stop in sorted({start, start + 1, start + 2, start + 3, start + 5, (start + n) // 2, n - 1, n}
                               & set(range(start, n + 1)))]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_block_equals_the_same_rows_of_the_whole_sample(params, n, seed):
    whole = dgp.sample(params, n, seed).cell_code
    for start, stop in _blocks(n):
        block = dgp.sample_rows(params, n, seed, start, stop)
        assert block.dtype == np.int16 and block.shape == (stop - start,)
        assert np.array_equal(block, whole[start:stop]), (start, stop)


@pytest.mark.parametrize("start, stop, n", [(-1, 3, 5), (0, 6, 5), (4, 3, 5), (6, 6, 5), (0, -1, 5)])
def test_a_block_outside_the_sample_is_refused(params, start, stop, n):
    with pytest.raises(ValueError, match=rf"rows \[start, stop\) must satisfy 0 <= start <= stop <= n = {n}, "
                                         rf"got \[{start}, {stop}\)"):
        dgp.sample_rows(params, n, 1, start, stop)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_a_seed_outside_64_bits_is_refused(params, seed):
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
        dgp.sample_rows(params, 5, seed, 0, 5)
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
        dgp.sample(params, 5, seed)


def test_no_rows_are_refused(params):
    with pytest.raises(ValueError, match="n must be >= 1"):
        dgp.sample_rows(params, 0, 1, 0, 0)


def test_sample_draws_all_rows_through_sample_rows(params, monkeypatch):
    calls, original = [], dgp.sample_rows

    def recorded(params, n, seed, start, stop):
        calls.append((n, seed, start, stop))
        return original(params, n, seed, start, stop)

    monkeypatch.setattr(dgp, "sample_rows", recorded)
    data = dgp.sample(params, 1000, 42)
    assert calls == [(1000, 42, 0, 1000)]
    assert data.seed == 42 and np.array_equal(data.cell_code, original(params, 1000, 42, 0, 1000))
