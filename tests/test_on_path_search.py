"""Value maximization searches a class's on-path representatives.

Regimes that differ only off the path the data can reach (the same
``regime_equivalence_key``) read the same four density cells, so their
values are bit-equal under any density, and the first maximizer of a class
is the first member of its on-path block. ``RegimeClass.representatives``
holds that first member of each block, and ``identify.pick`` over them
picks the regime, and returns the value, that it picks over the whole class:
on random densities, on densities whose maximum ties exactly across blocks,
and with a NaN value in first place or elsewhere.
"""

import numpy as np
import pytest

from proxidtr import identify
from proxidtr.policy import DENSITY_CELLS, regime_equivalence_key


@pytest.fixture(params=["linear", "all-boolean"])
def regime_class(request, linear_class, boolean_class):
    return linear_class if request.param == "linear" else boolean_class


def _blocks(regime_class) -> dict[int, list[int]]:
    """Each on-path key -> the Boolean indices of its members, in member order."""
    blocks = {}
    for regime in regime_class.members:
        blocks.setdefault(regime_equivalence_key(regime), []).append(regime.index)
    return blocks


def _same_pick(g: np.ndarray, p_y0: np.ndarray, regime_class) -> tuple[np.ndarray, np.ndarray]:
    """The picks over the whole class, checked equal (values bit for bit,
    NaN where NaN) to the picks over its representatives."""
    chosen, value = identify.pick(g, p_y0, regime_class.index, "value-max")
    on_path, on_path_value = identify.pick(g, p_y0, regime_class.representatives, "value-max")
    assert on_path.tolist() == chosen.tolist()
    np.testing.assert_array_equal(on_path_value, value)
    return chosen, value


@pytest.mark.parametrize("tag, count", [("linear", 56), ("all-boolean", 64)])
def test_representatives_are_the_first_member_of_each_on_path_block(tag, count, linear_class, boolean_class):
    regime_class = linear_class if tag == "linear" else boolean_class
    blocks = _blocks(regime_class)
    reps = regime_class.representatives
    assert len(reps) == len(blocks) == count
    assert reps.tolist() == sorted(block[0] for block in blocks.values())
    assert np.issubdtype(reps.dtype, np.integer) and not reps.flags.writeable
    # a block is a column of cells: its members read the same four, and no two blocks read the same
    for block in blocks.values():
        assert (DENSITY_CELLS[:, block] == DENSITY_CELLS[:, block[:1]]).all()
    assert len({tuple(DENSITY_CELLS[:, rep]) for rep in reps.tolist()}) == count


def test_the_pick_over_representatives_is_the_pick_over_the_class_on_random_densities(regime_class):
    rng = np.random.default_rng(56)
    p = rng.random((200, 2))
    _same_pick(rng.random((200,) + (2,) * 5), p / p.sum(axis=1, keepdims=True), regime_class)


def test_the_pick_over_representatives_is_the_pick_over_the_class_under_ties_across_blocks(regime_class):
    """Cells of 0 and 1/2 with P(y0) = (1/2, 1/2) add exactly, so most
    densities' maximum is reached by several on-path blocks."""
    rng = np.random.default_rng(22)
    g = rng.integers(0, 2, (300,) + (2,) * 5) / 2
    chosen, value = _same_pick(g, np.full((300, 2), 0.5), regime_class)
    values = identify.class_values(g, np.full((300, 2), 0.5), regime_class.index)
    key = {index: k for k, block in _blocks(regime_class).items() for index in block}
    blocks_at_max = [len({key[i] for i in regime_class.index[row == row.max()].tolist()}) for row in values]
    assert sum(count > 1 for count in blocks_at_max) > 150  # the ties were planted
    assert (value == values.max(axis=1)).all()
    assert all(chosen[d] == regime_class.index[np.argmax(values[d])] for d in range(len(g)))


def test_the_pick_over_representatives_keeps_a_nan_in_first_place_and_never_picks_one_elsewhere(regime_class):
    rng = np.random.default_rng(7)
    first = int(regime_class.index[0])
    later = next(cell for cell in DENSITY_CELLS[:, regime_class.index].ravel() if cell not in DENSITY_CELLS[:, first])
    stack = rng.random((2,) + (2,) * 5)
    stack[0].flat[DENSITY_CELLS[3, first]] = np.nan
    stack[1].flat[later] = np.nan
    values = identify.class_values(stack, np.full((2, 2), 0.5), regime_class.index)
    assert np.isnan(values[0, 0]) and not np.isnan(values[1, 0]) and np.isnan(values[1]).any()
    chosen, value = _same_pick(stack, np.full((2, 2), 0.5), regime_class)
    assert chosen[0] == first and np.isnan(value[0]) and not np.isnan(value[1])
