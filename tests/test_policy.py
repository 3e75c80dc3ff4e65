"""Regime classes, enumeration, value maximization, and Q-learning extraction.

The linear-class membership is re-derived here with an independent
separability search (different weight grid, different scoring path) to
confirm the canonical 104 count and that no separable table is missed.
The array kernel (``class_values``, reading ``policy.DENSITY_CELLS``,
+ ``first_maximizer``) is checked regime by regime against the test-side
``regime_value`` loop and ``value_maximize`` search in ``conftest``. A class is the array of its
members' Boolean indices; its ``members``, rebuilt from those indices, are
pinned byte for byte by a hash of their JSON, and the harness's truth is
checked to build only its optimum, and its scoring, under either optimizer,
no ``Regime`` at all.
Q-learning's stacked greedy rule is checked against a cell-by-cell loop.
"""

import hashlib
import itertools
import json
import re
from functools import partial

import numpy as np
import pytest
from conftest import regime_value, rep_alone, value_maximize

from proxidtr import dgp, harness
from proxidtr.estimators import empirical_pmf, sra_from_conditional
from proxidtr.policy import (
    BOOLEAN_SIZE,
    D2_CELLS,
    DENSITY_CELLS,
    Regime,
    RegimeClass,
    class_values,
    enumerate_class,
    first_maximizer,
    q_learning_index,
    q_learning_regime,
    regime_equivalence_key,
)


def test_linear_class_counts(linear_class):
    d1_tables = {r.d1 for r in linear_class.members}
    d2_tables = {r.d2 for r in linear_class.members}
    assert len(d1_tables) == 4
    assert len(d2_tables) == 104
    assert len(linear_class.members) == 416


def test_boolean_class_count(boolean_class):
    assert len(boolean_class.members) == 1024
    assert len({(r.d1, r.d2) for r in boolean_class.members}) == 1024


def test_separable_tables_match_independent_search(linear_class):
    # independent certificate generator: a different integer grid, scored
    # through plain Python, with the strict ">= 1" margin trick
    points = [(1, y0, y1, a1) for y0, y1, a1 in D2_CELLS]
    separable = set()
    for weights in itertools.product(range(-3, 4), repeat=4):
        w = (2 * weights[0] - 1, 2 * weights[1], 2 * weights[2], 2 * weights[3])
        table = tuple(int(sum(wi * xi for wi, xi in zip(w, p)) > 0) for p in points)
        separable.add(table)
    enumerated = {r.d2 for r in linear_class.members}
    assert enumerated == separable
    assert len(separable) == 104


def test_linear_members_carry_reproducing_thetas(linear_class):
    for r in linear_class.members:
        assert abs(np.linalg.norm(r.theta1) - 1.0) < 1e-9
        assert abs(np.linalg.norm(r.theta2) - 1.0) < 1e-9
        for y0 in (0, 1):
            assert int(r.theta1[0] + r.theta1[1] * y0 > 0) == r.d1[y0]
        for y0, y1, a1 in D2_CELLS:
            score = r.theta2[0] + r.theta2[1] * y0 + r.theta2[2] * y1 + r.theta2[3] * a1
            assert int(score > 0) == r.d2_of(y0, y1, a1)


def test_enumeration_is_canonically_ordered(linear_class, boolean_class):
    for cls in (linear_class, boolean_class):
        keys = [r.index for r in cls.members]
        assert keys == sorted(keys)


def test_boolean_index_round_trip():
    assert [Regime.from_index(i).index for i in range(1024)] == list(range(1024))
    regime = Regime((1, 0), (0, 0, 0, 0, 0, 0, 1, 1))  # d1(0) is bit 9, d2 cell 7 is bit 0
    assert regime.index == 0b10_00000011 == 515
    assert Regime.from_index(515) == regime
    for bad in (-1, 1024, 2.5):
        with pytest.raises(ValueError, match="Boolean index"):
            Regime.from_index(bad)


def test_class_is_its_index(linear_class, boolean_class):
    for cls in (linear_class, boolean_class):
        assert cls.index.tolist() == [r.index for r in cls.members]
        assert not cls.index.flags.writeable
    assert np.array_equal(boolean_class.index, np.arange(1024))
    assert RegimeClass("linear", linear_class.index.tolist()) == linear_class
    assert RegimeClass("all-boolean", linear_class.index) != linear_class
    assert linear_class == enumerate_class("linear")


@pytest.mark.parametrize("tag, index", [
    ("all-boolean", [1, 0]), ("all-boolean", [0, 0]), ("all-boolean", [-1]), ("all-boolean", [1024]),
    ("all-boolean", [0.0]), ("all-boolean", [[0]]), ("linear", [0b00_01101001]),
])
def test_class_index_is_checked(tag, index):
    with pytest.raises(ValueError, match="class index"):
        RegimeClass(tag, np.array(index))


def test_members_json_is_pinned(linear_class, boolean_class):
    """The members built from the indices, certificates included, are pinned
    byte for byte by a hash of their JSON."""
    text = "".join(m.to_json() for cls in (linear_class, boolean_class) for m in cls.members)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "901a52a860c97c32"


@pytest.mark.parametrize("optimizer", ["value-max", "q-learning"])
def test_truth_builds_one_regime_and_scoring_none(monkeypatch, optimizer):
    """The truth builds only its optimum (``dgp.optimal_value``'s one member);
    picking and scoring a repetition build none."""
    config = harness.ExperimentConfig(optimizer=optimizer)
    params, tag = dgp.DgpParams.default(), harness._truth_context(config).search_class.tag
    built = []
    post_init = Regime.__post_init__
    monkeypatch.setattr(Regime, "__post_init__", lambda self: built.append(self) or post_init(self))
    truth = harness._Truth(params, tag)
    (optimum,) = built
    assert optimum == dgp.optimal_value(params, truth.search_class)[1]
    built.clear()
    results = rep_alone(config, truth, 0)
    assert not any(isinstance(r, str) for r in results.values())
    assert built == []
    q_learning_regime(np.zeros((2, 2, 2, 2)), np.zeros((2, 2)))
    assert len(built) == 1  # the counter sees a regime being built


def _greedy_loop_index(q2, q1) -> int:
    """The greedy regime's Boolean index by a cell-by-cell strict ``>`` loop."""
    d1 = [int(q1[y0, 1] > q1[y0, 0]) for y0 in (0, 1)]
    d2 = [int(q2[y0, y1, a1, 1] > q2[y0, y1, a1, 0]) for y0, y1, a1 in D2_CELLS]
    return Regime(d1, d2).index


def test_q_learning_index_picks_each_laws_greedy_regime():
    """On random, all-tie and NaN tables, the stacked greedy index of each law
    is the index of ``q_learning_regime`` and of a strict-``>`` loop."""
    rng = np.random.default_rng(17)
    q2 = rng.random((40, 2, 2, 2, 2))
    q1 = rng.random((40, 2, 2))
    q2[10:20], q1[10:20] = 0.5, 0.5  # every action tied
    q2[20:30, ..., 0] = q2[20:30, ..., 1]  # stage-2 ties only
    q2[30:][rng.random(q2[30:].shape) < 0.3] = np.nan
    q1[30:][rng.random(q1[30:].shape) < 0.3] = np.nan
    q2[39], q1[39] = np.nan, np.nan
    index = q_learning_index(q2, q1)
    assert index.shape == (40,)
    expected = [_greedy_loop_index(a, b) for a, b in zip(q2, q1)]
    assert index.tolist() == expected == [q_learning_regime(a, b).index for a, b in zip(q2, q1)]
    assert index[10] == index[39] == 0 and len(set(expected[:10])) > 5
    assert q_learning_index(q2[0], q1[0]) == expected[0]
    assert q_learning_index(q2.reshape(4, 10, 2, 2, 2, 2), q1.reshape(4, 10, 2, 2)).ravel().tolist() == expected


def test_bad_class_tag():
    with pytest.raises(ValueError):
        enumerate_class("quadratic")


def test_theta_must_reproduce_tables():
    with pytest.raises(ValueError):
        Regime((1, 1), (0,) * 8, theta1=(1.0, 0.0), theta2=(1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("d1", [(1, 0.5), (1, 2), (1, [0]), (1, "1")])
def test_regime_bits_are_checked_before_conversion(d1):
    with pytest.raises(ValueError, match="d1 must be 2 bits"):
        Regime(d1, (0,) * 8)


def test_regime_json_round_trip(linear_class):
    r = linear_class.members[37]
    again = Regime.from_json(r.to_json())
    assert again.d1 == r.d1 and again.d2 == r.d2
    assert again.theta1 == pytest.approx(r.theta1)
    bare = Regime((0, 1), (0, 1, 0, 1, 1, 0, 1, 0))
    assert Regime.from_json(bare.to_json()) == bare


@pytest.mark.parametrize("key, d1, d2", [
    ("d1", "[true, 1.0]", "[false, 0, 0, 0, 1, 1, 1, 1]"),
    ("d1", "[1, false]", "[0, 0, 0, 0, 1, 1, 1, 1]"),
    ("d1", "[1.0, 0]", "[0, 0, 0, 0, 1, 1, 1, 1]"),
    ("d2", "[1, 0]", "[0, 0, 0, 0, 1, 1, 1, true]"),
    ("d2", "[1, 0]", "[0, 0.0, 0, 0, 1, 1, 1, 1]"),
])
def test_regime_json_refuses_bits_that_are_not_integers(key, d1, d2):
    """true and 1.0 equal 1 in Python, so only their JSON type tells them from a bit."""
    bits = {"d1": d1, "d2": d2}[key]
    with pytest.raises(ValueError, match=re.escape(f"{key} bits must be the JSON integers 0 or 1, got {bits}")):
        Regime.from_json('{"d1": %s, "d2": %s}' % (d1, d2))


@pytest.mark.parametrize("extra", [{"theta_1": [1.0, 0.0]}, {"d3": [0, 1], "D1": [1, 0]}])
def test_regime_json_refuses_unknown_keys(linear_class, extra):
    """A misspelled key (a certificate that would never be checked) is named, not ignored."""
    payload = {**json.loads(linear_class.members[37].to_json()), **extra}
    with pytest.raises(ValueError, match=re.escape(f"unknown regime keys {sorted(extra)}")):
        Regime.from_json(json.dumps(payload))


def test_value_maximize_constant_returns_first(boolean_class):
    regime, value = value_maximize(lambda r: 0.25, boolean_class)
    assert regime is boolean_class.members[0]
    assert value == 0.25


def test_value_maximize_matches_brute_max(linear_class):
    rng = np.random.default_rng(11)
    score = {(r.d1, r.d2): rng.random() for r in linear_class.members}
    regime, value = value_maximize(lambda r: score[(r.d1, r.d2)], linear_class)
    assert value == max(score.values())
    assert score[(regime.d1, regime.d2)] == value


def test_subset_monotonicity(linear_class, boolean_class):
    rng = np.random.default_rng(5)
    table = rng.random((2, 2, 2, 2))  # value per on-path profile

    def fn(r):
        return sum(
            table[y0, y1, r.d1[y0], r.d2_of(y0, y1, r.d1[y0])]
            for y0 in (0, 1)
            for y1 in (0, 1)
        )

    _, lin = value_maximize(fn, linear_class)
    _, boo = value_maximize(fn, boolean_class)
    assert boo >= lin


def test_q_learning_strict_ties_choose_zero():
    q2 = np.zeros((2, 2, 2, 2))
    q1 = np.zeros((2, 2))
    regime = q_learning_regime(q2, q1)
    assert regime.d1 == (0, 0)
    assert regime.d2 == (0,) * 8


def test_q_learning_shift_invariance():
    rng = np.random.default_rng(9)
    q2 = rng.random((2, 2, 2, 2))
    q1 = rng.random((2, 2))
    base = q_learning_regime(q2, q1)
    shifted = q2 + rng.random((2, 2, 2, 1))  # constant per (y0, y1, a1) cell
    assert q_learning_regime(shifted, q1) == base


def test_q_learning_shape_validation():
    with pytest.raises(ValueError):
        q_learning_regime(np.zeros((2, 2)), np.zeros((2, 2)))


def test_equivalence_key_self():
    r = Regime((0, 1), (1, 0, 1, 0, 0, 1, 0, 1))
    assert regime_equivalence_key(r) == regime_equivalence_key(r)


def test_equivalence_key_ignores_off_path_cells(params):
    base = Regime((1, 0), (1, 1, 0, 0, 1, 0, 0, 1))
    # flip d2 at (y0=0, y1=0, a1=0): off-path because d1(0)=1
    flipped_bits = list(base.d2)
    flipped_bits[0] ^= 1
    other = Regime(base.d1, tuple(flipped_bits))
    assert regime_equivalence_key(base) == regime_equivalence_key(other)
    assert dgp.true_value(params, base) == pytest.approx(dgp.true_value(params, other), abs=1e-15)


def test_equivalence_key_count_over_boolean_class(boolean_class):
    keys = {regime_equivalence_key(r) for r in boolean_class.members}
    assert len(keys) == 64


def test_equal_keys_imply_equal_true_value(boolean_class, true_values):
    by_key = {}
    for r in boolean_class.members:
        by_key.setdefault(regime_equivalence_key(r), []).append(true_values[(r.d1, r.d2)])
    for values in by_key.values():
        assert max(values) - min(values) <= 1e-12


@pytest.fixture(scope="module")
def densities(oracle, p_y0, big_data):
    """(g, p_y0) pairs: the oracle, the SRA density of ``big_data`` and 5 random tables."""
    law = empirical_pmf(big_data)
    out = [(oracle.g, p_y0), (sra_from_conditional(law).g, law.marginal(("Y0",)))]
    rng = np.random.default_rng(404)
    for _ in range(5):
        p = rng.random(2)
        out.append((rng.random((2,) * 5), p / p.sum()))
    return out


def test_density_cells_are_each_boolean_indexs_four_value_cells(boolean_class):
    assert DENSITY_CELLS.shape == (4, BOOLEAN_SIZE)
    assert not DENSITY_CELLS.flags.writeable
    for regime in boolean_class.members:
        cells = [np.ravel_multi_index((regime.d1[y0], regime.d2_of(y0, y1, regime.d1[y0]), 1, y1, y0), (2,) * 5)
                 for y0 in (0, 1) for y1 in (0, 1)]
        assert DENSITY_CELLS[:, regime.index].tolist() == cells


def test_class_values_equal_regime_value_loop(densities, linear_class, boolean_class):
    """Bit for bit: one regime (``[regime.index]``), a class, every Boolean
    index, and one shared index over a stack of densities; no index (an empty
    list, which reshapes to a float array) gives no values."""
    for g, p in densities:
        assert class_values(g, p, []).shape == (0,)
        for regime in linear_class.members[::37]:
            assert class_values(g, p, [regime.index]).tolist() == [regime_value(g, p, regime)]
        assert class_values(g, p, np.arange(BOOLEAN_SIZE)).tolist() == [
            regime_value(g, p, r) for r in boolean_class.members]
        for cls in (linear_class, boolean_class):
            values = class_values(g, p, cls.index)
            assert values.tolist() == [regime_value(g, p, r) for r in cls.members]
            best = first_maximizer(values)
            regime, value = value_maximize(partial(regime_value, g, p), cls)
            assert cls.members[best] is regime
            assert values[best] == value
    g, p = (np.stack(arrays) for arrays in zip(*densities))
    values = class_values(g, p, linear_class.index)
    assert values.shape == (len(densities), len(linear_class.members))
    assert values.tolist() == [[regime_value(gk, pk, r) for r in linear_class.members] for gk, pk in densities]
    assert class_values(g, p, []).shape == (len(densities), 0)


@pytest.mark.parametrize("g_shape, p_shape", [
    ((2,) + (2,) * 5, (2,)),      # a stack of densities with one P(y0)
    ((2,) * 5, (3, 2)),           # one density with a stack of P(y0)
    ((3,) + (2,) * 5, (2, 2)),    # stacks of different lengths
    ((2,) * 4, (2,)),             # too few density axes
    ((2,) * 5, (3,)),             # P(y0) not over two values
])
def test_class_values_rejects_densities_that_do_not_match_p_y0(g_shape, p_shape):
    with pytest.raises(ValueError) as err:
        class_values(np.full(g_shape, 0.5), np.full(p_shape, 0.5), np.arange(BOOLEAN_SIZE))
    assert f"densities of shape {g_shape} do not match P(y0) of shape {p_shape}" in str(err.value)


@pytest.mark.parametrize("index", [[-1], [1024], [3, -2]])
def test_class_values_rejects_indices_outside_the_boolean_range(index):
    """A negative index would otherwise wrap around to the end of the table."""
    with pytest.raises(ValueError, match=r"Boolean indices must lie in \[0, 1024\)"):
        class_values(np.full((2,) * 5, 0.5), np.full(2, 0.5), index)


def test_equal_keys_give_exactly_equal_class_values(densities, boolean_class):
    keys = np.array([regime_equivalence_key(r) for r in boolean_class.members])
    for g, p in densities:
        values = class_values(g, p, boolean_class.index)
        for key in np.unique(keys):
            assert len(set(values[keys == key].tolist())) == 1


def test_constant_density_returns_first_member(linear_class, boolean_class):
    g = np.full((2,) * 5, 0.5)
    for cls in (linear_class, boolean_class):
        values = class_values(g, np.array([0.3, 0.7]), cls.index)
        assert first_maximizer(values) == 0


def test_nan_cell_follows_value_maximize(oracle, p_y0, linear_class, boolean_class):
    for cls in (linear_class, boolean_class):
        winner = first_maximizer(class_values(oracle.g, p_y0, cls.index))
        for member in (0, winner, len(cls.members) - 1):
            g = oracle.g.copy()
            g.flat[DENSITY_CELLS[3, cls.index[member]]] = np.nan
            values = class_values(g, p_y0, cls.index)
            regime, _ = value_maximize(partial(regime_value, g, p_y0), cls)
            assert np.isnan(values[member])
            assert cls.members[first_maximizer(values)] is regime


def _strict_loop(values) -> int:
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best]:
            best = k
    return best


def test_stacked_class_values_and_maximizer_equal_each_row(oracle, p_y0, linear_class, boolean_class):
    """One gather over a stack of densities, and the maximizer along its last
    axis, equal the per-density path, NaN rule included."""
    for cls in (linear_class, boolean_class):
        winner = first_maximizer(class_values(oracle.g, p_y0, cls.index))
        stack = [oracle.g]
        for members in ([0], [winner], [len(cls.members) - 1], [0, winner, len(cls.members) - 1]):
            g = oracle.g.copy()
            g.flat[DENSITY_CELLS[3, cls.index[members]]] = np.nan
            stack.append(g)
        stack.append(np.full((2,) * 5, np.nan))
        p = np.stack([p_y0 * (1 + k / 10) for k in range(len(stack))])
        values = class_values(np.stack(stack), p, cls.index)
        rows = [class_values(g, pk, cls.index) for g, pk in zip(stack, p)]
        assert values.shape == (len(stack), len(cls.members))
        np.testing.assert_array_equal(values, rows)  # bit for bit, NaN where NaN
        best = first_maximizer(values)
        assert best.tolist() == [first_maximizer(row) for row in rows] == [_strict_loop(row) for row in rows]
        assert first_maximizer(values.reshape(2, 3, -1)).tolist() == np.reshape(best, (2, 3)).tolist()


def test_first_maximizer_refuses_an_empty_class():
    for values in ([], np.zeros((3, 0))):
        with pytest.raises(ValueError, match="empty regime class"):
            first_maximizer(values)
