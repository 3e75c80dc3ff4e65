"""The piece table (``identify.PieceTable``): one table per law computes
every product the identification formula reads once, and reading through a
shared table changes no bit.

Checked on one sample at n = 35000, at one fold and at five: every bridge
density of a repetition read from the repetition's table equals the density
read from a fresh table of its own, for the fitted set and each scenario's
merged set; a counter over the piece recipes shows each distinct piece made
once per repetition; sets with different arrays read through one table get
their own densities; and the stacked fold average equals the per-density
average.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import rep_alone
from proxidtr import harness, identify
from proxidtr.bridges import pseudo_bridges
from proxidtr.harness import BRIDGE_METHODS, ExperimentConfig

FOLDS = (1, 5)


@pytest.fixture(scope="module", params=FOLDS)
def repetition(request, params):
    """(config, fits, each scenario's pseudo set) of the first repetition, as a stack of one."""
    config = ExperimentConfig(folds=request.param)
    _, observed, own = harness._counts(config, params, 0)
    fits = harness._bridge_fits(observed[None], None if own is None else own[None], config)
    return config, fits, harness._scenario_pseudo(config)


def test_shared_table_reads_every_density_bit_for_bit(repetition):
    config, (pieces, _, solved), pseudo = repetition
    sets = [solved] + [solved.merged(pseudo[tag]) for tag in config.scenarios]
    for _ in range(2):  # the second pass reads every piece from the table
        for b in sets:
            for method in BRIDGE_METHODS:
                shared = harness._DENSITY_FN[method](pieces, b).g
                fresh = identify.density_from_pieces(method, identify.PieceTable(pieces.law), b).g
                assert shared.shape == fresh.shape and shared.tobytes() == fresh.tobytes(), method


def _counting_recipes(monkeypatch) -> Counter:
    """Count each piece made, keyed by its name and its components' ids."""
    made = Counter()

    def counted(name, make):
        def recipe(table, *components):
            made[(name, *map(id, components))] += 1
            return make(table, *components)
        return recipe

    monkeypatch.setattr(identify, "_PIECES", {name: counted(name, make) for name, make in identify._PIECES.items()})
    return made


@pytest.mark.parametrize("folds", FOLDS)
def test_each_distinct_piece_is_made_once_per_repetition(params, folds, monkeypatch):
    config = ExperimentConfig(folds=folds, reps=1)
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    made = _counting_recipes(monkeypatch)
    results = rep_alone(config, truth, 0, pseudo)
    assert not any(isinstance(r, str) for r in results.values())
    assert set(made.values()) == {1}
    # each bridge component is either fitted or the one shared pseudo array, so over the
    # 13 densities: 5 marginals; the h22 layout, smoothed, f_obs - smoothed (and f_obs - 0
    # for PIPW), mid22 and mid21 of each of 2 outcome bridges; 2 h21-terms; 6 q22-terms
    # (PIPW 2, PMR 4); 9 q11-terms (PHA 4, PMR 5)
    kinds = Counter(key[0] for key in made)
    assert kinds == {"f_w1z1": 1, "f_w1": 1, "no_y2": 1, "f_obs": 1, "f_mid": 1, "h22 layout": 2, "smoothed": 2,
                     "f_obs - smoothed": 3, "mid22": 2, "mid21": 2, "h21-term": 2, "q22-term": 6, "q11-term": 9}


def test_sets_with_different_arrays_get_their_own_densities(repetition):
    """Sets made and dropped one after another, read through one table: the
    table holds every component it keyed, so no dropped array's id can serve
    a later set a stale piece."""
    _, (pieces, _, solved), _ = repetition
    for seed in range(6):
        b = solved.merged(pseudo_bridges(seed, ("h22", "h21", "q11", "q22")[seed % 4:]))
        for method in BRIDGE_METHODS:
            fresh = identify.density_from_pieces(method, identify.PieceTable(pieces.law), b).g
            assert identify.density_from_pieces(method, pieces, b).g.tobytes() == fresh.tobytes()
    equal_copy = solved.merged(pseudo_bridges(0))
    for method in BRIDGE_METHODS:
        assert np.array_equal(identify.density_from_pieces(method, pieces, equal_copy).g,
                              identify.density_from_pieces(method, pieces, solved.merged(pseudo_bridges(0))).g)


def test_stacked_fold_average_equals_each_densitys_average(repetition):
    config, fits, pseudo = repetition
    pieces, p_y0, solved = fits
    merged = {(m, tag): pseudo[tag] for tag in config.scenarios for m in BRIDGE_METHODS}
    g_bars, p_bar = harness._fold_average(harness._bridge_densities(fits, merged), p_y0)
    assert g_bars.shape == (1, len(merged)) + (2,) * 5 and p_bar.shape == (1, 2)
    if config.folds == 1:
        assert p_bar is p_y0
    for ((method, tag), g_bar) in zip(merged, g_bars[0]):
        g = identify.density_from_pieces(method, pieces, solved.merged(pseudo[tag])).g[0]
        if config.folds == 1:
            assert g_bar.tobytes() == g.tobytes()
            continue
        # one density's fold average, fold by fold in fold order
        expected_p = sum(p_y0[0]) / len(p_y0[0])
        expected_g = sum(g * p_y0[0][:, None, None, None, None, :]) / len(p_y0[0]) / expected_p[None, None, None, None, :]
        assert g_bar.tobytes() == expected_g.tobytes() and p_bar[0].tobytes() == expected_p.tobytes()
