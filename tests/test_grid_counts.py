"""The grid's draws: each repetition's sample is its 2^11 cell counts, drawn
once by ``dgp.sample_counts`` at seed base_seed + rep on the one law, in
that repetition's own ``_run_rep`` call, in index order; its pass reads them
as ``cross_fit`` reads a sample of the same counts and seed
(``harness._counts``). The pipeline draws only as its results are asked for,
so abandoned results draw no further repetition; a failing draw reaches the
caller with its type and message and nothing is drawn after it. Neither
starts a process or a thread. The law is built once, and each searched
class's truth once on it, whichever optimizer the grid runs.
"""

import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from proxidtr import dgp, estimators, harness
from proxidtr.harness import ExperimentConfig, block_length, run_experiment

CONFIGS = {
    "one-fold": ExperimentConfig(reps=32),  # blocks of 15, 15 and 2
    # cross-fitted, with failed and scored cells mixed: blocks of 13, 13 and 4
    "folds3": ExperimentConfig(n=6000, reps=30, folds=3),
    # many blocks of small draws
    "tiny-draws": ExperimentConfig(scenarios=("all-correct",), methods=("SRA",), n=40, reps=200),
}


def _recorded(monkeypatch) -> list[tuple]:
    """Record each ``_run_rep`` call as ("call", rep) and each count draw of
    the grid as ("draw", n, seed), in the order they start; a draw from any
    law but the grid's fails the test."""
    events, draw, run_rep = [], harness.sample_counts, harness._run_rep

    def drawn(params, n, seed):
        assert params is harness._law()
        events.append(("draw", n, seed))
        return draw(params, n, seed)

    def called(config, truth, rep, blocks):
        events.append(("call", rep))
        return run_rep(config, truth, rep, blocks)

    monkeypatch.setattr(harness, "sample_counts", drawn)
    monkeypatch.setattr(harness, "_run_rep", called)
    return events


def _calls_and_draws(config: ExperimentConfig, reps) -> list[tuple]:
    """The events of ``reps``' calls, each drawing its own repetition's counts."""
    return [event for rep in reps for event in (("call", rep), ("draw", config.n, config.base_seed + rep))]


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_each_repetition_is_drawn_once_in_its_own_call(case, monkeypatch, forks):
    config = CONFIGS[case]
    events = _recorded(monkeypatch)
    run_experiment(config)
    assert events == _calls_and_draws(config, range(config.reps))
    assert forks == []


@pytest.mark.parametrize("folds", [1, 2, 3, 5])
def test_a_pass_reads_the_counts_and_folds_of_a_sample_of_those_counts(folds):
    """What ``cross_fit`` reads of ``Dataset(np.repeat(np.arange(2048),
    cells), seed)``: its observed counts and, with folds, the own counts of
    ``fold_counts`` at its seed."""
    config = ExperimentConfig(n=6000, reps=3, folds=folds, base_seed=11)
    params = harness._law()
    for rep in range(config.reps):
        seed = config.base_seed + rep
        cells, observed, own = harness._counts(config, params, rep)
        assert np.array_equal(cells, dgp.sample_counts(params, config.n, seed))
        assert not cells.flags.writeable and not observed.flags.writeable
        data = dgp.Dataset(np.repeat(np.arange(2 ** 11), cells), seed)
        assert np.array_equal(observed, data.observed_counts)
        if folds == 1:
            assert own is None
        else:
            assert np.array_equal(own, estimators.fold_counts(data.observed_counts, data.seed, folds)[0])


# a pass of four steps (the fit, PMR's two distinct densities, the scoring), so blocks of four
FOUR_STEPS = ExperimentConfig(methods=("PMR", "SRA"), scenarios=("all-correct", "all-wrong"), n=4000, base_seed=77)
BLOCK = block_length(FOUR_STEPS)


@pytest.mark.parametrize("failing", [0, BLOCK - 1, BLOCK, BLOCK + 2, 2 * BLOCK - 1])
def test_a_failing_draw_reaches_the_caller_and_draws_nothing_after_it(failing, monkeypatch, forks):
    """The first call, the call that completes the first block, the first
    call that runs a step, one in the middle of a block, and the last call,
    which would finish both blocks."""
    config = replace(FOUR_STEPS, reps=2 * BLOCK)
    events = _recorded(monkeypatch)
    draw = harness.sample_counts

    def failing_draw(params, n, seed):
        if seed == config.base_seed + failing:
            raise ValueError(f"no counts for seed {seed}")
        return draw(params, n, seed)

    monkeypatch.setattr(harness, "sample_counts", failing_draw)
    before = threading.active_count()
    with pytest.raises(ValueError) as info:
        run_experiment(config)
    assert type(info.value) is ValueError
    assert str(info.value) == f"no counts for seed {config.base_seed + failing}"
    assert events == _calls_and_draws(config, range(failing)) + [("call", failing)]
    assert threading.active_count() == before and forks == []


@pytest.mark.parametrize("taken", [1, BLOCK, BLOCK + 1, 13])
def test_abandoned_results_draw_no_further_repetition(taken, monkeypatch, forks):
    """A block's results come in the call that fills the next block, or in
    the last call: taking ``taken`` results draws up to that call's
    repetition and no further, and closing the results leaves no thread."""
    config = replace(FOUR_STEPS, reps=13)  # blocks of 4, 4, 4 and 1
    events = _recorded(monkeypatch)
    before = threading.active_count()
    results = harness._rep_results(config, harness._truth_context(config))
    assert len(list(itertools.islice(results, taken))) == taken
    results.close()
    last = min(config.reps, (taken - 1) // BLOCK * BLOCK + 2 * BLOCK) - 1
    assert events == _calls_and_draws(config, range(last + 1))
    assert threading.active_count() == before and forks == []


@pytest.mark.parametrize("optimizer, searched", [("value-max", "linear"), ("q-learning", "all-boolean")])
def test_the_law_and_the_searched_truth_are_built_once(optimizer, searched, monkeypatch):
    """A Q-learning grid over the linear class searches the Boolean class; a
    second grid builds no truth, and every truth is built on the one law."""
    config = ExperimentConfig(scenarios=("all-correct",), methods=("PMR",), optimizer=optimizer, reps=3)
    built, init = [], harness._Truth.__init__

    def recorded(self, params, regime_class):
        built.append(regime_class)
        init(self, params, regime_class)

    monkeypatch.setattr(harness._Truth, "__init__", recorded)
    run_experiment(config)
    assert built in ([], [searched])
    truth = harness._truth_context(config)
    assert truth.search_class.tag == searched and truth.params is harness._law()
    run_experiment(config)
    assert built in ([], [searched]) and harness._truth_context(config) is truth
    assert harness._law.cache_info().misses == 1
