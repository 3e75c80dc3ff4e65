"""Stacked repetitions: every grid runs each block of
``harness.block_length(config)`` repetitions as one stacked pass over their
counts, one step of the pass per ``_run_rep`` call, one block behind the
calls that draw (``harness._Blocks``). With folds the pass fits and
identifies sub-stacks of at most ``harness.SUB_STACK`` repetitions, each on
a piece table of its own that is dropped before the next one is made.

Stacking changes how the repetitions are computed, never what: every
repetition's results equal those of a pass over a stack of one, bit for bit.
A block is never split: a repetition that fails a step is dropped from it
and the step reruns without it (``tables.by_law``), so that only that
repetition is charged, with the reasons it gets alone. Every call but the
last runs at most one step, every fit, identification and scoring runs
inside a ``_run_rep`` call, and no call builds a ``Dataset``: a repetition
is drawn as its counts. A grid starts no process and no thread, whatever
the environment holds.
"""

import os
import threading
import weakref
from dataclasses import replace

import pytest

import proxidtr
from conftest import rep_alone, same_results
from proxidtr import dgp, estimators, harness, identify
from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment


def _alone(config: ExperimentConfig) -> list[dict]:
    """Each repetition's results from a pass over a stack of one."""
    truth, pseudo = harness._truth_context(config), harness._scenario_pseudo(config)
    return [rep_alone(config, truth, rep, pseudo) for rep in range(config.reps)]


def _report_text(config: ExperimentConfig) -> str:
    report = run_experiment(config)
    return "".join(emit_tables(report)) + report.to_json()


def _expected_text(config: ExperimentConfig, alone: list[dict], monkeypatch) -> str:
    """The report of ``config`` built from its repetitions' stacks of one."""
    with monkeypatch.context() as reference:
        reference.setattr(harness, "_rep_results", lambda *args: (results for results in alone))
        return _report_text(config)


# (reps, n): short blocks, one block, a block and one (15 + 1 at one fold), full blocks and a short one; at
# n = 5000 the blocks drop several repetitions, one step after another
SIZES = [(reps, 35000) for reps in (1, 2, 3, 4, 5, 8, 9, 14, 16, 27, 31)] + [(8, 5000), (31, 5000)]


@pytest.mark.parametrize("folds", [1, 5])
@pytest.mark.parametrize("reps, n", SIZES, ids=[str(reps) if n == 35000 else f"{reps}-n{n}" for reps, n in SIZES])
def test_reports_equal_stacks_of_one(reps, n, folds, monkeypatch):
    config = ExperimentConfig(n=n, reps=reps, folds=folds)
    alone = _alone(config)
    expected = _expected_text(config, alone, monkeypatch)
    got = list(harness._rep_results(config, harness._truth_context(config)))
    assert all(same_results(a, b) for a, b in zip(got, alone, strict=True))
    assert _report_text(config) == expected


# (n, folds, base_seed, the one repetition of the first block that fails, and where)
FAILING = {
    "oracle": (6000, 1, 86, 7),  # the Oracle's law has a zero conditioning cell
    "fit": (6000, 1, 2, 2),  # the fit fails
    "fit-folds5": (12000, 5, 6, 6),  # in the second sub-stack
    "fit-folds3": (12000, 3, 14, 12),  # the last sub-stack, of one repetition
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_block_with_one_failing_repetition_charges_only_it(case, monkeypatch):
    """The block is not split: the grid builds only its two full-block
    passes, and the failing repetition is dropped from the step it fails."""
    n, folds, base_seed, failing = FAILING[case]
    config = ExperimentConfig(n=n, folds=folds, base_seed=base_seed)
    block = harness.block_length(config)
    config = replace(config, reps=2 * block)
    stacks = []
    init = harness._Pass.__init__

    def recorded(self, config, truth, pseudo, reps, counts):
        stacks.append(reps)
        init(self, config, truth, pseudo, reps, counts)

    monkeypatch.setattr(harness._Pass, "__init__", recorded)
    got = list(harness._rep_results(config, harness._truth_context(config)))
    first_block = tuple(range(block))
    assert stacks == [first_block, tuple(range(block, 2 * block))]  # no stack of one
    alone = _alone(config)
    assert all(same_results(a, b) for a, b in zip(got, alone, strict=True))
    charged = [rep for rep in first_block if any(isinstance(r, str) for r in got[rep].values())]
    assert charged == [failing]
    reasons = {r for r in got[failing].values() if isinstance(r, str)}
    assert reasons and all(r.startswith("fit failed: ") for r in reasons)


def _steps_per_call(config: ExperimentConfig, monkeypatch):
    """Run ``config`` and check that the first block's calls run no step,
    that every later call but the last runs the step of its place in the
    block, and that the last call finishes every block."""
    block = harness.block_length(config)
    names = [name for name, *_ in harness._steps(config, block)]
    assert len(names) == block
    ran, step = [], harness._Pass.step

    def counted(self):
        ran.append(self.steps[self.done][0])
        step(self)

    monkeypatch.setattr(harness._Pass, "step", counted)
    per_call, run_rep = [], harness._run_rep

    def recorded(*args, **kwargs):
        before = len(ran)
        try:
            return run_rep(*args, **kwargs)
        finally:
            per_call.append(ran[before:])

    monkeypatch.setattr(harness, "_run_rep", recorded)
    reps = config.reps
    run_experiment(config)
    assert len(per_call) == reps
    assert per_call[:-1] == [[names[rep % block]] if rep >= block else [] for rep in range(reps - 1)]
    assert len(ran) == sum(len(harness._steps(config, min(block, reps - start))) for start in range(0, reps, block))


# a pass of four steps: the fit, PMR's two distinct densities, the scoring
FOUR_STEPS = ExperimentConfig(methods=("PMR", "SRA"), scenarios=("all-correct", "all-wrong"))


@pytest.mark.parametrize("reps", [5, 8, 9, 13])
def test_every_call_but_the_last_runs_at_most_one_layer(reps, monkeypatch):
    """A block and one, two blocks, two and one, and three and one, on a
    block of four."""
    assert harness.block_length(FOUR_STEPS) == 4
    _steps_per_call(replace(FOUR_STEPS, reps=reps), monkeypatch)


@pytest.mark.parametrize("folds", [1, 5])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("extra", [0, 1])
def test_every_call_but_the_last_runs_at_most_one_step(folds, blocks, extra, monkeypatch):
    """Runs of one, two and three blocks of the default config, 15 long, and
    of the five-fold one, 13 long, and each with one repetition more."""
    block = harness.block_length(ExperimentConfig(folds=folds))
    _steps_per_call(ExperimentConfig(folds=folds, reps=blocks * block + extra), monkeypatch)


@pytest.mark.parametrize("config, steps", [
    (ExperimentConfig(), 15),  # the fit, one identification per each of the 13 distinct densities, the scoring
    (ExperimentConfig(folds=5), 13),  # sub-stacks of 4, 4, 4 and 1, three steps each, then the scoring
    (ExperimentConfig(folds=3, optimizer="q-learning"), 13),
    (ExperimentConfig(methods=("PMR",)), 7),  # PMR's five distinct densities
    (ExperimentConfig(methods=("PMR", "SRA"), scenarios=("all-wrong",)), 3),
    (ExperimentConfig(methods=("SRA", "ORACLE")), 1),  # the scoring alone
    (ExperimentConfig(methods=("ORACLE",), folds=5), 1),
], ids=["default", "folds5", "folds3-q-learning", "pmr", "pmr-one-scenario", "baselines", "oracle-folds5"])
def test_a_block_is_as_long_as_its_pass_has_steps(config, steps):
    assert harness.block_length(config) == steps == len(harness._steps(config, steps))
    distinct = {key for key in harness._density_keys(config).values() if key[0] in harness.BRIDGE_METHODS}
    names = [name for name, *_ in harness._steps(config, steps)]
    assert names[-1] == "_score" and names.count("_score") == 1
    if config.folds == 1:
        assert names.count("_identify") == len(distinct)
    else:  # with folds, each sub-stack's densities in two steps
        assert names == ["_fit", "_identify", "_identify"] * (steps // 3) + ["_score"]


@pytest.mark.parametrize("reps", [1, 3, 13, 27])
def test_a_cross_fitted_block_keeps_one_sub_stack_piece_table_at_a_time(reps, monkeypatch):
    """At every step at most one ``identify.PieceTable`` is alive, and it
    reads the fold laws of at most ``SUB_STACK`` repetitions."""
    tables, alive, init = [], [], identify.PieceTable.__init__

    def tracked(self, law):
        init(self, law)
        tables.append(weakref.ref(self))

    def reps_read():
        return [table().law.mass.shape[0] for table in tables if table() is not None]

    step = harness._Pass.step

    def counted(self):
        step(self)
        alive.append(reps_read())

    monkeypatch.setattr(identify.PieceTable, "__init__", tracked)
    monkeypatch.setattr(harness._Pass, "step", counted)
    config = ExperimentConfig(folds=5, reps=reps)
    run_experiment(config)
    block = harness.block_length(config)  # 13
    assert len(tables) == sum(-(-min(block, reps - start) // harness.SUB_STACK) for start in range(0, reps, block))
    assert all(len(read) <= 1 and all(size <= harness.SUB_STACK for size in read) for read in alive)
    assert max(map(len, alive)) == 1 and reps_read() == []


def test_no_fit_identification_or_scoring_runs_outside_a_call(monkeypatch):
    inside, calls = [False], []

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, inside[0]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(estimators, "solve_bridges", watched("solve_bridges", estimators.solve_bridges))
    monkeypatch.setattr(harness, "_class_scores", watched("_class_scores", harness._class_scores))
    for method, fn in list(harness._DENSITY_FN.items()):
        monkeypatch.setitem(harness._DENSITY_FN, method, watched("_DENSITY_FN", fn))
    run_rep = harness._run_rep

    def call(*args, **kwargs):
        inside[0] = True
        try:
            return run_rep(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(harness, "_run_rep", call)
    run_experiment(ExperimentConfig(reps=27, folds=5))  # blocks of 13, 13 and 1
    assert {name for name, _ in calls} == {"solve_bridges", "_class_scores", "_DENSITY_FN"}
    assert all(within for _, within in calls)


def test_no_call_builds_a_dataset(monkeypatch):
    """A repetition is drawn as its counts: a block's pass holds only
    counts, and no call builds the rows of a sample."""
    built = []

    class Tracked(dgp.Dataset):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(dgp, "Dataset", Tracked)
    run_rep, calls = harness._run_rep, []

    def checked(*args, **kwargs):
        calls.append(None)
        return run_rep(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_rep", checked)
    config = ExperimentConfig(reps=9, folds=5)
    run_experiment(config)
    assert len(calls) == config.reps and built == []


# the worker-count variable of the retired process pool, spelled from the package name so that a search
# for the variable finds no code that reads it
STALE_VARIABLE = f"{proxidtr.__name__.upper()}_THREADS"


@pytest.mark.parametrize("stale", [False, True], ids=["clean", "stale-variable"])
@pytest.mark.parametrize("reps", [9, 1])
def test_a_grid_forks_no_process_and_starts_no_thread(reps, stale, monkeypatch, forks):
    """Whatever the CPUs and the environment hold: a stale worker-count
    variable or more CPUs change neither that nor a byte of the report."""
    config = ExperimentConfig(n=6000, reps=reps, folds=3)  # failed and scored cells mixed
    expected = _expected_text(config, _alone(config), monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    if stale:
        monkeypatch.setenv(STALE_VARIABLE, "2")
    before, run_rep, seen = threading.active_count(), harness._run_rep, []

    def counted(*args):
        seen.append(threading.active_count())
        return run_rep(*args)

    monkeypatch.setattr(harness, "_run_rep", counted)
    assert _report_text(config) == expected
    assert forks == [] and seen == [before] * reps and threading.active_count() == before
