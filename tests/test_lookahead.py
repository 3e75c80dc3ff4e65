"""The grid's look-ahead: one helper process draws the first rows of the
samples two repetitions ahead, and the main process draws the rest when a
repetition's call starts (``harness._Blocks.draw``); ``harness._balance``
moves the split toward balance.

The look-ahead changes where and when rows are drawn, never what is drawn,
so every repetition's results equal those of a stack of one sampling
inline, and a report is byte-identical at any split and with inline draws
(one repetition or one CPU). The parent process draws only tails, rows
[split, n). The helper lives
inside ``run_experiment`` only, also when a head or a tail draw fails, the
results are abandoned or the helper dies, and a wrapper on
``harness.sample`` (the benchmark's layer hook) is never called for the
look-ahead's draws. ``fold_counts`` is checked here against a per-row
reference.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from conftest import rep_alone, same_results
from test_estimators import fold_assignments
from proxidtr import dgp, estimators, harness
from proxidtr.cli import main
from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment

pytestmark = pytest.mark.usefixtures("serial_on_two_cpus")  # the helper is used

# enough repetitions that the last two are drawn at a split the controller chose: two blocks and one more
CONFIGS = {
    "default": ExperimentConfig(reps=9),
    # cross-fitted, with failed and scored cells mixed
    "n6000-folds3": ExperimentConfig(n=6000, reps=9, folds=3),
}
AT_N = harness.BLOCK + 3  # repetitions drawn before the controller's first split reaches the helper


def _report_text(config: ExperimentConfig) -> str:
    report = run_experiment(config)
    return "".join(emit_tables(report)) + report.to_json()


def _parent_draws(monkeypatch) -> list[tuple[int, int, int]]:
    """(seed, start, stop) of each ``dgp.sample_rows`` call made in this
    process, in call order; the helper's calls append to its own copy of
    the list. An inline draw is (seed, 0, n), a tail (seed, split, n)."""
    calls = []
    original = dgp.sample_rows

    def recorded(params, n, seed, start, stop):
        calls.append((seed, start, stop))
        return original(params, n, seed, start, stop)

    monkeypatch.setattr(dgp, "sample_rows", recorded)
    return calls


def _inline(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    return [(config.base_seed + rep, 0, config.n) for rep in range(config.reps)]


def _forced_split(monkeypatch, split: int):
    """The controller pinned at ``split``. Repetitions 0 to 6 still split at
    n: the first block's measurements are not used, and repetitions r + 1 and
    r + 2 are handed to the helper before repetition r is measured."""
    monkeypatch.setattr(harness, "_balance", lambda *args: float(split))


def _tails(config: ExperimentConfig, split: int) -> list[tuple[int, int, int]]:
    """The parent's draws at a forced split, the first ``AT_N`` at n."""
    return [(config.base_seed + rep, config.n if rep < AT_N else split, config.n) for rep in range(config.reps)]


def _no_helper(monkeypatch):
    """Fail a test that starts a process for its draws."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)


def _dies_in_a_child(monkeypatch, seed: int):
    """``dgp.sample_rows``, which the helper's heads draw through, ending its
    process abruptly when it draws ``seed`` outside this process."""
    parent, original = os.getpid(), dgp.sample_rows

    def dying(params, n, drawn_seed, start, stop):
        if drawn_seed == seed and os.getpid() != parent:
            os._exit(9)
        return original(params, n, drawn_seed, start, stop)

    monkeypatch.setattr(dgp, "sample_rows", dying)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_look_ahead_results_equal_inline_draws(case, monkeypatch):
    config = CONFIGS[case]
    truth = harness._truth_context(config)
    split = config.n // 3
    _forced_split(monkeypatch, split)
    draws = _parent_draws(monkeypatch)
    ahead = list(harness._rep_results(config, truth))
    assert draws == _tails(config, split)  # rows [0, split) drawn by the helper process
    del draws[:]
    pseudo = harness._scenario_pseudo(config)
    inline = [rep_alone(config, truth, rep, pseudo) for rep in range(config.reps)]
    assert draws == _inline(config)
    assert all(same_results(a, b) for a, b in zip(ahead, inline, strict=True))


@pytest.mark.parametrize("case", sorted(CONFIGS))
@pytest.mark.parametrize("at", ["0", "1", "n//3", "n-1", "n"])
def test_reports_are_the_same_at_any_split(case, at, monkeypatch):
    config = CONFIGS[case]
    n = config.n
    split = {"0": 0, "1": 1, "n//3": n // 3, "n-1": n - 1, "n": n}[at]
    with monkeypatch.context() as inline:
        inline.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        _no_helper(inline)
        text = _report_text(config)
    _forced_split(monkeypatch, split)
    draws = _parent_draws(monkeypatch)
    assert _report_text(config) == text
    assert draws == _tails(config, split)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_one_cpu_draws_inline_with_the_same_report(case, monkeypatch):
    config = CONFIGS[case]
    text = _report_text(config)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _no_helper(monkeypatch)
    draws = _parent_draws(monkeypatch)
    assert _report_text(config) == text
    assert draws == _inline(config)


def test_one_repetition_draws_inline(monkeypatch):
    config = ExperimentConfig(reps=1)
    _no_helper(monkeypatch)
    draws = _parent_draws(monkeypatch)
    run_experiment(config)
    assert draws == _inline(config)


def test_the_helper_draws_two_repetitions_ahead(monkeypatch):
    """When repetition r's call starts, the heads of r + 1 and r + 2 are
    already handed to the helper, or r + 1's only at r = 0; r + 2's is handed
    over inside the call, before its own rows are drawn."""
    config = CONFIGS["default"]
    submitted, seen = [], []

    class Recording(harness.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[1] - config.base_seed)  # (n, seed, stop)
            return super().submit(fn, *args)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    run_rep, sample_rows = harness._run_rep, dgp.sample_rows

    def recorded(config, truth, rep, *args):
        seen.append(("call", rep, len(submitted)))
        return run_rep(config, truth, rep, *args)

    def tail(params, n, seed, start, stop):
        seen.append(("tail", seed - config.base_seed, len(submitted)))
        return sample_rows(params, n, seed, start, stop)

    monkeypatch.setattr(harness, "_run_rep", recorded)
    monkeypatch.setattr(dgp, "sample_rows", tail)
    run_experiment(config)
    reps = config.reps
    assert submitted == list(range(reps))
    assert seen == [event for rep in range(reps)
                    for event in (("call", rep, min(rep + 2, reps)), ("tail", rep, min(rep + 3, reps)))]


def test_a_q_learning_grid_helper_builds_no_truth_and_no_law(monkeypatch):
    """A Q-learning grid over the linear class searches the Boolean class, and
    its helper is handed only each draw's (n, seed, stop): the forked helper
    draws from the law the grid built and builds neither a truth nor a law
    before its first draw (a build in the helper would end it)."""
    config = ExperimentConfig(scenarios=("all-correct",), methods=("PMR",), optimizer="q-learning", reps=3)
    harness._truth.cache_clear()  # so only the truth and the law this grid builds are inherited
    harness._law.cache_clear()
    handed, parent = [], os.getpid()

    def only_here(build):
        def built_here(self, *args):
            if os.getpid() != parent:
                os._exit(9)
            build(self, *args)
        return built_here

    class Recording(harness.ProcessPoolExecutor):
        def submit(self, fn, *args):
            handed.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(harness._Truth, "__init__", only_here(harness._Truth.__init__))
    monkeypatch.setattr(dgp.DgpParams, "__post_init__", only_here(dgp.DgpParams.__post_init__))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    run_experiment(config)
    assert harness._truth_context(config).search_class.tag == "all-boolean"
    assert handed == [(config.n, config.base_seed + rep, config.n) for rep in range(config.reps)]


def test_without_affinity_the_cpu_count_decides(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert harness._cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert harness._cpus() == 4


def test_no_thread_outlives_the_experiment():
    before = threading.active_count()
    run_experiment(CONFIGS["default"])
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_abandoned_results_leave_no_thread():
    """Nor a process: the helper, drawing repetition 1, is joined on close."""
    config = CONFIGS["default"]
    before = threading.active_count()
    results = harness._rep_results(config, harness._truth_context(config))
    next(results)
    assert len(multiprocessing.active_children()) == 1
    results.close()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_a_failing_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    """The error repetition 7's head (drawn in the helper) or tail (drawn in
    this process), both holding half the rows, raises reaches the caller
    with its type and message."""
    config = ExperimentConfig(methods=("PMR", "SRA"), n=4000, reps=9, base_seed=77)
    parent, original = os.getpid(), dgp.sample_rows
    _forced_split(monkeypatch, config.n // 2)
    for side, rows in (("head", "0-2000"), ("tail", "2000-4000")):
        def failing(params, n, seed, start, stop):
            if seed == config.base_seed + AT_N and (os.getpid() != parent) == (side == "head"):
                raise ValueError(f"no {start}-{stop} rows for seed {seed}")
            return original(params, n, seed, start, stop)

        monkeypatch.setattr(dgp, "sample_rows", failing)
        before = threading.active_count()
        with pytest.raises(ValueError) as info:
            run_experiment(config)
        assert type(info.value) is ValueError and str(info.value) == f"no {rows} rows for seed {config.base_seed + AT_N}"
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("process", ["helper"])  # the one process a grid starts
def test_a_dead_process_leaves_nothing_running_and_exits_one_with_one_line(process, monkeypatch, tmp_path, capsys):
    config = ExperimentConfig(methods=("PMR", "SRA"), n=4000, reps=5, base_seed=77)
    _dies_in_a_child(monkeypatch, config.base_seed + 2)
    before = threading.active_count()
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert main(["experiment", "--config", str(path), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the sampling {process} process died: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_a_wrapper_on_harness_sample_is_never_called_from_the_helper(monkeypatch):
    """As the benchmark's layer hook wraps it: the helper process and the
    main process draw their blocks through ``dgp.sample_rows``, so a grid
    with a helper never calls the wrapper (a call in the helper would end it
    and break the run), and inline draws (one CPU) call it in this
    process."""
    config = CONFIGS["default"]
    _forced_split(monkeypatch, config.n // 2)
    seeds = []
    parent, original = os.getpid(), harness.sample

    def wrapper(params, n, seed):
        if os.getpid() != parent:
            os._exit(9)
        seeds.append(seed)
        return original(params, n, seed)

    monkeypatch.setattr(harness, "sample", wrapper)
    run_experiment(config)
    assert seeds == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_experiment(config)
    assert seeds == [config.base_seed + rep for rep in range(config.reps)]


N = 35000
ROW_S = 1.4e-7  # seconds to draw one row, on either side


def test_the_controller_moves_rows_to_the_main_process_while_it_waits():
    step = 4 / 27 * 1e-3 / (2 * ROW_S)  # 4/27 of the rows that would have balanced a 1 ms wait
    head, tail = (30000, 30000 * ROW_S), (5000, 5000 * ROW_S)
    assert harness._balance(30000.0, N, 1e-3, 0.0, head, tail) == pytest.approx(30000 - step)
    # and back to the helper while the helper idles
    assert harness._balance(30000.0, N, 0.0, 1e-3, head, tail) == pytest.approx(30000 + step)
    assert harness._balance(30000.0, N, 1e-3, 1e-3, head, tail) == 30000.0


def test_the_split_never_leaves_the_rows_nor_stalls_at_an_end():
    head, tail = (30000, 30000 * ROW_S), (5000, 5000 * ROW_S)
    assert harness._balance(30000.0, N, 1.0, 0.0, head, tail) == 0.0
    assert harness._balance(30000.0, N, 0.0, 1.0, head, tail) == float(N)
    # at an end one side drew no rows, in whatever time its call took; the row cost is the other side's
    step = 4 / 27 * 1e-3 / (2 * ROW_S)
    assert harness._balance(0.0, N, 0.0, 1e-3, (0, 5e-5), (N, N * ROW_S)) == pytest.approx(step)
    assert harness._balance(float(N), N, 1e-3, 0.0, (N, N * ROW_S), (0, 5e-5)) == pytest.approx(N - step)


def _settle(work_s: float, first: float, reps: int = 60) -> list[float]:
    """Each repetition's split under ``_balance`` when each side draws a row
    in ROW_S and the main process also works ``work_s`` per repetition. As in
    the loop, repetition r + 3 is the first drawn at the split repetition r's
    timings give, the first block's timings are not used, and repetitions 0
    to 6 split at ``first``."""
    splits = [first] * AT_N
    for rep in range(harness.BLOCK, reps):
        stop = round(splits[rep])
        helper, main = stop * ROW_S, work_s + (N - stop) * ROW_S
        splits.append(harness._balance(splits[-1], N, max(helper - main, 0.0), max(main - helper, 0.0),
                                       (stop, helper), (N - stop, (N - stop) * ROW_S)))
    return splits


@pytest.mark.parametrize("first", [0.0, N / 2, float(N)])
def test_the_split_settles_where_both_sides_take_as_long(first):
    # the main process's own work takes half a whole draw (one fold): it draws a quarter of the rows,
    # and the split reaches that share from its own side without overshooting it
    splits = _settle(0.5 * N * ROW_S, first)
    assert all(abs(split - 0.75 * N) < 10 for split in splits[-10:])
    assert all((split - 0.75 * N) * (first - 0.75 * N) > -10 * N for split in splits)
    # it takes longer than a whole draw (five folds): the helper draws every row
    assert _settle(1.1 * N * ROW_S, first)[-10:] == [float(N)] * 10


@pytest.mark.parametrize("n, folds, seed", [(5, 5, 1), (7, 3, 2), (7, 2, 3), (9, 4, 4), (6000, 3, 9),
                                            (35000, 5, 1), (35000, 2, 2)])
def test_fold_counts_equal_a_per_row_reference(params, n, folds, seed):
    data = dgp.sample(params, n, seed)
    assignments = fold_assignments(data, folds)
    observed = data.observed.astype(np.int64) @ (1 << np.arange(8, -1, -1))  # C order over OBSERVED_ORDER
    own = np.zeros((folds, 2 ** 9), dtype=np.int64)
    np.add.at(own, (assignments, observed), 1)
    got_own, got_off = estimators.fold_counts(data, folds)
    assert np.array_equal(got_own, own)
    assert np.array_equal(got_off, own.sum(axis=0) - own)
    assert got_own.dtype == own.dtype
