"""The serial grid's look-ahead: one helper process draws the next
repetition's sample while the current one runs (``harness._rep_results``).

The look-ahead changes where and when a sample is drawn, never what is
drawn, so every repetition's results equal those of ``_run_rep`` sampling
inline, and a report is byte-identical with the helper, with inline draws
(one repetition or one CPU) and on the process pool, whose workers sample
inline. No look-ahead draw runs in the parent process. The helper lives
inside ``run_experiment`` only, also when a repetition fails, the results
are abandoned or the helper dies, and a wrapper on ``harness.sample`` (the
benchmark's layer hook) is never called for its draws. ``fold_counts`` is
checked here against a per-row reference.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from proxidtr import dgp, estimators, harness
from proxidtr.cli import main
from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment

CONFIGS = {
    "default": ExperimentConfig(reps=3),
    # cross-fitted, with failed and scored cells mixed
    "n6000-folds3": ExperimentConfig(n=6000, reps=4, folds=3),
}


@pytest.fixture(autouse=True)
def serial_on_two_cpus(monkeypatch):
    """The serial grid, with two CPUs to run on whatever the host has, so the helper is used."""
    monkeypatch.delenv("PROXIDTR_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _report_text(config: ExperimentConfig) -> str:
    report = run_experiment(config)
    return "".join(emit_tables(report)) + report.to_json()


def _parent_draws(monkeypatch) -> list[int]:
    """The seed of each ``dgp.sample`` call made in this process, in call
    order; the helper's calls append to its own copy of the list."""
    seeds = []
    original = dgp.sample

    def recorded(params, n, seed):
        seeds.append(seed)
        return original(params, n, seed)

    monkeypatch.setattr(dgp, "sample", recorded)
    monkeypatch.setattr(harness, "sample", recorded)
    return seeds


def _no_helper(monkeypatch):
    """Fail a test that starts a process for its draws."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)


def _dies_in_a_child(monkeypatch, seed: int):
    """``dgp.sample`` (and ``harness.sample``) ending its process abruptly
    when it draws ``seed`` outside this process."""
    parent, original = os.getpid(), dgp.sample

    def dying(params, n, drawn_seed):
        if drawn_seed == seed and os.getpid() != parent:
            os._exit(9)
        return original(params, n, drawn_seed)

    monkeypatch.setattr(dgp, "sample", dying)
    monkeypatch.setattr(harness, "sample", dying)


def _same_results(a: dict, b: dict) -> bool:
    """One repetition's per-cell results equal: the same failure message or
    the same scores, bit for bit."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] if isinstance(a[k], str) or isinstance(b[k], str) else np.array_equal(a[k], b[k], equal_nan=True)
        for k in a)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_look_ahead_results_equal_inline_draws(case, monkeypatch):
    config = CONFIGS[case]
    truth = harness._truth_context(config)
    seeds = _parent_draws(monkeypatch)
    ahead = list(harness._rep_results(config, truth, 1))
    assert seeds == []  # every sample drawn by the helper process
    pseudo = harness._scenario_pseudo(config)
    inline = [harness._run_rep(config, truth, rep, pseudo) for rep in range(config.reps)]
    assert seeds == [config.base_seed + rep for rep in range(config.reps)]
    assert all(_same_results(a, b) for a, b in zip(ahead, inline, strict=True))


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_reports_are_the_same_serially_and_on_the_pool(case, monkeypatch):
    config = CONFIGS[case]
    text = _report_text(config)
    monkeypatch.setenv("PROXIDTR_THREADS", "2")
    assert _report_text(config) == text


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_one_cpu_draws_inline_with_the_same_report(case, monkeypatch):
    config = CONFIGS[case]
    text = _report_text(config)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _no_helper(monkeypatch)
    seeds = _parent_draws(monkeypatch)
    assert _report_text(config) == text
    assert seeds == [config.base_seed + rep for rep in range(config.reps)]


def test_one_repetition_draws_inline(monkeypatch):
    config = ExperimentConfig(reps=1)
    _no_helper(monkeypatch)
    seeds = _parent_draws(monkeypatch)
    run_experiment(config)
    assert seeds == [config.base_seed]


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
    results = harness._rep_results(config, harness._truth_context(config), 1)
    next(results)
    assert len(multiprocessing.active_children()) == 1
    results.close()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_a_failing_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    """The error a draw raises on repetition 2 reaches the caller with its
    type and message."""
    config = ExperimentConfig(methods=("PMR", "SRA"), n=4000, reps=5, base_seed=77)
    original = dgp.sample

    def failing(params, n, seed):
        if seed == config.base_seed + 2:
            raise ValueError(f"no sample for seed {seed}")
        return original(params, n, seed)

    monkeypatch.setattr(dgp, "sample", failing)
    before = threading.active_count()
    with pytest.raises(ValueError) as info:
        run_experiment(config)
    assert type(info.value) is ValueError and str(info.value) == f"no sample for seed {config.base_seed + 2}"
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", "2"], ids=["helper", "pool"])
def test_a_dead_process_leaves_nothing_running_and_exits_one_with_one_line(workers, monkeypatch, tmp_path, capsys):
    config = ExperimentConfig(methods=("PMR", "SRA"), n=4000, reps=5, base_seed=77)
    monkeypatch.setenv("PROXIDTR_THREADS", workers)
    _dies_in_a_child(monkeypatch, config.base_seed + 2)
    before = threading.active_count()
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert main(["experiment", "--config", str(path), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_a_wrapper_on_harness_sample_is_never_called_from_the_helper(monkeypatch):
    """As the benchmark's layer hook wraps it: the helper process calls
    ``dgp.sample``, so the serial grid never calls the wrapper (a call in
    the helper would end it and break the run), and inline draws call it in
    this process."""
    config = CONFIGS["default"]
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
    harness._run_rep(config, harness._truth_context(config), 0, harness._scenario_pseudo(config))
    assert seeds == [config.base_seed]


@pytest.mark.parametrize("n, folds, seed", [(5, 5, 1), (7, 3, 2), (7, 2, 3), (9, 4, 4), (6000, 3, 9),
                                            (35000, 5, 1), (35000, 2, 2)])
def test_fold_counts_equal_a_per_row_reference(params, n, folds, seed):
    data = dgp.sample(params, n, seed)
    assignments = estimators.fold_assignments(data, folds)
    observed = data.observed.astype(np.int64) @ (1 << np.arange(8, -1, -1))  # C order over OBSERVED_ORDER
    own = np.zeros((folds, 2 ** 9), dtype=np.int64)
    np.add.at(own, (assignments, observed), 1)
    got_own, got_off = estimators.fold_counts(data, folds)
    assert np.array_equal(got_own, own)
    assert np.array_equal(got_off, own.sum(axis=0) - own)
    assert got_own.dtype == own.dtype
