"""The serial grid's look-ahead: one helper thread draws the next
repetition's sample while the current one runs (``harness._rep_results``).

The look-ahead changes when a sample is drawn, never what is drawn, so every
repetition's results equal those of ``_run_rep`` sampling inline, and a
report is byte-identical serially and on the process pool, whose workers
sample inline. Its thread lives inside ``run_experiment`` only, also when a
repetition fails or the results are abandoned, and a wrapper on
``harness.sample`` (the benchmark's layer hook) is never called from the
helper. ``fold_counts`` is checked here against a per-row reference.
"""

import threading

import numpy as np
import pytest

from proxidtr import dgp, estimators, harness
from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment

CONFIGS = {
    "default": ExperimentConfig(reps=3),
    # cross-fitted, with failed and scored cells mixed
    "n6000-folds3": ExperimentConfig(n=6000, reps=4, folds=3),
}


@pytest.fixture(autouse=True)
def no_pool(monkeypatch):
    monkeypatch.delenv("PROXIDTR_THREADS", raising=False)


def _report_text(config: ExperimentConfig) -> str:
    report = run_experiment(config)
    return "".join(emit_tables(report)) + report.to_json()


def _draws_by_thread(monkeypatch) -> list[bool]:
    """Whether each ``dgp.sample`` call ran on the main thread, in call order."""
    on_main = []
    original = dgp.sample

    def recorded(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return original(*args)

    monkeypatch.setattr(dgp, "sample", recorded)
    monkeypatch.setattr(harness, "sample", recorded)
    return on_main


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
    on_main = _draws_by_thread(monkeypatch)
    ahead = list(harness._rep_results(config, truth, 1))
    assert on_main == [False] * config.reps  # every sample drawn on the helper thread
    on_main.clear()
    pseudo = harness._scenario_pseudo(config)
    inline = [harness._run_rep(config, truth, rep, pseudo) for rep in range(config.reps)]
    assert on_main == [True] * config.reps
    assert all(_same_results(a, b) for a, b in zip(ahead, inline, strict=True))


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_reports_are_the_same_serially_and_on_the_pool(case, monkeypatch):
    config = CONFIGS[case]
    text = _report_text(config)
    monkeypatch.setenv("PROXIDTR_THREADS", "2")
    assert _report_text(config) == text


def test_no_thread_outlives_the_experiment():
    before = threading.active_count()
    run_experiment(CONFIGS["default"])
    assert threading.active_count() == before


def test_abandoned_results_leave_no_thread():
    config = CONFIGS["default"]
    before = threading.active_count()
    results = harness._rep_results(config, harness._truth_context(config), 1)
    next(results)
    assert threading.active_count() == before + 1  # the helper, drawing repetition 1
    results.close()
    assert threading.active_count() == before


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


def test_a_wrapper_on_harness_sample_is_never_called_from_the_helper(monkeypatch):
    """As the benchmark's layer hook wraps it: the helper thread calls
    ``dgp.sample``, so the serial grid never calls the wrapper, and inline
    draws call it on the main thread."""
    config = CONFIGS["default"]
    on_main = []
    original = harness.sample

    def wrapper(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return original(*args)

    monkeypatch.setattr(harness, "sample", wrapper)
    run_experiment(config)
    assert on_main == []
    harness._run_rep(config, harness._truth_context(config), 0, harness._scenario_pseudo(config))
    assert on_main == [True]


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
