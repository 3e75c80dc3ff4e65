"""The grid's sampling helper: one forked process and the main process
divide the halves of each sample, rows [0, n//2) and [n//2, n), through one
shared ring (``harness._Helper``). The helper claims halves of the five
repetitions after the main process's current one (``harness._claim_order``)
and marks each it has drawn; the main process copies the marked halves of
its own repetition and draws every other half itself, never waiting for
the helper.

The division changes where and when rows are drawn, never what is drawn,
so every repetition's results equal those of a stack of one sampling
inline, and a report is byte-identical whoever draws which half and with
inline draws (one repetition or one CPU), also when the helper is stuck,
dies or fails a draw. The helper lives inside ``run_experiment`` only and
is killed and reaped also when a draw fails, the results are abandoned or
the helper is stuck; no thread starts, waking the helper never leaves a
second byte unread on its wake pipe, and a wrapper on ``harness.sample``
(the benchmark's layer hook) is never called for the helper's draws.
``fold_counts`` is checked here against a per-row count of the cells.
"""

import array
import fcntl
import os
import termios
import threading
import time

import numpy as np
import pytest

from conftest import rep_alone, same_results, unreaped
from proxidtr import dgp, estimators, harness
from proxidtr.cli import main
from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment

pytestmark = pytest.mark.usefixtures("serial_on_two_cpus")  # the helper is used

# two blocks and one more, so that the helper's window slides past every ring slot
CONFIGS = {
    "default": ExperimentConfig(reps=9),
    # cross-fitted, with failed and scored cells mixed
    "n6000-folds3": ExperimentConfig(n=6000, reps=9, folds=3),
}
AHEAD = 5  # the farthest the helper draws past the main process's current repetition


def _report_text(config: ExperimentConfig) -> str:
    report = run_experiment(config)
    return "".join(emit_tables(report)) + report.to_json()


def _halves(config: ExperimentConfig) -> dict[int, tuple[int, int]]:
    """Each half's rows by half: [0, n//2) and [n//2, n)."""
    n = config.n
    return {0: (0, n // 2), 1: (n // 2, n)}


def _recorded(monkeypatch, tmp_path):
    """Record, in both processes, each ``dgp.sample_rows`` call as ("draw",
    pid, seed, start, stop), each ``_run_rep`` call as ("call", pid, rep)
    and each ``_claim_order`` call, made by the helper under the lock before
    it claims, as ("claim", pid, current), appended to one file when the
    call starts; returns the reader of the events, in the order they were
    appended."""
    path = tmp_path / "events"
    path.write_text("")
    sample_rows, run_rep, claim_order = dgp.sample_rows, harness._run_rep, harness._claim_order

    def append(*event):
        with open(path, "a") as out:
            out.write(" ".join(map(str, event)) + "\n")

    def drawn(params, n, seed, start, stop):
        append("draw", os.getpid(), seed, start, stop)
        return sample_rows(params, n, seed, start, stop)

    def called(config, truth, rep, *args):
        append("call", os.getpid(), rep)
        return run_rep(config, truth, rep, *args)

    def claiming(current, last):
        append("claim", os.getpid(), current)
        return claim_order(current, last)

    monkeypatch.setattr(dgp, "sample_rows", drawn)
    monkeypatch.setattr(harness, "_run_rep", called)
    monkeypatch.setattr(harness, "_claim_order", claiming)
    return lambda: [(kind, *map(int, rest))
                    for kind, *rest in (line.split() for line in path.read_text().splitlines())]


def _draws(events, config: ExperimentConfig) -> dict[str, list[tuple[int, int]]]:
    """The (repetition, half) of each half drawn by the main process
    ("main") and by another process ("helper"), in drawing order; an inline
    draw of a whole sample is (repetition, None)."""
    parent, halves = os.getpid(), {rows: half for half, rows in _halves(config).items()}
    halves[(0, config.n)] = None
    by = {"main": [], "helper": []}
    for kind, pid, *rest in events:
        if kind == "draw":
            seed, start, stop = rest
            by["main" if pid == parent else "helper"].append((seed - config.base_seed, halves[start, stop]))
    return by


def _helper_draws(monkeypatch, halves: tuple[int, ...], until: str = "drawn", reps: set[int] | None = None):
    """Make the helper, if the grid starts one, draw exactly ``halves`` of
    every sample: it claims no other half, and each ``_run_rep`` call of
    ``reps`` (every repetition by default) waits until the helper has marked
    them ``until`` ("drawn", or "claimed" where its draw is to end it or
    fail) before the main process takes the rest."""
    order, run_rep = harness._claim_order, harness._run_rep

    def waiting(config, truth, rep, blocks):
        deadline, helper = time.monotonic() + 60, blocks.helper
        while helper is not None and (reps is None or rep in reps) and not all(
                getattr(helper, until)[rep % harness._RING, half] == rep for half in halves):
            assert time.monotonic() < deadline, f"the helper left halves {halves} of repetition {rep} not {until}"
            time.sleep(1e-4)
        return run_rep(config, truth, rep, blocks)

    monkeypatch.setattr(harness, "_claim_order",
                        lambda current, last: [claim for claim in order(current, last) if claim[1] in halves])
    monkeypatch.setattr(harness, "_run_rep", waiting)


def _no_helper(monkeypatch):
    """Fail a test that starts a process for its draws."""
    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _inline(config: ExperimentConfig) -> list[tuple[int, None]]:
    return [(rep, None) for rep in range(config.reps)]


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_look_ahead_results_equal_inline_draws(case, monkeypatch, tmp_path, forks):
    config = CONFIGS[case]
    truth = harness._truth_context(config)
    events = _recorded(monkeypatch, tmp_path)
    ahead = list(harness._rep_results(config, truth))
    draws = _draws(events(), config)
    assert set(draws["main"] + draws["helper"]) == {(rep, half) for rep in range(config.reps) for half in (0, 1)}
    assert len(forks) == 1 and unreaped(forks) == []
    pseudo = harness._scenario_pseudo(config)
    inline = [rep_alone(config, truth, rep, pseudo) for rep in range(config.reps)]
    assert all(same_results(a, b) for a, b in zip(ahead, inline, strict=True))


@pytest.mark.parametrize("case", sorted(CONFIGS))
@pytest.mark.parametrize("at", ["0", "n//2", "n"])
def test_reports_are_the_same_at_any_split(case, at, monkeypatch, tmp_path):
    """The helper made to draw rows [0, split) of every sample, and the main
    process the rest: no half, the first halves, or every half."""
    config = CONFIGS[case]
    with monkeypatch.context() as inline:
        _one_cpu(inline)
        _no_helper(inline)
        text = _report_text(config)
    halves = {"0": (), "n//2": (0,), "n": (0, 1)}[at]
    _helper_draws(monkeypatch, halves)
    events = _recorded(monkeypatch, tmp_path)
    assert _report_text(config) == text
    draws = _draws(events(), config)
    assert sorted(draws["helper"]) == [(rep, half) for rep in range(config.reps) for half in halves]
    assert draws["main"] == [(rep, half) for rep in range(config.reps) for half in (0, 1) if half not in halves]


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_one_cpu_draws_inline_with_the_same_report(case, monkeypatch, tmp_path):
    config = CONFIGS[case]
    text = _report_text(config)
    _one_cpu(monkeypatch)
    _no_helper(monkeypatch)
    events = _recorded(monkeypatch, tmp_path)
    assert _report_text(config) == text
    assert _draws(events(), config) == {"main": _inline(config), "helper": []}


def test_one_repetition_draws_inline(monkeypatch, tmp_path):
    config = ExperimentConfig(reps=1)
    _no_helper(monkeypatch)
    events = _recorded(monkeypatch, tmp_path)
    run_experiment(config)
    assert _draws(events(), config) == {"main": _inline(config), "helper": []}


@pytest.mark.parametrize("config", [ExperimentConfig(reps=13), ExperimentConfig(n=6000, reps=13, folds=3),
                                    # draws of 20 rows: the two processes contend for the lock at every step
                                    ExperimentConfig(scenarios=("all-correct",), methods=("SRA",), n=40, reps=200)],
                         ids=["one-fold", "folds3", "tiny-draws"])
def test_every_half_is_drawn_by_the_main_process_or_once_by_the_helper_at_most_five_ahead(config, monkeypatch,
                                                                                          tmp_path):
    """The main process draws only halves of its current repetition, each
    at most once, in its own ``_run_rep`` call; every other half it copies
    from the helper's one draw of it. The helper draws each half at most
    once, of the five repetitions after the one the main process had
    published when it claimed the half (its latest ``_claim_order`` call),
    so a half that both processes drew was claimed by the helper before the
    main process published its repetition."""
    events = _recorded(monkeypatch, tmp_path)
    run_experiment(config)
    parent, current, seen, main, helper = os.getpid(), -1, None, [], []
    for kind, pid, *rest in events():
        if kind == "call":
            assert pid == parent and rest == [current + 1]
            current = rest[0]
        elif kind == "claim":
            assert pid != parent
            seen = rest[0]
        elif pid == parent:
            assert rest[0] - config.base_seed == current
            main.append((current, rest[1]))
        else:
            rep = rest[0] - config.base_seed
            assert seen < rep <= seen + AHEAD  # claimed before the main process published rep
            helper.append((rep, rest[1]))
    assert current == config.reps - 1
    halves = {(rep, start) for rep in range(config.reps) for start, _ in _halves(config).values()}
    assert len(set(main)) == len(main) and set(main) <= halves
    assert len(set(helper)) == len(helper) and halves - set(main) <= set(helper)
    assert helper


def test_the_claim_order_takes_first_halves_farthest_first():
    assert harness._RING == harness.BLOCK + 2 == AHEAD + 1
    assert harness._claim_order(3, 100) == [(8, 0), (7, 0), (6, 0), (5, 0), (4, 0),
                                            (8, 1), (7, 1), (6, 1), (5, 1), (4, 1)]
    assert harness._claim_order(-1, 1) == [(1, 0), (0, 0), (1, 1), (0, 1)]
    assert harness._claim_order(1, 1) == []


def test_waking_the_helper_never_leaves_a_second_byte_unread(monkeypatch):
    """The main process writes the wake byte only when it clears the
    helper's idle mark, so the pipe, which nothing would read while the
    helper draws, never fills. Small samples leave the helper idle often."""
    write, run_rep, wakes = os.write, harness._run_rep, []

    def watched(config, truth, rep, blocks):
        wakes.append(("fd", blocks.helper.wake))
        return run_rep(config, truth, rep, blocks)

    def written(fd, data):
        if ("fd", fd) in wakes:
            unread = array.array("i", [0])
            fcntl.ioctl(fd, termios.FIONREAD, unread)
            wakes.append(("unread", unread[0]))
        return write(fd, data)

    monkeypatch.setattr(harness, "_run_rep", watched)
    monkeypatch.setattr(os, "write", written)
    run_experiment(ExperimentConfig(n=2000, reps=40))
    unread = [count for kind, count in wakes if kind == "unread"]
    assert unread and set(unread) == {0}


def test_a_q_learning_grid_helper_builds_no_truth_and_no_law(monkeypatch, tmp_path):
    """A Q-learning grid over the linear class searches the Boolean class.
    The forked helper, made to draw every half, draws from the law the grid
    built and builds neither a truth nor a law (a build in the helper would
    end it)."""
    config = ExperimentConfig(scenarios=("all-correct",), methods=("PMR",), optimizer="q-learning", reps=3)
    harness._truth.cache_clear()  # so only the truth and the law this grid builds are inherited
    harness._law.cache_clear()
    parent = os.getpid()

    def only_here(build):
        def built_here(self, *args):
            if os.getpid() != parent:
                os._exit(9)
            build(self, *args)
        return built_here

    monkeypatch.setattr(harness._Truth, "__init__", only_here(harness._Truth.__init__))
    monkeypatch.setattr(dgp.DgpParams, "__post_init__", only_here(dgp.DgpParams.__post_init__))
    _helper_draws(monkeypatch, (0, 1))
    events = _recorded(monkeypatch, tmp_path)
    run_experiment(config)
    assert harness._truth_context(config).search_class.tag == "all-boolean"
    assert _draws(events(), config) == {"main": [],
                                        "helper": [(rep, half) for half in (0, 1) for rep in range(2, -1, -1)]}


def test_without_affinity_the_cpu_count_decides(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert harness._cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert harness._cpus() == 4


def test_no_thread_outlives_the_experiment(monkeypatch, forks):
    """Nor does any start inside it: each ``_run_rep`` call sees the threads
    there were before the grid."""
    before, run_rep, seen = threading.active_count(), harness._run_rep, []

    def counted(*args):
        seen.append(threading.active_count())
        return run_rep(*args)

    monkeypatch.setattr(harness, "_run_rep", counted)
    run_experiment(CONFIGS["default"])
    assert seen == [before] * CONFIGS["default"].reps
    assert threading.active_count() == before
    assert len(forks) == 1 and unreaped(forks) == []


def test_abandoned_results_leave_no_thread(forks):
    """Nor a process: the helper, still running, is reaped on close."""
    config = CONFIGS["default"]
    before = threading.active_count()
    results = harness._rep_results(config, harness._truth_context(config))
    next(results)
    assert len(forks) == 1 and unreaped(forks) == forks
    results.close()
    assert threading.active_count() == before
    assert unreaped(forks) == []


def test_a_failing_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch, forks):
    """The error that repetition 7's draw raises in this process (its second
    half, the helper drawing the first halves) or in both processes (its
    first half, which the helper then never marks drawn) reaches the caller
    with its type and message."""
    config = ExperimentConfig(methods=("PMR", "SRA"), n=4000, reps=9, base_seed=77)
    failing_rep = 7
    parent, original = os.getpid(), dgp.sample_rows
    for side, rows in (("main", "2000-4000"), ("both", "0-2000")):
        def failing(params, n, seed, start, stop):
            if seed == config.base_seed + failing_rep and (side == "both" or os.getpid() == parent):
                raise ValueError(f"no {start}-{stop} rows for seed {seed}")
            return original(params, n, seed, start, stop)

        with monkeypatch.context() as patched:
            patched.setattr(dgp, "sample_rows", failing)
            if side == "main":
                _helper_draws(patched, (0,))
            before = threading.active_count()
            with pytest.raises(ValueError) as info:
                run_experiment(config)
        assert type(info.value) is ValueError
        assert str(info.value) == f"no {rows} rows for seed {config.base_seed + failing_rep}"
        assert threading.active_count() == before
        assert unreaped(forks) == []
    assert len(forks) == 2


def _ending_in_the_helper(monkeypatch, config: ExperimentConfig, rep: int, end) -> None:
    """Make the helper claim repetition ``rep``'s first half, after the first
    halves of the repetitions after it in its window, and ``end()`` in its
    draw of it."""
    parent, original = os.getpid(), dgp.sample_rows

    def ending(params, n, seed, start, stop):
        if seed == config.base_seed + rep and os.getpid() != parent:
            end()
        return original(params, n, seed, start, stop)

    monkeypatch.setattr(dgp, "sample_rows", ending)
    _helper_draws(monkeypatch, (0,), until="claimed", reps={rep})


def _fail():
    raise ValueError("a draw failing in the helper")


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_a_draw_failing_in_the_helper_leaves_the_report_unchanged(case, monkeypatch, forks):
    """The helper fails repetition 7's first half and ends; the main process,
    finding it unmarked, draws it and every half after it."""
    config = CONFIGS[case]
    with monkeypatch.context() as inline:
        _one_cpu(inline)
        text = _report_text(config)
    _ending_in_the_helper(monkeypatch, config, 7, _fail)
    before = threading.active_count()
    assert _report_text(config) == text
    assert threading.active_count() == before
    assert len(forks) == 1 and unreaped(forks) == []


def test_a_dead_helper_leaves_nothing_running_and_the_experiment_writes_the_one_cpu_csv(monkeypatch, tmp_path,
                                                                                          forks):
    """The helper, made to draw the first halves, ends abruptly on repetition
    0's, after it drew those of repetitions 4 to 1: ``proxidtr experiment``
    exits 0 with the CSV of a one-CPU run."""
    config = ExperimentConfig(methods=("PMR", "SRA"), n=4000, reps=5, base_seed=77)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    with monkeypatch.context() as inline:
        _one_cpu(inline)
        assert main(["experiment", "--config", str(path), "-o", str(tmp_path / "inline.csv"), "--quiet"]) == 0
    _ending_in_the_helper(monkeypatch, config, 0, lambda: os._exit(9))
    before = threading.active_count()
    assert main(["experiment", "--config", str(path), "-o", str(tmp_path / "out.csv"), "--quiet"]) == 0
    assert (tmp_path / "out.csv").read_text() == (tmp_path / "inline.csv").read_text()
    assert threading.active_count() == before
    assert len(forks) == 1 and unreaped(forks) == []


def test_the_main_process_never_waits_for_the_helper(monkeypatch, forks):
    """A helper stuck 30 s in its first draw: the grid still returns the
    one-CPU report well within that, the helper killed and reaped."""
    config = CONFIGS["default"]
    with monkeypatch.context() as inline:
        _one_cpu(inline)
        text = _report_text(config)
    parent, original = os.getpid(), dgp.sample_rows

    def stuck(params, n, seed, start, stop):
        if os.getpid() != parent:
            time.sleep(30)
        return original(params, n, seed, start, stop)

    monkeypatch.setattr(dgp, "sample_rows", stuck)
    began = time.monotonic()
    assert _report_text(config) == text
    assert time.monotonic() - began < 15
    assert len(forks) == 1 and unreaped(forks) == []


def test_a_wrapper_on_harness_sample_is_never_called_from_the_helper(monkeypatch):
    """As the benchmark's layer hook wraps it: the helper process and the
    main process draw their halves through ``dgp.sample_rows``, so a grid
    with a helper never calls the wrapper (a call in the helper would end it
    and break the run), and inline draws (one CPU) call it in this
    process."""
    config = CONFIGS["default"]
    _helper_draws(monkeypatch, (0,))
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
    _one_cpu(monkeypatch)
    run_experiment(config)
    assert seeds == [config.base_seed + rep for rep in range(config.reps)]


@pytest.mark.parametrize("n, folds, seed", [(5, 5, 1), (7, 3, 2), (7, 2, 3), (9, 4, 4), (6000, 3, 9),
                                            (35000, 5, 1), (35000, 2, 2)])
def test_fold_counts_equal_a_per_row_reference(params, n, folds, seed):
    """Each fold's own counts are non-negative, hold ``len(range(f, n,
    folds))`` rows and add up over the folds to a per-row count of every
    cell; each off-fold table is that count minus the fold's own."""
    data = dgp.sample(params, n, seed)
    observed = data.observed.astype(np.int64) @ (1 << np.arange(8, -1, -1))  # C order over OBSERVED_ORDER
    total = np.zeros(2 ** 9, dtype=np.int64)
    np.add.at(total, observed, 1)
    got_own, got_off = estimators.fold_counts(data, folds)
    assert got_own.shape == (folds, 2 ** 9) and got_own.min() >= 0
    assert got_own.sum(axis=1).tolist() == [len(range(fold, n, folds)) for fold in range(folds)]
    assert np.array_equal(got_own.sum(axis=0), total)
    assert np.array_equal(got_off, total - got_own)
    assert got_own.dtype == total.dtype
