"""Tests of the benchmark's span recorder: self-time arithmetic and nesting.

    python3 -m pytest perfbench
"""

import pytest

import recorder
from recorder import END, OP, PARENT, START, Recorder, covered_length, self_times


@pytest.fixture
def clock(monkeypatch):
    """A fake perf_counter that advances one second per reading."""
    ticks = iter(range(1000))
    monkeypatch.setattr(recorder, "perf_counter", lambda: float(next(ticks)))


def span(start, end, parent=None, name="x", op=None):
    return [name, float(start), float(end), parent, op, None]


def test_covered_length_of_disjoint_overlapping_and_clipped_intervals():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 2), (4, 6)], 0.0, 10.0) == 3.0
    assert covered_length([(1, 5), (2, 3), (4, 7)], 0.0, 10.0) == 6.0
    assert covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert covered_length([(4, 6), (1, 2)], 0.0, 10.0) == 3.0


def test_self_time_is_duration_minus_children():
    spans = [span(0, 10), span(1, 3, parent=0), span(4, 8, parent=0), span(5, 6, parent=2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_times_of_a_tree_add_up_to_the_root():
    spans = [span(0, 10), span(1, 3, parent=0), span(4, 8, parent=0), span(5, 6, parent=2)]
    assert sum(self_times(spans)) == 10.0


def test_overlapping_children_from_two_workers_count_once():
    spans = [span(0, 10), span(1, 5, parent=0), span(3, 7, parent=0)]
    assert self_times(spans)[0] == 4.0


def test_begin_and_end_nest(clock):
    rec = Recorder()
    rec.begin("harness")        # t=0
    rec.begin("bridges")        # t=1
    rec.begin("tables")         # t=2
    rec.end()                   # t=3
    rec.end()                   # t=4
    rec.begin("policy")         # t=5
    rec.end()                   # t=6
    rec.end()                   # t=7
    assert [s[PARENT] for s in rec.spans] == [None, 0, 1, 0]
    assert [(s[START], s[END]) for s in rec.spans] == [(0, 7), (1, 4), (2, 3), (5, 6)]
    assert self_times(rec.spans) == [3.0, 2.0, 1.0, 1.0]


def test_counts_belong_to_the_operation_that_is_open():
    rec = Recorder()
    rec.begin("harness", op="run")
    rec.count("tables")
    for rep in (0, 1):
        rec.begin("harness", op=rep)
        rec.count("tables", 2 + rep)
        rec.begin("bridges")
        rec.count("tables")
        rec.end()
        rec.end()
    rec.count("tables")
    rec.end()
    assert rec.op_counts["run"]["tables"] == 2
    assert rec.op_counts[0]["tables"] == 3
    assert rec.op_counts[1]["tables"] == 4
    assert [s[OP] for s in rec.spans] == ["run", 0, 0, 1, 1]
    assert rec.op_roots() == [rec.spans[1], rec.spans[3]]


def test_reopening_the_current_operation_keeps_its_distinct_keys():
    rec = Recorder()
    rec.begin("worker", op=0)
    rec.count_distinct("tables.distinct", "a")
    rec.begin("repetition", op=0)
    rec.count_distinct("tables.distinct", "a")
    rec.count_distinct("tables.distinct", "b")
    rec.end()
    rec.end()
    assert rec.op_counts[0]["tables.distinct"] == 2
    assert rec.op_roots() == [rec.spans[0]]


def test_exported_spans_keep_their_parents_after_absorb():
    parent = Recorder()
    parent.begin("harness", op="run")
    worker = Recorder()
    worker.spans = [list(s) for s in parent.spans]  # what a forked worker inherits
    worker._stack = list(parent._stack)
    mark = len(worker.spans)
    worker.begin("harness", op=7)
    worker.count("tables", 5)
    worker.begin("bridges")
    worker.end()
    worker.end()
    payload = worker.export(mark, 7)
    assert len(worker.spans) == mark

    parent.begin("unrelated")  # the parent's list grew after the fork
    parent.end()
    parent.absorb(payload)
    parent.end()
    names = [s[0] for s in parent.spans]
    assert names == ["harness", "unrelated", "harness", "bridges"]
    assert parent.spans[2][PARENT] == 0
    assert parent.spans[3][PARENT] == 2
    assert parent.op_counts[7]["tables"] == 5
