"""The summary arithmetic of ``tools/bench_pairs.py`` on canned perfbench
output: medians and quartiles, wins out of the pairs, the nine-tenths and
interquartile-range rule, the direction of each metric, the wall rate read
from the ``<ops> <operations> in <wall> s`` line, and the refusal of a run
that reads ``correct: false``; and, on canned runs, the ``--out`` record of
every run, the pair order, the environment lines and the verdicts (or, for
a comparison a failed run stopped, the failure and no summary), and the
one byte-compiling of both checkouts before the first pair, with runs that
write no bytecode."""

import importlib.util
import json
import os
import time
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"reps_per_s": "higher", "request_ms_p50": "lower"}


def _output(reps: float, p50: float, correct: bool = True, unscaled_reps: float | None = None,
            wall: str | None = None) -> str:
    """The tail of one perfbench run: the wall line when given, the unscaled
    line, a metric line and the JSON result."""
    unscaled = reps if unscaled_reps is None else unscaled_reps
    result = {"correct": correct, "attempted": 100, "failed": 0 if correct else 3,
              "metrics": {"reps_per_s": {"value": reps, "unit": "1/s"},
                          "request_ms_p50": {"value": p50, "unit": "ms"}}}
    return "\n".join(([] if wall is None else [wall]) + [
        "fail_frac = 0 (0 of 100 requests failed)",
        f"as measured, unscaled: setup_s 0.2 s, reps_per_s {unscaled} 1/s, request_ms_p50 {p50 * 1.1} ms, "
        "request_ms_p90 4.5 ms",
        f"reps_per_s = {reps} 1/s",
        json.dumps(result),
    ])


def _pairs(parent, change):
    return [(bench_pairs.parse_run(_output(*p)), bench_pairs.parse_run(_output(*c))) for p, c in zip(parent, change)]


def test_parse_reads_scaled_and_unscaled_metrics():
    run = bench_pairs.parse_run(_output(400.0, 2.5, unscaled_reps=380.0))
    assert run == {"reps_per_s": 400.0, "request_ms_p50": 2.5, "setup_s unscaled": 0.2,
                   "reps_per_s unscaled": 380.0, "request_ms_p50 unscaled": 2.75, "request_ms_p90 unscaled": 4.5}


@pytest.mark.parametrize("line, rate", [
    ("4210 repetitions in 20.000 s; latency samples: 4210, 421 beyond p90; set-up probes: 9", 210.5),
    ("9000 requests in 25.125 s; latency samples: 9000, 900 beyond p90; set-up probes: 9", 9000 / 25.125),
])
def test_parse_reads_the_wall_rate(line, rate):
    run = bench_pairs.parse_run(_output(400.0, 2.5, wall=line))
    assert run[bench_pairs.WALL_RATE] == pytest.approx(rate)
    assert run["reps_per_s"] == 400.0


def test_the_wall_rate_is_summarized_higher_is_better_without_a_verdict():
    def run(ops):
        return bench_pairs.parse_run(_output(400.0, 2.5, wall=f"{ops} repetitions in 10.000 s; latency samples: 1"))

    pairs = [(run(2000 + i), run(2100 + i)) for i in range(10)]
    better = {**BETTER, bench_pairs.WALL_RATE: "higher"}
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, better, {"reps_per_s": 0.25})}
    wall = rows[bench_pairs.WALL_RATE]
    assert wall["parent"][1] == pytest.approx(200.45) and wall["change"][1] == pytest.approx(210.45)
    assert (wall["wins"], wall["claim"], wall["verdict"]) == (10, True, None)
    assert bench_pairs.WALL_RATE not in bench_pairs.format_verdicts(list(rows.values()))


def test_a_run_without_a_wall_line_has_no_wall_rate():
    assert bench_pairs.WALL_RATE not in bench_pairs.parse_run(_output(400.0, 2.5))


@pytest.mark.parametrize("text", [_output(400.0, 2.5, correct=False), "no result line", ""])
def test_a_run_that_is_not_correct_stops_the_summary(text):
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.parse_run(text)


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_iqr():
    parent = [(390.0 + i, 2.5) for i in range(10)]  # reps 390..399: quartiles 392.25, 394.5, 396.75
    change = [(410.0 + i, 2.5) for i in range(10)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(_pairs(parent, change), BETTER)}
    reps = rows["reps_per_s"]
    assert reps["parent"] == (392.25, 394.5, 396.75)
    assert reps["change"] == (412.25, 414.5, 416.75)
    assert reps["parent_iqr"] == pytest.approx(4.5)
    assert (reps["wins"], reps["pairs"], reps["claim"]) == (10, 10, True)
    assert (rows["request_ms_p50"]["wins"], rows["request_ms_p50"]["claim"]) == (0, False)  # ties win nothing

    # eight wins of ten fall short of nine tenths
    change = [(410.0 + i, 2.5) for i in range(8)] + [(300.0, 2.5), (300.0, 2.5)]
    reps = {r["metric"]: r for r in bench_pairs.summarize(_pairs(parent, change), BETTER)}["reps_per_s"]
    assert (reps["wins"], reps["claim"]) == (8, False)

    # ten wins, but a median gap inside the parent's interquartile range
    change = [(p + 1.0, 2.5) for p, _ in parent]
    reps = {r["metric"]: r for r in bench_pairs.summarize(_pairs(parent, change), BETTER)}["reps_per_s"]
    assert (reps["wins"], reps["claim"]) == (10, False)


def test_a_lower_is_better_metric_wins_when_it_falls():
    parent = [(400.0, 2.5 + 0.01 * i) for i in range(10)]
    change = [(400.0, 2.0 + 0.01 * i) for i in range(10)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(_pairs(parent, change), BETTER)}
    assert (rows["request_ms_p50"]["wins"], rows["request_ms_p50"]["claim"]) == (10, True)
    assert (rows["request_ms_p50 unscaled"]["wins"], rows["request_ms_p50 unscaled"]["claim"]) == (10, True)
    assert "| request_ms_p50 | 2.545 [2.522, 2.567] | 2.045 [2.022, 2.067] | 10 of 10 | yes |" in \
        bench_pairs.format_rows(list(rows.values())).splitlines()


def _verdicts(parent, change, better="lower", bound=0.05):
    """{metric: verdict} of one metric ``m`` from per-run values."""
    pairs = [({"m": p}, {"m": c}) for p, c in zip(parent, change)]
    rows = bench_pairs.summarize(pairs, {"m": better}, {"m": bound})
    return rows[0]["verdict"], bench_pairs.format_verdicts(rows)


# peak RSS of unchanged code: ten runs spread 4% (43.00 to 44.72 MB) against the 5% bound
RSS = [43.00, 43.40, 43.55, 43.70, 43.80, 43.90, 44.05, 44.20, 44.45, 44.72]


def test_an_rss_spread_inside_its_bound_reads_ok_and_a_median_beyond_it_worse():
    assert _verdicts(RSS, RSS[::-1])[0] == "ok"  # the same runs in another order
    assert _verdicts(RSS, [v * 1.04 for v in RSS])[0] == "ok"  # 4% worse is inside 5%
    verdict, table = _verdicts(RSS, [v * 1.06 for v in RSS])
    assert verdict == "worse"
    assert "| m | 1.3% | 5% | +6.0% | worse |" in table.splitlines()


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_wins():
    parent = [200.0 + 40.0 * i for i in range(10)]  # median 380, iqr 180: 47% against the 25% bound
    assert _verdicts(parent, parent[::-1], "higher", 0.25)[0] == "unresolved"
    assert _verdicts(parent, [v + 10.0 for v in parent], "higher", 0.25)[0] == "unresolved"
    assert _verdicts(parent, [v + 400.0 for v in parent], "higher", 0.25)[0] == "ok"  # every change run wins
    assert _verdicts(parent, [v - 200.0 for v in parent], "higher", 0.25)[0] == "worse"


def test_only_metrics_with_a_bound_get_a_verdict():
    rows = bench_pairs.summarize(_pairs([(400.0, 2.5)] * 3, [(400.0, 2.5)] * 3), BETTER, {"reps_per_s": 0.25})
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["reps_per_s"] == verdicts["reps_per_s unscaled"] == "ok"
    assert verdicts["request_ms_p50"] is None
    assert len(bench_pairs.format_verdicts(rows).splitlines()) == 4  # header, rule, two rows


def _canned(side: str, i: int) -> str:
    """Run i of one side: the change 10 reps/s faster, with an environment line."""
    reps = 400.0 + i + (10.0 if side == "change" else 0.0)
    environment = {"workload": "grid-vmax", "seed": 1, "python": "3.11.7", "revision": side}
    return "\n".join(["environment " + json.dumps(environment),
                      f"{2000 + i} repetitions in 10.000 s; latency samples: {2000 + i}",
                      _output(reps, 2.5)])


def _with_canned_runs(monkeypatch, tmp_path, fail_at: int | None = None):
    """(parent, change) checkouts whose runs are canned: ``_run`` returns run
    i of each side in call order, and raises at call ``fail_at``."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "reps_per_s", "better": "higher", "bound": 0.25},
        {"name": "request_ms_p50", "better": "lower", "bound": 0.25}]}))
    calls = {"parent": 0, "change": 0}

    def run(checkout, args):
        side = checkout.name
        if fail_at is not None and sum(calls.values()) == fail_at:
            raise bench_pairs.RunFailed(f"{checkout}: perfbench exited 1")
        calls[side] += 1
        return _canned(side, calls[side] - 1)

    monkeypatch.setattr(bench_pairs, "_run", run)
    return parent, change


def test_environment_is_read_from_its_line():
    assert bench_pairs.environment_of(_canned("parent", 0))["revision"] == "parent"
    assert bench_pairs.environment_of(_output(400.0, 2.5)) is None


def test_out_records_every_run_the_pair_order_and_the_verdicts(monkeypatch, tmp_path, capsys):
    parent, change = _with_canned_runs(monkeypatch, tmp_path)
    out = tmp_path / "BENCH_label.json"
    argv = [str(parent), str(change), "--workload", "grid-vmax", "--pairs", "4", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    (comparison,) = json.loads(out.read_text())["comparisons"]
    assert {k: comparison[k] for k in ("workload", "seed", "pairs", "seconds", "trace")} == {
        "workload": "grid-vmax", "seed": 1, "pairs": 4, "seconds": 25.0, "trace": 0}
    runs = comparison["runs"]
    assert [run["order"] for run in runs] == [["parent", "change"], ["change", "parent"]] * 2
    for i, run in enumerate(runs):
        for side in ("parent", "change"):
            assert run[side]["metrics"] == bench_pairs.parse_run(_canned(side, i))
            assert run[side]["environment"]["revision"] == side
        assert run["change"]["metrics"]["reps_per_s unscaled"] == run["parent"]["metrics"]["reps_per_s"] + 10.0
        assert run["parent"]["metrics"][bench_pairs.WALL_RATE] == pytest.approx(200.0 + i / 10)
    rows = {row["metric"]: row for row in comparison["summary"]}
    assert (rows["reps_per_s"]["wins"], rows["reps_per_s"]["claim"], rows["reps_per_s"]["verdict"]) == (4, True, "ok")
    assert rows["reps_per_s"]["parent"] == [400.75, 401.5, 402.25]
    assert rows[bench_pairs.WALL_RATE]["verdict"] is None
    assert "| reps_per_s | 401.5 [400.8, 402.2] | 411.5 [410.8, 412.2] | 4 of 4 | yes |" in capsys.readouterr().out

    # a second comparison, say the hold-out seed, is added to the same file
    assert bench_pairs.main(argv[:-2] + ["--seed", "2", "--pairs", "2", "--out", str(out)]) == 0
    assert [(c["seed"], c["pairs"]) for c in json.loads(out.read_text())["comparisons"]] == [(1, 4), (2, 2)]


def test_a_failed_run_is_recorded_with_the_runs_before_it_and_no_summary(monkeypatch, tmp_path, capsys):
    """Call 3 is pair 2's second run, the parent's: the record keeps pair 1,
    pair 2's change run and the parent's failure, and no summary."""
    parent, change = _with_canned_runs(monkeypatch, tmp_path, fail_at=3)
    out = tmp_path / "BENCH_label.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "grid-vmax", "--pairs", "4",
                             "--out", str(out)]) == 1
    assert "no summary" in capsys.readouterr().err
    (comparison,) = json.loads(out.read_text())["comparisons"]
    assert comparison["summary"] == []
    first, second = comparison["runs"]
    assert set(first) == {"order", "parent", "change"}
    assert second["order"] == ["change", "parent"] and set(second) == {"order", "change", "failed"}
    assert second["change"]["metrics"] == bench_pairs.parse_run(_canned("change", 1))
    assert second["failed"] == {"side": "parent", "error": f"{parent}: perfbench exited 1", "output": ""}


def test_both_checkouts_are_compiled_once_before_the_first_pair(monkeypatch, tmp_path):
    """Each checkout's ``src`` and ``perfbench`` are byte-compiled once, before
    the first run, whatever the number of pairs."""
    parent, change = _with_canned_runs(monkeypatch, tmp_path)
    modules = ("src/proxidtr/mod.py", "perfbench/run.py")
    for checkout in (parent, change):
        for name in modules:
            (checkout / name).parent.mkdir(parents=True, exist_ok=True)
            (checkout / name).write_text("X = 1\n")
    compiled, original = [], bench_pairs.compileall.compile_dir
    monkeypatch.setattr(bench_pairs.compileall, "compile_dir",
                        lambda path, **kwargs: compiled.append(Path(path)) or original(path, **kwargs))
    canned, seen = bench_pairs._run, []

    def run(checkout, args):  # every module of both checkouts compiled when the run starts
        seen.append(all(list((c / name).parent.glob(f"__pycache__/{Path(name).stem}.*.pyc"))
                        for c in (parent, change) for name in modules))
        return canned(checkout, args)

    monkeypatch.setattr(bench_pairs, "_run", run)
    assert bench_pairs.main([str(parent), str(change), "--workload", "grid-vmax", "--pairs", "3"]) == 0
    assert compiled == [parent / "src", parent / "perfbench", change / "src", change / "perfbench"]
    assert seen == [True] * 6


def test_a_run_writes_no_bytecode(monkeypatch, tmp_path):
    """Every run gets ``PYTHONDONTWRITEBYTECODE=1`` on top of this environment,
    and a session of its own."""
    calls = []

    class FakePopen:
        def __init__(self, cmd, **kwargs):
            calls.append(kwargs)
            kwargs["stdout"].write(_canned("parent", 0))
            self.pid, self.returncode = -1, 0

        def wait(self, timeout=None):
            calls.append(timeout)
            return self.returncode

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setattr(bench_pairs.subprocess, "Popen", FakePopen)
    monkeypatch.setattr(bench_pairs, "session_members", lambda sid: [])
    args = types.SimpleNamespace(workload="grid-vmax", seed=1, seconds=25.0, trace=0)
    assert bench_pairs._run(tmp_path, args) == _canned("parent", 0)
    kwargs, timeout = calls
    assert kwargs["cwd"] == tmp_path and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["env"]["PATH"] == os.environ["PATH"]
    assert kwargs["start_new_session"] and timeout == bench_pairs.run_timeout(25.0) == 160.0


def _fake_checkout(root: Path, name: str, script: str) -> Path:
    """A checkout whose ``perfbench/run.py`` is ``script``, with a
    ``BENCHMARK.json`` and an empty ``src``."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "src").mkdir()
    (checkout / "perfbench" / "run.py").write_text(script)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "reps_per_s", "better": "higher", "bound": 0.25}]}))
    return checkout


# the start of a fake run that records its session id in its checkout
RECORDS_SESSION = "import os, subprocess, time\nopen('sid', 'w').write(str(os.getsid(0)))\n"


def _printing(side: str) -> str:
    return f"print({_canned(side, 0)!r})\n"


def _session_of(checkout: Path) -> int:
    """The session the fake run recorded: not this process's, and with no process left."""
    sid = int((checkout / "sid").read_text())
    assert sid != os.getsid(0) and bench_pairs.session_members(sid) == []
    return sid


def test_a_run_that_hangs_is_killed_and_fails_the_comparison(monkeypatch, tmp_path, capsys):
    parent = _fake_checkout(tmp_path, "parent", RECORDS_SESSION + "time.sleep(600)\n")
    change = _fake_checkout(tmp_path, "change", _printing("change"))
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_SETUP_S", 1.0)  # 4 x 0.5 s + 1 s
    began = time.monotonic()
    assert bench_pairs.main([str(parent), str(change), "--workload", "grid-vmax", "--pairs", "2",
                             "--seconds", "0.5"]) == 1
    assert time.monotonic() - began < 60
    err = capsys.readouterr().err
    assert err.startswith("error: pair 1, parent run: ") and "ran past 3 s" in err and err.endswith("no summary\n")
    _session_of(parent)


def test_a_run_that_leaves_a_process_is_killed_and_fails_the_comparison(tmp_path, capsys):
    parent = _fake_checkout(tmp_path, "parent", _printing("parent"))
    change = _fake_checkout(tmp_path, "change", RECORDS_SESSION + "subprocess.Popen(['sleep', '600'])\n"
                            + _printing("change"))
    assert bench_pairs.main([str(parent), str(change), "--workload", "grid-vmax", "--pairs", "2",
                             "--seconds", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair 1, change run: ") and "exited 0 but left processes [" in err
    _session_of(change)
