"""The summary arithmetic of ``tools/bench_pairs.py`` on canned perfbench
output: medians and quartiles, wins out of the pairs, the nine-tenths and
interquartile-range rule, the direction of each metric, and the refusal of a
run that reads ``correct: false``."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"reps_per_s": "higher", "request_ms_p50": "lower"}


def _output(reps: float, p50: float, correct: bool = True, unscaled_reps: float | None = None) -> str:
    """The tail of one perfbench run: the unscaled line, a metric line and the JSON result."""
    unscaled = reps if unscaled_reps is None else unscaled_reps
    result = {"correct": correct, "attempted": 100, "failed": 0 if correct else 3,
              "metrics": {"reps_per_s": {"value": reps, "unit": "1/s"},
                          "request_ms_p50": {"value": p50, "unit": "ms"}}}
    return "\n".join([
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
