"""Smoke test of the benchmark in ``perfbench/`` against the current program.

Each benchmark workload runs once at a tiny size: ``grid-vmax`` and
``grid-crossfit`` serially with two repetitions, ``estimate-cli`` for one
cycle of its six request variants, each pass untraced and then traced. The
benchmark wraps program functions by name (``harness._run_rep``,
``harness._DENSITY_FN``, ``estimators.fit_bridges``, ``cli.cross_fit``,
``estimators.population_v``, ``estimators.v_hat_pmr_alt``, ...) and skips
a name it cannot find, so a refactor that moves one would make the
benchmark lose latency samples or output checks without an error; here it
fails a test instead. The traced runs must record every call of
three layers, so a refactor that stops calling through a hooked name cannot
zero that layer silently: one ``identify.density`` span per identification
and one ``bridges.solve_bridges`` span per block of repetitions on both
grids (the harness fits a block's counts through ``estimators.fit_counts``,
which calls ``estimators.solve_bridges`` by its module name, inside the
``_run_rep`` call that runs the block's fit), and one
``estimators.fit_bridges`` span per one-fold bridge request and one
``estimators.row_estimate`` span per bridge request of the estimate cycle
(the CLI estimates through ``cli.cross_fit``).
"""

import sys
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from recorder import NAME, OP, Recorder  # noqa: E402

from proxidtr import bridges, cli, dgp, estimators, harness, identify, policy  # noqa: E402

PX = types.SimpleNamespace(bridges=bridges, cli=cli, dgp=dgp, estimators=estimators,
                           harness=harness, identify=identify, policy=policy)


def _sized(name: str, tmp_path):
    """The workload with its pass fixed to two repetitions or one request cycle."""
    workload = workloads.make(PX, name, 1, tmp_path)
    workload.setup()
    if name == "estimate-cli":
        workload.requests = len(workloads.ESTIMATE_VARIANTS)
    else:
        workload.reps = 2
    return workload


@pytest.mark.parametrize("name", ["grid-vmax", "grid-crossfit", "estimate-cli"])
def test_workload_runs_checks_and_traces(name, tmp_path):
    workload = _sized(name, tmp_path)
    untraced = workload.run(Recorder(), traced=False)
    traced = workload.run(Recorder(), traced=True)
    for done in (untraced, traced):
        assert done.ops == (2 if name.startswith("grid") else 6)
        assert len(done.latencies_s()) == done.ops  # one latency sample per repetition or request
        assert done.failed == 0
        assert workload.check(done) == ([], set())
    assert traced.output == untraced.output
    assert any(span[0] not in ("harness", "cli") for span in traced.recorder.spans)  # layer spans were recorded


def test_traced_grid_records_every_identification(tmp_path):
    for name in ("grid-vmax", "grid-crossfit"):
        traced = _sized(name, tmp_path).run(Recorder(), traced=True)
        # the 13 distinct (method, replaced components) densities of a repetition over the five
        # scenarios (POR 2, PHA 4, PIPW 2, PMR 5), each timed where the harness calls ``_DENSITY_FN``
        # once for the block of both repetitions, in the last call, which runs the whole block
        per_call = Counter(span[OP] for span in traced.recorder.spans if span[NAME] == "identify.density")
        assert per_call == {1: 13}, name
        # the block's one stacked solve, timed where ``fit_counts`` calls ``estimators.solve_bridges``
        fits = Counter(span[OP] for span in traced.recorder.spans if span[NAME] == "bridges.solve_bridges")
        assert fits == {1: 1}, name


def test_traced_estimate_cycle_records_every_fit_and_estimate(tmp_path):
    # POR, PHA, PIPW and PMR fit the whole sample through ``estimators.fit_bridges``; those four
    # and PMR at five folds estimate through ``cli.cross_fit``; SRA does neither
    traced = _sized("estimate-cli", tmp_path).run(Recorder(), traced=True)
    layer_spans = Counter(span[NAME] for span in traced.recorder.spans)
    assert layer_spans["estimators.fit_bridges"] == 4
    assert layer_spans["estimators.row_estimate"] == 5

