"""Smoke test of the benchmark in ``perfbench/`` against the current program.

Each benchmark workload runs once at a tiny size: ``grid-vmax`` and
``grid-crossfit`` serially with two repetitions, ``estimate-cli`` for one
cycle of its six request variants, each pass untraced and then traced. The
benchmark wraps program functions by name (``harness._run_rep``,
``harness._worker``, ``estimators.fit_bridges``, ``estimators.population_v``,
``estimators.v_hat_pmr_alt``, ...) and skips a name it cannot find, so a
refactor that moves one would make the benchmark lose latency samples or
output checks without an error; here it fails a test instead.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402

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


def test_pool_worker_hook_returns_the_repetitions_spans():
    config = harness.ExperimentConfig(reps=1)
    rec = Recorder()
    with layers.installed(rec, PX, False):
        result = harness._worker((config, 0, harness._scenario_pseudo(config)))
    rec.absorb(result.pop(layers.WORKER_PAYLOAD))
    assert len(rec.op_roots()) == 1
    assert set(result) == {(tag, m) for tag in config.scenarios for m in config.methods}
