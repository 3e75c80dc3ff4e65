"""The module attributes through which the fit and the identification are
called, and how often per operation.

A benchmark that times layers by wrapping these attributes (``perfbench``
does) reads a layer as zero when a refactor stops calling through one, so
the counts are pinned here, counted by wrappers installed the same way: per
block of repetitions of the grid (``harness.BLOCK``, one stacked
pass), 1 ``estimators.solve_bridges``, 4 ``bridges.invert2or4``, 13
``harness._DENSITY_FN`` entries and 1 ``identify.observed_conditional`` at
one fold (the stack of fitted laws; the Oracle reads P(Y0) off its law
unconditioned), 2 with folds (the stack of fold laws and SRA's
whole-sample laws), for value
maximization at 5 folds (grid-crossfit's block) and Q-learning at 3 alike;
a repetition run alone (a stack of one) counts the same; per
``estimate --method pmr`` request, 1 ``estimators.solve_bridges``."""

import functools
import io
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from conftest import rep_alone
from proxidtr import bridges, cli, dgp, estimators, harness, identify
from proxidtr.policy import Regime

pytestmark = pytest.mark.usefixtures("serial_on_two_cpus")  # repetitions run in blocks


def _count(counts: Counter, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def counts(monkeypatch) -> Counter:
    counts = Counter()
    for owner, attr in ((estimators, "solve_bridges"), (bridges, "invert2or4"), (identify, "observed_conditional")):
        monkeypatch.setattr(owner, attr, _count(counts, attr, getattr(owner, attr)))
    for method, fn in list(harness._DENSITY_FN.items()):
        monkeypatch.setitem(harness._DENSITY_FN, method, _count(counts, "_DENSITY_FN", fn))
    return counts


def _per_call(monkeypatch, counts, config) -> list[Counter]:
    """Each ``_run_rep`` call's site counts over a run of ``config``, which must score every cell."""
    per_call = []
    run_rep = harness._run_rep

    def counted_rep(*args, **kwargs):
        before = Counter(counts)
        try:
            return run_rep(*args, **kwargs)
        finally:
            per_call.append(counts - before)

    monkeypatch.setattr(harness, "_run_rep", counted_rep)
    report = harness.run_experiment(config)
    assert all(cell.failures == 0 for cell in report.cells)
    return per_call


def _per_block(monkeypatch, counts, config, laws: int):
    """Runs of one, two and three blocks (the last one short) each count
    one block's sites per block, all inside ``_run_rep`` calls; a
    repetition run alone counts one block's sites."""
    block = Counter(solve_bridges=1, invert2or4=4, _DENSITY_FN=13, observed_conditional=laws)
    for reps, blocks in ((harness.BLOCK, 1), (2 * harness.BLOCK, 2), (2 * harness.BLOCK + 1, 3)):
        counts.clear()
        per_call = _per_call(monkeypatch, counts, replace(config, reps=reps))
        assert len(per_call) == reps
        assert sum(per_call, Counter()) == counts == Counter({site: blocks * k for site, k in block.items()})
    counts.clear()
    rep_alone(config, harness._truth_context(config), 0)
    assert counts == block


def test_a_grid_repetition_calls_each_site_as_often_as_pinned(monkeypatch, counts):
    """Per block of repetitions, or per repetition run alone."""
    _per_block(monkeypatch, counts, harness.ExperimentConfig(), 1)


@pytest.mark.parametrize("folds, optimizer", [(5, "value-max"), (3, "q-learning")])
def test_a_cross_fitted_repetition_calls_each_site_as_often_as_pinned(monkeypatch, counts, folds, optimizer):
    """Per block of repetitions, or per repetition run alone."""
    _per_block(monkeypatch, counts, harness.ExperimentConfig(folds=folds, optimizer=optimizer), 2)


def test_an_estimate_request_solves_once(tmp_path, counts):
    (tmp_path / "d.csv").write_text(dgp.sample(dgp.DgpParams.default(), 35000, 3).to_csv())
    (tmp_path / "r.json").write_text(Regime.from_index(837).to_json())
    with redirect_stdout(io.StringIO()):
        assert cli.main(["estimate", "--data", str(tmp_path / "d.csv"), "--regime", str(tmp_path / "r.json"),
                         "--method", "pmr"]) == 0
    assert counts["solve_bridges"] == 1
    assert counts["invert2or4"] == 4
