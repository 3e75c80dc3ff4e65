"""Experiment orchestration: determinism, failure accounting, table output."""

from functools import partial

import numpy as np
import pytest

from proxidtr import harness
from proxidtr.dgp import DgpParams, regime_value, sample
from proxidtr.harness import (
    ALL_METHODS,
    BRIDGE_METHODS,
    SCENARIO_PSEUDO,
    CellSummary,
    ExperimentConfig,
    ExperimentReport,
    MetricSummary,
    emit_tables,
    identify_check,
    parse_report_csv,
    run_experiment,
    worker_count,
)
from proxidtr.policy import value_maximize

SMALL = ExperimentConfig(
    scenarios=("all-correct", "all-wrong"),
    methods=("PMR", "SRA"),
    n=8000,
    reps=3,
    base_seed=424,
)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL)


def test_scenario_pseudo_components():
    assert SCENARIO_PSEUDO["all-correct"] == ()
    assert SCENARIO_PSEUDO["m0-correct"] == ("q11", "q22")
    assert SCENARIO_PSEUDO["m1-correct"] == ("h21", "q22")
    assert SCENARIO_PSEUDO["m2-correct"] == ("h22", "h21")
    assert set(SCENARIO_PSEUDO["all-wrong"]) == {"h22", "h21", "q11", "q22"}
    with pytest.raises(ValueError, match="m3-correct"):
        ExperimentConfig(scenarios=("m3-correct",))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("NOPE",))
    with pytest.raises(ValueError):
        ExperimentConfig(optimizer="gradient")
    with pytest.raises(ValueError, match="folds"):
        ExperimentConfig(folds=0)
    with pytest.raises(ValueError, match="laplace"):
        ExperimentConfig(laplace=-0.5)
    cfg = ExperimentConfig(methods=("pmr",))
    assert cfg.methods == ("PMR",)


def test_config_json_round_trip():
    cfg = ExperimentConfig(scenarios=("all-correct",), n=1234, reps=2, folds=3)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_full_determinism(small_report):
    again = run_experiment(SMALL)
    assert emit_tables(again) == emit_tables(small_report)


def test_failures_are_counted_not_dropped(small_report):
    for cell in small_report.cells:
        assert cell.count + cell.failures == SMALL.reps


def test_regret_never_meaningfully_negative(small_report):
    for cell in small_report.cells:
        if cell.count:
            assert cell.regret.mean >= -1e-9


def test_emit_tables_empty_report():
    csv_text, table_text = emit_tables(ExperimentReport(SMALL, ()))
    assert csv_text.splitlines()[0].startswith("scenario,method,")
    assert len(csv_text.splitlines()) == 1
    assert "Regret" in table_text


def test_csv_round_trips(small_report):
    csv_text, _ = emit_tables(small_report)
    rows = parse_report_csv(csv_text)
    assert len(rows) == len(small_report.cells)
    first = rows[0]
    cell = small_report.cell(first["scenario"], first["method"])
    assert first["regret_mean"] == cell.regret.mean
    assert first["overall_mean"] == cell.overall_error.mean


def test_table_shape_full_grid():
    cfg = ExperimentConfig(n=2000, reps=1, methods=ALL_METHODS)
    report = run_experiment(cfg)
    csv_text, table_text = emit_tables(report)
    assert len(csv_text.splitlines()) == 1 + 5 * 6  # header + scenarios x methods
    # two metric blocks, each: title + header + 5 value rows + rmse marker + 5 rmse rows
    assert table_text.count("Regret (") == 1
    assert table_text.count("Overall error (") == 1
    for tag in cfg.scenarios:
        assert table_text.count(tag) == 4  # mean and rmse rows in both blocks


def test_sub_epsilon_rendering(small_report):
    _, table_text = emit_tables(small_report)
    assert "<eps" in table_text


def test_baselines_identical_across_scenarios(small_report):
    sra_cells = [c for c in small_report.cells if c.method == "SRA"]
    assert len(sra_cells) == 2
    assert sra_cells[0].regret == sra_cells[1].regret
    assert sra_cells[0].overall_error == sra_cells[1].overall_error


def test_identify_check_passes_and_is_fast():
    import time

    start = time.perf_counter()
    result = identify_check()
    elapsed = time.perf_counter() - start
    assert result.passed
    assert max(result.deviations.values()) <= 1e-10
    assert elapsed < 1.0


def test_identify_check_flags_corruption():
    result = identify_check(pseudo=("h21",), pseudo_seed=11)
    assert not result.passed
    assert result.deviations["POR"] > 1e-3
    assert result.deviations["PMR"] <= 1e-9


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("PROXIDTR_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("PROXIDTR_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("PROXIDTR_THREADS", "junk")
    assert worker_count() == 1


def test_parallel_matches_serial(monkeypatch):
    cfg = ExperimentConfig(scenarios=("all-correct",), methods=("SRA", "ORACLE"),
                           n=2000, reps=2, base_seed=7)
    serial = emit_tables(run_experiment(cfg))
    monkeypatch.setenv("PROXIDTR_THREADS", "2")
    parallel = emit_tables(run_experiment(cfg))
    assert serial == parallel


def test_cross_fit_experiment_runs():
    cfg = ExperimentConfig(scenarios=("all-correct",), methods=("PMR",),
                           n=12000, reps=1, folds=2, laplace=0.5)
    report = run_experiment(cfg)
    cell = report.cell("all-correct", "PMR")
    assert cell.count + cell.failures == 1


def _loop_score(truth, g, p_y0):
    """Value-max scores by the ``value_maximize`` + ``regime_value`` loop."""
    d_hat, estimated = value_maximize(partial(regime_value, g, p_y0), truth.search_class)
    _, optimum = value_maximize(partial(regime_value, truth.oracle_g, truth.p_y0), truth.search_class)
    return optimum - regime_value(truth.oracle_g, truth.p_y0, d_hat), abs(optimum - estimated)


def test_score_regime_matches_loop_on_one_repetition():
    config = ExperimentConfig(n=35000)
    data = sample(DgpParams.default(), config.n, config.base_seed)
    fits = harness._bridge_fits(data, config)
    pseudo = harness._scenario_pseudo(config)
    tables = [harness._baseline_table(data, config, m) for m in ("SRA", "ORACLE")]
    for tag in config.scenarios:
        tables += harness._bridge_tables(fits, pseudo[tag], BRIDGE_METHODS).values()
    for regime_class in ("linear", "all-boolean"):
        truth = harness._truth_context(ExperimentConfig(regime_class=regime_class))
        densities = tables + [(truth.oracle_g, truth.p_y0)]
        assert len(densities) == 23
        for g, p_y0 in densities:
            assert harness._score_regime(truth, g, p_y0, "value-max") == _loop_score(truth, g, p_y0)


def _list_summary(values):
    if not values:
        return MetricSummary(float("nan"), float("nan"), float("nan"))
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MetricSummary(float(arr.mean()), se, float(np.sqrt((arr ** 2).mean())))


def test_streamed_aggregation_matches_list_aggregation():
    config = ExperimentConfig(n=600, reps=6, laplace=0.0)
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    per_rep = [harness._run_rep(config, truth, rep, pseudo) for rep in range(config.reps)]
    cells = []
    for tag in config.scenarios:
        for method in config.methods:
            scored = [r[(tag, method)] for r in per_rep if not isinstance(r[(tag, method)], str)]
            cells.append(CellSummary(tag, method, len(scored), config.reps - len(scored),
                                     _list_summary([s[0] for s in scored]),
                                     _list_summary([s[1] for s in scored])))
    expected = ExperimentReport(config, tuple(cells))
    assert any(0 < c.failures < config.reps for c in expected.cells)
    assert any(c.failures == config.reps for c in expected.cells)
    report = run_experiment(config)
    assert [(c.count, c.failures) for c in report.cells] == [(c.count, c.failures) for c in expected.cells]
    assert emit_tables(report) == emit_tables(expected)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("folds, laws", [(1, 2), (5, 7)])
def test_one_observed_conditional_per_scoring_law(monkeypatch, folds, laws):
    """The fitted law (one per fold), SRA and the Oracle are each conditioned
    on Y0 once per repetition, however many scenarios and methods read them;
    with one fold SRA's law is the fitted law and is not conditioned again."""
    config = ExperimentConfig(n=35000, folds=folds)
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    calls = _counting(monkeypatch, harness.identify, "observed_conditional")
    results = harness._run_rep(config, truth, 0, pseudo)
    assert not any(isinstance(r, str) for r in results.values())
    assert len(calls) == laws


def test_pseudo_bridges_drawn_once_per_scenario_per_experiment(monkeypatch):
    calls = _counting(monkeypatch, harness, "pseudo_bridges")
    config = ExperimentConfig(scenarios=("all-correct", "m1-correct", "all-wrong"),
                              methods=("PMR", "SRA"), n=4000, reps=4, base_seed=31)
    run_experiment(config)
    assert sorted(args[1] for args in calls) == sorted(
        harness.SCENARIO_PSEUDO[tag] for tag in config.scenarios)
    calls.clear()
    run_experiment(ExperimentConfig(methods=("SRA", "ORACLE"), n=4000, reps=2, base_seed=31))
    assert calls == []


@pytest.mark.parametrize("payload", [{"n": "abc"}, {"scenarios": 5}, {"reps": 1.5},
                                     {"methods": [1]}, {"laplace": "x"}, {"folds": True}])
def test_config_rejects_wrongly_typed_values(payload):
    with pytest.raises(ValueError, match="config field"):
        ExperimentConfig(**payload)
