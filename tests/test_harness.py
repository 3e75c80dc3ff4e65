"""Experiment orchestration: determinism, failure accounting, table output."""

from functools import partial

import numpy as np
import pytest
from conftest import value_maximize

from proxidtr import estimators, harness, identify
from proxidtr.bridges import pseudo_bridges
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
from proxidtr.tables import TableError

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


def test_config_refuses_more_folds_than_rows():
    assert ExperimentConfig(n=5, folds=5).folds == 5
    with pytest.raises(ValueError, match="6 folds need at least 6 rows, got n = 5"):
        ExperimentConfig(n=5, folds=6)
    with pytest.raises(ValueError, match="3 folds need at least 3 rows"):
        ExperimentConfig.from_json('{"n": 2, "folds": 3}')


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


@pytest.mark.parametrize("optimizer", ["value-max", "q-learning"])
def test_parallel_matches_serial(monkeypatch, optimizer):
    """Pool workers rebuild the truth context; every cell is scored, none fails."""
    cfg = ExperimentConfig(scenarios=("all-correct", "m1-correct"), methods=("SRA", "ORACLE", "PMR"),
                           optimizer=optimizer, n=8000, reps=2, base_seed=7)
    report = run_experiment(cfg)
    assert all(c.count == cfg.reps for c in report.cells)
    monkeypatch.setenv("PROXIDTR_THREADS", "2")
    assert emit_tables(report) == emit_tables(run_experiment(cfg))


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
        tables += [harness._bridge_table(fits, pseudo[tag], m) for m in BRIDGE_METHODS]
    for regime_class in ("linear", "all-boolean"):
        truth = harness._truth_context(ExperimentConfig(regime_class=regime_class))
        densities = tables + [(truth.oracle_g, truth.p_y0)]
        assert len(densities) == 23
        for g, p_y0 in densities:
            assert harness._score_regime(truth, g, p_y0, "value-max") == _loop_score(truth, g, p_y0)


def test_truth_reads_values_and_optima_at_boolean_indices(monkeypatch, boolean_class):
    """On a random potential density, where the linear optimum falls short of
    the Boolean one, both optima and every true value match the loop."""
    g = np.random.default_rng(13).random((2,) * 5)
    monkeypatch.setattr(harness, "oracle_density_from_joint", lambda joint: identify.IdentifiedDensity(g, "ORACLE"))
    truth = harness._Truth(DgpParams.default(), "linear")
    value = partial(regime_value, g, truth.p_y0)
    assert truth.true_values.tolist() == [value(r) for r in boolean_class.members]
    assert truth.optimum_value == value_maximize(value, truth.search_class)[1]
    assert truth.boolean_optimum == value_maximize(value, boolean_class)[1] > truth.optimum_value


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


@pytest.mark.parametrize("folds, laws", [(1, 2), (5, 3)])
def test_one_observed_conditional_per_scoring_law(monkeypatch, folds, laws):
    """The fitted law (the stack of fold laws, conditioned together), SRA and
    the Oracle are each conditioned on Y0 once per repetition, however many
    scenarios and methods read them; with one fold SRA's law is the fitted
    law and is not conditioned again."""
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


def _reference_rep(config, truth, rep):
    """Every (scenario, method) cell of one repetition on its own: bridges fitted
    fold by fold on masked counts, each cell identified through ``_DENSITY_FN``
    per fold and scored with ``_score_regime``; nothing is shared between cells."""
    data = sample(truth.params, config.n, config.base_seed + rep)
    opts = estimators.FitOptions(config.folds, config.laplace)
    assignments = estimators.fold_assignments(data, config.folds)
    total = estimators._cell_counts(data)
    # (scoring counts, fitting counts, failure prefix) per fold
    folds = [(total, total, "")] if config.folds == 1 else [
        (estimators._cell_counts(data.subset(assignments == f)), estimators._cell_counts(data.subset(assignments != f)),
         f"off-fold fit failed for fold {f}: ") for f in range(config.folds)]

    def bridge_table(tag, method):
        per_fold = []
        for own, off_fold, prefix in folds:
            try:
                _, b = estimators.fit_counts(off_fold, opts)
            except TableError as err:
                return f"fit failed: {prefix}{err}"
            b = b.merged(pseudo_bridges(config.pseudo_seed, SCENARIO_PSEUDO[tag]))
            cond, p_y0 = identify.observed_conditional(estimators.count_pmf(own, config.laplace))
            per_fold.append((harness._DENSITY_FN[method](cond, b).g, p_y0))
        if config.folds == 1:
            return per_fold[0]
        p_bar = sum(p for _, p in per_fold) / config.folds
        g_bar = sum(g * p[None, None, None, None, :] for g, p in per_fold) / config.folds
        return g_bar / p_bar[None, None, None, None, :], p_bar

    def baseline_table(method):
        try:
            if method == "SRA":
                cond, p_y0 = identify.observed_conditional(estimators.empirical_pmf(data, laplace=config.laplace))
                return estimators.sra_from_conditional(cond).g, p_y0
            pmf = estimators.empirical_pmf(data, laplace=config.laplace, include_hidden=True)
            return estimators.oracle_density(pmf).g, identify.observed_conditional(pmf)[1]
        except TableError as err:
            return f"fit failed: {err}"

    results = {}
    for tag in config.scenarios:
        for method in config.methods:
            table = bridge_table(tag, method) if method in BRIDGE_METHODS else baseline_table(method)
            if not isinstance(table, str):
                try:
                    table = harness._score_regime(truth, *table, config.optimizer)
                except TableError as err:
                    table = f"scoring failed: {err}"
            results[(tag, method)] = table
    return results


@pytest.mark.parametrize("optimizer", ["value-max", "q-learning"])
@pytest.mark.parametrize("folds, n, reps", [(1, 35000, 1), (3, 35000, 1), (1, 600, 6), (3, 6000, 6)])
def test_deduplicated_repetition_equals_cell_by_cell_reference(optimizer, folds, n, reps):
    """Identifying and scoring each distinct density once gives every cell
    exactly what identifying and scoring it alone gives, failures included."""
    config = ExperimentConfig(optimizer=optimizer, folds=folds, n=n, reps=reps)
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    failures = []
    for rep in range(reps):
        got = harness._run_rep(config, truth, rep, pseudo)
        expected = _reference_rep(config, truth, rep)
        assert got == expected
        failures += [r for r in got.values() if isinstance(r, str)]
    if n < 35000:
        assert failures and len(failures) < reps * len(got)  # failed and scored cells mixed
