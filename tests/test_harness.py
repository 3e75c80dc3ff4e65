"""Experiment orchestration: determinism, failure accounting, table output."""

import json
from functools import partial

import numpy as np
import pytest
from conftest import regime_value, rep_alone, value_maximize

from proxidtr import dgp, estimators, harness, identify
from proxidtr.bridges import pseudo_bridges
from proxidtr.dgp import DgpParams, sample
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
)
from proxidtr.estimators import FitOptions
from proxidtr.policy import Regime, class_values, enumerate_class, q_learning_regime
from proxidtr.tables import TableError

SMALL = ExperimentConfig(
    scenarios=("all-correct", "all-wrong"),
    methods=("PMR", "SRA"),
    n=8000,
    reps=3,
    base_seed=424,
)


# every bridge and Oracle cell fails 6 of 6 and SRA 1 of 6: full and partial failures, each failing step's kinds
N600 = ExperimentConfig(n=600, reps=6, base_seed=0)


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


@pytest.mark.parametrize("payload, message", [
    ({"methods": []}, "config field 'methods' must name one or more distinct methods, got []"),
    ({"methods": ["pmr", "PMR"]}, "config field 'methods' must name one or more distinct methods, got ['PMR', 'PMR']"),
    ({"scenarios": []}, "config field 'scenarios' must name one or more distinct scenarios, got []"),
    ({"scenarios": ["all-wrong", "all-correct", "all-wrong"]},
     "config field 'scenarios' must name one or more distinct scenarios, got ['all-wrong', 'all-correct', 'all-wrong']"),
])
def test_config_refuses_empty_or_repeated_names(payload, message):
    with pytest.raises(ValueError) as err:
        ExperimentConfig(**payload)
    assert str(err.value) == message


def test_config_checks_every_repetition_seed_up_front():
    last = 2 ** 64 - 1
    assert ExperimentConfig(base_seed=last, reps=1).base_seed == last
    assert ExperimentConfig(base_seed=last - 19).reps == 20
    assert ExperimentConfig(base_seed=0, pseudo_seed=0).pseudo_seed == 0
    for payload in ({"base_seed": last, "reps": 2}, {"base_seed": last - 18}, {"base_seed": -1}):
        with pytest.raises(ValueError, match=r"config field 'base_seed' must be in \[0, 2\*\*64 - reps\]"):
            ExperimentConfig(**payload)
    with pytest.raises(ValueError, match="config field 'pseudo_seed' must be >= 0, got -1"):
        ExperimentConfig(pseudo_seed=-1)


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
    """Every column of every row parses back to the cell's own value and type;
    NaN compares as NaN. At n = 600 every bridge and Oracle cell fails 6 of 6
    (NaN metrics) and SRA scores 5 of 6."""
    n600_report = run_experiment(N600)
    assert {(c.method, c.count, c.failures) for c in n600_report.cells} == {
        *((m, 0, 6) for m in (*BRIDGE_METHODS, "ORACLE")), ("SRA", 5, 1)}
    for report in (small_report, n600_report):
        config = report.config
        rows = parse_report_csv(emit_tables(report)[0])
        assert len(rows) == len(report.cells)
        for row, c in zip(rows, report.cells):
            expected = {"scenario": c.scenario, "method": c.method, "optimizer": config.optimizer,
                        "n": config.n, "reps": config.reps, "count": c.count, "failures": c.failures}
            for prefix, s in (("regret", c.regret), ("overall", c.overall_error)):
                expected |= {f"{prefix}_mean": s.mean, f"{prefix}_se": s.se, f"{prefix}_rmse": s.rmse}
            assert list(row) == list(expected)
            assert [type(v) for v in row.values()] == [type(v) for v in expected.values()]
            np.testing.assert_equal(row, expected)


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


def test_cross_fit_experiment_runs():
    cfg = ExperimentConfig(scenarios=("all-correct",), methods=("PMR",),
                           n=12000, reps=1, folds=2, laplace=0.5)
    report = run_experiment(cfg)
    cell = report.cell("all-correct", "PMR")
    assert cell.count + cell.failures == 1


@pytest.fixture(scope="module")
def true_density(oracle, p_y0):
    """(g, P(y0)) of the Oracle density of the true law, from the ``conftest`` fixtures."""
    return oracle.g, p_y0


def _loop_optimum(true_density, truth, optimizer):
    """The class optimum of the true value by the ``value_maximize`` + ``regime_value``
    loop: over the searched class for value-max, the Boolean class for Q-learning."""
    cls = truth.search_class if optimizer == "value-max" else enumerate_class("all-boolean")
    return value_maximize(partial(regime_value, *true_density), cls)[1]


def _loop_pick(g, p_y0, cls, optimizer):
    """(regime, estimated value) of one density's pick by test-side loops:
    value-max by ``value_maximize`` + ``regime_value`` over ``cls``,
    Q-learning by ``q_functions`` -> ``q_learning_regime`` -> ``regime_value``."""
    if optimizer == "value-max":
        return value_maximize(partial(regime_value, g, p_y0), cls)
    d_hat = q_learning_regime(*identify.q_functions(g))
    return d_hat, regime_value(g, p_y0, d_hat)


def _loop_score(true_density, truth, g, p_y0, optimizer, optimum):
    """(regret, overall error) of one density by test-side loops (``_loop_pick``);
    true values under ``true_density``."""
    d_hat, estimated = _loop_pick(g, p_y0, truth.search_class, optimizer)
    return optimum - regime_value(*true_density, d_hat), abs(optimum - estimated)


def _one_repetition_densities(config):
    """(g, p_y0) of every distinct density of the first repetition of ``config``,
    from a pass over a stack of one."""
    cells, observed, own = harness._counts(config, DgpParams.default(), 0)
    fits = harness._bridge_fits(observed[None], None if own is None else own[None], config)
    pseudo = harness._scenario_pseudo(config)
    tables = [harness._baseline_table(cells[None], observed[None], config, m) for m in ("SRA", "ORACLE")]
    merged = {(m, tag): pseudo[tag] for tag in config.scenarios for m in BRIDGE_METHODS}
    g, p_y0 = harness._fold_average(harness._bridge_densities(fits, merged), fits[1])
    return [(g[0], p_y0[0]) for g, p_y0 in tables] + [(g_d, p_y0[0]) for g_d in g[0]]


@pytest.mark.parametrize("optimizer", ["value-max", "q-learning"])
def test_scores_match_loops_on_one_repetition(optimizer, true_density):
    """The stacked scoring of every density equals scoring each alone with
    test-side loops, bit for bit, under both regime classes."""
    tables = _one_repetition_densities(ExperimentConfig(n=35000))
    for regime_class in ("linear", "all-boolean"):
        truth = harness._truth_context(ExperimentConfig(regime_class=regime_class, optimizer=optimizer))
        densities = tables + [true_density]
        assert len(densities) == 23
        g, p_y0 = (np.stack(arrays) for arrays in zip(*densities))
        optimum = _loop_optimum(true_density, truth, optimizer)
        expected = [_loop_score(true_density, truth, *density, optimizer, optimum) for density in densities]
        assert harness._class_scores(truth, g, p_y0, optimizer) == expected


@pytest.mark.parametrize("optimizer", ["value-max", "q-learning"])
def test_pick_matches_loops_on_one_repetition(optimizer, true_density, linear_class, boolean_class):
    """``identify.pick``, given no truth, picks under the stack of the same 23
    densities what test-side loops pick under each alone, bit for bit, over
    both classes; each density picked alone gives the same."""
    densities = _one_repetition_densities(ExperimentConfig(n=35000)) + [true_density]
    g, p_y0 = (np.stack(arrays) for arrays in zip(*densities))
    for cls in (linear_class, boolean_class):
        expected = [(d_hat.index, estimated) for d_hat, estimated in
                    (_loop_pick(*density, cls, optimizer) for density in densities)]
        chosen, values = identify.pick(g, p_y0, cls.index, optimizer)
        assert list(zip(chosen.tolist(), values.tolist())) == expected
        assert [identify.pick(*density, cls.index, optimizer) for density in densities] == expected


def test_a_density_that_fails_scoring_is_charged_alone(true_density):
    """In a block where one density of one repetition has a zero stage-2
    denominator, Q-learning still scores every other density, of that
    repetition and of another one, and that one records the message it gets
    when scored alone; value maximization needs no Q tables and scores it."""
    truth = harness._truth_context(ExperimentConfig(optimizer="q-learning"))
    densities = _one_repetition_densities(ExperimentConfig(n=35000))
    degenerate = densities[4][0].copy()
    degenerate[1, 0, :, 1, 0] = 0.0  # f(Y1(1)=1 | Y0=0) is zero at a2 = 0
    with pytest.raises(TableError) as alone:
        identify.q_functions(degenerate)
    healthy = {("density", i): density for i, density in enumerate(densities)}
    tables = {**healthy, ("density", 4): (degenerate, densities[4][1]), "failed fit": "fit failed: singular"}
    optimum = _loop_optimum(true_density, truth, "q-learning")
    expected = {key: _loop_score(true_density, truth, *density, "q-learning", optimum)
                for key, density in healthy.items()}
    scores = harness._scores(truth, [tables, healthy], "q-learning")
    assert scores == [{**expected, ("density", 4): f"scoring failed: {alone.value.kind}",
                       "failed fit": "fit failed: singular"}, expected]
    assert str(alone.value) == "zero stage-2 denominator at (y0=0, y1=1, a1=1, a2=0); f(Y1(1)=1|Y0=0) is degenerate"
    assert alone.value.kind == ("zero stage-2 denominator at (y0={y0}, y1={y1}, a1={a1}, a2={a2}); "
                                "f(Y1({a1})={y1}|Y0={y0}) is degenerate")
    scores = harness._scores(truth, [tables], "value-max")[0]
    assert not any(isinstance(s, str) for key, s in scores.items() if key != "failed fit")


def test_truth_reads_values_and_optima_at_boolean_indices(monkeypatch, boolean_class, p_y0):
    """On a random potential density, where the linear optimum falls short of
    the Boolean one, each class's one optimum and every true value match the loop."""
    g = np.random.default_rng(13).random((2,) * 5)
    monkeypatch.setattr(dgp, "oracle_density_from_joint", lambda joint: identify.IdentifiedDensity(g, "ORACLE"))
    params = DgpParams.default()
    linear, boolean = (harness._Truth(params, tag) for tag in ("linear", "all-boolean"))
    value = partial(regime_value, g, p_y0)
    assert linear.true_values.tolist() == [value(r) for r in boolean_class.members]
    assert linear.true_values is boolean.true_values is dgp.true_values(params)  # the law's one table
    assert linear.optimum == value_maximize(value, linear.search_class)[1]
    assert boolean.optimum == value_maximize(value, boolean_class)[1] > linear.optimum
    assert boolean.search_class == boolean_class


@pytest.mark.parametrize("regime_class", ["linear", "all-boolean"])
def test_truth_is_keyed_by_the_class_the_optimizer_searches(regime_class):
    """Value maximization searches the configured class, Q-learning the Boolean
    class whatever the configured one, and each truth is built once."""
    value_max = harness._truth_context(ExperimentConfig(regime_class=regime_class))
    q_learning = harness._truth_context(ExperimentConfig(regime_class=regime_class, optimizer="q-learning"))
    assert value_max.search_class.tag == regime_class
    assert q_learning is harness._truth_context(ExperimentConfig(optimizer="q-learning"))
    assert q_learning.search_class == enumerate_class("all-boolean")


def _list_summary(values):
    if not values:
        return MetricSummary(float("nan"), float("nan"), float("nan"))
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MetricSummary(float(arr.mean()), se, float(np.sqrt((arr ** 2).mean())))


def test_streamed_aggregation_matches_list_aggregation():
    config = N600
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    per_rep = [rep_alone(config, truth, rep, pseudo) for rep in range(config.reps)]
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


@pytest.mark.parametrize("folds, laws", [(1, 1), (5, 1)])
def test_one_observed_conditional_per_scoring_law(monkeypatch, folds, laws):
    """The law each fit scores (the stack of fold laws, together) gets one
    piece table per repetition, however many scenarios and methods read it;
    SRA and the Oracle read their densities and P(Y0) off their laws, with
    one fold SRA off the fitted law."""
    config = ExperimentConfig(n=35000, folds=folds)
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    calls = _counting(monkeypatch, harness.identify, "observed_conditional")
    results = rep_alone(config, truth, 0, pseudo)
    assert not any(isinstance(r, str) for r in results.values())
    assert len(calls) == laws


@pytest.mark.parametrize("laplace", [0.0, 0.5])
def test_one_fold_fit_builds_the_whole_sample_law_once(params, laplace, monkeypatch):
    """The bridges are fitted on the smoothed law and the piece table is read
    off the raw one; without smoothing the two are one law, built once."""
    data = sample(params, 6000, 3)
    config = ExperimentConfig(n=6000, laplace=laplace)
    laws = _counting(monkeypatch, estimators, "count_pmf")
    monkeypatch.setattr(harness, "count_pmf", estimators.count_pmf)  # the harness's own builds counted too
    pieces, p_y0, solved = harness._bridge_fits(data.observed_counts[None], None, config)  # a stack of one
    assert len(laws) == (1 if laplace == 0 else 2)
    law, expected = estimators.empirical_pmf(data), estimators.fit_bridges(data, FitOptions(laplace=laplace))[1]
    expected_p = identify.observed_conditional(law)[1]
    assert pieces.law.mass.shape == (1,) + law.mass.shape and p_y0.shape == (1,) + expected_p.shape
    assert pieces.law.mass.tobytes() == law.mass.tobytes() and p_y0.tobytes() == expected_p.tobytes()
    assert all(np.array_equal(getattr(solved, n)[0], getattr(expected, n)) for n in ("h22", "h21", "h11", "q11", "q22"))


@pytest.mark.parametrize("folds", [1, 3])
@pytest.mark.parametrize("laplace", [0.0, 0.5])
def test_bridge_values_are_cross_fit_values(folds, laplace, linear_class):
    """Each bridge method's value of its pick, read off the harness's tables
    of one repetition, is ``cross_fit``'s value of that regime on the
    repetition's sample (rebuilt from its cell counts, with its seed): the
    bridges fitted on the law ``laplace`` smooths, the value read on the raw
    law, as ``estimate`` reads it. With one fold ``identify.pick``'s value
    is the estimate bit for bit; with folds each fold table's value is that
    fold's estimate bit for bit, and the fold-averaged density's value their
    mean to rounding."""
    config = ExperimentConfig(folds=folds, laplace=laplace, reps=1)
    truth, seed = harness._truth_context(config), config.base_seed
    cells, observed, own = harness._counts(config, truth.params, 0)
    run = harness._Pass(config, truth, harness._scenario_pseudo(config), (0,), ((cells, observed, own),))
    run.finish()
    pieces, p_y0, solved = harness._bridge_fits(observed[None], None if own is None else own[None], config)
    data = dgp.Dataset(np.repeat(np.arange(2 ** 11), cells), seed)
    for method in BRIDGE_METHODS:
        chosen, value = identify.pick(*run.tables[0][(method, ())], linear_class.index, "value-max")
        got = estimators.cross_fit(method, data, FitOptions(folds, laplace), Regime.from_index(chosen))
        if folds == 1:
            assert got.estimate == value
        else:
            fold_values = class_values(harness._DENSITY_FN[method](pieces, solved).g[0], p_y0[0], chosen)[:, 0]
            assert fold_values.tolist() == list(got.fold_estimates)
            assert got.estimate == pytest.approx(value, rel=1e-15, abs=0)


def test_pseudo_bridges_drawn_once_per_experiment_and_shared_by_scenarios(monkeypatch):
    calls = _counting(monkeypatch, harness, "pseudo_bridges")
    config = ExperimentConfig(scenarios=("all-correct", "m1-correct", "all-wrong"),
                              methods=("PMR", "SRA"), n=4000, reps=4, base_seed=31)
    run_experiment(config)
    assert calls == [(config.pseudo_seed,)]
    pseudo = harness._scenario_pseudo(config)
    drawn = pseudo_bridges(config.pseudo_seed)
    for tag in config.scenarios:
        for name in ("h22", "h21", "q11", "q22"):
            table = getattr(pseudo[tag], name)
            if name in harness.SCENARIO_PSEUDO[tag]:
                # the scenario's own substream draw, one array object for every scenario
                assert np.array_equal(table, getattr(pseudo_bridges(config.pseudo_seed, (name,)), name))
                assert table is getattr(pseudo["all-wrong"], name)
                assert pseudo[tag].provenance[name] == drawn.provenance[name]
            else:
                assert table is None and name not in pseudo[tag].provenance
    calls.clear()
    run_experiment(ExperimentConfig(methods=("SRA", "ORACLE"), n=4000, reps=2, base_seed=31))
    assert calls == []


@pytest.mark.parametrize("payload", [{"n": "abc"}, {"scenarios": 5}, {"reps": 1.5},
                                     {"methods": [1]}, {"laplace": "x"}, {"folds": True}])
def test_config_rejects_wrongly_typed_values(payload):
    with pytest.raises(ValueError, match="config field"):
        ExperimentConfig(**payload)


def _reference_rep(true_density, config, truth, rep):
    """Every (scenario, method) cell of one repetition on its own: bridges fitted
    fold by fold on the total minus that fold's ``fold_counts``, each cell identified through ``_DENSITY_FN``
    per fold, on a piece table of its own, and scored by the test-side loops of ``_loop_score``; nothing is
    shared between cells. A failure is recorded as its step and the error's
    kind, without the cell, block or fold it names."""
    seed = config.base_seed + rep
    data = dgp.Dataset(np.repeat(np.arange(2 ** 11), dgp.sample_counts(truth.params, config.n, seed)), seed)
    opts = estimators.FitOptions(config.folds, config.laplace)
    total = estimators._cell_counts(data)
    # (scoring counts, fitting counts) per fold: each fold's own counts and the rest
    folds = [(total, total)] if config.folds == 1 else [
        (own, total - own) for own in estimators.fold_counts(data.observed_counts, data.seed, config.folds)[0]]

    def bridge_table(tag, method):
        per_fold = []
        for own, off_fold in folds:
            try:
                _, b = estimators.fit_counts(off_fold, opts)
            except TableError as err:
                return f"fit failed: {err.kind}"
            b = b.merged(pseudo_bridges(config.pseudo_seed, SCENARIO_PSEUDO[tag]))
            pieces, p_y0 = identify.observed_conditional(estimators.count_pmf(own))
            per_fold.append((harness._DENSITY_FN[method](pieces, b).g, p_y0))
        if config.folds == 1:
            return per_fold[0]
        p_bar = sum(p for _, p in per_fold) / config.folds
        g_bar = sum(g * p[None, None, None, None, :] for g, p in per_fold) / config.folds
        return g_bar / p_bar[None, None, None, None, :], p_bar

    def baseline_table(method):
        try:
            if method == "SRA":
                law = estimators.empirical_pmf(data, laplace=config.laplace)
                return estimators.sra_from_conditional(law).g, law.marginal(("Y0",))
            pmf = estimators.empirical_pmf(data, laplace=config.laplace, include_hidden=True)
            return dgp.oracle_density_from_joint(pmf).g, identify.observed_conditional(pmf)[1]
        except TableError as err:
            return f"fit failed: {err.kind}"

    optimum = _loop_optimum(true_density, truth, config.optimizer)
    results = {}
    for tag in config.scenarios:
        for method in config.methods:
            table = bridge_table(tag, method) if method in BRIDGE_METHODS else baseline_table(method)
            if not isinstance(table, str):
                try:
                    table = _loop_score(true_density, truth, *table, config.optimizer, optimum)
                except TableError as err:
                    table = f"scoring failed: {err.kind}"
            results[(tag, method)] = table
    return results


@pytest.mark.parametrize("optimizer", ["value-max", "q-learning"])
@pytest.mark.parametrize("folds, n, reps", [(1, 35000, 1), (3, 35000, 1), (1, 600, 6), (3, 6000, 6)])
def test_deduplicated_repetition_equals_cell_by_cell_reference(optimizer, folds, n, reps, true_density):
    """Identifying and scoring each distinct density once gives every cell
    exactly what identifying and scoring it alone gives, failures included."""
    config = ExperimentConfig(optimizer=optimizer, folds=folds, n=n, reps=reps)
    truth = harness._truth_context(config)
    pseudo = harness._scenario_pseudo(config)
    failures = []
    for rep in range(reps):
        got = rep_alone(config, truth, rep, pseudo)
        expected = _reference_rep(true_density, config, truth, rep)
        assert got == expected
        failures += [r for r in got.values() if isinstance(r, str)]
    if n < 35000:
        assert failures and len(failures) < reps * len(got)  # failed and scored cells mixed


@pytest.fixture(scope="module")
def n600_report():
    return run_experiment(N600)


def test_failure_reasons_count_each_message_in_first_seen_order(n600_report):
    """Each cell's reasons are its repetitions' failure messages (step and
    kind), counted in the order they first appear, and sum to its failures."""
    truth = harness._truth_context(N600)
    pseudo = harness._scenario_pseudo(N600)
    per_rep = [rep_alone(N600, truth, rep, pseudo) for rep in range(N600.reps)]
    for c in n600_report.cells:
        messages = [r[(c.scenario, c.method)] for r in per_rep if isinstance(r[(c.scenario, c.method)], str)]
        assert c.failure_reasons == tuple((m, messages.count(m)) for m in dict.fromkeys(messages))
        assert sum(count for _, count in c.failure_reasons) == c.failures
        if c.method in BRIDGE_METHODS:
            assert c.failures == 6
            assert all(m.startswith("fit failed: zero-probability conditioning cell ")
                       for m, _ in c.failure_reasons)


_ZERO_CELL = "fit failed: zero-probability conditioning cell {cell} for "


def test_failure_reasons_group_by_kind(n600_report):
    """A reason is the failing step and the error's kind, so the repetitions
    that failed the same way at different cells count as one reason. At
    n = 2000 a singular proxy block is told apart from a zero cell."""
    expected = {method: ((_ZERO_CELL + "P(W1,W2|Y0,Y1,A1,A2,Z1,Z2)", 6),) for method in BRIDGE_METHODS}
    expected["SRA"] = (("fit failed: empty cell {cell} in the SRA outcome model", 1),)
    expected["ORACLE"] = ((_ZERO_CELL + "P(Y2|Y0,Y1,U0,U1,A1,A2)", 5), (_ZERO_CELL + "P(U1|Y0,Y1,U0,A1)", 1))
    assert {c.method for c in n600_report.cells} == set(expected)
    for c in n600_report.cells:
        assert c.failure_reasons == expected[c.method]
    n2000 = run_experiment(ExperimentConfig(n=2000, reps=20, methods=("PMR",), scenarios=("all-correct",)))
    assert n2000.cell("all-correct", "PMR").failure_reasons == (
        (_ZERO_CELL + "P(W1,W2|Y0,Y1,A1,A2,Z1,Z2)", 17), ("fit failed: P(W1,W2|Z1,Z2) is singular; rank condition fails", 2))


def test_scored_cells_have_no_failure_reasons(small_report):
    for c in small_report.cells:
        assert (c.failures, c.failure_reasons) == (0, ())


def test_report_json_holds_the_csv_columns_and_the_reasons(small_report, n600_report):
    for report in (small_report, n600_report):
        payload = json.loads(report.to_json())
        assert payload["config"] == json.loads(report.config.to_json())
        rows = parse_report_csv(emit_tables(report)[0])
        assert len(payload["cells"]) == len(rows) == len(report.cells)
        for cell, row, c in zip(payload["cells"], rows, report.cells):
            reasons = cell.pop("failure_reasons")
            assert [tuple(pair) for pair in reasons] == list(c.failure_reasons)
            assert list(cell) == list(row)
            assert cell == {key: None if isinstance(v, float) and np.isnan(v) else v for key, v in row.items()}
    assert any(v is None for cell in json.loads(n600_report.to_json())["cells"] for v in cell.values())


def test_identify_check_reports_its_fixed_tolerance():
    assert identify_check().tolerance == harness.IDENTIFY_TOL == 1e-9
