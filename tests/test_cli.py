"""CLI subcommands exercised through main(); exit codes per contract."""

import argparse
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import proxidtr
from proxidtr import cli, harness
from proxidtr.cli import build_parser, main
from proxidtr.dgp import Dataset, sample
from proxidtr.estimators import FitOptions, cross_fit, fit_bridges, if_variance
from proxidtr.harness import ALL_METHODS
from proxidtr.identify import METHODS
from proxidtr.policy import Regime


@pytest.fixture()
def regime_file(tmp_path):
    path = tmp_path / "regime.json"
    path.write_text(Regime((1, 0), (0, 1, 1, 0, 1, 0, 0, 1)).to_json())
    return path


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--n", "300", "--seed", "5", "-o", str(out1)]) == 0
    assert main(["simulate", "--n", "300", "--seed", "5", "-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    data = Dataset.from_csv(out1.read_text())
    assert len(data) == 300
    assert "wrote 300 rows" in capsys.readouterr().out


def test_simulate_oracle_flag_adds_hidden_columns(tmp_path):
    out = tmp_path / "h.csv"
    main(["simulate", "--n", "50", "--seed", "1", "--oracle", "-o", str(out)])
    header = out.read_text().splitlines()[0]
    assert header == "y0,z1,w1,a1,y1,z2,w2,a2,y2,u0,u1"


def test_identify_check_ok(capsys):
    assert main(["identify-check"]) == 0
    out = capsys.readouterr().out
    assert "identification check passed" in out


def test_identify_check_pseudo_fails_with_exit_2(capsys):
    assert main(["identify-check", "--pseudo", "h21,q22", "--pseudo-seed", "4"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out


def test_identify_check_dump_files(tmp_path, capsys):
    bridges_path = tmp_path / "bridges.json"
    dens_path = tmp_path / "densities.json"
    assert main([
        "identify-check",
        "--dump-bridges", str(bridges_path),
        "--dump-densities", str(dens_path),
    ]) == 0
    from proxidtr.bridges import BridgeSet

    dumped = BridgeSet.from_json(bridges_path.read_text())
    assert dumped.provenance["h22"] == "solved-from-truth"
    payload = json.loads(dens_path.read_text())
    assert set(payload) == {"POR", "PHA", "PIPW", "PMR"}
    assert payload["PMR"]["method"] == "PMR"


def test_estimate_outputs_json(tmp_path, regime_file, capsys):
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "35000", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    assert main([
        "estimate", "--data", str(data_file), "--method", "pmr",
        "--regime", str(regime_file),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "PMR"
    assert 0.0 < payload["estimate"] < 1.0
    assert payload["variance"] > 0


def test_estimate_sra(tmp_path, regime_file, capsys):
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "5000", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    assert main([
        "estimate", "--data", str(data_file), "--method", "sra",
        "--regime", str(regime_file),
    ]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "SRA"


def test_estimate_sparse_data_is_numerical_failure(tmp_path, regime_file, capsys):
    data_file = tmp_path / "tiny.csv"
    main(["simulate", "--n", "300", "--seed", "5", "-o", str(data_file)])
    capsys.readouterr()
    code = main([
        "estimate", "--data", str(data_file), "--method", "pmr",
        "--regime", str(regime_file),
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("folds", ["1", "5"])
@pytest.mark.parametrize("laplace, advice", [
    ("0", "the empirical table is too sparse to solve the bridges - increase n"),
    ("1e6", "Laplace smoothing of 1e+06 leaves sparse strata too flat to solve the bridges - "
            "increase n or lower the smoothing"),
], ids=["unsmoothed", "smoothed"])
def test_failed_solve_advice_fits_the_smoothing(tmp_path, regime_file, capsys, folds, laplace, advice):
    """Smoothing flattens sparse strata into singular tables (this data's
    stratum Y0=1, Y1=0, A1=1, A2=1 holds 2 rows and is singular at laplace
    0.5 and 1 too), so no failed fit is told to enable smoothing."""
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "2000", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    code = main(["estimate", "--data", str(data_file), "--method", "pmr", "--regime", str(regime_file),
                 "--laplace", laplace, "--folds", folds])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: ") and err.endswith(f"; {advice}\n") and err.count("\n") == 1


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenarios": ["all-correct"],
        "methods": ["PMR", "SRA"],
        "n": 6000,
        "reps": 2,
        "base_seed": 9,
    }))
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "Regret" in captured
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,method")
    assert len(lines) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--data"])
    assert err.value.code == 1


def test_missing_file_is_usage_error(tmp_path, regime_file, capsys):
    code = main([
        "estimate", "--data", str(tmp_path / "absent.csv"), "--method", "pmr",
        "--regime", str(regime_file),
    ])
    assert code == 1


def test_bad_config_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "r.csv")]) == 1


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_header_only_csv_is_usage_error(tmp_path, regime_file, capsys):
    data_file = tmp_path / "empty.csv"
    data_file.write_text("y0,z1,w1,a1,y1,z2,w2,a2,y2\n")
    code = main([
        "estimate", "--data", str(data_file), "--method", "pmr",
        "--regime", str(regime_file),
    ])
    assert code == 1
    assert "no data rows" in _one_line_error(capsys)


def test_out_of_range_csv_value_is_usage_error(tmp_path, regime_file, capsys):
    data_file = tmp_path / "big.csv"
    data_file.write_text("y0,z1,w1,a1,y1,z2,w2,a2,y2\n300,0,0,0,0,0,0,0,0\n")
    code = main([
        "estimate", "--data", str(data_file), "--method", "sra",
        "--regime", str(regime_file),
    ])
    assert code == 1
    assert "CSV line 2" in _one_line_error(capsys)


_GOOD_ROW = "0,1,0,1,1,0,0,1,1"


@pytest.mark.parametrize("row", [
    "0,1,0", _GOOD_ROW + ",", "2" + _GOOD_ROW[1:], "-1" + _GOOD_ROW[1:], "300" + _GOOD_ROW[1:],
    "1.0" + _GOOD_ROW[1:], '"1"' + _GOOD_ROW[1:], "+1" + _GOOD_ROW[1:], "01" + _GOOD_ROW[1:],
    "-0" + _GOOD_ROW[1:], "\u0661" + _GOOD_ROW[1:],
], ids=["ragged", "trailing-comma", "two", "minus-one", "300", "decimal", "quoted", "plus",
        "leading-zero", "minus-zero", "arabic-indic-one"])
def test_rejected_csv_row_names_its_line(tmp_path, regime_file, capsys, row):
    data_file = tmp_path / "bad.csv"
    data_file.write_text(f"y0,z1,w1,a1,y1,z2,w2,a2,y2\n{_GOOD_ROW}\n{row}\n{_GOOD_ROW}\n", encoding="utf-8")
    code = main(["estimate", "--data", str(data_file), "--method", "sra", "--regime", str(regime_file)])
    assert code == 1
    err = _one_line_error(capsys)
    assert "CSV line 3: expected 9 comma-separated values 0/1" in err


def test_estimate_reads_a_csv_led_by_a_byte_order_mark(tmp_path, regime_file, capsys, params):
    text = sample(params, 5000, 3).to_csv()
    outputs = []
    for name, content in (("plain.csv", text), ("bom.csv", "\ufeff" + text)):
        data_file = tmp_path / name
        data_file.write_text(content)
        assert main(["estimate", "--data", str(data_file), "--method", "sra",
                     "--regime", str(regime_file)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cross_fit_estimate_prints_what_cross_fit_returns(tmp_path, regime_file, capsys, params):
    data = sample(params, 35000, 3)
    data_file = tmp_path / "d.csv"
    data_file.write_text(data.to_csv())
    regime = Regime.from_json(regime_file.read_text())
    in_memory = replace(data, seed=0)  # the CLI reads the file with seed 0, which picks the folds
    _, fitted = fit_bridges(in_memory)
    for method, folds in [("PMR", 5)] + [(m, 1) for m in METHODS]:
        assert main(["estimate", "--data", str(data_file), "--method", method.lower(),
                     "--regime", str(regime_file), "--folds", str(folds)]) == 0
        printed = capsys.readouterr().out
        assert printed == cross_fit(method, in_memory, FitOptions(folds=folds), regime).to_json() + "\n"
        if folds == 1:  # only PMR's summand is its influence function, so only PMR carries a variance
            variance = json.loads(printed).get("variance")
            assert variance == (if_variance(in_memory, fitted, regime) if method == "PMR" else None)


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2000, "reps": 1, "sample_size": 5}))
    assert main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "r.csv")]) == 1
    assert "sample_size" in _one_line_error(capsys)


def test_non_object_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "r.csv")]) == 1
    assert "JSON object" in _one_line_error(capsys)


def test_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["simulate", "--n", "10", "--seed", "-1", "-o", str(out)]) == 1
    assert "seed" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("payload, field", [
    ({"methods": ["pmr", "PMR"]}, "'methods'"), ({"methods": []}, "'methods'"), ({"scenarios": []}, "'scenarios'"),
    ({"base_seed": 2 ** 64 - 1, "reps": 2}, "'base_seed'"), ({"base_seed": -1}, "'base_seed'"),
    ({"pseudo_seed": -1}, "'pseudo_seed'"),
])
def test_config_names_and_seeds_are_checked_before_any_repetition(tmp_path, capsys, monkeypatch, payload, field):
    """Repeated or missing scenarios or methods, and seeds out of range, exit 1
    with one line naming the field, before a repetition runs or a report is written."""
    monkeypatch.setattr(harness, "run_experiment", lambda config: pytest.fail("a repetition ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2000, "reps": 1, **payload}))
    out = tmp_path / "r.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out)]) == 1
    assert f"config field {field}" in _one_line_error(capsys)
    assert not out.exists()


def test_negative_pseudo_seed_is_named(capsys):
    assert main(["identify-check", "--pseudo", "h21", "--pseudo-seed", "-1"]) == 1
    assert _one_line_error(capsys) == "error: --pseudo-seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["experiment", "estimate"])
def test_deeply_nested_json_is_one_line_usage_error(tmp_path, capsys, command):
    """A config or regime file nested too deeply for the JSON parser exits 1
    with one line, not a RecursionError traceback."""
    text = "[" * 200000
    if command == "estimate":
        assert _estimate_with_regime(tmp_path, text) == 1
        assert _one_line_error(capsys) == "error: regime JSON is nested too deeply to read\n"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "r.csv")]) == 1
        assert _one_line_error(capsys) == "error: config JSON is nested too deeply to read\n"


def _estimate_with_regime(tmp_path, text: str) -> int:
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "500", "--seed", "3", "-o", str(data_file)])
    regime = tmp_path / "regime.json"
    regime.write_text(text)
    return main(["estimate", "--data", str(data_file), "--method", "sra", "--regime", str(regime)])


D2 = "[0, 1, 1, 0, 1, 0, 0, 1]"


@pytest.mark.parametrize("text", ["{}", "[1, 2]", '{"d1": [0, 1], "d2": 5}',
                                  '{"d1": [1, [0]], "d2": %s}' % D2, '{"d1": [1, 0.5], "d2": %s}' % D2,
                                  '{"d1": [true, 1.0], "d2": [false, 0, 0, 0, 1, 1, 1, 1]}'])
def test_malformed_regime_json_is_usage_error(tmp_path, capsys, text):
    code = _estimate_with_regime(tmp_path, text)
    assert code == 1
    assert "d1" in _one_line_error(capsys)


@pytest.mark.parametrize("theta1", ["5", '[[1], 0]', '[0.6, "x"]', "[true, false]", "0", "false", '""', "[]"])
def test_malformed_regime_theta_is_usage_error(tmp_path, capsys, theta1):
    text = '{"d1": [1, 0], "d2": %s, "theta1": %s, "theta2": [1, 0, 0, 0]}' % (D2, theta1)
    assert _estimate_with_regime(tmp_path, text) == 1
    assert "theta1" in _one_line_error(capsys)


@pytest.mark.parametrize("falsy", ["0", "false", '""'])
def test_falsy_regime_thetas_are_not_absent(tmp_path, capsys, falsy):
    """Only a missing key or null means no certificate; a falsy pair is rejected."""
    text = '{"d1": [1, 0], "d2": %s, "theta1": %s, "theta2": %s}' % (D2, falsy, falsy)
    assert _estimate_with_regime(tmp_path, text) == 1
    assert "theta1" in _one_line_error(capsys)
    absent = Regime.from_json('{"d1": [1, 0], "d2": %s, "theta1": null, "theta2": null}' % D2)
    assert absent.theta1 is None and absent.theta2 is None


def test_misspelled_regime_keys_are_usage_error(tmp_path, capsys):
    """A certificate under misspelled keys was dropped unchecked (this one does
    not reproduce the tables); the keys are named instead."""
    text = '{"d1": [1, 0], "d2": %s, "theta_1": [1, 0], "theta_2": [1, 0, 0, 0]}' % D2
    assert _estimate_with_regime(tmp_path, text) == 1
    assert _one_line_error(capsys) == "error: unknown regime keys ['theta_1', 'theta_2']\n"


def test_experiment_laplace_whose_total_overflows_is_refused_before_any_repetition(tmp_path, capsys, monkeypatch):
    """Every cell of such a run would fail; the config is refused with one
    line before a repetition runs or a report is written."""
    monkeypatch.setattr(harness, "run_experiment", lambda config: pytest.fail("a repetition ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"laplace": 1e308, "n": 2000, "reps": 1}))
    out = tmp_path / "r.csv"
    assert main(["experiment", "--config", str(cfg), "-o", str(out)]) == 1
    assert _one_line_error(capsys) == ("error: laplace smoothing must be >= 0 and finite summed over the 2048 cells, "
                                       "got 1e+308\n")
    assert not out.exists()


def test_non_finite_regime_theta_is_usage_error(tmp_path, capsys):
    """A NaN theta fails the unit-norm check; with all-zero tables it would
    otherwise reproduce them (NaN > 0 is false) and be written back as NaN."""
    text = '{"d1": [0, 0], "d2": [0, 0, 0, 0, 0, 0, 0, 0], "theta1": [NaN, 0], "theta2": [NaN, 0, 0, 0]}'
    assert _estimate_with_regime(tmp_path, text) == 1
    assert "theta1" in _one_line_error(capsys)


@pytest.mark.parametrize("method", ["pmr", "sra"])
@pytest.mark.parametrize("laplace", ["nan", "inf", "1e306"])  # 1e306 per cell overflows the total of 2048 cells
def test_non_finite_laplace_is_usage_error(tmp_path, regime_file, capsys, method, laplace):
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "500", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    code = main(["estimate", "--data", str(data_file), "--method", method, "--regime", str(regime_file),
                 "--laplace", laplace])
    assert code == 1
    assert "laplace" in _one_line_error(capsys)


def test_method_choices_are_the_harness_methods():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["estimate"]._actions if a.dest == "method")
    assert method.choices == [m.lower() for m in ALL_METHODS]


@pytest.mark.parametrize("payload", [{"n": "abc"}, {"scenarios": 5}, {"reps": 1.5}, {"laplace": float("nan")}])
def test_wrongly_typed_config_value_is_usage_error(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "r.csv")]) == 1
    assert next(iter(payload)) in _one_line_error(capsys)


def test_data_path_is_a_directory_is_usage_error(tmp_path, regime_file, capsys):
    code = main(["estimate", "--data", str(tmp_path), "--method", "pmr", "--regime", str(regime_file)])
    assert code == 1
    assert "directory" in _one_line_error(capsys)


def test_oracle_without_hidden_columns_is_usage_error(tmp_path, regime_file, capsys):
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "35000", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    code = main(["estimate", "--data", str(data_file), "--method", "oracle", "--regime", str(regime_file)])
    assert code == 1
    err = _one_line_error(capsys)
    assert "u0,u1" in err and "simulate --oracle" in err


@pytest.mark.parametrize("method", ["sra", "oracle"])
def test_folds_with_a_baseline_method_is_usage_error(tmp_path, regime_file, capsys, method):
    """The baselines are not cross-fitted: ``--folds K`` with K > 1 is refused
    instead of being ignored, and ``--folds 1`` still runs."""
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "35000", "--seed", "3", "--oracle", "-o", str(data_file)])
    capsys.readouterr()
    argv = ["estimate", "--data", str(data_file), "--method", method, "--regime", str(regime_file)]
    assert main(argv + ["--folds", "5"]) == 1
    assert "--folds" in _one_line_error(capsys)
    assert main(argv + ["--folds", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == method.upper()


def test_more_folds_than_rows_is_one_line_usage_error(tmp_path, regime_file, capsys):
    """K folds of fewer than K rows would leave empty folds: exit 1 with one
    line and print no estimate, rather than a NaN that is not JSON."""
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "3", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    argv = ["estimate", "--data", str(data_file), "--method", "pmr", "--regime", str(regime_file)]
    assert main(argv + ["--folds", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4 folds need at least 4 rows, got 3\n"


@pytest.mark.parametrize("header, row", [(b"y0", b"\xff,1"), (b"y\xff0", b"0,1")],
                         ids=["in-a-row", "in-the-header"])
def test_csv_that_is_not_utf8_is_usage_error(tmp_path, regime_file, capsys, header, row):
    good = _GOOD_ROW.encode() + b"\n"
    data_file = tmp_path / "latin1.csv"
    data_file.write_bytes(header + b",z1,w1,a1,y1,z2,w2,a2,y2\n" + good + row + _GOOD_ROW[3:].encode() + b"\n")
    assert main(["estimate", "--data", str(data_file), "--method", "pmr", "--regime", str(regime_file)]) == 1
    assert ("CSV line 3" if row.startswith(b"\xff") else "unexpected CSV header") in _one_line_error(capsys)


ALLOCATION_FAILURE = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type int64"


@pytest.mark.parametrize("message, line", [
    (ALLOCATION_FAILURE, f"error: out of memory: {ALLOCATION_FAILURE}"),
    ("", "error: out of memory"),
], ids=["message", "bare"])
@pytest.mark.parametrize("command, target", [("simulate", "sample"), ("experiment", "run_experiment")])
def test_out_of_memory_is_one_line_usage_error(tmp_path, capsys, monkeypatch, command, target, message, line):
    """A size too large to allocate ends in one error line, not a traceback;
    the failing allocation is simulated, never attempted."""
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    # the CLI looks the harness's names up when a command runs
    monkeypatch.setattr(harness if command == "experiment" else cli, target, refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10000000000000}))
    argv = {"simulate": ["simulate", "--n", "10000000000000", "--seed", "1"],
            "experiment": ["experiment", "--config", str(config)]}[command]
    assert main(argv + ["-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "out.csv").exists()


def _outcome(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of one ``main`` call; a usage error or
    ``--help`` ends in ``SystemExit``."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_shares_one_parser_and_prints_what_a_fresh_parser_does(tmp_path, regime_file, capsys, monkeypatch):
    """Alternating options, a usage error and ``--help`` in one process: the
    shared parser keeps no state from one call to the next."""
    data_file = tmp_path / "d.csv"
    main(["simulate", "--n", "35000", "--seed", "3", "-o", str(data_file)])
    capsys.readouterr()
    estimate = ["estimate", "--data", str(data_file), "--regime", str(regime_file), "--method", "pmr"]
    calls = [estimate + ["--folds", "5"], estimate, ["estimate", "--data"], estimate + ["--laplace", "0.5"],
             ["--help"], estimate, ["estimate", "--help"], estimate + ["--folds", "5"], estimate]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", build_parser)  # a fresh parser for every call
        fresh = [_outcome(argv, capsys) for argv in calls]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    assert [_outcome(argv, capsys) for argv in calls] == fresh
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [0, 0, ("SystemExit", 1), 0, ("SystemExit", 0), 0, ("SystemExit", 0), 0, 0]
    assert '"folds"' in fresh[0][1] and '"folds"' not in fresh[1][1]
    assert fresh[3][1] != fresh[1][1] == fresh[5][1] == fresh[8][1]


_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    POOL = ("proxidtr.harness", "concurrent.futures", "multiprocessing", "mmap")
    loaded = lambda: [name for name in POOL if name in sys.modules]
    import proxidtr
    package = loaded()
    import proxidtr.cli
    proxidtr.cli.build_parser()
    parser = loaded()
    run = proxidtr.run_experiment  # the first access loads the harness
    star = {}
    exec("from proxidtr import *", star)
    try:
        proxidtr.no_such_name
        missing = None
    except AttributeError as err:
        missing = str(err)
    print(json.dumps({"package": package, "parser": parser, "same": run is proxidtr.harness.run_experiment,
                      "unbound": [name for name in proxidtr.__all__ if name not in star], "missing": missing}))
""")


def test_package_and_cli_import_without_the_harness_or_its_pool():
    """A fresh interpreter: importing the package, or the CLI and building its
    parser (all that ``estimate`` and ``simulate`` need before they run),
    loads neither the harness nor ``concurrent.futures``, ``multiprocessing``
    or ``mmap``; the harness's re-exports resolve on first access."""
    env = dict(os.environ, PYTHONPATH=str(Path(proxidtr.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["package"] == [] and seen["parser"] == []
    assert seen["same"] and seen["unbound"] == []
    assert seen["missing"] == "module 'proxidtr' has no attribute 'no_such_name'"
