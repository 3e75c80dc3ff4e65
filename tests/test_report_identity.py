"""Report byte identity: the sha256 of ``emit_tables`` for fixed configs.

Each prefix pins the CSV and the text tables of one configuration, under
the default rows sampler. A change that moves any float bit of any cell, or
the rendering, turns its case red; a change that must move them updates the
prefix and says why in CHANGES.md.
"""

import hashlib

import pytest

from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment

CASES = {
    "vmax": (ExperimentConfig(reps=4), "8760a06ce5211f13"),
    "vmax-boolean": (ExperimentConfig(reps=4, regime_class="all-boolean"), "506163c59c83a2b5"),
    "vmax-folds5": (ExperimentConfig(reps=4, folds=5), "737fc794f9007dfd"),
    "vmax-folds5-boolean": (ExperimentConfig(reps=4, folds=5, regime_class="all-boolean"),
                            "6c497fec28f6755a"),
    "qlearn": (ExperimentConfig(reps=4, optimizer="q-learning"), "1b47c533fa069723"),
    "qlearn-folds5": (ExperimentConfig(reps=4, optimizer="q-learning", folds=5), "4b1c3f0f8703fd6e"),
    "n600": (ExperimentConfig(n=600, reps=6), "082b5c2a4f584a1c"),
    "n300-laplace": (ExperimentConfig(n=300, reps=6, laplace=0.5), "298bc94d07375b15"),
    # cross-fitted with failed and scored cells mixed: bridge methods 5/6 failed, Oracle 2/6, SRA 0/6
    "n6000-folds3": (ExperimentConfig(n=6000, reps=6, folds=3), "1a237003b417464a"),
}


def report_hash(config: ExperimentConfig) -> str:
    csv_text, table_text = emit_tables(run_experiment(config))
    return hashlib.sha256((csv_text + table_text).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    config, prefix = CASES[case]
    assert report_hash(config) == prefix
