"""Report byte identity: the sha256 of ``emit_tables`` for fixed configs.

Each prefix pins the CSV and the text tables of one configuration, each
repetition's counts drawn by ``dgp.sample_counts``. A change that moves any float bit of any cell, or
the rendering, turns its case red; a change that must move them updates the
prefix and says why in CHANGES.md.
"""

import hashlib

import pytest

from proxidtr.harness import ExperimentConfig, emit_tables, run_experiment

CASES = {
    "vmax": (ExperimentConfig(reps=4), "234325481f06c76d"),
    "vmax-boolean": (ExperimentConfig(reps=4, regime_class="all-boolean"), "fe44fc195e5d359d"),
    "vmax-folds5": (ExperimentConfig(reps=4, folds=5), "7650acc83124e626"),
    "vmax-folds5-boolean": (ExperimentConfig(reps=4, folds=5, regime_class="all-boolean"),
                            "e8ad85d6307b91ed"),
    "qlearn": (ExperimentConfig(reps=4, optimizer="q-learning"), "98ac4108bc445234"),
    "qlearn-folds5": (ExperimentConfig(reps=4, optimizer="q-learning", folds=5), "8c1729550d61f54f"),
    "n600": (ExperimentConfig(n=600, reps=6), "2ab0f82fe079e022"),
    "n300-laplace": (ExperimentConfig(n=300, reps=6, laplace=0.5), "93ffbc09ee6ae7e9"),
    # cross-fitted with failed and scored cells mixed: bridge methods 6/6 failed, Oracle 1/6, SRA 0/6
    "n6000-folds3": (ExperimentConfig(n=6000, reps=6, folds=3), "7fd7f5048732e1a2"),
}


def report_hash(config: ExperimentConfig) -> str:
    csv_text, table_text = emit_tables(run_experiment(config))
    return hashlib.sha256((csv_text + table_text).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    config, prefix = CASES[case]
    assert report_hash(config) == prefix
