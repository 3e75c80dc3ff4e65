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
    "vmax": (ExperimentConfig(reps=4), "e6ac8e80fd442b03"),
    "vmax-boolean": (ExperimentConfig(reps=4, regime_class="all-boolean"), "ae26ef48821e1d89"),
    "vmax-folds5": (ExperimentConfig(reps=4, folds=5), "39cd302a04c35f21"),
    "vmax-folds5-boolean": (ExperimentConfig(reps=4, folds=5, regime_class="all-boolean"),
                            "f55684fd00d16d74"),
    "qlearn": (ExperimentConfig(reps=4, optimizer="q-learning"), "98f6676b541c6e2d"),
    "qlearn-folds5": (ExperimentConfig(reps=4, optimizer="q-learning", folds=5), "a641b70a8d59311a"),
    "n600": (ExperimentConfig(n=600, reps=6), "2338af46f0a65948"),
    "n300-laplace": (ExperimentConfig(n=300, reps=6, laplace=0.5), "76740c360e72cd58"),
}


def report_hash(config: ExperimentConfig) -> str:
    csv_text, table_text = emit_tables(run_experiment(config))
    return hashlib.sha256((csv_text + table_text).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    config, prefix = CASES[case]
    assert report_hash(config) == prefix
