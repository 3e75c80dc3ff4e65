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
    "vmax": (ExperimentConfig(reps=4), "73d91ffe3695b381"),
    "vmax-boolean": (ExperimentConfig(reps=4, regime_class="all-boolean"), "e8b14057f0052e31"),
    "vmax-folds5": (ExperimentConfig(reps=4, folds=5), "3f03303fb9df2acb"),
    "vmax-folds5-boolean": (ExperimentConfig(reps=4, folds=5, regime_class="all-boolean"),
                            "060275917cd104e9"),
    "qlearn": (ExperimentConfig(reps=4, optimizer="q-learning"), "30809febb03dbd20"),
    "qlearn-folds5": (ExperimentConfig(reps=4, optimizer="q-learning", folds=5), "4e6051e54fe0f77d"),
    "n600": (ExperimentConfig(n=600, reps=6), "2338af46f0a65948"),
    "n300-laplace": (ExperimentConfig(n=300, reps=6, laplace=0.5), "76740c360e72cd58"),
    # cross-fitted with failed and scored cells mixed: bridge methods 5/6 failed, Oracle 2/6, SRA 0/6
    "n6000-folds3": (ExperimentConfig(n=6000, reps=6, folds=3), "0d4160caa0eb3ba0"),
}


def report_hash(config: ExperimentConfig) -> str:
    csv_text, table_text = emit_tables(run_experiment(config))
    return hashlib.sha256((csv_text + table_text).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    config, prefix = CASES[case]
    assert report_hash(config) == prefix
