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
    "vmax": (ExperimentConfig(reps=4), "2d7ce2087c6a2374"),
    "vmax-boolean": (ExperimentConfig(reps=4, regime_class="all-boolean"), "d453d04683340157"),
    "vmax-folds5": (ExperimentConfig(reps=4, folds=5), "373ed00bb9367fc5"),
    "vmax-folds5-boolean": (ExperimentConfig(reps=4, folds=5, regime_class="all-boolean"),
                            "772c6c1b61b3b76a"),
    "qlearn": (ExperimentConfig(reps=4, optimizer="q-learning"), "1399be1603cd8df6"),
    "qlearn-folds5": (ExperimentConfig(reps=4, optimizer="q-learning", folds=5), "18ea3e3b51f1d865"),
    "n600": (ExperimentConfig(n=600, reps=6), "2338af46f0a65948"),
    "n300-laplace": (ExperimentConfig(n=300, reps=6, laplace=0.5), "76740c360e72cd58"),
    # cross-fitted with failed and scored cells mixed: bridge methods 5/6 failed, Oracle 2/6, SRA 0/6
    "n6000-folds3": (ExperimentConfig(n=6000, reps=6, folds=3), "2ebb734eef3b2ae4"),
}


def report_hash(config: ExperimentConfig) -> str:
    csv_text, table_text = emit_tables(run_experiment(config))
    return hashlib.sha256((csv_text + table_text).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    config, prefix = CASES[case]
    assert report_hash(config) == prefix
