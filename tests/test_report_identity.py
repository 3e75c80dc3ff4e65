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
    "vmax": (ExperimentConfig(reps=4), "96c697eb74d74f9a"),
    "vmax-boolean": (ExperimentConfig(reps=4, regime_class="all-boolean"), "5f8cd87d2cfa5710"),
    "vmax-folds5": (ExperimentConfig(reps=4, folds=5), "1c50aab2fd30b450"),
    "vmax-folds5-boolean": (ExperimentConfig(reps=4, folds=5, regime_class="all-boolean"),
                            "24e922afc367aa1c"),
    "qlearn": (ExperimentConfig(reps=4, optimizer="q-learning"), "435e10bf11da4080"),
    "qlearn-folds5": (ExperimentConfig(reps=4, optimizer="q-learning", folds=5), "d3a1d6169d530669"),
    "n600": (ExperimentConfig(n=600, reps=6), "28e6b673037bcc1c"),
    "n300-laplace": (ExperimentConfig(n=300, reps=6, laplace=0.5), "5165ca29c466aa1f"),
    # cross-fitted with failed and scored cells mixed: bridge methods 5/6 failed, Oracle 2/6, SRA 0/6
    "n6000-folds3": (ExperimentConfig(n=6000, reps=6, folds=3), "318fef9bdf2901d2"),
}


def report_hash(config: ExperimentConfig) -> str:
    csv_text, table_text = emit_tables(run_experiment(config))
    return hashlib.sha256((csv_text + table_text).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    config, prefix = CASES[case]
    assert report_hash(config) == prefix
