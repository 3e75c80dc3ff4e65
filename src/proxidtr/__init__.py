"""Proximal causal inference for optimal dynamic treatment regimes.

Binary two-stage setting: exact joint-probability tables, closed-form
confounding-bridge solving, four identification strategies (outcome
regression, hybrid augmentation, inverse probability weighting, multiply
robust), regime search by value maximization and Q-learning, and a Monte
Carlo harness for regret / overall-error studies.

Every module is imported with the package except ``harness``: it and its
re-exports (``ExperimentConfig``, ``ExperimentReport``, ``emit_tables``,
``identify_check``, ``run_experiment``) load on first access, so a process
that never runs an experiment does not import the harness. The harness
draws each repetition as its 2^11 cell counts (``dgp.sample_counts``), in
one process.
"""

import importlib

from . import bridges, dgp, estimators, identify, policy, tables
from .bridges import (
    BridgeSet,
    bridge_collapse_check,
    pseudo_bridges,
    solve_bridges,
    verify_bridges,
)
from .dgp import (
    CANONICAL_ORDER,
    OBSERVED_ORDER,
    Dataset,
    DgpParams,
    optimal_value,
    sample,
    true_joint,
    true_value,
)
from .estimators import (
    FitOptions,
    ValueEstimate,
    cross_fit,
    fit_bridges,
    if_variance,
    oracle_value,
    sra_value,
    v_hat,
    v_hat_pmr_alt,
)
from .identify import (
    IdentifiedDensity,
    density_pha,
    density_pipw,
    density_pmr,
    density_por,
    q_functions,
    value_from_density,
)
from .policy import Regime, RegimeClass, enumerate_class, q_learning_regime
from .tables import JointPmf, conditional, invert2or4, marginalize

__version__ = "0.1.0"

_HARNESS_EXPORTS = ("ExperimentConfig", "ExperimentReport", "emit_tables", "identify_check", "run_experiment")


def __getattr__(name: str):
    """``harness`` and its re-exports, imported on first access (PEP 562)."""
    if name == "harness" or name in _HARNESS_EXPORTS:
        harness = importlib.import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BridgeSet",
    "CANONICAL_ORDER",
    "Dataset",
    "DgpParams",
    "ExperimentConfig",
    "ExperimentReport",
    "FitOptions",
    "IdentifiedDensity",
    "JointPmf",
    "OBSERVED_ORDER",
    "Regime",
    "RegimeClass",
    "ValueEstimate",
    "bridge_collapse_check",
    "bridges",
    "conditional",
    "cross_fit",
    "density_pha",
    "density_pipw",
    "density_pmr",
    "density_por",
    "dgp",
    "emit_tables",
    "enumerate_class",
    "estimators",
    "fit_bridges",
    "harness",
    "identify",
    "identify_check",
    "if_variance",
    "invert2or4",
    "marginalize",
    "optimal_value",
    "oracle_value",
    "policy",
    "pseudo_bridges",
    "q_functions",
    "q_learning_regime",
    "run_experiment",
    "sample",
    "solve_bridges",
    "sra_value",
    "tables",
    "true_joint",
    "true_value",
    "v_hat",
    "v_hat_pmr_alt",
    "value_from_density",
    "verify_bridges",
    "__version__",
]
