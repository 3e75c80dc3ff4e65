"""The bridge checks on a stack of laws: ``verify_bridges``,
``bridge_collapse_check`` and ``identify.pipw_marginal_stage1`` read the
fold stacks of ``fold_fits`` in one call.

Each report field of a stacked call is the largest of the per-fold calls,
and the stacked stage-1 table is the per-fold tables stacked, bit for bit.
The fold laws are checked both ways: against the off-fold laws the bridges
were solved from (residuals at rounding) and against each fold's own rows
(residuals of sampling size).
"""

import numpy as np
import pytest

from proxidtr.bridges import _SHAPES, BridgeSet, bridge_collapse_check, verify_bridges
from proxidtr.dgp import sample
from proxidtr.estimators import FitOptions, count_pmf, fold_counts, fold_fits
from proxidtr.identify import pipw_marginal_stage1
from proxidtr.tables import JointPmf

FOLDS = 3


@pytest.fixture(scope="module", params=[3, 4])
def fold_stack(request, params):
    """(own counts, off-fold counts, off-fold bridges, each fold's bridges alone)."""
    data = sample(params, 35000, request.param)
    own, solved = fold_fits(data, FitOptions(folds=FOLDS))
    per_fold = [BridgeSet(**{name: getattr(solved, name)[k] for name in _SHAPES}) for k in range(FOLDS)]
    return own, fold_counts(data, FOLDS)[1], solved, per_fold


@pytest.mark.parametrize("law", ["off-fold", "own"])
def test_stacked_checks_equal_the_per_fold_calls(fold_stack, law):
    own, off_fold, solved, per_fold = fold_stack
    counts = off_fold if law == "off-fold" else own
    stacked, laws = count_pmf(counts), [count_pmf(c) for c in counts]

    report = verify_bridges(solved, stacked)
    alone = [verify_bridges(b, pmf) for b, pmf in zip(per_fold, laws)]
    for family in ("q11", "q22", "h22", "h21"):
        assert getattr(report, family) == max(getattr(r, family) for r in alone)
    assert report.all_passed == (law == "off-fold") == all(r.all_passed for r in alone)

    collapse = bridge_collapse_check(solved, stacked)
    alone = [bridge_collapse_check(b, pmf) for b, pmf in zip(per_fold, laws)]
    assert collapse.equation_residual == max(r.equation_residual for r in alone)
    assert collapse.h11_gap == max(r.h11_gap for r in alone)

    stage1 = pipw_marginal_stage1(stacked, solved)
    assert stage1.shape == (FOLDS, 2, 2, 2)
    assert np.array_equal(stage1, np.stack([pipw_marginal_stage1(pmf, b) for b, pmf in zip(per_fold, laws)]))


def test_one_bridge_set_checks_a_stack_of_laws(joint, solved):
    stacked = JointPmf(joint.names, np.stack([joint.mass, joint.mass]))
    assert verify_bridges(solved, stacked) == verify_bridges(solved, joint)
    assert bridge_collapse_check(solved, stacked) == bridge_collapse_check(solved, joint)
    assert np.array_equal(pipw_marginal_stage1(stacked, solved), np.stack([pipw_marginal_stage1(joint, solved)] * 2))
