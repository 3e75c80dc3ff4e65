"""The bridge checks on a stack of laws: ``verify_bridges``,
``bridge_collapse_check`` and ``identify.pipw_marginal_stage1`` read the
fold stacks of ``fold_counts`` and ``fit_off_fold`` in one call.

Each report field of a stacked call is the largest of the per-fold calls,
and the stacked stage-1 table is the per-fold tables stacked, bit for bit.
The fold laws are checked both ways: against the off-fold laws the bridges
were solved from (residuals at rounding) and against each fold's own rows
(residuals of sampling size).

A refusal of a check over a stack flags in ``TableError.laws`` exactly the
laws that, run alone, fail that check, and ``tables.by_law`` charges each
law of a stack with the error it gets alone.
"""

import numpy as np
import pytest

from proxidtr.bridges import _SHAPES, BridgeSet, bridge_collapse_check, solve_bridges, verify_bridges
from proxidtr.dgp import sample
from proxidtr.estimators import FitOptions, count_pmf, fit_off_fold, fold_counts
from proxidtr.harness import ExperimentConfig
from proxidtr.identify import pipw_marginal_stage1, q_functions
from proxidtr.tables import JointPmf, SingularMatrixError, TableError, ZeroProbabilityError, by_law, invert2or4

FOLDS = 3


@pytest.fixture(scope="module", params=[3, 4])
def fold_stack(request, params):
    """(own counts, off-fold counts, off-fold bridges, each fold's bridges alone)."""
    data = sample(params, 35000, request.param)
    own, off_fold = fold_counts(data.observed_counts, data.seed, FOLDS)
    solved = fit_off_fold(off_fold, FitOptions(folds=FOLDS))
    per_fold = [BridgeSet(**{name: getattr(solved, name)[k] for name in _SHAPES}) for k in range(FOLDS)]
    return own, off_fold, solved, per_fold


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


def _refusal(fn, *args) -> TableError | None:
    try:
        fn(*args)
    except TableError as err:
        return err
    return None


def _block_counts(params) -> np.ndarray:
    """The observed counts of the first four repetitions of a default grid at
    n = 5000: the fit meets law 3's zero cell first, then the singular blocks
    of laws 0 and 2."""
    config = ExperimentConfig(n=5000)
    return np.stack([sample(params, config.n, config.base_seed + rep).observed_counts for rep in range(4)])


def _degenerate_densities(oracle) -> np.ndarray:
    """Five densities: law 0 fails only Q1's stage-1 normalizer (its two
    stage-2 denominators at a2 = 0 cancel), laws 1 and 3 a stage-2
    denominator, laws 2 and 4 none."""
    g = np.stack([oracle.g] * 5)
    g[0, 1, 0, :, 0, 0], g[0, 1, 0, :, 1, 0] = (0.1, 0.2), (-0.1, -0.2)
    g[1, 1, 0, :, 1, 0] = 0.0
    g[3, 0, 1, :, 0, 1] = 0.0
    return g


def _check_flags(fn, stack: np.ndarray, expected: list[bool]):
    """``fn`` refuses the stack with ``laws`` equal to ``expected``, and
    law i run alone (a stack of one) fails the same check exactly when it is flagged."""
    err = _refusal(fn, stack)
    assert err is not None and err.laws.tolist() == expected
    for i, flagged in enumerate(expected):
        alone = _refusal(fn, stack[i:i + 1])
        assert (alone is not None and type(alone) is type(err) and alone.kind == err.kind) == flagged, i


def test_a_refusal_flags_every_law_that_fails_its_check(params, oracle):
    blocks = np.tile(np.eye(4), (6, 2, 2, 1, 1))  # six laws, each a (2, 2) stack of 4 x 4 blocks over axes (x, y)
    blocks[1, 0, 1, 3] = blocks[1, 0, 1, 2]
    blocks[4, 1, 1] = 0.0
    _check_flags(lambda m: invert2or4(m, "m", ("x", "y")), blocks, [False, True, False, False, True, False])

    counts = _block_counts(params)
    _check_flags(lambda c: solve_bridges(count_pmf(c)), counts, [False, False, False, True])
    _check_flags(lambda c: solve_bridges(count_pmf(c)), counts[:3], [True, False, True])

    densities = _degenerate_densities(oracle)
    _check_flags(q_functions, densities, [False, True, False, True, False])
    _check_flags(q_functions, densities[[0, 2, 4]], [True, False, False])


def test_by_law_charges_each_law_the_error_it_gets_alone(params, oracle):
    """Law 0 fails a later check than law 1 (and, in the block, than law 3):
    each law is dropped at the check it fails alone, with that error's type
    and kind, and ``fn`` runs once more on the rest."""
    densities = _degenerate_densities(oracle)
    live, (q2, q1), failed = by_law(lambda live: q_functions(densities[live]), len(densities))
    assert live.tolist() == [2, 4] and sorted(failed) == [0, 1, 3]
    for i, err in failed.items():
        alone = _refusal(q_functions, densities[i])
        assert (type(err), err.kind) == (type(alone), alone.kind), i
        assert i == 3 or str(err) == str(alone)  # the first law a refusal flags is the one it names
    assert "stage-1" in failed[0].kind and "stage-2" in failed[1].kind
    expected = q_functions(densities[[2, 4]])
    assert np.array_equal(q2, expected[0]) and np.array_equal(q1, expected[1])

    counts = _block_counts(params)
    live, solved, failed = by_law(lambda live: solve_bridges(count_pmf(counts[live])), len(counts))
    assert live.tolist() == [1] and sorted(failed) == [0, 2, 3]
    assert [type(failed[i]) for i in (0, 2, 3)] == [SingularMatrixError, SingularMatrixError, ZeroProbabilityError]
    for i, err in failed.items():
        alone = _refusal(solve_bridges, count_pmf(counts[i]))
        assert (type(err), err.kind) == (type(alone), alone.kind), i
    assert np.array_equal(solved.q22, solve_bridges(count_pmf(counts[1:2])).q22)


def test_by_law_returns_no_result_when_every_law_fails_and_passes_an_unflagged_refusal_on(oracle):
    stage2 = _degenerate_densities(oracle)[[1, 3]]
    live, result, failed = by_law(lambda live: q_functions(stage2[live]), 2)
    assert live.size == 0 and result is None and sorted(failed) == [0, 1]

    def unflagged(live):
        raise TableError("a refusal that names no law")

    with pytest.raises(TableError, match="names no law"):
        by_law(unflagged, 2)
