"""One refusal for a zero cell: every zero denominator in the package is
refused by ``tables._refuse_zero``, which raises ``ZeroProbabilityError``
naming the first zero cell in C order in ``.assignment``, by the axes of
the table it divides by and without any stack axes, and whose ``kind`` is
the message template with the cell unfilled. Each refusal is met alone and
as the second law of a stack of two, and fails the same way."""

import numpy as np
import pytest

from proxidtr.bridges import _reciprocal
from proxidtr.dgp import OBSERVED_ORDER
from proxidtr.estimators import FitOptions, fit_counts, sra_from_conditional
from proxidtr.identify import observed_conditional, q_functions
from proxidtr.tables import JointPmf, ZeroProbabilityError, conditional


def _conditioning_cell():
    fine = np.full((2, 2, 2), 0.125)
    bad = fine.copy()
    bad[1, :, 0] = 0.0  # P(A=1, C=0) = 0
    bad[0, :, 0] = 0.25
    return fine, bad, lambda mass: conditional(JointPmf(("A", "B", "C"), mass), ("B",), ("A", "C"))


def _positivity():
    fine = np.full((2, 2), 0.25)
    bad = np.array([[0.25, 0.25], [0.5, 0.0]])  # P(B=1 | A=1) = 0
    return fine, bad, lambda mass: _reciprocal(JointPmf(("A", "B"), mass), ("B",), ("A",))


def _y0_margin():
    fine = np.full((2,) * 9, 2.0 ** -9)
    bad = fine.copy()
    bad[0] *= 2.0
    bad[1] = 0.0  # P(Y0=1) = 0
    return fine, bad, lambda mass: observed_conditional(JointPmf(OBSERVED_ORDER, mass))


def _stage2_denominator():
    fine = np.full((2,) * 5, 0.125)  # g[a1, a2, y2, y1, y0]
    bad = fine.copy()
    bad[1, 0, :, 1, 0] = 0.0  # the y2-summed density at (a1, a2, y1, y0) = (1, 0, 1, 0)
    bad[1, 1, :, 0, 1] = 0.0  # a later cell in (a1, a2, y1, y0) order
    return fine, bad, q_functions


def _stage1_normalizer():
    fine = np.full((2,) * 5, 0.125)
    bad = fine.copy()
    bad[1, 0, :, 0, 1] = 0.25  # y2-summed: +0.5 at y1 = 0 ...
    bad[1, 0, :, 1, 1] = -0.25  # ... and -0.5 at y1 = 1: no zero stage-2 cell, a zero sum over y1
    return fine, bad, q_functions


def _sra(mass):
    return sra_from_conditional(JointPmf(OBSERVED_ORDER, mass))


def _sra_outcome_model():
    fine = np.full((2,) * 9, 2.0 ** -9)  # mass[y0, z1, w1, a1, y1, z2, w2, a2, y2]
    bad = fine.copy()
    bad[0, :, :, 1, 0, :, :, 1, :] = 0.0  # (y0, a1, y1, a2) = (0, 1, 0, 1)
    bad[0, :, :, 1, 0, :, :, 0, :] *= 2.0  # the emptied cells' mass moves to their other a2: the total stays 1
    bad[1, :, :, 0, 1, :, :, 0, :] = 0.0  # a later cell
    bad[1, :, :, 0, 1, :, :, 1, :] *= 2.0
    return fine, bad, _sra


def _sra_stage1_model():
    """An empty (y0, a1) stratum empties every outcome-model cell in it, so
    the outcome-model refusal meets it first, at its first (y1, a2) cell."""
    fine = np.full((2,) * 9, 2.0 ** -9)
    bad = fine.copy()
    bad[1, :, :, 0] = 0.0  # (y0, a1) = (1, 0)
    bad[1, :, :, 1] *= 2.0  # the emptied cells' mass moves to a1 = 1: the total stays 1
    return fine, bad, _sra


_STAGE2 = "zero stage-2 denominator at (y0={y0}, y1={y1}, a1={a1}, a2={a2}); f(Y1({a1})={y1}|Y0={y0}) is degenerate"
_REFUSALS = [
    (_conditioning_cell, {"A": 1, "C": 0},
     "zero-probability conditioning cell {'A': 1, 'C': 0} for P(B|A,C)",
     "zero-probability conditioning cell {cell} for P(B|A,C)"),
    (_positivity, {"A": 1, "B": 1}, "positivity fails: P(B|A) is zero at {'A': 1, 'B': 1}",
     "positivity fails: P(B|A) is zero at {cell}"),
    (_y0_margin, {"Y0": 1}, "P(Y0=y0) = 0 at {'Y0': 1}; cannot condition", "P(Y0=y0) = 0 at {cell}; cannot condition"),
    (_stage2_denominator, {"a1": 1, "a2": 0, "y1": 1, "y0": 0},
     "zero stage-2 denominator at (y0=0, y1=1, a1=1, a2=0); f(Y1(1)=1|Y0=0) is degenerate", _STAGE2),
    (_stage1_normalizer, {"y0": 1, "a1": 1}, "zero stage-1 normalizer in Q1 weights at (y0=1, a1=1)",
     "zero stage-1 normalizer in Q1 weights at (y0={y0}, a1={a1})"),
    (_sra_outcome_model, {"Y0": 0, "A1": 1, "Y1": 0, "A2": 1},
     "empty cell {'Y0': 0, 'A1': 1, 'Y1': 0, 'A2': 1} in the SRA outcome model",
     "empty cell {cell} in the SRA outcome model"),
    (_sra_stage1_model, {"Y0": 1, "A1": 0, "Y1": 0, "A2": 0},
     "empty cell {'Y0': 1, 'A1': 0, 'Y1': 0, 'A2': 0} in the SRA outcome model",
     "empty cell {cell} in the SRA outcome model"),
]


@pytest.mark.parametrize("case, assignment, message, kind", _REFUSALS,
                         ids=[case[0].__name__.strip("_") for case in _REFUSALS])
def test_each_zero_refusal_names_its_first_zero_cell_alone_and_in_a_stack(case, assignment, message, kind):
    fine, bad, refuse = case()
    refuse(fine)
    refuse(np.stack([fine, fine]))
    for mass in (bad, np.stack([fine, bad])):
        with pytest.raises(ZeroProbabilityError) as err:
            refuse(mass)
        assert err.value.assignment == assignment
        assert str(err.value) == message
        assert err.value.kind == kind


def test_a_failed_fit_keeps_the_zero_cell_it_was_refused_at():
    """The advice ``fit_counts`` appends re-raises the same error, so the
    cell stays in ``.assignment`` and the kind stays without the advice."""
    counts = np.ones((2,) * 9)
    counts[1] = 0.0  # no row with Y0 = 1
    with pytest.raises(ZeroProbabilityError, match="too sparse to solve the bridges - increase n$") as err:
        fit_counts(counts.reshape(-1), FitOptions())
    assert err.value.assignment == {"Y0": 1, "Y1": 0, "A1": 0, "A2": 0, "Z1": 0, "Z2": 0}
    assert err.value.kind == "zero-probability conditioning cell {cell} for P(W1,W2|Y0,Y1,A1,A2,Z1,Z2)"
