"""Every refusal ``solve_bridges`` can raise, and the order it checks them in.

``solve_bridges`` reads ten conditionals, whose zero conditioning cells it
refuses; it checks two propensities for positivity and inverts four stacks
of proxy matrices. Each case below builds, from the observed margin of the
pinned law, a law that fails at one check first. It pins the first error's
type, message, ``kind`` and ``assignment``, on the law alone and as fold 1
of a 3-fold stack between two copies of the pinned margin.

The ten conditionals condition on six sets. Only the first conditional of a
set can fail first, and (Y0, A1, Z1) is coarser than (Y0, Y1, A1, A2, Z1,
Z2), which is checked before it; those cases pin the earlier refusal that a
law with a zero cell of their set meets. A real law with any zero cell of a
set that holds W1 leaves a zero row in a stage-2 proxy matrix
P(W1,W2|Z1,Z2), which is refused first (the last case). The checks after
that one are reached with complex mass, such as a complex step carries: a
cell's real part vanishes while its imaginary part keeps the proxy matrices
invertible. The singular checks on P(Z1|W1) and P(Z1,Z2|W1,W2) follow a
check on the same blocks the other way round, so their laws are near
singular: an unbalanced Z makes the |det| of P(Z|W) fall below
``DET_TOL`` while that of P(W|Z) stays above it.
"""

import numpy as np
import pytest

from proxidtr.bridges import solve_bridges
from proxidtr.dgp import OBSERVED_ORDER
from proxidtr.tables import JointPmf, SingularMatrixError, ZeroProbabilityError, marginalize


def _at(**cell) -> tuple:
    """The index of every observed cell that matches ``cell``."""
    return tuple(cell.get(name, slice(None)) for name in OBSERVED_ORDER)


def _zero(base, **cell):
    """``base`` with no mass at ``cell``."""
    mass = np.array(base)
    mass[_at(**cell)] = 0.0
    return mass


def _imaginary(base, **cell):
    """``base`` with the mass at ``cell`` moved to the imaginary part."""
    mass = base.astype(complex)
    mass[_at(**cell)] *= 1j
    return mass


def _propensity_off(base, target, **cell):
    """Complex mass whose real parts all stay positive, but whose propensity
    P(target = 0 | cell) has a negative real part."""
    mass = base.astype(complex)
    mass[_at(**cell, **{target: 1})] *= 1 + 10j
    mass[_at(**cell, **{target: 0})] *= 1 - 10j
    return mass


def _independent(base, w_axes, **block):
    """``base`` with the ``w_axes`` of ``block`` made independent of its other axes."""
    mass = np.array(base)
    blk = mass[_at(**block)]
    others = tuple(i for i in range(blk.ndim) if i not in w_axes)
    mass[_at(**block)] = blk.sum(axis=others, keepdims=True) * blk.sum(axis=w_axes, keepdims=True) / blk.sum()
    return mass


def _z1_w1(base, dependence, z1_rare):
    """At (Y0=1, A1=1): Z1 and W1 independent but for ``dependence`` times
    their association, and the mass at Z1 = 1 times ``z1_rare``; every other
    variable's law given them unchanged."""
    mass = np.array(base)
    blk = mass[_at(Y0=1, A1=1)]  # [z1, w1, y1, z2, w2, a2, y2]
    zw = blk.sum(axis=(2, 3, 4, 5, 6), keepdims=True)
    ind = zw.sum(axis=1, keepdims=True) * zw.sum(axis=0, keepdims=True) / zw.sum()
    near = ind + dependence * (zw - ind)
    near[1] *= z1_rare
    mass[_at(Y0=1, A1=1)] = blk / zw * near
    return mass


def _z2_rare(base):
    mass = np.array(base)
    mass[_at(Y0=1, Y1=1, A1=1, A2=1, Z2=1)] *= 1e-8
    return mass


_W_Z = "zero-probability conditioning cell {cell} for P(W1,W2|Y0,Y1,A1,A2,Z1,Z2)"
_SINGULAR = "{} is singular; rank condition fails"

# (case, law from the observed margin, error type, message, kind, assignment or
# None where the error has none); in the stack a singular block's message names
# the fold first
CASES = [
    ("1 P(W1,W2|Y0,Y1,A1,A2,Z1,Z2)", lambda b: _zero(b, Y0=1, Y1=1, A1=1, A2=1, Z1=1, Z2=1), ZeroProbabilityError,
     _W_Z.format(cell={"Y0": 1, "Y1": 1, "A1": 1, "A2": 1, "Z1": 1, "Z2": 1}), _W_Z,
     {"Y0": 1, "Y1": 1, "A1": 1, "A2": 1, "Z1": 1, "Z2": 1}),
    ("2 P(Y2|Y0,Y1,A1,A2,Z1,Z2) meets 1", lambda b: _zero(b, Y0=0, Y1=1, A1=0, A2=1, Z1=0, Z2=1),
     ZeroProbabilityError, _W_Z.format(cell={"Y0": 0, "Y1": 1, "A1": 0, "A2": 1, "Z1": 0, "Z2": 1}), _W_Z,
     {"Y0": 0, "Y1": 1, "A1": 0, "A2": 1, "Z1": 0, "Z2": 1}),
    *[(f"{k} {what}|Y0,A1,Z1) meets 1", lambda b: _zero(b, Y0=1, A1=1, Z1=1), ZeroProbabilityError,
       _W_Z.format(cell={"Y0": 1, "Y1": 0, "A1": 1, "A2": 0, "Z1": 1, "Z2": 0}), _W_Z,
       {"Y0": 1, "Y1": 0, "A1": 1, "A2": 0, "Z1": 1, "Z2": 0})
      for k, what in ((3, "P(W1"), (4, "P(W1,W2,Y1"), (5, "P(Y1"))],
    ("6 P(A1|Y0,W1)", lambda b: _imaginary(b, Y0=1, W1=1), ZeroProbabilityError,
     "zero-probability conditioning cell {'Y0': 1, 'W1': 1} for P(A1|Y0,W1)",
     "zero-probability conditioning cell {cell} for P(A1|Y0,W1)", {"Y0": 1, "W1": 1}),
    ("7 P(Z1|Y0,A1,W1)", lambda b: _imaginary(b, Y0=1, A1=1, W1=1), ZeroProbabilityError,
     "zero-probability conditioning cell {'Y0': 1, 'A1': 1, 'W1': 1} for P(Z1|Y0,A1,W1)",
     "zero-probability conditioning cell {cell} for P(Z1|Y0,A1,W1)", {"Y0": 1, "A1": 1, "W1": 1}),
    ("8 P(Z1|Y0,Y1,A1,W1,W2)", lambda b: _imaginary(b, Y0=1, Y1=1, A1=1, W1=1, W2=1), ZeroProbabilityError,
     "zero-probability conditioning cell {'Y0': 1, 'Y1': 1, 'A1': 1, 'W1': 1, 'W2': 1} for P(Z1|Y0,Y1,A1,W1,W2)",
     "zero-probability conditioning cell {cell} for P(Z1|Y0,Y1,A1,W1,W2)",
     {"Y0": 1, "Y1": 1, "A1": 1, "W1": 1, "W2": 1}),
    ("9 P(Z1,Z2|Y0,Y1,A1,A2,W1,W2)", lambda b: _imaginary(b, Y0=1, Y1=1, A1=1, A2=1, W1=1, W2=1),
     ZeroProbabilityError,
     "zero-probability conditioning cell {'Y0': 1, 'Y1': 1, 'A1': 1, 'A2': 1, 'W1': 1, 'W2': 1} "
     "for P(Z1,Z2|Y0,Y1,A1,A2,W1,W2)",
     "zero-probability conditioning cell {cell} for P(Z1,Z2|Y0,Y1,A1,A2,W1,W2)",
     {"Y0": 1, "Y1": 1, "A1": 1, "A2": 1, "W1": 1, "W2": 1}),
    ("10 P(A2|Y0,Y1,A1,W1,W2) meets 8", lambda b: _imaginary(b, Y0=0, Y1=1, A1=0, W1=1, W2=0),
     ZeroProbabilityError,
     "zero-probability conditioning cell {'Y0': 0, 'Y1': 1, 'A1': 0, 'W1': 1, 'W2': 0} for P(Z1|Y0,Y1,A1,W1,W2)",
     "zero-probability conditioning cell {cell} for P(Z1|Y0,Y1,A1,W1,W2)",
     {"Y0": 0, "Y1": 1, "A1": 0, "W1": 1, "W2": 0}),
    ("positivity P(A1|Y0,W1)", lambda b: _propensity_off(b, "A1", Y0=1, W1=1), ZeroProbabilityError,
     "positivity fails: P(A1|Y0,W1) is zero at {'Y0': 1, 'W1': 1, 'A1': 0}",
     "positivity fails: P(A1|Y0,W1) is zero at {cell}", {"Y0": 1, "W1": 1, "A1": 0}),
    ("positivity P(A2|Y0,Y1,A1,W1,W2)", lambda b: _propensity_off(b, "A2", Y0=1, Y1=1, A1=1, W1=1, W2=1),
     ZeroProbabilityError,
     "positivity fails: P(A2|Y0,Y1,A1,W1,W2) is zero at {'Y0': 1, 'Y1': 1, 'A1': 1, 'W1': 1, 'W2': 1, 'A2': 0}",
     "positivity fails: P(A2|Y0,Y1,A1,W1,W2) is zero at {cell}",
     {"Y0": 1, "Y1": 1, "A1": 1, "W1": 1, "W2": 1, "A2": 0}),
    ("singular P(W1,W2|Z1,Z2)", lambda b: _independent(b, (1, 3), Y0=1, Y1=0, A1=0, A2=1), SingularMatrixError,
     "P(W1,W2|Z1,Z2) at (Y0=1, Y1=0, A1=0, A2=1) is singular (|det|=0.000e+00); rank condition fails",
     _SINGULAR.format("P(W1,W2|Z1,Z2)"), None),
    ("singular P(W1|Z1)", lambda b: _z1_w1(b, 0.0, 1.0), SingularMatrixError,
     "P(W1|Z1) at (Y0=1, A1=1) is singular (|det|=2.776e-17); rank condition fails",
     _SINGULAR.format("P(W1|Z1)"), None),
    ("singular P(Z1|W1)", lambda b: _z1_w1(b, 1e-10, 1e-4), SingularMatrixError,
     "P(Z1|W1) at (Y0=1, A1=1) is singular (|det|=1.817e-13); rank condition fails",
     _SINGULAR.format("P(Z1|W1)"), None),
    ("singular P(Z1,Z2|W1,W2)", _z2_rare, SingularMatrixError,
     "P(Z1,Z2|W1,W2) at (Y0=1, Y1=1, A1=1, A2=1) is singular (|det|=4.297e-15); rank condition fails",
     _SINGULAR.format("P(Z1,Z2|W1,W2)"), None),
    ("a real zero cell of a set with W1", lambda b: _zero(b, Y0=1, W1=1), SingularMatrixError,
     "P(W1,W2|Z1,Z2) at (Y0=1, Y1=0, A1=0, A2=0) is singular (|det|=0.000e+00); rank condition fails",
     _SINGULAR.format("P(W1,W2|Z1,Z2)"), None),
]


@pytest.fixture(scope="module")
def observed(joint):
    return marginalize(joint, OBSERVED_ORDER).mass


def test_the_observed_margin_solves(observed):
    solve_bridges(JointPmf(OBSERVED_ORDER, observed))


@pytest.mark.parametrize("stacked", [False, True], ids=["law", "fold 1 of 3"])
@pytest.mark.parametrize("case, build, error, message, kind, assignment", CASES, ids=[c[0] for c in CASES])
def test_first_refusal(observed, case, build, error, message, kind, assignment, stacked):
    mass = build(observed)
    mass = mass / mass.real.sum()
    if stacked:
        mass = np.stack([observed, mass, observed])
        if error is SingularMatrixError:
            message = message.replace(" at (", " at (axis0=1, ")
    with pytest.raises(error) as err:
        solve_bridges(JointPmf(OBSERVED_ORDER, mass))
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.kind == kind
    assert getattr(err.value, "assignment", None) == assignment
