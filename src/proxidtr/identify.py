"""Population-level identification of potential-outcome densities and values.

Given an observed-data law (any table containing the nine observed variables)
and confounding bridges, four strategies recover the conditional joint
density f(Y2(a1,a2)=y2, Y1(a1)=y1 | Y0=y0):

  POR   outcome bridges only:        sum_w1 h21 f(w1|y0)
  PHA   hybrid split at stage 1:     sum_{w1,w2,z1} h22 q11 f(w1,w2,z1,y1,a1|y0)
  PIPW  treatment bridges only:      sum_{z1,z2} q22 f(y1,y2,a1,a2,z1,z2|y0)
  PMR   multiply robust combination: PIPW residual + stage-1 correction + POR

Every method reads the law only through its observed table given Y0
(``observed_conditional``): ``density_from_conditional`` takes that table,
so one conditioning serves all four, and ``density_por/pha/pipw/pmr`` wrap
it for a law. POR, PHA and PIPW are the k = 0, 1, 2 rungs of one hybrid
formula and share a single code path here, so the degeneration of the
hybrid to either end is exact by construction. The PMR combination equals
the truth whenever any one of the bridge subsets {h22,h21}, {h22,q11},
{q11,q22} is correct; the other three methods each require their own
bridges. ``BRIDGES_NEEDED`` lists the components each method reads and is
the one place the method names are written; ``METHODS`` is its key order,
which the estimators, the harness and the CLI share.

Every method returns a ``dgp.IdentifiedDensity`` (re-exported here), as do
SRA and the Oracle, and reports it raw: misspecified bridges can push cells
negative or break normalization, and downstream consumers see that rather
than a silently repaired table. ``value_from_density`` reads a regime's
value off any of them with ``dgp.class_values``, the package's one plug-in
value kernel.
"""

from __future__ import annotations

import numpy as np

from .bridges import BridgeSet
from .dgp import OBSERVED_ORDER, IdentifiedDensity, class_values, marginal_y0
from .policy import Regime
from .tables import JointPmf, _mass_over, _refuse_zero

# method -> the bridge components it reads; the one list of the bridge methods
BRIDGES_NEEDED = {
    "POR": ("h21",),
    "PHA": ("h22", "q11"),
    "PIPW": ("q22",),
    "PMR": ("h22", "h21", "q11", "q22"),
}
METHODS = tuple(BRIDGES_NEEDED)


def observed_conditional(pmf: JointPmf) -> tuple[np.ndarray, np.ndarray]:
    """Observed-law table given Y0 and the Y0 marginal.

    Returns (cond, p_y0) where cond[y0, z1, w1, a1, y1, z2, w2, a2, y2] is
    the joint law of the remaining observed variables given Y0 = y0.
    """
    arr = _mass_over(pmf, OBSERVED_ORDER)
    p_y0 = arr.sum(axis=tuple(range(-8, 0)))
    _refuse_zero(p_y0.real <= 0.0, ("Y0",), "P(Y0=y0) = 0 at {cell}; cannot condition")
    return arr / p_y0[(...,) + (None,) * 8], p_y0


# einsum letters used below:
#   a=y0 b=y1 c=y2 d=w1 g=w2 e=a1 f=a2 h=z1 i=z2
# cond axes: [y0 z1 w1 a1 y1 z2 w2 a2 y2] = a h d e b i g f c, counted from the end;
# ``...`` carries a stack of tables (one per fold) and broadcasts unstacked bridges


def _hybrid_density(cond: np.ndarray, b: BridgeSet, k: int) -> np.ndarray:
    """One formula for the k = 0, 1, 2 identification rungs."""
    if k == 0:
        f_w1 = cond.sum(axis=(-8, -6, -5, -4, -3, -2, -1))  # [y0, w1]
        return np.einsum("...abcdef,...ad->...efcba", b.h21, f_w1)
    if k == 1:
        f_mid = cond.sum(axis=(-4, -2, -1))  # [y0, z1, w1, a1, y1, w2]
        return np.einsum("...abcdgef,...aeh,...ahdebg->...efcba", b.h22, b.q11, f_mid)
    if k == 2:
        f_obs = cond.sum(axis=(-7, -3))  # [y0, z1, a1, y1, z2, a2, y2]
        return np.einsum("...abefhi,...ahebifc->...efcba", b.q22, f_obs)
    raise ValueError(f"hybrid rung k must be 0, 1 or 2, got {k}")


def density_from_conditional(method: str, cond: np.ndarray, b: BridgeSet) -> IdentifiedDensity:
    """The ``method`` density from the observed table given Y0,
    ``observed_conditional(pmf)[0]``, so one conditioning serves every method."""
    b.require(*BRIDGES_NEEDED[method])
    # POR, PHA and PIPW, in METHODS order, are the hybrid rungs k = 0, 1, 2
    g = _pmr_density(cond, b) if method == "PMR" else _hybrid_density(cond, b, METHODS.index(method))
    return IdentifiedDensity(g, method, b.provenance)


def density_por(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("POR", observed_conditional(pmf)[0], b)


def density_pha(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("PHA", observed_conditional(pmf)[0], b)


def density_pipw(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("PIPW", observed_conditional(pmf)[0], b)


def density_pmr(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("PMR", observed_conditional(pmf)[0], b)


def _pmr_density(cond: np.ndarray, b: BridgeSet) -> np.ndarray:
    """Multiply robust density: each correction term vanishes identically
    when the bridge it guards is correct, leaving the truth behind."""
    f_obs = cond.sum(axis=(-7, -3))      # [y0, z1, a1, y1, z2, a2, y2]
    f_all = cond.sum(axis=-1)            # [y0, z1, w1, a1, y1, z2, w2, a2]
    f_mid = cond.sum(axis=(-4, -2, -1))  # [y0, z1, w1, a1, y1, w2]
    f_w1z1 = cond.sum(axis=(-5, -4, -3, -2, -1))  # [y0, z1, w1, a1]
    f_w1 = f_w1z1.sum(axis=(-3, -1))     # [y0, w1]

    smoothed = np.einsum("...abcdgef,...ahdebigf->...ahebifc", b.h22, f_all)
    term_k2 = np.einsum("...abefhi,...ahebifc->...efcba", b.q22, f_obs - smoothed)

    mid_pos = np.einsum("...abcdgef,...ahdebg->...ahbefc", b.h22, f_mid)
    mid_neg = np.einsum("...abcdef,...ahde->...ahbefc", b.h21, f_w1z1)
    term_k1 = np.einsum("...aeh,...ahbefc->...efcba", b.q11, mid_pos - mid_neg)

    term_k0 = np.einsum("...abcdef,...ad->...efcba", b.h21, f_w1)
    return term_k2 + term_k1 + term_k0


def pipw_marginal_stage1(pmf: JointPmf, b: BridgeSet) -> np.ndarray:
    """f(Y1(a1)=y1 | y0) identified with q11 alone; indexed [..., a1, y1, y0],
    led by the stack axes of a stack of laws."""
    b.require("q11")
    cond, _ = observed_conditional(pmf)
    f4 = cond.sum(axis=(-7, -4, -3, -2, -1))  # [..., y0, z1, a1, y1]
    return np.einsum("...aeh,...aheb->...eba", b.q11, f4)


def value_from_density(g: IdentifiedDensity | np.ndarray, pmf: JointPmf, regime: Regime) -> float | np.ndarray:
    """Indicator-weighted value of a regime under an identified density:
    ``dgp.class_values`` at the regime's Boolean index. A Python float for one
    real law; a stack of densities and laws gives one value per law, and a
    complex density its complex value, both as arrays."""
    arr = g.g if isinstance(g, IdentifiedDensity) else np.asarray(g)
    value = class_values(arr, marginal_y0(pmf), [regime.index])[..., 0]
    return value if value.ndim or np.iscomplexobj(value) else float(value)


def q_functions(g: IdentifiedDensity | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward-induction Q tables from an identified density, or from each
    density of a stack ``(..., 2, 2, 2, 2, 2)``.

    Q2[..., y0, y1, a1, a2] is the ratio of the y2-weighted to the y2-summed
    density; Q1[..., y0, a1] propagates max_a2 Q2 with the stage-1 weights
    taken from the same density (evaluated at a2 = 0; the weights are
    a2-invariant wherever the identification is valid). Zero denominators
    are an error, never a sentinel; the error names the first zero cell in C
    order by its place within its own density, so a stack of one density
    fails with the text that density fails with alone.
    """
    arr = g.g if isinstance(g, IdentifiedDensity) else np.asarray(g)
    den2 = arr.sum(axis=-3)  # [..., a1, a2, y1, y0]
    _refuse_zero(den2.real == 0.0, ("a1", "a2", "y1", "y0"),  # the first zero cell in (a1, a2, y1, y0) order
                 "zero stage-2 denominator at (y0={y0}, y1={y1}, a1={a1}, a2={a2}); "
                 "f(Y1({a1})={y1}|Y0={y0}) is degenerate")
    # [..., a1, a2, y1, y0] -> [..., y0, y1, a1, a2]
    q2 = np.moveaxis(arr[..., 1, :, :] / den2, (-1, -2), (-4, -3))
    weights = np.moveaxis(den2, (-1, -2), (-4, -3))[..., 0]  # [..., y0, y1, a1] at a2=0
    total = weights.sum(axis=-2, keepdims=True)  # [..., y0, 1, a1]
    _refuse_zero(total[..., 0, :].real == 0.0, ("y0", "a1"),
                 "zero stage-1 normalizer in Q1 weights at (y0={y0}, a1={a1})")
    q1 = np.einsum("...xyk,...xyk->...xk", weights / total, q2.max(axis=-1))  # [..., y0, a1]
    return q2, q1
