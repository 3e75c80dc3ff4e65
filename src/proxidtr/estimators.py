"""Sample-level value estimators, cross-fitting, and baseline comparators.

Every value estimate is identify's plug-in value (``_plug_in``): the
method's density of the bridges read off the sample's own unsmoothed law
(``identify.density_from_pieces``) and valued by ``value_from_density``,
the path the experiment and ``identify.pick`` read. ``v_hat`` reads it on
the sample's law, ``population_v`` on any law (the true joint law, say),
and ``cross_fit`` on the law of the bridges it fits: with one fold the law
``fit_bridges`` returns, so its kept sums are shared, or the raw law when
``laplace`` smooths the fit; with K folds each fold's own law, as one
stack. ``laplace`` so smooths the law the bridges are fitted on, never the
law the value is read on.

PMR's estimator summand (``_pmr_summand``) is kept for its variance only.
It depends on a row only through its observed cell, so it is evaluated once
per cell of the 512 of ``_CELLS``:

  c2 (y2 - j2_obs) + c1 (j2c - j1) + j1,

with c2 = full compliance * q22, c1 = stage-1 compliance * q11, j2_obs and
j2c the h22 terms at the observed and at the regime's a2, and j1 the h21
term. Centred at the value it is PMR's influence function, and its
second moment weighted by the law's mass is the ``variance`` that ``v_hat``
and one-fold ``cross_fit`` give PMR's estimate (``if_variance``); the other
methods' summands are not their influence functions, so they carry none.
The summand reads the bridge tables by ``np.take`` on each flattened
table, led by any fold axis, at flat indices of the 512 cells computed
once (``_CELL_INDEX``); only the regime's actions are added per call. A
telescoped rearrangement (``_pmr_telescoped``) is implemented separately,
sharing only the regime indexing (``_regime_cells``); its count-weighted
mean (``v_hat_pmr_alt``) must agree with the value to 1e-12, and with the
components a method does not read set to zero it is that method's
independent reference. Every count-weighted mean is ``_count_mean``:
numpy's pairwise sum of the cells' products, never a BLAS dot, so no
estimate's bits depend on the host's BLAS kernel.

``influence`` reads the influence function of any plug-in functional of one
law off a single stacked complex step P + ih(delta_c - P) over its cells;
with bridges solved from the law, that of each method's value is the PMR
summand centred at its mean.

``fit_bridges`` solves the bridges on the whole sample. With K folds,
``fold_counts`` splits a sample's observed cell counts into the folds' own
counts, one multivariate hypergeometric draw per fold from a stream of the
sample's seed, and reads no row (``cross_fit`` passes a dataset's counts
and seed, the harness a repetition's): rows of one cell are exchangeable,
so the split has the law a uniform permutation of the rows dealt round the
folds gives it. The K off-fold
laws (the total counts minus each fold's own) are solved as one stack
(``fit_off_fold``, which the harness also calls on the off-fold counts of
a block of repetitions), its tables led by a fold axis. A failed stacked
fit is redone fold by fold to name the first failing fold. Fitting never
substitutes pseudo bridges; the harness merges each scenario's into the
fitted set.

The SRA baseline ignores unmeasured confounding (``sra_from_conditional``, a
plain g-formula on the law's own conditionals); the Oracle baseline
(``dgp.oracle_density_from_joint``) standardizes over the hidden confounder
columns, so its empirical law needs sampled rows that carry them
(``empirical_pmf(data, include_hidden=True)``). ``sra_value`` and
``oracle_value`` score each baseline on a law only: the caller builds the
law, smoothed or not, once.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bridges import BridgeSet, solve_bridges, substream
from .dgp import CANONICAL_ORDER, OBSERVED_ORDER, Dataset, oracle_density_from_joint
from .identify import (METHODS, IdentifiedDensity, _require, density_from_pieces, observed_conditional,
                       value_from_density)
from .policy import Regime
from .tables import JointPmf, SingularMatrixError, ZeroProbabilityError, _locked, _refuse_zero

ALL_METHODS = METHODS + ("SRA", "ORACLE")  # the bridge methods, then the baselines


@dataclass(frozen=True)
class FitOptions:
    """Bridge-fitting configuration: folds and smoothing, checked here for
    every caller.

    ``folds`` is an integer >= 1 and ``laplace`` the additive cell smoothing
    constant (0 = raw maximum likelihood), a real number; a bool is neither.
    NaN, infinity and a constant whose total over the 2^11 cells overflows
    are refused.
    """

    folds: int = 1
    laplace: float = 0.0

    def __post_init__(self):
        if isinstance(self.folds, bool) or not isinstance(self.folds, numbers.Integral):
            raise ValueError(f"folds must be an integer, got {self.folds!r}")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")
        if isinstance(self.laplace, bool) or not isinstance(self.laplace, numbers.Real):
            raise ValueError(f"laplace smoothing must be a real number, got {self.laplace!r}")
        cells = 2 ** len(CANONICAL_ORDER)
        if not 0 <= float(self.laplace) * cells < math.inf:  # a Python float, which overflows silently
            raise ValueError(f"laplace smoothing must be >= 0 and finite summed over the {cells} cells, "
                             f"got {self.laplace!r}")


@dataclass(frozen=True)
class ValueEstimate:
    method: str
    estimate: float
    variance: float | None = None
    fold_estimates: tuple[float, ...] | None = None

    def to_json(self) -> str:
        payload: dict = {"method": self.method, "estimate": self.estimate}
        if self.variance is not None:
            payload["variance"] = self.variance
        if self.fold_estimates is not None:
            payload["folds"] = list(self.fold_estimates)
        return json.dumps(payload)


def _cell_counts(data: Dataset, include_hidden: bool = False) -> np.ndarray:
    """Row count of every cell, in C order over OBSERVED_ORDER (CANONICAL_ORDER
    with the hidden columns): the dataset's 2^11 count tensor, summed over U0
    and U1 unless the hidden columns are kept.
    """
    if include_hidden and not data.has_hidden:
        raise ValueError("the oracle needs the hidden columns u0,u1; "
                         "write them with `proxidtr simulate --oracle`")
    return data.cell_counts if include_hidden else data.observed_counts


def empirical_pmf(data: Dataset, laplace: float = 0.0, include_hidden: bool = False) -> JointPmf:
    """Cell-frequency table of a dataset (optionally Laplace-smoothed)."""
    return count_pmf(_cell_counts(data, include_hidden), laplace,
                     CANONICAL_ORDER if include_hidden else OBSERVED_ORDER)


def count_pmf(counts: np.ndarray, laplace: float = 0.0, names: tuple[str, ...] = OBSERVED_ORDER) -> JointPmf:
    """Cell-frequency table (a stack of them for stacked counts) of cell counts in C order over ``names``."""
    counts = np.add(counts, laplace, dtype=float)
    return JointPmf(names, _locked(counts / counts.sum(axis=-1, keepdims=True)))


def fold_counts(counts: np.ndarray, seed: int, folds: int) -> tuple[np.ndarray, np.ndarray]:
    """(each fold's own observed counts, its off-fold counts), both (folds,
    512) in fold order, drawn from a sample's observed counts and its seed
    alone. Fold f holds ``len(range(f, n, folds))`` of the n rows, so every
    fold gets one; folds 0 .. folds-2 are drawn in turn without replacement
    from the rows left (a multivariate hypergeometric draw over the non-zero
    cells left, from a Philox stream of (seed, folds)) and the last fold
    takes the rest. Rows of one cell are exchangeable, so the (fold, cell)
    table has the law a uniform permutation of the rows dealt round the
    folds gives it. The off-fold tables are the total minus each fold's own."""
    n, left = int(counts.sum()), counts
    if folds > n:
        raise ValueError(f"{folds} folds need at least {folds} rows, got {n}")
    rng = substream(seed, int(folds), 0xF01D)
    own = np.zeros((folds, left.size), dtype=np.int64)
    for fold in range(folds - 1):  # over the non-zero cells left: the sampler spends a variate on a zero one
        own[fold, left > 0] = rng.multivariate_hypergeometric(left[left > 0], len(range(fold, n, folds)), method="marginals")
        left = left - own[fold]
    own[-1] = left
    return own, counts - own


def fit_bridges(data: Dataset, opts: FitOptions = FitOptions()) -> tuple[JointPmf, BridgeSet]:
    """Empirical law plus closed-form bridges."""
    return fit_counts(_cell_counts(data), opts)


def fit_counts(counts: np.ndarray, opts: FitOptions) -> tuple[JointPmf, BridgeSet]:
    """``fit_bridges`` on observed cell counts (C order over OBSERVED_ORDER)."""
    pmf = count_pmf(counts, opts.laplace)
    try:
        solved = solve_bridges(pmf, provenance="solved-from-sample")
    except (SingularMatrixError, ZeroProbabilityError) as err:
        # smoothing need not help: it pulls a sparse stratum towards a rank-one table
        if opts.laplace > 0:
            advice = (f"Laplace smoothing of {opts.laplace:g} leaves sparse strata too flat to solve the bridges - "
                      "increase n or lower the smoothing")
        else:
            advice = "the empirical table is too sparse to solve the bridges - increase n"
        err.args = (f"{err}; {advice}",)  # the same error, so a zero cell stays named in ``.assignment``
        raise
    return pmf, solved


def fit_off_fold(off_fold: np.ndarray, opts: FitOptions) -> BridgeSet:
    """The bridges fitted on off-fold counts (..., folds, 512), solved as one
    stack, their tables led by the same axes. A failed stacked fit is redone
    fold by fold (the second-to-last axis) to name the first failing fold."""
    try:
        return fit_counts(off_fold, opts)[1]
    except (SingularMatrixError, ZeroProbabilityError):
        for fold in range(off_fold.shape[-2]):
            try:
                fit_counts(off_fold[..., fold, :], opts)
            except (SingularMatrixError, ZeroProbabilityError) as err:
                err.args = (f"off-fold fit failed for fold {fold}: {err}",)
                raise
        raise


# every observed cell once, in C order over OBSERVED_ORDER: the rows of ``_cell_counts``
_CELLS = dict(zip(OBSERVED_ORDER, _locked(np.indices((2,) * 9).reshape(9, -1).astype(np.int64))))


def _count_mean(counts: np.ndarray, summand: np.ndarray) -> float:
    """Row average of a cell summand, as a count-weighted sum over the cells:
    numpy's pairwise sum of the products in cell order, never a BLAS dot,
    whose last bits depend on the host's kernel."""
    return float(np.add.reduce(counts * summand, axis=-1) / counts.sum())


def _cell_index() -> dict[str, np.ndarray]:
    """Flat indices of each cell of ``_CELLS``: into q11 and q22 at its
    history, into h22 at it with y2 = 1 and its own a2 (``h22``) or a2 = 0
    (``h22 a2=0``, for the regime's a2 to be added), into d2 at (y0, y1, a1),
    and (y0, w1) in C order."""
    y0, z1, w1, a1, y1, z2, w2, a2, _ = _CELLS.values()  # OBSERVED_ORDER
    h22 = (((((y0 * 2 + y1) * 2 + 1) * 2 + w1) * 2 + w2) * 2 + a1) * 2
    return {"q11": (y0 * 2 + a1) * 2 + z1, "q22": ((((y0 * 2 + y1) * 2 + a1) * 2 + a2) * 2 + z1) * 2 + z2,
            "h22": h22 + a2, "h22 a2=0": h22, "d2": (y0 * 2 + y1) * 2 + a1, "y0w1": y0 * 2 + w1}


_CELL_INDEX = {name: _locked(index) for name, index in _cell_index().items()}


def _gather(table: np.ndarray, flat: np.ndarray, rank: int) -> np.ndarray:
    """The cells of ``table`` at flat indices over its last ``rank`` axes,
    led by any stack axes before them."""
    return np.take(table.reshape(table.shape[:table.ndim - rank] + (-1,)), flat, axis=-1)


def _regime_cells(b: BridgeSet, regime: Regime):
    """The regime indexing every summand shares, per cell of ``_CELLS``: d2
    at each cell's own (y0, y1, a1), a1* = d1(y0), the stage-1 and full
    compliance indicators, and j1*(), h21 summed over the counterfactual
    stage-1 outcome with a2 pinned by the regime."""
    d1, d2 = regime.d1, regime.d2
    a1_star = np.take(np.asarray(d1, dtype=np.int64), _CELLS["Y0"])
    d2_obs = np.take(np.asarray(d2, dtype=np.int64), _CELL_INDEX["d2"])
    comply1 = (_CELLS["A1"] == a1_star).astype(float)
    comply2 = comply1 * (_CELLS["A2"] == d2_obs)

    def j1_star() -> np.ndarray:
        # the h21 cells of each (y0, w1) and stage-1 outcome y1, summed over y1 on those four cells
        flat = [[y0 * 32 + y1 * 16 + 8 + w1 * 4 + d1[y0] * 2 + d2[y0 * 4 + y1 * 2 + d1[y0]]
                 for y0, w1 in ((0, 0), (0, 1), (1, 0), (1, 1))] for y1 in (0, 1)]
        cells = _gather(b.h21, np.array(flat), 6)
        total = np.zeros(4, dtype=float)
        for y1 in (0, 1):
            total = total + cells[..., y1, :]
        return np.take(total, _CELL_INDEX["y0w1"], axis=-1)

    return d2_obs, a1_star, comply1, comply2, j1_star


def _pmr_summand(b: BridgeSet, regime: Regime) -> np.ndarray:
    """PMR's estimator summand per observed cell (``_CELLS``),

      c2 (y2 - j2_obs) + c1 (j2c - j1) + j1;

    centred at the value, it is PMR's influence function. Bridges led by a
    fold axis give one row of summands per fold."""
    _require("PMR", b)
    d2_obs, _, comply1, comply2, j1_star = _regime_cells(b, regime)
    j1 = j1_star()
    j2_obs = _gather(b.h22, _CELL_INDEX["h22"], 7)
    j2c = _gather(b.h22, _CELL_INDEX["h22 a2=0"] + d2_obs, 7)
    term2 = comply2 * _gather(b.q22, _CELL_INDEX["q22"], 6) * (_CELLS["Y2"] - j2_obs)
    term1 = comply1 * _gather(b.q11, _CELL_INDEX["q11"], 3) * (j2c - j1)
    return term2 + term1 + j1


def _pmr_telescoped(b: BridgeSet, regime: Regime) -> np.ndarray:
    """The telescoped PMR summand per observed cell: weighted differences of coarsening levels."""
    _require("PMR", b)
    y0, z1, w1, a1, y1, z2, w2, a2, y2 = _CELLS.values()  # OBSERVED_ORDER
    _, a1_star, comply1, comply2, j1_star = _regime_cells(b, regime)
    d2 = np.asarray(regime.d2, dtype=np.int64).reshape(2, 2, 2)
    c1 = comply1 * b.q11[..., y0, a1, z1]
    c2 = comply2 * b.q22[..., y0, y1, a1, a2, z1, z2]
    j2 = b.h22[..., y0, y1, 1, w1, w2, a1_star, d2[y0, y1, a1_star]]
    return c2 * y2 + (c1 - c2) * j2 + (1.0 - c1) * j1_star()


def _plug_in(method: str, law: JointPmf, b: BridgeSet, regime: Regime) -> float | np.ndarray:
    """identify's plug-in value of ``regime``: ``method``'s density of ``b``
    read off a law, valued by ``value_from_density``; a stack of laws and
    bridges gives one value per law."""
    return value_from_density(density_from_pieces(method, observed_conditional(law)[0], b), law, regime)


def _on_law(method: str, law: JointPmf, b: BridgeSet, regime: Regime) -> ValueEstimate:
    """The plug-in value on one observed law and, for PMR only, the
    law-weighted second moment of its summand centred at that value, its
    influence-function variance (the other methods' summands are not their
    influence functions)."""
    value = _plug_in(method, law, b, regime)
    variance = _count_mean(law.mass.reshape(-1), (_pmr_summand(b, regime) - value) ** 2) if method == "PMR" else None
    return ValueEstimate(method, value, variance)


def v_hat(method: str, data: Dataset, b: BridgeSet, regime: Regime) -> ValueEstimate:
    """Plug-in value estimate for one method on the sample's law; PMR's
    carries its influence-function variance (``if_variance``)."""
    return _on_law(method, empirical_pmf(data), b, regime)


def v_hat_pmr_alt(data: Dataset, b: BridgeSet, regime: Regime) -> ValueEstimate:
    """Telescoped PMR form; equals ``v_hat("PMR", ...)`` to 1e-12 always."""
    return ValueEstimate("PMR", _count_mean(_cell_counts(data), _pmr_telescoped(b, regime)))


def cross_fit(method: str, data: Dataset, opts: FitOptions, regime: Regime) -> ValueEstimate:
    """The plug-in value on the sample's own unsmoothed law, the bridges
    fitted as ``opts`` asks: with one fold on the whole sample
    (``fit_bridges``, whose law is read itself when unsmoothed), with more
    off each fold (``fit_off_fold``), each fold's value read on its own law
    and the fold values averaged in fold order."""
    if opts.folds == 1:
        law, b = fit_bridges(data, opts)
        return _on_law(method, law if opts.laplace == 0 else empirical_pmf(data), b, regime)
    own, off_fold = fold_counts(data.observed_counts, data.seed, opts.folds)
    fold_values = tuple(_plug_in(method, count_pmf(own), fit_off_fold(off_fold, opts), regime).tolist())
    return ValueEstimate(method, float(np.mean(fold_values)), fold_estimates=fold_values)


def if_variance(data: Dataset, b: BridgeSet, regime: Regime) -> float:
    """Influence-function variance: second moment of the centered PMR summand.

    Centering uses the plug-in point estimate, so the empirical mean of the
    influence terms is zero up to rounding.
    """
    return v_hat("PMR", data, b, regime).variance


def population_v(method: str, pmf: JointPmf, b: BridgeSet, regime: Regime) -> float:
    """identify's plug-in value on a law, such as the true joint law.

    With ``pmf`` the true law and correct bridges this equals the true value
    (the population mean-zero property of the influence function).
    """
    return _plug_in(method, pmf, b, regime)


_STEP = 1e-20  # the complex step of ``influence``: any h far below 1e-8 is exact to rounding


def influence(fn: Callable[[JointPmf], np.ndarray], pmf: JointPmf) -> np.ndarray:
    """Influence function at one law P of a plug-in functional ``fn`` of a
    law: ``fn`` is called once on the stack of the 2^m laws P + ih(delta_c - P),
    one per cell c, with h = ``_STEP``, and Im / h is returned with the cell
    axis (C order over ``pmf.names``) last. ``fn`` must carry a stack of laws
    as leading axes, as every table function does; the step is exact to rounding."""
    pmf._single_law("influence")
    mass = pmf.mass.reshape(-1)
    step = fn(JointPmf(pmf.names, mass + 1j * _STEP * (np.eye(mass.size) - mass)))
    return np.moveaxis(np.imag(step) / _STEP, 0, -1)


def sra_from_conditional(pmf: JointPmf) -> IdentifiedDensity:
    """No-unmeasured-confounding g-formula on a law, read off its own
    marginals: g(a1,a2,y2,y1,y0) = f(y2|y0,y1,a1,a2) f(y1|y0,a1). A stack of
    laws gives a stack of densities."""
    history = ("Y0", "A1", "Y1", "A2")
    # every stage-1 denominator sums positive outcome-model ones, so this refusal covers both models
    _refuse_zero(pmf.marginal(history).real <= 0.0, history, "empty cell {cell} in the SRA outcome model")
    f_y2 = pmf.conditional(("Y2",), history)  # [y0, a1, y1, a2, y2]
    f_y1 = pmf.conditional(("Y1",), ("Y0", "A1"))  # [y0, a1, y1]
    return IdentifiedDensity(np.einsum("...aebfc,...aeb->...efcba", f_y2, f_y1), "SRA")


def sra_value(pmf: JointPmf, regime: Regime) -> ValueEstimate:
    """SRA's value of ``regime`` on a law, such as ``empirical_pmf(data, laplace)``."""
    return ValueEstimate("SRA", value_from_density(sra_from_conditional(pmf), pmf, regime))


def oracle_value(pmf: JointPmf, regime: Regime) -> ValueEstimate:
    """The Oracle's value of ``regime`` on an 11-variable law, such as
    ``empirical_pmf(data, laplace, include_hidden=True)``."""
    return ValueEstimate("ORACLE", value_from_density(oracle_density_from_joint(pmf), pmf, regime))
