"""Monte Carlo experiment orchestration: scenarios x methods x repetitions.

A repetition is read only through its counts (``_counts``): its 2^11 cell
counts, drawn in one multinomial draw (``dgp.sample_counts``; no row is
drawn), its 2^9 observed counts and, with folds, each fold's own observed
counts (``fold_counts``), which feed every table. Repetitions are computed
in stacks by one pass (``_Pass``), every array led by a repetition axis, in
steps (``_steps``, built from the config):

  fit        the bridges of every repetition in one ``solve_bridges`` of the
             (R, 512) counts, or of the off-fold counts (R, K, 512) with K
             folds (``fit_off_fold``), on the law ``laplace`` smooths, and
             the piece table of the unsmoothed law each fit scores (the
             whole sample's, or each fold's own), as ``cross_fit`` reads it
  identify   bridge densities read off that piece table: with one fold one
             step per distinct density; with folds the first half, then the
             rest; the last step averages each repetition's fold tables of
             every density in fold order with P(y0) weights, as one stack,
             and drops the piece table
  score      SRA and the Oracle on their smoothed laws (SRA's, with one
             fold and no smoothing, the fitted law), then each
             repetition's densities scored as one stack

With one fold the block is fitted once: the fit, one identification per
distinct density and the scoring, 15 steps at the default config. With
folds the fit and its two identifications run per sub-stack of at most
``SUB_STACK`` repetitions, each on a piece table of its own that is dropped
before the next sub-stack's fit, so the fold laws of at most four
repetitions are held at a time; 13 steps at five folds (sub-stacks of 4, 4,
4 and 1, and the scoring).

Stacking moves no bit: a repetition's results are those of a pass over a
stack of one. A bridge method's density depends on the scenario only
through the components of ``identify.BRIDGES_NEEDED[method]`` it replaces,
and a baseline's not at all, so each distinct density is keyed once, as
(method, replaced components), identified through ``_DENSITY_FN`` once and
scored once. Each scenario swaps its pseudo components into the fit,
broadcast over the repetitions and folds. Only the fit, a baseline's table
and the scoring can fail; identifying a density after a successful fit
cannot. Each of the three runs through ``tables.by_law``: a refusal flags
every law of the stack that fails its check (``TableError.laws``), those
repetitions (or densities) are dropped with that reason, and only that call
reruns without them. A block is never split: every live law passed every
earlier check, so each failing one is charged alone, with the reason it gets
alone, and the others are computed as in a stack of one.

Every grid runs as one pipeline that lags one block (``_Blocks``). A block
is as many repetitions as its pass has steps (``block_length``).
``_run_rep(config, truth, rep, blocks)`` is called once per repetition, in
index order, in one process: each call draws its own repetition's counts,
then runs one step of the previous block's pass, so with blocks of L call
Lb + j runs step j of block b - 1, and the last call also finishes the
final block. Each call thus does its own draw plus at most one step, and no
fit, identification or scoring runs outside the calls: a timer around each
call (the benchmark's) charges a repetition its own draw and a share of a
block's pass, never a whole block, and leaves no work out. One repetition
is a block of one, run whole in its call.

The harness does not pick a regime; it scores picks. The densities of every
repetition of a block are picked from as one stack by ``identify.pick``,
which returns each density's Boolean index and estimated value without the
truth, and ``_class_scores`` scores them, once per block. Value
maximization searches only the class's ``representatives``, the first
member of each on-path behaviour, whose first maximizer is the class's: 56
of the linear class's 416 members, 64 of the Boolean class's 1024. A density that
fails to pick (a zero Q denominator) is dropped from the stack by
``by_law``, so the failure is charged to its own density only. Each
(scenario, method) cell's regime is scored two ways:

  regret         V(d*) - V(d_hat), both under the true law, where d* is the
                 optimum of the class the optimizer searches: the regime
                 class for value maximization, the Boolean class for
                 Q-learning
  overall error  |V(d*) - V_hat(d_hat)|, charging the estimated value of the
                 chosen regime against the true optimum

Scenario tags, the keys of ``SCENARIO_PSEUDO`` that ``ExperimentConfig``
checks, name which submodel stays correct: the outcome-bridge pair
(m0-correct), the hybrid pair h22+q11 (m1-correct), or the treatment-bridge
pair (m2-correct); all-correct and all-wrong bracket them. The corrupted
components are replaced by pseudo bridges drawn once per experiment from a
fixed seed (``_scenario_pseudo``, handed to every pass), so repetitions
share one corruption. Each component comes from its own substream and is
drawn once, so scenarios that replace the same component hold the same
array, which the piece table keys once.

True values come from ``dgp.true_values``, the law's one cached table of
all 1024 Boolean regimes' values; a chosen regime's true value is read at
its Boolean index, and the optimum is ``dgp.optimal_value`` of the searched
class. No ``Regime`` is built to score, and the truth is built once per
searched class and process (``_truth_context``) on the one law ``_law``,
which every repetition is drawn from.

Everything is deterministic in the config: repetition seeds are
base_seed + index, and each repetition's results are folded into per-cell
arrays as they arrive, in index order, so table emission is byte-stable.
Repetition failures (rank/positivity errors on sparse tables) are counted
and excluded, never silently dropped: each cell keeps the reason of every
failed repetition in ``CellSummary.failure_reasons``, (reason, repetitions)
pairs in first-seen order that sum to ``failures``. A reason is the failing
step and the error's kind (``TableError.kind``: its message without the cell
or block it names), so the repetitions that failed the same way group
together.

The report's columns are stated once, in one column table (``_COLUMNS``):
the labels and counts, then each metric's CSV prefix with the statistics
that are ``MetricSummary``'s fields. The CSV header, every CSV row and
``parse_report_csv`` read it, and ``emit_tables`` renders each metric's text
table with one loop over its two blocks, "mean (se)" then "[rmse]".
``ExperimentReport.to_json`` writes the config and, per cell, the same row
(``_row``) keyed by ``_COLUMNS``, NaN as null, with the cell's failure
reasons. ``identify_check`` passes a deviation from the Oracle density up to
``IDENTIFY_TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache, partial

import numpy as np

from . import identify
from .bridges import DEFAULT_PSEUDO_SEED, BridgeSet, pseudo_bridges, solve_bridges, verify_bridges
from .dgp import (CANONICAL_ORDER, DgpParams, optimal_value, oracle_density_from_joint, sample_counts, sum_hidden,
                  true_joint, true_values)
from .estimators import (
    ALL_METHODS,
    FitOptions,
    count_pmf,
    fit_counts,
    fit_off_fold,
    fold_counts,
    sra_from_conditional,
)
from .policy import enumerate_class
from .tables import _json_object, by_law

EPSILON = 1e-10  # values below this render as "<eps"

SCENARIO_PSEUDO = {
    "all-correct": (),
    "m0-correct": ("q11", "q22"),
    "m1-correct": ("h21", "q22"),
    "m2-correct": ("h22", "h21"),
    "all-wrong": ("h22", "h21", "q11", "q22"),
}

BRIDGE_METHODS = identify.METHODS

# (piece table, bridges) -> IdentifiedDensity, per bridge method: the one call site of each identification
_DENSITY_FN = {method: partial(identify.density_from_pieces, method) for method in BRIDGE_METHODS}


@dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[str, ...] = tuple(SCENARIO_PSEUDO)
    methods: tuple[str, ...] = ALL_METHODS
    optimizer: str = "value-max"
    n: int = 35000
    reps: int = 20
    base_seed: int = 20240601
    pseudo_seed: int = DEFAULT_PSEUDO_SEED
    folds: int = 1
    laplace: float = 0.0
    regime_class: str = "linear"

    def __post_init__(self):
        for name in ("scenarios", "methods"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"config field {name!r} must be a list of names, got {value!r}")
        for name in ("n", "reps", "base_seed", "pseudo_seed", "folds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"config field {name!r} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if isinstance(self.laplace, bool) or not isinstance(self.laplace, numbers.Real):
            raise ValueError(f"config field 'laplace' must be a number, got {self.laplace!r}")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "methods", tuple(m.upper() for m in self.methods))
        for name in ("scenarios", "methods"):
            names = getattr(self, name)
            if not names or len(set(names)) < len(names):
                raise ValueError(f"config field {name!r} must name one or more distinct {name}, got {list(names)}")
        for scenario in self.scenarios:
            if scenario not in SCENARIO_PSEUDO:
                raise ValueError(f"unknown scenario {scenario!r}")
        for method in self.methods:
            if method not in ALL_METHODS:
                raise ValueError(f"unknown method {method!r}")
        if self.optimizer not in ("value-max", "q-learning"):
            raise ValueError("optimizer must be 'value-max' or 'q-learning'")
        enumerate_class(self.regime_class)  # raises on an unknown class
        if self.reps < 1 or self.n < 1:
            raise ValueError("n and reps must be >= 1")
        if not 0 <= self.base_seed <= 2 ** 64 - self.reps:
            raise ValueError(f"config field 'base_seed' must be in [0, 2**64 - reps] so that every repetition "
                             f"seed base_seed + rep is below 2**64, got {self.base_seed} with reps = {self.reps}")
        if self.pseudo_seed < 0:
            raise ValueError(f"config field 'pseudo_seed' must be >= 0, got {self.pseudo_seed}")
        if self.folds > self.n:
            raise ValueError(f"{self.folds} folds need at least {self.folds} rows, got n = {self.n}")
        FitOptions(self.folds, self.laplace)  # raises on a bad folds or laplace

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**_json_object(text, "config", cls))


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    se: float
    rmse: float


@dataclass(frozen=True)
class CellSummary:
    scenario: str
    method: str
    count: int
    failures: int
    regret: MetricSummary
    overall_error: MetricSummary
    failure_reasons: tuple[tuple[str, int], ...] = ()  # (reason, repetitions), first seen first


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple[CellSummary, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        """The config and, per cell, its CSV columns (NaN as null) and its
        failure reasons as [reason, repetitions] pairs."""
        cells = [{**{name: None if isinstance(v, float) and np.isnan(v) else v
                     for name, v in zip(_COLUMNS, _row(self.config, c))},
                  "failure_reasons": c.failure_reasons} for c in self.cells]
        return json.dumps({"config": vars(self.config), "cells": cells}, indent=2)

    def cell(self, scenario: str, method: str) -> CellSummary:
        for c in self.cells:
            if c.scenario == scenario and c.method == method.upper():
                return c
        raise KeyError((scenario, method))


def _summary(arr: np.ndarray) -> MetricSummary:
    if not arr.size:
        return MetricSummary(float("nan"), float("nan"), float("nan"))
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MetricSummary(float(arr.mean()), se, float(np.sqrt((arr ** 2).mean())))


class _Truth:
    """Ground-truth context shared by every repetition of an experiment: the
    class searched, every Boolean regime's true value and that class's optimum."""

    def __init__(self, params: DgpParams, regime_class: str):
        self.params = params
        self.search_class = enumerate_class(regime_class)
        self.true_values = true_values(params)  # at each Boolean index
        self.optimum = optimal_value(params, self.search_class)[0]


def _scenario_pseudo(config: ExperimentConfig) -> dict[str, BridgeSet]:
    """Each scenario's pseudo bridges, drawn once per experiment, every
    scenario holding the same array of each component; none are needed
    without a bridge method."""
    if not any(m in BRIDGE_METHODS for m in config.methods):
        return {}
    drawn = pseudo_bridges(config.pseudo_seed)
    return {tag: BridgeSet(**{name: getattr(drawn, name) for name in SCENARIO_PSEUDO[tag]},
                           provenance={name: drawn.provenance[name] for name in SCENARIO_PSEUDO[tag]})
            for tag in config.scenarios}


def _bridge_fits(observed: np.ndarray, own: np.ndarray | None,
                 config: ExperimentConfig) -> tuple[identify.PieceTable, np.ndarray, BridgeSet]:
    """(piece table, p_y0, solved bridges) of a stack of repetitions, shared
    by every scenario, from their observed counts (R, 512) and, with folds,
    each fold's own counts (R, K, 512). The piece table and p_y0 are those
    of the unsmoothed law each fit scores (``identify.observed_conditional``),
    as ``cross_fit`` reads them: the whole sample's with one fold (without
    smoothing the law ``fit_counts`` built, whose sums the table shares),
    each fold's own with more, every array then led by the repetition and
    fold axes. The bridges are fitted on the law ``laplace`` smooths, with
    folds on the off-fold counts (``fit_off_fold``).
    """
    opts = FitOptions(folds=config.folds, laplace=config.laplace)
    if own is None:
        law, solved = fit_counts(observed, opts)
        law = law if config.laplace == 0 else count_pmf(observed)
    else:
        solved = fit_off_fold(observed[:, None] - own, opts)
        law = count_pmf(own)
    return (*identify.observed_conditional(law), solved)


def _bridge_densities(fits, merged: dict[tuple, BridgeSet]) -> list[np.ndarray]:
    """Each bridge density of ``merged`` (key -> its scenario's pseudo
    bridges, swapped into the fit), identified through the stack's piece
    table for every repetition and fold at once."""
    pieces, _, solved = fits
    return [_DENSITY_FN[method](pieces, solved.merged(b)).g for (method, _), b in merged.items()]


def _fold_average(densities: list[np.ndarray], p_y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, p_y0) of a stack of repetitions' densities, g (R, D, 2, 2, 2, 2, 2)
    and p_y0 (R, 2): with folds, every density's fold tables averaged in
    fold order with P(y0) weights, as one stack; both give the bits of
    averaging each density alone."""
    g = np.stack(densities, axis=-6)
    if p_y0.ndim == 2:
        return g, p_y0
    folds = p_y0.shape[1]
    p_bar = sum(np.moveaxis(p_y0, 1, 0)) / folds
    g_bar = sum(np.moveaxis(g * p_y0[:, :, None, None, None, None, None, :], 1, 0)) / folds
    return g_bar / p_bar[:, None, None, None, None, None, :], p_bar


def _baseline_table(cells: np.ndarray, observed: np.ndarray, config: ExperimentConfig, method: str,
                    whole=None) -> tuple[np.ndarray, np.ndarray]:
    """(g, p_y0) of SRA or the Oracle for a stack of repetitions, each read
    off its law, smoothed by ``laplace``: SRA's is ``whole``, the one-fold
    fit's law, when the fit built it, else the law of the observed counts;
    the Oracle's that of the 2^11 cell counts, hidden columns included."""
    if method == "SRA":
        law, density = (count_pmf(observed, config.laplace) if whole is None else whole), sra_from_conditional
    else:
        law, density = count_pmf(cells, config.laplace, CANONICAL_ORDER), oracle_density_from_joint
    return density(law).g, law.marginal(("Y0",))


def _class_scores(truth: _Truth, g: np.ndarray, p_y0: np.ndarray, optimizer: str) -> list[tuple[float, float]]:
    """(regret, overall error) of the regime ``identify.pick`` picks under
    each of a stack of densities (D, 2, 2, 2, 2, 2) with P(y0) (D, 2), over
    the searched class's representatives (the class's own pick), scored
    against its true value and the class optimum."""
    chosen, estimated = identify.pick(g, p_y0, truth.search_class.representatives, optimizer)
    regret = truth.optimum - truth.true_values[chosen]
    return list(zip(regret.tolist(), np.abs(truth.optimum - estimated).tolist()))


def _scores(truth: _Truth, tables: list[dict], optimizer: str) -> list[dict]:
    """Each repetition's densities' (regret, overall error), or failure
    messages. Every density of every repetition is picked as one stack, run
    ``by_law`` over the densities, so a density that fails is charged alone,
    with the message it gets alone."""
    scores = [dict(entries) for entries in tables]
    fitted = [(entries, key) for entries in scores for key, entry in entries.items() if not isinstance(entry, str)]
    if fitted:
        g, p_y0 = (np.stack(arrays) for arrays in zip(*(entries[key] for entries, key in fitted)))
        live, picked, failed = by_law(lambda live: _class_scores(truth, g[live], p_y0[live], optimizer), len(fitted))
        outcomes = {**{j: f"scoring failed: {err.kind}" for j, err in failed.items()}, **dict(zip(live, picked or ()))}
        for j, (entries, key) in enumerate(fitted):
            entries[key] = outcomes[j]
    return scores


def _counts(config: ExperimentConfig, params: DgpParams, rep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """What a pass reads of repetition ``rep``'s sample: its 2^11 cell counts
    (``sample_counts`` at seed base_seed + rep), its 2^9 observed counts and,
    with folds, each fold's own observed counts."""
    seed = config.base_seed + rep
    cells = sample_counts(params, config.n, seed)
    observed = sum_hidden(cells)
    own = fold_counts(observed, seed, config.folds)[0] if config.folds > 1 else None
    return cells, observed, own


SUB_STACK = 4  # with folds, the most repetitions one fit and its piece table hold


def _density_keys(config: ExperimentConfig) -> dict[tuple[str, str], tuple]:
    """(scenario, method) -> its density's key, (method, replaced components)."""
    return {(tag, method): (method, tuple(c for c in identify.BRIDGES_NEEDED.get(method, ())
                                          if c in SCENARIO_PSEUDO[tag]))
            for tag in config.scenarios for method in config.methods}


def _steps(config: ExperimentConfig, reps: int) -> list[tuple]:
    """The steps of a pass over ``reps`` repetitions, each (method name,
    *arguments): with one fold the fit, then one identification per distinct
    bridge density; with folds, per sub-stack of at most ``SUB_STACK``
    repetitions the fit and two halves of the densities; then the scoring.
    Without a bridge method, the scoring alone."""
    keys = list(dict.fromkeys(key for key in _density_keys(config).values() if key[0] in BRIDGE_METHODS))
    if config.folds == 1:
        subs, groups = [slice(None)], [[key] for key in keys]
    else:
        subs = [slice(start, start + SUB_STACK) for start in range(0, reps, SUB_STACK)]
        groups = [keys[:(len(keys) + 1) // 2], keys[(len(keys) + 1) // 2:]]
    fits = [step for sub in subs if keys for step in [("_fit", sub)] + [("_identify", group) for group in groups]]
    return fits + [("_score",)]


def block_length(config: ExperimentConfig) -> int:
    """Repetitions per block: the most whose pass has as many steps, so that
    each call of the next block runs one. 15 at the default config (the fit,
    13 identifications and the scoring), 13 with folds (sub-stacks of 4, 4, 4
    and 1, three steps each, and the scoring), 1 without a bridge method."""
    return max(reps for reps in range(1, 64) if len(_steps(config, reps)) == reps)


class _Pass:
    """The stacked pass over the counts of a block of repetitions, run one
    step at a time (``steps``, built from the config by ``_steps``): the fit,
    the identification of the bridge densities, whose last step averages the
    folds, then SRA, the Oracle and the scoring. With folds the fit and the
    identification run per sub-stack of at most ``SUB_STACK`` repetitions,
    each on its own piece table, dropped before the next sub-stack's fit.
    Every array is led by a repetition axis.

    Each distinct (method, replaced components) density of a repetition is
    keyed once (``density_of``) and computed once. The fit and each baseline
    run ``by_law`` over their repetitions, and the scoring over every
    density of the block as one stack (``_scores``): a repetition or density
    that fails is dropped with its failure reason and the rest rerun without
    it, so only it is charged, with the reason it gets alone.
    """

    def __init__(self, config: ExperimentConfig, truth: _Truth, pseudo: dict[str, BridgeSet],
                 reps: tuple[int, ...], counts: tuple[tuple, ...]):
        self.config, self.truth, self.pseudo, self.reps = config, truth, pseudo, reps
        self.cells, self.observed, self.own = (None if arrays[0] is None else np.stack(arrays)
                                               for arrays in zip(*counts))
        self.density_of = _density_keys(config)
        # each bridge density's pseudo bridges: the scenarios that replace its components hold the same arrays
        self.merged = {key: pseudo[tag] for (tag, method), key in self.density_of.items() if method in BRIDGE_METHODS}
        # per repetition: density -> (g, p_y0) or its failure reason, first seen first
        self.tables = [dict.fromkeys(self.density_of.values()) for _ in reps]
        self.fits = self.densities = self.whole = self.live = None  # live: the repetitions the fit kept
        self.results = []  # per repetition: (scenario, method) -> scores or failure reason
        self.steps = _steps(config, len(reps))
        self.done = 0  # steps run

    def _by_rep(self, fn, keys, sub=slice(None)) -> tuple[np.ndarray, object]:
        """``by_law`` of ``fn`` over the block's repetitions ``sub``: the
        live ones and ``fn``'s result on them; each dropped one's ``keys``
        get its failure reason."""
        index = np.arange(len(self.reps))[sub]
        live, result, failed = by_law(lambda live: fn(index[live]), len(index))
        for i, err in failed.items():
            self.tables[index[i]].update(dict.fromkeys(keys, f"fit failed: {err.kind}"))
        return index[live], result

    def _fit(self, sub: slice):
        self.live, self.fits = self._by_rep(
            lambda live: _bridge_fits(self.observed[live], None if self.own is None else self.own[live],
                                      self.config), self.merged, sub)
        self.densities = []

    def _identify(self, keys: list[tuple]):
        """The bridge densities ``keys`` of the repetitions the fit kept; after
        the last, each one's fold-averaged tables, and the piece table is
        dropped (with one fold and no smoothing SRA keeps the fit's law,
        ``whole``, a stack over the repetitions the fit kept)."""
        if self.fits is None:
            return
        self.densities += _bridge_densities(self.fits, {key: self.merged[key] for key in keys})
        if len(self.densities) == len(self.merged):
            pieces, p_y0, _ = self.fits
            g, p_y0 = _fold_average(self.densities, p_y0)
            for i, g_rep, p_rep in zip(self.live, g, p_y0):
                self.tables[i].update({key: (g_d, p_rep) for key, g_d in zip(self.merged, g_rep)})
            self.whole = pieces.law if self.own is None and self.config.laplace == 0 else None
            self.fits = self.densities = None

    def _score(self):
        for method in ("SRA", "ORACLE"):
            if method in self.config.methods:
                live, table = self._by_rep(
                    lambda live: _baseline_table(self.cells[live], self.observed[live], self.config, method,
                                                 self.whole if np.array_equal(live, self.live) else None),
                    [(method, ())])
                for j, i in enumerate(live):
                    self.tables[i][(method, ())] = (table[0][j], table[1][j])
        self.results = [{cell: scores[key] for cell, key in self.density_of.items()}
                        for scores in _scores(self.truth, self.tables, self.config.optimizer)]

    def step(self) -> None:
        """Run the next step."""
        name, *args = self.steps[self.done]
        getattr(self, name)(*args)
        self.done += 1

    def finish(self) -> list[dict]:
        """Each repetition's per-cell results, in index order, once the steps left have run."""
        while self.done < len(self.steps):
            self.step()
        return self.results


def _run_rep(config: ExperimentConfig, truth: _Truth, rep: int, blocks: _Blocks) -> list[dict]:
    """Repetition ``rep``'s call in the grid's pipeline: its counts drawn
    (``_counts``), then one step of the previous block's pass; returns the
    per-cell results (errors per cell) of each repetition that finished, in
    index order."""
    return blocks.add(rep, _counts(config, truth.params, rep))


_law = cache(DgpParams.default)  # the law every grid samples and scores against, built once


@cache
def _truth(regime_class: str) -> _Truth:
    return _Truth(_law(), regime_class)


def _truth_context(config: ExperimentConfig) -> _Truth:
    """The ground truth of the class ``config``'s optimizer searches (the
    Boolean class for Q-learning), built once and kept on the one law
    (``_law``)."""
    return _truth("all-boolean" if config.optimizer == "q-learning" else config.regime_class)


class _Blocks:
    """The grid's pipeline: each call of ``_run_rep`` adds its own
    repetition's counts to the block being filled, then runs one step of
    the previous block's stacked pass.

    A block is ``block_length(config)`` repetitions, one per step, so a
    block's pass ends in the call that completes the next block, which then
    starts its own; the last call also finishes the final block.
    """

    def __init__(self, config: ExperimentConfig, truth: _Truth, pseudo: dict[str, BridgeSet]):
        self.config, self.truth, self.pseudo = config, truth, pseudo
        self.length = block_length(config)
        self.block = []  # (rep, counts) of the block being filled
        self.running = None  # the previous block's pass

    def add(self, rep: int, counts: tuple) -> list[dict]:
        """Add repetition ``rep``'s counts to its block and run one step of
        the previous block's pass; the results of every repetition finished."""
        self.block.append((rep, counts))
        if self.running is not None:
            self.running.step()
        last = rep + 1 == self.config.reps
        if len(self.block) < self.length and not last:
            return []
        done = [] if self.running is None else self.running.finish()  # at a full block its last step has just run
        self.running, self.block = _Pass(self.config, self.truth, self.pseudo, *zip(*self.block)), []
        return done + self.running.finish() if last else done


def _rep_results(config: ExperimentConfig, truth: _Truth):
    """Each repetition's per-cell results, in index order, from the
    pipeline (``_Blocks``)."""
    blocks = _Blocks(config, truth, _scenario_pseudo(config))
    for rep in range(config.reps):
        yield from _run_rep(config, truth, rep, blocks)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full grid and aggregate regret / overall error per cell."""
    truth = _truth_context(config)
    keys = [(tag, method) for tag in config.scenarios for method in config.methods]
    scores = np.zeros((len(keys), 2, config.reps))  # [cell, (regret, overall error), rep]
    scored = np.zeros((len(keys), config.reps), dtype=bool)
    reasons = [Counter() for _ in keys]  # failure reason -> repetitions, in first-seen order
    for rep, results in enumerate(_rep_results(config, truth)):
        for i, key in enumerate(keys):
            if isinstance(results[key], str):
                reasons[i][results[key]] += 1
            else:
                scores[i, :, rep] = results[key]
                scored[i, rep] = True
    cells = []
    for i, (tag, method) in enumerate(keys):
        regret, overall = scores[i][:, scored[i]]
        count = int(scored[i].sum())
        cells.append(CellSummary(tag, method, count, config.reps - count,
                                 _summary(regret), _summary(overall), tuple(reasons[i].items())))
    return ExperimentReport(config, tuple(cells))


# The report's columns in CSV order, stated once: a cell's labels and counts,
# read by name off the cell or its config, then each metric's statistics (the
# fields of ``MetricSummary``) under the metric's CSV prefix.
_LABELS = ("scenario", "method", "optimizer")
_COUNTS = ("n", "reps", "count", "failures")
_METRICS = (("regret", "regret", "Regret"), ("overall", "overall_error", "Overall error"))  # (prefix, field, title)
_STATS = tuple(f.name for f in fields(MetricSummary))
_FLOATS = tuple(f"{prefix}_{stat}" for prefix, _, _ in _METRICS for stat in _STATS)
_COLUMNS = _LABELS + _COUNTS + _FLOATS


def _row(config: ExperimentConfig, cell: CellSummary) -> list:
    """The cell's values in ``_COLUMNS`` order, as the CSV and ``to_json`` write them."""
    source = {**vars(config), **vars(cell)}
    return ([source[name] for name in _LABELS + _COUNTS]
            + [getattr(getattr(cell, name), stat) for _, name, _ in _METRICS for stat in _STATS])


def _fmt(value: float) -> str:
    if np.isnan(value):
        return "nan"
    if abs(value) < EPSILON:
        return "<eps"
    return f"{value:.4f}"


def emit_tables(report: ExperimentReport) -> tuple[str, str]:
    """(csv, aligned_text). CSV keeps raw numbers so it round-trips; the
    text tables apply the sub-epsilon rendering convention. Each metric's
    text table has two blocks of one row per scenario: "mean (se)", then
    "[rmse]"."""
    config = report.config
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(_row(config, c) for c in report.cells)

    present = {c.scenario for c in report.cells}
    tags = [t for t in config.scenarios if t in present]
    blocks = ((f"{_LABELS[0]:<14}" + "".join(f"{m:>18}" for m in config.methods),
               lambda s: f"{_fmt(s.mean)} ({_fmt(s.se)})"),
              (f"{'  [rmse]':<14}", lambda s: _fmt(s.rmse)))
    lines = []
    for _, name, title in _METRICS:
        lines.append(f"{title} ({config.optimizer}, n={config.n}, reps={config.reps})")
        for header, render in blocks:
            lines.append(header)
            lines += [f"{tag:<14}" + "".join(f"{render(getattr(report.cell(tag, m), name)):>18}"
                                             for m in config.methods) for tag in tags]
        lines.append("")
    return buf.getvalue(), "\n".join(lines)


def parse_report_csv(text: str) -> list[dict]:
    """Inverse of the CSV side of ``emit_tables`` (numbers parsed back)."""
    convert = dict.fromkeys(_COUNTS, int) | dict.fromkeys(_FLOATS, float)
    return [{key: convert[key](value) if key in convert else value for key, value in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


@dataclass(frozen=True)
class IdentifyCheckResult:
    deviations: dict
    residuals_pass: bool
    tolerance: float
    passed: bool
    bridges: object = None
    densities: dict | None = None


IDENTIFY_TOL = 1e-9  # the largest deviation from the Oracle density that ``identify_check`` passes


def identify_check(params: DgpParams | None = None, pseudo: tuple[str, ...] = (),
                   pseudo_seed: int = DEFAULT_PSEUDO_SEED) -> IdentifyCheckResult:
    """End-to-end identification diagnostic on the exact law.

    Solves bridges from the true joint table (optionally corrupting some
    components), identifies the potential-outcome density all four ways, and
    compares each to the hidden-confounder standardization oracle.
    """
    params = params or DgpParams.default()
    joint = true_joint(params)
    bridges_hat = solve_bridges(joint, provenance="solved-from-truth")
    if pseudo:
        bridges_hat = bridges_hat.merged(pseudo_bridges(pseudo_seed, pseudo))
    oracle_g = oracle_density_from_joint(joint).g
    pieces = identify.observed_conditional(joint)[0]
    densities = {method: fn(pieces, bridges_hat) for method, fn in _DENSITY_FN.items()}
    deviations = {method: float(np.abs(d.g - oracle_g).max()) for method, d in densities.items()}
    passed = all(dev <= IDENTIFY_TOL for dev in deviations.values())
    return IdentifyCheckResult(deviations, verify_bridges(bridges_hat, joint).all_passed, IDENTIFY_TOL, passed,
                               bridges_hat, densities)
