"""Monte Carlo experiment orchestration: scenarios x methods x repetitions.

One repetition samples a dataset, counts its cells once (the dataset's
2^11 count tensor feeds every table), and fits the bridges once through
``estimators.fold_fits``, whatever the fold count; the scoring law is the
law of the counts it returns, which it builds once. Cross-fitting stacks the
K folds: one bincount, one solve of the K off-fold laws and one conditioning
of the K fold laws, every array led by a fold axis. Each scoring law (the
fitted one, SRA's and the Oracle's) is conditioned on Y0 once; with one fold
SRA is handed the fitted law's conditional. Each scenario swaps its pseudo
components into the fit, broadcast over the folds.
A repetition is one pass. A bridge method's density depends on the scenario
only through the components of ``identify.BRIDGES_NEEDED[method]`` it
replaces, and a baseline's not at all, so ``_run_rep`` keys each distinct
density once, as (method, replaced components). ``_bridge_tables``
identifies every distinct bridge density (all folds at once) through one
``identify.PieceTable`` of the scoring law, so each distinct product of the
identification formula is computed once per repetition, and averages their
fold tables with P(y0) weights as one stack; both give the bits of
identifying and averaging each density alone. Each density is still
identified through its own ``_DENSITY_FN`` call. Only the fit, a baseline's
table and the scoring can fail; identifying a density after a successful fit
cannot.
A repetition's distinct densities are scored as one stack through one
function for both optimizers (``_class_scores``), which picks one Boolean
index per density. Value maximization gathers every searched class
member's value under every density in one array gather,
``dgp.class_values``, and each density picks its first maximum
(``first_maximizer``); Q-learning picks the greedy Boolean index from the
stacked Q tables (``q_learning_index``). One more ``class_values`` call
then reads each density's value of its own pick. A stack that fails to
score (a zero Q denominator) is rescored density by density, as stacks of
one, so the failure is charged to its own density only. Each
(scenario, method) cell's regime is scored two ways:

  regret         V(d*) - V(d_hat), both under the true law, where d* is the
                 optimum of the class searched (the Boolean-class optimum
                 for Q-learning)
  overall error  |V(d*) - V_hat(d_hat)|, charging the estimated value of the
                 chosen regime against the true optimum

Scenario tags, the keys of ``SCENARIO_PSEUDO`` that ``ExperimentConfig``
checks, name which submodel stays correct: the outcome-bridge pair
(m0-correct), the hybrid pair h22+q11 (m1-correct), or the treatment-bridge
pair (m2-correct); all-correct and all-wrong bracket them. The corrupted
components are replaced by pseudo bridges drawn once per experiment from a
fixed seed (``_scenario_pseudo``, handed to every repetition and pool
worker), so repetitions share one corruption. Each component comes from its
own substream and is drawn once, so scenarios that replace the same
component hold the same array, which the piece table keys once.

True values come from ``dgp.true_values``, one ``class_values`` call over
all 1024 Boolean indices under the Oracle density of the true law, the
law's one cached table; a chosen regime's true value is read at its Boolean
index, the searched class's optimum is a gather from that array at the
class's indices; both optima are maxima of those finite values. No
``Regime`` is built to score, and the truth is built once per regime class
and process (``_truth_context``).

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

``PROXIDTR_THREADS`` caps worker processes; the default is serial. Serially,
one helper process scoped to the loop of ``_rep_results`` draws the first
rows [0, split) of repetition r + 1's sample (``_draw``, through
``dgp.sample_rows``) while repetition r is fitted and scored; inside
``_run_rep`` the main process draws the rest, [split, n), waits for the
helper's rows and joins them. The helper has its own interpreter lock, so
its draw runs beside the main process's work at its solo speed. After each
repetition ``_balance`` moves the split toward the point where neither side
waits for the other, from the measured wait and slack: with one fold the
main process's own work is shorter than a whole draw and it draws about a
fifth of the rows; with five folds it is about as long and the helper draws
nearly all of them. With one repetition, or one CPU to run on, nothing can overlap and the
sample is drawn inline; a pool worker samples inline too. A block of rows is
drawn alone bit for bit and a sample depends only on its seed, so the split
moves no bit: the report is the same byte for byte at any split, inline and
on the pool. The helper is joined before ``run_experiment`` returns or
raises.

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

import contextlib
import csv
import io
import json
import numbers
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cache, partial

import numpy as np

from . import dgp, identify
from .bridges import DEFAULT_PSEUDO_SEED, BridgeSet, pseudo_bridges, solve_bridges, verify_bridges
from .dgp import DgpParams, class_values, oracle_density_from_joint, sample, true_joint, true_values
from .estimators import (
    ALL_METHODS,
    FitOptions,
    count_pmf,
    empirical_pmf,
    fold_fits,
    sra_from_conditional,
)
from .identify import q_functions
from .policy import enumerate_class, first_maximizer, q_learning_index
from .tables import TableError

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
        if self.regime_class not in ("linear", "all-boolean"):
            raise ValueError("regime_class must be 'linear' or 'all-boolean'")
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
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**payload)


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
    """Ground-truth context shared by every repetition of an experiment."""

    def __init__(self, params: DgpParams, regime_class: str):
        self.params = params
        self.search_class = enumerate_class(regime_class)
        self.true_values = true_values(params)  # at each Boolean index
        self.optimum_value = float(self.true_values[self.search_class.index].max())
        self.boolean_optimum = float(self.true_values.max())


def _attempt(step: str, fn, *args):
    """``fn(*args)``, or the failure message a cell records instead: the
    step and the error's kind, without the cell or block it names."""
    try:
        return fn(*args)
    except TableError as err:
        return f"{step} failed: {err.kind}"


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


def _bridge_fits(data, config: ExperimentConfig) -> tuple[identify.PieceTable, np.ndarray, BridgeSet]:
    """(piece table, p_y0, solved bridges), shared by every scenario, where
    the piece table and p_y0 are those of the law of the counts ``fold_fits``
    scores, conditioned on Y0 once: the whole sample's (the law ``fold_fits``
    built) with one fold, each fold's own (built here) with more, every array
    then led by the fold axis.
    """
    counts, solved, law = fold_fits(data, FitOptions(folds=config.folds, laplace=config.laplace))
    cond, p_y0 = identify.observed_conditional(count_pmf(counts, config.laplace) if law is None else law)
    return identify.PieceTable(cond), p_y0, solved


def _bridge_tables(fits, merged: dict[tuple, BridgeSet]) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """(g, p_y0) of each distinct bridge density, keyed (method, replaced
    components), with its scenario's pseudo bridges (``merged``) swapped into
    the fit: each identified for every fold at once through the repetition's
    piece table, then, with folds, the fold tables of all densities averaged
    in fold order with P(y0) weights as one stack."""
    pieces, p_y0, solved = fits
    densities = [_DENSITY_FN[method](pieces, solved.merged(b)).g for (method, _), b in merged.items()]
    if p_y0.ndim == 1:
        return {key: (g, p_y0) for key, g in zip(merged, densities)}
    p_bar = sum(p_y0) / len(p_y0)
    g_bar = sum(np.stack(densities, axis=1) * p_y0[:, None, None, None, None, None, :]) / len(p_y0)
    return {key: (g, p_bar) for key, g in zip(merged, g_bar / p_bar[None, None, None, None, :])}


def _baseline_table(data, config: ExperimentConfig, method: str, whole=None) -> tuple[np.ndarray, np.ndarray]:
    """(g, p_y0) of SRA (observed columns) or the Oracle (with hidden columns),
    each law conditioned on Y0 once. SRA reads ``whole``, the whole-sample
    law's (cond, p_y0), when the one-fold fit conditioned it."""
    if method == "SRA":
        cond, p_y0 = whole or identify.observed_conditional(empirical_pmf(data, laplace=config.laplace))
        return sra_from_conditional(cond).g, p_y0
    pmf = empirical_pmf(data, laplace=config.laplace, include_hidden=True)
    return oracle_density_from_joint(pmf).g, identify.observed_conditional(pmf)[1]


def _class_scores(truth: _Truth, g: np.ndarray, p_y0: np.ndarray, optimizer: str) -> list[tuple[float, float]]:
    """(regret, overall error) of the regime picked under each of a stack of
    densities (D, 2, 2, 2, 2, 2) with P(y0) (D, 2), by value maximization over
    the searched class or greedily from the Q tables over the Boolean class.
    Each optimizer picks one Boolean index per density; both then read each
    density's value of its own pick."""
    if optimizer == "q-learning":
        optimum = truth.boolean_optimum
        chosen = q_learning_index(*q_functions(g))
    else:
        optimum, index = truth.optimum_value, truth.search_class.index
        chosen = index[first_maximizer(class_values(g, p_y0, index))]
    estimated = np.diagonal(class_values(g, p_y0, chosen))  # density d's value of its own pick chosen[d]
    regret = optimum - truth.true_values[chosen]
    return list(zip(regret.tolist(), np.abs(optimum - estimated).tolist()))


def _scores(truth: _Truth, tables: dict, optimizer: str) -> dict:
    """Each density's (regret, overall error), or its failure message. The
    densities of a repetition are scored as one stack; when that fails, each
    is rescored alone, as a stack of one, so only its own density is charged."""
    fitted = [key for key, entry in tables.items() if not isinstance(entry, str)]
    if not fitted:
        return tables
    g, p_y0 = (np.stack(arrays) for arrays in zip(*(tables[key] for key in fitted)))
    scores = _attempt("scoring", _class_scores, truth, g, p_y0, optimizer)
    if isinstance(scores, str):
        scores = [_attempt("scoring", lambda i: _class_scores(truth, g[i:i + 1], p_y0[i:i + 1], optimizer)[0], i)
                  for i in range(len(fitted))]
    return {**tables, **dict(zip(fitted, scores))}


def _run_rep(config: ExperimentConfig, truth: _Truth, rep: int, pseudo: dict[str, BridgeSet], drawn=None):
    """All (scenario, method) results for one repetition; errors per cell.

    ``pseudo`` holds each scenario's pseudo bridges (``_scenario_pseudo``).
    ``drawn``, when the helper process draws the sample's first rows
    (``_rep_results``), is called here: it draws the rest, waits for the
    helper's rows and returns the joined ``Dataset``. Without it the sample
    is drawn here. Each distinct (method, replaced components) density is
    keyed once, computed once (the bridge densities through one piece table
    and one fold average) and scored once.
    """
    seed = config.base_seed + rep
    data = sample(truth.params, config.n, seed) if drawn is None else drawn()
    density_of = {(tag, method): (method, tuple(c for c in identify.BRIDGES_NEEDED.get(method, ())
                                                 if c in SCENARIO_PSEUDO[tag]))
                  for tag in config.scenarios for method in config.methods}
    # each bridge density's pseudo bridges: the scenarios that replace its components hold the same arrays of them
    merged = {key: pseudo[tag] for (tag, method), key in density_of.items() if method in BRIDGE_METHODS}
    tables = dict.fromkeys(density_of.values())  # density -> (g, p_y0) or its failure reason, first seen first
    whole = None
    if merged:
        fits = _attempt("fit", _bridge_fits, data, config)
        if isinstance(fits, str):
            tables.update(dict.fromkeys(merged, fits))
        else:
            tables.update(_bridge_tables(fits, merged))
            whole = (fits[0].cond, fits[1]) if config.folds == 1 else None
    tables.update({key: _attempt("fit", _baseline_table, data, config, key[0], whole)
                   for key in tables if key not in merged})
    scores = _scores(truth, tables, config.optimizer)
    return {cell: scores[key] for cell, key in density_of.items()}


def _worker(args):
    config, rep, pseudo = args
    return _run_rep(config, _truth_context(config), rep, pseudo)


@cache
def _truth(regime_class: str) -> _Truth:
    return _Truth(DgpParams.default(), regime_class)


def _truth_context(config: ExperimentConfig) -> _Truth:
    """The ground truth of ``config``'s regime class, built once per process."""
    return _truth(config.regime_class)


def worker_count() -> int:
    raw = os.environ.get("PROXIDTR_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _draw(regime_class: str, n: int, seed: int, stop: int) -> tuple[np.ndarray, float, float]:
    """Rows [0, stop) of a repetition's sample as cell codes, drawn in the
    helper process, with its ``time.perf_counter()`` readings at the draw's
    start and end (the system-wide monotonic clock, which forked processes
    share).

    Codes cross the process boundary, never a pickled ``Dataset``, whose
    read-only lock does not survive unpickling; the main process joins them
    to its own rows [stop, n).
    """
    began = time.perf_counter()
    return dgp.sample_rows(_truth(regime_class).params, n, seed, 0, stop), began, time.perf_counter()


def _balance(split: float, n: int, waited: float, slack: float, head: tuple[int, float],
             tail: tuple[int, float]) -> float:
    """The helper's next share of a sample's rows: ``split`` moved by a
    quarter of the rows that would have balanced this repetition, clipped
    to [0, n].

    ``waited`` is how long the main process blocked on the helper's rows,
    ``slack`` how long they sat finished before it asked; ``head`` and
    ``tail`` are the (rows, seconds) each side drew. A row moved from the
    helper to the main process shortens the wait by about two rows' cost,
    read from the side that drew more rows, so that it is known at either
    end of [0, n]. A repetition's timings reach the helper one repetition
    late (see ``_rep_results``), and with that lag a quarter step settles
    fastest without overshoot (the loop's two poles meet at 0.5). A half
    step oscillates and follows each repetition's timing noise further: on
    the one-fold grid it gave 7-10% fewer repetitions per second, losing 29
    of 30 and 16 of 20 alternating in-process runs (2-vCPU Xeon).
    """
    rows, seconds = max(head, tail)
    return min(max(split - 0.25 * (waited - slack) / (2 * seconds / rows), 0.0), float(n))


def _cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _rep_results(config: ExperimentConfig, truth: _Truth, workers: int):
    """Each repetition's per-cell results, one at a time, in index order.

    Serially, one helper process draws the first ``split`` rows of the next
    repetition's sample while this one runs, and ``drawn()``, called inside
    ``_run_rep``, draws the rest, then waits for the helper's rows; both
    sides draw through ``dgp.sample_rows``, never ``sample``, which the
    benchmark's layer hook wraps. ``split`` starts at n (the helper draws
    every row), and after each repetition but the first, whose helper rows
    had nothing to overlap, ``_balance`` moves it by that repetition's wait
    and slack. Repetition r's timings first reach repetition r + 2, as r + 1
    was handed to the helper before r ran. When nothing can overlap (one
    repetition, or one CPU) each sample is drawn inline. The helper is
    joined when the loop ends, raises or is closed. Under the default
    ``fork`` start method (Linux before Python 3.14) it is forked before the
    executor starts its own threads and inherits the imports and ``_truth``'s
    cache; under ``forkserver`` (Python 3.14) or ``spawn`` it would import
    the package and build the truth (the regime class and the true values)
    before its first draw: the first sample arrived after 0.26-0.39 s, against
    33-37 ms forked (2-vCPU Xeon, Python 3.11).
    """
    pseudo = _scenario_pseudo(config)
    if workers > 1 and config.reps > 1:
        with ProcessPoolExecutor(max_workers=min(workers, config.reps)) as pool:
            yield from pool.map(_worker, [(config, r, pseudo) for r in range(config.reps)])
    else:
        overlap = config.reps > 1 and _cpus() > 1
        with ProcessPoolExecutor(max_workers=1) if overlap else contextlib.nullcontext() as helper:
            n, split = config.n, float(config.n)  # the helper draws rows [0, split) of each sample

            def draw(rep):
                if not helper or rep == config.reps:
                    return None
                seed, stop = config.base_seed + rep, round(split)
                head = helper.submit(_draw, config.regime_class, n, seed, stop)

                def drawn():
                    nonlocal split
                    began = time.perf_counter()
                    tail = dgp.sample_rows(truth.params, n, seed, stop, n)
                    asked = time.perf_counter()
                    codes, head_began, head_done = head.result()
                    waited = time.perf_counter() - asked
                    if rep:  # repetition 0's head had nothing to overlap
                        split = _balance(split, n, waited, max(asked - head_done, 0.0),
                                         (stop, head_done - head_began), (n - stop, asked - began))
                    return dgp.Dataset(np.concatenate((codes, tail)), seed)
                return drawn

            pending = draw(0)
            for rep in range(config.reps):
                drawn, pending = pending, draw(rep + 1)
                yield _run_rep(config, truth, rep, pseudo, drawn)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full grid and aggregate regret / overall error per cell."""
    truth = _truth_context(config)
    keys = [(tag, method) for tag in config.scenarios for method in config.methods]
    scores = np.zeros((len(keys), 2, config.reps))  # [cell, (regret, overall error), rep]
    scored = np.zeros((len(keys), config.reps), dtype=bool)
    reasons = [Counter() for _ in keys]  # failure reason -> repetitions, in first-seen order
    with contextlib.closing(_rep_results(config, truth, worker_count())) as rep_results:
        for rep, results in enumerate(rep_results):
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
    pieces = identify.PieceTable(identify.observed_conditional(joint)[0])
    densities = {method: fn(pieces, bridges_hat) for method, fn in _DENSITY_FN.items()}
    deviations = {method: float(np.abs(d.g - oracle_g).max()) for method, d in densities.items()}
    passed = all(dev <= IDENTIFY_TOL for dev in deviations.values())
    return IdentifyCheckResult(deviations, verify_bridges(bridges_hat, joint).all_passed, IDENTIFY_TOL, passed,
                               bridges_hat, densities)
