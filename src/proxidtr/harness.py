"""Monte Carlo experiment orchestration: scenarios x methods x repetitions.

One repetition samples a dataset, counts its cells once (the dataset's
2^11 count tensor feeds every table), and fits the empirical law and
bridges once. Cross-fitting stacks the K folds: one bincount, one solve of
the K off-fold laws and one conditioning of the K fold laws, every array led
by a fold axis. Each scoring law (the fitted one, SRA's and the Oracle's) is
conditioned on Y0 once; with one fold SRA's law is the fitted law. Each
scenario swaps its pseudo components into the fit, broadcast over the folds.
A bridge method's density depends on the scenario only through the
components of ``identify.BRIDGES_NEEDED[method]`` it replaces, and a
baseline's not at all, so each distinct density is identified (all folds at
once, then averaged with P(y0) weights) and scored once per repetition.
A repetition's distinct densities are scored as one stack through one
function for both optimizers (``_class_scores``). Value maximization
gathers every searched class member's value under every density in one
array gather, ``dgp.class_values``, and each density picks its first
maximum (``first_maximizer``). Q-learning picks the greedy Boolean index
from the stacked Q tables (``q_learning_index``) and gathers only that
member's four density cells, summed as ``class_values`` sums them. A stack
that fails to score (a zero Q denominator) is rescored density by density,
as stacks of one, so the failure is charged to its own density only. Each
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
own substream, so scenarios that replace the same component get the same table.

True values come from one array over the 1024-member Boolean class,
computed once per experiment; a chosen regime's true value is read at its
Boolean index, and both optima are gathers from that array at the searched
class's indices. No ``Regime`` is built to score.

Everything is deterministic in the config: repetition seeds are
base_seed + index, and each repetition's results are folded into per-cell
arrays as they arrive, in index order, so table emission is byte-stable.
Repetition failures (rank/positivity errors on sparse tables) are counted
and excluded, never silently dropped. ``PROXIDTR_THREADS`` caps worker
processes; the default is serial.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import identify
from .bridges import DEFAULT_PSEUDO_SEED, BridgeSet, MissingBridgeError, pseudo_bridges, solve_bridges, verify_bridges
from .dgp import (
    DgpParams,
    class_values,
    marginal_y0,
    oracle_density_from_joint,
    sample,
    true_joint,
)
from .estimators import (
    ALL_METHODS,
    FitOptions,
    count_pmf,
    empirical_pmf,
    fit_bridges,
    fold_fits,
    oracle_density,
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

# (cond, bridges) -> IdentifiedDensity, per bridge method
_DENSITY_FN = {method: partial(identify.density_from_conditional, method) for method in BRIDGE_METHODS}


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


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple[CellSummary, ...] = field(default_factory=tuple)

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
        joint = true_joint(params)
        self.p_y0 = marginal_y0(joint)
        self.oracle_g = oracle_density_from_joint(joint).g
        self.search_class = enumerate_class(regime_class)
        self.boolean_class = enumerate_class("all-boolean")  # Q-learning's class: member k is Boolean index k
        self.true_values = class_values(self.oracle_g, self.p_y0, self.boolean_class)  # (1024,)
        searched = self.true_values[self.search_class.index]
        self.optimum_value = float(searched[first_maximizer(searched)])
        self.boolean_optimum = float(self.true_values[first_maximizer(self.true_values)])


def _attempt(step: str, fn, *args):
    """``fn(*args)``, or the failure message a cell records instead."""
    try:
        return fn(*args)
    except (TableError, MissingBridgeError) as err:
        return f"{step} failed: {err}"


def _scenario_pseudo(config: ExperimentConfig) -> dict[str, BridgeSet]:
    """Each scenario's pseudo bridges, drawn once per experiment; none are
    needed without a bridge method."""
    if not any(m in BRIDGE_METHODS for m in config.methods):
        return {}
    return {tag: pseudo_bridges(config.pseudo_seed, SCENARIO_PSEUDO[tag]) for tag in config.scenarios}


def _bridge_fits(data, config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, BridgeSet]:
    """(cond, p_y0, solved bridges), shared by every scenario, where (cond,
    p_y0) is the scoring law conditioned on Y0, computed once.

    With one fold the law and the bridges come from the whole sample; with
    more, each fold's own rows are scored with bridges fitted on the other
    folds, and all three lead with the fold axis.
    """
    opts = FitOptions(folds=config.folds, laplace=config.laplace)
    if config.folds == 1:
        pmf, solved = fit_bridges(data, opts)
    else:
        own, solved = fold_fits(data, opts)
        pmf = count_pmf(own, config.laplace)
    return (*identify.observed_conditional(pmf), solved)


def _bridge_table(fits, pseudo: BridgeSet, method: str) -> tuple[np.ndarray, np.ndarray]:
    """(g, p_y0) of one bridge method with one scenario's pseudo bridges
    swapped in, identified for every fold at once; fold tables are averaged
    in fold order with P(y0) weights."""
    cond, p_y0, solved = fits
    g = _DENSITY_FN[method](cond, solved.merged(pseudo)).g
    if p_y0.ndim == 1:
        return g, p_y0
    p_bar = sum(p_y0) / len(p_y0)
    g_bar = sum(g * p_y0[:, None, None, None, None, :]) / len(p_y0)
    return g_bar / p_bar[None, None, None, None, :], p_bar


def _baseline_table(data, config: ExperimentConfig, method: str, fits=None) -> tuple[np.ndarray, np.ndarray]:
    """(g, p_y0) of SRA (observed columns) or the Oracle (with hidden columns),
    each law conditioned on Y0 once. With one fold, SRA reads the whole-sample
    law that ``_bridge_fits`` conditioned, when ``fits`` holds it."""
    if method == "SRA":
        if config.folds == 1 and isinstance(fits, tuple):
            cond, p_y0, _ = fits
        else:
            cond, p_y0 = identify.observed_conditional(empirical_pmf(data, laplace=config.laplace))
        return sra_from_conditional(cond).g, p_y0
    pmf = empirical_pmf(data, laplace=config.laplace, include_hidden=True)
    return oracle_density(pmf).g, identify.observed_conditional(pmf)[1]


def _class_scores(truth: _Truth, g: np.ndarray, p_y0: np.ndarray, optimizer: str) -> list[tuple[float, float]]:
    """(regret, overall error) of the regime picked under each of a stack of
    densities (D, 2, 2, 2, 2, 2) with P(y0) (D, 2), by value maximization over
    the searched class or greedily from the Q tables over the Boolean class.
    Value maximization gathers every member's estimated value and picks a
    column; Q-learning picks first and gathers only the picked member's cells."""
    if optimizer == "q-learning":
        cls, optimum = truth.boolean_class, truth.boolean_optimum
        best = q_learning_index(*q_functions(g))
        # only the picked member's four cells of each density, added in class_values' order
        terms = p_y0[:, [0, 0, 1, 1]] * np.take_along_axis(g.reshape(len(g), -1), cls.density_index[:, best].T, 1)
        estimated = ((terms[:, 0] + terms[:, 1]) + terms[:, 2]) + terms[:, 3]
    else:
        cls, optimum = truth.search_class, truth.optimum_value
        values = class_values(g, p_y0, cls)  # (D, K)
        best = first_maximizer(values)
        estimated = np.take_along_axis(values, best[:, None], 1)[:, 0]
    regret = optimum - truth.true_values[cls.index[best]]
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


def _run_rep(config: ExperimentConfig, truth: _Truth, rep: int, pseudo: dict[str, BridgeSet]):
    """All (scenario, method) results for one repetition; errors per cell.

    ``pseudo`` holds each scenario's pseudo bridges (``_scenario_pseudo``).
    Each distinct (method, replaced components) density is identified and
    scored once.
    """
    data = sample(truth.params, config.n, config.base_seed + rep)
    bridged = any(m in BRIDGE_METHODS for m in config.methods)
    fits = _attempt("fit", _bridge_fits, data, config) if bridged else None
    tables: dict[tuple, tuple[np.ndarray, np.ndarray] | str] = {}
    density_of: dict[tuple[str, str], tuple] = {}
    for tag in config.scenarios:
        for method in config.methods:
            key = (method, tuple(c for c in identify.BRIDGES_NEEDED.get(method, ()) if c in SCENARIO_PSEUDO[tag]))
            if key not in tables:
                if method not in BRIDGE_METHODS:
                    tables[key] = _attempt("fit", _baseline_table, data, config, method, fits)
                else:
                    tables[key] = fits if isinstance(fits, str) else _attempt("fit", _bridge_table, fits, pseudo[tag], method)
            density_of[(tag, method)] = key
    scores = _scores(truth, tables, config.optimizer)
    return {cell: scores[key] for cell, key in density_of.items()}


def _worker(args):
    config, rep, pseudo = args
    truth = _truth_context(config)
    return _run_rep(config, truth, rep, pseudo)


_TRUTH_CACHE: dict[tuple, _Truth] = {}


def _truth_context(config: ExperimentConfig) -> _Truth:
    key = (config.regime_class,)
    if key not in _TRUTH_CACHE:
        _TRUTH_CACHE[key] = _Truth(DgpParams.default(), config.regime_class)
    return _TRUTH_CACHE[key]


def worker_count() -> int:
    raw = os.environ.get("PROXIDTR_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _rep_results(config: ExperimentConfig, truth: _Truth, workers: int):
    """Each repetition's per-cell results, one at a time, in index order."""
    pseudo = _scenario_pseudo(config)
    if workers > 1 and config.reps > 1:
        with ProcessPoolExecutor(max_workers=min(workers, config.reps)) as pool:
            yield from pool.map(_worker, [(config, r, pseudo) for r in range(config.reps)])
    else:
        for rep in range(config.reps):
            yield _run_rep(config, truth, rep, pseudo)


def run_experiment(config: ExperimentConfig, params: DgpParams | None = None) -> ExperimentReport:
    """Run the full grid and aggregate regret / overall error per cell."""
    truth = _Truth(params, config.regime_class) if params is not None else _truth_context(config)
    # worker processes rebuild the default-law context; custom laws run serially
    workers = worker_count() if params is None else 1
    keys = [(tag, method) for tag in config.scenarios for method in config.methods]
    scores = np.zeros((len(keys), 2, config.reps))  # [cell, (regret, overall error), rep]
    scored = np.zeros((len(keys), config.reps), dtype=bool)
    for rep, results in enumerate(_rep_results(config, truth, workers)):
        for i, key in enumerate(keys):
            if not isinstance(results[key], str):
                scores[i, :, rep] = results[key]
                scored[i, rep] = True
    cells = []
    for i, (tag, method) in enumerate(keys):
        regret, overall = scores[i][:, scored[i]]
        count = int(scored[i].sum())
        cells.append(CellSummary(tag, method, count, config.reps - count,
                                 _summary(regret), _summary(overall)))
    return ExperimentReport(config, tuple(cells))


def _fmt(value: float) -> str:
    if np.isnan(value):
        return "nan"
    if abs(value) < EPSILON:
        return "<eps"
    return f"{value:.4f}"


def emit_tables(report: ExperimentReport) -> tuple[str, str]:
    """(csv, aligned_text). CSV keeps raw numbers so it round-trips; the
    text tables apply the sub-epsilon rendering convention."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "scenario", "method", "optimizer", "n", "reps", "count", "failures",
        "regret_mean", "regret_se", "regret_rmse",
        "overall_mean", "overall_se", "overall_rmse",
    ])
    for c in report.cells:
        writer.writerow([
            c.scenario, c.method, report.config.optimizer, report.config.n,
            report.config.reps, c.count, c.failures,
            repr(c.regret.mean), repr(c.regret.se), repr(c.regret.rmse),
            repr(c.overall_error.mean), repr(c.overall_error.se), repr(c.overall_error.rmse),
        ])
    csv_text = buf.getvalue()

    methods = list(report.config.methods)
    present = {(c.scenario, c.method) for c in report.cells}
    tags = [t for t in report.config.scenarios if any(s == t for s, _ in present)]
    lines = []
    for metric, title in (("regret", "Regret"), ("overall_error", "Overall error")):
        lines.append(f"{title} ({report.config.optimizer}, n={report.config.n}, reps={report.config.reps})")
        header = f"{'scenario':<14}" + "".join(f"{m:>18}" for m in methods)
        lines.append(header)
        for tag in tags:
            row = f"{tag:<14}"
            for m in methods:
                c = report.cell(tag, m)
                block = getattr(c, metric)
                row += f"{_fmt(block.mean) + ' (' + _fmt(block.se) + ')':>18}"
            lines.append(row)
        lines.append(f"{'  [rmse]':<14}" + "")
        for tag in tags:
            row = f"{tag:<14}"
            for m in methods:
                c = report.cell(tag, m)
                row += f"{_fmt(getattr(c, metric).rmse):>18}"
            lines.append(row)
        lines.append("")
    return csv_text, "\n".join(lines)


def parse_report_csv(text: str) -> list[dict]:
    """Inverse of the CSV side of ``emit_tables`` (numbers parsed back)."""
    rows = []
    reader = csv.DictReader(io.StringIO(text))
    for raw in reader:
        row = dict(raw)
        for key in ("n", "reps", "count", "failures"):
            row[key] = int(row[key])
        for key in ("regret_mean", "regret_se", "regret_rmse",
                    "overall_mean", "overall_se", "overall_rmse"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


@dataclass(frozen=True)
class IdentifyCheckResult:
    deviations: dict
    residuals_pass: bool
    tolerance: float
    passed: bool
    bridges: object = None
    densities: dict | None = None


def identify_check(params: DgpParams | None = None, pseudo: tuple[str, ...] = (),
                   pseudo_seed: int = DEFAULT_PSEUDO_SEED, tolerance: float = 1e-9) -> IdentifyCheckResult:
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
    cond, _ = identify.observed_conditional(joint)
    deviations = {}
    densities = {}
    for method, fn in _DENSITY_FN.items():
        densities[method] = fn(cond, bridges_hat)
        deviations[method] = float(np.abs(densities[method].g - oracle_g).max())
    residuals = verify_bridges(bridges_hat, joint)
    passed = all(dev <= tolerance for dev in deviations.values())
    return IdentifyCheckResult(deviations, residuals.all_passed, tolerance, passed,
                               bridges_hat, densities)
