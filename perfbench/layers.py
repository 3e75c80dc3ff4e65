"""Wrap proxidtr's layer functions where their callers look them up.

For the length of one pass, each layer function is replaced at every module
attribute, class attribute or dict entry through which the program calls it
(``harness.fit_bridges``, ``estimators.solve_bridges``,
``harness._DENSITY_FN["PMR"]``, ...) by a wrapper that records a span or a
count in a ``Recorder``. The originals are put back when the pass ends. No
source file of the program changes.

Two hook sets exist:

* operation hooks, installed on every pass, open one span per repetition
  (``harness._run_rep``) and carry a pool worker's spans back to the parent
  (``harness._worker`` and ``harness.ProcessPoolExecutor``). They give the
  per-repetition latencies of an untraced pass.
* layer hooks, installed on traced passes only. ``tables.*``,
  ``dgp.regime_value`` and ``identify.observed_conditional`` are counted, not
  timed: they run thousands of times per repetition and a span each would
  distort the times around them.

A missing attribute is skipped, so a refactor that moves a function makes its
layer read zero instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import functools

from recorder import Recorder, self_times

# the key under which a pool worker returns its spans inside a repetition's result dict
WORKER_PAYLOAD = ("perfbench", "spans")


def _sites(px) -> tuple[dict, dict]:
    """(timed, counted): layer name -> the places where callers look it up."""
    h, cli, est = px.harness, px.cli, px.estimators
    density_fn = getattr(h, "_DENSITY_FN", {})
    timed = {
        "dgp.sample": [(h, "sample")],
        "dgp.from_csv": [(px.dgp.Dataset, "from_csv")],
        "estimators.fit_bridges": [(h, "fit_bridges"), (cli, "fit_bridges"), (est, "fit_bridges")],
        "estimators.empirical_pmf": [(h, "empirical_pmf"), (est, "empirical_pmf")],
        "estimators.fold_assignments": [(est, "fold_assignments")],
        "estimators.baselines": [(h, "sra_density"), (h, "oracle_density"), (cli, "sra_value")],
        "estimators.row_estimate": [(cli, "v_hat"), (cli, "if_variance"), (cli, "cross_fit")],
        "bridges.pseudo_bridges": [(est, "pseudo_bridges")],
        "identify.density": [(density_fn, method) for method in list(density_fn)],
        "policy.enumerate_class": [(h, "enumerate_class")],
    }
    counted = {
        "tables.cond_matrix": [(px.bridges, "cond_matrix")],
        "tables.invert2or4": [(px.bridges, "invert2or4")],
        "dgp.regime_value": [(h, "regime_value"), (px.identify, "regime_value")],
        "identify.observed_conditional": [(px.identify, "observed_conditional"),
                                          (est, "observed_conditional")],
    }
    return timed, counted


class _Patches:
    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make) -> None:
        """Swap ``owner.attr`` (or ``owner[attr]``) for ``make(original)``."""
        if isinstance(owner, dict):
            if attr in owner:
                original = owner[attr]
                owner[attr] = make(original)
                self._undo.append(functools.partial(owner.__setitem__, attr, original))
            return
        original = vars(owner).get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _timed(rec: Recorder, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end()
        return wrapper
    return make


def _counted(rec: Recorder, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def _solve_bridges(rec: Recorder):
    """Timed, and counts the distinct input tables of each operation."""
    timed = _timed(rec, "bridges.solve_bridges")

    def make(fn):
        inner = timed(fn)

        @functools.wraps(fn)
        def wrapper(pmf, *args, **kwargs):
            rec.count_distinct("bridges.solve_bridges.distinct", (pmf.names, hash(pmf.mass.tobytes())))
            return inner(pmf, *args, **kwargs)
        return wrapper
    return make


def _value_maximize(rec: Recorder, equivalence_key):
    """Timed, and counts the members evaluated and their distinct on-path keys.

    The keys are computed after the span ends, once per regime class when a
    search evaluates the whole class in order, so they add little to the
    search's own time.
    """
    classes: dict[int, tuple] = {}  # id(cls) -> (cls, members, distinct keys); holding cls keeps its id unique

    def distinct_keys(cls, evaluated: list) -> int:
        entry = classes.get(id(cls))
        if entry is None:
            members = list(cls.members)
            entry = classes[id(cls)] = (cls, members, len({equivalence_key(r) for r in members}))
        if evaluated == entry[1]:
            return entry[2]
        return len({equivalence_key(r) for r in evaluated})

    def make(fn):
        @functools.wraps(fn)
        def wrapper(value_fn, cls, *args, **kwargs):
            evaluated = []

            def observed(regime):
                evaluated.append(regime)
                return value_fn(regime)

            rec.begin("policy.value_maximize")
            try:
                return fn(observed, cls, *args, **kwargs)
            finally:
                rec.end()
                rec.count("policy.value_maximize.members", len(evaluated))
                rec.count("policy.value_maximize.useful", distinct_keys(cls, evaluated))
        return wrapper
    return make


def _run_rep(rec: Recorder):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(config, truth, rep, *args, **kwargs):
            rec.begin("harness", op=rep)
            try:
                return fn(config, truth, rep, *args, **kwargs)
            finally:
                rec.end()
        return wrapper
    return make


def _worker(rec: Recorder):
    """Runs in a forked pool worker: returns the repetition's spans with its result.

    ``functools.wraps`` keeps the original's module and qualified name, so the
    pool pickles the wrapper by reference, and a forked worker, which inherits
    the patched module, finds the wrapper under that name.
    """
    def make(fn):
        @functools.wraps(fn)
        def wrapper(args):
            rep = args[1]
            mark = len(rec.spans)
            rec.begin("harness", op=rep)
            try:
                result = fn(args)
            finally:
                rec.end()
            return {**result, WORKER_PAYLOAD: rec.export(mark, rep)}
        return wrapper
    return make


def _pool(rec: Recorder):
    """A pool whose ``map`` takes the workers' spans out of each result."""
    def make(base):
        class AbsorbingPool(base):
            def map(self, fn, *iterables, **kwargs):
                return (_absorb(rec, result) for result in super().map(fn, *iterables, **kwargs))
        return AbsorbingPool
    return make


def _absorb(rec: Recorder, result):
    if isinstance(result, dict) and WORKER_PAYLOAD in result:
        rec.absorb(result.pop(WORKER_PAYLOAD))
    return result


@contextlib.contextmanager
def installed(rec: Recorder, px, layers: bool):
    """Operation hooks, plus the layer hooks when ``layers`` is true, for one pass."""
    patches = _Patches()
    try:
        patches.replace(px.harness, "_run_rep", _run_rep(rec))
        patches.replace(px.harness, "_worker", _worker(rec))
        patches.replace(px.harness, "ProcessPoolExecutor", _pool(rec))
        if layers:
            timed, counted = _sites(px)
            for name, sites in timed.items():
                for owner, attr in sites:
                    patches.replace(owner, attr, _timed(rec, name))
            for name, sites in counted.items():
                for owner, attr in sites:
                    patches.replace(owner, attr, _counted(rec, name))
            patches.replace(px.estimators, "solve_bridges", _solve_bridges(rec))
            patches.replace(px.harness, "value_maximize",
                            _value_maximize(rec, px.policy.regime_equivalence_key))
        yield
    finally:
        patches.undo()


TIMED_LAYERS = (
    "bridges.solve_bridges", "bridges.pseudo_bridges", "estimators.fit_bridges",
    "estimators.empirical_pmf", "estimators.fold_assignments", "estimators.baselines",
    "estimators.row_estimate", "identify.density", "policy.value_maximize",
    "dgp.sample", "dgp.from_csv", "cli", "harness",
)
COUNTED_LAYERS = ("tables.cond_matrix", "tables.invert2or4", "dgp.regime_value",
                  "identify.observed_conditional")
# timed layers whose call counts are reported too
CALLED_LAYERS = ("bridges.solve_bridges", "bridges.pseudo_bridges", "estimators.empirical_pmf",
                 "estimators.fold_assignments", "policy.value_maximize", "identify.density")


def layer_totals(rec: Recorder, setup: bool = False) -> tuple[dict, dict, dict]:
    """(calls, self seconds, counters) summed over the set-up phase or over
    every other operation of a pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(rec.spans, self_times(rec.spans)):
        if (span[4] == "setup") == setup:
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + own
    counters: dict[str, int] = {}
    for op, counts in rec.op_counts.items():
        if (op == "setup") == setup:
            for name, n in counts.items():
                counters[name] = counters.get(name, 0) + n
    return calls, self_s, counters


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(rec: Recorder, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass, normalised per operation, except
    ``policy.enumerate_class.self_ms``, which is the traced set-up's."""
    calls, self_s, counters = layer_totals(rec)
    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_ms"] = (1e3 * self_s.get(layer, 0.0) / ops, "ms/op")
    for layer in CALLED_LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) / ops, "count/op")
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = (counters.get(layer, 0) / ops, "count/op")
    out["bridges.solve_bridges.distinct_ratio"] = (
        _ratio(counters.get("bridges.solve_bridges.distinct", 0), calls.get("bridges.solve_bridges", 0)),
        "ratio")
    out["policy.value_maximize.useful_ratio"] = (
        _ratio(counters.get("policy.value_maximize.useful", 0),
               counters.get("policy.value_maximize.members", 0)),
        "ratio")
    _, setup_self_s, _ = layer_totals(rec, setup=True)
    out["policy.enumerate_class.self_ms"] = (1e3 * setup_self_s.get("policy.enumerate_class", 0.0), "ms")
    return out
