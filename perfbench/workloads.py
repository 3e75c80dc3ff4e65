"""The benchmark's workloads: inputs made from the seed, one timed pass, and
the checks of its outputs.

Every workload is a closed loop driven by one client (this process): the next
repetition or request starts when the previous one has finished.

* ``grid-vmax``: the paper's headline table, ``ExperimentConfig()`` defaults
  (value maximisation over the 416-member linear class, 5 scenarios x 6
  methods, n = 35000, one fold), run serially.
* ``grid-crossfit``: the same grid with 5 folds, which refits the bridges for
  every method, fold and scenario.
* ``grid-vmax-2proc``: ``grid-vmax`` on the harness's process pool with
  ``PROXIDTR_THREADS=2``.
* ``estimate-cli``: in-process ``proxidtr estimate`` requests, each reading
  a 35000-row CSV and a regime JSON, cycling over the six method variants.

A grid pass is one ``run_experiment`` call, sized from a warm-up to last about
``seconds``; an ``estimate-cli`` pass serves whole request cycles until
``seconds`` have passed. The traced and untraced passes of one run do exactly
the same work. An untraced pass may run a machine-speed gauge (gauge.py)
all through.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, replace

import layers
from gauge import Gauge
from recorder import Recorder

WORKLOADS = ("grid-vmax", "grid-crossfit", "estimate-cli", "grid-vmax-2proc")
GRID_FOLDS = {"grid-vmax": 1, "grid-crossfit": 5, "grid-vmax-2proc": 1}
POOL_WORKERS = {"grid-vmax-2proc": 2}

# repetition seeds of a run are base_seed + index; seeds a stride apart never share one
BASE_SEED = 20240601
SEED_STRIDE = 1_000_003
WARMUP_SEED_OFFSET = 1_000_000

ESTIMATE_N = 35000
ESTIMATE_DATASETS = 4
ESTIMATE_REGIMES = 4
ESTIMATE_VARIANTS = (
    ("--method", "por"),
    ("--method", "pha"),
    ("--method", "pipw"),
    ("--method", "pmr"),
    ("--method", "pmr", "--folds", "5"),
    ("--method", "sra"),
)
IDENTITY_TOL = 1e-12  # criterion 07: row-average and cell plug-in estimates agree to this


@dataclass
class Pass:
    """One timed pass: what it did, how long it took, and what it printed."""

    wall_s: float
    ops: int            # repetitions or requests
    attempted: int      # cells (grids) or requests (estimate-cli)
    failed: int
    output: str         # report CSV, or every request's printed lines; compared byte for byte
    recorder: Recorder
    replies: list | None = None  # estimate-cli: (printed text, exit code or error) per request
    gauge: Gauge | None = None   # ran all through the pass

    def latencies_s(self) -> list[tuple[float, float]]:
        """(measured, scaled to reference speed) seconds per operation, the
        gauge's kernel runs left out; both are as measured without a gauge."""
        spans = self.recorder.op_roots()
        if self.gauge is None:
            return [(span[2] - span[1],) * 2 for span in spans]
        return [self.gauge.measure(span[1], span[2]) for span in spans]


@contextlib.contextmanager
def _pool_workers(workers: int):
    """``PROXIDTR_THREADS`` set to ``workers``, or unset for a serial run."""
    saved = os.environ.pop("PROXIDTR_THREADS", None)
    if workers > 1:
        os.environ["PROXIDTR_THREADS"] = str(workers)
    try:
        yield
    finally:
        os.environ.pop("PROXIDTR_THREADS", None)
        if saved is not None:
            os.environ["PROXIDTR_THREADS"] = saved


class Grid:
    setup_kind = "grid"
    op_name = "repetitions"
    attempt_name = "cells"

    def __init__(self, px, name: str, seed: int):
        self.px = px
        self.workers = POOL_WORKERS.get(name, 1)
        self.config = px.harness.ExperimentConfig(
            folds=GRID_FOLDS[name], base_seed=BASE_SEED + SEED_STRIDE * seed)
        self.reps = None

    def setup(self) -> None:
        """What ``run_experiment`` builds before its first repetition."""
        self.px.harness._truth_context(self.config)

    def prepare(self, seconds: float) -> None:
        """Warm the caches and size the pass to about ``seconds``."""
        warm = replace(self.config, reps=self.workers,
                       base_seed=self.config.base_seed + WARMUP_SEED_OFFSET)
        with _pool_workers(self.workers):
            start = time.perf_counter()
            self.px.harness.run_experiment(warm)
            rate = warm.reps / (time.perf_counter() - start)
        self.reps = max(2 * self.workers, round(seconds * rate))

    def _run(self, rec: Recorder, traced: bool, workers: int, gauge: Gauge | None = None) -> Pass:
        config = replace(self.config, reps=self.reps)
        running = gauge.running() if gauge else contextlib.nullcontext()
        with layers.installed(rec, self.px, traced), _pool_workers(workers), running:
            rec.begin("harness", op="run")
            start = time.perf_counter()
            try:
                report = self.px.harness.run_experiment(config)
            finally:
                wall = time.perf_counter() - start
                rec.end()
        csv_text, _ = self.px.harness.emit_tables(report)
        attempted = sum(c.count + c.failures for c in report.cells)
        failed = sum(c.failures for c in report.cells)
        return Pass(wall, config.reps, attempted, failed, csv_text, rec, gauge=gauge)

    def run(self, rec: Recorder, traced: bool, gauge: Gauge | None = None) -> Pass:
        """The timed pass; ``gauge`` runs on a serial grid only (on the pool it
        would compete with the workers for the cores)."""
        return self._run(rec, traced, self.workers, gauge if self.workers == 1 else None)

    def check(self, done: Pass) -> tuple[list[str], set[int]]:
        """(whole-pass failures, failed operations): the pool's report must equal the serial one."""
        if self.workers > 1 and self._run(Recorder(), False, 1).output != done.output:
            return [f"the {self.workers}-process report differs from the serial report"], set()
        return [], set()

    def count_checks(self, rec: Recorder) -> list[tuple[str, int, int]]:
        """(what, counted, expected) on the first traced repetition."""
        counts = rec.op_counts.get(0, {})

        def calls(layer):
            return sum(1 for span in rec.spans if span[0] == layer and span[4] == 0)

        config = self.config
        # one solve per scenario; with folds, one per bridge method, fold and scenario
        solves = len(config.scenarios)
        if config.folds > 1:
            solves *= len(self.px.harness.BRIDGE_METHODS) * config.folds
        out = [
            ("solve_bridges calls in repetition 0", calls("bridges.solve_bridges"), solves),
            ("cond_matrix calls in repetition 0", counts.get("tables.cond_matrix", 0), 82 * solves),
        ]
        if config.folds == 1:
            searches = len(config.scenarios) * len(config.methods)
            out += [
                ("value_maximize calls in repetition 0", calls("policy.value_maximize"), searches),
                ("regime_value calls in repetition 0", counts.get("dgp.regime_value", 0), 416 * searches),
            ]
        return out


class Estimate:
    setup_kind = "cli"
    op_name = "requests"
    attempt_name = "requests"

    def __init__(self, px, seed: int, workdir):
        """Datasets, CSV files and regime files, all made from ``seed``."""
        self.px = px
        rng = random.Random(seed)
        params = px.dgp.DgpParams.default()
        self.datasets = [
            px.dgp.sample(params, ESTIMATE_N, rng.randrange(2 ** 32)) for _ in range(ESTIMATE_DATASETS)
        ]
        self.regimes = rng.sample(px.policy.enumerate_class("linear").members, ESTIMATE_REGIMES)
        self.data_paths, self.regime_paths = [], []
        for k, data in enumerate(self.datasets):
            path = workdir / f"data{k}.csv"
            path.write_text(data.to_csv())
            self.data_paths.append(path)
        for k, regime in enumerate(self.regimes):
            path = workdir / f"regime{k}.json"
            path.write_text(regime.to_json())
            self.regime_paths.append(path)
        self.requests = None
        self._expected: dict = {}

    def _request(self, i: int) -> tuple[int, int, tuple[str, ...]]:
        """(dataset, regime, variant) of request ``i``."""
        cycle = i // len(ESTIMATE_VARIANTS)
        return (cycle % ESTIMATE_DATASETS,
                (cycle // ESTIMATE_DATASETS) % ESTIMATE_REGIMES,
                ESTIMATE_VARIANTS[i % len(ESTIMATE_VARIANTS)])

    def _argv(self, i: int) -> list[str]:
        data, regime, variant = self._request(i)
        return ["estimate", "--data", str(self.data_paths[data]),
                "--regime", str(self.regime_paths[regime]), *variant]

    def setup(self) -> None:
        self.px.cli.build_parser()

    def prepare(self, seconds: float) -> None:
        """Warm up with one request of each variant."""
        self.seconds = seconds
        self._serve(Recorder(), range(len(ESTIMATE_VARIANTS)))

    def _serve(self, rec: Recorder, indices) -> tuple[list[str], list[int]]:
        outputs, codes = [], []
        for i in indices:
            buf = io.StringIO()
            rec.begin("cli", op=i)
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.px.cli.main(self._argv(i))
            except Exception as err:  # a crashed request is a failed operation, not a crashed benchmark
                code = f"{type(err).__name__}: {err}"
            finally:
                rec.end()
            outputs.append(buf.getvalue())
            codes.append(code)
        return outputs, codes

    def run(self, rec: Recorder, traced: bool, gauge: Gauge | None = None) -> Pass:
        """Whole request cycles until ``seconds`` have passed; a later pass
        of the same run serves the same requests."""
        cycle = len(ESTIMATE_VARIANTS)
        running = gauge.running() if gauge else contextlib.nullcontext()
        with layers.installed(rec, self.px, traced), running:
            start = time.perf_counter()
            if self.requests is None:
                outputs, codes = [], []
                while time.perf_counter() - start < self.seconds:
                    more_outputs, more_codes = self._serve(rec, range(len(codes), len(codes) + cycle))
                    outputs += more_outputs
                    codes += more_codes
                self.requests = len(codes)
            else:
                outputs, codes = self._serve(rec, range(self.requests))
            wall = time.perf_counter() - start
        failed = sum(1 for code in codes if code != 0)
        return Pass(wall, self.requests, self.requests, failed, "".join(outputs), rec,
                    list(zip(outputs, codes)), gauge)

    def _expect(self, data: int, regime: int, method: str) -> dict:
        """Reference values for one (dataset, regime, method), computed from the
        in-memory dataset the CSV was written from."""
        key = (data, regime, method)
        if key not in self._expected:
            est = self.px.estimators
            dataset, reg = self.datasets[data], self.regimes[regime]
            pmf, bridges = est.fit_bridges(dataset)
            if method == "SRA":
                ref = {"plug_in": est.sra_value(pmf, reg).estimate}
            else:
                ref = {"plug_in": est.population_v(method, pmf, bridges, reg)}
                if method == "PMR":
                    ref["alt"] = est.v_hat_pmr_alt(dataset, bridges, reg).estimate
            self._expected[key] = ref
        return self._expected[key]

    def _request_ok(self, i: int, output: str) -> bool:
        data, regime, variant = self._request(i)
        method = variant[1].upper()
        payload = json.loads(output)
        estimate = payload["estimate"]
        if payload["method"] != method or not math.isfinite(estimate):
            return False
        if "--folds" in variant:
            folds = payload["folds"]
            return len(folds) == 5 and abs(estimate - sum(folds) / len(folds)) <= IDENTITY_TOL
        ref = self._expect(data, regime, method)
        if abs(estimate - ref["plug_in"]) > IDENTITY_TOL:
            return False
        if "alt" in ref:
            return abs(estimate - ref["alt"]) <= IDENTITY_TOL and payload["variance"] >= 0.0
        return True

    def check(self, done: Pass) -> tuple[list[str], set[int]]:
        """Each request's printed estimate against the library on the same data:
        PMR equals ``v_hat_pmr_alt`` and ``population_v`` to 1e-12 (criterion 07)."""
        failed = set()
        for i, (output, code) in enumerate(done.replies):
            if code != 0:
                continue
            try:
                ok = self._request_ok(i, output)
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                failed.add(i)
        return [], failed

    def count_checks(self, rec: Recorder) -> list[tuple[str, int, int]]:
        """(what, counted, expected) on the first traced PMR request (folds = 1)."""
        pmr = ESTIMATE_VARIANTS.index(("--method", "pmr"))
        return [("cond_matrix calls in the first PMR request",
                 rec.op_counts.get(pmr, {}).get("tables.cond_matrix", 0), 82)]


def make(px, name: str, seed: int, workdir):
    if name == "estimate-cli":
        return Estimate(px, seed, workdir)
    return Grid(px, name, seed)
