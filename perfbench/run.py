"""proxidtr benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository; the program is imported from the
checkout's ``src``. Workloads: grid-vmax, grid-crossfit, estimate-cli and
grid-vmax-2proc (see workloads.py and README.md).

With ``--trace 0`` the run measures the end-to-end metrics: set-up time (the
median of several fresh processes), operations per second, the median and
90th-percentile latency of one operation, and peak resident memory. Times are
scaled to reference speed by a kernel timed all through the pass (gauge.py),
which cancels most of a shared host's swings in speed; the unscaled figures
are printed too. With
``--trace 1`` it runs the same pass twice, untraced and then traced, and
reports per-layer calls and self times per operation, the tracing overhead,
and exact call counts on one operation; the spans are written to
``.bench_build/perfbench/trace-<workload>-seed<seed>.jsonl``.

Every run checks the program's outputs and counts each failure in
``failed``; the last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

# BLAS threads pinned before numpy loads, here and in every process started
# from here; the harness's process pool is off unless a workload turns it on.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("PROXIDTR_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # claims must also hold on this seed, which tuning never uses
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; hold-out seed for claims: {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program():
    """proxidtr's modules, imported from the checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import proxidtr
    from proxidtr import bridges, cli, dgp, estimators, harness, identify, policy

    if Path(proxidtr.__file__).resolve().parent != SRC / "proxidtr":
        raise SystemExit(f"error: imported proxidtr from {proxidtr.__file__}, not from {SRC}")
    return types.SimpleNamespace(bridges=bridges, cli=cli, dgp=dgp, estimators=estimators,
                                 harness=harness, identify=identify, policy=policy)


def measure_setup(kind: str, gauge) -> list[tuple[float, float]]:
    """(measured, scaled to reference speed) seconds from starting a fresh
    process to its ``ready`` line, per probe.

    The scale comes from the median of five kernel times: ``gauge`` samples
    before and after each probe here, and three that the probe runs itself
    once it is ready, on the core that did its set-up.
    """
    from gauge import REFERENCE_MS

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    gauge.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), kind], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        fields = done.stdout.split()
        if done.returncode != 0 or len(fields) < 2 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        gauge.sample()
        measured = float(fields[1]) - start
        around = [end - begin for begin, end in gauge.marks[-2:]] + [float(s) for s in fields[2:]]
        times.append((measured, measured * 1e-3 * REFERENCE_MS / statistics.median(around)))
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else f"unknown ({ref[5:]})"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(), "revision": _git_revision(),
        "pinned_env": PINNED_ENV,
    }


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(args, px, inputs: Path) -> int:
    import layers
    import workloads
    from gauge import Gauge
    from recorder import Recorder

    print("environment " + json.dumps(environment(args)))
    workload = workloads.make(px, args.workload, args.seed, inputs)
    traced = Recorder()
    if args.trace:
        with layers.installed(traced, px, True):
            traced.begin("harness", op="setup")
            try:
                workload.setup()
            finally:
                traced.end()
    else:
        setup_gauge = Gauge()
        setup_raw, setup = zip(*measure_setup(workload.setup_kind, setup_gauge))
        workload.setup()

    problems = []
    check = px.harness.identify_check()
    if not check.passed:
        problems.append(f"identify_check: max deviation {max(check.deviations.values()):.3e} "
                        f"exceeds {check.tolerance:g}")
    workload.prepare(args.seconds)
    if args.trace:
        base = workload.run(Recorder(), traced=False)
        done = workload.run(traced, traced=True)
        if done.output != base.output:
            problems.append("the traced pass's output differs from the untraced pass's")
    else:
        done = workload.run(Recorder(), traced=False, gauge=Gauge())
    whole, failed_ops = workload.check(done)
    problems += whole
    failed = done.attempted if problems else done.failed + len(failed_ops)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"fail_frac = {failed / done.attempted:.6g} ({failed} of {done.attempted} "
          f"{workload.attempt_name} failed)")

    if args.trace:
        metrics = layers.per_layer_metrics(traced, done.ops)
        _, self_s, _ = layers.layer_totals(traced)
        metrics["trace.overhead_frac"] = (done.wall_s / base.wall_s - 1.0, "ratio")
        metrics["trace.accounted_frac"] = (sum(self_s.values()) / done.wall_s, "ratio")
        count_checks = workload.count_checks(traced)
        for what, counted, expected in count_checks:
            print(f"count {what}: {counted} (expected {expected}) "
                  f"{'ok' if counted == expected else 'DIFFERS'}")
        path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced.dump(path, {"environment": environment(args), "ops": done.ops,
                           "count_checks": count_checks,
                           "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        measured, latencies = (sorted(times) for times in zip(*done.latencies_s()))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "reps_per_s": (done.ops / sum(latencies), "1/s"),
            "request_ms_p50": (1e3 * statistics.median(latencies), "ms"),
            "request_ms_p90": (1e3 * nearest_rank(latencies, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        beyond = len(latencies) - math.ceil(0.9 * len(latencies))
        print(f"{done.ops} {workload.op_name} in {done.wall_s:.3f} s; latency samples: "
              f"{len(latencies)}, {beyond} beyond p90; set-up probes: {len(setup)}")
        print(f"as measured, unscaled: setup_s {statistics.median(setup_raw):.6g} s, "
              f"reps_per_s {done.ops / sum(measured):.6g} 1/s, "
              f"request_ms_p50 {1e3 * statistics.median(measured):.6g} ms, "
              f"request_ms_p90 {1e3 * nearest_rank(measured, 0.9):.6g} ms")
        if done.gauge is not None:
            factors = sorted(setup_gauge.factors() + done.gauge.factors())
            print(f"machine speed / reference speed over the run: median {statistics.median(factors):.3f}, "
                  f"range {factors[0]:.3f}-{factors[-1]:.3f} ({len(factors)} kernel samples)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": done.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proxidtr" / "__init__.py").is_file():
        print(f"error: no proxidtr package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    px = load_program()
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORK))
    try:
        return run(args, px, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
