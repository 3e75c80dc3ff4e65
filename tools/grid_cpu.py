"""Time a grid in process: wall time and CPU time per repetition of the main
process and of the sampling helper.

Builds an ``ExperimentConfig`` from ``--reps``, ``--folds`` and ``--n`` (every
other field at its default), runs it once as a warm-up, then times one more
``run_experiment`` of it. CPU time is the user plus system time of
``getrusage``: ``RUSAGE_SELF`` for the main process and ``RUSAGE_CHILDREN``
for the helper, which is reaped before ``run_experiment`` returns, both as
deltas over the timed grid. Each CPU figure is also given as a share of the
wall time. The warm-up is as long as the timed grid so that a host whose
second CPU sat idle does not charge its wake-up to the timed grid: on a
2-vCPU VM, the first grid after a 20 s pause read both processes busy 74-75%
of the wall time, and the next 97-99%. Standard library and the package only.

    PYTHONPATH=src python tools/grid_cpu.py [--reps 800] [--folds 1] [--n 35000]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from proxidtr.harness import ExperimentConfig, run_experiment


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure(config: ExperimentConfig) -> dict[str, float]:
    """Milliseconds per repetition of one timed grid: wall, main-process CPU and helper CPU."""
    run_experiment(config)
    main, helper, began = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN), time.perf_counter()
    run_experiment(config)
    wall = time.perf_counter() - began
    spent = {"wall": wall, "main": _cpu_s(resource.RUSAGE_SELF) - main,
             "helper": _cpu_s(resource.RUSAGE_CHILDREN) - helper}
    return {name: 1e3 * seconds / config.reps for name, seconds in spent.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=800)
    parser.add_argument("--folds", type=int, default=1)
    parser.add_argument("--n", type=int, default=35000)
    args = parser.parse_args(argv)
    config = ExperimentConfig(n=args.n, reps=args.reps, folds=args.folds)
    ms = measure(config)
    print(f"{config.reps} repetitions at n = {config.n}, folds = {config.folds}, ms per repetition:")
    print(f"wall {ms['wall']:.3f}")
    for name in ("main", "helper"):
        print(f"{name} cpu {ms[name]:.3f} ({100 * ms[name] / ms['wall']:.0f}% of wall)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
