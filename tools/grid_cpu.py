"""Time a grid in process: wall time and CPU time per repetition.

Builds an ``ExperimentConfig`` from ``--reps``, ``--folds`` and ``--n`` (every
other field at its default), runs it once as a warm-up, then times one more
``run_experiment`` of it. CPU time is the user plus system time of
``getrusage(RUSAGE_SELF)`` as a delta over the timed grid, also given as a
share of the wall time: the grid runs in this one process, so a share below
100% is time the process waited. Standard library and the package only.

The CPU share is computed from the printed three-decimal figures, so it can
be recomputed from the output exactly.

    PYTHONPATH=src python tools/grid_cpu.py [--reps 800] [--folds 1] [--n 35000]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from proxidtr.harness import ExperimentConfig, run_experiment


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(config: ExperimentConfig) -> dict[str, float]:
    """Milliseconds of wall and CPU time per repetition of one timed grid."""
    run_experiment(config)
    cpu, began = _cpu_s(), time.perf_counter()
    run_experiment(config)
    spent = {"wall": time.perf_counter() - began, "cpu": _cpu_s() - cpu}
    return {name: 1e3 * seconds / config.reps for name, seconds in spent.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=800)
    parser.add_argument("--folds", type=int, default=1)
    parser.add_argument("--n", type=int, default=35000)
    args = parser.parse_args(argv)
    config = ExperimentConfig(n=args.n, reps=args.reps, folds=args.folds)
    ms = {name: float(f"{value:.3f}") for name, value in measure(config).items()}  # the printed figures
    print(f"{config.reps} repetitions at n = {config.n}, folds = {config.folds}, ms per repetition:")
    print(f"wall {ms['wall']:.3f}")
    print(f"cpu {ms['cpu']:.3f} ({round(100 * ms['cpu'] / ms['wall'])}% of wall)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
