"""Time a grid in process: wall time and CPU time per repetition of the main
process and of the sampling helper, and the halves of each sample the main
process drew.

Builds an ``ExperimentConfig`` from ``--reps``, ``--folds`` and ``--n`` (every
other field at its default), runs it once as a warm-up, then times one more
``run_experiment`` of it. CPU time is the user plus system time of
``getrusage``: ``RUSAGE_SELF`` for the main process and ``RUSAGE_CHILDREN``
for the helper, which is reaped before ``run_experiment`` returns, both as
deltas over the timed grid. Each CPU figure is also given as a share of the
wall time. The warm-up is as long as the timed grid so that a host whose
second CPU sat idle does not charge its wake-up to the timed grid: on a
2-vCPU VM, the first grid after a 20 s pause read both processes busy 74-75%
of the wall time, and the next 97-99%. The main process's halves are
counted by wrapping ``dgp.sample_rows`` for the timed grid and adding up
the rows of its calls in this process (the helper, forked, inherits the
wrapper but is not counted), in halves of n/2 rows: 2 when it drew every
row (no helper, or one that drew nothing), 0 when the helper drew them
all. A slow or dead helper costs only speed, and shows here. Standard
library and the package only.

Each CPU share is computed from the printed three-decimal figures, so it
can be recomputed from the output exactly.

    PYTHONPATH=src python tools/grid_cpu.py [--reps 800] [--folds 1] [--n 35000]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

from proxidtr import dgp
from proxidtr.harness import ExperimentConfig, run_experiment


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure(config: ExperimentConfig) -> dict[str, float]:
    """Per repetition of one timed grid: milliseconds of wall, main-process
    CPU and helper CPU, and the halves the main process drew ("halves")."""
    run_experiment(config)
    parent, sample_rows, rows = os.getpid(), dgp.sample_rows, [0]

    def counted(params, n, seed, start, stop):
        if os.getpid() == parent:
            rows[0] += stop - start
        return sample_rows(params, n, seed, start, stop)

    dgp.sample_rows = counted
    try:
        main, helper, began = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN), time.perf_counter()
        run_experiment(config)
        wall = time.perf_counter() - began
    finally:
        dgp.sample_rows = sample_rows
    spent = {"wall": wall, "main": _cpu_s(resource.RUSAGE_SELF) - main,
             "helper": _cpu_s(resource.RUSAGE_CHILDREN) - helper}
    return {**{name: 1e3 * seconds / config.reps for name, seconds in spent.items()},
            "halves": rows[0] / (config.n / 2) / config.reps}


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
    for name in ("main", "helper"):
        print(f"{name} cpu {ms[name]:.3f} ({round(100 * ms[name] / ms['wall'])}% of wall)")
    print(f"main drew {ms['halves']:.3f} of 2 halves per repetition")
    return 0


if __name__ == "__main__":
    sys.exit(main())
