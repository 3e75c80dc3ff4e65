"""Set-up probe: a fresh process that gets one workload ready, then says so.

    python3 perfbench/probe.py grid|cli

The caller times this process from its start to the ``ready`` line, which
carries the probe's ``time.perf_counter()`` (a clock shared by all processes)
at ready, then the seconds of three runs of the machine-speed gauge's kernel
made after it (see gauge.py). For the
grids, ready means proxidtr imported and the truth context built (the exact
law, both regime classes and the true values), which ``run_experiment`` does
before its first repetition. For ``estimate-cli`` it means the CLI imported
and its parser built. ``PYTHONPATH`` must name the checkout's ``src``.
"""

import sys
import time


def main(kind: str) -> None:
    if kind == "grid":
        from proxidtr import harness

        harness._truth_context(harness.ExperimentConfig())
    else:
        from proxidtr import cli

        cli.build_parser()
    ready = time.perf_counter()
    import gauge

    kernel_s = []
    for _ in range(3):
        start = time.perf_counter()
        gauge.kernel()
        kernel_s.append(time.perf_counter() - start)
    print("ready", ready, *kernel_s, flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
