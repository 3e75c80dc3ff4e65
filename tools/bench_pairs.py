"""Run ``perfbench/run.py`` from two checkouts in alternating order and
compare them, pair by pair.

Pair i runs the parent first when i is even and the change first when it is
odd; both runs of a pair use the same workload, seed, run length and trace
setting. Each run's last output line (the JSON result) gives the scaled
metrics, and its ``as measured, unscaled:`` line the unscaled ones. For each
metric the summary prints each side's median and quartiles, the change's wins
out of the pairs (ties count for neither side) and whether a gain may be
claimed: the change wins at least nine tenths of the pairs, and its median is
better than the parent's by more than the parent's interquartile range.
The direction of each metric (``better``) is read from the parent's
``BENCHMARK.json``. A run that reads ``correct: false``, or fails, stops the
comparison: no summary is printed. Standard library only.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload estimate-cli \\
        [--seed 1] [--pairs 10] [--seconds 25] [--trace 0]

Quartiles are ``statistics.quantiles(values, n=4, method="inclusive")``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

UNSCALED_PREFIX = "as measured, unscaled:"


class RunFailed(RuntimeError):
    """A run failed or read ``correct: false``; nothing is summarized."""


def parse_run(stdout: str) -> dict[str, float]:
    """Metric -> value of one run: the scaled metrics of its JSON line, and
    each unscaled one as ``<name> unscaled``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed("a run printed no JSON result line") from None
    if result.get("correct") is not True:
        raise RunFailed(f"a run read correct: {result.get('correct')!r}, failed: {result.get('failed')!r}")
    values = {name: float(metric["value"]) for name, metric in result["metrics"].items()}
    for line in lines:
        if line.startswith(UNSCALED_PREFIX):
            for item in line[len(UNSCALED_PREFIX):].split(","):
                name, value = item.split()[:2]
                values[f"{name} unscaled"] = float(value)
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric read on every run, from (parent, change) pairs;
    ``better`` maps a metric's base name to "higher" or "lower"."""
    rows = []
    for name in pairs[0][0]:
        if not all(name in parent and name in change for parent, change in pairs):
            continue
        sign = 1.0 if better.get(name.split()[0], "lower") == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        iqr = p_q[2] - p_q[0]
        gain = sign * (c_q[1] - p_q[1])
        rows.append({"metric": name, "parent": p_q, "change": c_q, "wins": wins, "pairs": len(pairs),
                     "parent_iqr": iqr, "claim": 10 * wins >= 9 * len(pairs) and gain > iqr})
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
    out = ["| metric | parent median [q1, q3] | change median [q1, q3] | wins | gain claimable |",
           "|---|---|---|---|---|"]
    for r in rows:
        out.append(f"| {r['metric']} | {q(r['parent'])} | {q(r['change'])} | {r['wins']} of {r['pairs']} | "
                   f"{'yes' if r['claim'] else 'no'} |")
    return "\n".join(out)


def _run(checkout: Path, args) -> dict[str, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{checkout}: perfbench exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return parse_run(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    pairs = []
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {side: _run(getattr(args, side), args) for side in order}
            pairs.append((run["parent"], run["change"]))
            print(f"pair {i + 1} ({order[0]} first): " + json.dumps(run), flush=True)
    except RunFailed as err:
        print(f"error: {err}; no summary", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, trace {args.trace}")
    print(format_rows(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
