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
Each end-to-end metric with a ``bound`` also gets a no-regression verdict,
printed beside the parent's spread (interquartile range over median): with
the allowance bound x the parent's median, ``worse`` when the change's
median is worse than the parent's by more than the allowance, else
``unresolved`` when the parent's interquartile range exceeds the allowance
and not every change run beats every parent run, else ``ok``. The direction
(``better``) and the bound of each metric are read from the parent's
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


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The no-regression verdict of one metric, "worse", "unresolved" or
    "ok"; ``sign`` is +1 when higher is better and -1 when lower is."""
    p_q, c_q = quartiles(parent), quartiles(change)
    allowance = bound * abs(p_q[1])
    if sign * (c_q[1] - p_q[1]) < -allowance:
        return "worse"
    beats_every_run = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if p_q[2] - p_q[0] > allowance and not beats_every_run:
        return "unresolved"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric read on every run, from (parent, change) pairs;
    ``better`` maps a metric's base name to "higher" or "lower", and
    ``bounds`` an end-to-end metric's base name to its regression bound, a
    fraction of the parent's median."""
    bounds = bounds or {}
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
        bound = bounds.get(name.split()[0])
        rows.append({"metric": name, "parent": p_q, "change": c_q, "wins": wins, "pairs": len(pairs),
                     "parent_iqr": iqr, "claim": 10 * wins >= 9 * len(pairs) and gain > iqr, "bound": bound,
                     "verdict": None if bound is None else verdict(parent, change, sign, bound)})
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


def format_verdicts(rows: list[dict]) -> str:
    """The no-regression verdict of each row with a bound, beside the parent's spread."""
    out = ["| metric | parent spread (iqr / median) | bound | change median vs parent | verdict |",
           "|---|---|---|---|---|"]
    for r in rows:
        if r["verdict"] is not None:
            median = r["parent"][1]
            out.append(f"| {r['metric']} | {r['parent_iqr'] / abs(median):.1%} | {r['bound']:.0%} | "
                       f"{r['change'][1] / median - 1:+.1%} | {r['verdict']} |")
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
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
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
    rows = summarize(pairs, better, bounds)
    print(format_rows(rows))
    print()
    print(format_verdicts(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
