"""Run ``perfbench/run.py`` from two checkouts in alternating order and
compare them, pair by pair.

Pair i runs the parent first when i is even and the change first when it is
odd; both runs of a pair use the same workload, seed, run length and trace
setting. Each run's last output line (the JSON result) gives the scaled
metrics, its ``as measured, unscaled:`` line the unscaled ones, and its
``<ops> <operations> in <wall> s;`` line the wall rate, operations per second
of the whole timed pass (``wall_ops_per_s``, higher is better), which shows
work moved outside the timed operations; it gets no verdict. For each metric
the summary prints each side's median and quartiles, the change's wins out
of the pairs (ties count for neither side) and whether a gain may be
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
comparison: no summary is printed. With ``--out BENCH_<label>.json`` the
comparison is also added to that file's list of comparisons (``add_record``):
the settings, each pair's order and each run's metrics, scaled, unscaled
and the wall rate, with the run's ``environment`` line, then every summary
row with its verdict; one file so holds a change's workloads and seeds. A
comparison that a failed run stopped is added too, with the runs before it
and, in its pair, the failed side, its error and the tail of its output,
and no summary.
Before the first pair, each checkout's ``src`` and ``perfbench`` are
byte-compiled for this interpreter (``compileall``), and every run gets
``PYTHONDONTWRITEBYTECODE=1``: both sides then import from bytecode that
no run writes, so ``setup_s``, timed in fresh processes, compares like
with like. A checkout whose ``__pycache__`` was written once while the
other's was not read up to +27% ``setup_s`` on an equal change.
Each run starts in a session of its own, its output going to temporary
files. A run still going after ``run_timeout(--seconds)`` is killed with
its session, and so is a session with a live process left after its run
exits (a stray pool worker, say); either fails the comparison, and the
error names the pair and the side. Standard library only.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload estimate-cli \\
        [--seed 1] [--pairs 10] [--seconds 25] [--trace 0] [--out BENCH_label.json]

Quartiles are ``statistics.quantiles(values, n=4, method="inclusive")``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

UNSCALED_PREFIX = "as measured, unscaled:"
ENVIRONMENT_PREFIX = "environment "
WALL_LINE = re.compile(r"(\d+) \S+ in ([0-9.]+) s;")
WALL_RATE = "wall_ops_per_s"
# a run is killed, and the comparison fails, when it outlasts this many times
# its --seconds plus the set-up allowance (a 25 s run: 160 s)
RUN_TIMEOUT_FACTOR = 4.0
RUN_TIMEOUT_SETUP_S = 60.0


def run_timeout(seconds: float) -> float:
    return RUN_TIMEOUT_FACTOR * seconds + RUN_TIMEOUT_SETUP_S


class RunFailed(RuntimeError):
    """A run failed or read ``correct: false``; nothing is summarized."""


def parse_run(stdout: str) -> dict[str, float]:
    """Metric -> value of one run: the scaled metrics of its JSON line, each
    unscaled one as ``<name> unscaled``, and the wall rate as ``WALL_RATE``."""
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
        wall = WALL_LINE.match(line)
        if wall:
            values[WALL_RATE] = int(wall[1]) / float(wall[2])
    return values


def environment_of(stdout: str) -> dict | None:
    """The JSON object of a run's ``environment`` line, or None without one."""
    for line in stdout.splitlines():
        if line.startswith(ENVIRONMENT_PREFIX):
            return json.loads(line[len(ENVIRONMENT_PREFIX):])
    return None


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


def add_record(path: Path, args, runs: list[dict], rows: list[dict]) -> None:
    """Add this comparison to the comparisons of the file at ``path``, made
    when missing: the settings, each pair's order and each run's metrics and
    environment (``runs``: one {"order", "parent", "change"} per pair, each
    side {"metrics", "environment"}), and the summary rows."""
    comparisons = json.loads(path.read_text())["comparisons"] if path.exists() else []
    comparisons.append({"workload": args.workload, "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
                        "trace": args.trace, "runs": runs, "summary": rows})
    path.write_text(json.dumps({"comparisons": comparisons}, indent=1) + "\n")


def _compile(checkout: Path) -> None:
    """Byte-compile the checkout's ``src`` and ``perfbench`` for this interpreter."""
    for name in ("src", "perfbench"):
        if not compileall.compile_dir(checkout / name, quiet=2):
            raise RunFailed(f"{checkout / name}: byte-compiling failed")


def session_members(sid: int) -> list[int]:
    """The live (not zombie) processes of session ``sid``, read from /proc;
    where there is no /proc, the process group ``sid`` if it has a member."""
    if not Path("/proc").is_dir():
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return []
        return [sid]
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except (OSError, IndexError):  # the process ended while being read
            continue
        if state != "Z" and int(session) == sid:
            members.append(int(stat.parent.name))
    return members


def _kill_session(sid: int) -> None:
    """Kill every live process of session ``sid`` and wait, up to 10 s, until none is left."""
    for _ in range(1000):
        members = session_members(sid)
        if not members:
            return
        for pid in members:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.01)


def _run(checkout: Path, args) -> str:
    """The standard output of one perfbench run in ``checkout``, which writes
    no bytecode, run in a session of its own. A run past ``run_timeout``, or
    one that leaves a live process in its session, is killed with its
    session and fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = run_timeout(args.seconds)
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(cmd, cwd=checkout, stdout=out, stderr=err, text=True, start_new_session=True,
                                env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        try:
            proc.wait(timeout=timeout)
        except BaseException as exc:  # a timeout, or an interrupt, which a run in its own session does not see
            _kill_session(proc.pid)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunFailed(f"{checkout}: perfbench ran past {timeout:g} s; its session was killed") from None
            raise
        left = session_members(proc.pid)
        if left:
            _kill_session(proc.pid)
            raise RunFailed(f"{checkout}: perfbench exited {proc.returncode} but left processes {left} "
                            "in its session; they were killed")
        out.seek(0), err.seek(0)
        if proc.returncode != 0:
            raise RunFailed(f"{checkout}: perfbench exited {proc.returncode}: {err.read().strip()[-500:]}")
        return out.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, help="also add the comparison to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    better[WALL_RATE] = "higher"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    pairs, runs = [], []
    try:
        for checkout in (args.parent, args.change):
            _compile(checkout)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            stdout, run = {}, {}
            runs.append({"order": list(order)})
            for side in order:
                try:
                    stdout[side] = _run(getattr(args, side), args)
                    run[side] = parse_run(stdout[side])
                except RunFailed as err:
                    runs[-1]["failed"] = {"side": side, "error": str(err), "output": stdout.get(side, "")[-2000:]}
                    raise RunFailed(f"pair {i + 1}, {side} run: {err}") from None
                runs[-1][side] = {"metrics": run[side], "environment": environment_of(stdout[side])}
            pairs.append((run["parent"], run["change"]))
            print(f"pair {i + 1} ({order[0]} first): " + json.dumps(run), flush=True)
    except RunFailed as err:
        print(f"error: {err}; no summary", file=sys.stderr)
        if args.out:
            add_record(args.out, args, runs, [])
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, trace {args.trace}")
    rows = summarize(pairs, better, bounds)
    print(format_rows(rows))
    print()
    print(format_verdicts(rows))
    if args.out:
        add_record(args.out, args, runs, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
