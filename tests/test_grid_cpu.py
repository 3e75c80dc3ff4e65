"""``tools/grid_cpu.py``, the in-process timer of a grid: wall time and the
main process's and the sampling helper's CPU time per repetition, and the
halves of each sample the main process drew."""

import importlib.util
import os
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "grid_cpu.py"
spec = importlib.util.spec_from_file_location("grid_cpu", TOOL)
grid_cpu = importlib.util.module_from_spec(spec)
spec.loader.exec_module(grid_cpu)


@pytest.mark.parametrize("cpus, helper", [({0, 1}, True), ({0}, False)], ids=["helper", "inline"])
def test_a_small_grid_prints_wall_and_both_processes_cpu(cpus, helper, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert grid_cpu.main(["--reps", "9", "--n", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "9 repetitions at n = 2000, folds = 1, ms per repetition:"
    wall = float(re.fullmatch(r"wall (\d+\.\d{3})", lines[1]).group(1))
    cpu = {}
    for line, name in zip(lines[2:4], ("main", "helper"), strict=True):
        ms, share = re.fullmatch(rf"{name} cpu (\d+\.\d{{3}}) \((\d+)% of wall\)", line).groups()
        cpu[name] = float(ms)
        assert int(share) == round(100 * float(ms) / wall)
    assert wall > 0 and cpu["main"] > 0
    assert helper or cpu["helper"] == 0  # no helper, no child CPU
    halves = float(re.fullmatch(r"main drew (\d\.\d{3}) of 2 halves per repetition", lines[4]).group(1))
    assert 0 <= halves <= 2 and (helper or halves == 2)  # without a helper the main process draws every row
    assert len(lines) == 5
