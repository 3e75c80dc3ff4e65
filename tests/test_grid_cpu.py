"""``tools/grid_cpu.py``, the in-process timer of a grid: wall time and CPU
time per repetition."""

import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "grid_cpu.py"
spec = importlib.util.spec_from_file_location("grid_cpu", TOOL)
grid_cpu = importlib.util.module_from_spec(spec)
spec.loader.exec_module(grid_cpu)


@pytest.mark.parametrize("folds", [1, 3])
def test_a_small_grid_prints_wall_and_cpu(folds, capsys):
    assert grid_cpu.main(["--reps", "9", "--n", "2000", "--folds", str(folds)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"9 repetitions at n = 2000, folds = {folds}, ms per repetition:"
    wall = float(re.fullmatch(r"wall (\d+\.\d{3})", lines[1]).group(1))
    ms, share = re.fullmatch(r"cpu (\d+\.\d{3}) \((\d+)% of wall\)", lines[2]).groups()
    assert int(share) == round(100 * float(ms) / wall)  # the share of the printed figures, exactly
    assert wall > 0 and float(ms) > 0
    assert len(lines) == 3
