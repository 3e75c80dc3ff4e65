"""Byte pins of ``proxidtr estimate``: the sha256 prefix of everything
``cli.main(["estimate", ...])`` prints, to stdout and to stderr, with its exit
code, over every method and option value a request can carry.

Each method's pin covers its requests in order over ``--laplace`` 0 and 0.5,
two regimes (linear member 300, which carries its threshold certificate, and
Boolean index 700, which is in no linear class and carries none) and
``--folds`` 1, 3 and 5 for the bridge methods, 1 and 3 for the baselines,
which refuse folds with exit code 1. The data is a 35000-row sample (seed 7)
written with the hidden columns, so the Oracle reads it too. The same
requests on a 600-row sample (seed 3) pin the refusal lines of sparse cells:
every bridge fit, and the unsmoothed Oracle, exits 2 with one line there.

A change to the estimate path that keeps every printed byte keeps these pins.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from proxidtr import cli, dgp
from proxidtr.policy import Regime, enumerate_class

BRIDGE_METHODS = ("por", "pha", "pipw", "pmr")
FOLDS = {**dict.fromkeys(BRIDGE_METHODS, (1, 3, 5)), "sra": (1, 3), "oracle": (1, 3)}

PINS = {
    35000: {
        "por": "99f84069f31b8b26",
        "pha": "2f56444909d197d7",
        "pipw": "5c5643837d4da7b8",
        "pmr": "db2e8c6f83e2f56b",
        "sra": "6e1a82d6714b415b",
        "oracle": "6cb1ec9de14827c3",
    },
    600: {
        "por": "4e58edc29f870e9c",
        "pha": "07f6a32ca2ce6130",
        "pipw": "c470ec04df326595",
        "pmr": "fa6a14378558641a",
        "sra": "907a8607e3e03221",
        "oracle": "3c2be0fed53f3ee8",
    },
}
SEEDS = {35000: 7, 600: 3}


def write_files(root: Path) -> tuple[dict[int, Path], list[Path]]:
    """(data CSV per size, the two regime files), written under ``root``."""
    data = {}
    for n, seed in SEEDS.items():
        data[n] = root / f"d{n}.csv"
        data[n].write_text(dgp.sample(dgp.DgpParams.default(), n, seed).to_csv(include_hidden=True))
    regimes = []
    for name, regime in (("linear", enumerate_class("linear").members[300]), ("boolean", Regime.from_index(700))):
        regimes.append(root / f"{name}.json")
        regimes[-1].write_text(regime.to_json())
    return data, regimes


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("estimate-identity"))


def _transcript(data, regimes, method: str) -> tuple[str, list[int]]:
    """Every request's argument tail, exit code and printed lines, in order, and the exit codes."""
    lines, codes = [], []
    for laplace in ("0", "0.5"):
        for regime in regimes:
            for folds in FOLDS[method]:
                argv = ["--method", method, "--folds", str(folds), "--laplace", laplace]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(["estimate", "--data", str(data), "--regime", str(regime)] + argv)
                codes.append(code)
                lines.append(f"{regime.stem} {' '.join(argv)} -> {code}\n{out.getvalue()}{err.getvalue()}")
    return "".join(lines), codes


@pytest.mark.parametrize("n", sorted(PINS))
@pytest.mark.parametrize("method", list(FOLDS))
def test_estimate_prints_the_pinned_bytes(files, n, method):
    data, regimes = files
    text, codes = _transcript(data[n], regimes, method)
    assert set(codes) <= {0, 1, 2}
    if n == 35000 and method in BRIDGE_METHODS:
        assert set(codes) == {0}
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == PINS[n][method], text
