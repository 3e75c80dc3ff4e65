"""Shared fixtures: the exact law, solved bridges, and regime classes;
``serial_on_two_cpus``, the grid with its helper process on any host;
``forks``, the processes forked during a test, and ``unreaped``, those of
them not yet reaped;
``cell_codes``, the encoder of column blocks into ``Dataset`` rows;
``same_results``, bit-for-bit equality of one repetition's results;
``rep_alone``, one repetition's results from a pass over a stack of one,
the reference the grid's stacked blocks are checked against;
``zeroed``, a bridge set with the components a method does not read set to
zero, which makes PMR that method; and the
references the array kernel (``policy.class_values`` + ``first_maximizer``)
is checked against: ``regime_value``, one regime's value by a loop over
(y0, y1), and ``value_maximize``, the member-by-member search."""

import os
from typing import Callable

import numpy as np
import pytest

from proxidtr import bridges, dgp, harness
from proxidtr.identify import BRIDGES_NEEDED
from proxidtr.policy import Regime, RegimeClass, enumerate_class
from proxidtr.tables import marginalize


def cell_codes(observed, hidden=None) -> np.ndarray:
    """Canonical cell codes of an (n, 9) block of OBSERVED_ORDER values and an
    (n, 2) block of HIDDEN_ORDER values (zeros when absent), read name by name."""
    observed = np.asarray(observed)
    hidden = np.zeros((len(observed), 2), dtype=observed.dtype) if hidden is None else np.asarray(hidden)
    columns = dict(zip(dgp.OBSERVED_ORDER + dgp.HIDDEN_ORDER, np.column_stack([observed, hidden]).T))
    code = np.zeros(len(observed), dtype=np.int64)
    for name in dgp.CANONICAL_ORDER:
        code = (code << 1) | columns[name]
    return code


def same_results(a: dict, b: dict) -> bool:
    """One repetition's per-cell results equal: the same failure message or
    the same scores, bit for bit."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] if isinstance(a[k], str) or isinstance(b[k], str) else np.array_equal(a[k], b[k], equal_nan=True)
        for k in a)


def rep_alone(config: harness.ExperimentConfig, truth, rep: int, pseudo: dict | None = None) -> dict:
    """Repetition ``rep``'s per-cell results from a pass over a stack of one,
    its sample drawn whole through ``harness.sample``; ``pseudo`` defaults to
    the experiment's pseudo bridges."""
    pseudo = harness._scenario_pseudo(config) if pseudo is None else pseudo
    data = harness.sample(truth.params, config.n, config.base_seed + rep)
    return harness._Pass(config, truth, pseudo, (rep,), (harness._counts(config, data),)).finish()[0]


@pytest.fixture
def serial_on_two_cpus(monkeypatch):
    """Two CPUs to run on whatever the host has, so the grid's helper
    process draws beside the main process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pids of the processes ``os.fork`` starts while the test runs, in order."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def unreaped(pids: list[int]) -> list[int]:
    """The pids of ``pids`` still running or ended but not yet reaped."""
    left = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        left.append(pid)
    return left


def zeroed(b: bridges.BridgeSet, method: str) -> bridges.BridgeSet:
    """``b`` with every component PMR reads and ``method`` does not set to zero."""
    unread = [name for name in BRIDGES_NEEDED["PMR"] if name not in BRIDGES_NEEDED[method]]
    return b.merged(bridges.BridgeSet(**{name: np.zeros_like(getattr(b, name)) for name in unread}))


def regime_value(g: np.ndarray, p_y0: np.ndarray, regime: Regime) -> float:
    """Indicator-weighted terminal-outcome mean under a potential density.

    V = sum_{y0,y1} P(y0) * g[d1(y0), d2(y0,y1,d1(y0)), y2=1, y1, y0].
    """
    total = 0.0
    for y0 in (0, 1):
        a1 = regime.d1[y0]
        for y1 in (0, 1):
            a2 = regime.d2_of(y0, y1, a1)
            total += p_y0[y0] * g[a1, a2, 1, y1, y0]
    return float(total)


def value_maximize(value_fn: Callable[[Regime], float], cls: RegimeClass) -> tuple[Regime, float]:
    """Exhaustively maximize ``value_fn``; ties keep the earliest member."""
    if not cls.members:
        raise ValueError("empty regime class")
    best = cls.members[0]
    best_value = float(value_fn(best))
    for regime in cls.members[1:]:
        value = float(value_fn(regime))
        if value > best_value:
            best, best_value = regime, value
    return best, best_value


@pytest.fixture(scope="session")
def params():
    return dgp.DgpParams.default()


@pytest.fixture(scope="session")
def joint(params):
    return dgp.true_joint(params)


@pytest.fixture(scope="session")
def solved(joint):
    return bridges.solve_bridges(joint)


@pytest.fixture(scope="session")
def oracle(joint):
    return dgp.oracle_density_from_joint(joint)


@pytest.fixture(scope="session")
def p_y0(joint):
    return marginalize(joint, ("Y0",)).mass


@pytest.fixture(scope="session")
def linear_class():
    return enumerate_class("linear")


@pytest.fixture(scope="session")
def boolean_class():
    return enumerate_class("all-boolean")


@pytest.fixture(scope="session")
def true_values(oracle, p_y0, boolean_class):
    return {
        (r.d1, r.d2): regime_value(oracle.g, p_y0, r)
        for r in boolean_class.members
    }


@pytest.fixture(scope="session")
def big_data(params):
    return dgp.sample(params, 35000, seed=20240601)
