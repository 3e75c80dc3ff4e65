"""Shared fixtures: the exact law, solved bridges, and regime classes;
``cell_codes``, the encoder of column blocks into ``Dataset`` rows; and the
references the array kernel (``dgp.class_values`` + ``first_maximizer``) is
checked against: ``regime_value``, one regime's value by a loop over
(y0, y1), and ``value_maximize``, the member-by-member search."""

from typing import Callable

import numpy as np
import pytest

from proxidtr import bridges, dgp
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
