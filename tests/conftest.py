"""Shared fixtures: the exact law, solved bridges, and regime classes;
``cell_codes``, the encoder of column blocks into ``Dataset`` rows; and
``value_maximize``, the member-by-member search that the array search
(``dgp.class_values`` + ``first_maximizer``) is checked against."""

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
        (r.d1, r.d2): dgp.regime_value(oracle.g, p_y0, r)
        for r in boolean_class.members
    }


@pytest.fixture(scope="session")
def big_data(params):
    return dgp.sample(params, 35000, seed=20240601)
