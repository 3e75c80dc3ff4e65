"""Influence functions by one stacked complex step (``estimators.influence``).

The influence function (IF) of a plug-in functional at the law P is its
Gateaux derivative along delta_c - P at every cell c. With bridges solved
from the law itself the four methods are one functional, whose IF is the PMR
summand centred at its P-mean; a method whose every component is a fixed
(pseudo) bridge is linear in P, so its IF is its own centred summand; a
method that mixes fitted and pseudo components has neither form, and is
checked against a central real difference instead.
"""

import numpy as np
import pytest

from proxidtr import dgp, identify
from proxidtr.bridges import DEFAULT_PSEUDO_SEED, pseudo_bridges, solve_bridges
from proxidtr.estimators import _summands, count_pmf, empirical_pmf, influence
from proxidtr.harness import SCENARIO_PSEUDO
from proxidtr.policy import Regime, class_values
from proxidtr.tables import JointPmf, TableError

# the methods that read fitted and pseudo components at once, per scenario
MIXED = {("m0-correct", "PHA"), ("m0-correct", "PMR"), ("m1-correct", "PMR"),
         ("m2-correct", "PHA"), ("m2-correct", "PMR")}
EPS = 1e-7  # the step of the central real difference


@pytest.fixture(scope="module")
def law(big_data):
    return empirical_pmf(big_data)


@pytest.fixture(scope="module")
def members(linear_class):
    """Every 37th linear member, as (Boolean indices, regimes)."""
    picked = range(0, len(linear_class.index), 37)
    return linear_class.index[picked], [linear_class.member(k) for k in picked]


def _method_values(pseudo, index):
    """The functional: the four methods' values of the regimes ``index`` under
    each law of a stack, with ``pseudo`` merged into the bridges solved from
    that law, shape (..., 4, K)."""
    def values(pmf: JointPmf) -> np.ndarray:
        pieces, p_y0 = identify.observed_conditional(pmf)
        b = solve_bridges(pmf).merged(pseudo)
        return np.stack([class_values(identify.density_from_pieces(m, pieces, b).g, p_y0, index)
                         for m in identify.METHODS], axis=-2)
    return values


def _centred(method, b, regime, mass):
    summand = _summands(method, b, regime)
    return summand - mass @ summand


@pytest.mark.parametrize("scenario", list(SCENARIO_PSEUDO))
def test_influence_of_each_method_value(scenario, law, members):
    index, regimes = members
    pseudo = pseudo_bridges(DEFAULT_PSEUDO_SEED, SCENARIO_PSEUDO[scenario])
    fn = _method_values(pseudo, index)
    infl = influence(fn, law)  # one stacked call
    mass = law.mass.reshape(-1)
    assert infl.shape == (4, len(index), 512) and infl.dtype == np.float64
    assert np.abs(infl @ mass).max() <= 1e-12  # mean zero under P

    fitted = solve_bridges(law)
    merged = fitted.merged(pseudo)
    big = np.flatnonzero(mass > 1e-3)
    direction = np.eye(512)[big] - mass
    for m, method in enumerate(identify.METHODS):
        replaced = set(identify.BRIDGES_NEEDED[method]) & set(SCENARIO_PSEUDO[scenario])
        if (scenario, method) in MIXED:
            plus = fn(JointPmf(law.names, mass + EPS * direction))[:, m]
            minus = fn(JointPmf(law.names, mass - EPS * direction))[:, m]
            assert np.abs(infl[m][:, big] - ((plus - minus) / (2 * EPS)).T).max() <= 1e-6
            continue
        assert not replaced or replaced == set(identify.BRIDGES_NEEDED[method])
        for k, regime in enumerate(regimes):
            # fitted components: the one plug-in functional; all pseudo: linear in P
            expected = _centred(method, merged, regime, mass) if replaced else _centred("PMR", fitted, regime, mass)
            assert np.abs(infl[m, k] - expected).max() <= 1e-12, (method, regime)


def test_influence_of_the_pmr_plug_in_value_through_value_from_density(law):
    regime = Regime((1, 0), (0, 1, 1, 0, 1, 0, 0, 1))
    infl = influence(lambda p: identify.value_from_density(identify.density_pmr(p, solve_bridges(p)), p, regime), law)
    assert infl.shape == (512,)
    assert np.abs(infl - _centred("PMR", solve_bridges(law), regime, law.mass.reshape(-1))).max() <= 1e-12


def test_influence_refuses_a_stack_of_laws():
    stack = count_pmf(np.ones((2, 512)))
    with pytest.raises(TableError, match=r"^influence reads a single law, not a stack of laws of shape \(2,\)$"):
        influence(lambda p: p.mass, stack)
