"""Two of the paper's claims, pinned on the exact law with bridges solved from it.

Efficiency bound (contribution ii). The proxy matrices are square and
invertible, so the model is just-identified and the PMR summand is the
efficient influence function. Its law-weighted second moment, centred at
its mean, is therefore the semiparametric efficiency bound of a regime's
value. It is computed two ways: from the summand directly, and from
``estimators.influence`` of the PMR plug-in value with the bridges re-solved
from every perturbed law.

Mixed bias (contribution iii). PMR's density is affine in each bridge and
holds only products of one treatment and one outcome bridge, so its error is
a sum of cross terms, quadratic in a joint perturbation of all four bridges.
POR and PIPW read one bridge each, so their errors are linear; PHA's has a
linear and a quadratic part.
"""

import numpy as np
import pytest

from proxidtr import dgp, identify
from proxidtr.bridges import BridgeSet, solve_bridges
from proxidtr.estimators import _pmr_summand, influence
from proxidtr.policy import Regime, class_values, first_maximizer
from proxidtr.tables import marginalize

# Boolean index -> the efficiency bound of its value, measured both ways below (they agree to 4.4e-16)
BOUNDS = {837: 0.793893, 1023: 0.841479, 0: 1.939554}  # the optimal linear regime, always-, never-treat
EPSILONS = (0.1, 0.01, 0.001)


def test_efficiency_bound_of_the_pmr_value(joint, linear_class, params):
    values = dgp.true_values(params)
    assert linear_class.index[first_maximizer(values[linear_class.index])] == 837
    law = marginalize(joint, dgp.OBSERVED_ORDER)
    mass = law.mass.reshape(-1)
    index = np.array(list(BOUNDS))

    def pmr_values(pmf):
        pieces, p_y0 = identify.observed_conditional(pmf)
        return class_values(identify.density_from_pieces("PMR", pieces, solve_bridges(pmf)).g, p_y0, index)

    via_influence = influence(pmr_values, law) ** 2 @ mass
    solved = solve_bridges(joint)
    for k, (i, bound) in enumerate(BOUNDS.items()):
        summand = _pmr_summand(solved, Regime.from_index(i))
        second_moment = mass @ (summand - mass @ summand) ** 2
        assert abs(second_moment - via_influence[k]) <= 1e-12
        assert abs(second_moment - bound) <= 1e-6


@pytest.fixture(scope="module")
def density_errors(joint, solved, oracle):
    """epsilon -> method -> the largest density error against the Oracle, with
    all four bridges PMR reads perturbed by epsilon times one N(0, 1) draw."""
    rng = np.random.default_rng(0)
    delta = {name: rng.standard_normal(getattr(solved, name).shape) for name in ("h22", "h21", "q11", "q22")}
    pieces = identify.observed_conditional(joint)[0]
    errors = {}
    for eps in EPSILONS:
        perturbed = solved.merged(BridgeSet(**{name: getattr(solved, name) + eps * d for name, d in delta.items()}))
        errors[eps] = {m: float(np.abs(identify.density_from_pieces(m, pieces, perturbed).g - oracle.g).max())
                       for m in identify.METHODS}
    return errors


def _ratios(density_errors, method):
    return [density_errors[big][method] / density_errors[small][method]
            for big, small in zip(EPSILONS, EPSILONS[1:])]


def test_pmr_error_is_quadratic_in_the_bridge_errors(density_errors):
    assert density_errors[0.1]["PMR"] == pytest.approx(1.4252e-2, rel=1e-4)
    assert density_errors[0.001]["PMR"] == pytest.approx(1.4252e-6, rel=1e-4)
    assert _ratios(density_errors, "PMR") == pytest.approx([100, 100], rel=1e-9)


@pytest.mark.parametrize("method", ["POR", "PIPW"])
def test_single_bridge_errors_are_linear(density_errors, method):
    assert _ratios(density_errors, method) == pytest.approx([10, 10], rel=1e-9)


def test_pha_error_has_a_linear_and_a_quadratic_part(density_errors):
    assert all(10 < ratio < 100 for ratio in _ratios(density_errors, "PHA"))
