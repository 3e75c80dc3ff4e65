"""The rung identity: POR, PHA and PIPW are PMR with the bridge components they
do not read set to zero, bit for bit, both in the identified density
(``identify.density_from_conditional``) and in the estimator summand
(``estimators._summands``).

Each identity is checked on four bridge sets of one sample at n = 35000:
fitted, all-pseudo, h21+q22-pseudo, and the 5-fold stack of off-fold fits
(each fold's density read off its own counts). PMR's density is also checked
to be affine in each of h22, h21, q11 and q22: its second difference along a
seeded N(0, 1) direction vanishes to rounding. Every method's density reads
a set's values, not its memory layout: a JSON round trip and Fortran-order
copies identify bit for bit like the set itself.
"""

import numpy as np
import pytest

from proxidtr import dgp
from proxidtr.bridges import _SHAPES, BridgeSet, pseudo_bridges
from proxidtr.estimators import FitOptions, _summands, count_pmf, fit_bridges, fold_fits
from proxidtr.identify import BRIDGES_NEEDED, METHODS, density_from_conditional, observed_conditional

SETS = ("fitted", "all-pseudo", "h21+q22-pseudo", "5-fold")
PMR_READS = BRIDGES_NEEDED["PMR"]


@pytest.fixture(scope="module")
def bridge_sets(params):
    """Set name -> (the observed table given Y0 the set is read against, the set)."""
    sample = dgp.sample(params, 35000, seed=1)
    pmf, fitted = fit_bridges(sample)
    cond = observed_conditional(pmf)[0]
    own, stacked, _ = fold_fits(sample, FitOptions(folds=5))
    return {
        "fitted": (cond, fitted),
        "all-pseudo": (cond, fitted.merged(pseudo_bridges(7))),
        "h21+q22-pseudo": (cond, fitted.merged(pseudo_bridges(7, ("h21", "q22")))),
        "5-fold": (observed_conditional(count_pmf(own))[0], stacked),
    }


def _zeroed(b: BridgeSet, method: str) -> BridgeSet:
    """``b`` with every component PMR reads and ``method`` does not set to zero."""
    unread = [name for name in PMR_READS if name not in BRIDGES_NEEDED[method]]
    return b.merged(BridgeSet(**{name: np.zeros_like(getattr(b, name)) for name in unread}))


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("method", METHODS)
def test_density_is_pmr_with_unread_components_zero(bridge_sets, method, name):
    cond, b = bridge_sets[name]
    rung = density_from_conditional(method, cond, b).g
    assert np.array_equal(rung, density_from_conditional("PMR", cond, _zeroed(b, method)).g)


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("method", METHODS)
def test_summand_is_pmr_with_unread_components_zero(bridge_sets, linear_class, method, name):
    _, b = bridge_sets[name]
    zeroed = _zeroed(b, method)
    for regime in linear_class.members[::29]:
        assert np.array_equal(_summands(method, b, regime), _summands("PMR", zeroed, regime))


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("component", PMR_READS)
def test_pmr_density_is_affine_in_each_component(bridge_sets, component, name):
    cond, b = bridge_sets[name]
    table = getattr(b, component)
    direction = np.random.default_rng(2026).standard_normal(table.shape)
    g0, g1, g2 = (density_from_conditional("PMR", cond, b.merged(BridgeSet(**{component: table + t * direction}))).g
                  for t in (0, 1, 2))
    assert np.abs(g2 - 2 * g1 + g0).max() <= 1e-14


def _fortran(b: BridgeSet) -> BridgeSet:
    """A fitted set with every component copied to Fortran order."""
    return BridgeSet(**{name: np.asfortranarray(getattr(b, name)) for name in _SHAPES}, provenance=b.provenance)


@pytest.mark.parametrize("method", METHODS)
def test_density_does_not_depend_on_the_bridges_layout(bridge_sets, method):
    cond, fitted = bridge_sets["fitted"]
    fold_cond, stacked = bridge_sets["5-fold"]
    for law, b, copy in ((cond, fitted, BridgeSet.from_json(fitted.to_json())),
                         (cond, fitted, _fortran(fitted)),
                         (fold_cond, stacked, _fortran(stacked))):
        assert np.array_equal(density_from_conditional(method, law, copy).g,
                              density_from_conditional(method, law, b).g)
