"""The rung identity: POR, PHA and PIPW are PMR with the bridge components they
do not read set to zero, bit for bit, in the identified density
(``identify.density_from_pieces``). Each method's value estimate (``v_hat``,
and ``cross_fit``'s fold values) is checked against an independent
reference: the count-weighted mean of the telescoped PMR summand
(``estimators._pmr_telescoped``) with those components set to zero, to
1e-12.

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
from conftest import zeroed

from proxidtr.estimators import (
    FitOptions,
    _cell_counts,
    _count_mean,
    _pmr_telescoped,
    count_pmf,
    cross_fit,
    fit_bridges,
    fit_off_fold,
    fold_counts,
    v_hat,
)
from proxidtr.identify import BRIDGES_NEEDED, METHODS, density_from_pieces, observed_conditional

SETS = ("fitted", "all-pseudo", "h21+q22-pseudo", "5-fold")
PMR_READS = BRIDGES_NEEDED["PMR"]


@pytest.fixture(scope="module")
def sample(params):
    return dgp.sample(params, 35000, seed=1)


@pytest.fixture(scope="module")
def bridge_sets(sample):
    """Set name -> (the law the set is read against, the set)."""
    pmf, fitted = fit_bridges(sample)
    own, off_fold = fold_counts(sample, 5)
    return {
        "fitted": (pmf, fitted),
        "all-pseudo": (pmf, fitted.merged(pseudo_bridges(7))),
        "h21+q22-pseudo": (pmf, fitted.merged(pseudo_bridges(7, ("h21", "q22")))),
        "5-fold": (count_pmf(own), fit_off_fold(off_fold, FitOptions(folds=5))),
    }


def _density(method: str, law, b: BridgeSet) -> np.ndarray:
    """The ``method`` density of ``b`` on ``law``, read through a piece table of its own."""
    return density_from_pieces(method, observed_conditional(law)[0], b).g


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("method", METHODS)
def test_density_is_pmr_with_unread_components_zero(bridge_sets, method, name):
    law, b = bridge_sets[name]
    assert np.array_equal(_density(method, law, b), _density("PMR", law, zeroed(b, method)))


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("method", METHODS)
def test_value_is_the_telescoped_pmr_mean_with_unread_components_zero(sample, bridge_sets, linear_class, method,
                                                                      name):
    """``v_hat`` on the set, or for the 5-fold stack each of ``cross_fit``'s
    fold values, against each fold's own counts."""
    _, b = bridge_sets[name]
    counts = fold_counts(sample, 5)[0] if name == "5-fold" else [_cell_counts(sample)]
    for regime in linear_class.members[::29]:
        if name == "5-fold":
            values = cross_fit(method, sample, FitOptions(folds=5), regime).fold_estimates
        else:
            values = [v_hat(method, sample, b, regime).estimate]
        telescoped = _pmr_telescoped(zeroed(b, method), regime).reshape(len(counts), -1)
        expected = [_count_mean(fold, summand) for fold, summand in zip(counts, telescoped)]
        assert np.abs(np.subtract(values, expected)).max() <= 1e-12, regime


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("component", PMR_READS)
def test_pmr_density_is_affine_in_each_component(bridge_sets, component, name):
    law, b = bridge_sets[name]
    table = getattr(b, component)
    direction = np.random.default_rng(2026).standard_normal(table.shape)
    g0, g1, g2 = (_density("PMR", law, b.merged(BridgeSet(**{component: table + t * direction}))) for t in (0, 1, 2))
    assert np.abs(g2 - 2 * g1 + g0).max() <= 1e-14


def _fortran(b: BridgeSet) -> BridgeSet:
    """A fitted set with every component copied to Fortran order."""
    return BridgeSet(**{name: np.asfortranarray(getattr(b, name)) for name in _SHAPES}, provenance=b.provenance)


@pytest.mark.parametrize("method", METHODS)
def test_density_does_not_depend_on_the_bridges_layout(bridge_sets, method):
    pmf, fitted = bridge_sets["fitted"]
    fold_law, stacked = bridge_sets["5-fold"]
    for law, b, copy in ((pmf, fitted, BridgeSet.from_json(fitted.to_json())),
                         (pmf, fitted, _fortran(fitted)),
                         (fold_law, stacked, _fortran(stacked))):
        assert np.array_equal(_density(method, law, copy), _density(method, law, b))
