"""The fixed-order small-matrix kernels of the fit and identification
layers, against their references, on random stacks drawn by ``hypothesis``
(derandomized, so every run draws the same examples).

- ``tables.invert2or4``'s closed form against ``np.linalg.inv`` on
  well-conditioned float64 and complex128 stacks, to 1e-12 relative; a
  singular block refused first in C order with the message and ``kind``
  it always had; a NaN block not refused.
- Each ``identify`` piece that reads a merged layout (the no_y2, f_obs and
  f_mid marginals, smoothed, mid22 and the q22 term) against the reduction
  or einsum over the table's own axes that it replaces, bit for bit, on
  stacked, unstacked and broadcast operands.
- Every conditional of ``tables._MarginalTree`` against
  ``tables.conditional`` bit for bit, on single laws and stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxidtr import identify
from proxidtr.dgp import OBSERVED_ORDER
from proxidtr.identify import PieceTable, _axes
from proxidtr.tables import JointPmf, SingularMatrixError, _MarginalTree, conditional, invert2or4

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
STACKS = st.sampled_from([(), (1,), (3,), (2, 3), (4, 5)])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# -- invert2or4 ------------------------------------------------------------------

@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), stack=STACKS, k=st.sampled_from([2, 4]), complex_=st.booleans())
def test_closed_form_inverse_matches_lapack(seed, stack, k, complex_):
    rng = _rng(seed)
    m = rng.random(stack + (k, k)) + k * np.eye(k)  # diagonally dominant: well conditioned
    if complex_:
        m = m + 1j * rng.random(stack + (k, k))
    inverse = invert2or4(m)
    assert inverse.dtype == m.dtype and inverse.shape == m.shape and inverse.flags.c_contiguous
    np.testing.assert_allclose(inverse, np.linalg.inv(m), rtol=1e-12, atol=1e-12 * np.abs(inverse).max())


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), stack=st.sampled_from([(3,), (2, 3), (4, 2, 2)]), k=st.sampled_from([2, 4]),
       singular=st.lists(st.integers(0, 47), min_size=1, max_size=3))
def test_singular_blocks_are_refused_at_the_first_in_c_order(seed, stack, k, singular):
    rng = _rng(seed)
    m = rng.random(stack + (k, k)) + k * np.eye(k)
    flat = m.reshape(-1, k, k)
    for block in singular:
        flat[block % len(flat), rng.integers(k)] = 0.0  # a zero row: |det| exactly 0
    first = np.unravel_index(min(b % len(flat) for b in singular), stack)
    names = tuple(f"axis{i}" for i in range(len(stack) - 1)) + ("Y0",)
    where = ", ".join(f"{n}={int(v)}" for n, v in zip(names, first))
    with pytest.raises(SingularMatrixError) as err:
        invert2or4(m, role="proxy block", axes=("Y0",))
    assert str(err.value) == f"proxy block at ({where}) is singular (|det|=0.000e+00); rank condition fails"
    assert err.value.kind == "proxy block is singular; rank condition fails"


@pytest.mark.parametrize("k", [2, 4])
def test_a_nan_block_is_not_refused(k):
    m = np.tile(np.eye(k), (3, 1, 1))
    m[1, 0, 0] = np.nan
    inverse = invert2or4(m)
    assert np.isnan(inverse[1]).any() and np.array_equal(inverse[[0, 2]], m[[0, 2]])


# -- merged contractions --------------------------------------------------------

def _table(rng, stack):
    """A random observed table given Y0, C order over OBSERVED_ORDER, led by ``stack``."""
    cond = rng.random(stack + (2,) * 9)
    return cond / cond.sum(axis=tuple(range(-8, 0)), keepdims=True)


# piece -> (its components' shapes, its layout, the reference over the table's own axes)
_REFERENCES = {
    "no_y2": ((), "abefdghi", lambda cond: cond.sum(axis=-1), "ahdebigf"),
    "f_obs": ((), "abefhic", lambda cond: cond.sum(axis=(-7, -3)), "ahebifc"),
    "f_mid": ((), "abedgh", lambda cond: cond.sum(axis=(-4, -2, -1)), "ahdebg"),
    "smoothed": ((7,), "abefchi",
                 lambda cond, h22: np.einsum("...abcdgef,...ahdebigf->...ahebifc", h22, cond.sum(axis=-1)), "ahebifc"),
    "mid22": ((7,), "abefch",
              lambda cond, h22: np.einsum("...abcdgef,...ahdebg->...ahbefc", h22, cond.sum(axis=(-4, -2, -1))),
              "ahbefc"),
    "q22-term": ((6, 7), "efcba",
                 lambda cond, q22, h22: np.einsum(
                     "...abefhi,...ahebifc->...efcba", q22,
                     cond.sum(axis=(-7, -3)) - np.einsum("...abcdgef,...ahdebigf->...ahebifc", h22, cond.sum(axis=-1))),
                 "efcba"),
}


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), stack=STACKS, bridges=st.sampled_from(["stacked", "unstacked"]),
       piece=st.sampled_from(sorted(_REFERENCES)))
def test_each_merged_piece_equals_its_einsum_bit_for_bit(seed, stack, bridges, piece):
    """Stacked bridges lead with the table's stack axes; unstacked ones
    broadcast against a stacked table, as pseudo bridges do."""
    rng = _rng(seed)
    cond = _table(rng, stack)
    ranks, layout, reference, labels = _REFERENCES[piece]
    components = [rng.random((stack if bridges == "stacked" else ()) + (2,) * rank) for rank in ranks]
    got = identify._PIECES[piece](PieceTable(cond), *components)
    expected = reference(cond, *components)
    assert np.array_equal(_axes(got, layout, labels), expected)


# -- the marginal tree ----------------------------------------------------------

# the ten conditionals ``solve_bridges`` reads, in its order, then a few more signatures
_SIGNATURES = [
    (("W1", "W2"), ("Y0", "Y1", "A1", "A2", "Z1", "Z2")),
    (("Y2",), ("Y0", "Y1", "A1", "A2", "Z1", "Z2")),
    (("W1",), ("Y0", "A1", "Z1")),
    (("W1", "W2", "Y1"), ("Y0", "A1", "Z1")),
    (("Y1",), ("Y0", "A1", "Z1")),
    (("A1",), ("Y0", "W1")),
    (("Z1",), ("Y0", "A1", "W1")),
    (("Z1",), ("Y0", "Y1", "A1", "W1", "W2")),
    (("Z1", "Z2"), ("Y0", "Y1", "A1", "A2", "W1", "W2")),
    (("A2",), ("Y0", "Y1", "A1", "W1", "W2")),
    (("Y2", "Y0"), ("A2",)),
    (("Z1", "A1"), ("Y0", "W1")),
    (("Y0",), ()),
]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), stack=STACKS, complex_=st.booleans())
def test_every_tree_conditional_equals_conditional(seed, stack, complex_):
    rng = _rng(seed)
    mass = rng.random(stack + (512,)) ** 3  # uneven cells, none zero
    mass = mass / mass.sum(axis=-1, keepdims=True)
    if complex_:  # a complex step, as ``estimators.influence`` takes
        mass = mass + 1e-20j * (rng.random(mass.shape) - mass)
    law = JointPmf(OBSERVED_ORDER, mass)
    tree = _MarginalTree(law)
    for target, given_ in _SIGNATURES:
        got, expected = tree.conditional(target, given_), conditional(law, target, given_)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
