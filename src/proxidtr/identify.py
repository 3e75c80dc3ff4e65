"""Population-level identification of potential-outcome densities and values.

Given an observed-data law (any table containing the nine observed variables)
and confounding bridges, four strategies recover the conditional joint
density f(Y2(a1,a2)=y2, Y1(a1)=y1 | Y0=y0):

  POR   outcome bridges only:        sum_w1 h21 f(w1|y0)
  PHA   hybrid split at stage 1:     sum_{w1,w2,z1} h22 q11 f(w1,w2,z1,y1,a1|y0)
  PIPW  treatment bridges only:      sum_{z1,z2} q22 f(y1,y2,a1,a2,z1,z2|y0)
  PMR   multiply robust combination: PIPW residual + stage-1 correction + POR

Every method reads the law only through its observed table given Y0
(``observed_conditional``): ``density_from_conditional`` takes that table,
so one conditioning serves all four, and ``density_por/pha/pipw/pmr`` wrap
it for a law. All four are one formula, PMR's three stage terms

  q22 (f_obs - smoothed(h22)) + q11 (mid(h22) - mid(h21)) + h21 f_w1,

with f_obs and f_w1 marginals of the observed table given Y0, smoothed(h22)
the h22-weighted sum of that table over (w1, w2), and mid(h) an outcome
bridge summed against its stage-1 marginal. A method computes only the
terms and inner parts whose component it reads and leaves the others out,
which is PMR with those components set to zero, bit for bit: POR is
h21 f_w1, PHA q11 mid(h22) and PIPW q22 f_obs, the k = 0, 1, 2 rungs of the
hybrid (``_hybrid_density``).

Every term and inner part is read through a ``PieceTable`` of the observed
table given Y0: its marginals and each bridge product, made on first use and
kept, keyed by the identity of the components it reads. One table serves
every method and bridge set read against the same law, so each distinct
product is computed once (the harness keeps one per repetition), and reading
through a shared table changes no bit: every piece is the same arithmetic on
the same operands. The three products that sum over four cells (smoothed,
mid22 and the q22 term) are each one einsum over merged axes
(``_contract``: batch, row, contracted and column axes each merged into
one), on operands laid out for it once per table: h22's layout is a keyed
piece, and the no_y2, f_obs and f_mid marginals are summed straight into
theirs (``_summed``). Each sums its cells in the order the einsum and the
reductions over the tables' own axes did, so no bit moved when they
replaced them; ``tests/test_kernels.py`` holds those references. No BLAS
call is made. ``density_from_pieces`` reads a density off a table, and
``density_from_conditional`` builds a table for its one call.

The PMR combination equals the truth whenever any one of the bridge subsets
{h22,h21}, {h22,q11}, {q11,q22} is correct; the other three methods each
require their own bridges. ``BRIDGES_NEEDED`` lists the components each
method reads and is the one place the method names are written; ``METHODS``
is its key order, which the estimators, the harness and the CLI share, and
``_require`` is the one refusal of a name outside it.

Every method returns a ``dgp.IdentifiedDensity`` (re-exported here), as do
SRA and the Oracle, and reports it raw: misspecified bridges can push cells
negative or break normalization, and downstream consumers see that rather
than a silently repaired table. ``value_from_density`` reads a regime's
value off any of them with ``policy.class_values``, the package's one
plug-in value kernel.

``pick`` is the one place a density becomes a regime: under each density of
a stack it returns the Boolean index the optimizer picks and that regime's
estimated value, and it reads no truth. Value maximization takes the first
maximizer of ``class_values`` over a class's indices; Q-learning takes the
greedy regime of ``q_functions`` over the Boolean class. The harness scores
these picks against the truth; it does not pick.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

import numpy as np

from .bridges import BridgeSet
from .dgp import OBSERVED_ORDER, IdentifiedDensity, marginal_y0
from .policy import Regime, class_values, first_maximizer, q_learning_index
from .tables import JointPmf, _axes, _contract, _layout, _MarginalTree, _refuse_zero, conditional

# method -> the bridge components it reads; the one list of the bridge methods
BRIDGES_NEEDED = {
    "POR": ("h21",),
    "PHA": ("h22", "q11"),
    "PIPW": ("q22",),
    "PMR": ("h22", "h21", "q11", "q22"),
}
METHODS = tuple(BRIDGES_NEEDED)


def observed_conditional(pmf: JointPmf) -> tuple[np.ndarray, np.ndarray]:
    """Observed-law table given Y0 and the Y0 marginal.

    Returns (cond, p_y0) where cond[y0, z1, w1, a1, y1, z2, w2, a2, y2] is
    the joint law of the remaining observed variables given Y0 = y0. Both
    marginals are read off one marginal tree of the law, so p_y0 is the
    ``dgp.marginal_y0`` of the law bit for bit.
    """
    tree = _MarginalTree(pmf)
    arr, p_y0 = tree.marginal(OBSERVED_ORDER), tree.marginal(("Y0",))
    _refuse_zero(p_y0.real <= 0.0, ("Y0",), "P(Y0=y0) = 0 at {cell}; cannot condition")
    return arr / p_y0[(...,) + (None,) * 8], p_y0


# einsum letters used below:
#   a=y0 b=y1 c=y2 d=w1 g=w2 e=a1 f=a2 h=z1 i=z2
# cond axes: [y0 z1 w1 a1 y1 z2 w2 a2 y2] = a h d e b i g f c, counted from the end;
# ``...`` carries a stack of tables (one per fold) and broadcasts unstacked bridges
_COND = "ahdebigfc"


def _require(method: str, b: BridgeSet) -> tuple[str, ...]:
    """The components ``method`` reads, once ``b`` is checked to carry them;
    the one refusal of an unknown method."""
    if method not in BRIDGES_NEEDED:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    b.require(*BRIDGES_NEEDED[method])
    return BRIDGES_NEEDED[method]


class PieceTable:
    """Every product ``_density`` reads off one observed table given Y0,
    computed on first use and kept: the table's marginals and each bridge
    product (``_PIECES``), keyed by the identity of the components it reads.
    The table holds each keyed component, so no id it keys by is reused while
    the table lives. One table serves every bridge set read against the same
    law, and each distinct piece is computed once."""

    def __init__(self, cond: np.ndarray):
        self.cond = cond
        self._memo: dict[tuple, tuple] = {}  # (piece, *ids of its components) -> (components, piece)

    def get(self, piece: str, *components) -> np.ndarray:
        """``piece`` of these components (None for one not read), made on first use."""
        key = (piece, *map(id, components))
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (components, _PIECES[piece](self, *components))
        return entry[1]


def _summed(x: np.ndarray, labels: str, over: str, order: str) -> np.ndarray:
    """``x`` summed over the letters ``over`` cell by cell in C order, left
    to right (the order of numpy's reduction over those axes of a C-order
    table), into a fresh C-order array with the other letters in ``order``."""
    v = _axes(x, labels, order + over)
    cells = [v[(..., *cell)] for cell in product((0, 1), repeat=len(over))]
    total = np.add(cells[0], cells[1], out=np.empty(cells[0].shape, v.dtype))
    for cell in cells[2:]:
        total += cell
    return total


# piece -> how it is made from its table and the components it is keyed by, a
# missing one (None) read as zero: the marginals of the table given Y0 (those
# ``_contract`` reads in its merged layout), h22 in that layout, smoothed and
# mid of an outcome bridge, and PMR's three stage terms in PMR's grouping; the
# layout each piece is held in is given as einsum letters
_PIECES = {
    "f_w1z1": lambda t: t.cond.sum(axis=(-5, -4, -3, -2, -1)),  # [y0, z1, w1, a1] = ahde
    "f_w1": lambda t: t.get("f_w1z1").sum(axis=(-3, -1)),  # [y0, w1] = ad
    "no_y2": lambda t: _summed(t.cond, _COND, "c", "abefdghi"),
    "f_obs": lambda t: _summed(t.cond, _COND, "dg", "abefhic"),
    # numpy sums the contiguous (a2, y2) cells of each z2 first
    "f_mid": lambda t: _summed(t.cond.reshape(t.cond.shape[:-2] + (4,)).sum(axis=-1), "ahdebig", "i", "abedgh"),
    "h22 layout": lambda t, h22: _layout(h22, "abcdgef", "abefcdg"),
    "smoothed": lambda t, h22: _contract(t.get("h22 layout", h22), t.get("no_y2"), 4, 1, 2, 2),  # abefchi
    "f_obs - smoothed": lambda t, h22: t.get("f_obs") - (  # abefhic
        0.0 if h22 is None else _axes(t.get("smoothed", h22), "abefchi", "abefhic")),
    # mid(h) [y0, y1, a1, a2, y2, z1] = abefch
    "mid22": lambda t, h22: _contract(t.get("h22 layout", h22), t.get("f_mid"), 3, 2, 2, 1),
    "mid21": lambda t, h21: np.einsum("...abcdef,...ahde->...abefch", h21, t.get("f_w1z1")),
    "q22-term": lambda t, q22, h22: _axes(_contract(q22, t.get("f_obs - smoothed", h22), 4, 0, 2, 1),
                                          "abefc", "efcba"),
    "q11-term": lambda t, q11, h22, h21: np.einsum(
        "...aeh,...abefch->...efcba", q11,
        (0.0 if h22 is None else t.get("mid22", h22)) - (0.0 if h21 is None else t.get("mid21", h21))),
    "h21-term": lambda t, h21: np.einsum("...abcdef,...ad->...efcba", h21, t.get("f_w1")),
}


def _density(pieces: PieceTable, b: BridgeSet, read: tuple[str, ...]) -> np.ndarray:
    """PMR's three stage terms in PMR's grouping,

        q22 (f_obs - smoothed(h22)) + q11 (mid(h22) - mid(h21)) + h21 f_w1,

    with every term or inner part whose component is not in ``read`` left out,
    so the method that reads ``read`` is PMR with its other components set to
    zero, bit for bit. Every term is read through ``pieces``."""
    h22, h21, q11, q22 = (getattr(b, name) if name in read else None for name in ("h22", "h21", "q11", "q22"))
    terms = (pieces.get("q22-term", q22, h22) if q22 is not None else None,
             pieces.get("q11-term", q11, h22, h21) if q11 is not None else None,
             pieces.get("h21-term", h21) if h21 is not None else None)
    return reduce(np.add, [term for term in terms if term is not None])


def _hybrid_density(cond: np.ndarray, b: BridgeSet, k: int) -> np.ndarray:
    """The k = 0, 1, 2 identification rungs: POR, PHA and PIPW, in METHODS order."""
    if k not in (0, 1, 2):
        raise ValueError(f"hybrid rung k must be 0, 1 or 2, got {k}")
    return _density(PieceTable(cond), b, BRIDGES_NEEDED[METHODS[k]])


def density_from_pieces(method: str, pieces: PieceTable, b: BridgeSet) -> IdentifiedDensity:
    """The ``method`` density from the piece table of an observed table given
    Y0, so one table serves every method and bridge set read against it."""
    return IdentifiedDensity(_density(pieces, b, _require(method, b)), method, b.provenance)


def density_from_conditional(method: str, cond: np.ndarray, b: BridgeSet) -> IdentifiedDensity:
    """The ``method`` density from the observed table given Y0,
    ``observed_conditional(pmf)[0]``, read through a piece table of its own."""
    return density_from_pieces(method, PieceTable(cond), b)


def density_por(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("POR", observed_conditional(pmf)[0], b)


def density_pha(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("PHA", observed_conditional(pmf)[0], b)


def density_pipw(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("PIPW", observed_conditional(pmf)[0], b)


def density_pmr(pmf: JointPmf, b: BridgeSet) -> IdentifiedDensity:
    return density_from_conditional("PMR", observed_conditional(pmf)[0], b)


def pipw_marginal_stage1(pmf: JointPmf, b: BridgeSet) -> np.ndarray:
    """f(Y1(a1)=y1 | y0) identified with q11 alone, from P(Z1, A1, Y1 | Y0)
    of the law; indexed [..., a1, y1, y0], led by the stack axes of a stack
    of laws."""
    b.require("q11")
    f4 = conditional(pmf, ("Z1", "A1", "Y1"), ("Y0",))  # [..., y0, z1, a1, y1]
    return np.einsum("...aeh,...aheb->...eba", b.q11, f4)


def value_from_density(g: IdentifiedDensity | np.ndarray, pmf: JointPmf, regime: Regime) -> float | np.ndarray:
    """Indicator-weighted value of a regime under an identified density:
    ``policy.class_values`` at the regime's Boolean index. A Python float for one
    real law; a stack of densities and laws gives one value per law, and a
    complex density its complex value, both as arrays."""
    arr = g.g if isinstance(g, IdentifiedDensity) else np.asarray(g)
    value = class_values(arr, marginal_y0(pmf), [regime.index])[..., 0]
    return value if value.ndim or np.iscomplexobj(value) else float(value)


def q_functions(g: IdentifiedDensity | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward-induction Q tables from an identified density, or from each
    density of a stack ``(..., 2, 2, 2, 2, 2)``.

    Q2[..., y0, y1, a1, a2] is the ratio of the y2-weighted to the y2-summed
    density; Q1[..., y0, a1] propagates max_a2 Q2 with the stage-1 weights
    taken from the same density (evaluated at a2 = 0; the weights are
    a2-invariant wherever the identification is valid). Zero denominators
    are an error, never a sentinel; the error names the first zero cell in C
    order by its place within its own density, so a stack of one density
    fails with the text that density fails with alone.
    """
    arr = g.g if isinstance(g, IdentifiedDensity) else np.asarray(g)
    den2 = arr.sum(axis=-3)  # [..., a1, a2, y1, y0]
    _refuse_zero(den2.real == 0.0, ("a1", "a2", "y1", "y0"),  # the first zero cell in (a1, a2, y1, y0) order
                 "zero stage-2 denominator at (y0={y0}, y1={y1}, a1={a1}, a2={a2}); "
                 "f(Y1({a1})={y1}|Y0={y0}) is degenerate")
    # [..., a1, a2, y1, y0] -> [..., y0, y1, a1, a2]
    q2 = np.moveaxis(arr[..., 1, :, :] / den2, (-1, -2), (-4, -3))
    weights = np.moveaxis(den2, (-1, -2), (-4, -3))[..., 0]  # [..., y0, y1, a1] at a2=0
    total = weights.sum(axis=-2, keepdims=True)  # [..., y0, 1, a1]
    _refuse_zero(total[..., 0, :].real == 0.0, ("y0", "a1"),
                 "zero stage-1 normalizer in Q1 weights at (y0={y0}, a1={a1})")
    q1 = np.einsum("...xyk,...xyk->...xk", weights / total, q2.max(axis=-1))  # [..., y0, a1]
    return q2, q1


def pick(g: IdentifiedDensity | np.ndarray, p_y0: np.ndarray, index: np.ndarray,
         optimizer: str) -> tuple[int, float] | tuple[np.ndarray, np.ndarray]:
    """(Boolean index, estimated value) of the regime ``optimizer`` picks under
    a density ``g`` with P(y0) ``p_y0``: an int and a float for one density
    (2, 2, 2, 2, 2), and an array of each for a 1-D stack (D, 2, 2, 2, 2, 2)
    with P(y0) (D, 2), entry d that of density d alone. No truth is read.

    "value-max" picks the first maximizer of ``class_values`` over the
    Boolean indices ``index`` (``first_maximizer``: ties go to the first, a
    NaN in first place is kept and one elsewhere never wins); "q-learning"
    picks the greedy regime of the density's Q tables (``q_learning_index``)
    and ignores ``index``. The estimated value is ``class_values`` at the pick.
    """
    arr = g.g if isinstance(g, IdentifiedDensity) else np.asarray(g)
    if optimizer not in ("value-max", "q-learning"):
        raise ValueError(f"unknown optimizer {optimizer!r}; expected 'value-max' or 'q-learning'")
    if arr.ndim not in (5, 6):
        raise ValueError(f"pick reads one density or a 1-D stack of them, got shape {arr.shape}")
    stack, p_stack = arr.reshape((-1,) + (2,) * 5), np.reshape(p_y0, (-1, 2))  # one density: a stack of one
    if optimizer == "q-learning":
        chosen = q_learning_index(*q_functions(stack))
    else:
        chosen = np.asarray(index)[first_maximizer(class_values(stack, p_stack, index))]
    value = np.diagonal(class_values(stack, p_stack, chosen))  # density d's value of its own pick chosen[d]
    return (chosen, value) if arr.ndim == 6 else (int(chosen[0]), float(value[0]))
