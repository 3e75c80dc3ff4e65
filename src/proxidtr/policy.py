"""Two-stage treatment regimes over binary histories and their search classes.

A regime is a pair of decision tables: d1 maps the baseline outcome y0 to the
first treatment, d2 maps (y0, y1, a1) to the second. The linear class contains
exactly the regimes realizable as strict-threshold rules

    d1(y0)        = 1[t10 + t11*y0 > 0]
    d2(y0,y1,a1)  = 1[t20 + t21*y0 + t22*y1 + t23*a1 > 0]

with unit-norm coefficient vectors. Over binary inputs these are finite sets:
all 4 one-input Boolean functions are thresholds, and 104 of the 256 Boolean
functions of three inputs are (the linearly separable ones). Enumeration
therefore replaces continuous optimization over the coefficients: maximizing
any value function over the class is an exact, solver-free fold.

A regime is its 10-bit Boolean index: d1 then d2 read as bits, d1(0) the
most significant (``Regime.index``). A class is the ascending array of its
members' indices, so enumeration, the search and scoring against true values
are integer array operations; ``RegimeClass.members`` builds the ``Regime``
objects, linear members with their certificates, only when read, and
``RegimeClass.member`` builds one of them alone.

Tie-breaking is normative: a threshold at exactly zero maps to action 0, and
value maximization returns the first maximizer in canonical enumeration order
(ascending Boolean index: d1 index, then d2 truth-table integer).

``DENSITY_CELLS`` holds, for every Boolean index, the flat indices of the
four density cells its value reads, so the values of any regimes under one
density, or under each of a stack, are a single array gather
(``dgp.class_values``); ``first_maximizer`` picks the first maximum, as an
exhaustive loop with a strict ``>`` would. Q-learning's greedy
rule picks from Q tables instead: ``q_learning_index`` gives the greedy
regime's Boolean index for each law of a stack of tables, and
``q_learning_regime`` builds that regime for one law.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .tables import _locked

NORM_TOL = 1e-9
BOOLEAN_SIZE = 1 << 10  # regimes over binary histories: 2 d1 bits and 8 d2 bits

# (y0, y1, a1) cells in lexicographic order; index = y0*4 + y1*2 + a1
D2_CELLS = tuple(itertools.product((0, 1), repeat=3))


def _density_cells() -> np.ndarray:
    """(4, BOOLEAN_SIZE) flat indices into a (2,)*5 density ``g[a1, a2, y2, y1, y0]``.

    Row ``2*y0 + y1``, column i holds the cell ``g[d1(y0), d2(y0, y1, d1(y0)), 1, y1, y0]``
    of the regime whose Boolean index is i. d1(y0) is bit ``9 - y0`` of i and
    d2 at cell c is bit ``7 - c``.
    """
    index = np.arange(BOOLEAN_SIZE)
    y0, y1 = np.divmod(np.arange(4)[:, None], 2)
    a1 = (index >> (9 - y0)) & 1
    a2 = (index >> (7 - (4 * y0 + 2 * y1 + a1))) & 1
    return _locked(16 * a1 + 8 * a2 + 4 + 2 * y1 + y0)  # C order over (a1, a2, y2, y1, y0), at y2 = 1


DENSITY_CELLS = _density_cells()


def _read_bits(bits: Iterable[int]) -> int:
    """The integer these bits spell, the first the most significant."""
    out = 0
    for bit in bits:
        out = (out << 1) | bit
    return out


def _check_bits(bits: Iterable[int], n: int, label: str) -> tuple[int, ...]:
    bits = tuple(bits)
    if len(bits) != n or any(b not in (0, 1) for b in bits):  # checked before int(), which would truncate 0.5
        raise ValueError(f"{label} must be {n} bits, got {bits}")
    return tuple(int(b) for b in bits)


@dataclass(frozen=True)
class Regime:
    """Decision lookup tables, optionally carrying a linear certificate.

    ``d1[y0]`` and ``d2[y0*4 + y1*2 + a1]`` hold the actions; ``theta1`` /
    ``theta2`` are unit-norm threshold coefficients that must reproduce the
    tables exactly when present.
    """

    d1: tuple[int, int]
    d2: tuple[int, int, int, int, int, int, int, int]
    theta1: tuple[float, float] | None = None
    theta2: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "d1", _check_bits(self.d1, 2, "d1"))
        object.__setattr__(self, "d2", _check_bits(self.d2, 8, "d2"))
        if (self.theta1 is None) != (self.theta2 is None):
            raise ValueError("theta1 and theta2 must be given together")
        if self.theta1 is not None:
            t1 = tuple(float(v) for v in self.theta1)
            t2 = tuple(float(v) for v in self.theta2)
            for name, t, k in (("theta1", t1, 2), ("theta2", t2, 4)):
                if len(t) != k:
                    raise ValueError(f"{name} must have length {k}, got {t}")
                if not abs(float(np.linalg.norm(t)) - 1.0) <= NORM_TOL:  # also rejects NaN
                    raise ValueError(f"{name} norm must be 1, got {t}")
            for y0 in (0, 1):
                if int(t1[0] + t1[1] * y0 > 0) != self.d1[y0]:
                    raise ValueError("theta1 does not reproduce d1")
            for y0, y1, a1 in D2_CELLS:
                if int(t2[0] + t2[1] * y0 + t2[2] * y1 + t2[3] * a1 > 0) != self.d2_of(y0, y1, a1):
                    raise ValueError("theta2 does not reproduce d2")
            object.__setattr__(self, "theta1", t1)
            object.__setattr__(self, "theta2", t2)

    def d2_of(self, y0: int, y1: int, a1: int) -> int:
        return self.d2[(y0 << 2) | (y1 << 1) | a1]

    @property
    def index(self) -> int:
        """Boolean index: d1 then d2 read as 10 bits, d1(0) the most significant."""
        return _read_bits(self.d1 + self.d2)

    @classmethod
    def from_index(cls, index: int, theta1=None, theta2=None) -> "Regime":
        """The regime whose ``index`` this is, with an optional certificate."""
        if not 0 <= index < BOOLEAN_SIZE or index != int(index):
            raise ValueError(f"a Boolean index is an integer in [0, {BOOLEAN_SIZE}), got {index}")
        bits = [(int(index) >> shift) & 1 for shift in range(9, -1, -1)]
        return cls(bits[:2], bits[2:], theta1, theta2)

    def to_json(self) -> str:
        payload: dict = {"d1": list(self.d1), "d2": list(self.d2)}
        if self.theta1 is not None:
            payload["theta1"] = list(self.theta1)
            payload["theta2"] = list(self.theta2)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Regime":
        payload = json.loads(text)
        if not isinstance(payload, dict) or not all(isinstance(payload.get(k), list) for k in ("d1", "d2")):
            raise ValueError("a regime must be a JSON object with bit lists 'd1' and 'd2'")
        for key in ("d1", "d2"):  # true and 1.0 equal 1, which ``_check_bits`` would pass
            if not all(type(b) is int and b in (0, 1) for b in payload[key]):
                raise ValueError(f"{key} bits must be the JSON integers 0 or 1, got {json.dumps(payload[key])}")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:  # a misspelled certificate would otherwise go unchecked
            raise ValueError(f"unknown regime keys {unknown}")
        thetas = []
        for key in ("theta1", "theta2"):
            theta = payload.get(key)  # only a missing key or null means no certificate
            if theta is not None and not (isinstance(theta, list) and all(type(v) in (int, float) for v in theta)):
                raise ValueError(f"{key} must be a list of numbers, got {theta!r}")
            thetas.append(None if theta is None else tuple(theta))
        return cls(tuple(payload["d1"]), tuple(payload["d2"]), *thetas)


@dataclass(frozen=True, eq=False)
class RegimeClass:
    """A regime class as the ascending Boolean indices of its members.

    ``index`` is a read-only (K,) integer array; two classes are equal when
    their tags and indices are. Members of the ``"linear"`` class carry
    their threshold certificates.
    """

    tag: str
    index: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.index)
        d2_tables = list(_separable_d2_tables()) if self.tag == "linear" else np.arange(256)
        if (index.ndim != 1 or index.dtype.kind not in "iu" or np.any(np.diff(index) <= 0)
                or not np.all((index >= 0) & (index < BOOLEAN_SIZE) & np.isin(index & 0xFF, d2_tables))):
            raise ValueError(f"a {self.tag!r} class index must hold ascending Boolean indices of its regimes")
        object.__setattr__(self, "index", _locked(index.astype(np.intp)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RegimeClass) and self.tag == other.tag
                and np.array_equal(self.index, other.index))

    def member(self, k: int) -> Regime:
        """Member ``k`` in class order, built alone; a linear member carries its certificate."""
        i = int(self.index[k])
        if self.tag != "linear":
            return Regime.from_index(i)
        return Regime.from_index(i, _unit(_D1_CERTIFICATES[i >> 8]), _unit(_separable_d2_tables()[i & 0xFF]))

    @cached_property
    def members(self) -> tuple[Regime, ...]:
        return tuple(map(self.member, range(len(self.index))))


def _unit(vec: Sequence[int]) -> tuple[float, ...]:
    arr = np.asarray(vec, dtype=float)
    return tuple(arr / np.linalg.norm(arr))

# Integer threshold certificates for the four one-input decision rules,
# indexed by the d1 index (d1(0) << 1) | d1(1). Strict '>0' with integer
# scores makes ties exact.
_D1_CERTIFICATES = ((-1, 0), (-1, 2), (1, -2), (1, 0))


@lru_cache(maxsize=None)
def _separable_d2_tables() -> dict[int, tuple[int, int, int, int]]:
    """Map each linearly separable d2 truth-table integer, ascending, to one
    integer certificate.

    Searches integer weights in {-4..4}^4; with 0/1 inputs the score is an
    integer, so '> 0' is exactly '>= 1' and no float ties can occur. The
    search realizes all 104 separable tables of three binary inputs; each
    keeps the first weights in grid order that realize it.
    """
    grid = np.array(list(itertools.product(range(-4, 5), repeat=4)))
    points = np.array([(1, y0, y1, a1) for y0, y1, a1 in D2_CELLS])
    labels = (grid @ points.T > 0).astype(int)  # cell 0 is the most significant bit
    tables, first = np.unique(labels @ (1 << np.arange(7, -1, -1)), return_index=True)
    # rescale so every cell's score is a nonzero integer; the unit-norm float
    # form then reproduces the table without rounding ambiguity
    return dict(zip(tables.tolist(), map(tuple, (2 * grid[first] - (1, 0, 0, 0)).tolist())))


def enumerate_class(tag: str) -> RegimeClass:
    """Enumerate the linear or unrestricted-Boolean regime class.

    Members are ordered by Boolean index (d1 index, then d2 truth-table
    integer); this order is the tie-breaking order for ``first_maximizer``.
    """
    if tag == "linear":  # every d1 table with every separable d2 table
        return RegimeClass("linear", ((np.arange(4)[:, None] << 8) | list(_separable_d2_tables())).ravel())
    if tag == "all-boolean":
        return RegimeClass("all-boolean", np.arange(BOOLEAN_SIZE))
    raise ValueError(f"unknown regime class {tag!r}; expected 'linear' or 'all-boolean'")


def first_maximizer(values: np.ndarray) -> int | np.ndarray:
    """Index of the member an exhaustive strict-``>`` loop picks from these
    values, along the last axis: an int for one row of values, an array of
    them for a stack of rows.

    The first maximum wins ties; as with a strict ``>``, a NaN in first
    place is kept and a NaN anywhere else never wins.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("empty regime class")
    nan = np.isnan(values)
    best = np.where(nan[..., 0], 0, np.argmax(np.where(nan, -np.inf, values), axis=-1))
    return int(best) if best.ndim == 0 else best


def q_learning_index(q2: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Boolean index of the greedy regime of each law of a stack of Q tables,
    ``q2[..., y0, y1, a1, a2]`` and ``q1[..., y0, a1]``: strict inequality, so
    ties choose action 0 and a NaN never wins."""
    # rows d1(0), d1(1), then d2 over (y0, y1, a1) in C order, which is D2_CELLS
    q = np.concatenate([q1, q2.reshape(q2.shape[:-4] + (8, 2))], axis=-2)
    return (q[..., 1] > q[..., 0]) @ (1 << np.arange(9, -1, -1))


def q_learning_regime(q2: np.ndarray, q1: np.ndarray) -> Regime:
    """Greedy regime from Q tables ``q2[y0, y1, a1, a2]`` and ``q1[y0, a1]``:
    ``q_learning_index`` of one law."""
    if np.shape(q2) != (2, 2, 2, 2) or np.shape(q1) != (2, 2):
        raise ValueError(f"expected q2 (2,2,2,2) and q1 (2,2), got {np.shape(q2)} and {np.shape(q1)}")
    return Regime.from_index(int(q_learning_index(np.asarray(q2, dtype=float), np.asarray(q1, dtype=float))))


def regime_equivalence_key(regime: Regime) -> int:
    """Canonical integer over on-path behavior.

    Two regimes that differ only at (y0, y1, a1) cells with a1 != d1(y0) are
    never distinguished by the data-generating process, so they share a key
    (and hence a true value). Bits: d1(0), d1(1), then d2 at the four
    reachable (y0, y1) pairs with a1 = d1(y0).
    """
    on_path = tuple(regime.d2_of(y0, y1, regime.d1[y0]) for y0 in (0, 1) for y1 in (0, 1))
    return _read_bits(regime.d1 + on_path)
