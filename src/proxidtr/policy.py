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

Tie-breaking is normative: a threshold at exactly zero maps to action 0, and
value maximization returns the first maximizer in canonical enumeration order
(d1 index ascending, then d2 truth-table integer ascending).

A class also carries, per member, the flat indices of the four density cells
its value reads, so the values of all members under one density are a single
array gather (``dgp.class_values``); ``first_maximizer`` then applies the same
rule as ``value_maximize``, which is kept for arbitrary value functions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

NORM_TOL = 1e-9

# (y0, y1, a1) cells in lexicographic order; index = y0*4 + y1*2 + a1
D2_CELLS = tuple(itertools.product((0, 1), repeat=3))


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
            for t, k in ((t1, 2), (t2, 4)):
                if len(t) != k:
                    raise ValueError(f"theta must have length {k}")
                if abs(float(np.linalg.norm(t)) - 1.0) > NORM_TOL:
                    raise ValueError(f"theta norm must be 1, got {t}")
            for y0 in (0, 1):
                if int(t1[0] + t1[1] * y0 > 0) != self.d1[y0]:
                    raise ValueError("theta1 does not reproduce d1")
            for y0, y1, a1 in D2_CELLS:
                if int(t2[0] + t2[1] * y0 + t2[2] * y1 + t2[3] * a1 > 0) != self.d2_of(y0, y1, a1):
                    raise ValueError("theta2 does not reproduce d2")
            object.__setattr__(self, "theta1", t1)
            object.__setattr__(self, "theta2", t2)

    def d1_of(self, y0: int) -> int:
        return self.d1[y0]

    def d2_of(self, y0: int, y1: int, a1: int) -> int:
        return self.d2[(y0 << 2) | (y1 << 1) | a1]

    @property
    def d1_index(self) -> int:
        return (self.d1[0] << 1) | self.d1[1]

    @property
    def d2_index(self) -> int:
        out = 0
        for bit in self.d2:
            out = (out << 1) | bit
        return out

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
        thetas = []
        for key in ("theta1", "theta2"):
            theta = payload.get(key)  # only a missing key or null means no certificate
            if theta is not None and not (isinstance(theta, list) and all(type(v) in (int, float) for v in theta)):
                raise ValueError(f"{key} must be a list of numbers, got {theta!r}")
            thetas.append(None if theta is None else tuple(theta))
        return cls(tuple(payload["d1"]), tuple(payload["d2"]), *thetas)


@dataclass(frozen=True)
class RegimeClass:
    tag: str
    members: tuple[Regime, ...]

    @cached_property
    def density_index(self) -> np.ndarray:
        """(4, K) flat indices into a (2,)*5 density ``g[a1, a2, y2, y1, y0]``.

        Row ``2*y0 + y1`` holds, for every member, the cell
        ``g[d1(y0), d2(y0, y1, d1(y0)), 1, y1, y0]``: the four terms of
        ``regime_value`` in its loop order.
        """
        d1 = np.array([r.d1 for r in self.members], dtype=np.intp).reshape(-1, 2)
        d2 = np.array([r.d2 for r in self.members], dtype=np.intp).reshape(-1, 8)
        rows = []
        for y0 in (0, 1):
            a1 = d1[:, y0]
            for y1 in (0, 1):
                a2 = d2[np.arange(len(d2)), (y0 << 2) | (y1 << 1) | a1]
                rows.append(np.ravel_multi_index((a1, a2, 1, y1, y0), (2,) * 5))
        index = np.stack(rows)
        index.flags.writeable = False
        return index


def _unit(vec: Sequence[int]) -> tuple[float, ...]:
    arr = np.asarray(vec, dtype=float)
    return tuple(arr / np.linalg.norm(arr))

# Integer threshold certificates for the four one-input decision rules,
# keyed by (d1(0), d1(1)). Strict '>0' with integer scores makes ties exact.
_D1_CERTIFICATES = {
    (0, 0): (-1, 0),
    (0, 1): (-1, 2),
    (1, 0): (1, -2),
    (1, 1): (1, 0),
}


@lru_cache(maxsize=None)
def _separable_d2_tables() -> dict[tuple[int, ...], tuple[int, int, int, int]]:
    """Map each linearly separable d2 truth table to one integer certificate.

    Searches integer weights in {-4..4}^4; with 0/1 inputs the score is an
    integer, so '> 0' is exactly '>= 1' and no float ties can occur. The
    search realizes all 104 separable tables of three binary inputs.
    """
    grid = np.array(list(itertools.product(range(-4, 5), repeat=4)))
    points = np.array([(1, y0, y1, a1) for y0, y1, a1 in D2_CELLS])
    labels = (grid @ points.T > 0).astype(int)
    found: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
    for weights, table in zip(grid, labels):
        key = tuple(int(b) for b in table)
        if key not in found:
            # rescale so every cell's score is a nonzero integer; the unit-norm
            # float form then reproduces the table without rounding ambiguity
            t0, t1, t2, t3 = (int(w) for w in weights)
            found[key] = (2 * t0 - 1, 2 * t1, 2 * t2, 2 * t3)
    return found


def enumerate_class(tag: str) -> RegimeClass:
    """Enumerate the linear or unrestricted-Boolean regime class.

    Members are ordered by d1 index then d2 truth-table integer; this order is
    the tie-breaking order for ``value_maximize``.
    """
    if tag == "linear":
        separable = _separable_d2_tables()
        d2_tables = sorted(separable)
        members = []
        for d1 in sorted(_D1_CERTIFICATES, key=lambda d: (d[0] << 1) | d[1]):
            for d2 in d2_tables:
                members.append(
                    Regime(d1, d2, theta1=_unit(_D1_CERTIFICATES[d1]), theta2=_unit(separable[d2]))
                )
        return RegimeClass("linear", tuple(members))
    if tag == "all-boolean":
        members = []
        for d1 in itertools.product((0, 1), repeat=2):
            for d2 in itertools.product((0, 1), repeat=8):
                members.append(Regime(d1, d2))
        return RegimeClass("all-boolean", tuple(members))
    raise ValueError(f"unknown regime class {tag!r}; expected 'linear' or 'all-boolean'")


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


def first_maximizer(values: np.ndarray) -> int:
    """Index of the member ``value_maximize`` picks from these values.

    The first maximum wins ties; as with its strict ``>``, a NaN in first
    place is kept and a NaN anywhere else never wins.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty regime class")
    best = int(np.argmax(values))
    if np.isnan(values[best]):  # argmax stops at the first NaN
        best = 0 if np.isnan(values[0]) else int(np.nanargmax(values))
    return best


def q_learning_regime(q2: np.ndarray, q1: np.ndarray) -> Regime:
    """Greedy regime from Q tables; strict inequality, ties choose action 0.

    ``q2[y0, y1, a1, a2]`` and ``q1[y0, a1]``.
    """
    q2 = np.asarray(q2, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if q2.shape != (2, 2, 2, 2) or q1.shape != (2, 2):
        raise ValueError(f"expected q2 (2,2,2,2) and q1 (2,2), got {q2.shape} and {q1.shape}")
    d1 = tuple(int(q1[y0, 1] > q1[y0, 0]) for y0 in (0, 1))
    d2 = tuple(int(q2[y0, y1, a1, 1] > q2[y0, y1, a1, 0]) for y0, y1, a1 in D2_CELLS)
    return Regime(d1, d2)


def regime_equivalence_key(regime: Regime) -> int:
    """Canonical integer over on-path behavior.

    Two regimes that differ only at (y0, y1, a1) cells with a1 != d1(y0) are
    never distinguished by the data-generating process, so they share a key
    (and hence a true value). Bits: d1(0), d1(1), then d2 at the four
    reachable (y0, y1) pairs with a1 = d1(y0).
    """
    bits = [regime.d1[0], regime.d1[1]]
    for y0 in (0, 1):
        a1 = regime.d1[y0]
        for y1 in (0, 1):
            bits.append(regime.d2_of(y0, y1, a1))
    key = 0
    for bit in bits:
        key = (key << 1) | bit
    return key
