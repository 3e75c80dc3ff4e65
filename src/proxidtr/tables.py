"""Exact discrete-probability tables over named binary variables.

Every variable takes values in {0, 1}. A joint table over m variables is a
dense float64 array of shape (2,) * m; flattening it in C order lists cells
with the *last* variable fastest, which is the normative cell-to-index
convention for this package (including JSON serialization).

Conditionals are dense arrays indexed [given..., target...]: ``conditional``
returns P(target | given) with one conditional pmf per given cell, so stacks
of proxy matrices over the remaining history come out as leading axes.
``invert2or4`` inverts such stacks of 2x2 / 4x4 matrices and refuses
(near-)singular blocks instead of falling back to a pseudo-inverse.

All objects are immutable value types; operations return new tables and never
mutate their inputs. ``conditional`` sums a table's mass without building and
validating an intermediate table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

MASS_TOL = 1e-12        # joint tables must sum to 1 within this
DET_TOL = 1e-12         # below this |det| a matrix is treated as singular


class TableError(ValueError):
    """Base class for probability-table failures."""


class UnknownVariableError(TableError):
    """A referenced variable name is not part of the table."""


class ZeroProbabilityError(TableError):
    """A conditioning event has probability zero."""

    def __init__(self, message: str, assignment: Mapping[str, int] | None = None):
        super().__init__(message)
        self.assignment = dict(assignment) if assignment else {}


class SingularMatrixError(TableError):
    """A conditional matrix that must be inverted is numerically singular."""


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class JointPmf:
    """Joint probability mass table over an ordered set of binary variables."""

    names: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise TableError(f"duplicate variable names in {names}")
        mass = np.asarray(self.mass, dtype=float)
        expected = (2,) * len(names)
        if mass.shape == (2 ** len(names),):
            mass = mass.reshape(expected)
        if mass.shape != expected:
            raise TableError(f"mass shape {mass.shape} does not match {len(names)} binary variables")
        if np.any(mass < 0):
            raise TableError("negative probability mass")
        total = float(mass.sum())
        if not abs(total - 1.0) <= MASS_TOL:  # NaN and infinity fail too
            raise TableError(f"mass sums to {total!r}, not 1")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mass", _as_readonly(mass))

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r}; table has {self.names}") from None

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Marginal probability of a partial assignment."""
        idx: list[object] = [slice(None)] * len(self.names)
        for name, value in assignment.items():
            idx[self.axis(name)] = int(value)
        return float(self.mass[tuple(idx)].sum())

    def to_json(self) -> str:
        return json.dumps({"order": list(self.names), "mass": self.mass.ravel(order="C").tolist()})

    @classmethod
    def from_json(cls, text: str) -> "JointPmf":
        payload = json.loads(text)
        return cls(tuple(payload["order"]), np.asarray(payload["mass"], dtype=float))


def _mass_over(pmf: JointPmf, names: Sequence[str]) -> np.ndarray:
    """The mass summed over every variable not in ``names``, axes in
    ``names`` order: a bare array, not a new table."""
    axes = [pmf.axis(n) for n in names]  # raises UnknownVariableError with the offending name
    drop_axes = tuple(i for i in range(len(pmf.names)) if i not in axes)
    summed = pmf.mass.sum(axis=drop_axes) if drop_axes else pmf.mass
    kept = sorted(axes)
    return np.transpose(summed, [kept.index(a) for a in axes])


def marginalize(pmf: JointPmf, keep: Sequence[str]) -> JointPmf:
    """Sum out every variable not in ``keep``.

    The result keeps the pmf's own variable order restricted to ``keep``.
    """
    kept = sorted(set(keep), key=pmf.axis)
    return JointPmf(tuple(kept), _mass_over(pmf, kept))


def conditional(pmf: JointPmf, target: Sequence[str], given: Sequence[str]) -> np.ndarray:
    """P(target | given) as a dense array indexed [given..., target...].

    Each slice over the target axes is a conditional pmf; the axes within each
    group follow the requested argument order. A given cell of probability
    zero raises, naming the first such cell in C order.
    """
    target, given = tuple(target), tuple(given)
    if set(target) & set(given):
        raise TableError(f"target {target} and given {given} overlap")
    joint = _mass_over(pmf, given + target)
    den = joint.sum(axis=tuple(range(len(given), joint.ndim)), keepdims=True)
    zero = np.argwhere(np.atleast_1d(den.reshape(joint.shape[:len(given)])) <= 0.0)
    if zero.size:
        assignment = dict(zip(given, map(int, zero[0])))
        raise ZeroProbabilityError(
            f"zero-probability conditioning cell {assignment} for P({','.join(target)}|{','.join(given)})",
            assignment,
        )
    return joint / den


def invert2or4(m: np.ndarray, role: str = "conditional matrix", axes: Sequence[str] = ()) -> np.ndarray:
    """Invert a stack of 2x2 or 4x4 matrices, failing loudly on a singular one.

    ``m`` has shape (..., k, k); ``axes`` names the leading stack axes so the
    error can name the first singular block in C order. A singular matrix
    here signals a violated completeness/rank condition (or an empirical table
    with too little data), which must surface rather than be patched by a
    pseudo-inverse.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise TableError(f"{role}: expected stacked 2x2 or 4x4 matrices, got {m.shape}")
    det = np.abs(np.linalg.det(m))
    bad = np.argwhere(np.atleast_1d(det) < DET_TOL)
    if bad.size:
        block = tuple(int(i) for i in bad[0][:det.ndim])
        names = tuple(axes) or tuple(f"axis{i}" for i in range(len(block)))
        where = f" at ({', '.join(f'{n}={v}' for n, v in zip(names, block))})" if block else ""
        raise SingularMatrixError(
            f"{role}{where} is singular (|det|={det[block]:.3e}); rank condition fails"
        )
    return np.linalg.inv(m)
