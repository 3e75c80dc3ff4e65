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
validating an intermediate table. Every array the package hands out is
read-only: ``_locked`` marks a fresh array in place, and is the one place
that does so, for ``estimators.count_pmf`` and ``_CELLS``,
``bridges.solve_bridges``, ``dgp``'s word bounds, sampling tables,
prefix-to-canonical table and ``Dataset`` codes, columns and counts, and
``policy.DENSITY_CELLS`` and ``RegimeClass.index``. A table keeps a
read-only C-contiguous array it is handed that owns its memory (such a fresh
array) and copies anything else to C order (``_as_readonly``), so a table's
bits depend on its values, not on its layout. Tables are float64, or complex128
for complex-step derivatives; every check reads the real part. Every failure
check (a zero conditioning cell, a singular block, a total off 1) costs one
reduction; the first failing cell in C order is located (``_first_cell``)
only when one exists. Every zero denominator in the package, here and in
``bridges``, ``identify`` and ``estimators``, is refused by ``_refuse_zero``,
which names that cell by its own axes in ``ZeroProbabilityError.assignment``.
Every ``TableError`` has a ``kind``, its message without the cell or block
it names (the unformatted template of ``_refuse_zero``, the role of
``invert2or4``), by which failures group. A NaN compares false, so a NaN
denominator or determinant is not flagged.

``_mass_over`` and ``conditional`` resolve their axes once per signature.
``_plan``, cached by (variable names, number of stack axes, target, given),
holds the axes summed out, the transpose to the requested order, the
denominator's axes and the zero-cell refusal template. A call then runs
only the sum, the transpose, the denominator's sum, one zero check and the
division; the sums and the division are those that deriving the axes from
names on every call runs, so no bit depends on the cache. The zero check is
one reduction, ``all`` over the denominators' real parts: a law's real
parts are >= 0, so a zero is the only denominator that is not positive.
The refusals keep their order: a signature that overlaps target and given
or names an unknown variable raises while its plan is built and is not
kept; a zero conditioning cell is found by the call's zero check and named
by ``_refuse_zero`` with the plan's template. The cache keeps 256
signatures; the package reads fewer than 64.

A ``JointPmf`` may hold a stack of laws over the same variables (the K
off-fold laws of a cross-fit): its mass and every array derived from it
lead with the stack axes; ``prob``, ``to_json`` and ``estimators.influence``
read a single law and refuse a stack. That refusal is ``_refuse_stack``,
which the ``to_json`` of a ``BridgeSet`` and of an ``IdentifiedDensity``
call too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

MASS_TOL = 1e-12        # joint tables must sum to 1 within this
DET_TOL = 1e-12         # below this |det| a matrix is treated as singular


class TableError(ValueError):
    """Base class for probability-table failures. ``kind`` is the message
    without the cell or block it names (the message itself by default), so
    failures of one kind group together."""

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = message if kind is None else kind


class UnknownVariableError(TableError):
    """A referenced variable name is not part of the table."""


class ZeroProbabilityError(TableError):
    """A conditioning event has probability zero."""

    def __init__(self, message: str, assignment: Mapping[str, int] | None = None, kind: str | None = None):
        super().__init__(message, kind)
        self.assignment = dict(assignment) if assignment else {}


class SingularMatrixError(TableError):
    """A conditional matrix that must be inverted is numerically singular."""


def _axis(names: tuple[str, ...], name: str) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise UnknownVariableError(f"unknown variable {name!r}; table has {names}") from None


def _locked(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only in place; for a fresh array that nothing else holds."""
    arr.flags.writeable = False
    return arr


def _as_readonly(arr) -> np.ndarray:
    """A read-only, C-contiguous complex128 array for complex input, else
    float64: ``arr`` itself when it is read-only, C-contiguous and owns its
    memory, as the fresh C-order arrays ``_locked`` marks do, else a read-only
    C-order copy. Einsum's summation order follows its operands' strides, so
    one layout for every table makes equal values give equal bits."""
    dtype = complex if np.iscomplexobj(arr) else float
    owned = isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.base is None and arr.flags.c_contiguous
    return arr if owned and not arr.flags.writeable else _locked(np.array(arr, dtype=dtype, order="C"))


def _first_cell(mask: np.ndarray) -> tuple[int, ...] | None:
    """C-order index of the first true cell of ``mask``, or None when there is
    none; the common all-false case costs one reduction."""
    return tuple(map(int, np.unravel_index(int(np.argmax(mask)), np.shape(mask)))) if mask.any() else None


def _refuse_zero(mask: np.ndarray, names: Sequence[str], message: str) -> None:
    """Raise ``ZeroProbabilityError`` at the first true cell of ``mask`` in C
    order, named by the trailing axes ``names`` (any stack axes before them
    dropped); ``message`` is formatted with that cell as ``{cell}`` and by
    name, and is the error's ``kind`` as it stands."""
    cell = _first_cell(mask)
    if cell is not None:
        assignment = dict(zip(names, cell[len(cell) - len(names):]))
        raise ZeroProbabilityError(message.format(cell=assignment, **assignment), assignment, message)


def _refuse_stack(shape: tuple[int, ...], trailing: int, message: str, error: type[Exception] = TableError) -> None:
    """Raise ``error`` when ``shape`` has stack axes before its ``trailing``
    ones; ``message`` is formatted with the stack shape as ``{stack}``."""
    if len(shape) > trailing:
        raise error(message.format(stack=shape[:len(shape) - trailing]))


def _json_object(text: str, what: str, cls) -> dict:
    """The JSON object ``text`` holds, its keys fields of the dataclass ``cls``.
    A document nested too deeply for the parser (a RecursionError), one that
    is not an object and an unknown key are refused as a ValueError naming
    ``what``."""
    names = [f.name for f in fields(cls)]
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply to read") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object with keys among {names}")
    unknown = sorted(set(payload) - set(names))
    if unknown:  # a misspelled key would otherwise be dropped unchecked
        raise ValueError(f"unknown {what} keys {unknown}")
    return payload


@dataclass(frozen=True)
class JointPmf:
    """Joint probability mass table over an ordered set of binary variables."""

    names: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise TableError(f"duplicate variable names in {names}")
        mass = _as_readonly(self.mass)
        expected = (2,) * len(names)
        if mass.shape[-1:] == (2 ** len(names),):
            mass = mass.reshape(mass.shape[:-1] + expected)
        if mass.shape[mass.ndim - len(names):] != expected:  # after any stack axes
            raise TableError(f"mass shape {mass.shape} does not match {len(names)} binary variables")
        if np.any(mass.real < 0):
            raise TableError("negative probability mass")
        totals = mass.reshape(-1, 2 ** len(names)).sum(axis=1).real  # each law of a stack
        bad = _first_cell(~(np.abs(totals - 1.0) <= MASS_TOL))  # NaN and infinity fail too
        if bad is not None:
            raise TableError(f"mass sums to {float(totals[bad])!r}, not 1")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mass", mass)

    def axis(self, name: str) -> int:
        return _axis(self.names, name)

    def _single_law(self, method: str) -> None:
        _refuse_stack(self.mass.shape, len(self.names), method + " reads a single law, not a stack of laws of shape {stack}")

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Marginal probability of a partial assignment."""
        self._single_law("prob")
        idx: list[object] = [slice(None)] * len(self.names)
        for name, value in assignment.items():
            idx[self.axis(name)] = int(value)
        return float(self.mass[tuple(idx)].sum())

    def to_json(self) -> str:
        self._single_law("to_json")
        return json.dumps({"order": list(self.names), "mass": self.mass.ravel(order="C").tolist()})

    @classmethod
    def from_json(cls, text: str) -> "JointPmf":
        """The table ``to_json`` writes: an object with exactly ``order``, a
        list of names, and ``mass``, a list of numbers."""
        payload = json.loads(text)
        order, mass = (payload.get("order"), payload.get("mass")) if isinstance(payload, dict) else (None, None)
        if not (isinstance(order, list) and isinstance(mass, list) and len(payload) == 2
                and all(type(n) is str for n in order) and all(type(x) in (int, float) for x in mass)):
            raise TableError('a JointPmf is a JSON object with exactly "order", a list of names, '
                             'and "mass", a list of numbers')
        return cls(tuple(order), np.asarray(mass, dtype=float))


@lru_cache(maxsize=256)  # signatures kept; the package reads fewer than 64
def _plan(names: tuple[str, ...], lead: int, target: tuple[str, ...], given: tuple[str, ...] | None):
    """How to read ``target`` (given ``given``, or alone when it is None) off
    a mass over ``names`` led by ``lead`` stack axes: (the axes summed out,
    the transpose to stack, given then target order, the denominator's axes,
    the zero-cell refusal template). Built on the first call of a signature;
    a signature that raises is not kept."""
    order = target if given is None else given + target
    if given is not None and set(target) & set(given):
        raise TableError(f"target {target} and given {given} overlap")
    axes = [lead + _axis(names, n) for n in order]  # raises UnknownVariableError with the offending name
    drop = tuple(i for i in range(lead, lead + len(names)) if i not in axes)
    kept = sorted(axes)
    perm = (*range(lead), *(lead + kept.index(a) for a in axes))
    if given is None:
        return drop, perm, None, None
    den = tuple(range(lead + len(given), lead + len(order)))
    return drop, perm, den, f"zero-probability conditioning cell {{cell}} for P({','.join(target)}|{','.join(given)})"


def _mass_over(pmf: JointPmf, names: Sequence[str]) -> np.ndarray:
    """The mass summed over every variable not in ``names``, axes in
    ``names`` order: a bare array, not a new table."""
    drop, perm, _, _ = _plan(pmf.names, pmf.mass.ndim - len(pmf.names), tuple(names), None)
    return (np.add.reduce(pmf.mass, axis=drop) if drop else pmf.mass).transpose(perm)


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
    drop, perm, den_axes, message = _plan(pmf.names, pmf.mass.ndim - len(pmf.names), target, given)
    joint = (np.add.reduce(pmf.mass, axis=drop) if drop else pmf.mass).transpose(perm)
    den = np.add.reduce(joint, axis=den_axes, keepdims=True)
    if not den.real.all():  # a sum of a law's real parts, which are >= 0: only a zero is not positive
        _refuse_zero(den.reshape(joint.shape[:joint.ndim - len(target)]).real <= 0.0, given, message)
    return joint / den


def invert2or4(m: np.ndarray, role: str = "conditional matrix", axes: Sequence[str] = ()) -> np.ndarray:
    """Invert a stack of 2x2 or 4x4 matrices, failing loudly on a singular one.

    ``m`` has shape (..., k, k); ``axes`` names the innermost stack axes (any
    further leading ones are numbered) so the error can name the first
    singular block in C order. A singular matrix here signals a violated
    completeness/rank condition (or an empirical table with too little data),
    which must surface rather than be patched by a pseudo-inverse.
    """
    m = np.asarray(m, dtype=np.result_type(np.asarray(m).dtype, np.float64))  # float64 or complex128
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise TableError(f"{role}: expected stacked 2x2 or 4x4 matrices, got {m.shape}")
    det = np.abs(np.linalg.det(m))
    block = _first_cell(det < DET_TOL)
    if block is not None:
        names = tuple(f"axis{i}" for i in range(len(block) - len(axes))) + tuple(axes)
        where = f" at ({', '.join(f'{n}={v}' for n, v in zip(names, block))})" if block else ""
        raise SingularMatrixError(f"{role}{where} is singular (|det|={det[block]:.3e}); rank condition fails",
                                  f"{role} is singular; rank condition fails")
    return np.linalg.inv(m)
