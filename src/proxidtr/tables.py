"""Exact discrete-probability tables over named binary variables.

Every variable takes values in {0, 1}. A joint table over m variables is a
dense float64 array of shape (2,) * m; flattening it in C order lists cells
with the *last* variable fastest, which is the normative cell-to-index
convention for this package (including JSON serialization).

Conditionals are dense arrays indexed [given..., target...]: ``conditional``
returns P(target | given) with one conditional pmf per given cell, so stacks
of proxy matrices over the remaining history come out as leading axes.
``_MarginalTree`` is the one place a law's mass is summed, in one fixed
order: the marginal over a set of variables is the marginal over that set
and the first variable of the law it lacks, summed over that variable as
one addition of its two halves, and each marginal is kept once summed. A
marginal's bits so depend only on the law and the variables kept;
``conditional``, ``_mass_over`` and ``marginalize`` read a fresh tree, and a
caller that reads several marginals of one law shares one, with the same
bits. ``invert2or4`` inverts such stacks of 2x2 / 4x4 matrices in closed form
and refuses (near-)singular blocks instead of falling back to a
pseudo-inverse.

No BLAS or LAPACK call feeds a number the package prints: every sum and
product here, and in ``bridges``, ``identify`` and ``estimators``, is a
fixed sequence of halving adds, numpy reduction, elementwise ufunc or plain
einsum, each in a fixed order that does not depend on the host's BLAS
kernel, and the law's own bits come from ``dgp.expit``, whose exp is the C
library's, not numpy's SIMD loop. The report and estimate bytes the
identity tests pin were checked equal under OpenBLAS's SkylakeX (native),
Haswell, SandyBridge and Prescott kernels, and with numpy's SIMD dispatch
limited to AVX2 and to its X86_V2 baseline (``tests/test_kernel_identity.py``
repeats the Prescott, Haswell and X86_V2 checks).

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

A tree resolves each signature's names once: ``_plan``, cached by
(variable names, number of stack axes, target, given), holds for the
marginal read (and a conditional's denominator) its chain of marginals down
from the law, with the two halves each one adds, and its transpose to the
requested order, and the zero-cell refusal template. A read then runs only
the adds not yet made, the transposes, one zero check and the division; the
adds are those of summing the marginal from the whole law, so no bit
depends on the cache or on the reads before. The zero check is one
reduction, ``all`` over the denominators' real parts: a law's real parts
are >= 0, so a zero is the only denominator that is not positive. The
refusals keep their order: a signature that overlaps target and given,
repeats a variable or names an unknown one raises while its plan is built
and is not kept; a zero conditioning cell is found by the read's zero check
and named by ``_refuse_zero`` with the plan's template. The cache keeps 256
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
from itertools import product
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


def _json_load(text: str, what: str, error: type[Exception] = ValueError):
    """The JSON value ``text`` holds; a document nested too deeply for the
    parser (a RecursionError) is refused as ``error``, in one line naming ``what``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise error(f"{what} JSON is nested too deeply to read") from None


def _json_object(text: str, what: str, cls) -> dict:
    """The JSON object ``text`` holds, its keys fields of the dataclass ``cls``.
    A document nested too deeply for the parser (``_json_load``), one that
    is not an object and an unknown key are refused as a ValueError naming
    ``what``."""
    names = [f.name for f in fields(cls)]
    payload = _json_load(text, what)
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
        payload = _json_load(text, "JointPmf", TableError)
        order, mass = (payload.get("order"), payload.get("mass")) if isinstance(payload, dict) else (None, None)
        if not (isinstance(order, list) and isinstance(mass, list) and len(payload) == 2
                and all(type(n) is str for n in order) and all(type(x) in (int, float) for x in mass)):
            raise TableError('a JointPmf is a JSON object with exactly "order", a list of names, '
                             'and "mass", a list of numbers')
        return cls(tuple(order), np.asarray(mass, dtype=float))


@lru_cache(maxsize=256)  # signatures kept; the package reads fewer than 64
def _plan(names: tuple[str, ...], lead: int, target: tuple[str, ...], given: tuple[str, ...] | None):
    """How a marginal tree of a mass over ``names``, led by ``lead`` stack
    axes, reads ``target`` (given ``given``, or alone when it is None): the
    chain to the marginal over the variables read (``_chain``) and the
    transpose to stack, given then target order; for a conditional, then the
    same for the denominator's marginal over ``given``, and the zero-cell
    refusal template. Built on the first call of a signature; a signature that
    raises is not kept."""
    order = target if given is None else given + target
    if given is not None and set(target) & set(given):
        raise TableError(f"target {target} and given {given} overlap")
    twice = [name for i, name in enumerate(order) if name in order[:i]]
    if twice:
        raise TableError(f"variable {twice[0]!r} repeats in {order}")

    def read(keep):
        key = tuple(sorted(keep, key=lambda n: _axis(names, n)))  # the first unknown name in ``keep`` raises
        return _chain(names, lead, key), (*range(lead), *(lead + key.index(n) for n in keep))

    if given is None:
        return read(target)
    message = f"zero-probability conditioning cell {{cell}} for P({','.join(target)}|{','.join(given)})"
    return (*read(order), *read(given), message)


def _chain(names: tuple[str, ...], lead: int, key: tuple[str, ...]) -> tuple[tuple, ...]:
    """The marginals from a law over ``names`` down to its marginal over
    ``key`` (variables in ``names`` order), largest first: each is its
    parent summed over the first variable of the law it lacks, and is given
    as its variables and the indices of the parent's two halves."""
    steps = []
    while key != names:
        first = next(n for n in names if n not in key)
        parent = tuple(n for n in names if n in key or n == first)
        axis = (slice(None),) * (lead + parent.index(first))
        steps.append((key, axis + (0,), axis + (1,)))
        key = parent
    return tuple(reversed(steps))


class _MarginalTree:
    """The marginals of one law, or of a stack of laws, each summed once and
    kept. The marginal over a set of variables is the marginal over that set
    and the first variable of the law it lacks, summed over that variable as
    one addition of its two halves, cell by cell; so its bits depend only on
    the law and the variables kept, not on the reads before it or the stack
    the law is in. This is the one place a law's mass is summed:
    ``conditional`` and ``_mass_over`` read a fresh tree, and a caller that
    reads several marginals of one law shares one."""

    def __init__(self, pmf: JointPmf):
        self.names = pmf.names
        self.lead = pmf.mass.ndim - len(pmf.names)
        self._sums = {pmf.names: pmf.mass}  # variables, in the law's order -> the mass over them

    def _mass(self, chain: tuple[tuple, ...]) -> np.ndarray:
        """The last marginal of ``chain`` (the law itself for an empty chain),
        summing each marginal on the way that is not yet summed."""
        arr = self._sums[self.names]
        for key, low, high in chain:
            if key not in self._sums:
                self._sums[key] = arr[low] + arr[high]
            arr = self._sums[key]
        return arr

    def marginal(self, names: tuple[str, ...]) -> np.ndarray:
        """The mass over ``names``, axes in ``names`` order after the stack axes."""
        chain, perm = _plan(self.names, self.lead, names, None)
        return self._mass(chain).transpose(perm)

    def conditional(self, target: tuple[str, ...], given: tuple[str, ...]) -> np.ndarray:
        """P(target | given), as ``conditional`` reads it."""
        chain, perm, den_chain, den_perm, message = _plan(self.names, self.lead, target, given)
        den = self._mass(den_chain).transpose(den_perm)
        if not den.real.all():  # a sum of a law's real parts, which are >= 0: only a zero is not positive
            _refuse_zero(den.real <= 0.0, given, message)
        return self._mass(chain).transpose(perm) / den[(...,) + (None,) * len(target)]


def _mass_over(pmf: JointPmf, names: Sequence[str]) -> np.ndarray:
    """The mass summed over every variable not in ``names``, axes in
    ``names`` order: a bare array off a fresh marginal tree, not a new table."""
    return _MarginalTree(pmf).marginal(tuple(names))


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
    zero raises, naming the first such cell in C order. Read off a fresh
    marginal tree, so it equals a shared tree's read bit for bit.
    """
    return _MarginalTree(pmf).conditional(tuple(target), tuple(given))


def _axes(x: np.ndarray, labels: str, order: str) -> np.ndarray:
    """``x`` with its trailing binary axes, named by the einsum letters
    ``labels``, put in the letter order ``order`` after its stack axes: a view."""
    lead = x.ndim - len(labels)
    return x.transpose(*range(lead), *(lead + labels.index(c) for c in order))


def _layout(x: np.ndarray, labels: str, order: str) -> np.ndarray:
    """``_axes`` copied to C order: the layout ``_contract`` merges."""
    return np.ascontiguousarray(_axes(x, labels, order))


def _contract(x: np.ndarray, y: np.ndarray, n: int, i: int, j: int, k: int) -> np.ndarray:
    """The batched matrix product sum_j x[..., n, i, j] y[..., n, j, k] of
    tables laid out with n batch, i row and j contracted binary axes (x) and
    n, j contracted and k column binary axes (y), each group merged into one
    axis for one einsum, its result's binary axes in (n, i, k) order. Each
    sum runs over the contracted cells in C order, as an einsum over the
    separate axes of C-order tables does, so the two agree bit for bit; no
    BLAS call is made."""
    def merged(t, groups):
        return t.reshape(t.shape[:t.ndim - sum(groups)] + tuple(1 << g for g in groups))

    out = np.einsum("...nij,...njk->...nik", merged(x, (n, i, j)), merged(y, (n, j, k)))
    return out.reshape(out.shape[:-3] + (2,) * (n + i + k))


# The closed-form 4x4 inverse reads the 2x2 minors of rows (0, 1), then of
# rows (2, 3), one per pair of columns in this order.
_COLUMN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _closed_form_plan() -> dict[int, tuple]:
    """Index arrays into the flat entries r * k + c of a k x k block, per k,
    and the sign of each inverse entry: for 2x2, the adjugate's entries; for
    4x4, the four factors of each minor (first * second - third * fourth),
    and for each inverse entry (r, c) the cofactor (c, r) as three terms
    entry x minor, expanded along the row paired with row c, whose signs
    alternate."""
    minors = np.array([[4 * r0 + c0, 4 * r1 + c1, 4 * r1 + c0, 4 * r0 + c1]
                       for r0, r1 in ((0, 1), (2, 3)) for c0, c1 in _COLUMN_PAIRS]).T
    entries, terms, signs = [], [], []
    for r, c in product(range(4), repeat=2):
        row, cols = c ^ 1, [j for j in range(4) if j != r]
        entries.append([4 * row + j for j in cols])
        terms.append([(6 if c < 2 else 0) + _COLUMN_PAIRS.index(tuple(x for x in cols if x != j)) for j in cols])
        signs.append((-1) ** (r + c + [i for i in range(4) if i != c].index(row)))
    return {2: (np.array([3, 1, 2, 0]), np.array([1.0, -1.0, -1.0, 1.0])),
            4: (minors, np.array(entries), np.array(terms), np.array(signs, dtype=float))}


_CLOSED_FORM = _closed_form_plan()


def invert2or4(m: np.ndarray, role: str = "conditional matrix", axes: Sequence[str] = ()) -> np.ndarray:
    """Invert a stack of 2x2 or 4x4 matrices, failing loudly on a singular one.

    ``m`` has shape (..., k, k); ``axes`` names the innermost stack axes (any
    further leading ones are numbered) so the error can name the first
    singular block in C order. A singular matrix here signals a violated
    completeness/rank condition (or an empirical table with too little data),
    which must surface rather than be patched by a pseudo-inverse.

    The inverse is the adjugate over the determinant, in closed form, with
    every block's entries gathered as one row per entry: for 2x2 the
    adjugate itself, for 4x4 cofactors and a determinant built from the six
    2x2 minors of rows (0, 1) and of rows (2, 3). Each entry is a fixed
    sequence of products and sums, the same for one block as within any
    stack and on any host; no BLAS or LAPACK call is made.
    """
    m = np.asarray(m, dtype=np.result_type(np.asarray(m).dtype, np.float64))  # float64 or complex128
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise TableError(f"{role}: expected stacked 2x2 or 4x4 matrices, got {m.shape}")
    k = m.shape[-1]
    a = m.reshape(-1, k * k).T  # row r * k + c: entry (r, c) of every block
    if k == 2:
        adjugate, signs = a[_CLOSED_FORM[2][0]], _CLOSED_FORM[2][1]
        det = a[0] * a[3] - a[1] * a[2]
    else:
        factors, entries, terms, signs = _CLOSED_FORM[4]
        f = a[factors]
        minors = f[0] * f[1] - f[2] * f[3]
        p = minors[:6] * minors[:5:-1]  # each minor of rows (0, 1) times that of the other two columns
        det = ((((p[0] - p[1]) + p[2]) + p[3]) - p[4]) + p[5]
        t = a[entries] * minors[terms]
        adjugate = (t[:, 0] - t[:, 1]) + t[:, 2]
    size = np.abs(det).reshape(m.shape[:-2])
    block = _first_cell(size < DET_TOL)
    if block is not None:
        names = tuple(f"axis{i}" for i in range(len(block) - len(axes))) + tuple(axes)
        where = f" at ({', '.join(f'{n}={v}' for n, v in zip(names, block))})" if block else ""
        raise SingularMatrixError(f"{role}{where} is singular (|det|={size[block]:.3e}); rank condition fails",
                                  f"{role} is singular; rank condition fails")
    inverse = np.empty((a.shape[1], k * k), m.dtype)  # each block's entries in C order
    np.divide(adjugate, signs[:, None] * det, out=inverse.T)
    return inverse.reshape(m.shape)
