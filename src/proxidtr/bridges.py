"""Closed-form confounding-bridge solving on exact probability tables.

Outcome bridges (h22, h21, h11) and treatment bridges (q11, q22) are the
functions of proxy variables that stand in for the hidden-confounder
adjustment. In the all-binary setting they solve small linear systems built
from conditional-probability matrices of the observed law, so they admit
closed forms. Each family is one batched product over the proxy matrices
that ``tables.conditional`` stacks per history cell, inverted together by
``tables.invert2or4`` in closed form; the residual checks use the same
layout. The same formulas applied to an empirical table give the
maximum-likelihood plug-in estimates. ``solve_bridges`` is straight-line
code: it reads its ten conditionals off one marginal tree of the law
(``tables._MarginalTree``: 18 marginals, each one halving add, 1404 cells
per law), each equal bit for bit to ``tables.conditional`` of the law,
checks its two propensities and its four proxy stacks (``invert2or4``, looked up on
this module) in one fixed order with the refusals ``tables.conditional``
makes, and formats a refusal's text only when a check fails, so a law that
fails several checks always meets the same first refusal. No BLAS or
LAPACK call is made, so the bridges' bits do not depend on the host's BLAS
kernel.

Table layouts (all axes binary, C order):

    q11[y0, a1, z1]
    q22[y0, y1, a1, a2, z1, z2]
    h22[y0, y1, y2, w1, w2, a1, a2]
    h21[y0, y1, y2, w1, a1, a2]
    h11[y0, y1, w1, a1]

The defining residual equations (see ``verify_bridges``) hold at 1e-10 when
solved from an exact law and at 1e-8 (``RESIDUAL_TOL``, the one bound
``ResidualReport.all_passed`` applies) when solved from an empirical one.
``verify_bridges`` and ``bridge_collapse_check`` read their conditionals off
one marginal tree of a law or a stack of laws, with bridges stacked alike or
one set for all, and report the largest residual over the stack.
Deliberately wrong "pseudo" bridges, drawn at random per component, support
misspecification studies.

One ``BridgeSet`` carries all five tables, each optional, with a provenance
string per component recording where it came from; ``merged`` swaps in the
components another set carries, without validating or copying them again,
and ``outcome`` drops the treatment components. The component table
``_SHAPES`` drives validation, merging and the JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .tables import (JointPmf, _as_readonly, _contract, _json_load, _layout, _locked, _MarginalTree, _refuse_stack,
                     _refuse_zero, invert2or4)

RESIDUAL_TOL = 1e-8

# every component and its table shape, in the order of ``to_json`` and provenance
_SHAPES = {
    "h22": (2,) * 7,
    "h21": (2,) * 6,
    "h11": (2,) * 4,
    "q11": (2, 2, 2),
    "q22": (2,) * 6,
}
# the components ``pseudo_bridges`` draws; a component's index picks its substream
_COMPONENTS = tuple(name for name in _SHAPES if name != "h11")


class MissingBridgeError(ValueError):
    """An operation needs a bridge component the set does not carry."""


@dataclass(frozen=True)
class BridgeSet:
    """Outcome (h22, h21, h11) and treatment (q11, q22) bridge tables, each
    optional, stored read-only and possibly led by stack axes, with
    per-component provenance."""

    h22: np.ndarray | None = None
    h21: np.ndarray | None = None
    h11: np.ndarray | None = None
    q11: np.ndarray | None = None
    q22: np.ndarray | None = None
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name, shape in _SHAPES.items():
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = _as_readonly(arr)
            if arr.shape[arr.ndim - len(shape):] != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def outcome(self) -> "BridgeSet":
        """The outcome components alone."""
        return replace(self, q11=None, q22=None)

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise MissingBridgeError(f"bridge component {name!r} is missing")

    def merged(self, override: "BridgeSet") -> "BridgeSet":
        """New set taking every component that ``override`` carries."""
        taken = {name: getattr(override, name) for name in _SHAPES if getattr(override, name) is not None}
        prov = {**self.provenance, **{name: override.provenance.get(name, "overridden") for name in taken}}
        out = object.__new__(BridgeSet)  # both sets are validated: no ``__post_init__`` and no copies
        vars(out).update(vars(self), **taken, provenance=prov)
        return out

    def to_json(self) -> str:
        payload: dict = {"provenance": dict(self.provenance)}
        for name, shape in _SHAPES.items():
            arr = getattr(self, name)
            if arr is not None:
                _refuse_stack(arr.shape, len(shape), "to_json reads a single bridge set, "
                              "not a stack of bridge sets of shape {stack}", ValueError)
                payload[name] = {",".join(map(str, idx)): float(arr[idx]) for idx in np.ndindex(arr.shape)}
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "BridgeSet":
        """The set ``to_json`` writes: only known components, each keyed by
        every cell of its (unstacked) table exactly once."""
        payload = _json_load(text, "bridge set")
        if not isinstance(payload, dict):
            raise ValueError(f"a bridge set is a JSON object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {"provenance", *_SHAPES})
        if unknown:
            raise ValueError(f"unknown bridge component {unknown[0]!r}; expected some of {list(_SHAPES)}")
        arrays = {}
        for name, shape in _SHAPES.items():
            if name in payload:
                keys = [",".join(map(str, idx)) for idx in np.ndindex(shape)]
                odd = sorted(set(payload[name]) ^ set(keys))
                if odd:
                    raise ValueError(f"{name} cell key {odd[0]!r} is {'missing' if odd[0] in keys else 'unknown'}; "
                                     f"{name} needs exactly its {len(keys)} keys '{keys[0]}' to '{keys[-1]}'")
                arrays[name] = np.array([payload[name][key] for key in keys], dtype=float).reshape(shape)
        return cls(**arrays, provenance=payload.get("provenance", {}))


# einsum letters, as in ``identify``:
#   a=y0 b=y1 c=y2 d=w1 g=w2 e=a1 f=a2 h=z1 i=z2


def _reciprocal(tree: _MarginalTree, target: tuple[str, ...], given: tuple[str, ...]) -> np.ndarray:
    """1 / P(target | given) read off a law's marginal tree, indexed [given...,
    target...]; positivity must hold."""
    p = tree.conditional(target, given)
    zero = p.real <= 0.0
    if zero.any():
        _refuse_zero(zero, given + target,
                     f"positivity fails: P({','.join(target)}|{','.join(given)}) is zero at {{cell}}")
    return 1.0 / p


def _inverse(tree: _MarginalTree, target: tuple[str, ...], given: tuple[str, ...], batch: tuple[str, ...],
             role: str) -> np.ndarray:
    """Inverses of the column-stochastic P(target|given) stacked over
    ``batch``, indexed [stack..., batch..., given cell, target cell];
    ``role`` names the matrix in a refusal."""
    m = tree.conditional(target, batch + given)
    stack = m.shape[:m.ndim - len(batch + given + target)]
    m = m.reshape(stack + (2,) * len(batch) + (2 ** len(given), 2 ** len(target)))
    return invert2or4(m.swapaxes(-1, -2), role, batch).reshape(stack + (2,) * (len(batch) + len(given) + len(target)))


_STAGE1, _STAGE2 = ("Y0", "A1"), ("Y0", "Y1", "A1", "A2")
_GIVEN_W2 = ("Y0", "Y1", "A1", "W1", "W2")


def solve_bridges(pmf: JointPmf, provenance: str = "solved-from-truth") -> BridgeSet:
    """Solve all components from one law and tag them with its provenance.

    Each family is one batched product over stacked proxy matrices:

        h22 row (over w2b) = P(y2|Z2b,y1b,a2b) P(W2b|Z2b,y1b,a2b)^-1
        h21 row (over w1)  = h22 P(W2b,y1|Z1,y0,a1) P(W1|Z1,y0,a1)^-1
        h11 row (over w1)  = P(y1|Z1,y0,a1) P(W1|Z1,y0,a1)^-1
        q11 row (over z1)  = P(a1|W1,y0)^-1 P(Z1|W1,a1,y0)^-1
        q22 row (over z2b) = q11 P(Z1|a1,W2b,y1b) . P(a2|W2b,a1,y1b)^-1 P(Z2b|a2b,W2b,y1b)^-1

    where a row vector's ^-1 is the element-wise reciprocal, a square
    matrix's the ordinary inverse, and bars denote the stage-2 pairs. A
    stack of laws is solved in one pass: every product carries its stack
    axes as ``...``, and every table leads with them. The ten conditionals
    are read off one marginal tree of the law (18 halving adds), and read and
    checked in a fixed order, so a law that fails several checks meets the
    same first refusal on every call.
    """
    tree = _MarginalTree(pmf)
    inv_w = _inverse(tree, ("W1", "W2"), ("Z1", "Z2"), _STAGE2, "P(W1,W2|Z1,Z2)")
    py2 = tree.conditional(("Y2",), _STAGE2 + ("Z1", "Z2"))
    h22 = np.einsum("...abefhic,...abefhidg->...abcdgef", py2, inv_w)
    inv_w1 = _inverse(tree, ("W1",), ("Z1",), _STAGE1, "P(W1|Z1)")
    chain = np.einsum("...abcdgef,...aehdgb->...abcefh", h22, tree.conditional(("W1", "W2", "Y1"), _STAGE1 + ("Z1",)))
    h21 = np.einsum("...abcefh,...aehd->...abcdef", chain, inv_w1)
    h11 = np.einsum("...aehb,...aehd->...abde", tree.conditional(("Y1",), _STAGE1 + ("Z1",)), inv_w1)

    q11 = np.einsum("...ade,...aedh->...aeh", _reciprocal(tree, ("A1",), ("Y0", "W1")),
                    _inverse(tree, ("Z1",), ("W1",), _STAGE1, "P(Z1|W1)"))
    row_w = np.einsum("...aeh,...abedgh->...abedg", q11, tree.conditional(("Z1",), _GIVEN_W2))
    inv_z = _inverse(tree, ("Z1", "Z2"), ("W1", "W2"), _STAGE2, "P(Z1,Z2|W1,W2)")
    weights = _layout(row_w[..., None] * _reciprocal(tree, ("A2",), _GIVEN_W2), "abedgf", "abefdg")
    q22 = _contract(weights, inv_z, 4, 0, 2, 2)  # abefhi

    return BridgeSet(*map(_locked, (h22, h21, h11, q11, q22)), dict.fromkeys(_SHAPES, provenance))


DEFAULT_PSEUDO_SEED = 20  # the seed experiments and identify-check draw pseudo bridges from by default


# each outcome bridge's outcome axes, over which a pseudo one sums to one: y2 for h22, (y1, y2) for h21
_OUTCOME_AXES = {"h22": 2, "h21": (1, 2)}


def _component_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seed=ss))


def pseudo_bridges(seed: int, which: Iterable[str] = _COMPONENTS) -> BridgeSet:
    """Deliberately misspecified bridges, deterministic in the seed.

    Outcome components are drawn Uniform(0,1) and normalized to sum to one
    over their outcome arguments (y2 for h22; (y1, y2) for h21), treatment
    components Uniform(0.5, 4). Each component has its own substream, so a
    component's values do not depend on which other components are requested.
    """
    which = set(which)
    unknown = which - set(_COMPONENTS)
    if unknown:
        raise ValueError(f"unknown pseudo components {sorted(unknown)}; choose from {_COMPONENTS}")
    arrays: dict[str, np.ndarray] = {}
    for index, name in enumerate(_COMPONENTS):
        if name not in which:
            continue
        rng = _component_rng(seed, index)
        if name in _OUTCOME_AXES:
            raw = rng.uniform(0.0, 1.0, size=_SHAPES[name])
            arrays[name] = raw / raw.sum(axis=_OUTCOME_AXES[name], keepdims=True)
        else:
            arrays[name] = rng.uniform(0.5, 4.0, size=_SHAPES[name])
    return BridgeSet(**arrays, provenance=dict.fromkeys(arrays, f"pseudo({seed})"))


@dataclass(frozen=True)
class ResidualReport:
    """Max absolute residual of each defining equation family, over every law
    of a stack."""

    q11: float
    q22: float
    h22: float
    h21: float

    @property
    def all_passed(self) -> bool:
        return all(r <= RESIDUAL_TOL for r in (self.q11, self.q22, self.h22, self.h21))  # NaN fails


def verify_bridges(b: BridgeSet, pmf: JointPmf) -> ResidualReport:
    """Plug every component back into its defining integral equation.

    The q22 equation is evaluated with the set's own q11 (the equations are
    nested), so corrupting q11 surfaces in both treatment families. A stack
    of laws (and of bridges, or one set for all) is checked in one pass;
    each field is the largest residual over the stack.
    """
    b.require("h22", "h21", "q11", "q22")
    tree = _MarginalTree(pmf)
    fz1a1 = tree.conditional(("Z1", "A1"), ("Y0", "W1"))
    r_q11 = np.abs(np.einsum("...aeh,...adhe->...aed", b.q11, fz1a1) - 1.0).max()
    given_w2 = ("Y0", "Y1", "A1", "W1", "W2")
    lhs = np.einsum("...abefhi,...abedghif->...abefdg", b.q22, tree.conditional(("Z1", "Z2", "A2"), given_w2))
    rhs = np.einsum("...aeh,...abedgh->...abedg", b.q11, tree.conditional(("Z1",), given_w2))
    r_q22 = np.abs(lhs - rhs[..., None, :, :]).max()
    given_z2 = ("Y0", "Y1", "A1", "A2", "Z1", "Z2")
    rhs = np.einsum("...abcdgef,...abefhidg->...abefhic", b.h22, tree.conditional(("W1", "W2"), given_z2))
    r_h22 = np.abs(tree.conditional(("Y2",), given_z2) - rhs).max()
    given_z1 = ("Y0", "A1", "Z1")
    lhs = np.einsum("...abcdgef,...aehdgb->...abcefh", b.h22, tree.conditional(("W1", "W2", "Y1"), given_z1))
    rhs = np.einsum("...abcdef,...aehd->...abcefh", b.h21, tree.conditional(("W1",), given_z1))
    r_h21 = np.abs(lhs - rhs).max()
    return ResidualReport(float(r_q11), float(r_q22), float(r_h22), float(r_h21))


@dataclass(frozen=True)
class CollapseReport:
    """Summed-out h21 checked as a one-stage outcome bridge."""

    equation_residual: float
    h11_gap: float | None


def bridge_collapse_check(b: BridgeSet, pmf: JointPmf) -> CollapseReport:
    """Sum h21 over y2 and test it against the h11 defining equation.

    The collapsed table nominally still carries an a2 argument; at a law
    where the bridges are exact it must satisfy the one-stage equation for
    both a2 values and coincide with h11 (which is unique here). A stack of
    laws is checked in one pass; each field is the largest over the stack.
    """
    b.require("h21")
    tree = _MarginalTree(pmf)
    collapsed = b.h21.sum(axis=-4)  # [..., y0, y1, w1, a1, a2]
    given_z1 = ("Y0", "A1", "Z1")
    rhs = np.einsum("...abdef,...aehd->...aehbf", collapsed, tree.conditional(("W1",), given_z1))
    eq_res = float(np.abs(tree.conditional(("Y1",), given_z1)[..., None] - rhs).max())
    gap = None if b.h11 is None else float(np.abs(collapsed - b.h11[..., None]).max())
    return CollapseReport(eq_res, gap)
