"""Two-stage binary data-generating process with proxy variables.

Eleven binary variables in canonical order

    Y0, U0, Z1, W1, A1, Y1, U1, Z2, W2, A2, Y2

where U0, U1 are hidden confounders, Z1, Z2 treatment-inducing proxies and
W1, W2 outcome-inducing proxies. Each variable follows a logistic (expit)
model in its causal parents; the defaults encode the benchmark generative
law used throughout the tests, including the third-order interactions of the
terminal-outcome score.

The module constructs the exact 2^11 joint law, samples rows ancestrally
with a counter-based generator or draws a sample's cell counts in one
multinomial draw, and evaluates ground truth by sequential
standardization (g-formula) over the hidden confounders: the conditional
joint density of potential outcomes and, from it, ``true_values``, the true
value of every Boolean regime at its Boolean index, built once per
``DgpParams`` and read-only: one ``policy.class_values`` call, the
package's one plug-in value kernel, under the Oracle density of the true
law. ``true_value`` reads one regime's value there and ``optimal_value`` a
class optimum, found by exhaustive policy enumeration; the harness scores
against the same array and optimum. Every potential-outcome density, the
Oracle's here and those of SRA and the bridge methods, is an
``IdentifiedDensity`` (here because ``identify`` imports this module).

The sampler draws each variable in SAMPLING_ORDER as one raw 64-bit Philox
word per row, compared with a prefix table P(var = 1 | the variables sampled
before it) read at the row's earlier values. The tables are built once per
``DgpParams`` by ``prob1`` on the 0/1 grid, the same float operations the
per-row model applies. ``Generator.random`` turns the same words into the
uniforms u = (w >> 11) * 2^-53, and u < t exactly when (w >> 11) <
ceil(t * 2^53), every step being exact in binary64; so the sampler compares
words with these integer bounds, and the stream and the rows of a seed stay
bit for bit those of the per-row sampler. The prefix code the sampler
builds, the row's values in SAMPLING_ORDER read as bits, becomes the
canonical cell code through one fixed 2^11-entry table. Philox is
counter-based, so any block of a sample's rows is drawn alone, bit for bit
(``sample_rows``): variable k's word for row i is stream word k*n + i, and
one generator skips from each variable's block of words to the next.
``sample`` is the block of all n rows.

``sample_counts`` draws the 2^11 cell counts of n rows without a row: one
``Generator.multinomial(n, p)`` draw from a Philox stream keyed by the seed,
p the true joint's mass in C order (``DgpParams._joint``, built once and
shared with ``true_values``). The counts of n iid rows are Multinomial(n,
p), so these have the law of ``sample``'s counts (to the 2^-53 rounding of
its word bounds), not its bits. The experiment grid draws its repetitions
so; rows are drawn where rows are read (``simulate``, a CSV, the tests).

A ``Dataset`` holds its rows only as canonical cell codes: each row's
CANONICAL_ORDER values read as bits, Y0 the most significant. Its 2^11 cell
counts are the sufficient statistic of every estimator; they and the 2^9
observed counts (``sum_hidden`` of them) are counted once per dataset. Its
columns are read-only arrays masked out of the codes on each access. The table of each
variable's bit in the code turns the sampler's prefix codes, a CSV's value
matrix and a column name alike into codes or masks.

``Dataset.from_csv`` reads a CSV, as text or as its UTF-8 bytes: a header
naming OBSERVED_ORDER (optionally followed by u0,u1 and led by a byte-order
mark), then lines of k comma-separated digits 0 or 1, k being the header's
length; CRLF line ends, blank lines, a missing final newline and spaces or
tabs around values are allowed. The body is checked and converted in
blocks of ``_CSV_BLOCK`` rows of 2k bytes, digits in the even slots, commas
between them and a newline last (``_csv_codes``): a block XORed with as
many rows of zeros in that layout and read as little-endian 16-bit words
holds a digit's 0/1 in every word exactly when each comma and newline is in
place, so one maximum checks it and one float32 product turns its words
into cell codes; no temporary is larger than a block. A body already in
that layout is checked as it stands; any other is first stripped of spaces,
tabs, carriage returns and blank lines and given a final newline. Only a
rejected file is scanned line by line, to name the first bad line.
``Dataset.to_csv`` writes that same layout as one (rows, 2k) byte array,
behind the lower-case header line, so what it writes is read back without
the stripping pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .policy import BOOLEAN_SIZE, Regime, RegimeClass, class_values, enumerate_class, first_maximizer
from .tables import JointPmf, _as_readonly, _locked, _refuse_stack

CANONICAL_ORDER = ("Y0", "U0", "Z1", "W1", "A1", "Y1", "U1", "Z2", "W2", "A2", "Y2")
OBSERVED_ORDER = ("Y0", "Z1", "W1", "A1", "Y1", "Z2", "W2", "A2", "Y2")
HIDDEN_ORDER = ("U0", "U1")

# generation order: each variable's parents precede it
SAMPLING_ORDER = ("U0", "Y0", "Z1", "A1", "W1", "Y1", "U1", "W2", "Z2", "A2", "Y2")


_EXP_LIMIT = 709.782712893384  # log of the largest double: the largest v whose exp is finite; math.exp raises above it


def expit(x):
    """1 / (1 + exp(-x)), with the C library's exp (``math.exp``) on each
    distinct value of ``x``: numpy's exp picks its loop by the CPU's SIMD
    features, and its AVX-512 loop rounds some values differently, which
    would make the law's bits depend on the host. exp(-x) = inf below
    x = -709.78 gives the exact 0.0; a NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    distinct, at = np.unique(-x, return_inverse=True)
    exp = [math.inf if v > _EXP_LIMIT else math.exp(v) for v in distinct.tolist()]
    return 1.0 / (1.0 + np.array(exp)[at].reshape(x.shape))


@dataclass(frozen=True)
class LogisticModel:
    """Bernoulli(expit(intercept + sum of coef * product-of-parents)) model.

    ``terms`` maps a tuple of parent names to its coefficient; tuples of
    length > 1 are interaction terms.
    """

    target: str
    intercept: float
    terms: tuple[tuple[tuple[str, ...], float], ...] = ()

    @classmethod
    def build(cls, target: str, intercept: float, terms: Mapping | None = None) -> "LogisticModel":
        items = []
        for key, coef in (terms or {}).items():
            parents = (key,) if isinstance(key, str) else tuple(key)
            items.append((parents, float(coef)))
        return cls(target, float(intercept), tuple(items))

    def score(self, values: Mapping[str, np.ndarray]):
        total = np.asarray(self.intercept, dtype=float)
        for parents, coef in self.terms:
            prod = values[parents[0]]
            for name in parents[1:]:
                prod = prod * values[name]
            total = total + coef * prod
        return total

    def prob1(self, values: Mapping[str, np.ndarray]):
        return expit(self.score(values))


def _word_bounds(table: np.ndarray) -> np.ndarray:
    """The integer bounds C = ceil(t * 2^53) in [0, 2^53] of the entries t of a
    probability table, as uint64: a raw Philox word w draws 1 exactly when
    (w >> 11) < C, as its uniform (w >> 11) * 2^-53 < t does. A NaN entry gets
    0 and never draws 1, as u < NaN is false."""
    return _locked(np.ceil(np.nan_to_num(table) * 2.0 ** 53).astype(np.uint64))


@dataclass(frozen=True)
class DgpParams:
    """The eleven sequential logistic models, keyed by target variable."""

    models: tuple[LogisticModel, ...] = field(default_factory=tuple)

    def __post_init__(self):
        targets = tuple(m.target for m in self.models)
        if sorted(targets) != sorted(CANONICAL_ORDER):
            raise ValueError(f"models must cover {CANONICAL_ORDER}, got {targets}")

    def model(self, target: str) -> LogisticModel:
        for m in self.models:
            if m.target == target:
                return m
        raise KeyError(target)

    @cached_property
    def sampling_tables(self) -> tuple[np.ndarray, ...]:
        """P(var = 1 | the variables sampled before it), per variable of
        SAMPLING_ORDER: a flat table of 2^k entries indexed by the earlier
        values read as bits, the first sampled the most significant.

        Each entry is ``prob1`` on one 0/1 grid cell, the same float
        operations the per-row model applies to a row with those values.
        """
        tables = []
        for k, name in enumerate(SAMPLING_ORDER):
            grid = dict(zip(SAMPLING_ORDER[:k], np.indices((2,) * k)))
            tables.append(_locked(np.array(np.broadcast_to(self.model(name).prob1(grid), (2,) * k)).reshape(-1)))
        return tuple(tables)

    @cached_property
    def _sampling_bounds(self) -> tuple[np.ndarray, ...]:
        """``_word_bounds`` of each of ``sampling_tables``."""
        return tuple(_word_bounds(table) for table in self.sampling_tables)

    @cached_property
    def _joint(self) -> JointPmf:
        """``true_joint`` of this law, built once: ``_true_values`` and
        ``sample_counts`` read it."""
        return true_joint(self)

    @cached_property
    def _true_values(self) -> np.ndarray:
        """``true_values`` of this law."""
        joint = self._joint
        return _locked(class_values(oracle_density_from_joint(joint).g, joint.marginal(("Y0",)),
                                    np.arange(BOOLEAN_SIZE)))

    @classmethod
    def default(cls) -> "DgpParams":
        b = LogisticModel.build
        return cls((
            b("U0", 0.5),
            b("Y0", -1.0, {"U0": -0.2}),
            b("Z1", -2.0, {"U0": 5.0, "Y0": 0.1}),
            b("A1", -1.0, {"Z1": 0.2, "U0": 2.0, "Y0": -0.25}),
            b("W1", -2.2, {"U0": 5.2, "Y0": 0.1}),
            b("Y1", 0.1, {"A1": -0.55, "W1": 0.25, "U0": 1.0, "Y0": -3.0, ("A1", "Y0"): 5.0}),
            b("U1", 0.1, {"A1": 0.15, "U0": 1.0, "Y0": -0.1}),
            b("W2", -2.0, {"Y1": 0.2, "U1": 5.0, "W1": 0.2, "U0": -0.2, "Y0": -0.2}),
            b("Z2", -2.0, {"Y1": 0.2, "U1": 5.0, "A1": 0.002, "Z1": 0.2, "U0": -0.2, "Y0": -0.2}),
            b("A2", -0.6, {"Y1": 0.2, "U1": 1.5, "Z2": -0.5, "A1": -0.6, "Z1": -0.1, "U0": 0.5, "Y0": 0.2}),
            b("Y2", 0.0, {
                "Y1": -0.25, "A2": 1.0, "U1": 3.0, "W2": -0.7, "A1": -0.25, "W1": -0.7,
                "U0": -3.0, "Y0": -0.25,
                ("Y1", "A2"): -4.0, ("A2", "A1"): 2.0, ("A2", "Y0"): -2.0,
                ("Y1", "A2", "A1"): -1.0, ("Y1", "A2", "Y0"): 8.0, ("A1", "A2", "Y0"): 7.0,
            }),
        ))


# each variable's bit in the canonical cell code: Y0 the most significant, Y2 the least
_CELL_BIT = {name: 1 << (len(CANONICAL_ORDER) - 1 - i) for i, name in enumerate(CANONICAL_ORDER)}
_HIDDEN_BITS = _CELL_BIT["U0"] | _CELL_BIT["U1"]
_HIDDEN_AXES = tuple(CANONICAL_ORDER.index(n) - len(CANONICAL_ORDER) for n in HIDDEN_ORDER)


def _bit_weights(names: tuple[str, ...]) -> np.ndarray:
    """The int16 cell-code bit of each of ``names``."""
    return np.array([_CELL_BIT[name] for name in names], dtype=np.int16)


def sum_hidden(cell_counts: np.ndarray) -> np.ndarray:
    """2^11 cell counts summed over U0 and U1: the row count of each of the
    2^9 observed cells, in C order over OBSERVED_ORDER, read-only."""
    counts = cell_counts.reshape((2,) * len(CANONICAL_ORDER)).sum(axis=_HIDDEN_AXES)
    return _locked(counts.reshape(-1))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled or read rows, held as their canonical cell codes.

    ``cell_code`` is the read-only (n,) int16 codes given, kept as they
    stand when read-only, owned and C-contiguous (the fresh codes
    ``from_csv`` and ``sample`` lock), else a copy
    (``tables._as_readonly``): each row's CANONICAL_ORDER values read as
    bits, Y0 the most significant, so a code is the row's C-order index in
    the 2^11 grid. ``observed``, ``hidden`` and ``column`` are read-only
    int8 arrays masked out of the codes on each access. Estimators other
    than the Oracle read only the observed bits. ``has_hidden`` is false
    when the hidden U0, U1 were not recorded (a CSV without u0, u1
    columns); their bits are then zero.
    Datasets compare by identity.
    """

    cell_code: np.ndarray
    seed: int
    has_hidden: bool = True

    def __post_init__(self):
        code = np.asarray(self.cell_code)
        if code.ndim != 1 or code.dtype.kind not in "iu":
            raise ValueError(f"cell codes must be a 1-d integer array, got {code.dtype} of shape {code.shape}")
        if code.min(initial=0) < 0 or code.max(initial=0) >= 2 ** len(CANONICAL_ORDER):
            raise ValueError(f"cell codes must lie in [0, {2 ** len(CANONICAL_ORDER)})")
        if not self.has_hidden and np.any(code & _HIDDEN_BITS):
            raise ValueError("cell codes set hidden bits of a dataset without hidden columns")
        # kept if read-only, owned and int16, as fresh codes are; else a copy, so a caller's array cannot change ours
        object.__setattr__(self, "cell_code", _as_readonly(code, np.int16))

    def __len__(self) -> int:
        return self.cell_code.shape[0]

    def _columns(self, names: tuple[str, ...]) -> np.ndarray:
        """(n, len(names)) int8 values of the named variables."""
        return _locked(((self.cell_code[:, None] & _bit_weights(names)) != 0).view(np.int8))

    @property
    def observed(self) -> np.ndarray:
        """(n, 9) values, columns OBSERVED_ORDER."""
        return self._columns(OBSERVED_ORDER)

    @property
    def hidden(self) -> np.ndarray:
        """(n, 2) values, columns HIDDEN_ORDER."""
        return self._columns(HIDDEN_ORDER)

    def column(self, name: str) -> np.ndarray:
        return self._columns((name,))[:, 0]

    @cached_property
    def cell_counts(self) -> np.ndarray:
        """Row count of each of the 2^11 cells, in C order over CANONICAL_ORDER:
        the sufficient statistic of every estimator."""
        return _locked(np.bincount(self.cell_code, minlength=2 ** len(CANONICAL_ORDER)))

    @cached_property
    def observed_counts(self) -> np.ndarray:
        """``sum_hidden`` of ``cell_counts``."""
        return sum_hidden(self.cell_counts)

    def to_csv(self, include_hidden: bool = False) -> str:
        if include_hidden and not self.has_hidden:
            raise ValueError("the dataset has no hidden columns u0,u1 to write")
        names = OBSERVED_ORDER + HIDDEN_ORDER if include_hidden else OBSERVED_ORDER
        body = np.full((len(self), 2 * len(names)), ord(","), dtype=np.uint8)  # the layout ``_csv_codes`` reads
        body[:, ::2] = self._columns(names) + ord("0")
        body[:, -1] = ord("\n")
        return ",".join(n.lower() for n in names) + "\n" + body.tobytes().decode("ascii")

    @classmethod
    def from_csv(cls, text: str | bytes, seed: int = 0) -> "Dataset":
        """Rows of a CSV, as text or UTF-8 bytes, in the grammar of the module
        docstring; a rejected data row raises ValueError naming its line."""
        data = text if isinstance(text, bytes) else text.encode("utf-8", "replace")
        data = data.removeprefix("\ufeff".encode())  # the byte-order mark spreadsheet programs write
        end = data.find(b"\n")
        if end < 0:
            end = len(data)
        header = [h.strip().lower() for h in data[:end].decode("utf-8", "replace").split(",")]
        expected = [n.lower() for n in OBSERVED_ORDER]
        with_hidden = expected + [n.lower() for n in HIDDEN_ORDER]
        if header == with_hidden:
            hidden_in_file = True
        elif header == expected:
            hidden_in_file = False
        else:
            raise ValueError(f"unexpected CSV header {header}")
        k = len(header)
        body = np.frombuffer(data, np.uint8)[end + 1:]
        code = _csv_codes(body, k)
        if code is None:
            body = _canonical_body(body)
            if body.size == 0:
                raise ValueError("CSV has a header but no data rows")
            code = _csv_codes(body, k)
            if code is None:
                raise ValueError(_csv_row_error(data.decode("utf-8", "replace"), k))
        return cls(_locked(code), seed, hidden_in_file)


_CSV_BLOCK = 4096  # rows decoded at a time, so no temporary grows with the body


@lru_cache(maxsize=8)
def _zero_rows(k: int, block: int) -> np.ndarray:
    """``block`` rows of k comma-separated zeros, each ending in a newline."""
    return np.frombuffer((("0," * k)[:-1] + "\n").encode() * block, np.uint8)


def _csv_codes(body: np.ndarray, k: int) -> np.ndarray | None:
    """The int16 cell codes of the bytes ``body`` if they are exactly lines of
    k comma-separated 0/1 digits, each ending in a newline; else None."""
    width = 2 * k
    if body.size == 0 or body.size % width:
        return None
    zeros = _zero_rows(k, _CSV_BLOCK)
    block = np.empty_like(zeros)
    # codes below 2^11 are exact in float32, whose product runs about twice as fast as an integer one
    weights = _bit_weights(OBSERVED_ORDER + HIDDEN_ORDER)[:k].astype(np.float32)
    code = np.empty(body.size // width, np.int16)
    for start in range(0, body.size, block.size):
        stop = min(start + block.size, body.size)
        part = np.bitwise_xor(body[start:stop], zeros[:stop - start], out=block[:stop - start])
        # XOR with a zero row leaves each digit's 0/1 in a low byte and zero in
        # every high byte exactly when the commas and the newline are in place
        values = part.view("<u2")
        if values.max() > 1:
            return None
        code[start // width:stop // width] = values.reshape(-1, k) @ weights
    return code


def _canonical_body(body: np.ndarray) -> np.ndarray:
    """The bytes ``body`` without spaces, tabs, carriage returns and blank
    lines, each line ending in a newline."""
    raw = np.frombuffer(body.tobytes().translate(None, b" \t\r") + b"\n", np.uint8)
    newline = raw == ord("\n")
    keep = ~newline
    keep[1:] |= ~newline[:-1]  # a newline ends a line only after a non-newline byte
    return raw[keep]


_CSV_SPACES = str.maketrans("", "", " \t\r")


def _csv_row_error(text: str, k: int) -> str:
    """Message naming the first data line that is not k comma-separated 0/1 values."""
    for number, line in enumerate(text.split("\n")[1:], start=2):
        values = line.translate(_CSV_SPACES).split(",")
        if values != [""] and (len(values) != k or not set(values) <= {"0", "1"}):
            return f"CSV line {number}: expected {k} comma-separated values 0/1"
    return f"CSV rows must hold {k} comma-separated values 0/1"


@dataclass(frozen=True)
class IdentifiedDensity:
    """A potential-outcome density f(Y2(a1,a2)=y2, Y1(a1)=y1 | Y0=y0) with
    the method that produced it and the provenance of its bridges.

    ``g[a1, a2, y2, y1, y0]``, led by a fold axis when identified from a
    stack of laws; slices sum to one only when the bridges behind the method
    are correct for the supplied law.
    """

    g: np.ndarray
    method: str
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        g = _as_readonly(self.g)  # never locks the caller's array
        if g.shape[g.ndim - 5:] != (2,) * 5:
            raise ValueError(f"g must have shape (2,)*5, got {g.shape}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def g1(self) -> np.ndarray:
        """Stage-1 marginal f(Y1(a1)=y1 | Y0=y0) at a2 = 0, ``g1[a1, y1, y0]``."""
        return self.g[..., 0, :, :, :].sum(axis=-3)

    def slice_sums(self) -> np.ndarray:
        """sum over (y2, y1) per (a1, a2, y0); equals 1 at a correct law."""
        return self.g.sum(axis=(-3, -2))

    def to_json(self) -> str:
        _refuse_stack(self.g.shape, 5, "to_json reads a single density, not a stack of densities of shape {stack}",
                      ValueError)
        return json.dumps({
            "method": self.method,
            "provenance": dict(self.provenance),
            "g": {",".join(map(str, idx)): float(self.g[idx]) for idx in np.ndindex(self.g.shape)},
        })


def _factor_product(params: DgpParams, skip: tuple[str, ...] = ()) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """(grid values, the product on the 2^11 grid of every model factor but
    those of ``skip``), multiplied in model order."""
    values = dict(zip(CANONICAL_ORDER, np.indices((2,) * len(CANONICAL_ORDER))))
    mass = np.ones((2,) * len(CANONICAL_ORDER))
    for model in params.models:
        if model.target in skip:
            continue
        p1 = model.prob1(values)
        target = values[model.target]
        mass = mass * np.where(target == 1, p1, 1.0 - p1)
    return values, mass


def true_joint(params: DgpParams) -> JointPmf:
    """Exact joint law: the product of all eleven model factors on the 2^11 grid."""
    return JointPmf(CANONICAL_ORDER, _factor_product(params)[1])


def interventional_joint(params: DgpParams, a1: int, a2: int) -> JointPmf:
    """Joint law with both treatments forced: drop the A factors, pin their values.

    The result is still indexed over all eleven variables; cells with
    (A1, A2) different from (a1, a2) carry zero mass.
    """
    values, mass = _factor_product(params, skip=("A1", "A2"))
    mass = mass * (values["A1"] == a1) * (values["A2"] == a2)
    return JointPmf(CANONICAL_ORDER, mass)


# canonical cell code of each 11-bit prefix code, whose bits are the values
# in SAMPLING_ORDER, the first sampled the most significant
_SAMPLING_TO_CANONICAL = _locked(_bit_weights(SAMPLING_ORDER) @ np.indices((2,) * 11, dtype=np.int16).reshape(11, -1))


def sample(params: DgpParams, n: int, seed: int) -> Dataset:
    """Ancestral sampling with the counter-based Philox generator: the
    ``Dataset`` of all n rows of ``sample_rows``."""
    return Dataset(_locked(sample_rows(params, n, seed, 0, n)), seed)


def _refuse_draw(n: int, seed: int) -> None:
    """Refuse a sample size or a seed that no draw takes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def sample_counts(params: DgpParams, n: int, seed: int) -> np.ndarray:
    """The read-only (2048,) cell counts of n rows of the law, in C order over
    CANONICAL_ORDER: one ``Generator.multinomial(n, p)`` draw from a Philox
    stream keyed by ``seed``, p the true joint's mass. The counts of n iid
    rows are Multinomial(n, p), so this has the law of ``sample(params, n,
    seed).cell_counts`` (to the 2^-53 rounding of the rows sampler's word
    bounds), not its bits."""
    _refuse_draw(n, seed)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return _locked(rng.multinomial(n, params._joint.mass.reshape(-1)))


def sample_rows(params: DgpParams, n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """The int16 cell codes of rows [start, stop) of ``sample(params, n, seed)``,
    drawn alone, bit for bit.

    Each variable reads n raw words, the ones ``Generator.random(n)`` would
    turn into uniforms, and draws 1 where a word's top 53 bits fall below the
    integer bound of its prefix table read at the row's earlier values
    (``DgpParams.sampling_tables``, ``_word_bounds``): bit for bit the rows of
    the per-row sampler. Variable k's word for row i is stream word k*n + i,
    so one generator skips from each variable's block to the next: it reads
    the rest of its current 4-word counter block, then advances whole blocks
    and reads the words left. The finished prefix code gives the cell codes.
    """
    _refuse_draw(n, seed)
    if not 0 <= start <= stop <= n:
        raise ValueError(f"rows [start, stop) must satisfy 0 <= start <= stop <= n = {n}, got [{start}, {stop})")
    code = np.zeros(stop - start, dtype=np.intp)
    if not code.size:
        return _SAMPLING_TO_CANONICAL[code]  # an empty block draws no words
    bitgen = np.random.Philox(key=np.uint64(seed))
    read = 0  # stream words read so far
    for k, bounds in enumerate(params._sampling_bounds):
        gap = k * n + start - read
        if gap:  # skip to variable k's word for row start
            rest = min(gap, -read % 4)  # no further than the end of the current block
            bitgen.random_raw(rest)
            if gap > rest:
                bitgen.advance((gap - rest) // 4)
                bitgen.random_raw((gap - rest) % 4)
        words = bitgen.random_raw(stop - start)
        words >>= 11  # the 53 bits a uniform keeps
        bit = words < bounds[code]
        code <<= 1
        code |= bit
        read = k * n + stop
    return _SAMPLING_TO_CANONICAL[code]


def oracle_density_from_joint(pmf: JointPmf) -> IdentifiedDensity:
    """Potential-outcome density by standardizing over the hidden confounders.

    g(a1,a2,y2,y1,y0) = sum_{u0,u1} P(y2|y0,y1,u0,u1,a1,a2) P(u1|y0,y1,u0,a1)
                        P(y1|y0,u0,a1) P(u0|y0)

    computed from the (true or empirical) 11-variable joint law, or from a
    stack of them into a stack of densities, its four conditionals read off
    the law's own marginals, which its later readers (its P(Y0), for one)
    share. Raises on zero-probability conditioning cells rather than imputing.
    """
    p_u0 = pmf.conditional(("U0",), ("Y0",))                      # [y0, u0]
    p_y1 = pmf.conditional(("Y1",), ("Y0", "U0", "A1"))            # [y0, u0, a1, y1]
    p_u1 = pmf.conditional(("U1",), ("Y0", "Y1", "U0", "A1"))      # [y0, y1, u0, a1, u1]
    p_y2 = pmf.conditional(("Y2",), ("Y0", "Y1", "U0", "U1", "A1", "A2"))  # [y0,y1,u0,u1,a1,a2,y2]
    # axis letters: a=y0 b=y1 c=u0 d=u1 e=a1 f=a2 g=y2
    g = np.einsum("...abcdefg,...abced,...aceb,...ac->...efgba", p_y2, p_u1, p_y1, p_u0)
    return IdentifiedDensity(g, "ORACLE")


def true_values(params: DgpParams) -> np.ndarray:
    """The exact value under the true law of every Boolean regime, at its
    Boolean index: one ``class_values`` call under the Oracle density, made
    once per ``DgpParams`` and read-only."""
    return params._true_values


def true_value(params: DgpParams, regime: Regime) -> float:
    """Exact value of a regime under the true law."""
    return float(true_values(params)[regime.index])


def optimal_value(params: DgpParams, cls: str | RegimeClass) -> tuple[float, Regime]:
    """Exhaustive maximum of the true value over a regime class, and the first
    member that attains it (the only member built)."""
    if isinstance(cls, str):
        cls = enumerate_class(cls)
    values = true_values(params)[cls.index]
    best = first_maximizer(values)
    return float(values[best]), cls.member(best)
