"""Generative law: exact joint construction, sampling, and the ground-truth
potential-outcome density.

The key oracle here is a test-local forced-intervention enumeration: every
non-treatment factor is multiplied over the full grid with (A1, A2) pinned,
using a locally defined sigmoid, and the result is compared cell by cell to
the package's hidden-confounder standardization.
"""

import math

import numpy as np
import pytest
from conftest import cell_codes, regime_value

from proxidtr import dgp
from proxidtr.policy import Regime, class_values, enumerate_class, first_maximizer
from proxidtr.tables import conditional, marginalize


def local_expit(x):
    return 1.0 / (1.0 + math.exp(-x))


ALWAYS_TREAT = Regime((1, 1), (1,) * 8)
NEVER_TREAT = Regime((0, 0), (0,) * 8)


def test_default_models_term_for_term(params):
    got = {
        m.target: (m.intercept, {p: c for p, c in m.terms}) for m in params.models
    }
    assert got["U0"] == (0.5, {})
    assert got["Y0"] == (-1.0, {("U0",): -0.2})
    assert got["Z1"] == (-2.0, {("U0",): 5.0, ("Y0",): 0.1})
    assert got["A1"] == (-1.0, {("Z1",): 0.2, ("U0",): 2.0, ("Y0",): -0.25})
    assert got["W1"] == (-2.2, {("U0",): 5.2, ("Y0",): 0.1})
    assert got["Y1"] == (0.1, {
        ("A1",): -0.55, ("W1",): 0.25, ("U0",): 1.0, ("Y0",): -3.0, ("A1", "Y0"): 5.0,
    })
    assert got["U1"] == (0.1, {("A1",): 0.15, ("U0",): 1.0, ("Y0",): -0.1})
    assert got["W2"] == (-2.0, {
        ("Y1",): 0.2, ("U1",): 5.0, ("W1",): 0.2, ("U0",): -0.2, ("Y0",): -0.2,
    })
    assert got["Z2"] == (-2.0, {
        ("Y1",): 0.2, ("U1",): 5.0, ("A1",): 0.002, ("Z1",): 0.2, ("U0",): -0.2, ("Y0",): -0.2,
    })
    assert got["A2"] == (-0.6, {
        ("Y1",): 0.2, ("U1",): 1.5, ("Z2",): -0.5, ("A1",): -0.6, ("Z1",): -0.1,
        ("U0",): 0.5, ("Y0",): 0.2,
    })
    assert got["Y2"] == (0.0, {
        ("Y1",): -0.25, ("A2",): 1.0, ("U1",): 3.0, ("W2",): -0.7, ("A1",): -0.25,
        ("W1",): -0.7, ("U0",): -3.0, ("Y0",): -0.25,
        ("Y1", "A2"): -4.0, ("A2", "A1"): 2.0, ("A2", "Y0"): -2.0,
        ("Y1", "A2", "A1"): -1.0, ("Y1", "A2", "Y0"): 8.0, ("A1", "A2", "Y0"): 7.0,
    })


def test_true_joint_normalized(joint):
    assert joint.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert joint.names == dgp.CANONICAL_ORDER


def test_u0_marginal(joint):
    assert joint.prob({"U0": 1}) == pytest.approx(local_expit(0.5), abs=1e-12)


def test_y0_marginal_two_term_hand_sum(joint):
    pu0 = local_expit(0.5)
    expected = (1 - pu0) * local_expit(-1.0) + pu0 * local_expit(-1.2)
    assert marginalize(joint, ("Y0",)).mass[1] == pytest.approx(expected, abs=1e-12)


def _factor(model, cell):
    p1 = local_expit(model.intercept + sum(
        coef * np.prod([cell[p] for p in parents]) for parents, coef in model.terms
    ))
    return p1 if cell[model.target] == 1 else 1.0 - p1


def brute_force_potential(params, a1, a2):
    """f(Y2(a1,a2)=y2, Y1(a1)=y1 | Y0=y0) by full-grid interventional sums."""
    models = [m for m in params.models if m.target not in ("A1", "A2")]
    dist = np.zeros((2, 2, 2))  # [y0, y1, y2]
    free = [n for n in dgp.CANONICAL_ORDER if n not in ("A1", "A2")]
    for values in np.ndindex(*(2,) * len(free)):
        cell = dict(zip(free, values))
        cell["A1"], cell["A2"] = a1, a2
        weight = 1.0
        for model in models:
            weight *= _factor(model, cell)
        dist[cell["Y0"], cell["Y1"], cell["Y2"]] += weight
    p_y0 = dist.sum(axis=(1, 2))
    return dist / p_y0[:, None, None]


def test_oracle_matches_forced_intervention_enumeration(params, oracle):
    for a1 in (0, 1):
        for a2 in (0, 1):
            expected = brute_force_potential(params, a1, a2)
            for y0, y1, y2 in np.ndindex(2, 2, 2):
                assert oracle.g[a1, a2, y2, y1, y0] == pytest.approx(
                    expected[y0, y1, y2], abs=1e-12
                )


def test_oracle_slices_are_pmfs(oracle):
    sums = oracle.g.sum(axis=(2, 3))
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_stage1_marginal_consistency_no_anticipation(joint, oracle):
    # f(Y1(a1)=y1 | y0) = sum_u0 P(y1|y0,u0,a1) P(u0|y0), whichever a2 the
    # density is read at
    p_y1 = conditional(joint, ("Y1",), ("Y0", "U0", "A1"))  # [y0, u0, a1, y1]
    p_u0 = conditional(joint, ("U0",), ("Y0",))  # [y0, u0]
    expected = np.einsum("acbd,ac->bda", p_y1, p_u0)  # [a1, y1, y0]
    np.testing.assert_allclose(oracle.g1, expected, atol=1e-12)
    for a2 in (0, 1):
        np.testing.assert_allclose(oracle.g[:, a2].sum(axis=1), expected, atol=1e-12)


def test_interventional_joint_pins_treatments(params):
    ij = dgp.interventional_joint(params, 1, 0)
    assert ij.prob({"A1": 0}) == 0.0
    assert ij.prob({"A2": 1}) == 0.0
    assert ij.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_true_value_always_treat_matches_interventional_mean(params, joint):
    ij = dgp.interventional_joint(params, 1, 1)
    expected = ij.prob({"Y2": 1})
    # conditioning on Y0 then reweighting by P(Y0) must telescope back
    assert dgp.true_value(params, ALWAYS_TREAT) == pytest.approx(expected, abs=1e-12)


def test_true_value_affine_in_density(oracle, p_y0):
    rng = np.random.default_rng(2)
    other = rng.dirichlet(np.ones(8), size=4).reshape(2, 2, 2, 2, 2)
    regime = Regime((1, 0), (0, 1, 1, 0, 1, 0, 0, 1))
    lam = 0.37
    mix = lam * oracle.g + (1 - lam) * other
    v, v1, v2 = (class_values(g, p_y0, [regime.index])[0] for g in (mix, oracle.g, other))
    assert v == pytest.approx(lam * v1 + (1 - lam) * v2, abs=1e-12)


def test_boolean_optimum_dominates_linear(params):
    lin_value, lin_regime = dgp.optimal_value(params, "linear")
    bool_value, _ = dgp.optimal_value(params, "all-boolean")
    assert bool_value >= lin_value
    assert dgp.true_value(params, lin_regime) == pytest.approx(lin_value, abs=1e-12)


def test_true_values_are_the_loop_values_and_feed_true_and_optimal_value(params, oracle, p_y0, boolean_class,
                                                                         monkeypatch):
    """``true_values`` equals the test-side ``regime_value`` loop over all 1024
    Boolean regimes exactly, and ``true_value`` and ``optimal_value`` read it."""
    values = dgp.true_values(params)
    assert values.shape == (1024,)
    assert values.tolist() == [regime_value(oracle.g, p_y0, r) for r in boolean_class.members]
    table = np.random.default_rng(5).random(1024)  # any array stands in for the true values
    monkeypatch.setattr(dgp, "true_values", lambda p: table if p is params else None)
    assert [dgp.true_value(params, r) for r in boolean_class.members[::97]] == table[::97].tolist()
    for tag in ("linear", "all-boolean"):
        index = enumerate_class(tag).index
        best = first_maximizer(table[index])
        assert dgp.optimal_value(params, tag) == (table[index][best], enumerate_class(tag).members[best])


def test_true_values_are_built_once_per_law_and_read_only(monkeypatch):
    params = dgp.DgpParams.default()  # a law whose table nothing has built yet
    joints = []
    true_joint = dgp.true_joint
    monkeypatch.setattr(dgp, "true_joint", lambda p: joints.append(p) or true_joint(p))
    values = dgp.true_values(params)
    assert dgp.true_value(params, ALWAYS_TREAT) == values[ALWAYS_TREAT.index]
    assert dgp.optimal_value(params, "linear")[0] == values[enumerate_class("linear").index].max()
    assert dgp.true_values(params) is values and not values.flags.writeable
    assert joints == [params]
    assert dgp.true_values(dgp.DgpParams.default()).tobytes() == values.tobytes()  # another law object builds its own
    assert len(joints) == 2


@pytest.mark.parametrize("tag", ["linear", "all-boolean"])
def test_optimal_value_builds_only_the_chosen_member(params, oracle, p_y0, tag, monkeypatch):
    values = class_values(oracle.g, p_y0, enumerate_class(tag).index)
    best = first_maximizer(values)
    expected = enumerate_class(tag).members[best]  # the whole class, built before counting
    built = []
    post_init = Regime.__post_init__
    monkeypatch.setattr(Regime, "__post_init__", lambda self: built.append(self) or post_init(self))
    value, regime = dgp.optimal_value(params, tag)
    assert len(built) == 1
    assert value == float(values[best])
    assert regime == expected  # same tables and the same certificate
    assert (regime.theta1 is None) == (tag == "all-boolean")


def test_sampling_is_deterministic(params):
    a = dgp.sample(params, 500, seed=99)
    b = dgp.sample(params, 500, seed=99)
    c = dgp.sample(params, 500, seed=100)
    np.testing.assert_array_equal(a.observed, b.observed)
    np.testing.assert_array_equal(a.hidden, b.hidden)
    assert not np.array_equal(a.observed, c.observed)


def test_sampling_converges_to_joint(params, joint):
    data = dgp.sample(params, 200_000, seed=4)
    # CLT: 3 sigma for P(U0=1) is about 0.0033
    assert data.column("U0").mean() == pytest.approx(local_expit(0.5), abs=0.01)
    codes = np.zeros(len(data), dtype=np.int64)
    for name in dgp.CANONICAL_ORDER:
        codes = codes * 2 + data.column(name)
    freq = np.bincount(codes, minlength=2 ** 11) / len(data)
    tv_distance = 0.5 * np.abs(freq - joint.mass.ravel()).sum()
    assert tv_distance <= 0.02


def test_sample_requires_positive_n(params):
    with pytest.raises(ValueError):
        dgp.sample(params, 0, seed=1)


def test_csv_round_trip(params):
    data = dgp.sample(params, 200, seed=8)
    text = data.to_csv()
    assert text.splitlines()[0] == "y0,z1,w1,a1,y1,z2,w2,a2,y2"
    again = dgp.Dataset.from_csv(text, seed=8)
    np.testing.assert_array_equal(again.observed, data.observed)
    np.testing.assert_array_equal(again.cell_code, cell_codes(data.observed))

    with_hidden = data.to_csv(include_hidden=True)
    assert with_hidden.splitlines()[0].endswith(",u0,u1")
    again = dgp.Dataset.from_csv(with_hidden, seed=8)
    np.testing.assert_array_equal(again.hidden, data.hidden)
    assert again.cell_code.dtype == np.int16 and not again.cell_code.flags.writeable
    np.testing.assert_array_equal(again.cell_code, data.cell_code)


def test_csv_rejects_unknown_header():
    with pytest.raises(ValueError):
        dgp.Dataset.from_csv("a,b,c\n0,1,0\n")


def _rowwise_sample(params, n, seed):
    """The per-row sampler the prefix tables replaced: each variable's model
    evaluated on the sampled columns, one uniform per row."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    columns = {}
    for name in dgp.SAMPLING_ORDER:
        p1 = np.broadcast_to(params.model(name).prob1(columns), (n,))
        columns[name] = (rng.random(n) < p1).astype(np.int8)
    observed = np.column_stack([columns[name] for name in dgp.OBSERVED_ORDER])
    hidden = np.column_stack([columns[name] for name in dgp.HIDDEN_ORDER])
    return observed, hidden


HARNESS_SEEDS = tuple(range(20240601, 20240611))


@pytest.mark.parametrize("n", [1, 35000])
@pytest.mark.parametrize("seed", (0, 1, 2 ** 64 - 1) + HARNESS_SEEDS)
def test_prefix_table_sampler_equals_rowwise(params, seed, n):
    data = dgp.sample(params, n, seed)
    observed, hidden = _rowwise_sample(params, n, seed)
    assert np.array_equal(data.observed, observed)
    assert np.array_equal(data.hidden, hidden)


def _other_params():
    """A non-default law: every coefficient changed, A1 without parents."""
    b = dgp.LogisticModel.build
    return dgp.DgpParams((
        b("U0", -0.3),
        b("Y0", 0.4, {"U0": 1.1}),
        b("Z1", 0.7, {"U0": -2.5, "Y0": 0.6}),
        b("A1", 0.35),
        b("W1", -1.1, {"U0": 2.9, "Y0": -0.4}),
        b("Y1", -0.2, {"A1": 1.3, "W1": -0.8, "U0": 0.5, ("A1", "Z1", "Y0"): -1.7}),
        b("U1", 0.9, {"A1": -0.6, "U0": 0.4, "Y1": 1.2}),
        b("W2", 0.3, {"U1": -3.1, "W1": 0.9}),
        b("Z2", -0.9, {"U1": 2.2, "Z1": 1.4, "W2": -0.3}),
        b("A2", 0.1, {"Y1": -1.5, "Z2": 0.8, ("A1", "U1"): 0.6}),
        b("Y2", 0.2, {"A2": -1.2, "U1": 1.7, ("Y1", "A2", "W2"): 2.4, "U0": -0.9}),
    ))


@pytest.mark.parametrize("n", [1, 35000])
@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
def test_prefix_table_sampler_equals_rowwise_non_default_law(seed, n):
    params = _other_params()
    data = dgp.sample(params, n, seed)
    observed, hidden = _rowwise_sample(params, n, seed)
    assert np.array_equal(data.observed, observed)
    assert np.array_equal(data.hidden, hidden)


def _extreme_params():
    """A law whose prefix tables hold 0.0 (scores of -800), 1.0 (expit(40)
    rounds to 1), about 4e-18 (expit(-40)) and NaN (a NaN coefficient, which
    the per-row model turns into NaN on every row)."""
    b = dgp.LogisticModel.build
    return dgp.DgpParams((
        b("U0", 0.0),
        b("Y0", -40.0, {"U0": 80.0}),
        b("Z1", -800.0, {"U0": 1600.0}),
        b("A1", 0.0, {"Y0": float("nan")}),
        b("W1", 40.0, {"U0": -80.0, "Y0": 0.3}),
        b("Y1", -800.0, {"Z1": 801.0}),
        b("U1", 0.2, {"A1": 3.0, "U0": -0.5}),
        b("W2", 40.0, {"U1": -840.0}),
        b("Z2", -40.0, {"Y1": 40.0, "W1": 40.0}),
        b("A2", 0.4, {"Z2": -1.0}),
        b("Y2", -40.0, {"U1": 80.0, ("A2", "Y0"): 1.5}),
    ))


def _extreme_tables():
    with np.errstate(over="ignore"):  # exp(800) overflows to inf, and expit to 0.0
        return _extreme_params().sampling_tables


def test_extreme_law_has_the_edge_entries():
    entries = np.concatenate(_extreme_tables())
    assert np.any(entries == 0.0) and np.any(entries == 1.0) and np.any(np.isnan(entries))
    assert np.any((entries > 0) & (entries < 1e-17))


@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
def test_generator_uniforms_are_raw_philox_words_shifted(seed):
    """The sampler's contract with numpy: ``Generator.random`` turns each raw
    Philox word w into (w >> 11) * 2^-53, and n uniforms use exactly n words,
    whatever n, so consecutive calls read consecutive words."""
    words = np.random.Philox(key=np.uint64(seed)).random_raw(10 ** 5)
    uniforms = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(10 ** 5)
    assert np.array_equal((words >> 11).astype(float) * 2.0 ** -53, uniforms)
    bitgen = np.random.Philox(key=np.uint64(seed))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    for n in (1, 3, 7, 2, 5000, 1):
        assert np.array_equal((bitgen.random_raw(n) >> 11) * 2.0 ** -53, rng.random(n))


def test_word_bounds_equal_the_float_comparison(params):
    """At every entry t of three laws' prefix tables and of a list of edge
    values, a word w draws (w >> 11) < C exactly when its uniform
    (w >> 11) * 2^-53 < t, at the words around the bound C * 2^11, at 0 and
    2^64 - 1, and at random words. expit never reaches 1 - 2^-53 (its largest
    value below 1 is 1 - 2^-52), so that entry is listed directly."""
    edges = np.array([0.0, 1.0, 4e-18, np.nextafter(1.0, 0.0), 1 - 2.0 ** -52, 2.0 ** -53,
                      np.nextafter(2.0 ** -53, 0.0), 5e-324, 0.5, np.nan])
    entries = np.unique(np.concatenate(
        params.sampling_tables + _other_params().sampling_tables + _extreme_tables() + (edges,)))
    bounds = dgp._word_bounds(entries)
    assert bounds.dtype == np.uint64 and not bounds.flags.writeable
    assert int(bounds.max()) == 2 ** 53 and int(bounds.min()) == 0
    random_words = np.random.default_rng(11).integers(0, 2 ** 64, 256, dtype=np.uint64, endpoint=False)
    for t, bound in zip(entries, bounds):
        edge = int(bound) << 11
        near = [w for w in (0, edge - 1, edge, edge + 1, 2 ** 64 - 1) if 0 <= w < 2 ** 64]
        words = np.concatenate([np.array(near, dtype=np.uint64), random_words])
        drawn = (words >> 11) < bound
        assert np.array_equal(drawn, (words >> 11).astype(float) * 2.0 ** -53 < t), t


@pytest.mark.parametrize("n", [1, 35000])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_sampler_equals_rowwise_on_extreme_law(seed, n):
    params = _extreme_params()
    with np.errstate(over="ignore"):
        data = dgp.sample(params, n, seed)
        observed, hidden = _rowwise_sample(params, n, seed)
    assert np.array_equal(data.observed, observed)
    assert np.array_equal(data.hidden, hidden)
    assert not data.column("A1").any()  # every entry of its table is NaN
    code = np.zeros(n, dtype=np.int16)
    for name in dgp.CANONICAL_ORDER:
        code = (code << 1) | data.column(name)
    assert data.cell_code.dtype == np.int16 and not data.cell_code.flags.writeable
    assert np.array_equal(data.cell_code, code)
    assert np.array_equal(data.cell_counts, np.bincount(code, minlength=2 ** 11))
    rows = np.arange(n)[::-3]
    assert np.array_equal(dgp.Dataset(data.cell_code[rows], seed).cell_code, code[rows])


def test_prefix_code_table_is_the_column_code():
    """The sampler's prefix codes, mapped to canonical order, are the codes
    the columns give, for every one of the 2^11 cells."""
    bits = np.indices((2,) * 11).reshape(11, -1)
    code = np.zeros(2 ** 11, dtype=np.int64)
    for name in dgp.CANONICAL_ORDER:
        code = code * 2 + bits[dgp.SAMPLING_ORDER.index(name)]
    assert dgp._SAMPLING_TO_CANONICAL.dtype == np.int16
    assert not dgp._SAMPLING_TO_CANONICAL.flags.writeable
    assert np.array_equal(dgp._SAMPLING_TO_CANONICAL, code)


def test_sampling_tables_shape_and_cache(params):
    tables = params.sampling_tables
    assert tables is params.sampling_tables
    assert [t.shape for t in tables] == [(2 ** k,) for k in range(len(dgp.SAMPLING_ORDER))]
    assert not any(t.flags.writeable for t in tables)
    # Z1's table is indexed by (U0, Y0), U0 the high bit: entry 0b10 is U0 = 1, Y0 = 0
    assert tables[2][0b10] == pytest.approx(local_expit(-2.0 + 5.0), rel=1e-15)
    assert params == dgp.DgpParams.default()


def test_cell_counts_match_columns(params):
    data = dgp.sample(params, 3000, seed=12)
    code = np.zeros(len(data), dtype=np.int64)
    for name in dgp.CANONICAL_ORDER:
        code = code * 2 + data.column(name)
    assert np.array_equal(data.cell_code, code)
    assert np.array_equal(data.cell_counts, np.bincount(code, minlength=2 ** 11))
    assert data.cell_counts is data.cell_counts
    assert not data.cell_counts.flags.writeable
    assert data.cell_counts.sum() == len(data)
    observed = (code >> 10) << 8 | (code >> 5 & 0b1111) << 4 | code & 0b1111  # the codes without the U0, U1 bits
    assert np.array_equal(data.observed_counts, np.bincount(observed, minlength=2 ** 9))
    assert data.observed_counts is data.observed_counts
    assert not data.observed_counts.flags.writeable


def test_csv_without_hidden_columns_is_marked(params):
    data = dgp.sample(params, 50, seed=8)
    assert data.has_hidden
    assert not dgp.Dataset.from_csv(data.to_csv()).has_hidden
    assert dgp.Dataset.from_csv(data.to_csv(include_hidden=True)).has_hidden
    with pytest.raises(ValueError, match="u0,u1"):
        dgp.Dataset.from_csv(data.to_csv()).to_csv(include_hidden=True)


@pytest.mark.parametrize("code, has_hidden", [
    ([0, 2 ** 11], True),                     # past the last cell
    ([-1, 0], True),                          # below the first
    ([[0, 1], [2, 3]], True),                 # a 2-d array
    ([0.0, 1.0], True),                       # not integers
    ([0, 1 << 9], False),                     # U0 set without hidden columns
    ([0, 1 << 4], False),                     # U1 set without hidden columns
])
def test_dataset_rejects_bad_cell_codes(code, has_hidden):
    with pytest.raises(ValueError, match="cell codes"):
        dgp.Dataset(np.array(code), 1, has_hidden)


def test_dataset_holds_only_its_cell_codes(params):
    data = dgp.sample(params, 500, seed=3)
    assert list(vars(data)) == ["cell_code", "seed", "has_hidden"]
    assert np.array_equal(cell_codes(data.observed, data.hidden), data.cell_code)
    for view in (data.observed, data.hidden, data.column("Y2"), data.column("U1")):
        assert view.dtype == np.int8 and not view.flags.writeable
    assert np.array_equal(data.column("U1"), data.hidden[:, 1])
    with pytest.raises(KeyError):
        data.column("X1")
    empty = dgp.Dataset(np.zeros(0, dtype=np.int16), 1, has_hidden=False)
    assert len(empty) == 0 and empty.observed.shape == (0, 9)
    assert empty.cell_counts.sum() == 0


def test_identified_density_copies_a_writeable_array():
    g = np.full((2,) * 5, 0.5)
    density = dgp.IdentifiedDensity(g, "X")
    assert g.flags.writeable and not density.g.flags.writeable
    g[:] = 0.25
    assert (density.g == 0.5).all()
    locked = density.g  # read-only and owns its memory: kept, not copied
    assert dgp.IdentifiedDensity(locked, "X").g is locked


def test_dataset_copies_the_codes_it_is_given():
    codes = np.arange(10, dtype=np.int16)
    data = dgp.Dataset(codes, 0)
    assert codes.flags.writeable
    codes[:] = 7
    assert np.array_equal(data.cell_code, np.arange(10))
    assert np.array_equal(data.cell_counts, np.bincount(np.arange(10), minlength=2 ** 11))


def test_datasets_compare_by_identity(params):
    data = dgp.sample(params, 5, seed=1)
    assert (data == dgp.sample(params, 5, seed=1)) is False
    assert (data == data) is True
    assert len({data, data}) == 1


def test_expit_saturates_without_warning():
    with np.errstate(over="raise"):
        assert dgp.expit(-800.0) == 0.0
        assert np.array_equal(dgp.expit(np.array([-1e308, -710.0, 0.0, 800.0])), [0.0, 0.0, 0.5, 1.0])
    x = np.linspace(-700.0, 700.0, 10001)
    assert np.array_equal(dgp.expit(x), [local_expit(v) for v in x])  # the C library's exp, not numpy's SIMD loop
