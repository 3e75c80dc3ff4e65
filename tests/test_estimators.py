"""Sample-level estimators: algebraic identities, consistency, cross-fitting.

The load-bearing identities are exact, not statistical: every value
estimate is identify's plug-in value on the sample's own table, bit for bit,
and the telescoped PMR rearrangement must match it to 1e-12, for arbitrary
(even corrupted) bridges.
"""

import inspect
import math
import sys

import numpy as np
import pytest
from conftest import cell_codes

from proxidtr import dgp, estimators, harness, identify
from proxidtr.bridges import pseudo_bridges, solve_bridges, verify_bridges
from proxidtr.dgp import Dataset
from proxidtr.estimators import (
    FitOptions,
    cross_fit,
    empirical_pmf,
    fit_bridges,
    fit_counts,
    fit_off_fold,
    fold_counts,
    if_variance,
    oracle_value,
    population_v,
    sra_from_conditional,
    sra_value,
    v_hat,
    v_hat_pmr_alt,
    _cell_counts,
)
from proxidtr.policy import Regime, class_values
from proxidtr.tables import JointPmf, SingularMatrixError, ZeroProbabilityError, conditional

METHODS = ("POR", "PHA", "PIPW", "PMR")
REGIME = Regime((1, 0), (0, 1, 1, 0, 1, 0, 0, 1))


@pytest.fixture(scope="module")
def fitted(big_data):
    return fit_bridges(big_data)


@pytest.fixture(scope="module")
def small_data(params):
    return dgp.sample(params, 1000, seed=77)


def test_empirical_pmf_matches_counts(small_data):
    pmf = empirical_pmf(small_data)
    first = dict(zip(dgp.OBSERVED_ORDER, small_data.observed[0]))
    count = sum(
        1 for row in small_data.observed
        if all(row[i] == first[name] for i, name in enumerate(dgp.OBSERVED_ORDER))
    )
    assert pmf.prob(first) == pytest.approx(count / len(small_data), abs=1e-12)


def test_fit_bridges_residuals_on_empirical_pmf(fitted):
    pmf, bridges_hat = fitted
    assert verify_bridges(bridges_hat, pmf).all_passed
    assert bridges_hat.provenance["h22"] == "solved-from-sample"


def test_fit_bridges_scenario_provenance(big_data):
    bridges_hat = fit_bridges(big_data)[1].merged(pseudo_bridges(3, ("h22", "h21")))
    assert bridges_hat.provenance["h22"] == "pseudo(3)"
    assert bridges_hat.provenance["q11"] == "solved-from-sample"


def test_fit_bridges_sparse_data_advises(params):
    tiny = dgp.sample(params, 300, seed=5)
    advice = "too sparse to solve the bridges - increase n$"  # smoothing need not help, so it is not advised
    with pytest.raises((SingularMatrixError, ZeroProbabilityError), match=advice):
        fit_bridges(tiny)


def test_plug_in_equivalence_all_methods(small_data, solved):
    # exact identity for arbitrary bridge tables, correct or corrupted
    pmf = empirical_pmf(small_data)
    corrupted = solved.merged(pseudo_bridges(9, ("h21", "q22")))
    density_fn = {
        "POR": identify.density_por,
        "PHA": identify.density_pha,
        "PIPW": identify.density_pipw,
        "PMR": identify.density_pmr,
    }
    for method in METHODS:
        direct = v_hat(method, small_data, corrupted, REGIME).estimate
        assert direct == identify.value_from_density(density_fn[method](pmf, corrupted), pmf, REGIME)
    with pytest.raises(ValueError, match=r"^unknown method 'SRA'; expected one of \('POR', 'PHA', 'PIPW', 'PMR'\)$"):
        v_hat("SRA", small_data, corrupted, REGIME)  # a baseline has no summand


def test_pmr_alt_form_agrees_exactly(small_data, fitted, big_data):
    _, bridges_hat = fitted
    for bridges_used in (bridges_hat, bridges_hat.merged(pseudo_bridges(21))):
        a = v_hat("PMR", small_data, bridges_used, REGIME).estimate
        b = v_hat_pmr_alt(small_data, bridges_used, REGIME).estimate
        assert a == pytest.approx(b, abs=1e-12)
    a = v_hat("PMR", big_data, bridges_hat, REGIME).estimate
    b = v_hat_pmr_alt(big_data, bridges_hat, REGIME).estimate
    assert a == pytest.approx(b, abs=1e-12)


def test_constant_outcome_returns_one(big_data):
    forced = Dataset(
        cell_codes(np.column_stack([big_data.observed[:, :8], np.ones(len(big_data), dtype=np.int8)]), big_data.hidden),
        big_data.seed,
    )
    _, bridges_hat = fit_bridges(forced)
    for method in METHODS:
        assert v_hat(method, forced, bridges_hat, REGIME).estimate == pytest.approx(1.0, abs=1e-10)
    assert v_hat_pmr_alt(forced, bridges_hat, REGIME).estimate == pytest.approx(1.0, abs=1e-10)
    assert if_variance(forced, bridges_hat, REGIME) == pytest.approx(0.0, abs=1e-12)


def test_consistency_at_n35000(params, big_data, fitted, linear_class):
    _, bridges_hat = fitted
    rng = np.random.default_rng(123)
    picks = rng.choice(len(linear_class.members), size=10, replace=False)
    for idx in picks:
        regime = linear_class.members[int(idx)]
        truth = dgp.true_value(params, regime)
        for method in METHODS:
            estimate = v_hat(method, big_data, bridges_hat, regime).estimate
            assert abs(estimate - truth) <= 0.02


def test_population_if_mean_zero_at_truth(params, joint, solved, linear_class):
    for regime in linear_class.members[::97]:
        truth = dgp.true_value(params, regime)
        assert population_v("PMR", joint, solved, regime) == pytest.approx(truth, abs=1e-10)


def test_if_variance_nonnegative_and_centering(big_data, fitted):
    _, bridges_hat = fitted
    var = if_variance(big_data, bridges_hat, REGIME)
    assert var >= 0.0
    # centering at the plug-in estimate makes the IF mean vanish identically
    from proxidtr.estimators import _pmr_summand

    codes = np.ravel_multi_index(tuple(big_data.observed.T), (2,) * 9)  # each row's cell, C order over OBSERVED_ORDER
    summand = _pmr_summand(bridges_hat, REGIME)[codes]
    point = v_hat("PMR", big_data, bridges_hat, REGIME).estimate
    assert (summand - point).mean() == pytest.approx(0.0, abs=1e-12)


def test_complex_step_derivative_of_the_plug_in_value_is_the_centred_pmr_summand(big_data, fitted, linear_class):
    """The PMR summand centred at the plug-in value is the influence function
    of the plug-in value. One complex step P + ih(delta_c - P), h = 1e-20,
    per 37th cell c, solved as one stack, reads it off the imaginary part:
    the real part is the float plug-in and Im / h the centred summand at c."""
    from proxidtr.estimators import _count_mean, _pmr_summand

    pmf, bridges_hat = fitted
    h, cells = 1e-20, np.arange(0, 512, 37)
    step = JointPmf(pmf.names, pmf.mass.reshape(-1) + 1j * h * (np.eye(512)[cells] - pmf.mass.reshape(-1)))
    pieces, p_y0 = identify.observed_conditional(step)
    g = identify.density_from_pieces("PMR", pieces, solve_bridges(step)).g
    values = class_values(g, p_y0, linear_class.index)  # (cells, regimes)
    pieces, p_y0 = identify.observed_conditional(pmf)
    plug_in = class_values(identify.density_from_pieces("PMR", pieces, bridges_hat).g, p_y0, linear_class.index)
    assert np.abs(values.real - plug_in).max() <= 1e-12
    counts = _cell_counts(big_data)
    for k, regime in enumerate(linear_class.members):
        summand = _pmr_summand(bridges_hat, regime)
        centred = summand[cells] - _count_mean(counts, summand)
        assert np.abs(values[:, k].imag / h - centred).max() <= 1e-12


def test_cell_columns_are_read_only():
    from proxidtr.estimators import _CELLS

    assert list(_CELLS) == list(dgp.OBSERVED_ORDER)
    assert not any(column.flags.writeable for column in _CELLS.values())


# the last three overflow the smoothed total over the 2^11 cells: 1e306 per cell
# failed as a mass that sums to 0.0, after a numpy warning
@pytest.mark.parametrize("laplace", [-0.5, float("nan"), float("inf"), 1e306, np.float64(1e306),
                                     math.nextafter(sys.float_info.max / 2048, math.inf)])
def test_fit_options_refuse_bad_laplace(laplace):
    with pytest.raises(ValueError, match="laplace"):
        FitOptions(laplace=laplace)


def test_fit_options_accept_the_largest_laplace_with_a_finite_total(big_data):
    largest = FitOptions(laplace=sys.float_info.max / 2048).laplace
    assert np.isfinite(empirical_pmf(big_data, laplace=largest, include_hidden=True).mass).all()


def test_cross_fit_names_the_failing_fold(params):
    tiny = dgp.sample(params, 300, seed=5)
    with pytest.raises((SingularMatrixError, ZeroProbabilityError), match="off-fold fit failed for fold 0"):
        cross_fit("PMR", tiny, FitOptions(folds=5), REGIME)


def test_cross_fit_degenerate_single_fold(big_data):
    cf = cross_fit("PMR", big_data, FitOptions(folds=1), REGIME)
    _, bridges_hat = fit_bridges(big_data)
    assert cf.estimate == v_hat("PMR", big_data, bridges_hat, REGIME).estimate
    assert cf.fold_estimates is None


def test_cross_fit_five_folds(big_data):
    cf = cross_fit("PMR", big_data, FitOptions(folds=5), REGIME)
    assert cf.fold_estimates is not None and len(cf.fold_estimates) == 5
    assert cf.estimate == pytest.approx(np.mean(cf.fold_estimates), abs=1e-12)
    _, bridges_hat = fit_bridges(big_data)
    assert abs(cf.estimate - v_hat("PMR", big_data, bridges_hat, REGIME).estimate) <= 0.02


def test_off_fold_bridge_sets_differ(big_data):
    opts = FitOptions(folds=5)
    sets = [fit_counts(off_fold, opts)[1] for off_fold in fold_counts(big_data, 5)[1]]
    for i in range(4):
        assert np.abs(sets[i].h21 - sets[i + 1].h21).max() > 1e-12


def fold_assignments(data: Dataset, folds: int) -> np.ndarray:
    """Fold id of each row, read off ``estimators._fold_order``: row
    ``order[i]`` belongs to fold ``i % folds``."""
    out = np.empty(len(data), dtype=np.int64)
    out[estimators._fold_order(data, folds)] = np.arange(len(data)) % folds
    return out


def test_fold_assignment_deterministic_and_balanced(big_data):
    a = fold_assignments(big_data, 5)
    b = fold_assignments(big_data, 5)
    np.testing.assert_array_equal(a, b)
    counts = np.bincount(a)
    assert counts.max() - counts.min() <= 1


def test_fold_assignments_refuse_more_folds_than_rows(params):
    data = dgp.sample(params, 4, seed=3)
    np.testing.assert_array_equal(np.sort(fold_assignments(data, 4)), np.arange(4))  # one row per fold
    for fn in (fold_assignments, fold_counts):
        with pytest.raises(ValueError, match="5 folds need at least 5 rows, got 4"):
            fn(data, 5)


def test_estimate_order_invariance_under_row_permutation(small_data, fitted):
    _, bridges_hat = fitted
    v_orig = {method: v_hat(method, small_data, bridges_hat, REGIME).estimate for method in METHODS}
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(len(small_data))
        shuffled = Dataset(small_data.cell_code[perm], small_data.seed)
        for method in METHODS:
            assert v_hat(method, shuffled, bridges_hat, REGIME).estimate == v_orig[method]


def test_oracle_value_exact_at_true_law(params, joint):
    for regime in (REGIME, Regime((1, 1), (1,) * 8)):
        assert oracle_value(joint, regime).estimate == pytest.approx(
            dgp.true_value(params, regime), abs=1e-12
        )


def test_oracle_value_from_sampled_hidden_columns(params, big_data):
    est = oracle_value(empirical_pmf(big_data, include_hidden=True), REGIME).estimate
    assert abs(est - dgp.true_value(params, REGIME)) <= 0.02


def test_baselines_score_a_law_only():
    """Each baseline has one path: a law in, no smoothing of its own."""
    for baseline in (sra_value, oracle_value):
        assert list(inspect.signature(baseline).parameters) == ["pmf", "regime"]


def test_sra_value_is_confounded(params, big_data, joint):
    # population-level SRA must not equal the truth under this law
    truth = dgp.true_value(params, REGIME)
    population_sra = sra_value(joint, REGIME).estimate
    assert abs(population_sra - truth) > 0.01
    sampled = sra_value(empirical_pmf(big_data), REGIME).estimate
    assert abs(sampled - population_sra) < 0.02


def test_sra_density_normalizes(joint):
    d = sra_from_conditional(joint)
    np.testing.assert_allclose(d.slice_sums(), 1.0, atol=1e-12)


def test_sample_scale_multiple_robustness(params, big_data, fitted, linear_class):
    # with only one bridge pair correct, PMR stays near the truth for every
    # probe regime while the fully corrupted single method visibly errs
    _, bridges_hat = fitted
    rng = np.random.default_rng(7)
    picks = [linear_class.members[int(i)] for i in
             rng.choice(len(linear_class.members), size=10, replace=False)]
    scenarios = {
        "m0": (("q11", "q22"), "PIPW"),
        "m1": (("h21", "q22"), "POR"),
        "m2": (("h22", "h21"), "PHA"),
    }
    for pseudo_of, corrupted_method in scenarios.values():
        merged = bridges_hat.merged(pseudo_bridges(20, pseudo_of))
        worst_single = 0.0
        for regime in picks:
            truth = dgp.true_value(params, regime)
            assert abs(v_hat("PMR", big_data, merged, regime).estimate - truth) <= 0.03
            single = v_hat(corrupted_method, big_data, merged, regime).estimate
            worst_single = max(worst_single, abs(single - truth))
        assert worst_single > 0.05


def test_monotone_consistency_in_n(params):
    # estimator-level convergence trend; Laplace smoothing keeps the small-n
    # fits solvable, failures at n=2000 are skipped and counted
    errors = {}
    for n in (2000, 10000, 35000):
        devs = []
        for rep in range(20):
            data = dgp.sample(params, n, seed=909 + rep)
            try:
                _, bridges_hat = fit_bridges(data, FitOptions(laplace=0.5))
            except (SingularMatrixError, ZeroProbabilityError):
                continue
            truth = dgp.true_value(params, REGIME)
            devs.append(abs(v_hat("PMR", data, bridges_hat, REGIME).estimate - truth))
        assert devs, f"no successful fits at n={n}"
        errors[n] = float(np.mean(devs))
    assert errors[10000] <= errors[2000] + 0.005
    assert errors[35000] <= errors[10000] + 0.005


def test_value_estimate_json():
    import json

    from proxidtr.estimators import ValueEstimate

    payload = json.loads(ValueEstimate("PMR", 0.4, 0.01, (0.39, 0.41)).to_json())
    assert payload == {"method": "PMR", "estimate": 0.4, "variance": 0.01, "folds": [0.39, 0.41]}


def _bincount_reference(data, rows=None, include_hidden=False):
    """Cell counts straight from the columns: a row's cell code in C order."""
    names = dgp.CANONICAL_ORDER if include_hidden else dgp.OBSERVED_ORDER
    cols = np.column_stack([data.column(name) for name in names]).astype(np.int64)
    if rows is not None:
        cols = cols[rows]
    weights = 1 << np.arange(len(names) - 1, -1, -1)
    return np.bincount(cols @ weights, minlength=2 ** len(names))


def test_cell_counts_equal_bincount_reference(big_data):
    assert np.array_equal(_cell_counts(big_data), _bincount_reference(big_data))
    assert np.array_equal(_cell_counts(big_data, include_hidden=True),
                          _bincount_reference(big_data, include_hidden=True))
    no_rows = Dataset(big_data.cell_code[:0], big_data.seed)
    assert np.array_equal(_cell_counts(no_rows), np.zeros(2 ** 9, dtype=np.int64))
    assignments = fold_assignments(big_data, 5)
    for fold in range(5):
        rows = assignments == fold
        fold_rows, other_rows = (Dataset(big_data.cell_code[mask], big_data.seed) for mask in (rows, ~rows))
        assert np.array_equal(_cell_counts(fold_rows), _bincount_reference(big_data, rows))
        assert np.array_equal(_cell_counts(other_rows, include_hidden=True),
                              _bincount_reference(big_data, ~rows, include_hidden=True))


def test_oracle_without_hidden_columns_is_refused(big_data, linear_class):
    observed_only = Dataset.from_csv(big_data.to_csv())
    with pytest.raises(ValueError, match="u0,u1"):
        oracle_value(empirical_pmf(observed_only, include_hidden=True), linear_class.members[0])
    # the observed columns still serve every other estimator
    assert np.array_equal(_cell_counts(observed_only), _cell_counts(big_data))


def test_sra_from_conditional_equals_test_side_g_formula(big_data):
    """g(a1,a2,y2,y1,y0) = P(y2|y0,a1,y1,a2) P(y1|y0,a1), from ``tables.conditional``."""
    pmf = empirical_pmf(big_data)
    f_y2 = conditional(pmf, ("Y2",), ("Y0", "A1", "Y1", "A2"))  # [y0, a1, y1, a2, y2]
    f_y1 = conditional(pmf, ("Y1",), ("Y0", "A1"))  # [y0, a1, y1]
    expected = np.einsum("aebfc,aeb->efcba", f_y2, f_y1)
    np.testing.assert_allclose(sra_from_conditional(pmf).g, expected, rtol=0, atol=1e-12)
    assert sra_value(pmf, REGIME).estimate == pytest.approx(
        identify.value_from_density(expected, pmf, REGIME), abs=1e-12)


def test_stacked_baselines_equal_each_law_bit_for_bit(params, joint):
    """SRA and the Oracle on a stack of laws (the true law and three
    smoothed empirical laws, stacked 2 x 2) give each law's own density."""
    laws = [joint] + [empirical_pmf(dgp.sample(params, 3000, seed), laplace=0.5, include_hidden=True)
                      for seed in (1, 2, 3)]
    stack = JointPmf(joint.names, np.stack([law.mass for law in laws]).reshape((2, 2) + joint.mass.shape))
    sra = sra_from_conditional(stack).g.reshape(4, *(2,) * 5)
    oracle = dgp.oracle_density_from_joint(stack).g.reshape(4, *(2,) * 5)
    for k, law in enumerate(laws):
        assert np.array_equal(sra[k], sra_from_conditional(law).g)
        assert np.array_equal(oracle[k], dgp.oracle_density_from_joint(law).g)


def test_off_fold_fit_equals_fit_on_the_other_folds_rows(big_data):
    opts = FitOptions(folds=5)
    assignments = fold_assignments(big_data, 5)
    for fold, off_fold in enumerate(fold_counts(big_data, 5)[1]):
        pmf, b = fit_counts(off_fold, opts)
        pmf_rows, b_rows = fit_bridges(Dataset(big_data.cell_code[assignments != fold], big_data.seed), opts)
        assert np.array_equal(pmf.mass, pmf_rows.mass)
        assert all(np.array_equal(getattr(b, n), getattr(b_rows, n)) for n in ("h22", "h21", "q11", "q22"))


def test_fold_counts_subtract_each_fold_from_the_total(big_data):
    assignments = fold_assignments(big_data, 5)
    pairs = list(zip(*fold_counts(big_data, 5)))
    assert len(pairs) == 5
    for fold, (own, off_fold) in enumerate(pairs):
        rows = assignments == fold
        assert np.array_equal(own, _bincount_reference(big_data, rows))
        assert np.array_equal(off_fold, _bincount_reference(big_data, ~rows))
        pmf, _ = fit_counts(off_fold, FitOptions(folds=5, laplace=0.5))
        other_rows = Dataset(big_data.cell_code[~rows], big_data.seed)
        assert np.array_equal(pmf.mass, empirical_pmf(other_rows, laplace=0.5).mass)


def test_cross_fit_equals_masked_off_fold_fits(big_data):
    """Each fold value is the fold's rows scored with bridges solved on a
    masked count of the other folds' rows, exactly."""
    opts = FitOptions(folds=5)
    assignments = fold_assignments(big_data, 5)
    expected = []
    for fold in range(5):
        rows = assignments == fold
        fold_rows, other_rows = (Dataset(big_data.cell_code[mask], big_data.seed) for mask in (rows, ~rows))
        b = solve_bridges(empirical_pmf(other_rows), provenance="solved-from-sample")
        expected.append(v_hat("PMR", fold_rows, b, REGIME).estimate)
    assert cross_fit("PMR", big_data, opts, REGIME).fold_estimates == tuple(expected)


def test_cross_fit_fold_values_are_the_experiment_fold_values(big_data, linear_class):
    """Each fold value of ``cross_fit`` is ``class_values`` of that fold's
    density as the experiment builds it (``harness._bridge_fits`` at
    laplace 0, one repetition), bit for bit, so ``estimate --folds K`` and
    ``experiment`` read the same fold values."""
    own = fold_counts(big_data, 5)[0]
    pieces, p_y0, solved = harness._bridge_fits(_cell_counts(big_data)[None], own[None],
                                                harness.ExperimentConfig(folds=5))
    for method in METHODS:
        values = class_values(identify.density_from_pieces(method, pieces, solved).g, p_y0, linear_class.index)[0]
        for k in range(0, len(linear_class.index), 38):
            fold_values = cross_fit(method, big_data, FitOptions(folds=5), linear_class.members[k]).fold_estimates
            assert fold_values == tuple(values[:, k].tolist()), (method, k)


@pytest.mark.parametrize("folds", [2, 3, 5])
@pytest.mark.parametrize("laplace", [0.0, 0.5])
def test_stacked_fold_fits_equal_fold_by_fold_fits(big_data, folds, laplace):
    """Every fold of the one-pass fit equals a fit of that fold's off-fold
    counts alone, bit for bit; the counts come from a test-side bincount."""
    opts = FitOptions(folds=folds, laplace=laplace)
    own, off_fold = fold_counts(big_data, folds)
    b = fit_off_fold(off_fold, opts)
    assignments = fold_assignments(big_data, folds)
    assert own.shape == (folds, 2 ** 9)
    for fold in range(folds):
        rows = assignments == fold
        assert np.array_equal(own[fold], _bincount_reference(big_data, rows))
        _, expected = fit_counts(_bincount_reference(big_data, ~rows), opts)
        for name in ("h22", "h21", "h11", "q11", "q22"):
            assert np.array_equal(getattr(b, name)[fold], getattr(expected, name)), (fold, name)
        assert b.provenance == expected.provenance


def _fold_by_fold_failure(data, opts):
    """(type, message, kind) of the first off-fold fit that fails, in fold
    order; the kind names neither the fold nor the advice."""
    assignments = fold_assignments(data, opts.folds)
    for fold in range(opts.folds):
        try:
            fit_counts(_bincount_reference(data, assignments != fold), opts)
        except (SingularMatrixError, ZeroProbabilityError) as err:
            return type(err), f"off-fold fit failed for fold {fold}: {err}", err.kind
    return None


# (n, seed, folds): fold 0 fails; fold 1 is singular while fold 3 has a zero
# conditioning cell (which a stacked solve meets first); later folds fail
@pytest.mark.parametrize("n, seed, folds", [(300, 5, 5), (4000, 29, 5), (6000, 9, 3), (4000, 14, 5)])
def test_stacked_fold_fit_failure_names_the_first_failing_fold(params, n, seed, folds):
    data = dgp.sample(params, n, seed=seed)
    opts = FitOptions(folds=folds)
    expected = _fold_by_fold_failure(data, opts)
    assert expected is not None
    with pytest.raises((SingularMatrixError, ZeroProbabilityError)) as info:
        fit_off_fold(fold_counts(data, folds)[1], opts)
    assert (type(info.value), str(info.value), info.value.kind) == expected
    assert "fold" not in info.value.kind and "increase n" not in info.value.kind


@pytest.mark.parametrize("folds", [2.5, 2.0, True, False, "2", None])
def test_fit_options_refuse_a_folds_that_is_not_an_integer(folds):
    with pytest.raises(ValueError, match=r"^folds must be an integer, got "):
        FitOptions(folds=folds)


@pytest.mark.parametrize("laplace", ["0.5", True, False, None, 1j])
def test_fit_options_refuse_a_laplace_that_is_not_a_real_number(laplace):
    with pytest.raises(ValueError, match=r"^laplace smoothing must be a real number, got "):
        FitOptions(laplace=laplace)


@pytest.mark.parametrize("folds, laplace", [(np.int64(3), np.float64(0.5)), (1, 0), (2, 1)])
def test_fit_options_accept_numpy_and_integer_values(folds, laplace):
    assert FitOptions(folds=folds, laplace=laplace) == FitOptions(folds=int(folds), laplace=float(laplace))
