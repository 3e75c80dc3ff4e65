"""Identification strategies against the hidden-confounder oracle.

Claims covered:
    - POR / PHA / PIPW / PMR all equal the oracle density at the exact law
    - the hybrid rung degenerates to POR (k=0), PHA (k=1) and PIPW (k=2) bit for bit
    - PMR stays exact under every single-correct bridge scenario while the
      single-strategy density whose bridges are corrupted visibly deviates
    - identified values agree across methods and match the true values
    - Q tables: stage-2 conditional means match forced-intervention brute
      force, the backward recursion is self-consistent, and the stage-1
      weight is a2-invariant exactly where the theory applies
"""

from functools import partial

import numpy as np
import pytest
from conftest import regime_value, value_maximize

from proxidtr import dgp, identify
from proxidtr.bridges import MissingBridgeError, pseudo_bridges
from proxidtr.estimators import FitOptions, count_pmf, fit_counts, fit_off_fold, fold_counts
from proxidtr.identify import (
    IdentifiedDensity,
    density_pha,
    density_pipw,
    density_pmr,
    density_por,
    observed_conditional,
    pipw_marginal_stage1,
    q_functions,
    value_from_density,
)
from proxidtr.policy import Regime, class_values, q_learning_regime
from proxidtr.tables import ZeroProbabilityError, marginalize

DENSITIES = (density_por, density_pha, density_pipw, density_pmr)

SCENARIOS = {
    "m0": (("q11", "q22"), (density_pha, density_pipw)),
    "m1": (("h21", "q22"), (density_por, density_pipw)),
    "m2": (("h22", "h21"), (density_por, density_pha)),
}


def test_all_methods_match_oracle_at_truth(joint, solved, oracle):
    for fn in DENSITIES:
        d = fn(joint, solved)
        assert np.abs(d.g - oracle.g).max() <= 1e-10
        np.testing.assert_allclose(d.slice_sums(), 1.0, atol=1e-9)


def test_identified_densities_work_from_observed_margin(joint, solved, oracle):
    observed_only = marginalize(joint, dgp.OBSERVED_ORDER)
    d = density_pmr(observed_only, solved)
    assert np.abs(d.g - oracle.g).max() <= 1e-10


def test_hybrid_degenerations_share_code_path(joint, solved):
    from proxidtr.identify import _hybrid_density

    pieces, _ = observed_conditional(joint)
    assert np.array_equal(_hybrid_density(pieces, solved, 0), density_por(joint, solved).g)
    assert np.array_equal(_hybrid_density(pieces, solved, 1), density_pha(joint, solved).g)
    assert np.array_equal(_hybrid_density(pieces, solved, 2), density_pipw(joint, solved).g)
    for k in (3, -1):  # -1 would read PMR off the end of METHODS
        with pytest.raises(ValueError, match=f"got {k}$"):
            _hybrid_density(pieces, solved, k)


def test_pipw_marginal_form(joint, solved, oracle):
    np.testing.assert_allclose(pipw_marginal_stage1(joint, solved), oracle.g1, atol=1e-10)


def test_single_method_sensitivity_to_pseudo_bridges(joint, solved, oracle):
    por_bad = density_por(joint, solved.merged(pseudo_bridges(31, ("h21",))))
    assert np.abs(por_bad.g - oracle.g).max() > 1e-3
    pipw_bad = density_pipw(joint, solved.merged(pseudo_bridges(31, ("q22",))))
    assert np.abs(pipw_bad.g - oracle.g).max() > 1e-3
    pha_bad = density_pha(joint, solved.merged(pseudo_bridges(31, ("q11",))))
    assert np.abs(pha_bad.g - oracle.g).max() > 1e-3


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_pmr_multiple_robustness_over_seeds(scenario, joint, solved, oracle):
    pseudo_of, corrupted = SCENARIOS[scenario]
    deviation_hits = 0
    for seed in range(20):
        merged = solved.merged(pseudo_bridges(seed, pseudo_of))
        pmr = density_pmr(joint, merged)
        assert np.abs(pmr.g - oracle.g).max() <= 1e-9, f"seed {seed}"
        if all(np.abs(fn(joint, merged).g - oracle.g).max() > 1e-4 for fn in corrupted):
            deviation_hits += 1
    assert deviation_hits >= 19


def test_values_agree_across_methods_for_every_regime(joint, solved, linear_class, true_values):
    densities = [fn(joint, solved) for fn in DENSITIES]
    for regime in linear_class.members[::13]:
        values = [value_from_density(d, joint, regime) for d in densities]
        assert max(values) - min(values) <= 1e-10
        assert values[0] == pytest.approx(true_values[(regime.d1, regime.d2)], abs=1e-10)


def test_oracle_density_value_equals_true_value(params, joint, oracle, boolean_class):
    wrapped = IdentifiedDensity(oracle.g, "ORACLE")
    for regime in boolean_class.members[::101]:
        assert value_from_density(wrapped, joint, regime) == pytest.approx(
            dgp.true_value(params, regime), abs=1e-12
        )


def test_value_is_affine_in_the_density(joint, solved, oracle):
    rng = np.random.default_rng(0)
    noise = rng.random((2,) * 5)
    regime = Regime((1, 0), (0, 0, 1, 1, 0, 1, 0, 1))
    lam = 0.61
    mixed = IdentifiedDensity(lam * oracle.g + (1 - lam) * noise, "PMR")
    v = value_from_density(mixed, joint, regime)
    v1 = value_from_density(IdentifiedDensity(oracle.g, "ORACLE"), joint, regime)
    v2 = value_from_density(IdentifiedDensity(noise, "PMR"), joint, regime)
    assert v == pytest.approx(lam * v1 + (1 - lam) * v2, abs=1e-12)


def test_q2_matches_forced_intervention_conditional_mean(params, oracle):
    q2, _ = q_functions(IdentifiedDensity(oracle.g, "ORACLE"))
    for a1, a2 in np.ndindex(2, 2):
        ij = dgp.interventional_joint(params, a1, a2)
        m = marginalize(ij, ("Y0", "Y1", "Y2")).mass
        for y0, y1 in np.ndindex(2, 2):
            expected = m[y0, y1, 1] / m[y0, y1, :].sum()
            assert q2[y0, y1, a1, a2] == pytest.approx(expected, abs=1e-12)


def test_q1_backward_recursion_consistency(oracle):
    q2, q1 = q_functions(IdentifiedDensity(oracle.g, "ORACLE"))
    for y0, a1 in np.ndindex(2, 2):
        direct = sum(
            oracle.g1[a1, y1, y0] * max(q2[y0, y1, a1, 0], q2[y0, y1, a1, 1])
            for y1 in (0, 1)
        )
        assert q1[y0, a1] == pytest.approx(direct, abs=1e-10)


def test_q1_weights_are_a2_invariant_where_theory_applies(joint, solved, oracle):
    # the Eq-6 convention (a2 = 0) is immaterial for oracle and PMR densities
    for g in (oracle.g, density_pmr(joint, solved).g):
        den2 = g.sum(axis=2)  # [a1, a2, y1, y0]
        np.testing.assert_allclose(den2[:, 0], den2[:, 1], atol=1e-10)


def test_pmr_q_tables_match_oracle_under_single_correct(joint, solved, oracle):
    q2_star, q1_star = q_functions(IdentifiedDensity(oracle.g, "ORACLE"))
    for pseudo_of, _ in SCENARIOS.values():
        merged = solved.merged(pseudo_bridges(77, pseudo_of))
        q2, q1 = q_functions(density_pmr(joint, merged))
        np.testing.assert_allclose(q2, q2_star, atol=1e-9)
        np.testing.assert_allclose(q1, q1_star, atol=1e-9)


def test_pmr_q_learning_recovers_oracle_regime_at_truth(joint, solved, oracle):
    q2s, q1s = q_functions(IdentifiedDensity(oracle.g, "ORACLE"))
    reference = q_learning_regime(q2s, q1s)
    merged = solved.merged(pseudo_bridges(13, ("h21", "q22")))  # m1-correct
    q2, q1 = q_functions(density_pmr(joint, merged))
    assert q_learning_regime(q2, q1) == reference


def test_oracle_q_learning_attains_boolean_optimum(oracle, boolean_class, true_values):
    q2, q1 = q_functions(IdentifiedDensity(oracle.g, "ORACLE"))
    greedy = q_learning_regime(q2, q1)
    optimum = max(true_values.values())
    assert true_values[(greedy.d1, greedy.d2)] == pytest.approx(optimum, abs=1e-12)


def test_q_functions_zero_denominator_error():
    g = np.zeros((2,) * 5)
    g[:, :, :, :, :] = 0.125
    g[0, 0, :, 1, 0] = 0.0  # kill f(Y1(0)=1 | y0=0)
    with pytest.raises(ZeroProbabilityError, match="y0=0, y1=1, a1=0"):
        q_functions(IdentifiedDensity(g, "PMR"))


def test_q_functions_nan_denominator_is_not_flagged():
    g = np.full((2,) * 5, 0.125)
    g[0, 0, 0, 0, 0] = np.nan  # the first denominator cell is NaN, not zero
    q2, q1 = q_functions(g)
    assert np.isnan(q2[0, 0, 0, 0]) and np.isnan(q1[0, 0])
    g[1, 1, :, 1, 1] = 0.0
    with pytest.raises(ZeroProbabilityError) as err:
        q_functions(g)
    assert str(err.value) == "zero stage-2 denominator at (y0=1, y1=1, a1=1, a2=1); f(Y1(1)=1|Y0=1) is degenerate"


def test_q_functions_names_first_zero_denominator_in_order():
    g = np.full((2,) * 5, 0.125)
    g[1, 0, :, 0, 0] = 0.0  # (a1, a2, y1, y0) = (1, 0, 0, 0): first in y0-major order
    g[0, 1, :, 1, 1] = 0.0  # (0, 1, 1, 1): first in (a1, a2, y1, y0) order
    with pytest.raises(ZeroProbabilityError) as err:
        q_functions(g)
    assert str(err.value) == (
        "zero stage-2 denominator at (y0=1, y1=1, a1=0, a2=1); f(Y1(0)=1|Y0=1) is degenerate"
    )


def test_stacked_q_functions_equal_each_law_and_fail_with_its_text(joint, solved, oracle):
    """A (D, ...) stack of densities, one with a NaN cell, gives each law's
    own Q tables bit for bit; a zero denominator in one law of a stack fails
    with the text that law fails with alone."""
    rng = np.random.default_rng(3)
    nan_cell = rng.random((2,) * 5)
    nan_cell[1, 0, 1, 0, 1] = np.nan
    merged = solved.merged(pseudo_bridges(13, ("h21", "q22")))
    stack = np.stack([oracle.g, density_pmr(joint, merged).g, density_por(joint, merged).g,
                      rng.random((2,) * 5), nan_cell])
    q2, q1 = q_functions(stack)
    assert q2.shape == (5, 2, 2, 2, 2) and q1.shape == (5, 2, 2)
    assert np.isnan(q2[4]).any() and np.isnan(q1[4]).any()
    for law, q2_law, q1_law in zip(stack, q2, q1):
        alone = q_functions(law)
        assert np.array_equal(q2_law, alone[0], equal_nan=True)
        assert np.array_equal(q1_law, alone[1], equal_nan=True)
    q2_grid, q1_grid = q_functions(stack[:4].reshape(2, 2, *(2,) * 5))
    assert np.array_equal(q2_grid.reshape(4, 2, 2, 2, 2), q2[:4]) and np.array_equal(q1_grid.reshape(4, 2, 2), q1[:4])

    stack[3, 0, 1, :, 0, 1] = 0.0  # law 3: (a1, a2, y1, y0) = (0, 1, 0, 1)
    stack[2, 1, 1, :, 1, 1] = 0.0  # law 2 fails first in C order: (1, 1, 1, 1)
    with pytest.raises(ZeroProbabilityError) as alone:
        q_functions(stack[2])
    assert str(alone.value) == "zero stage-2 denominator at (y0=1, y1=1, a1=1, a2=1); f(Y1(1)=1|Y0=1) is degenerate"
    for failing in (stack, stack[2:3], stack[2:]):
        with pytest.raises(ZeroProbabilityError) as err:
            q_functions(failing)
        assert str(err.value) == str(alone.value)
    with pytest.raises(ZeroProbabilityError) as err:
        q_functions(stack[3:4])
    assert str(err.value) == "zero stage-2 denominator at (y0=1, y1=0, a1=0, a2=1); f(Y1(0)=0|Y0=1) is degenerate"


def test_missing_bridge_component_is_named(joint):
    with pytest.raises(MissingBridgeError, match="h21"):
        density_por(joint, pseudo_bridges(1, ("h22",)))
    with pytest.raises(MissingBridgeError, match="q22"):
        density_pmr(joint, pseudo_bridges(1, ("h22", "h21", "q11")))
    with pytest.raises(ValueError, match=r"^unknown method 'sra'; expected one of \('POR', 'PHA', 'PIPW', 'PMR'\)$"):
        identify.density_from_pieces("sra", observed_conditional(joint)[0], pseudo_bridges(1))


def test_identified_density_json(joint, solved):
    d = density_pipw(joint, solved)
    import json

    payload = json.loads(d.to_json())
    assert payload["method"] == "PIPW"
    assert payload["g"]["0,0,0,0,0"] == pytest.approx(d.g[0, 0, 0, 0, 0])


def test_stacked_identified_density_to_json_is_refused(big_data):
    _, off_fold = fold_counts(big_data, 2)
    density = density_pmr(count_pmf(off_fold), fit_off_fold(off_fold, FitOptions(folds=2)))
    assert density.g.shape == (2,) + (2,) * 5
    with pytest.raises(ValueError, match=r"^to_json reads a single density, not a stack of densities of shape \(2,\)$"):
        density.to_json()


def test_value_and_q_functions_read_a_complex_density(joint, oracle, boolean_class):
    """The Oracle density cast to complex, raw or wrapped, passes through
    without a ComplexWarning (which the suite turns into an error); the real
    parts are the float results, and one real law still gives a Python float."""
    g = oracle.g.astype(complex)
    for density in (g, IdentifiedDensity(g, "ORACLE")):
        for regime in boolean_class.members[::101]:
            value, real = value_from_density(density, joint, regime), value_from_density(oracle, joint, regime)
            assert type(real) is float and np.iscomplexobj(value) and abs(value.real - real) <= 1e-12
        for complex_q, real_q in zip(q_functions(density), q_functions(oracle)):
            assert np.iscomplexobj(complex_q) and np.abs(complex_q.real - real_q).max() <= 1e-12


def test_value_from_density_of_a_fold_stack_gives_one_value_per_fold(big_data):
    regime = Regime((1, 0), (0, 1, 1, 0, 1, 0, 0, 1))
    opts = FitOptions(folds=3)
    _, off_fold = fold_counts(big_data, opts.folds)
    laws = count_pmf(off_fold)
    values = value_from_density(density_pmr(laws, fit_off_fold(off_fold, opts)), laws, regime)
    assert values.shape == (3,) and values.dtype == np.float64
    for fold, counts in enumerate(off_fold):
        law, b = fit_counts(counts, opts)
        assert values[fold] == pytest.approx(value_from_density(density_pmr(law, b), law, regime), abs=1e-12)


@pytest.mark.parametrize("optimizer, tag", [("value-max", "linear"), ("q-learning", "all-boolean")])
def test_pick_of_one_density_is_that_of_a_stack_of_one(joint, oracle, p_y0, linear_class, params, optimizer, tag):
    """One density gives an int and a float, those of a stack of one; at the
    true law the pick attains the optimum of the class the optimizer
    searches, and its value is the regime's value there."""
    chosen, value = identify.pick(oracle, p_y0, linear_class.index, optimizer)
    stacked = identify.pick(oracle.g[None], p_y0[None], linear_class.index, optimizer)
    assert type(chosen) is int and type(value) is float
    assert (chosen, value) == (stacked[0][0], stacked[1][0])
    assert dgp.true_values(params)[chosen] == pytest.approx(dgp.optimal_value(params, tag)[0], abs=1e-12)
    assert value == value_from_density(oracle, joint, Regime.from_index(chosen))


def test_q_learning_picks_ignore_the_class(oracle, p_y0, boolean_class):
    assert (identify.pick(oracle, p_y0, np.array([5]), "q-learning")
            == identify.pick(oracle, p_y0, boolean_class.index, "q-learning"))


def test_pick_keeps_a_nan_in_first_place_and_never_picks_one_elsewhere(p_y0, linear_class):
    """A NaN value of the first member picks it, as a strict ``>`` loop keeps
    it; a NaN value of a later member never wins."""
    g = np.random.default_rng(7).random((2,) * 5)
    for cell, first in (((0, 0, 1, 0, 0), True), ((1, 1, 1, 1, 1), False)):  # read by member 0, by later ones
        planted = g.copy()
        planted[cell] = np.nan
        values = class_values(planted, p_y0, linear_class.index)
        assert np.isnan(values[0]) == first and np.isnan(values).sum() > 1
        d_hat, estimated = value_maximize(partial(regime_value, planted, p_y0), linear_class)
        chosen, value = identify.pick(planted, p_y0, linear_class.index, "value-max")
        assert chosen == d_hat.index and np.array_equal(value, estimated, equal_nan=True)
        assert (chosen == linear_class.index[0]) == first and np.isnan(value) == first


def test_pick_refuses_an_unknown_optimizer_and_a_deeper_stack(oracle, p_y0, linear_class):
    with pytest.raises(ValueError, match="unknown optimizer 'gradient'"):
        identify.pick(oracle, p_y0, linear_class.index, "gradient")
    with pytest.raises(ValueError, match="one density or a 1-D stack"):
        identify.pick(oracle.g[None, None], p_y0[None, None], linear_class.index, "value-max")
