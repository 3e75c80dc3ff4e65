"""Bridge solving: plug-back residuals, degeneracies, pseudo corruption.

Two oracles anchor this module. A perfect-proxy law (Z and W are exact
copies of the hidden confounders) collapses every closed form to a latent
conditional that can be read straight off the table. On the realistic law,
the hidden columns give an independent check of q22 through the latent
reciprocal-propensity relation.
"""

import json

import numpy as np
import pytest

from proxidtr import dgp
from proxidtr.bridges import (
    RESIDUAL_TOL,
    BridgeSet,
    MissingBridgeError,
    ResidualReport,
    _reciprocal,
    bridge_collapse_check,
    pseudo_bridges,
    solve_bridges,
    verify_bridges,
)
from proxidtr.dgp import CANONICAL_ORDER, DgpParams, LogisticModel
from proxidtr.estimators import FitOptions, fit_off_fold, fold_counts
from proxidtr.tables import JointPmf, SingularMatrixError, ZeroProbabilityError, conditional


@pytest.fixture(scope="module")
def perfect_proxy_pmf(params):
    """Law where Z1 = W1 = U0 and Z2 = W2 = U1 hold exactly."""
    values = {name: axes for name, axes in zip(CANONICAL_ORDER, np.indices((2,) * 11))}
    mass = np.ones((2,) * 11)
    for model in params.models:
        if model.target in ("Z1", "W1", "Z2", "W2"):
            continue
        p1 = model.prob1(values)
        mass = mass * np.where(values[model.target] == 1, p1, 1.0 - p1)
    mass = mass * (values["Z1"] == values["U0"]) * (values["W1"] == values["U0"])
    mass = mass * (values["Z2"] == values["U1"]) * (values["W2"] == values["U1"])
    return JointPmf(CANONICAL_ORDER, mass)


def test_solved_bridges_satisfy_equations_at_truth(solved, joint):
    report = verify_bridges(solved, joint)
    for family in ("q11", "q22", "h22", "h21"):
        assert getattr(report, family) <= 1e-10
    assert report.all_passed


def test_q11_perfect_proxy_degeneracy(perfect_proxy_pmf):
    q = solve_bridges(perfect_proxy_pmf)
    pa1 = conditional(perfect_proxy_pmf, ("A1",), ("Y0", "U0"))  # [y0, u0, a1]
    for y0 in (0, 1):
        for a1 in (0, 1):
            for z1 in (0, 1):
                assert q.q11[y0, a1, z1] == pytest.approx(1.0 / pa1[y0, z1, a1], abs=1e-10)


def test_h22_perfect_proxy_degeneracy(perfect_proxy_pmf):
    h = solve_bridges(perfect_proxy_pmf)
    py2 = conditional(perfect_proxy_pmf, ("Y2",), ("Y0", "Y1", "A1", "A2", "U0", "U1"))
    for y0, y1, a1, a2 in np.ndindex(2, 2, 2, 2):
        for y2 in (0, 1):
            for u0, u1 in np.ndindex(2, 2):
                assert h.h22[y0, y1, y2, u0, u1, a1, a2] == pytest.approx(
                    py2[y0, y1, a1, a2, u0, u1, y2], abs=1e-10
                )


def test_q22_matches_latent_reciprocal_propensity_chain(solved, joint):
    # with the hidden confounders visible, the q chain must reproduce
    # sum_z1 q11 f(z1|a1,u,y) / f(a2|u,a1,y) cell by cell
    fz2_u = conditional(joint, ("Z1", "Z2"), ("Y0", "Y1", "A1", "A2", "U0", "U1"))
    fz1_u = conditional(joint, ("Z1",), ("Y0", "Y1", "A1", "U0", "U1"))
    fa2_u = conditional(joint, ("A2",), ("Y0", "Y1", "A1", "U0", "U1"))
    for y0, y1, a1, a2 in np.ndindex(2, 2, 2, 2):
        lhs = fz2_u[y0, y1, a1, a2].reshape(4, 4) @ solved.q22[y0, y1, a1, a2].reshape(4)
        rhs = (fz1_u[y0, y1, a1].reshape(4, 2) @ solved.q11[y0, a1, :]) / fa2_u[y0, y1, a1, :, :, a2].reshape(4)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_uninformative_proxy_names_singular_cell(joint):
    # Z1 replaced by an independent fair coin: every proxy matrix over Z1
    # has equal columns, and the first stacked block is reported
    axis = joint.names.index("Z1")
    coin = np.repeat(joint.mass.sum(axis=axis, keepdims=True) / 2, 2, axis=axis)
    with pytest.raises(SingularMatrixError, match=r"P\(W1,W2\|Z1,Z2\) at \(Y0=0, Y1=0, A1=0, A2=0\)"):
        solve_bridges(JointPmf(joint.names, coin))


def test_q11_positive_at_truth(solved):
    assert np.all(solved.q11 > 0)


def test_h22_sums_to_one_over_y2_at_truth(solved):
    np.testing.assert_allclose(solved.h22.sum(axis=2), 1.0, atol=1e-8)


def test_solved_on_source_pass_but_fail_elsewhere(params, joint, solved):
    other_models = tuple(
        LogisticModel(m.target, m.intercept + 0.3, m.terms) if m.target == "Y2" else m
        for m in params.models
    )
    other = dgp.true_joint(DgpParams(other_models))
    assert verify_bridges(solved, joint).all_passed
    assert not verify_bridges(solved, other).all_passed


def test_uniqueness_and_storage_order_invariance(joint, solved):
    again = solve_bridges(joint)
    np.testing.assert_allclose(again.h21, solved.h21, atol=1e-12)
    np.testing.assert_allclose(again.q22, solved.q22, atol=1e-12)

    reversed_names = tuple(reversed(joint.names))
    axes = [joint.names.index(n) for n in reversed_names]
    shuffled = JointPmf(reversed_names, np.transpose(joint.mass, axes))
    from_shuffled = solve_bridges(shuffled)
    for name in ("h22", "h21", "h11", "q11", "q22"):
        np.testing.assert_allclose(
            getattr(from_shuffled, name), getattr(solved, name), atol=1e-12
        )


def test_pseudo_bridges_deterministic_in_seed():
    a = pseudo_bridges(123)
    b = pseudo_bridges(123)
    c = pseudo_bridges(124)
    np.testing.assert_array_equal(a.h22, b.h22)
    np.testing.assert_array_equal(a.q22, b.q22)
    assert not np.array_equal(a.h22, c.h22)
    # component streams are independent of the requested subset
    only_h22 = pseudo_bridges(123, ("h22",))
    np.testing.assert_array_equal(only_h22.h22, a.h22)


def test_pseudo_shapes_and_ranges():
    ps = pseudo_bridges(5)
    np.testing.assert_allclose(ps.h22.sum(axis=2), 1.0, atol=1e-12)
    np.testing.assert_allclose(ps.h21.sum(axis=(1, 2)), 1.0, atol=1e-12)
    assert ps.q11.min() >= 0.5 and ps.q11.max() <= 4.0
    assert ps.q22.min() >= 0.5 and ps.q22.max() <= 4.0
    assert ps.h11 is None
    assert ps.provenance["q11"] == "pseudo(5)"


def test_pseudo_unknown_component_rejected():
    with pytest.raises(ValueError):
        pseudo_bridges(1, ("h33",))


def test_pseudo_q11_fails_equation_across_seeds(joint, solved):
    failures = 0
    for seed in range(100):
        merged = solved.merged(pseudo_bridges(seed, ("q11",)))
        if verify_bridges(merged, joint).q11 > 1e-3:
            failures += 1
    assert failures >= 99


def test_pseudo_detectable_in_some_family(joint, solved):
    merged = solved.merged(pseudo_bridges(17))
    report = verify_bridges(merged, joint)
    assert max(report.q11, report.q22, report.h22, report.h21) > 1e-3


def test_collapse_check_at_truth(solved, joint):
    result = bridge_collapse_check(solved.outcome, joint)
    assert result.equation_residual <= 1e-8
    assert result.h11_gap <= 1e-8


def test_collapse_check_flags_pseudo_h21(joint, solved):
    bad = 0
    for seed in range(100):
        merged = solved.merged(pseudo_bridges(seed, ("h21",)))
        if bridge_collapse_check(merged.outcome, joint).equation_residual > 1e-3:
            bad += 1
    assert bad >= 99


def test_scalar_outcome_bridge_identity(solved, joint):
    # sum_y2 y2*h22 must serve as the scalar (mean-outcome) bridge
    h22o = solved.h22[:, :, 1, :, :, :, :]  # [y0, y1, w1, w2, a1, a2]
    given = ("Y0", "Y1", "A1", "A2", "Z1", "Z2")
    fy2 = conditional(joint, ("Y2",), given)
    fw = conditional(joint, ("W1", "W2"), given)
    for y0, y1, a1, a2 in np.ndindex(2, 2, 2, 2):
        lhs = fy2[y0, y1, a1, a2].reshape(4, 2)[:, 1]  # sum_y2 y2 f(y2|...)
        rhs = fw[y0, y1, a1, a2].reshape(4, 4) @ h22o[y0, y1, :, :, a1, a2].reshape(4)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_bridge_set_json_round_trip(solved):
    again = BridgeSet.from_json(solved.to_json())
    for name in ("h22", "h21", "h11", "q11", "q22"):
        np.testing.assert_allclose(getattr(again, name), getattr(solved, name), atol=0)
    assert again.provenance == solved.provenance


def _short_key(payload):
    payload["q11"]["0,1"] = 0.5


def _missing_cell(payload):
    del payload["q11"]["1,1,1"]


def _negative_index(payload):
    payload["q11"]["-1,0,0"] = 0.5


def _unknown_component(payload):
    payload["q12"] = payload["q11"]


def _index_out_of_range(payload):
    payload["q11"]["2,0,0"] = 0.5


def _four_part_key(payload):
    payload["q11"]["0,0,0,0"] = 0.5


_MALFORMED = [
    (_short_key, "q11 cell key '0,1' is unknown; q11 needs exactly its 8 keys '0,0,0' to '1,1,1'"),
    (_missing_cell, "q11 cell key '1,1,1' is missing; q11 needs exactly its 8 keys '0,0,0' to '1,1,1'"),
    (_negative_index, "q11 cell key '-1,0,0' is unknown; q11 needs exactly its 8 keys '0,0,0' to '1,1,1'"),
    (_unknown_component, "unknown bridge component 'q12'; expected some of ['h22', 'h21', 'h11', 'q11', 'q22']"),
    (_index_out_of_range, "q11 cell key '2,0,0' is unknown; q11 needs exactly its 8 keys '0,0,0' to '1,1,1'"),
    (_four_part_key, "q11 cell key '0,0,0,0' is unknown; q11 needs exactly its 8 keys '0,0,0' to '1,1,1'"),
]


@pytest.mark.parametrize("edit, message", _MALFORMED, ids=[case[0].__name__.strip("_") for case in _MALFORMED])
def test_bridge_set_from_json_accepts_only_the_keys_to_json_writes(solved, edit, message):
    payload = json.loads(solved.to_json())
    edit(payload)
    with pytest.raises(ValueError) as err:
        BridgeSet.from_json(json.dumps(payload))
    assert str(err.value) == message


def test_stacked_bridge_set_to_json_is_refused(big_data):
    stacked = fit_off_fold(fold_counts(big_data.observed_counts, big_data.seed, 2)[1], FitOptions(folds=2))
    assert stacked.h22.shape == (2,) + (2,) * 7
    with pytest.raises(ValueError, match=r"^to_json reads a single bridge set, not a stack of bridge sets of shape \(2,\)$"):
        stacked.to_json()


def test_bridge_set_from_json_refuses_a_non_object():
    with pytest.raises(ValueError, match="^a bridge set is a JSON object, got list$"):
        BridgeSet.from_json("[]")


def test_bridge_set_from_json_refuses_a_document_nested_too_deeply_in_one_line():
    with pytest.raises(ValueError, match="^bridge set JSON is nested too deeply to read$"):
        BridgeSet.from_json("[" * 200000)


@pytest.mark.parametrize("name", ["h22", "h21", "h11", "q11", "q22"])
def test_bridge_set_rejects_wrong_shape(name):
    with pytest.raises(ValueError, match=f"{name} must have shape"):
        BridgeSet(**{name: np.zeros((2, 3))})


def test_missing_component_error():
    partial = pseudo_bridges(1, ("h22",))
    with pytest.raises(MissingBridgeError, match="q11"):
        partial.require("q11")
    with pytest.raises(MissingBridgeError):
        bridge_collapse_check(partial.outcome, None)


def test_merged_overrides_components_and_provenance(solved):
    merged = solved.merged(pseudo_bridges(3, ("q22",)))
    np.testing.assert_array_equal(merged.q22, pseudo_bridges(3, ("q22",)).q22)
    np.testing.assert_array_equal(merged.q11, solved.q11)
    assert merged.provenance["q22"] == "pseudo(3)"
    assert merged.provenance["q11"] == "solved-from-truth"


def test_reciprocal_on_a_stack_names_the_first_zero_propensity_in_c_order():
    """Positivity is one reduction over the stack; a failure names the first
    zero cell, stack axis first, as before."""
    laws = np.array([[[0.25, 0.25], [0.25, 0.25]],
                     [[0.5, 0.0], [0.25, 0.25]],   # P(B=1 | A=0) = 0
                     [[0.25, 0.25], [0.5, 0.0]]])  # P(B=1 | A=1) = 0
    with pytest.raises(ZeroProbabilityError) as err:
        _reciprocal(JointPmf(("A", "B"), laws), ("B",), ("A",))
    assert str(err.value) == "positivity fails: P(B|A) is zero at {'A': 0, 'B': 1}"
    assert err.value.assignment == {"A": 0, "B": 1}
    assert np.array_equal(_reciprocal(JointPmf(("A", "B"), laws[0]), ("B",), ("A",)), np.full((2, 2), 2.0))


@pytest.mark.parametrize("family", ["q11", "q22", "h22", "h21"])
def test_residual_report_passes_only_at_or_below_the_fixed_bound(family):
    fields = dict.fromkeys(("q11", "q22", "h22", "h21"), RESIDUAL_TOL)
    assert ResidualReport(**fields).all_passed
    for bad in (2 * RESIDUAL_TOL, float("nan")):
        assert not ResidualReport(**{**fields, family: bad}).all_passed
