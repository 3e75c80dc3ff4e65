"""Probability-table core: marginalize, conditionals, and stacked small-matrix
inversion.

Derived expectations are computed by independent brute force over the
2^11-cell law (plain Python loops), never through the code paths they check.
"""

import json

import numpy as np
import pytest

from proxidtr.tables import (
    JointPmf,
    SingularMatrixError,
    TableError,
    UnknownVariableError,
    ZeroProbabilityError,
    conditional,
    invert2or4,
    marginalize,
)

EXPIT_HALF = 0.6224593312018546      # 1 / (1 + e^-0.5)
EXPIT_MINUS_ONE = 0.2689414213699951  # 1 / (1 + e^1)


def uniform_pmf(names):
    n = len(names)
    return JointPmf(tuple(names), np.full((2,) * n, 1.0 / 2 ** n))


# -- construction / validation ------------------------------------------------

def test_mass_must_sum_to_one():
    with pytest.raises(TableError):
        JointPmf(("A",), np.array([0.5, 0.6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_mass_rejected(bad):
    with pytest.raises(TableError, match="mass sums to"):
        JointPmf(("A",), np.array([0.5, bad]))


def test_mass_must_be_nonnegative():
    with pytest.raises(TableError):
        JointPmf(("A",), np.array([1.1, -0.1]))


def test_duplicate_names_rejected():
    with pytest.raises(TableError) as err:
        JointPmf(("A", "A"), np.full((2, 2), 0.25))
    assert err.value.kind == str(err.value)  # a table error that names no cell or block is its own kind


def test_flat_mass_accepted_row_major():
    pmf = JointPmf(("A", "B"), np.array([0.1, 0.2, 0.3, 0.4]))
    # last variable fastest: flat[1] is (A=0, B=1)
    assert pmf.mass[0, 1] == 0.2
    assert pmf.prob({"A": 1}) == pytest.approx(0.7)


def test_json_round_trip(joint):
    again = JointPmf.from_json(joint.to_json())
    assert again.names == joint.names
    np.testing.assert_array_equal(again.mass, joint.mass)


def test_from_json_refuses_a_document_nested_too_deeply_in_one_line():
    with pytest.raises(TableError, match="^JointPmf JSON is nested too deeply to read$"):
        JointPmf.from_json("[" * 200000)


@pytest.mark.parametrize("text", [
    "{}",
    "[]",
    '{"order": ["A"], "mass": [0.5, 0.5], "note": 1}',
    '{"order": "AB", "mass": [0.25, 0.25, 0.25, 0.25]}',
    '{"order": ["A"], "mass": [true, false]}',
    '{"order": [["A"]], "mass": [0.5, 0.5]}',
])
def test_json_is_exactly_an_order_and_a_mass(text):
    """Only an object with exactly ``order`` (a list of names) and ``mass`` (a
    list of numbers) is read; anything else is refused with one line."""
    with pytest.raises(TableError) as err:
        JointPmf.from_json(text)
    assert str(err.value) == ('a JointPmf is a JSON object with exactly "order", a list of names, '
                              'and "mass", a list of numbers')
    assert JointPmf.from_json('{"mass": [0.25, 0.75], "order": ["A"]}').mass.tolist() == [0.25, 0.75]


def test_tables_are_immutable(joint):
    with pytest.raises(ValueError):
        joint.mass[0] = 0.0


# -- marginalize ---------------------------------------------------------------

def test_marginalize_identity(joint):
    same = marginalize(joint, joint.names)
    assert same.names == joint.names
    np.testing.assert_array_equal(same.mass, joint.mass)


def test_marginalize_uniform_two_vars():
    pmf = marginalize(uniform_pmf(("A", "B")), ("A",))
    np.testing.assert_allclose(pmf.mass, [0.5, 0.5])


def test_marginalize_u0_root_factor(joint):
    assert marginalize(joint, ("U0",)).mass[1] == pytest.approx(EXPIT_HALF, abs=1e-12)


def test_marginalize_unknown_variable(joint):
    with pytest.raises(UnknownVariableError, match="Q9"):
        marginalize(joint, ("Q9",))


def test_marginalize_keeps_pmf_order(joint):
    out = marginalize(joint, ("Y2", "Y0"))
    assert out.names == ("Y0", "Y2")


# -- conditional: conditioning and conditional matrices -----------------------

def test_condition_empty_evidence(joint):
    np.testing.assert_allclose(conditional(joint, joint.names, ()), joint.mass, rtol=1e-15, atol=0)


def test_condition_on_independent_variable():
    # product law: conditioning on A leaves B's marginal untouched
    mass = np.outer([0.3, 0.7], [0.6, 0.4])
    pmf = JointPmf(("A", "B"), mass)
    np.testing.assert_allclose(conditional(pmf, ("B",), ("A",))[1], [0.6, 0.4], atol=1e-15)


def test_condition_then_marginalize_y0_given_u0(joint):
    assert conditional(joint, ("Y0",), ("U0",))[0, 1] == pytest.approx(EXPIT_MINUS_ONE, abs=1e-12)


def test_condition_zero_probability_event():
    mass = np.array([[0.5, 0.5], [0.0, 0.0]])
    pmf = JointPmf(("A", "B"), mass)
    with pytest.raises(ZeroProbabilityError) as err:
        conditional(pmf, ("B",), ("A",))
    assert err.value.assignment == {"A": 1}


def test_total_probability_reconstruction(joint):
    # sum_c P(rest | given=c) P(given=c) rebuilds the marginal of rest
    given = ("U0", "A1")
    rest = tuple(n for n in joint.names if n not in given)
    direct = marginalize(joint, rest).mass
    cond = conditional(joint, rest, given)
    rebuilt = np.zeros_like(direct)
    for u0 in (0, 1):
        for a1 in (0, 1):
            rebuilt += joint.prob({"U0": u0, "A1": a1}) * cond[u0, a1]
    np.testing.assert_allclose(rebuilt, direct, atol=1e-12)


def test_cond_matrix_columns_are_pmfs(joint):
    m = conditional(joint, ("W1",), ("Y0", "U0"))
    assert m.shape == (2, 2, 2)
    assert np.all(m >= 0)
    np.testing.assert_allclose(m.sum(axis=-1), 1.0, atol=1e-10)


def test_cond_matrix_against_brute_force(joint):
    m = conditional(joint, ("Z1",), ("A1", "Y0", "W1"))
    names = joint.names
    num = 0.0
    den = 0.0
    for idx in np.ndindex(joint.mass.shape):
        cell = dict(zip(names, idx))
        if cell["A1"] == 1 and cell["Y0"] == 0 and cell["W1"] == 1:
            den += joint.mass[idx]
            if cell["Z1"] == 1:
                num += joint.mass[idx]
    assert m[1, 0, 1, 1] == pytest.approx(num / den, abs=1e-12)


def test_cond_matrix_zero_column_errors():
    mass = np.zeros((2, 2, 2))
    mass[0, :, :] = 0.2
    mass[1, :, 0] = 0.1  # (A=1, C=1) has probability zero
    pmf = JointPmf(("A", "B", "C"), mass)
    with pytest.raises(ZeroProbabilityError, match="A.*1.*C.*1") as err:
        conditional(pmf, ("B",), ("A", "C"))
    assert err.value.assignment == {"A": 1, "C": 1}


def test_cond_matrix_role_overlap_rejected(joint):
    with pytest.raises(TableError):
        conditional(joint, ("Y1", "Z1"), ("Y1",))


# -- invert2or4 ------------------------------------------------------------------

def test_invert_identity():
    np.testing.assert_array_equal(invert2or4(np.eye(4)), np.eye(4))


def test_invert_diagonal():
    np.testing.assert_allclose(invert2or4(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_invert_round_trip_well_conditioned():
    rng = np.random.default_rng(7)
    stack = rng.random((50, 4, 4)) + 4.0 * np.eye(4)  # diagonally dominant
    assert np.linalg.cond(stack).max() < 1e6
    residual = np.abs(stack @ invert2or4(stack) - np.eye(4)).max()
    assert residual <= 1e-9


def test_invert_singular_raises_with_role():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError, match="proxy block"):
        invert2or4(singular, role="proxy block")


def test_invert_stack_names_singular_block():
    stack = np.tile(np.eye(2), (2, 2, 1, 1))
    stack[1, 0] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(SingularMatrixError, match=r"proxy block at \(Y0=1, A1=0\)") as err:
        invert2or4(stack, role="proxy block", axes=("Y0", "A1"))
    assert err.value.kind == "proxy block is singular; rank condition fails"  # without the block and |det|


def test_invert_rejects_other_shapes():
    with pytest.raises(TableError):
        invert2or4(np.eye(3))


# -- stacks of laws -------------------------------------------------------------

def test_stack_of_laws_is_checked_and_conditioned_law_by_law():
    """A JointPmf led by stack axes holds one law per stack cell: each must sum
    to one, and conditionals and marginals come out per law, bit for bit."""
    names = ("A", "B", "C")
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.1, 1.0, size=(4, 8))
    laws = raw / raw.sum(axis=1, keepdims=True)
    stacked = JointPmf(names, laws)  # flat masses are read per law, too
    assert stacked.mass.shape == (4, 2, 2, 2)
    cond = conditional(stacked, ("C", "A"), ("B",))
    margin = marginalize(stacked, ("C", "A")).mass
    for law, mass in enumerate(laws):
        single = JointPmf(names, mass)
        assert np.array_equal(cond[law], conditional(single, ("C", "A"), ("B",)))
        assert np.array_equal(margin[law], marginalize(single, ("C", "A")).mass)
    laws[2] *= 1.5
    with pytest.raises(TableError, match="mass sums to 1.5"):
        JointPmf(names, laws)


def test_stack_of_laws_names_the_zero_cell_and_singular_block_without_the_stack_axis():
    fine = np.array([[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(ZeroProbabilityError) as err:
        conditional(JointPmf(("A", "B"), np.stack([fine, fine, [[0.0, 0.0], [0.5, 0.5]]])), ("B",), ("A",))
    assert err.value.assignment == {"A": 0}
    stack = np.tile(np.eye(2), (3, 2, 1, 1))
    stack[2, 1] = 0.5
    with pytest.raises(SingularMatrixError, match=r"proxy block at \(axis0=2, Y0=1\)"):
        invert2or4(stack, role="proxy block", axes=("Y0",))


def test_stacked_checks_name_the_first_failing_law_cell_and_block_in_c_order():
    """Each check finds its failure with one reduction and then names the
    first failing law, cell or block in C order, stack axes first, in the
    same words as before; a NaN determinant is not flagged."""
    fine = np.full(8, 0.125)
    with pytest.raises(TableError) as err:
        JointPmf(("A", "B", "C"), np.stack([fine, 1.5 * fine, 0.5 * fine]))
    assert str(err.value) == "mass sums to 1.5, not 1"
    no_c1 = np.zeros((2, 2, 2))
    no_c1[..., 0] = 0.25  # P(A, C=1) = 0 for both A
    no_a1 = np.zeros((2, 2, 2))
    no_a1[0] = 0.25  # P(A=1, C) = 0 for both C
    stacked = JointPmf(("A", "B", "C"), np.stack([fine.reshape(2, 2, 2), no_c1, no_a1]))
    with pytest.raises(ZeroProbabilityError) as err:
        conditional(stacked, ("B",), ("A", "C"))
    assert str(err.value) == "zero-probability conditioning cell {'A': 0, 'C': 1} for P(B|A,C)"
    assert err.value.assignment == {"A": 0, "C": 1}
    stack = np.tile(np.eye(2), (3, 2, 1, 1))
    stack[2, 0] = stack[1, 1] = 0.5
    stack[0, 0, 0, 0] = np.nan  # first in order, but a NaN determinant passes
    with np.errstate(invalid="ignore"), pytest.raises(SingularMatrixError) as err:
        invert2or4(stack, role="proxy block", axes=("Y0",))
    assert str(err.value) == "proxy block at (axis0=1, Y0=1) is singular (|det|=0.000e+00); rank condition fails"
    stack[1, 1] = stack[2, 0] = np.eye(2)
    with np.errstate(invalid="ignore"):
        inverse = invert2or4(stack, role="proxy block", axes=("Y0",))
    assert np.isnan(inverse[0, 0]).any() and np.array_equal(inverse[1:], stack[1:])


def test_prob_and_to_json_refuse_a_stack_of_laws():
    """On a stack the first mass axis is the stack, not the first variable:
    reading it as one law would sum across laws, so both name the stack."""
    stacked = JointPmf(("A", "B"), np.full((3, 4), 0.25))
    with pytest.raises(TableError, match=r"prob reads a single law, not a stack of laws of shape \(3,\)"):
        stacked.prob({"A": 1})
    with pytest.raises(TableError, match=r"to_json reads a single law, not a stack of laws of shape \(3,\)"):
        stacked.to_json()
    with pytest.raises(TableError, match=r"shape \(2, 3\)"):
        JointPmf(("A",), np.full((2, 3, 2), 0.5)).prob({})
    single = JointPmf(("A", "B"), np.full(4, 0.25))
    assert single.prob({"A": 1}) == 0.5
    assert single.to_json() == '{"order": ["A", "B"], "mass": [0.25, 0.25, 0.25, 0.25]}'



@pytest.mark.parametrize("given, stored", [
    (np.float32, np.float64), (np.int64, np.float64), (np.float64, np.float64),
    (np.complex64, np.complex128), (np.complex128, np.complex128),
])
def test_tables_are_float64_or_complex128(given, stored):
    """A table keeps complex mass for complex-step derivatives and stores
    anything else as float64; its checks and its inverses read the real part."""
    pmf = JointPmf(("A", "B"), np.array([0, 1, 0, 0], dtype=given))
    assert pmf.mass.dtype == stored
    assert conditional(pmf, ("B",), ()).dtype == stored
    assert invert2or4(np.eye(2, dtype=given)).dtype == stored


def test_a_complex_step_reads_the_derivative_off_the_imaginary_part():
    """P + ih(delta_00 - P) at uniform P: P(B=0 | A=0) = 1/2 + ih, the
    derivative being exactly 1; refusals read the real part only."""
    h = 1e-20
    step = JointPmf(("A", "B"), np.full(4, 0.25) + 1j * h * (np.eye(4)[0] - 0.25))
    p_b = conditional(step, ("B",), ("A",))
    assert p_b[0, 0].real == 0.5 and p_b[0, 0].imag / h == pytest.approx(1.0, rel=1e-15, abs=0)
    with pytest.raises(TableError, match="negative probability mass"):
        JointPmf(("A",), np.array([1.5 + 1j, -0.5 - 1j]))
    with pytest.raises(ZeroProbabilityError) as err:
        conditional(JointPmf(("A", "B"), np.array([0.5, 0.5, 1j, 0])), ("B",), ("A",))
    assert err.value.assignment == {"A": 1}
