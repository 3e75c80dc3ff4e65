"""The plans of ``JointPmf.marginal`` and ``JointPmf.conditional``: cached
per signature, they give the arrays, layouts and refusals of the algorithm
that derives every axis from names on each call and sums each marginal from
the whole law, uncached, in the law's own order of halving adds, kept here
as the reference. A law read many times, which keeps its marginals, gives
each read the bits of a fresh law, in any order of reads, for a law alone
and in a stack."""

import io
import re
from contextlib import redirect_stdout

import numpy as np
import pytest

from proxidtr import cli, dgp, harness, tables
from proxidtr.bridges import bridge_collapse_check, solve_bridges, verify_bridges
from proxidtr.estimators import FitOptions, fit_off_fold, fold_counts
from proxidtr.policy import Regime
from proxidtr.tables import JointPmf, TableError, UnknownVariableError, _refuse_zero


def _marginal_reference(pmf, names):
    """The whole law with every variable not in ``names`` summed out, the
    last first, each as one addition of its two halves."""
    names = tuple(names)
    twice = [n for i, n in enumerate(names) if n in names[:i]]
    if twice:
        raise TableError(f"variable {twice[0]!r} repeats in {names}")
    lead = pmf.mass.ndim - len(pmf.names)
    axes = [lead + pmf.axis(n) for n in names]
    summed = pmf.mass
    for axis in reversed(range(lead, pmf.mass.ndim)):
        if axis not in axes:
            summed = np.take(summed, 0, axis) + np.take(summed, 1, axis)
    kept = sorted(axes)
    return np.transpose(summed, [*range(lead), *(lead + kept.index(a) for a in axes)])


def _conditional_reference(pmf, target, given):
    target, given = tuple(target), tuple(given)
    if set(target) & set(given):
        raise TableError(f"target {target} and given {given} overlap")
    joint = _marginal_reference(pmf, given + target)
    den = _marginal_reference(pmf, given)
    _refuse_zero(den.real <= 0.0, given,
                 f"zero-probability conditioning cell {{cell}} for P({','.join(target)}|{','.join(given)})")
    return joint / den[(...,) + (None,) * len(target)]


def _same_bits(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape and out.strides == ref.strides
    assert out.tobytes(order="A") == ref.tobytes(order="A")


def _random_law(rng, names, stack, complex_mass=False, zero=None):
    """A law (a stack of them for a non-empty ``stack``) over ``names``;
    ``zero`` is a flat cell of the last law given no mass."""
    mass = rng.random(stack + (2 ** len(names),)) + 0.01
    if zero is not None:
        mass.reshape(-1, 2 ** len(names))[-1, zero] = 0.0
    mass /= mass.sum(axis=-1, keepdims=True)
    if complex_mass:
        mass = mass + 1j * rng.standard_normal(mass.shape)
    return JointPmf(names, mass)


def _six_estimate_requests(directory):
    """The six ``estimate`` requests of the benchmark's estimate workload, in-process."""
    data = dgp.sample(dgp.DgpParams.default(), 35000, 11)
    (directory / "d.csv").write_text(data.to_csv())
    (directory / "r.json").write_text(Regime.from_index(837).to_json())
    requests = [["--method", m] for m in ("por", "pha", "pipw", "pmr")] + [["--method", "pmr", "--folds", "5"],
                                                                          ["--method", "sra"]]
    with redirect_stdout(io.StringIO()):
        for request in requests:
            assert cli.main(["estimate", "--data", str(directory / "d.csv"), "--regime", str(directory / "r.json"),
                             *request]) == 0


@pytest.fixture(scope="module")
def signatures(tmp_path_factory):
    """Every (names, target, given) that a grid of each fold count, the six
    estimate requests, ``identify_check``, ``verify_bridges`` and
    ``bridge_collapse_check`` read, recorded at ``tables._plan``."""
    seen = set()
    plan = tables._plan

    def recording(names, lead, target, given):
        seen.add((names, target, given))
        return plan(names, lead, target, given)

    data = dgp.sample(dgp.DgpParams.default(), 35000, 5)
    tables._plan = recording
    try:
        harness.run_experiment(harness.ExperimentConfig(reps=1))
        harness.run_experiment(harness.ExperimentConfig(reps=1, folds=3, laplace=0.5))
        _six_estimate_requests(tmp_path_factory.mktemp("requests"))
        harness.identify_check()
        law = dgp.true_joint(dgp.DgpParams.default())
        solved = solve_bridges(law)
        verify_bridges(solved, law)
        bridge_collapse_check(solved, law)
        fit_off_fold(fold_counts(data, 2)[1], FitOptions(folds=2))
        tables.marginalize(law, ("Y0", "U0"))
    finally:
        tables._plan = plan
    return sorted(seen, key=repr)


def test_the_package_reads_both_table_widths_and_both_kinds(signatures):
    assert {len(names) for names, _, _ in signatures} == {9, 11}
    assert any(given is None for _, _, given in signatures)
    assert sum(given is not None for _, _, given in signatures) >= 14


@pytest.mark.parametrize("stack", [(), (3,), (2, 3)], ids=["rank 0", "rank 1", "rank 2"])
@pytest.mark.parametrize("complex_mass", [False, True], ids=["real", "complex"])
def test_every_signature_matches_the_reference_bit_for_bit(signatures, stack, complex_mass):
    rng = np.random.default_rng(len(stack) + 10 * complex_mass)
    laws = {}
    for names, target, given in signatures:
        pmf = laws.setdefault(names, _random_law(rng, names, stack, complex_mass))
        if given is None:
            _same_bits(pmf.marginal(target), _marginal_reference(pmf, target))
        else:
            _same_bits(tables.conditional(pmf, target, given), _conditional_reference(pmf, target, given))
    for names, pmf in laws.items():  # the package's marginals keep table order; these reorder too
        for keep in (names[::-1], names[:0:-3], (names[4], names[0])):
            _same_bits(pmf.marginal(keep), _marginal_reference(pmf, keep))


@pytest.mark.parametrize("seed", range(4))
def test_one_tree_reads_every_signature_as_a_fresh_one_in_any_order(signatures, seed):
    """Each read of one law, read in a seeded order of reads, equals the
    same read of a fresh law over the same mass bit for bit: for a law
    alone, for a stack of three, and for each law of that stack by itself."""
    rng = np.random.default_rng(seed)
    for names in sorted({names for names, _, _ in signatures}):
        reads = [(target, given) for n, target, given in signatures if n == names]
        stack = _random_law(rng, names, (3,), complex_mass=seed % 2 == 1)
        alone = [JointPmf(names, stack.mass[k]) for k in range(3)]
        for pmf in (alone[0], stack):
            for i in rng.permutation(len(reads)):
                target, given = reads[i]
                if given is None:
                    got, fresh = pmf.marginal(target), lambda law: JointPmf(names, law.mass).marginal(target)
                else:
                    got, fresh = (pmf.conditional(target, given),
                                  lambda law: tables.conditional(JointPmf(names, law.mass), target, given))
                _same_bits(got, fresh(pmf))
                if pmf is stack:  # each law of the stack reads as it does alone
                    assert all(got[k].tobytes() == fresh(law).tobytes() for k, law in enumerate(alone))


@pytest.mark.parametrize("stack", [(), (3,), (2, 3)], ids=["rank 0", "rank 1", "rank 2"])
def test_a_zero_conditioning_cell_is_refused_as_by_the_reference(signatures, stack):
    rng = np.random.default_rng(7)
    names = dgp.OBSERVED_ORDER
    conditionals = [(target, given) for n, target, given in signatures if n == names and given is not None]
    for cell in (0, 200, 511):
        pmf = _random_law(rng, names, stack, zero=cell)
        for target, given in conditionals:
            try:
                expected = _conditional_reference(pmf, target, given)
            except TableError as err:
                with pytest.raises(type(err)) as got:
                    tables.conditional(pmf, target, given)
                assert (str(got.value), got.value.kind, got.value.assignment) == (str(err), err.kind, err.assignment)
            else:
                _same_bits(tables.conditional(pmf, target, given), expected)


def test_unknown_names_and_an_overlap_raise_the_reference_errors():
    pmf = _random_law(np.random.default_rng(3), ("A", "B", "C"), (2,))
    for call, reference, args in [
        (tables.conditional, _conditional_reference, (("A",), ("X",))),
        (tables.conditional, _conditional_reference, (("X", "Y"), ("A",))),
        (tables.conditional, _conditional_reference, (("A", "B"), ("B",))),
        (JointPmf.marginal, _marginal_reference, (("C", "Q"),)),
        (tables.conditional, _conditional_reference, (("B", "B"), ("A",))),
        (tables.conditional, _conditional_reference, (("C",), ("A", "B", "A"))),
        (JointPmf.marginal, _marginal_reference, (("A", "A"),)),
    ]:
        with pytest.raises(TableError) as expected:
            reference(pmf, *args)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            call(pmf, *args)
    with pytest.raises(UnknownVariableError, match=r"^unknown variable 'X'; table has \('A', 'B', 'C'\)$"):
        tables.conditional(pmf, ("A",), ("X",))
    with pytest.raises(TableError, match=r"^target \('A', 'B'\) and given \('B',\) overlap$"):
        tables.conditional(pmf, ("A", "B"), ("B",))
    observed = _random_law(np.random.default_rng(4), dgp.OBSERVED_ORDER, ())
    kept = tables._plan.cache_info().currsize
    with pytest.raises(TableError, match=r"^variable 'W1' repeats in \('Y0', 'W1', 'W1'\)$"):
        tables.conditional(observed, ("W1", "W1"), ("Y0",))
    with pytest.raises(TableError, match=r"^variable 'Y0' repeats in \('Y0', 'Y0'\)$"):
        observed.marginal(("Y0", "Y0"))
    assert tables._plan.cache_info().currsize == kept  # a refused signature is not kept


def test_a_grid_and_the_six_estimate_requests_keep_at_most_64_plans(tmp_path):
    tables._plan.cache_clear()
    harness.run_experiment(harness.ExperimentConfig(reps=2))
    _six_estimate_requests(tmp_path)
    assert 0 < tables._plan.cache_info().currsize <= 64
    assert tables._plan.cache_info().maxsize >= 64
