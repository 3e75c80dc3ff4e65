"""A law sums itself once: every reader of one ``JointPmf`` reads the
marginals the law keeps (``JointPmf._sum`` is the one place a law's mass is
summed), so the halving adds are pinned here, counted by a wrapper on that
method installed the way ``tests/test_hook_sites.py`` wraps its call sites:
52 per block of repetitions of the grid (``harness.BLOCK``, one stacked
pass) at one fold, 74 at five folds, and 48 per ``identify_check``. At one
fold, identifying a block's 13 densities adds none: the piece table reads
conditionals given Y0 whose marginals ``solve_bridges`` summed on the same
law. Each reader of a shared law gets the bits of a fresh law over the same
mass: ``solve_bridges``, then the piece table of
``identify.observed_conditional``, then ``verify_bridges``, SRA and the
Oracle."""

import functools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from proxidtr import dgp, harness
from proxidtr.bridges import solve_bridges, verify_bridges
from proxidtr.estimators import count_pmf, sra_from_conditional
from proxidtr.identify import observed_conditional
from proxidtr.tables import JointPmf


@pytest.fixture
def adds(monkeypatch) -> Counter:
    """``adds["adds"]``: the marginals added to any law's sums since the last clear."""
    counts = Counter()
    summed = JointPmf._sum

    @functools.wraps(summed)
    def counted(self, chain):
        before = len(self._sums)
        try:
            return summed(self, chain)
        finally:
            counts["adds"] += len(self._sums) - before

    monkeypatch.setattr(JointPmf, "_sum", counted)
    return counts


@pytest.mark.parametrize("folds, per_block", [(1, 52), (5, 74)])
def test_a_grid_block_sums_each_law_once(adds, folds, per_block):
    """The fit's law is summed once for ``solve_bridges``, its P(Y0), its
    piece table and, with one fold, SRA; with folds the fold laws once for
    their P(Y0) and piece table and SRA's law once; the Oracle's once for
    its conditionals and its P(Y0). Runs of one and of two blocks count one
    block's adds per block."""
    config = harness.ExperimentConfig(folds=folds)
    harness._truth_context(config)  # the true law is summed when the truth is built, once per process
    for blocks in (1, 2):
        adds.clear()
        report = harness.run_experiment(replace(config, reps=blocks * harness.BLOCK))
        assert all(cell.failures == 0 for cell in report.cells)
        assert adds["adds"] == blocks * per_block


def test_identify_check_sums_the_true_law_once(adds):
    assert harness.identify_check().passed
    assert adds["adds"] == 48


def test_identifying_a_one_fold_block_adds_no_sum_to_the_fit_law(params, adds):
    """The 13 densities of a block read the conditionals given Y0 off the
    fit's law, whose marginals ``solve_bridges`` has summed."""
    config = harness.ExperimentConfig()
    counts = tuple(harness._counts(config, params, rep) for rep in range(harness.BLOCK))
    block = harness._Pass(config, harness._truth_context(config), harness._scenario_pseudo(config),
                          tuple(range(harness.BLOCK)), counts)
    fits = harness._bridge_fits(block.observed, None, config)
    assert adds["adds"] > 0  # the fit summed its law
    adds.clear()
    assert len(harness._bridge_densities(fits, block.merged)) == 13
    assert adds["adds"] == 0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stack", [(), (3,)], ids=["one law", "a stack of three"])
def test_each_reader_of_one_law_gets_the_bits_of_a_fresh_law(params, stack):
    counts = np.stack([dgp.sample(params, 35000, seed).observed_counts for seed in range(3)])
    mass = count_pmf(counts[0] if stack == () else counts).mass
    law = JointPmf(dgp.OBSERVED_ORDER, mass)

    def fresh():
        return JointPmf(dgp.OBSERVED_ORDER, mass)

    shared = solve_bridges(law)
    alone = solve_bridges(fresh())
    for name in ("h22", "h21", "h11", "q11", "q22"):
        assert _same_bits(getattr(shared, name), getattr(alone, name))
    (pieces, p_y0), (fresh_pieces, fresh_p_y0) = observed_conditional(law), observed_conditional(fresh())
    assert _same_bits(p_y0, fresh_p_y0)
    for piece in ("f_w1z1", "f_w1", "no_y2", "f_obs", "f_mid"):
        assert _same_bits(pieces.get(piece), fresh_pieces.get(piece))
    assert _same_bits(sra_from_conditional(law).g, sra_from_conditional(fresh()).g)
    assert verify_bridges(shared, law) == verify_bridges(alone, fresh())
    assert len(law._sums) > len(fresh()._sums) == 1  # the law kept what its readers summed


def test_the_oracle_and_its_p_y0_read_one_law_as_fresh_ones(params):
    """Read in the other order than the harness reads them: P(Y0) first."""
    law = dgp.true_joint(params)
    assert _same_bits(law.marginal(("Y0",)), dgp.true_joint(params).marginal(("Y0",)))
    assert _same_bits(dgp.oracle_density_from_joint(law).g, dgp.oracle_density_from_joint(dgp.true_joint(params)).g)
