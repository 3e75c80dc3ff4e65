"""``dgp.sample_counts``: the 2^11 cell counts of n rows in one multinomial
draw, the grid's sample. The counts are read-only, sum to n, depend only on
the seed, and follow Multinomial(n, p) for p the true joint's mass: a
chi-square statistic over cells pooled to an expected count of at least 5,
summed over a fixed range of seeds, stays below a bound fixed in advance,
and the same statistic rejects counts drawn from a nearby law. Each law
draws from its own mass, and the cell counts of the rows sampler pass the
same test, so both samplers draw the counts of the one law.
"""

import dataclasses

import numpy as np
import pytest

from proxidtr import dgp

GOF_N, GOF_SEEDS = 10 ** 6, range(10)


def test_counts_sum_to_n_read_only_and_seeded(params):
    counts = dgp.sample_counts(params, 35000, 7)
    assert counts.shape == (2 ** 11,) and counts.dtype.kind == "i" and counts.min() >= 0
    assert int(counts.sum()) == 35000
    assert not counts.flags.writeable
    assert np.array_equal(counts, dgp.sample_counts(params, 35000, 7))
    assert not np.array_equal(counts, dgp.sample_counts(params, 35000, 8))
    assert int(dgp.sample_counts(params, 1, 2 ** 64 - 1).sum()) == 1


SEED_RANGE = r"seed must be in \[0, 2\*\*64\), got "


@pytest.mark.parametrize("n, seed, message", [(0, 1, "n must be >= 1"), (-3, 1, "n must be >= 1"),
                                              (5, -1, SEED_RANGE + "-1"), (5, 2 ** 64, SEED_RANGE + str(2 ** 64))],
                         ids=["n0", "n-3", "seed-1", "seed2**64"])
def test_bad_n_or_seed_is_refused_as_sample_rows_refuses_it(params, n, seed, message):
    for draw in (lambda: dgp.sample_counts(params, n, seed), lambda: dgp.sample_rows(params, n, seed, 0, 0)):
        with pytest.raises(ValueError, match=message):
            draw()


def test_observed_counts_sum_the_hidden_columns(params):
    """``sum_hidden`` of a sample's cell counts is its ``observed_counts``."""
    data = dgp.sample(params, 5000, 3)
    assert np.array_equal(dgp.sum_hidden(data.cell_counts), data.observed_counts)
    cells = dgp.sample_counts(params, 5000, 3)
    observed = dgp.sum_hidden(cells)
    assert int(observed.sum()) == 5000 and not observed.flags.writeable
    assert np.array_equal(observed, dgp.Dataset(np.repeat(np.arange(2 ** 11), cells), 3).observed_counts)


def _pooled_bins(expected: np.ndarray) -> np.ndarray:
    """A bin per cell: cells taken in increasing expected count and closed
    into a bin once its expected count reaches 5; a short last bin joins
    the one before it."""
    bins, total, label = np.empty(expected.size, dtype=np.intp), 0.0, 0
    for cell in np.argsort(expected, kind="stable"):
        bins[cell], total = label, total + expected[cell]
        if total >= 5:
            label, total = label + 1, 0.0
    if total:
        bins[bins == label] = label - 1
    return bins


def _chi_square(params: dgp.DgpParams, p: np.ndarray, draw=dgp.sample_counts) -> tuple[float, int]:
    """(the pooled chi-square statistic of ``draw``'s counts of ``params``
    against the cell law ``p``, summed over ``GOF_SEEDS``, its degrees of
    freedom)."""
    expected = GOF_N * p
    bins = _pooled_bins(expected)
    pooled = np.bincount(bins, expected)
    stat = sum(float(((np.bincount(bins, draw(params, GOF_N, seed), pooled.size) - pooled) ** 2
                      / pooled).sum()) for seed in GOF_SEEDS)
    return stat, len(GOF_SEEDS) * (pooled.size - 1)


def _bound(df: int) -> float:
    """Five standard deviations above the mean of chi-square with ``df``
    degrees of freedom."""
    return df + 5 * np.sqrt(2 * df)


def _shifted(params: dgp.DgpParams) -> dgp.DgpParams:
    """``params`` with U0's intercept moved from 0.5 to 0.6."""
    return dgp.DgpParams(tuple(dataclasses.replace(m, intercept=0.6) if m.target == "U0" else m
                               for m in params.models))


def test_counts_follow_the_multinomial_law(params, joint):
    """Under the law the summed statistic is about chi-square with ``df``
    degrees of freedom; the bound df + 5 sqrt(2 df) is five standard
    deviations above its mean. Moving U0's intercept from 0.5 to 0.6 moves
    P(U0 = 1) by 0.023 and the statistic far past the bound."""
    p = joint.mass.reshape(-1)
    stat, df = _chi_square(params, p)
    bound = _bound(df)
    assert stat <= bound, (stat, bound)
    assert _chi_square(_shifted(params), p)[0] > bound


def test_each_law_draws_from_its_own_mass(params, joint):
    """The shifted law's counts pass against its own joint and fail against
    the default one's: the mass is kept per law, not once for all."""
    shifted = _shifted(params)
    stat, df = _chi_square(shifted, dgp.true_joint(shifted).mass.reshape(-1))
    assert stat <= _bound(df), (stat, _bound(df))
    assert _chi_square(shifted, joint.mass.reshape(-1))[0] > _bound(df)


def test_the_rows_sampler_draws_the_same_law(params, joint):
    """The cell counts of ``sample``'s rows pass the test ``sample_counts``
    passes, at the same bound."""
    stat, df = _chi_square(params, joint.mass.reshape(-1), lambda *args: dgp.sample(*args).cell_counts)
    assert stat <= _bound(df), (stat, _bound(df))
