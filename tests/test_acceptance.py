"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers.

Criteria 3 and 4b compare the true optima and the SRA baseline's regret and
overall error against values of the pinned benchmark law
(``DgpParams.default``). Those values are computed in this module by code
paths that share nothing with the package's ground-truth code
(``dgp.oracle_density_from_joint``, ``estimators.sra_from_conditional``,
``dgp.class_values``), and are pinned as ``LAW_*`` constants:

  forced-regime enumeration  the A1/A2 logistic factors on the 2^11 grid are
                             replaced by the regime's indicator and the mass
                             at Y2 = 1 is summed, for every class member
  forward Monte Carlo        400000 rows sampled ancestrally under the
                             optimal regime, with their own generator
  population SRA             a hand-written g-formula
                             P(y2|y0,a1,y1,a2) P(y1|y0,a1) on the exact
                             observed law, maximized over the linear class
                             (first maximizer) and by backward induction
                             (ties to action 0), scored by enumeration

The external numbers these criteria once asserted (linear / global optima
0.4414 / 0.4535 and SRA anchors 0.0029 / 0.2190 / 0.0751) stay below as
``BENCHMARK_*`` and are printed next to the measured values. They cannot be
reached under the pinned law: the always-treat regime belongs to both
classes and alone is worth 0.5447 > 0.4535. Criterion 3 asserts exactly
that, so it fails, and points back at the external numbers, if the law is
ever changed to one that can reach them. Whether the pinned coefficients
match the paper's own tables cannot be settled from this repository, which
does not hold the paper's simulation section.
"""

import time

import numpy as np
import pytest

from proxidtr import dgp, identify
from proxidtr.bridges import bridge_collapse_check, pseudo_bridges
from proxidtr.estimators import (
    FitOptions,
    empirical_pmf,
    fit_bridges,
    if_variance,
    v_hat,
    v_hat_pmr_alt,
)
from proxidtr.harness import ExperimentConfig, run_experiment
from proxidtr.identify import (
    density_pha,
    density_pipw,
    density_pmr,
    density_por,
    observed_conditional,
    value_from_density,
)
from proxidtr.policy import Regime
from proxidtr.tables import marginalize

# external benchmark values, unreachable under the pinned law (criterion 3
# asserts why); reported next to the measured values, never asserted equal
BENCHMARK_LINEAR_OPTIMUM = 0.4414
BENCHMARK_BOOLEAN_OPTIMUM = 0.4535
BENCHMARK_SRA_REGRET_VM = 0.0029
BENCHMARK_SRA_OVERALL_VM = 0.2190
BENCHMARK_SRA_REGRET_QL = 0.0751

# the same quantities under the pinned law, from the independent computations
# below (forced-regime enumeration, hand-written population SRA)
LAW_LINEAR_OPTIMUM = 0.6138132768560
LAW_BOOLEAN_OPTIMUM = 0.6138132768560
LAW_SRA_REGRET_VM = 0.0814981562873
LAW_SRA_OVERALL_VM = 0.0374110157145
LAW_SRA_REGRET_QL = 0.0814981562873

ALWAYS_TREAT = Regime((1, 1), (1,) * 8)
# forward Monte Carlo of criterion 3: rows and the fixed seed of its generator
MC_ROWS = 400_000
MC_SEED = 2025
# parents before children; A1 and A2 are set by the regime, not sampled
ANCESTRAL_ORDER = ("U0", "Y0", "Z1", "A1", "W1", "Y1", "U1", "W2", "Z2", "A2", "Y2")

N = 35000
REPS = 20

CORRUPTED_BY_SCENARIO = {
    "m0-correct": ("PHA", "PIPW"),
    "m1-correct": ("POR", "PIPW"),
    "m2-correct": ("POR", "PHA"),
}


def report_line(number, ok, detail):
    print(f"[criterion {number:>3}] {'PASS' if ok else 'FAIL'}: {detail}")


class ForcedLaw:
    """The pinned law on the 2^11 grid, built from its logistic models alone."""

    def __init__(self, params):
        names = dgp.CANONICAL_ORDER
        self.values = dict(zip(names, np.indices((2,) * len(names))))
        factor = {}
        for name, x in self.values.items():
            p1 = params.model(name).prob1(self.values)
            factor[name] = np.where(x == 1, p1, 1.0 - p1)
        self.untreated = np.prod([factor[n] for n in names if n not in ("A1", "A2")], axis=0)
        self.joint = self.untreated * factor["A1"] * factor["A2"]

    def regime_values(self, regimes):
        """Mass at Y2 = 1 with the A1/A2 factors replaced by each regime's indicator."""
        d1 = np.array([r.d1 for r in regimes])
        d2 = np.array([r.d2 for r in regimes])
        y0, y1, a1, a2, y2 = (self.values[n].reshape(-1) for n in ("Y0", "Y1", "A1", "A2", "Y2"))
        follows = (d1[:, y0] == a1) & (d2[:, 4 * y0 + 2 * y1 + a1] == a2)
        return follows.astype(float) @ (self.untreated.reshape(-1) * y2)


def forward_sample_y2(params, regime, n, seed):
    """Y2 of n rows sampled ancestrally from the logistic models, with A1 and
    A2 set by the regime's tables."""
    rng = np.random.default_rng(seed)
    d1, d2 = np.array(regime.d1), np.array(regime.d2)
    cols = {}
    for name in ANCESTRAL_ORDER:
        if name == "A1":
            cols[name] = d1[cols["Y0"]]
        elif name == "A2":
            cols[name] = d2[4 * cols["Y0"] + 2 * cols["Y1"] + cols["A1"]]
        else:
            p1 = np.broadcast_to(params.model(name).prob1(cols), (n,))
            cols[name] = (rng.random(n) < p1).astype(np.int64)
    return cols["Y2"]


def population_sra(law, linear_class):
    """SRA choices on the exact observed law, by the g-formula
    P(y2|y0,a1,y1,a2) P(y1|y0,a1).

    Returns the value-max regime (first maximizer over the linear class), its
    SRA value, and the backward-induction regime (ties choose action 0).
    """
    keep = ("Y0", "A1", "Y1", "A2", "Y2")
    hidden_axes = tuple(i for i, n in enumerate(dgp.CANONICAL_ORDER) if n not in keep)
    p5 = law.joint.sum(axis=hidden_axes)                              # [y0, a1, y1, a2, y2]
    p_y0 = p5.sum(axis=(1, 2, 3, 4))                                  # [y0]
    p_y1 = p5.sum(axis=(3, 4)) / p5.sum(axis=(2, 3, 4))[:, :, None]   # [y0, a1, y1]
    q2 = p5[..., 1] / p5.sum(axis=4)                                  # [y0, a1, y1, a2]

    def sra_value(r):
        total = 0.0
        for y0 in (0, 1):
            a1 = r.d1[y0]
            for y1 in (0, 1):
                a2 = r.d2[4 * y0 + 2 * y1 + a1]
                total += p_y0[y0] * p_y1[y0, a1, y1] * q2[y0, a1, y1, a2]
        return total

    values = [sra_value(r) for r in linear_class.members]
    best = int(np.argmax(values))  # first maximizer in enumeration order
    d2 = tuple(int(q2[y0, a1, y1, 1] > q2[y0, a1, y1, 0])
               for y0 in (0, 1) for y1 in (0, 1) for a1 in (0, 1))
    q1 = (p_y1 * q2.max(axis=3)).sum(axis=2)                          # [y0, a1]
    d1 = tuple(int(q1[y0, 1] > q1[y0, 0]) for y0 in (0, 1))
    return linear_class.members[best], values[best], Regime(d1, d2)


@pytest.fixture(scope="module")
def forced_law(params):
    return ForcedLaw(params)


@pytest.fixture(scope="module")
def grid_reports():
    """One full scenario x method grid per optimizer, shared by criteria 4-6."""
    out = {}
    for optimizer in ("value-max", "q-learning"):
        start = time.perf_counter()
        out[optimizer] = (
            run_experiment(ExperimentConfig(optimizer=optimizer, n=N, reps=REPS)),
            time.perf_counter() - start,
        )
    return out


def test_criterion_01_identification_oracle_equivalence(joint, solved, oracle):
    start = time.perf_counter()
    deviations = {
        fn.__name__.split("_")[1]: float(np.abs(fn(joint, solved).g - oracle.g).max())
        for fn in (density_por, density_pha, density_pipw, density_pmr)
    }
    elapsed = time.perf_counter() - start
    worst = max(deviations.values())
    ok = worst <= 1e-10 and elapsed < 1.0
    report_line("01", ok, f"max density deviation {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_multiple_robustness(joint, solved, oracle):
    start = time.perf_counter()
    density_fn = {"POR": density_por, "PHA": density_pha, "PIPW": density_pipw}
    worst_pmr = 0.0
    hit_counts = {tag: 0 for tag in CORRUPTED_BY_SCENARIO}
    n_seeds = 20
    for tag, corrupted in CORRUPTED_BY_SCENARIO.items():
        pseudo_of = {
            "m0-correct": ("q11", "q22"),
            "m1-correct": ("h21", "q22"),
            "m2-correct": ("h22", "h21"),
        }[tag]
        for seed in range(n_seeds):
            merged = solved.merged(pseudo_bridges(seed, pseudo_of))
            pmr_dev = float(np.abs(density_pmr(joint, merged).g - oracle.g).max())
            worst_pmr = max(worst_pmr, pmr_dev)
            assert pmr_dev <= 1e-9, f"{tag} seed {seed}: PMR dev {pmr_dev:.2e}"
            if all(
                np.abs(density_fn[m](joint, merged).g - oracle.g).max() > 1e-4
                for m in corrupted
            ):
                hit_counts[tag] += 1
    elapsed = time.perf_counter() - start
    ok = all(h >= 0.95 * n_seeds for h in hit_counts.values()) and elapsed < 10.0
    report_line("02", ok, f"PMR worst {worst_pmr:.2e}, corrupted-method hits {hit_counts}, {elapsed:.1f}s")
    for tag, hits in hit_counts.items():
        assert hits >= 0.95 * n_seeds, tag
    assert elapsed < 10.0


def test_criterion_03_true_optima_match_benchmarks(params, forced_law, linear_class, boolean_class):
    start = time.perf_counter()
    linear_value, _ = dgp.optimal_value(params, "linear")
    boolean_value, _ = dgp.optimal_value(params, "all-boolean")
    elapsed = time.perf_counter() - start
    linear_values = forced_law.regime_values(linear_class.members)
    boolean_values = forced_law.regime_values(boolean_class.members)
    best = linear_class.members[int(np.argmax(linear_values))]
    y2 = forward_sample_y2(params, best, MC_ROWS, MC_SEED)
    mc_mean = float(y2.mean())
    mc_se = float(y2.std(ddof=1)) / np.sqrt(MC_ROWS)
    mc_z = (mc_mean - linear_value) / mc_se
    # always-treat is in both classes and alone beats both external optima
    always_in_both = all(
        (ALWAYS_TREAT.d1, ALWAYS_TREAT.d2) in {(r.d1, r.d2) for r in cls.members}
        for cls in (linear_class, boolean_class)
    )
    always_value = float(marginalize(dgp.interventional_joint(params, 1, 1), ("Y2",)).mass[1])
    always_forced = forced_law.regime_values([ALWAYS_TREAT])[0]
    ok = (
        abs(linear_value - linear_values.max()) <= 1e-12
        and abs(boolean_value - boolean_values.max()) <= 1e-12
        and abs(linear_values.max() - LAW_LINEAR_OPTIMUM) <= 1e-12
        and abs(boolean_values.max() - LAW_BOOLEAN_OPTIMUM) <= 1e-12
        and abs(always_value - always_forced) <= 1e-12
        and abs(linear_value - LAW_LINEAR_OPTIMUM) <= 5e-4
        and abs(boolean_value - LAW_BOOLEAN_OPTIMUM) <= 5e-4
        and abs(mc_z) <= 4.0
        and always_in_both
        and always_value > max(BENCHMARK_LINEAR_OPTIMUM, BENCHMARK_BOOLEAN_OPTIMUM)
        and elapsed < 5.0
    )
    report_line(
        "03", ok,
        f"linear {linear_value:.4f} (law {LAW_LINEAR_OPTIMUM:.4f}; "
        f"external {BENCHMARK_LINEAR_OPTIMUM} unreachable), "
        f"boolean {boolean_value:.4f} (law {LAW_BOOLEAN_OPTIMUM:.4f}; "
        f"external {BENCHMARK_BOOLEAN_OPTIMUM} unreachable), always-treat {always_value:.4f}, "
        f"forward MC {mc_mean:.5f} +- {mc_se:.5f} (z {mc_z:+.2f}), {elapsed:.1f}s",
    )
    assert elapsed < 5.0
    # the program's optima are the maxima of the forced-regime enumeration
    assert linear_value == pytest.approx(linear_values.max(), abs=1e-12)
    assert boolean_value == pytest.approx(boolean_values.max(), abs=1e-12)
    assert linear_values.max() == pytest.approx(LAW_LINEAR_OPTIMUM, abs=1e-12)
    assert boolean_values.max() == pytest.approx(LAW_BOOLEAN_OPTIMUM, abs=1e-12)
    assert linear_value == pytest.approx(LAW_LINEAR_OPTIMUM, abs=5e-4)
    assert boolean_value == pytest.approx(LAW_BOOLEAN_OPTIMUM, abs=5e-4)
    assert abs(mc_z) <= 4.0, "forward Monte Carlo disagrees with the exact optimum"
    assert always_in_both
    assert always_value == pytest.approx(always_forced, abs=1e-12)
    assert always_value > BENCHMARK_BOOLEAN_OPTIMUM, (
        "always-treat no longer beats the external optima: the law may now reach "
        "BENCHMARK_* and criteria 3 and 4b should assert them again"
    )
    assert always_value > BENCHMARK_LINEAR_OPTIMUM


def test_criterion_04a_oracle_anchor(grid_reports):
    details = []
    ok = True
    for optimizer, (report, _) in grid_reports.items():
        cell = report.cell("all-correct", "ORACLE")
        details.append(f"{optimizer}: oracle regret {cell.regret.mean:.2e}")
        ok = ok and cell.failures == 0 and cell.regret.mean < 1e-6
    report_line("04a", ok, "; ".join(details))
    for optimizer, (report, _) in grid_reports.items():
        cell = report.cell("all-correct", "ORACLE")
        assert cell.failures == 0
        assert cell.regret.mean < 1e-6


def test_criterion_04b_sra_benchmark_anchors(grid_reports, forced_law, linear_class, boolean_class):
    vm = grid_reports["value-max"][0].cell("all-correct", "SRA")
    ql = grid_reports["q-learning"][0].cell("all-correct", "SRA")
    elapsed = grid_reports["value-max"][1] + grid_reports["q-learning"][1]
    # population anchors: SRA's choices on the exact law, scored by enumeration
    d_vm, sra_value_vm, d_ql = population_sra(forced_law, linear_class)
    linear_optimum = forced_law.regime_values(linear_class.members).max()
    boolean_optimum = forced_law.regime_values(boolean_class.members).max()
    true_vm, true_ql, always_value = forced_law.regime_values([d_vm, d_ql, ALWAYS_TREAT])
    regret_vm = linear_optimum - true_vm
    overall_vm = abs(linear_optimum - sra_value_vm)
    regret_ql = boolean_optimum - true_ql
    ok = (
        abs(regret_vm - LAW_SRA_REGRET_VM) <= 1e-12
        and abs(overall_vm - LAW_SRA_OVERALL_VM) <= 1e-12
        and abs(regret_ql - LAW_SRA_REGRET_QL) <= 1e-12
        and abs(vm.regret.mean - LAW_SRA_REGRET_VM) <= 1e-3
        and abs(vm.overall_error.mean - LAW_SRA_OVERALL_VM) <= 1e-2
        and abs(ql.regret.mean - LAW_SRA_REGRET_QL) <= 5e-3
        and elapsed < 300.0
    )
    report_line(
        "04b", ok,
        f"SRA regret(vm) {vm.regret.mean:.4f} (law {LAW_SRA_REGRET_VM:.4f}; "
        f"external {BENCHMARK_SRA_REGRET_VM} unreachable), "
        f"overall(vm) {vm.overall_error.mean:.4f} (law {LAW_SRA_OVERALL_VM:.4f}; "
        f"external {BENCHMARK_SRA_OVERALL_VM} unreachable), "
        f"regret(ql) {ql.regret.mean:.4f} (law {LAW_SRA_REGRET_QL:.4f}; "
        f"external {BENCHMARK_SRA_REGRET_QL} unreachable), "
        f"always-treat {always_value:.4f} > external optima, {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert regret_vm == pytest.approx(LAW_SRA_REGRET_VM, abs=1e-12)
    assert overall_vm == pytest.approx(LAW_SRA_OVERALL_VM, abs=1e-12)
    assert regret_ql == pytest.approx(LAW_SRA_REGRET_QL, abs=1e-12)
    assert vm.regret.mean == pytest.approx(LAW_SRA_REGRET_VM, abs=1e-3)
    assert vm.overall_error.mean == pytest.approx(LAW_SRA_OVERALL_VM, abs=1e-2)
    assert ql.regret.mean == pytest.approx(LAW_SRA_REGRET_QL, abs=5e-3)


def test_criterion_05_all_correct_scenario(grid_reports):
    report, elapsed = grid_reports["value-max"]
    row = {m: report.cell("all-correct", m) for m in ("POR", "PHA", "PIPW", "PMR")}
    ok = (
        row["POR"].regret.mean < 1e-3
        and row["PHA"].regret.mean < 1e-3
        and row["PIPW"].regret.mean <= 2e-3
        and row["PMR"].regret.mean <= 2e-3
        and row["PMR"].overall_error.mean <= 0.02
        and elapsed < 900.0
    )
    report_line(
        "05", ok,
        "regrets " + ", ".join(f"{m}={row[m].regret.mean:.2e}" for m in row)
        + f"; PMR overall {row['PMR'].overall_error.mean:.4f}; {elapsed:.0f}s",
    )
    assert row["POR"].regret.mean < 1e-3
    assert row["PHA"].regret.mean < 1e-3
    assert row["PIPW"].regret.mean <= 2e-3
    assert row["PMR"].regret.mean <= 2e-3
    assert row["PMR"].overall_error.mean <= 0.02
    assert elapsed < 900.0


CORRECT_SCENARIOS = {
    "POR": ("all-correct", "m0-correct"),
    "PHA": ("all-correct", "m1-correct"),
    "PIPW": ("all-correct", "m2-correct"),
}


def test_criterion_06_misspecification_pattern(grid_reports):
    problems = []
    for optimizer, (report, _) in grid_reports.items():
        # (a) each single method succeeds exactly where its bridges are correct
        for method, tags in CORRECT_SCENARIOS.items():
            for tag in tags:
                cell = report.cell(tag, method)
                if not (cell.failures == 0 and cell.regret.mean < 0.01):
                    problems.append(f"{optimizer}/{tag}/{method} regret {cell.regret.mean:.4f}")
        # (b) PMR succeeds everywhere except all-wrong, where it must fail
        for tag in ("all-correct", "m0-correct", "m1-correct", "m2-correct"):
            cell = report.cell(tag, "PMR")
            if not cell.regret.mean < 0.01:
                problems.append(f"{optimizer}/{tag}/PMR regret {cell.regret.mean:.4f}")
        if not report.cell("all-wrong", "PMR").regret.mean > 0.05:
            problems.append(f"{optimizer}/all-wrong/PMR did not fail")
        # (c) overall error separates corruption: PMR beats every corrupted
        # method, and corrupted methods are visibly off
        for tag, corrupted in CORRUPTED_BY_SCENARIO.items():
            pmr = report.cell(tag, "PMR").overall_error.mean
            for method in corrupted:
                other = report.cell(tag, method).overall_error.mean
                if not (pmr < other and other > 0.05):
                    problems.append(f"{optimizer}/{tag}/{method} overall {other:.4f} vs PMR {pmr:.4f}")
    report_line("06", not problems, problems or "pattern holds for both optimizers")
    assert not problems


def test_criterion_07_algebraic_equivalences(params, joint, solved):
    data = dgp.sample(params, 1000, seed=31337)
    regimes = [
        dgp.optimal_value(params, "linear")[1],
        *(r for r in __import__("proxidtr").policy.enumerate_class("linear").members[::83]),
    ]
    corrupted = solved.merged(pseudo_bridges(4, ("h21", "q22")))
    worst_alt = worst_plug = 0.0
    pmf = empirical_pmf(data)
    density_fn = {
        "POR": density_por, "PHA": density_pha, "PIPW": density_pipw, "PMR": density_pmr,
    }
    for bridges_used in (solved, corrupted):
        for regime in regimes:
            a = v_hat("PMR", data, bridges_used, regime).estimate
            b = v_hat_pmr_alt(data, bridges_used, regime).estimate
            worst_alt = max(worst_alt, abs(a - b))
            for method, fn in density_fn.items():
                direct = v_hat(method, data, bridges_used, regime).estimate
                plug = value_from_density(fn(pmf, bridges_used), pmf, regime)
                worst_plug = max(worst_plug, abs(direct - plug))
    from proxidtr.identify import _hybrid_density

    cond, _ = observed_conditional(joint)
    degenerate = (
        np.array_equal(_hybrid_density(cond, solved, 0), density_por(joint, solved).g)
        and np.array_equal(_hybrid_density(cond, solved, 2), density_pipw(joint, solved).g)
    )
    ok = worst_alt <= 1e-12 and worst_plug <= 1e-12 and degenerate
    report_line("07", ok, f"alt-form gap {worst_alt:.1e}, plug-in gap {worst_plug:.1e}, "
                          f"hybrid degeneration exact: {degenerate}")
    assert worst_alt <= 1e-12
    assert worst_plug <= 1e-12
    assert degenerate


def test_criterion_08_influence_function(params, joint, solved):
    from proxidtr.estimators import population_v

    regime = dgp.optimal_value(params, "linear")[1]
    truth = dgp.true_value(params, regime)
    population_gap = abs(population_v("PMR", joint, solved, regime) - truth)
    covered = 0
    reps = 100
    for rep in range(reps):
        data = dgp.sample(params, N, seed=50_000 + rep)
        _, bridges_hat = fit_bridges(data)
        est = v_hat("PMR", data, bridges_hat, regime).estimate
        half = 1.96 * np.sqrt(if_variance(data, bridges_hat, regime) / N)
        covered += int(est - half <= truth <= est + half)
    ok = population_gap <= 1e-10 and covered >= 90
    report_line("08", ok, f"population IF mean gap {population_gap:.1e}, coverage {covered}/{reps}")
    assert population_gap <= 1e-10
    assert covered >= 90


def test_criterion_09_bridge_collapse(solved, joint):
    result = bridge_collapse_check(solved.outcome, joint)
    ok = result.equation_residual <= 1e-8 and result.h11_gap <= 1e-8
    report_line("09", ok, f"equation residual {result.equation_residual:.1e}, "
                          f"h11 gap {result.h11_gap:.1e}")
    assert result.equation_residual <= 1e-8
    assert result.h11_gap <= 1e-8


def test_criterion_10_convergence_trend():
    means = {}
    details = []
    for n in (2000, 10000, 35000):
        cfg = ExperimentConfig(scenarios=("all-correct",), methods=("PMR",),
                               n=n, reps=REPS, laplace=0.5)
        cell = run_experiment(cfg).cell("all-correct", "PMR")
        assert cell.count > 0, f"every repetition failed at n={n}"
        means[n] = cell.regret.mean
        details.append(f"n={n}: regret {cell.regret.mean:.4f} ({cell.count}/{REPS} reps)")
    ok = means[10000] <= means[2000] + 0.005 and means[35000] <= means[10000] + 0.005
    report_line("10", ok, "; ".join(details))
    assert means[10000] <= means[2000] + 0.005
    assert means[35000] <= means[10000] + 0.005
