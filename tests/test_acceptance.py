"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 6 is a full-scale run, gated behind BINOMCI_FULL=1.
"""
import math
import os
import time

import pytest

from binomci.exact_eval import (
    MinCoverage,
    PGrid,
    calibrate_alpha,
    expected_width_exact,
    mean_coverage,
    min_coverage,
)
from binomci.expansions import ExpansionOrder, cp_bound_expansion
from binomci.methods import (
    ApproxFamily,
    ConfidenceLevel,
    MethodSpec,
    Observation,
    Side,
    beta_prior_interval,
    clopper_pearson_interval,
)
from binomci.sample_size import (
    SampleSizeQuery,
    cp_n_one_sided,
    cp_n_two_sided,
    exact_n,
    n_plus_adjusted,
    n_plus_two_sided,
    prior_moment,
)
from binomci.special import (
    BetaParams,
    JEFFREYS_PRIOR,
    UNIFORM_PRIOR,
    beta_quantile,
    binom_pmf,
    reg_inc_beta,
)
import binomci.exact_eval as exact_eval
import numpy as np

LEVEL = ConfidenceLevel(0.05)


def check(cid: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {cid}: {detail}"


def test_criterion_1_sample_size_worked_example():
    start = time.perf_counter()
    formula = cp_n_two_sided(SampleSizeQuery(0.05, LEVEL, p0=0.05)).n
    search = exact_n(MethodSpec.clopper_pearson(), 0.05, 0.05, LEVEL).n
    achieved = expected_width_exact(MethodSpec.clopper_pearson(), 331, 0.05, LEVEL)
    elapsed = time.perf_counter() - start
    ok = formula == 331 and search == 329 and abs(achieved - 0.0498) <= 2e-4 and elapsed < 1.0
    check(
        "1",
        ok,
        f"formula n={formula} (want 331), exact n={search} (want 329), "
        f"E(L)={achieved:.5f} (want 0.0498 +/- 0.0002), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_remark_expected_length():
    value = expected_width_exact(MethodSpec.clopper_pearson(), 50, 0.01, LEVEL)
    ok = abs(value - 0.044) <= 0.001
    check(
        "2",
        ok,
        f"E(L_CP; n=50, p=0.01) = {value:.5f}, required 0.044 +/- 0.001 "
        f"(enumerated value equals 2 x {value / 2:.5f}; the quoted 0.044 matches "
        f"the half-length, not the length)",
    )


def test_criterion_3_one_sided_sample_size():
    start = time.perf_counter()
    search = exact_n(MethodSpec.clopper_pearson(Side.UPPER), 0.02, 0.5, LEVEL).n
    closed = cp_n_one_sided(SampleSizeQuery(0.02, LEVEL, Side.UPPER, 0.5))
    achieved = expected_width_exact(
        MethodSpec.clopper_pearson(Side.UPPER), closed.n, 0.5, LEVEL
    )
    elapsed = time.perf_counter() - start
    ok = (
        search == 1738
        and 1735 <= closed.n_unrounded <= 1745
        and 0.0198 <= achieved <= 0.0202
        and elapsed < 30.0
    )
    check(
        "3",
        ok,
        f"exact n={search} (want 1738), closed form {closed.n_unrounded:.1f} "
        f"(want within [1735, 1745]), achieved distance {achieved:.5f} at n={closed.n} "
        f"(want within [0.0198, 0.0202]), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_jeffreys_cost_of_exactness():
    worst_round = 0
    worst_cross = 0.0
    for i in range(1, 20):
        p0 = 0.05 * i
        nplus = n_plus_two_sided(ApproxFamily.JEFFREYS, 0.05, p0, LEVEL)
        worst_round = max(worst_round, abs(round(nplus) - 40))
        diff = (
            exact_n(MethodSpec.clopper_pearson(), 0.05, p0, LEVEL).n
            - exact_n(MethodSpec.jeffreys(), 0.05, p0, LEVEL).n
        )
        worst_cross = max(worst_cross, abs(nplus - diff))
    ok = worst_round <= 1 and worst_cross <= 3.0
    check(
        "4",
        ok,
        f"rounded n+ within 40 +/- {worst_round} (want +/- 1) over p0 grid, "
        f"worst |formula - exact difference| = {worst_cross:.2f} (want <= 3)",
    )


def test_criterion_5_coverage_minima_at_250():
    start = time.perf_counter()
    grid = PGrid(0.01, 0.99, 20001)
    jef = min_coverage(MethodSpec.jeffreys(), 250, LEVEL, grid).min_coverage
    wil = min_coverage(MethodSpec.wilson(), 250, LEVEL, grid).min_coverage
    ac = min_coverage(MethodSpec.agresti_coull(), 250, LEVEL, grid).min_coverage
    cp = min_coverage(MethodSpec.clopper_pearson(), 250, LEVEL, grid).min_coverage
    elapsed = time.perf_counter() - start
    ok = (
        abs(jef - 0.88) <= 0.01
        and abs(wil - 0.93) <= 0.005
        and abs(ac - 0.94) <= 0.005
        and cp >= 0.95 - 1e-9
        and elapsed < 60.0
    )
    check(
        "5",
        ok,
        f"min coverage at n=250: Jeffreys {jef:.4f} (0.88 +/- 0.01), "
        f"Wilson {wil:.4f} (0.93 +/- 0.005), AC {ac:.4f} (0.94 +/- 0.005), "
        f"CP {cp:.6f} (>= 0.95 - 1e-9), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_6_large_n_undercoverage():
    if not os.environ.get("BINOMCI_FULL"):
        print("ACCEPTANCE 6: SKIPPED - full-scale run; set BINOMCI_FULL=1 to enable")
        pytest.skip("full-scale coverage run is gated behind BINOMCI_FULL=1")
    start = time.perf_counter()
    grid = PGrid(0.01, 0.99, 200000)
    jef = min_coverage(MethodSpec.jeffreys(), 2000, LEVEL, grid).min_coverage
    wil = min_coverage(MethodSpec.wilson(), 2000, LEVEL, grid).min_coverage
    elapsed = time.perf_counter() - start
    ok = jef < 0.94 and wil < 0.94 and elapsed < 600.0
    check(
        "6",
        ok,
        f"min coverage at n=2000 over 200000 points: Jeffreys {jef:.4f}, "
        f"Wilson {wil:.4f} (both want < 0.94), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_7_calibration():
    gamma = calibrate_alpha(
        MethodSpec.jeffreys(), 1200, LEVEL, MinCoverage(PGrid(0.01, 0.99, 20001))
    ).alpha
    adjusted = n_plus_adjusted(0.04, 0.5, LEVEL, 0.04)
    ok = 0.03 <= gamma <= 0.05 and abs(adjusted - (-186.0)) <= 1.0
    check(
        "7",
        ok,
        f"calibrated gamma = {gamma:.4f} (want in [0.03, 0.05]), "
        f"adjusted-gamma cost = {adjusted:.2f} (want -186 +/- 1)",
    )


def test_criterion_8_expansion_accuracy():
    worst_second = 0.0
    for x in range(3, 50):
        exact = clopper_pearson_interval(Observation(x, 50), LEVEL).upper
        approx = cp_bound_expansion(Observation(x, 50), LEVEL).upper
        worst_second = max(worst_second, abs(approx - exact))
    worst_third = 0.0
    for x in range(5, 21):
        exact = clopper_pearson_interval(Observation(x, 25), LEVEL)
        approx = cp_bound_expansion(
            Observation(x, 25), LEVEL, order=ExpansionOrder.THIRD_ORDER
        )
        worst_third = max(
            worst_third,
            abs(approx.upper - exact.upper),
            abs(approx.lower - exact.lower),
        )
    ok = worst_second < 0.005 and worst_third < 0.005
    check(
        "8",
        ok,
        f"n=50 second-order worst upper error {worst_second:.5f} (want < 0.005), "
        f"n=25 third-order worst error {worst_third:.5f} (want < 0.005; the true "
        f"maximum 0.00507 at x in {{5, 20}} exceeds the stated tolerance by 1.4%)",
    )


def test_criterion_9_excess_length_corollaries():
    worst = 0.0
    ok = True
    for n in (50, 100, 200):
        bound = 2.0 / n**2 + 0.001
        for p in (0.3, 0.5):
            two = expected_width_exact(
                MethodSpec.clopper_pearson(), n, p, LEVEL
            ) - expected_width_exact(MethodSpec.jeffreys(), n, p, LEVEL)
            one = expected_width_exact(
                MethodSpec.clopper_pearson(Side.UPPER), n, p, LEVEL
            ) - expected_width_exact(MethodSpec.jeffreys(Side.UPPER), n, p, LEVEL)
            err2 = abs(two - 1.0 / n)
            err1 = abs(one - 0.5 / n)
            worst = max(worst, err2 / bound, err1 / bound)
            ok = ok and err2 < bound and err1 < bound
    check(
        "9",
        ok,
        f"excess-length and excess-distance residuals at most {worst:.2f} of the "
        f"2/n^2 + 0.001 budget over n in {{50, 100, 200}}, p in {{0.3, 0.5}}",
    )


def test_criterion_10_prior_moments():
    errs = [
        abs(prior_moment(JEFFREYS_PRIOR) - 1.0 / math.pi),
        abs(prior_moment(UNIFORM_PRIOR) - math.pi / 8.0),
        abs(prior_moment(BetaParams(2, 2)) - 9.0 * math.pi / 64.0),
    ]
    ok = all(e <= 1e-12 for e in errs)
    check(
        "10",
        ok,
        f"R(1/2,1/2), R(1,1), R(2,2) errors {errs[0]:.2e}, {errs[1]:.2e}, "
        f"{errs[2]:.2e} (want <= 1e-12)",
    )


def test_criterion_11_property_suite_spot_checks():
    # The full property suites run as the regular test modules; this
    # criterion re-asserts one representative from each named suite.
    start = time.perf_counter()
    results = {}
    x = beta_quantile(0.975, 4.0, 7.0)
    results["quantile round-trip"] = abs(reg_inc_beta(x, 4.0, 7.0) - 0.975) <= 1e-10
    tail = sum(binom_pmf(j, 40, 0.3) for j in range(12, 41))
    results["tail-beta identity"] = abs(tail - reg_inc_beta(0.3, 12.0, 29.0)) <= 1e-11
    inner = clopper_pearson_interval(Observation(7, 30), LEVEL)
    outer = clopper_pearson_interval(Observation(7, 30), ConfidenceLevel(0.01))
    results["nesting"] = outer.lower <= inner.lower and inner.upper <= outer.upper
    lo_tail = sum(binom_pmf(k, 30, inner.lower) for k in range(7, 31))
    results["test inversion"] = abs(lo_tail - 0.025) <= 1e-9
    cp = clopper_pearson_interval(Observation(5, 17), LEVEL)
    shrunk = beta_prior_interval(Observation(4, 16), LEVEL, UNIFORM_PRIOR)
    results["shrinkage identity"] = abs(cp.lower - shrunk.lower) <= 1e-12
    spec = MethodSpec.wilson()
    closed = mean_coverage(spec, 50, LEVEL)
    ps = (np.arange(100_000) + 0.5) / 100_000
    L, U = exact_eval._bounds_arrays(spec, 50, LEVEL)
    riemann = float(exact_eval._coverage_values(ps, L, U, 50)[0].mean())
    results["mean coverage vs quadrature"] = abs(closed - riemann) <= 1e-4
    gap = (
        cp_n_two_sided(SampleSizeQuery(0.06, LEVEL, p0=0.3)).n
        - exact_n(MethodSpec.clopper_pearson(), 0.06, 0.3, LEVEL).n
    )
    results["formula-vs-search gap"] = 0 <= gap <= 4
    elapsed = time.perf_counter() - start
    failed = [name for name, good in results.items() if not good]
    check(
        "11",
        not failed,
        f"spot checks {'all passed' if not failed else 'failed: ' + ', '.join(failed)} "
        f"({elapsed:.1f}s; full property modules run in the rest of the suite)",
    )
