import math
import random
from pathlib import Path

import numpy as np
import pytest

from binomci.errors import DomainError, UnsupportedSideError
from binomci.methods import (
    ApproxFamily,
    ConfidenceLevel,
    Family,
    MethodSpec,
    Observation,
    Side,
    agresti_coull_interval,
    beta_prior_interval,
    clopper_pearson_bound,
    clopper_pearson_interval,
    interval,
    wald_interval,
    wilson_interval,
)
from binomci.special import SCALAR, BetaParams, JEFFREYS_PRIOR, UNIFORM_PRIOR, binom_pmf
from binomci import exact_eval, methods
from binomci.expansions import cp_bound_expansion, excess_length
from binomci.sample_size import (
    SampleSizeQuery,
    approx_method_n,
    cp_n_one_sided,
    n_plus_one_sided,
    n_plus_two_sided,
)

from oracles import binom_cdf_exact

LEVEL = ConfidenceLevel(0.05)

ALL_SPECS = [
    MethodSpec.clopper_pearson(),
    MethodSpec.clopper_pearson(Side.UPPER),
    MethodSpec.clopper_pearson(Side.LOWER),
    MethodSpec.wald(),
    MethodSpec.wald(Side.UPPER),
    MethodSpec.wald(Side.LOWER),
    MethodSpec.wilson(),
    MethodSpec.agresti_coull(),
    MethodSpec.jeffreys(),
    MethodSpec.jeffreys(Side.UPPER),
    MethodSpec.jeffreys(Side.LOWER),
    MethodSpec.uniform_prior(),
]


class TestTypes:
    def test_observation_validation(self):
        with pytest.raises(DomainError):
            Observation(-1, 10)
        with pytest.raises(DomainError):
            Observation(11, 10)
        with pytest.raises(DomainError):
            Observation(0, 0)
        with pytest.raises(DomainError):
            Observation(1.5, 3)

    def test_observation_rejects_bool_counts(self):
        # bool is a numbers.Integral: Observation(True, 5) used to be x = 1
        for x, n in [(True, 5), (1, True), (False, 3)]:
            with pytest.raises(DomainError, match="integers"):
                Observation(x, n)
        obs = Observation(np.int64(2), np.int32(5))
        assert (obs.x, obs.n) == (2, 5)

    def test_level_caches_quantiles(self):
        lv = ConfidenceLevel(0.1)
        assert lv.z_half == pytest.approx(1.6448536269514715, abs=1e-10)
        assert lv.z_full == pytest.approx(1.2815515655446004, abs=1e-10)
        with pytest.raises(DomainError):
            ConfidenceLevel(0.0)
        with pytest.raises(DomainError):
            ConfidenceLevel(1.0)

    @pytest.mark.parametrize(
        "alpha, z_half, z_full",
        [
            (0.2, "0x1.4813c36e26d34p+0", "0x1.aee8fa73a1335p-1"),
            (0.1, "0x1.a515209676ab8p+0", "0x1.4813c36e26d34p+0"),
            (0.05, "0x1.f5c0331eeff82p+0", "0x1.a515209676ab8p+0"),
            (0.01, "0x1.49b4c64d6915fp+1", "0x1.29c5c4630ff0ep+1"),
            (1e-06, "0x1.39109ad343379p+2", "0x1.30381a97985f1p+2"),
            (1e-12, "0x1.c85a0613db301p+2", "0x1.c2350895b2ea4p+2"),
        ],
    )
    def test_level_quantiles_pinned_bits(self, alpha, z_half, z_full):
        # recorded from the hand-written AS 241 that normal_quantile replaced
        level = ConfidenceLevel(alpha)
        assert (level.z_half, level.z_full) == (float.fromhex(z_half), float.fromhex(z_full))

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-53, 5e-324])
    def test_level_rejects_alpha_whose_half_rounds_away(self, alpha):
        # 1 - alpha/2 rounds to 1, and the error used to name normal_quantile's q
        with pytest.raises(DomainError, match=f"alpha={alpha}"):
            ConfidenceLevel(alpha)
        level = ConfidenceLevel(math.nextafter(2.0**-53, 1.0))
        assert math.isfinite(level.z_half) and math.isfinite(level.z_full)

    @pytest.mark.parametrize(
        "kwargs", [{"z_half": 9.9}, {"z_full": 9.9}], ids=["z_half", "z_full"]
    )
    def test_level_quantiles_are_not_parameters(self, kwargs):
        with pytest.raises(TypeError):
            ConfidenceLevel(0.05, **kwargs)
        with pytest.raises(TypeError):
            ConfidenceLevel(0.05, *kwargs.values())

    def test_method_spec_prior_rules(self):
        with pytest.raises(DomainError):
            MethodSpec(Family.BETA_PRIOR)
        with pytest.raises(DomainError):
            MethodSpec(Family.WALD, prior=BetaParams(1, 1))

    def test_one_sided_wilson_and_ac_rejected(self):
        with pytest.raises(UnsupportedSideError):
            MethodSpec(Family.WILSON, Side.UPPER)
        with pytest.raises(UnsupportedSideError):
            MethodSpec(Family.AGRESTI_COULL, Side.LOWER)

    # One raw enum value per entry point; each used to fall through an `is`
    # chain to another branch, e.g. cp_bound_expansion(..., "upper") gave
    # the lower bound.
    @pytest.mark.parametrize(
        "name, call",
        [
            pytest.param("family", lambda: MethodSpec("cp"), id="MethodSpec-family"),
            pytest.param("side", lambda: MethodSpec.clopper_pearson("upper"), id="MethodSpec-side"),
            pytest.param("side", lambda: SampleSizeQuery(0.05, LEVEL, "upper", 0.3),
                         id="SampleSizeQuery-side"),
            pytest.param("side", lambda: cp_bound_expansion(Observation(25, 50), LEVEL, "upper"),
                         id="cp_bound_expansion-side"),
            pytest.param("order", lambda: cp_bound_expansion(Observation(25, 50), LEVEL, order=3),
                         id="cp_bound_expansion-order"),
            pytest.param("formula", lambda: cp_n_one_sided(
                SampleSizeQuery(0.05, LEVEL, Side.UPPER, 0.3), "derived"), id="cp_n_one_sided"),
            pytest.param("vs", lambda: n_plus_two_sided("wilson", 0.05, 0.3, LEVEL),
                         id="n_plus_two_sided-vs"),
            pytest.param("formula", lambda: n_plus_two_sided(
                ApproxFamily.WILSON, 0.05, 0.3, LEVEL, "derived"), id="n_plus_two_sided-formula"),
            pytest.param("formula", lambda: n_plus_one_sided(0.05, 0.3, LEVEL, "derived"),
                         id="n_plus_one_sided"),
            pytest.param("family", lambda: approx_method_n("wilson", 0.05, 0.3, LEVEL),
                         id="approx_method_n"),
            pytest.param("vs", lambda: excess_length("wilson", 50, 0.3, LEVEL),
                         id="excess_length-vs"),
            pytest.param("order", lambda: excess_length(ApproxFamily.WILSON, 50, 0.3, LEVEL, 2),
                         id="excess_length-order"),
        ],
    )
    def test_raw_enum_value_rejected(self, name, call):
        with pytest.raises(DomainError, match=rf"\b{name}\b"):
            call()

    def test_interval_estimate_endpoint_order(self):
        with pytest.raises(DomainError):
            from binomci.methods import IntervalEstimate

            IntervalEstimate(0.7, 0.3, MethodSpec.wilson(), LEVEL)


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        est = clopper_pearson_interval(Observation(0, 10), LEVEL)
        assert est.lower == 0.0
        assert est.upper == pytest.approx(1.0 - 0.025**0.1, abs=1e-15)
        assert est.upper == pytest.approx(0.30849710781876083, abs=1e-10)

    def test_all_successes_mirror(self):
        est = clopper_pearson_interval(Observation(10, 10), LEVEL)
        assert est.upper == 1.0
        assert est.lower == pytest.approx(0.025**0.1, abs=1e-15)

    def test_interior_against_test_inversion_oracle(self):
        # frozen from bisection on the exact rational binomial tails
        est = clopper_pearson_interval(Observation(3, 10), LEVEL)
        assert est.lower == pytest.approx(0.06673951117773447, abs=1e-11)
        assert est.upper == pytest.approx(0.6524528500599973, abs=1e-11)

    def test_one_sided_bounds(self):
        up = clopper_pearson_bound(Observation(5, 20), LEVEL, Side.UPPER)
        assert up.lower == 0.0
        assert up.upper == pytest.approx(0.4555824040017489, abs=1e-11)
        # tail mass at the bound reproduces the inverted test level
        assert float(binom_cdf_exact(5, 20, up.upper)) == pytest.approx(0.05, abs=1e-9)
        lo = clopper_pearson_bound(Observation(5, 20), LEVEL, Side.LOWER)
        assert lo.upper == 1.0

    def test_one_sided_closed_forms(self):
        up = clopper_pearson_bound(Observation(0, 10), LEVEL, Side.UPPER)
        assert up.upper == pytest.approx(1.0 - 0.05**0.1, abs=1e-15)
        lo = clopper_pearson_bound(Observation(10, 10), LEVEL, Side.LOWER)
        assert lo.lower == pytest.approx(0.05**0.1, abs=1e-15)

    @pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
    @pytest.mark.parametrize("x", [0, 10])
    def test_closed_form_ends_solve_no_quantile(self, monkeypatch, side, x):
        # L at x = n and U at x = 0 are closed forms; the other end there has a
        # posterior shape of 0, so neither end solves a beta quantile
        lanes = []
        quantile = methods.beta_quantile
        monkeypatch.setattr(
            methods, "beta_quantile", lambda *lane: lanes.append(lane) or quantile(*lane)
        )
        interval(MethodSpec.clopper_pearson(side), Observation(x, 10), LEVEL)
        assert lanes == []

    def test_bound_rejects_two_sided(self):
        with pytest.raises(DomainError, match="side upper or lower"):
            clopper_pearson_bound(Observation(5, 20), LEVEL, Side.TWO_SIDED)

    def test_test_inversion_both_tails(self):
        # sum_{k=x}^n pmf(k, n, p_L) = alpha/2 and sum_{k=0}^x pmf(k, n, p_U) = alpha/2
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 80)
            x = rng.randint(1, n - 1)
            est = clopper_pearson_interval(Observation(x, n), LEVEL)
            upper_tail = sum(binom_pmf(k, n, est.lower) for k in range(x, n + 1))
            lower_tail = sum(binom_pmf(k, n, est.upper) for k in range(0, x + 1))
            assert abs(upper_tail - 0.025) <= 1e-9
            assert abs(lower_tail - 0.025) <= 1e-9

    def test_nesting_in_alpha(self):
        # the 99% interval contains the 95% interval for every x, n <= 100
        tight = ConfidenceLevel(0.05)
        wide = ConfidenceLevel(0.01)
        for n in range(1, 101):
            lo_t, up_t = exact_eval._bounds_arrays(MethodSpec.clopper_pearson(), n, tight)
            lo_w, up_w = exact_eval._bounds_arrays(MethodSpec.clopper_pearson(), n, wide)
            assert (lo_w <= lo_t + 1e-12).all()
            assert (up_t <= up_w + 1e-12).all()

    def test_strict_monotonicity_in_alpha(self):
        alphas = [0.01, 0.02, 0.05, 0.1, 0.2]
        for x, n in [(1, 10), (3, 10), (7, 25), (49, 50)]:
            lowers = [
                clopper_pearson_interval(Observation(x, n), ConfidenceLevel(a)).lower
                for a in alphas
            ]
            uppers = [
                clopper_pearson_interval(Observation(x, n), ConfidenceLevel(a)).upper
                for a in alphas
            ]
            assert all(l1 < l2 for l1, l2 in zip(lowers, lowers[1:]))
            assert all(u1 > u2 for u1, u2 in zip(uppers, uppers[1:]))


class TestWald:
    def test_symmetric_case(self):
        est = wald_interval(Observation(5, 10), LEVEL)
        assert est.lower == pytest.approx(0.19010248384771916, abs=1e-12)
        assert est.upper == pytest.approx(0.8098975161522808, abs=1e-12)

    def test_degenerate_boundary(self):
        est = wald_interval(Observation(0, 10), LEVEL)
        assert (est.lower, est.upper) == (0.0, 0.0)
        est = wald_interval(Observation(10, 10), LEVEL)
        assert (est.lower, est.upper) == (1.0, 1.0)

    def test_one_sided_uses_full_quantile(self):
        est = wald_interval(Observation(5, 10), LEVEL, Side.UPPER)
        assert est.lower == 0.0
        assert est.upper == pytest.approx(0.7600741939377786, abs=1e-12)

    def test_clamping(self):
        est = wald_interval(Observation(1, 10), LEVEL)
        assert est.lower == 0.0
        assert 0.0 < est.upper < 1.0


class TestWilsonAgrestiCoull:
    def test_wilson_symmetric(self):
        est = wilson_interval(Observation(5, 10), LEVEL)
        assert est.lower == pytest.approx(0.236593090512564, abs=1e-12)
        assert est.upper == pytest.approx(0.7634069094874361, abs=1e-12)
        assert est.lower + est.upper == pytest.approx(1.0, abs=1e-12)

    def test_wilson_zero_successes(self):
        z2 = LEVEL.z_half**2
        est = wilson_interval(Observation(0, 10), LEVEL)
        assert est.lower == 0.0
        assert est.upper == pytest.approx(z2 / (10 + z2), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-6])
    def test_wilson_ends_inside_unit_interval(self, alpha):
        # center -/+ halfwidth used to round outside [0, 1] at x = 0 or n:
        # 251 of these 1,414 (alpha, n) pairs did, e.g. -5.55e-17 at n = 2
        level = ConfidenceLevel(alpha)
        for n in [*range(1, 201), 10**4, 10**6]:
            L, U = exact_eval._bounds_for_x(
                MethodSpec.wilson(), n, level, np.arange(n + 1, dtype=float)
            )
            assert L[0] == 0.0 and U[-1] == 1.0, n
            assert np.all((L >= 0.0) & (L <= U) & (U <= 1.0)), n
        assert wilson_interval(Observation(0, 2), level).lower == 0.0
        assert wilson_interval(Observation(10**4, 10**4), level).upper == 1.0

    def test_wilson_mirror(self):
        a = wilson_interval(Observation(3, 10), LEVEL)
        b = wilson_interval(Observation(7, 10), LEVEL)
        assert a.lower == pytest.approx(1.0 - b.upper, abs=1e-14)

    def test_ac_recentering(self):
        est = agresti_coull_interval(Observation(2, 50), LEVEL)
        assert est.lower == pytest.approx(0.003413936544708507, abs=1e-12)
        assert est.upper == pytest.approx(0.14222585465798154, abs=1e-12)

    def test_ac_contains_shrunk_center(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 200)
            x = rng.randint(0, n)
            est = agresti_coull_interval(Observation(x, n), LEVEL)
            z2 = LEVEL.z_half**2
            center = (x + z2 / 2.0) / (n + z2)
            assert est.lower <= center <= est.upper
            wil = wilson_interval(Observation(x, n), LEVEL)
            assert wil.lower <= center <= wil.upper


class TestBetaPrior:
    def test_jeffreys_symmetric(self):
        est = beta_prior_interval(Observation(5, 10), LEVEL, JEFFREYS_PRIOR)
        assert est.lower + est.upper == pytest.approx(1.0, abs=1e-12)

    def test_shrinkage_identity_worked_example(self):
        cp = clopper_pearson_interval(Observation(4, 12), LEVEL)
        bayes = beta_prior_interval(Observation(3, 11), LEVEL, UNIFORM_PRIOR)
        assert cp.lower == pytest.approx(bayes.lower, abs=1e-13)

    def test_shrinkage_identity_grid(self):
        # CP bounds equal uniform-prior bounds with one success and one
        # failure removed, across all interior observations up to n = 60
        for n in range(2, 61):
            for x in range(1, n):
                cp = clopper_pearson_interval(Observation(x, n), LEVEL)
                low = beta_prior_interval(Observation(x - 1, n - 1), LEVEL, UNIFORM_PRIOR)
                mirror = beta_prior_interval(
                    Observation(n - x - 1, n - 1), LEVEL, UNIFORM_PRIOR
                )
                assert cp.lower == pytest.approx(low.lower, abs=1e-12)
                assert cp.upper == pytest.approx(1.0 - mirror.lower, abs=1e-12)

    def test_uniform_upper_bound_example(self):
        est = beta_prior_interval(Observation(2, 20), LEVEL, UNIFORM_PRIOR, Side.UPPER)
        assert est.upper == pytest.approx(0.27055169930453127, abs=1e-11)

    def test_cp_contains_jeffreys(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 120)
            x = rng.randint(0, n)
            alpha = rng.choice([0.01, 0.05, 0.1])
            lv = ConfidenceLevel(alpha)
            cp = clopper_pearson_interval(Observation(x, n), lv)
            jf = beta_prior_interval(Observation(x, n), lv, JEFFREYS_PRIOR)
            assert cp.lower <= jf.lower + 1e-12
            assert jf.upper <= cp.upper + 1e-12


# Posterior ends at x = 0 with a small prior shape and n near 10^6.  The
# front factor's Lanczos ln B(a, n + b) is off by about 2.6e-9 absolute
# there, and the small root's 1/a power amplifies that: the first lower end
# is 5.008479952935006e-10 against a root of 5.0084799158777783e-10, 7.4e-9
# off, the second upper end 1.4e-8; scipy's betaincinv gives the first root.
LARGE_N_SMALL_SHAPE_ENDS = [
    (BetaParams(0.35, 1.62), Side.TWO_SIDED, 856_623, 0.14873181941503608),
    (BetaParams(0.28, 1.11), Side.UPPER, 385_857, 0.08402486643329388),
]


@pytest.mark.xfail(strict=True, reason="the Lanczos ln B of the front factor at large n")
@pytest.mark.parametrize("prior, side, n, alpha", LARGE_N_SMALL_SHAPE_ENDS)
def test_large_n_small_shape_end_matches_series_root(prior, side, n, alpha):
    # the oracle is a 50-digit bisection on the direct series
    # I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) sum_k (a + b)_k / (a + 1)_k x^k,
    # which converges fast at these x; mpmath's betainc raises NoConvergence
    mp = pytest.importorskip("mpmath")
    level = ConfidenceLevel(alpha)
    est = beta_prior_interval(Observation(0, n), level, prior, side)
    got, q = (est.lower, level.alpha / 2.0) if side is Side.TWO_SIDED else (est.upper, 1.0 - level.alpha)
    with mp.workdps(50):
        a, b, q = mp.mpf(prior.a), n + mp.mpf(prior.b), mp.mpf(q)

        def inc(x):
            total, term, k = mp.mpf(0), mp.mpf(1), 0
            while term > total * mp.mpf(10) ** -50:
                total += term
                term *= (a + b + k) / (a + 1 + k) * x
                k += 1
            return x**a * (1 - x) ** b / (a * mp.beta(a, b)) * total

        lo, hi = mp.mpf(got) * (1 - mp.mpf("1e-6")), mp.mpf(got) * (1 + mp.mpf("1e-6"))
        assert inc(lo) < q < inc(hi)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if inc(mid) < q else (lo, mid)
        root = (lo + hi) / 2
    assert abs(got - float(root)) <= 1e-12 * float(root)


class TestEquivariance:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_mirror_symmetry(self, spec):
        rng = random.Random(hash(str(spec)) & 0xFFFF)
        mirrored_side = {
            Side.TWO_SIDED: Side.TWO_SIDED,
            Side.UPPER: Side.LOWER,
            Side.LOWER: Side.UPPER,
        }[spec.side]
        mirror = MethodSpec(spec.family, mirrored_side, spec.prior)
        for _ in range(15):
            n = rng.randint(1, 90)
            x = rng.randint(0, n)
            a = interval(spec, Observation(x, n), LEVEL)
            b = interval(mirror, Observation(n - x, n), LEVEL)
            assert a.lower == pytest.approx(1.0 - b.upper, abs=1e-12)
            assert a.upper == pytest.approx(1.0 - b.lower, abs=1e-12)


class TestDispatch:
    def test_dispatch_matches_direct_calls(self):
        obs = Observation(4, 17)
        assert interval(MethodSpec.wilson(), obs, LEVEL) == wilson_interval(obs, LEVEL)
        assert interval(MethodSpec.clopper_pearson(), obs, LEVEL) == (
            clopper_pearson_interval(obs, LEVEL)
        )

    def test_quantile_families_stay_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 150)
            x = rng.randint(0, n)
            for spec in (MethodSpec.clopper_pearson(), MethodSpec.jeffreys()):
                est = interval(spec, Observation(x, n), LEVEL)
                assert 0.0 <= est.lower <= est.upper <= 1.0


TINY_PRIOR = BetaParams(0.001, 0.001)
GOLDEN_SPECS = {
    "cp": MethodSpec.clopper_pearson(),
    "cp-upper": MethodSpec.clopper_pearson(Side.UPPER),
    "cp-lower": MethodSpec.clopper_pearson(Side.LOWER),
    "wald": MethodSpec.wald(),
    "wald-upper": MethodSpec.wald(Side.UPPER),
    "wald-lower": MethodSpec.wald(Side.LOWER),
    "wilson": MethodSpec.wilson(),
    "ac": MethodSpec.agresti_coull(),
    "jeffreys": MethodSpec.jeffreys(),
    "jeffreys-upper": MethodSpec.jeffreys(Side.UPPER),
    "jeffreys-lower": MethodSpec.jeffreys(Side.LOWER),
    "beta0.001": MethodSpec.beta_prior(TINY_PRIOR),
    "beta0.001-upper": MethodSpec.beta_prior(TINY_PRIOR, Side.UPPER),
    "beta0.001-lower": MethodSpec.beta_prior(TINY_PRIOR, Side.LOWER),
}


def _golden_rows():
    # One row per spec, n in {1, 2, 17, 100, 10^4, 10^6}, x in {0, 1, n // 3,
    # n - 1, n} and alpha in {0.2, 0.05, 1e-6}: "name n x alpha lower upper",
    # endpoints as float.hex().  Recorded before the per-family formulas were
    # merged into one table; four CP closed-form rows (x = 0 or x = n) were
    # re-recorded, each by 1 ulp of tail^(1/n), and the quantile rows (CP
    # with 0 < x < n, Jeffreys, Beta(0.001, 0.001)) again for the Halley
    # solver's stop rule and for the bfrac form of the continued fraction
    # (290 endpoints in 256 rows, by at most 4.41e-11 relative, at
    # n = 10^6).  Seven Wilson rows were re-recorded when its ends at x = 0
    # and x = n became exactly 0 and 1 (each had been a few ulps off, up to
    # 2^-54 below 0).  When the float kernel took numpy's log, log1p, exp
    # and power, interval()'s rows became the engine's table of the time:
    # 56 endpoints in 55 quantile rows moved, by at most 1.24e-12 relative.
    # When ln Gamma's Lanczos terms kept a small argument's low digits, the
    # 31 Beta(0.001, 0.001) rows moved, by at most 1.14e-10 relative (an end
    # at x = 0 scales ln B's error by 1/a).  When a Halley round after a near
    # step carried I_x - q by the density's integral over it instead of a
    # second continued fraction, 376 endpoints in 314 quantile rows moved, by
    # at most 1.43e-11 relative at alpha 1e-6 and 7.03e-13 at .05 and .2.
    # The Wald, Agresti-Coull and CP closed-form endpoints never moved.
    lines = Path(__file__).with_name("golden_intervals.txt").read_text().splitlines()
    assert len(lines) == 1050
    for line in lines:
        name, n, x, alpha, lower, upper = line.split()
        yield line, GOLDEN_SPECS[name], int(n), int(x), ConfidenceLevel(float(alpha)), (lower, upper)


class TestGolden:
    # interval() and the engine share every bit, so both drivers are held to
    # the one table.
    def test_interval_golden_table(self):
        wrong = []
        for line, spec, n, x, level, want in _golden_rows():
            est = interval(spec, Observation(x, n), level)
            if (est.lower.hex(), est.upper.hex()) != want:
                wrong.append((line, est.lower.hex(), est.upper.hex()))
        assert wrong == []

    def test_engine_golden_table(self):
        # The engine's endpoints: exact_eval._bounds_for_x, the vector
        # quantile kernel.
        wrong = []
        for line, spec, n, x, level, want in _golden_rows():
            L, U = exact_eval._bounds_for_x(spec, n, level, np.array([float(x)]))
            if (float(L[0]).hex(), float(U[0]).hex()) != want:
                wrong.append((line, float(L[0]).hex(), float(U[0]).hex()))
        assert wrong == []


class TestOneTable:
    # methods._endpoints is the one family table: interval() runs it over
    # SCALAR on floats, the engine over VECTOR on arrays of lanes.

    @pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
    def test_cp_closed_form_ends_keep_their_bits_however_n_arrives(self, side):
        # numpy powers a 0-d exponent by other loops than an array's (at
        # exponent 0.5, a square root), so the engine must keep n an array:
        # interval() (a float n), _bounds_arrays (an int n) and _bounds_for_x
        # (an array n) give the closed forms tail^(1/n) and 1 - tail^(1/n)
        # the same bits
        spec = MethodSpec.clopper_pearson(side)
        rng = random.Random(3201)
        wrong = []
        for _ in range(200):
            level = ConfidenceLevel(10.0 ** rng.uniform(-6, -0.3))
            for n in (1, 2, 3, 4):
                arrays = exact_eval._bounds_arrays(spec, n, level)
                ends = exact_eval._bounds_for_x(spec, np.full(2, float(n)), level, np.array([0.0, n]))
                for i, x in enumerate((0, n)):
                    est = interval(spec, Observation(x, n), level)
                    got = {(est.lower, est.upper), (arrays[0][x], arrays[1][x]), (ends[0][i], ends[1][i])}
                    if len(got) != 1:
                        wrong.append((n, x, level.alpha, got))
        assert wrong == []

    @pytest.mark.parametrize("alpha", [0.05, 0.95])
    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_float_row_returns_floats(self, name, alpha):
        # alpha 0.95 takes a one-sided Wald z below 0, whose end is clipped
        # to [0, 1] from the other side
        spec, level = GOLDEN_SPECS[name], ConfidenceLevel(alpha)
        for n in (1, 2, 50, 10**6):
            xs = sorted({0, 1, n - 1, n})
            L, U = exact_eval._bounds_for_x(spec, n, level, np.array(xs, dtype=float))
            for i, x in enumerate(xs):
                ends = methods._endpoints(
                    SCALAR, spec, float(n), level, float(x), methods.beta_quantile
                )
                assert [type(end) for end in ends] == [float, float], (n, x)
                assert ends == (L[i], U[i]), (n, x)
                assert 0.0 <= ends[0] <= ends[1] <= 1.0, (n, x)
