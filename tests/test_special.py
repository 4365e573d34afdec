import math
import random

import numpy as np
import pytest

from binomci.errors import ConvergenceError, DomainError
from binomci import special as sp
from binomci.exact_eval import _betacf_vec, _betainc_vec

from oracles import (
    binom_cdf_exact,
    binom_pmf_exact,
    binom_tail_exact,
    beta_quantile_bisect,
    normal_quantile_bisect,
    reg_inc_beta_int,
)


class TestLogGamma:
    def test_gamma_of_one(self):
        assert sp.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_of_half(self):
        assert sp.log_gamma(0.5) == pytest.approx(0.5723649429247, abs=1e-13)

    def test_gamma_of_ten_exact_factorial(self):
        # ln(9!) = ln(362880), an exact integer reference
        assert sp.log_gamma(10.0) == pytest.approx(12.801827480081469, abs=1e-12)

    def test_absolute_accuracy_moderate_range(self):
        rng = random.Random(101)
        for _ in range(500):
            x = rng.uniform(0.5, 30.0)
            assert abs(sp.log_gamma(x) - math.lgamma(x)) <= 1e-12

    def test_relative_accuracy_large_range(self):
        # At large arguments the value itself is ~1e7, so a 1e-12 absolute
        # target is finer than one ulp; relative accuracy is the meaningful
        # contract there.
        rng = random.Random(202)
        for _ in range(500):
            x = math.exp(rng.uniform(math.log(30.0), math.log(1e6)))
            ref = math.lgamma(x)
            assert abs(sp.log_gamma(x) - ref) <= 1e-12 + 5e-14 * abs(ref)

    def test_relative_accuracy_small_arguments(self):
        # Below 1, x + (k - 1) keeps x's low digits in each Lanczos term;
        # (x + k) - 1 lost them (0.105 absolute at 1e-15, a zero divisor below 2^-53).
        rng = np.random.default_rng(303)
        for x in (10.0 ** rng.uniform(-300.0, -1.0, 20_000)).tolist():
            ref = math.lgamma(x)
            assert abs(sp.log_gamma(x) - ref) <= 1e-15 * abs(ref), x

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sp.log_gamma(0.0)
        with pytest.raises(DomainError):
            sp.log_gamma(-1.5)


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert sp.reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-14)

    def test_symmetric_midpoint(self):
        assert sp.reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_exact_binomial_sum(self):
        # I_0.4(3, 8) equals an exact rational tail sum of Bin(10, 0.4)
        assert sp.reg_inc_beta(0.4, 3.0, 8.0) == pytest.approx(
            0.8327102464, rel=1e-13
        )

    def test_symmetry_identity(self):
        rng = random.Random(7)
        for _ in range(400):
            a = math.exp(rng.uniform(math.log(0.3), math.log(1e3)))
            b = math.exp(rng.uniform(math.log(0.3), math.log(1e3)))
            x = rng.uniform(1e-6, 1.0 - 1e-6)
            left = sp.reg_inc_beta(x, a, b)
            right = 1.0 - sp.reg_inc_beta(1.0 - x, b, a)
            assert abs(left - right) <= 1e-13

    def test_binomial_tail_identity_small_n(self):
        # sum_{j=k}^n pmf(j, n, p) = I_p(k, n-k+1) for a grid of n <= 60
        rng = random.Random(11)
        for n in [2, 5, 13, 27, 41, 60]:
            for _ in range(12):
                k = rng.randint(1, n)
                p = rng.choice([0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
                exact = float(binom_tail_exact(k, n, p))
                assert abs(sp.reg_inc_beta(p, float(k), float(n - k + 1)) - exact) <= 1e-11

    def test_edges(self):
        assert sp.reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert sp.reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            sp.reg_inc_beta(1.5, 1.0, 1.0)


class TestContinuedFraction:
    def test_fraction_matches_mpmath_below_the_switch_point(self):
        # The fraction alone is I_x / front = 2F1(a + b, 1; a + 1; x) / a
        # (DLMF 8.17.8).  A large first shape just below the switch point is
        # where the modified-Lentz form cancelled (3.3e-11); with lambda taken
        # from the exact y = 1 - x it stays within a few ulps.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1708)
        a = 10.0 ** rng.uniform(3, 6, 60)
        b = rng.uniform(0.5, 50.0, 60)
        x = (a + 1.0) / (a + b + 2.0) * (1.0 - 10.0 ** rng.uniform(-9, -4, 60))
        y = 1.0 - x  # exact: x > 1/2
        worst = 0.0
        with mp.workdps(40):
            for ai, bi, xi, yi in zip(a.tolist(), b.tolist(), x.tolist(), y.tolist()):
                exact = mp.hyp2f1(mp.mpf(ai) + bi, 1, mp.mpf(ai) + 1, xi) / ai
                worst = max(worst, float(abs(sp._betacf(ai, bi, xi, yi) / exact - 1)))
        assert worst <= 1e-14
        # the lane driver runs the same arithmetic, so it gives the same bits
        assert _betacf_vec(a, b, x, y).tolist() == [
            sp._betacf(*lane) for lane in zip(a.tolist(), b.tolist(), x.tolist(), y.tolist())
        ]

    def test_large_shape_lane_converges_in_few_terms(self, monkeypatch):
        # A plain renormalized recurrence on the Lentz coefficients wandered
        # here for 745 terms; bfrac's terms converge in 26.
        calls = []
        real = sp._bfrac_round
        monkeypatch.setattr(sp, "_bfrac_round", lambda *s: calls.append(1) or real(*s))
        a, b, x = 999999.5, 1.5, 0.99999665
        assert x < (a + 1.0) / (a + b + 2.0)
        sp._betacf(a, b, x, 1.0 - x)
        assert len(calls) <= 30

    def test_zero_denominator_is_a_convergence_error_naming_the_lane(self):
        # a made-up state whose term 1 has alpha = 0 (b = 1) and beta = 0
        # (c + 1 + y = -2): the division raises on floats, and the float loop,
        # which also finishes the vector driver's last lanes, names the lane
        with pytest.raises(ConvergenceError, match=r"a=1\.0, b=1\.0, x=0\.5"):
            sp._bfrac_from(range(1, 3), 1.0, 1.0, 0.5, 2.0, -3.5, 1.5, 0.0, 1.0, 1.0)

    def test_no_zero_denominator_over_the_shape_range(self):
        # Shapes 10^[-3, 6], x uniform on (0, 1) or near the switch point.
        # The scalar driver raises on a zero denominator where numpy would
        # give inf; neither happens.  Against scipy each lane stays within
        # the front factor's own error, 128 eps times the size of its
        # exponent (ln-gamma values included), amplified by (1 - I) / I where
        # the mirror takes a difference from 1 -- a bound the modified-Lentz
        # form met too.  Values below 1e-100 are left out: scipy's own error
        # reaches 2e-5 there (at I = 2.8e-279).
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(1709)
        size = 20_000
        a = 10.0 ** rng.uniform(-3, 6, size)
        b = 10.0 ** rng.uniform(-3, 6, size)
        switch = (a + 1.0) / (a + b + 2.0)
        near = switch * (1.0 + rng.uniform(-1e-3, 1e-3, size) * 10.0 ** rng.uniform(-6, 0, size))
        x = np.clip(np.where(rng.random(size) < 0.5, near, rng.uniform(0, 1, size)), 1e-300, 1 - 1e-16)
        scalar = np.array([sp.reg_inc_beta(*lane) for lane in zip(x.tolist(), a.tolist(), b.tolist())])
        vector = _betainc_vec(x, a, b)
        assert np.isfinite(vector).all()
        assert np.isfinite(scalar).all()
        ref = special.betainc(a, b, x)
        exponent = (
            np.abs(a * np.log(x)) + np.abs(b * np.log1p(-x)) + np.abs(special.gammaln(a))
            + np.abs(special.gammaln(b)) + np.abs(special.gammaln(a + b)) + 1.0
        )
        kept = ref > 1e-100
        amplified = np.maximum(1.0, (1.0 - ref[kept]) / ref[kept])
        bound = 128 * 2.2e-16 * exponent[kept] * amplified * ref[kept]
        for got in (scalar, vector):
            assert (np.abs(got[kept] - ref[kept]) <= bound).all()

    def test_a_column_of_terms_has_the_bits_of_each_term(self):
        # The lane driver computes a block of terms' coefficients at once,
        # with n as a column of floats; each row must equal that term's call
        # with a Python int n, which the float loop makes.
        rng = np.random.default_rng(3101)
        size = 2_000
        a = 10.0 ** rng.uniform(-3, 6, size)
        b = 10.0 ** rng.uniform(-3, 6, size)
        x = (a + 1.0) / (a + b + 2.0) * rng.uniform(0, 1, size)
        ab, c, yp1, *_ = sp._bfrac_start(sp.VECTOR, a, b, x, 1.0 - x)
        for m in (1, 2, 9, 1993):
            column = np.arange(m, m + 8.0)[:, None]
            rows = sp._bfrac_terms(sp.VECTOR, column, a, b, x, ab, c, yp1)
            assert rows[0].shape == rows[1].shape == (8, size)
            for j in range(8):
                alpha, beta = sp._bfrac_terms(sp.VECTOR, m + j, a, b, x, ab, c, yp1)
                assert rows[0][j].tolist() == alpha.tolist()
                assert rows[1][j].tolist() == beta.tolist()


class TestBetaQuantile:
    def test_uniform_median(self):
        assert sp.beta_quantile(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_a_one(self):
        for n in [1, 2, 5, 10, 50, 331, 2000]:
            for q in [1e-5, 0.025, 0.5, 0.975]:
                expect = 1.0 - (1.0 - q) ** (1.0 / n)
                assert sp.beta_quantile(q, 1.0, float(n)) == pytest.approx(
                    expect, abs=1e-12
                )

    def test_against_bisection_oracle(self):
        # bisection against the exact binomial-tail beta cdf
        ref = beta_quantile_bisect(0.975, 4, 7, lambda x, a, b: reg_inc_beta_int(x, a, b))
        assert ref == pytest.approx(0.6524528500599973, abs=1e-12)
        assert sp.beta_quantile(0.975, 4.0, 7.0) == pytest.approx(ref, abs=1e-12)

    def test_roundtrip(self):
        rng = random.Random(31)
        qs = [1e-6, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6]
        for _ in range(250):
            a = math.exp(rng.uniform(math.log(0.4), math.log(2e3)))
            b = math.exp(rng.uniform(math.log(0.4), math.log(2e3)))
            q = rng.choice(qs)
            x = sp.beta_quantile(q, a, b)
            assert abs(sp.reg_inc_beta(x, a, b) - q) <= 1e-10

    @pytest.mark.parametrize("q,a,b", [(0.015, 47.0, 154.0), (0.985, 197.0, 4.0)])
    def test_zero_newton_step_ends_the_solve(self, monkeypatch, q, a, b):
        # CP endpoint lanes at n=200 whose Newton step rounds to zero on the
        # bracket edge; they used to bisect on for 42 and 45 cdf evaluations
        calls = []
        inc = sp.reg_inc_beta
        monkeypatch.setattr(sp, "reg_inc_beta", lambda *args: calls.append(1) or inc(*args))
        sp.beta_quantile(q, a, b)
        assert 1 <= len(calls) <= 6

    def test_cp_lanes_take_few_cdf_calls(self, monkeypatch):
        # CP endpoint lanes at alpha=0.05 (every x, every 7th at n=5000):
        # a stop rule that chased the rounding noise of I_x needed up to 11
        # cdf evaluations; Halley steps with the predicted stop need 5
        calls = []
        inc = sp.reg_inc_beta
        monkeypatch.setattr(sp, "reg_inc_beta", lambda *args: calls.append(1) or inc(*args))
        for n in (50, 500, 5000):
            for x in range(0, n, max(1, n // 700)):
                lanes = [(0.975, x + 1.0, float(n - x))]
                if x > 0:
                    lanes.append((0.025, float(x), n - x + 1.0))
                for q, a, b in lanes:
                    calls.clear()
                    sp.beta_quantile(q, a, b)
                    assert 1 <= len(calls) <= 6, (q, a, b)

    def test_vector_select_calls_only_the_branch_a_uniform_mask_takes(self):
        # the quantile seed's branches run on every lane only where its mask is mixed
        calls = []
        f, g = np.array([1.0, 2.0]), np.array([3.0, 4.0])

        def select(mask):
            return sp.VECTOR.select(
                np.array(mask), lambda: calls.append("f") or f, lambda: calls.append("g") or g
            )

        assert select([True, True]) is f
        assert select([False, False]) is g
        assert calls == ["f", "g"]
        assert select([True, False]).tolist() == [1.0, 4.0]
        assert calls == ["f", "g", "f", "g"]

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(sp, "_QUANTILE_MAXIT", 1)
        with pytest.raises(ConvergenceError):
            sp.beta_quantile(0.975, 4.0, 7.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.beta_quantile(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            sp.beta_quantile(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            sp.beta_quantile(0.5, -1.0, 1.0)

    @pytest.mark.parametrize("shape", [math.nan, math.inf])
    def test_non_finite_shapes_name_beta_quantile(self, shape):
        # nan and inf used to pass the shape check and fail inside log_beta
        for a, b in ((shape, 1.0), (1.0, shape)):
            with pytest.raises(DomainError, match="beta_quantile requires finite a, b > 0"):
                sp.beta_quantile(0.5, a, b)


class TestNormalQuantile:
    def test_median(self):
        assert sp.normal_quantile(0.5) == 0.0

    def test_frozen_references(self):
        # roots of the erf-series cdf, computed by bisection
        assert sp.normal_quantile(0.975) == pytest.approx(1.9599639845400545, abs=1e-10)
        assert sp.normal_quantile(0.95) == pytest.approx(1.6448536269514715, abs=1e-10)

    def test_against_series_oracle(self):
        rng = random.Random(47)
        for _ in range(60):
            q = rng.uniform(1e-6, 1.0 - 1e-6)
            assert abs(sp.normal_quantile(q) - normal_quantile_bisect(q)) <= 1e-10

    def test_antisymmetry_exact_on_dyadic(self):
        # for dyadic q, 1 - q is exact, so the mirror must hold bit for bit
        for q in [0.0625, 0.125, 0.25, 0.3125, 0.375, 0.46875]:
            assert sp.normal_quantile(1.0 - q) == -sp.normal_quantile(q)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.normal_quantile(0.0)
        with pytest.raises(DomainError):
            sp.normal_quantile(1.0)
        with pytest.raises(DomainError):
            sp.normal_quantile(math.nan)

    # Recorded from the hand-written AS 241 this function replaced: q in the
    # central region |q - 1/2| <= 0.425, the tail with r = sqrt(-ln min(q, 1 - q))
    # <= 5 and the far tail r > 5, on both halves.  A move in the last bit,
    # from this module or a future standard library, fails here.
    PINNED = [
        (0.5, "0x0.0p+0"),
        (0.4, "-0x1.036d6c4a04b5ap-2"),
        (0.6, "0x1.036d6c4a04b5ap-2"),
        (0.125, "-0x1.267d4c07b0566p+0"),
        (0.875, "0x1.267d4c07b0566p+0"),
        (0.075, "-0x1.7085226d3e523p+0"),
        (0.925, "0x1.7085226d3e524p+0"),  # 0.925 - 0.5 rounds above 0.425: a tail
        (0.05, "-0x1.a515209676abdp+0"),
        (0.95, "0x1.a515209676ab8p+0"),
        (0.025, "-0x1.f5c0331eeff83p+0"),
        (0.975, "0x1.f5c0331eeff82p+0"),
        (0.001, "-0x1.8b8cbb7204470p+1"),
        (0.999, "0x1.8b8cbb7204470p+1"),
        (1e-06, "-0x1.30381a9799f7ep+2"),
        (0.999999, "0x1.30381a97985f1p+2"),
        (1e-10, "-0x1.97203597a2154p+2"),
        (0.9999999999, "0x1.97203589fd4f5p+2"),
        (1e-12, "-0x1.c234fba57a32ap+2"),
        (0.999999999999, "0x1.c2350895b2ea4p+2"),
        (1e-15, "-0x1.fc3f007789667p+2"),
        (0.999999999999999, "0x1.fc40a0611cdeep+2"),
        (1e-50, "-0x1.dddde6ad81776p+3"),
        (1e-100, "-0x1.546010d75521fp+4"),
        (1e-300, "-0x1.286074064c26ep+5"),
    ]

    @pytest.mark.parametrize("q, z", PINNED)
    def test_pinned_bits(self, q, z):
        assert sp.normal_quantile(q) == float.fromhex(z)


class TestBinomial:
    def test_pmf_zero_successes(self):
        # the scalar edge is the vector pmf's exp(n log1p(-p)), with its bits
        ps = [0.01, 0.3, 0.77]
        for n in [1, 7, 50, 333]:
            for p, vec in zip(ps, sp._binom_pmf(sp.VECTOR, np.zeros(len(ps)), n, np.array(ps))):
                assert sp.binom_pmf(0, n, p) == vec

    def test_pmf_step_has_the_same_bits_over_floats_and_arrays(self):
        # k = 0, k = n and between: one array call with mixed k, which runs
        # every branch, one call per lane, and the float step agree under ==
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**7):
            ks = sorted({0, 1, n // 2, n - 1, n} | set(rng.integers(0, n + 1, 6).tolist()))
            k = np.repeat(np.array(ks, dtype=float), 4)
            p = 10.0 ** rng.uniform(-8.0, math.log10(0.5), k.size)
            p = np.where(rng.random(k.size) < 0.5, p, 1.0 - p)
            with np.errstate(divide="ignore", invalid="ignore"):  # unselected k in {0, n}
                whole = sp._binom_pmf(sp.VECTOR, k, n, p).tolist()
            alone = [sp._binom_pmf(sp.VECTOR, k[i:i + 1], n, p[i:i + 1])[0] for i in range(k.size)]
            floats = [sp._binom_pmf(sp.SCALAR, ki, float(n), pi) for ki, pi in zip(k.tolist(), p.tolist())]
            assert whole == alone == floats, n

    def test_cdf_total_mass(self):
        assert sp.binom_cdf(10, 10, 0.3) == 1.0
        assert sp.binom_cdf(1, 1, 0.999) == 1.0

    def test_cdf_brute_force(self):
        assert sp.binom_cdf(3, 10, 0.4) == pytest.approx(
            float(binom_cdf_exact(3, 10, 0.4)), rel=1e-13
        )

    def test_cdf_small_lower_tail_relative(self):
        # 1 - I_p(k + 1, n - k) returned 0.0 for the first three, whose true
        # values are 7.9e-31, 1.3e-25 and 7.1e-136.  The front factor's own
        # error grows with n: up to n = 1000 it reaches 1.7e-12 relative.
        rng = random.Random(29)
        cases = [(0, 100, 0.5), (3, 100, 0.5), (10, 1000, 0.3)]
        for _ in range(100):
            # the exact sum costs k + 1 rational terms: any k up to n = 150,
            # small tails (k <= 30) up to n = 400
            n = rng.randint(1, rng.choice([150, 400]))
            p = rng.choice([rng.uniform(1e-3, 0.999), rng.uniform(0.0, 1e-8),
                            1.0 - rng.uniform(0.0, 1e-8)])
            cases.append((rng.randint(0, n if n <= 150 else 30), n, p))
        for k, n, p in cases:
            exact = float(binom_cdf_exact(k, n, p))
            assert sp.binom_cdf(k, n, p) == pytest.approx(exact, rel=1e-12, abs=0.0), (k, n, p)

    def test_pmf_exact_small_n(self):
        rng = random.Random(13)
        for n in [1, 4, 17, 38, 60]:
            for _ in range(10):
                k = rng.randint(0, n)
                p = rng.uniform(0.05, 0.95)
                exact = float(binom_pmf_exact(k, n, p))
                assert sp.binom_pmf(k, n, p) == pytest.approx(exact, rel=1e-13)

    def test_cdf_matches_beta_identity(self):
        for k, n, p in [(3, 10, 0.4), (0, 5, 0.2), (7, 20, 0.6)]:
            expect = 1.0 - sp.reg_inc_beta(p, k + 1.0, float(n - k))
            assert sp.binom_cdf(k, n, p) == pytest.approx(expect, abs=1e-15)

    def test_degenerate_p(self):
        assert sp.binom_pmf(0, 5, 0.0) == 1.0
        assert sp.binom_pmf(5, 5, 1.0) == 1.0
        assert sp.binom_cdf(3, 5, 0.0) == 1.0
        assert sp.binom_cdf(3, 5, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.binom_pmf(-1, 10, 0.5)
        with pytest.raises(DomainError):
            sp.binom_pmf(11, 10, 0.5)
        with pytest.raises(DomainError):
            sp.binom_cdf(3, 10, 1.5)
        # non-integer k or n: binom_cdf used to return 0.519 and 0.609 here,
        # binom_pmf 1.38e-302 at n = 2000.5 and a TypeError at k = 2.5
        for k, n in [(2.5, 10), (3, 10.5), (3, 2000.5), (3.0, 10)]:
            with pytest.raises(DomainError, match="integer k and n"):
                sp.binom_cdf(k, n, 0.3)
            with pytest.raises(DomainError, match="integer k and n"):
                sp.binom_pmf(k, n, 0.3)

    def test_binomial_rejects_bool_counts(self):
        # bool is a numbers.Integral: binom_pmf(True, 5, .3) used to be k = 1
        for k, n in [(True, 5), (0, True), (False, 3)]:
            for f in (sp.binom_pmf, sp.binom_cdf):
                with pytest.raises(DomainError, match="integer k and n"):
                    f(k, n, 0.3)
        assert sp.binom_pmf(np.int64(1), np.int32(5), 0.3) == sp.binom_pmf(1, 5, 0.3)


class TestBetaParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            sp.BetaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            sp.BetaParams(1.0, -2.0)
        assert sp.JEFFREYS_PRIOR.a == 0.5
        assert sp.UNIFORM_PRIOR == sp.BetaParams(1.0, 1.0)
