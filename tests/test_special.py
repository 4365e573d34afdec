import math
import random

import pytest

from binomci.errors import ConvergenceError, DomainError
from binomci import special as sp

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


class TestBinomial:
    def test_pmf_zero_successes(self):
        for n in [1, 7, 50, 333]:
            for p in [0.01, 0.3, 0.77]:
                assert sp.binom_pmf(0, n, p) == (1.0 - p) ** n

    def test_cdf_total_mass(self):
        assert sp.binom_cdf(10, 10, 0.3) == 1.0
        assert sp.binom_cdf(1, 1, 0.999) == 1.0

    def test_cdf_brute_force(self):
        assert sp.binom_cdf(3, 10, 0.4) == pytest.approx(
            float(binom_cdf_exact(3, 10, 0.4)), rel=1e-13
        )

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


class TestBetaParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            sp.BetaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            sp.BetaParams(1.0, -2.0)
        assert sp.JEFFREYS_PRIOR.a == 0.5
        assert sp.UNIFORM_PRIOR == sp.BetaParams(1.0, 1.0)
