import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from binomci.errors import CalibrationError, ConvergenceError, DomainError
from binomci import exact_eval
from binomci.exact_eval import (
    CoverageReport,
    MeanCoverage,
    MinCoverage,
    PGrid,
    _beta_quantile_vec,
    _betainc_vec,
    _binom_pmf_vec,
    _bounds_arrays,
    _coverage_values,
    calibrate_alpha,
    coverage_probability,
    expected_width_exact,
    expected_widths_batch,
    mean_coverage,
    min_coverage,
)
from binomci.methods import (
    ConfidenceLevel,
    MethodSpec,
    Observation,
    Side,
    interval,
)
from binomci import special as sp
from binomci.special import BetaParams
from oracles import beta_quantile_bisect, binom_pmf_exact, binom_tail_exact, reg_inc_beta_int

LEVEL = ConfidenceLevel(0.05)

FAMILIES = [
    MethodSpec.clopper_pearson(),
    MethodSpec.wald(),
    MethodSpec.wilson(),
    MethodSpec.agresti_coull(),
    MethodSpec.jeffreys(),
    MethodSpec.uniform_prior(),
]


class TestVectorKernel:
    def test_betainc_matches_scalar(self):
        rng = random.Random(17)
        for _ in range(300):
            a = math.exp(rng.uniform(math.log(0.4), math.log(3e3)))
            b = math.exp(rng.uniform(math.log(0.4), math.log(3e3)))
            x = rng.uniform(1e-6, 1 - 1e-6)
            vec = float(_betainc_vec(np.array([x]), np.array([a]), np.array([b]))[0])
            assert vec == sp.reg_inc_beta(x, a, b)

    def test_quantile_matches_scalar(self):
        rng = random.Random(19)
        for _ in range(200):
            a = math.exp(rng.uniform(math.log(0.4), math.log(2e3)))
            b = math.exp(rng.uniform(math.log(0.4), math.log(2e3)))
            q = rng.uniform(1e-5, 1 - 1e-5)
            vec = float(_beta_quantile_vec(np.array([q]), np.array([a]), np.array([b]))[0])
            assert vec == sp.beta_quantile(q, a, b)

    def test_lanes_do_not_depend_on_their_batch(self):
        # finished lanes leave the vector loops mid-run; every lane must still
        # get the bits it gets when solved alone
        rng = np.random.default_rng(23)
        k = 120
        a = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), k))
        b = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), k))
        q = 10.0 ** rng.uniform(-12.0, math.log10(0.5), k)
        q = np.where(rng.random(k) < 0.5, q, 1.0 - q)
        x = _beta_quantile_vec(q, a, b)
        inc = _betainc_vec(x, a, b)
        for i in range(k):
            lane = slice(i, i + 1)
            assert x[i] == _beta_quantile_vec(q[lane], a[lane], b[lane])[0]
            assert inc[i] == _betainc_vec(x[lane], a[lane], b[lane])[0]
        # so a two-sided endpoint array, whose ends are solved in one batch,
        # gets each end's bits from the one-sided spec with the same tail:
        # x = 0 and n (CP's closed forms), several n in one call as
        # expected_widths_batch passes them, and Beta(0.001, 0.001) lanes
        obs = [(x, n) for n in (1, 2, 17, 300) for x in sorted({0, 1, n // 2, n - 1, n})]
        xs, ns = (np.array(v, dtype=float) for v in zip(*obs))
        tiny = BetaParams(0.001, 0.001)
        bounds = exact_eval._bounds_for_x
        for spec in (MethodSpec.clopper_pearson, MethodSpec.jeffreys,
                     lambda side: MethodSpec.beta_prior(tiny, side)):
            for alpha in (0.01, 0.1):
                # two-sided at 2 alpha puts alpha in each tail
                L, U = bounds(spec(Side.TWO_SIDED), ns, ConfidenceLevel(2 * alpha), xs)
                lower = bounds(spec(Side.LOWER), ns, ConfidenceLevel(alpha), xs)[0]
                upper = bounds(spec(Side.UPPER), ns, ConfidenceLevel(alpha), xs)[1]
                assert L.tolist() == lower.tolist() and U.tolist() == upper.tolist()

    @pytest.mark.parametrize(
        "spec",
        [MethodSpec.clopper_pearson(), MethodSpec.jeffreys(),
         MethodSpec.beta_prior(BetaParams(0.001, 0.001))],
        ids=str,
    )
    def test_both_ends_in_one_quantile_call(self, monkeypatch, spec):
        calls = []
        quantile = exact_eval._beta_quantile_vec
        monkeypatch.setattr(
            exact_eval, "_beta_quantile_vec", lambda *args: calls.append(1) or quantile(*args)
        )
        exact_eval._bounds_for_x(spec, 40, LEVEL, np.arange(41.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [1, 2, 40, 2000])
    def test_cp_closed_form_ends_solve_no_lane(self, monkeypatch, n):
        # of CP's 2n + 2 ends over x = 0..n, L(0) = 0 and U(n) = 1 have a zero
        # shape, and L(n) and U(0) closed forms: the kernel solves 2n - 2 lanes
        lanes = []
        quantile = exact_eval._beta_quantile_vec
        monkeypatch.setattr(
            exact_eval, "_beta_quantile_vec",
            lambda q, a, b: lanes.append(q.size) or quantile(q, a, b),
        )
        spec = MethodSpec.clopper_pearson()
        L, U = exact_eval._bounds_for_x(spec, n, LEVEL, np.arange(n + 1.0))
        assert lanes == [2 * n - 2]
        assert (L[0], U[n]) == (0.0, 1.0)
        assert (L[n], U[0]) == pytest.approx((0.025 ** (1 / n), 1 - 0.025 ** (1 / n)), abs=1e-15)

    def test_zero_newton_step_ends_the_solve(self, monkeypatch):
        # every CP endpoint lane at n=200, alpha=0.03: lower bounds solve
        # q=0.015 and upper bounds q=0.985 over the same shapes.  A lane whose
        # Newton step rounds to zero used to bisect on, holding the batch
        # for 44 rounds.  At n=2000 and 20000 (alpha=0.05) a stop rule that
        # chased the rounding noise of I_x took 10 and 12 rounds; Halley
        # steps with the predicted stop take 5 at every n.
        rounds = []
        betainc = exact_eval._betainc_vec
        monkeypatch.setattr(
            exact_eval, "_betainc_vec", lambda *args: rounds.append(1) or betainc(*args)
        )
        for n, alpha, most in ((200, 0.03, 10), (2000, 0.05, 6), (20000, 0.05, 6)):
            rounds.clear()
            x = np.arange(1.0, n + 1.0)
            q = np.repeat([alpha / 2.0, 1.0 - alpha / 2.0], x.size)
            _beta_quantile_vec(q, np.tile(x, 2), np.tile(n + 1.0 - x, 2))
            assert 1 <= len(rounds) <= most, n

    def test_quantiles_match_scipy_at_every_n(self):
        # the stop rule may end a solve early only where the kernel's own
        # error dominates: per n, the worst relative error of both solvers
        # against scipy's betaincinv stays within twice the worst error of a
        # solver that iterated on to dx <= 1e-15 x (1.9e-9 at n = 10^6 comes
        # from the Lanczos ln-gamma in the front factor of I_x)
        betaincinv = pytest.importorskip("scipy.special").betaincinv
        bounds = {
            20: 1e-14, 100: 8e-14, 300: 4e-13, 1000: 1e-13,
            2600: 2e-12, 20000: 7e-11, 150000: 9e-11, 1000000: 4e-9,
        }
        rng = np.random.default_rng(2013)
        for n, bound in bounds.items():
            # x log-uniform from either edge, where the root is small or near 1
            u = np.floor(np.exp(rng.uniform(0.0, math.log(n + 1.0), 12))).astype(int) - 1
            lanes = []
            for x in np.where(rng.random(12) < 0.5, u, n - u):
                for q in (0.005, 0.025, 0.05, 0.95, 0.975, 0.995):
                    if x > 0:
                        lanes.append((q, x, n - x + 1.0))  # CP lower shapes
                    if x < n:
                        lanes.append((q, x + 1.0, n - x))  # CP upper shapes
                    lanes.append((q, x + 0.5, n - x + 0.5))  # Jeffreys
            q, a, b = (np.array(v, dtype=float) for v in zip(*lanes))
            ref = betaincinv(a, b, q)
            vec = _beta_quantile_vec(q, a, b)
            scalar = np.array([sp.beta_quantile(*lane) for lane in lanes])
            worst = max(np.max(np.abs(vec - ref) / ref), np.max(np.abs(scalar - ref) / ref))
            assert worst <= bound, n

    def test_formerly_stalled_lanes_match_bisection_oracle(self):
        lanes = [
            (0.015, 38, 163), (0.015, 27, 174), (0.015, 99, 102),
            (0.025, 4, 997), (0.015, 47, 154), (0.985, 197, 4),
        ]
        q, a, b = (np.array(v, dtype=float) for v in zip(*lanes))
        vec = _beta_quantile_vec(q, a, b)
        for (qi, ai, bi), x in zip(lanes, vec):
            ref = beta_quantile_bisect(qi, ai, bi, reg_inc_beta_int)
            # 1e-13, or n * 2e-16 above n = 500: the Lanczos ln-gamma in the
            # beta front factor errs by 1.6e-13 relative at (0.025, 4, 997)
            rel = max(1e-13, 2e-16 * (ai + bi))
            assert x == pytest.approx(ref, rel=rel)
            assert sp.beta_quantile(qi, float(ai), float(bi)) == pytest.approx(ref, rel=rel)

    def test_quantile_budget_error_names_failing_lane(self, monkeypatch):
        monkeypatch.setattr(exact_eval, "_QUANTILE_MAXIT", 1)
        with pytest.raises(ConvergenceError, match=r"q=0\.3, a=4\.0, b=7\.0"):
            _beta_quantile_vec(np.array([0.3, 0.2]), np.array([4.0, 30.0]), np.array([7.0, 50.0]))

    def test_continued_fraction_budget_error_names_failing_lane(self, monkeypatch):
        monkeypatch.setattr(exact_eval, "_CF_MAXIT", 1)
        with pytest.raises(ConvergenceError, match=r"a=4\.0, b=7\.0, x=0\.3"):
            _betainc_vec(np.array([0.3, 0.2]), np.array([4.0, 30.0]), np.array([7.0, 50.0]))

    @pytest.mark.parametrize("spec, n, x", [
        (MethodSpec.jeffreys(), 200, np.arange(201.0)),
        (MethodSpec.clopper_pearson(), 2000, np.arange(2001.0)),
        (MethodSpec.clopper_pearson(), 2000, np.array([1.0, 5, 40, 300, 999, 1500, 1999])),
    ], ids=["jeffreys-200", "cp-2000", "cp-7-x"])
    def test_halley_hands_its_last_lanes_to_floats(self, monkeypatch, spec, n, x):
        # a lane runs the continued fraction about once: in round 1 and after
        # a far step, while a near step carries I_x - q by the density's
        # integral.  The vector fraction runs at most 1.05 lanes per solved
        # lane, and never on _FLOAT_LANES lanes or fewer: those take the
        # float fraction, and the last lanes of a solve the float loop, with
        # the bits of the vector loop (test_float_tail_does_not_move_a_bit)
        lanes, solved = [], []
        betainc, quantile = exact_eval._betainc_vec, exact_eval._beta_quantile_vec
        monkeypatch.setattr(
            exact_eval, "_betainc_vec", lambda *args: lanes.append(args[0].size) or betainc(*args)
        )
        monkeypatch.setattr(
            exact_eval, "_beta_quantile_vec",
            lambda *args: solved.append(args[0].size) or quantile(*args),
        )
        exact_eval._bounds_for_x(spec, n, LEVEL, x)
        assert sum(lanes) <= 1.05 * sum(solved), (lanes, solved)
        assert all(k > exact_eval._FLOAT_LANES for k in lanes), lanes

    def test_float_tail_does_not_move_a_bit(self, monkeypatch):
        # the continued fraction's last few lanes finish over Python floats;
        # with _FLOAT_LANES = 0 every lane stays in the vector loop to the end
        rng = np.random.default_rng(23)  # the lanes of test_lanes_do_not_depend_on_their_batch
        k = 120
        a = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), k))
        b = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), k))
        q = 10.0 ** rng.uniform(-12.0, math.log10(0.5), k)
        q = np.where(rng.random(k) < 0.5, q, 1.0 - q)
        specs = (MethodSpec.clopper_pearson(), MethodSpec.jeffreys(),
                 MethodSpec.beta_prior(BetaParams(0.3, 2.0)))

        def outputs():
            exact_eval._bounds_arrays.cache_clear()
            x = _beta_quantile_vec(q, a, b)
            got = [x, _betainc_vec(x, a, b)]
            for spec in specs:
                for n in (1, 20, 2000, 20_000):
                    got.extend(_bounds_arrays(spec, n, LEVEL))
                    got.append(mean_coverage(spec, n, LEVEL))
            exact_eval._bounds_arrays.cache_clear()
            return [np.asarray(v).tolist() for v in got]

        default = outputs()
        monkeypatch.setattr(exact_eval, "_FLOAT_LANES", 0)
        assert outputs() == default

    def test_term_blocks_do_not_move_a_bit(self, monkeypatch):
        # the continued fraction runs blocks of up to _BLOCK_TERMS terms;
        # one-term blocks give the same bits on the lanes and outputs of
        # test_float_tail_does_not_move_a_bit and on one batch of 5,000
        # lanes, which starts in one-term blocks and widens them as it retires
        rng = np.random.default_rng(23)
        k = 120
        a = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), k))
        b = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), k))
        q = 10.0 ** rng.uniform(-12.0, math.log10(0.5), k)
        q = np.where(rng.random(k) < 0.5, q, 1.0 - q)
        big = 5_000
        a_big, b_big = 10.0 ** rng.uniform(-3, 6, (2, big))
        x_big, q_big = rng.uniform(0, 1, (2, big))
        specs = (MethodSpec.clopper_pearson(), MethodSpec.jeffreys(),
                 MethodSpec.beta_prior(BetaParams(0.3, 2.0)))

        def outputs():
            exact_eval._bounds_arrays.cache_clear()
            x = _beta_quantile_vec(q, a, b)
            got = [x, _betainc_vec(x, a, b)]
            for spec in specs:
                for n in (1, 20, 2000, 20_000):
                    got.extend(_bounds_arrays(spec, n, LEVEL))
                    got.append(mean_coverage(spec, n, LEVEL))
            got.append(_betainc_vec(x_big, a_big, b_big))
            got.append(_beta_quantile_vec(q_big, a_big, b_big))
            exact_eval._bounds_arrays.cache_clear()
            return [np.asarray(v).tolist() for v in got]

        default = outputs()
        monkeypatch.setattr(exact_eval, "_BLOCK_TERMS", 1)
        assert outputs() == default

    @pytest.mark.parametrize("lanes, rows", [(5_000, 1), (100, 8)])
    def test_block_rows_follow_the_lane_budget(self, monkeypatch, lanes, rows):
        # a batch above _BLOCK_VALUES = 4,096 lanes keeps one-term blocks;
        # a small one computes _BLOCK_TERMS = 8 terms' coefficients at once
        blocks = []
        terms = exact_eval._bfrac_terms
        monkeypatch.setattr(exact_eval, "_bfrac_terms", lambda xp, n, *lane: (
            blocks.append((n.shape[0], lane[0].size)) or terms(xp, n, *lane)))
        rng = np.random.default_rng(3102)
        a, b = 10.0 ** rng.uniform(-3, 6, (2, lanes))
        _betainc_vec(rng.uniform(0, 1, lanes), a, b)
        assert blocks[0] == (rows, lanes)
        assert all(k == rows for k, size in blocks if size == lanes), blocks

    def test_density_integral_matches_mpmath(self):
        # a near step's err update, I_xn = I_x + the density's integral from
        # x to xn (five-point Gauss-Legendre), against 40-digit mpmath on
        # 500 seeded near steps (_halley_round's rule at up to _NEAR), x a
        # quantile of shapes in 10^[-2, 4] mirrored as the solver mirrors it:
        # within 1e-17 + (1e-15 + 2 eps M) of the integral, eps M the rounding
        # of _log_beta_kernel's terms, whose sums reach the thousands at large
        # shapes (at most 1.44 (1e-15 + eps M) seen); lgb is correctly rounded
        # here, so that ln Gamma's own error stays out.  Both namespaces give
        # the same bits.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3401)
        steps = []
        while len(steps) < 500:
            a, b = (float(v) for v in 10.0 ** rng.uniform(-2.0, 4.0, 2))
            q = float(10.0 ** rng.uniform(-6.0, math.log10(0.5)))
            q = q if rng.random() < 0.5 else 1.0 - q
            x = sp.beta_quantile(q, a, b)
            if x > 0.5:  # the mirror of _quantile_start
                a, b, x = b, a, sp.beta_quantile(1.0 - q, b, a)
            g = (a - 1.0) / x - (b - 1.0) / (1.0 - x)
            h2 = (a - 1.0) / x / x + (b - 1.0) / (1.0 - x) / (1.0 - x)
            scale = abs(g) + math.sqrt(abs(h2)) + 1.0 / x + 1.0 / (1.0 - x)
            xn = x + rng.choice((-1.0, 1.0)) * sp._NEAR * rng.uniform(0.01, 1.0) / scale
            if 0.0 < xn < 1.0 and xn != x:
                steps.append((x, xn, a, b))
        x, xn, a, b = (np.array(v) for v in zip(*steps))
        wrong = []
        with mp.workdps(40):
            lgb = np.array([float(mp.log(mp.beta(ai, bi))) for ai, bi in zip(a, b)])
            got = sp._density_integral(sp.VECTOR, x, xn, a, b, lgb)
            for i, (xi, xni, ai, bi) in enumerate(steps):
                assert sp._density_integral(sp.SCALAR, xi, xni, ai, bi, float(lgb[i])) == got[i]
                A, B = mp.mpf(ai), mp.mpf(bi)
                ref = mp.quad(lambda t: t ** (A - 1) * (1 - t) ** (B - 1), [xi, xni]) / mp.beta(A, B)
                m = abs(ai - 1.0) * abs(math.log(xi)) + abs(bi - 1.0) * abs(math.log1p(-xi))
                rounding = 2.0 * 2.0**-52 * (m + abs(lgb[i]))
                if abs(got[i] - ref) > 1e-17 + (1e-15 + rounding) * abs(ref):
                    wrong.append((xi, xni, ai, bi, float(abs(got[i] / ref - 1))))
        assert wrong == []

    def test_binom_pmf_matches_mpmath(self):
        # Loader's saddle-point pmf against 40-digit mpmath, per n: within
        # B(n), about twice the worst error seen where ln pmf >= -50, plus
        # 12 eps |ln pmf|, since exp() turns the rounding of an exponent
        # near -500 into ~5e-14 relative error (5.2 eps |ln pmf| seen).
        # The Lanczos ln-gamma differences reach 1.3e-12 at 10^3 and 6e-8
        # at 10^7 on the same lanes.  The scalar binom_pmf runs the same
        # forms with the same libm, so it gives the same bits on every lane;
        # at k = 0 and k = n the power forms (1 - p)^n and p^n it replaced,
        # whose rounding of 1 - p grows n-fold, reach 239 times the bound at
        # 10^7 on edge lanes.
        mp = pytest.importorskip("mpmath")
        bounds = {
            10: 1.5e-14, 100: 6e-14, 1000: 5e-14, 10**4: 8e-14,
            10**5: 2.5e-13, 10**6: 5e-13, 10**7: 2.2e-12,
        }
        with mp.workdps(40):
            for n, bound in bounds.items():
                lanes = set()
                for p in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.999):
                    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
                    for z in (-8.0, -3.0, -1.0, 0.0, 0.5, 1.0, 3.0, 8.0):
                        k = round(mean + z * sd)
                        if 0 <= k <= n:
                            lanes.add((k, p))
                for k in (0, 1, 2, n // 3, n - 2, n - 1, n):
                    lanes.update((k, p) for p in (0.01, 0.5, 0.99, 1.0 / n, 1.0 - 1.0 / n))
                k, p = (np.array(v, dtype=float) for v in zip(*sorted(lanes)))
                got = _binom_pmf_vec(k, n, p)
                for ki, pi, g in zip(k, p, got):
                    x = int(ki)
                    ref = mp.binomial(n, x) * mp.mpf(pi) ** x * (1 - mp.mpf(pi)) ** (n - x)
                    if ref < mp.mpf("1e-300"):
                        continue
                    tol = bound + 12 * 2.0**-52 * abs(float(mp.log(ref)))
                    assert abs(float(g / ref) - 1.0) <= tol, (n, ki, pi)
                    assert sp.binom_pmf(x, n, float(pi)) == g, ("scalar", n, ki, pi)

    def test_log_gamma_matches_scalar(self):
        # the one Lanczos ln-gamma over arrays and over floats, one libm
        xs = np.concatenate([[0.5, 1.0, 2.5, 10.0, 123.4, 5000.0],
                             np.exp(np.random.default_rng(31).uniform(-7.0, 16.0, 20_000))])
        vec = sp._log_gamma(sp.VECTOR, xs)
        assert vec.tolist() == [sp.log_gamma(x) for x in xs.tolist()]

    def test_bounds_match_methods_module(self):
        rng = random.Random(29)
        for spec in FAMILIES:
            n = rng.randint(2, 60)
            L, U = _bounds_arrays(spec, n, LEVEL)
            for x in range(n + 1):
                est = interval(spec, Observation(x, n), LEVEL)
                assert (L[x], U[x]) == (est.lower, est.upper)

    def test_scalar_and_engine_endpoints_agree(self):
        # interval() and the engine run one endpoint table and the same
        # kernel steps over one libm, so every endpoint has the same bits,
        # Beta(0.001, 0.001)'s x = 0 and x = n too, where a shape of 0.001
        # turns a relative error e in I_x into about e / 0.001 in the quantile
        tiny = BetaParams(0.001, 0.001)
        specs = (
            [MethodSpec.clopper_pearson(s) for s in Side]
            + [MethodSpec.wald(s) for s in Side]
            + [MethodSpec.wilson(), MethodSpec.agresti_coull(), MethodSpec.uniform_prior()]
            + [MethodSpec.jeffreys(s) for s in Side]
            + [MethodSpec.beta_prior(tiny, s) for s in Side]
        )
        # about 40 x per n, all in one engine batch (lanes do not depend on
        # their batch, so these are the bits of _bounds_arrays too)
        obs = [
            (x, n)
            for n in (1, 2, 17, 100, 1000, 5000)
            for x in sorted({*range(0, n + 1, max(1, n // 40)), n - 1, n})
        ]
        xs, ns = (np.array(v, dtype=float) for v in zip(*obs))
        for spec in specs:
            for alpha in (0.01, 0.05, 0.2):
                level = ConfidenceLevel(alpha)
                L, U = exact_eval._bounds_for_x(spec, ns, level, xs)
                scalar = [interval(spec, Observation(x, n), level) for x, n in obs]
                assert [(e.lower, e.upper) for e in scalar] == list(zip(L, U))

    def test_seeded_intervals_equal_engine_bits(self):
        # random observations: CP, Jeffreys and Beta priors with shapes in
        # 10^[-2, 1], n up to 10^6, alpha in 10^[-6, -0.4], every side
        rng = random.Random(2029)
        rows = []
        for _ in range(1000):
            family = rng.randrange(3)
            side = rng.choice(list(Side))
            if family == 0:
                spec = MethodSpec.clopper_pearson(side)
            elif family == 1:
                spec = MethodSpec.jeffreys(side)
            else:
                prior = BetaParams(10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-2, 1))
                spec = MethodSpec.beta_prior(prior, side)
            n = int(10.0 ** rng.uniform(0, 6))
            x = rng.choice((0, n, rng.randint(0, n)))
            rows.append((spec, x, n, ConfidenceLevel(10.0 ** rng.uniform(-6, -0.4))))
        wrong = []
        for spec, x, n, level in rows:
            est = interval(spec, Observation(x, n), level)
            L, U = exact_eval._bounds_for_x(spec, n, level, np.array([float(x)]))
            if (est.lower, est.upper) != (L[0], U[0]):
                wrong.append((str(spec), x, n, level.alpha))
        assert wrong == []

    def test_bounds_monotone_all_families(self):
        for spec in FAMILIES:
            for n, alpha in [(10, 0.05), (100, 0.01), (1000, 0.01), (250, 0.2)]:
                L, U = _bounds_arrays(spec, n, ConfidenceLevel(alpha))
                assert (np.diff(L) >= 0).all()
                assert (np.diff(U) >= 0).all()


def brute_force_expected_width(spec, n, p, level):
    total = 0.0
    for x in range(n + 1):
        est = interval(spec, Observation(x, n), level)
        if spec.side is Side.TWO_SIDED:
            w = est.upper - est.lower
        elif spec.side is Side.UPPER:
            w = est.upper - p
        else:
            w = p - est.lower
        total += sp.binom_pmf(x, n, p) * w
    return total


def brute_force_coverage(spec, n, p, level):
    total = 0.0
    for x in range(n + 1):
        est = interval(spec, Observation(x, n), level)
        if est.lower <= p <= est.upper:
            total += sp.binom_pmf(x, n, p)
    return total


class TestExpectedWidth:
    def test_matches_brute_force_enumeration(self):
        rng = random.Random(37)
        specs = FAMILIES + [
            MethodSpec.clopper_pearson(Side.UPPER),
            MethodSpec.clopper_pearson(Side.LOWER),
            MethodSpec.jeffreys(Side.UPPER),
            MethodSpec.wald(Side.LOWER),
        ]
        for spec in specs:
            n = rng.randint(2, 70)
            p = rng.uniform(0.02, 0.98)
            got = expected_width_exact(spec, n, p, LEVEL)
            assert got == pytest.approx(
                brute_force_expected_width(spec, n, p, LEVEL), abs=1e-10
            )

    def test_known_value_from_sample_size_example(self):
        got = expected_width_exact(MethodSpec.clopper_pearson(), 331, 0.05, LEVEL)
        assert got == pytest.approx(0.0498, abs=2e-4)

    def test_wald_width_self_consistency(self):
        # E(width) = 2 z E(sqrt(p_hat q_hat)) / sqrt(n), summed directly
        n, p = 60, 0.5
        z = LEVEL.z_half
        direct = sum(
            sp.binom_pmf(x, n, p) * 2.0 * z * math.sqrt((x / n) * (1 - x / n) / n)
            for x in range(n + 1)
        )
        got = expected_width_exact(MethodSpec.wald(), n, p, LEVEL)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_batch_equals_single(self):
        spec = MethodSpec.jeffreys(Side.UPPER)
        ns = [17, 40, 173, 612]
        batch = expected_widths_batch(spec, ns, 0.37, LEVEL)
        for n, v in zip(ns, batch):
            assert v == expected_width_exact(spec, n, 0.37, LEVEL)

    def test_cached_arrays_give_the_subset_solve_bits(self):
        # expected_width_exact reads the cached endpoint arrays where its pmf
        # reaches at least half of x = 0..n, or the arrays are held, and
        # solves only the x it reads otherwise; expected_widths_batch always
        # solves the subset.  All three must give the same bits.
        tiny = BetaParams(0.001, 0.001)
        specs = [MethodSpec.clopper_pearson(side) for side in Side] + [
            MethodSpec.jeffreys(), MethodSpec.beta_prior(tiny), MethodSpec.wilson(),
            MethodSpec.wald(), MethodSpec.agresti_coull(),
        ]
        level = ConfidenceLevel(0.0731)  # a level no other test uses, so no key is held
        ps = [1e-3, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999]
        paths = set()
        for spec in specs:
            for n in (1, 2, 20, 50, 100, 500):
                for p in ps:
                    before = _bounds_arrays.cache_info()
                    single = expected_width_exact(spec, n, p, level)
                    after = _bounds_arrays.cache_info()
                    paths.add((after.misses - before.misses, after.hits - before.hits))
                    assert single == expected_widths_batch(spec, [n], p, level)[0], (spec, n, p)
        # array solved, array read, subset solved
        assert paths == {(1, 0), (0, 1), (0, 0)}

    def test_repeated_key_solves_no_quantile(self, monkeypatch):
        spec = MethodSpec.clopper_pearson()
        level = ConfidenceLevel(0.0732)
        calls = []
        quantile = exact_eval._beta_quantile_vec
        monkeypatch.setattr(
            exact_eval, "_beta_quantile_vec", lambda *args: calls.append(1) or quantile(*args)
        )
        expected_width_exact(spec, 50, 0.3, level)
        assert len(calls) >= 1
        calls.clear()
        # the same key again, a sweep over p, and a tail p whose pmf reaches
        # few x: all read the held arrays
        for p in (0.3, 0.31, 0.6, 0.9, 0.001):
            expected_width_exact(spec, 50, p, level)
        assert calls == []

    def test_below_half_query_leaves_the_cache_alone(self):
        spec = MethodSpec.clopper_pearson()
        level = ConfidenceLevel(0.0733)
        before = _bounds_arrays.cache_info()
        expected_width_exact(spec, 500, 0.01, level)
        after = _bounds_arrays.cache_info()
        assert (after.misses, after.hits, after.entries) == (
            before.misses, before.hits, before.entries
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expected_width_exact(MethodSpec.wilson(), 10, 0.0, LEVEL)
        with pytest.raises(DomainError):
            expected_width_exact(MethodSpec.wilson(), 0, 0.5, LEVEL)

    def test_weights_match_mpmath_per_n(self):
        # the ratio walk's weights against 40-digit mpmath, on about 80
        # lanes spread over the x with pmf above 1e-17, both ends of that
        # range and the mode; each bound is about twice the worst error seen,
        # which grows with the walk's length
        mp = pytest.importorskip("mpmath")
        bounds = {
            1: 5e-16, 2: 5e-16, 20: 2.5e-15, 100: 8e-15, 2600: 3.5e-14,
            20_000: 9e-14, 154_055: 2.5e-13, 10**6: 6e-13, 10**7: 1.6e-12,
        }
        with mp.workdps(40):
            for n, bound in bounds.items():
                for p in (0.3, 0.5) if n == 10**7 else (0.002, 0.02, 0.3, 0.5, 0.97):
                    x, pmf = exact_eval._support(CP, n, p)
                    mode = min(int((n + 1) * p), n)
                    lanes = np.linspace(0, x.size - 1, 80).round().astype(int)
                    lanes = np.union1d(lanes, np.flatnonzero(x == mode))
                    for i in lanes:
                        k = int(x[i])
                        ref = mp.binomial(n, k) * mp.mpf(p) ** k * (1 - mp.mpf(p)) ** (n - k)
                        assert abs(float(pmf[i] / ref) - 1.0) <= bound, (n, p, k)

    def test_weights_match_exact_rationals(self):
        for n in (1, 2, 3, 7, 16, 30):
            for p in (0.002, 0.02, 0.3, 0.5, 0.97, 0.999):
                x, pmf = exact_eval._support(CP, n, p)
                for k, w in zip(x.tolist(), pmf):
                    ref = binom_pmf_exact(k, n, p)
                    assert abs(float(Fraction(w) / ref) - 1.0) <= 3e-15, (n, p, k)

    def test_weights_sum_to_one_at_extreme_p(self):
        for n in (1, 10, 1000, 10**5):
            for p in (1e-300, 1.0 - 1e-16):
                x, pmf = exact_eval._support(MethodSpec.wald(), n, p)
                assert x.size == n + 1
                assert abs(math.fsum(pmf) - 1.0) <= 1e-15, (n, p)

    @pytest.mark.parametrize(
        "spec",
        [MethodSpec.clopper_pearson(), MethodSpec.clopper_pearson(Side.UPPER), MethodSpec.jeffreys()],
        ids=str,
    )
    def test_matches_40_digit_sum_at_its_endpoints(self, spec):
        # the weights' rounding is all that separates the library's expected
        # width from a 40-digit sum of the pmf times the same endpoints
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in (3107, 20_000):
                L, U = _bounds_arrays(spec, n, LEVEL)
                for p in (0.02, 0.3, 0.5):
                    got = expected_width_exact(spec, n, p, LEVEL)
                    P = mp.mpf(p)
                    sd = math.sqrt(n * p * (1.0 - p))
                    ks = range(max(0, int(n * p - 12 * sd)), min(n, int(n * p + 12 * sd)) + 1)
                    ref = mp.fsum(
                        mp.binomial(n, k) * P**k * (1 - P) ** (n - k)
                        * (mp.mpf(U[k]) - (mp.mpf(L[k]) if spec.side is Side.TWO_SIDED else P))
                        for k in ks
                    )
                    assert abs(float(got / ref) - 1.0) <= 1e-14, (n, p)


CP = MethodSpec.clopper_pearson()
BAD_N_CALLS = {
    "min_coverage": lambda n: min_coverage(CP, n, LEVEL, PGrid(0.1, 0.9, 11)),
    "mean_coverage": lambda n: mean_coverage(CP, n, LEVEL),
    "coverage_probability": lambda n: coverage_probability(MethodSpec.wilson(), n, 0.5, LEVEL),
    "expected_width_exact": lambda n: expected_width_exact(CP, n, 0.5, LEVEL),
    "expected_widths_batch": lambda n: expected_widths_batch(MethodSpec.wald(), [5, n], 0.5, LEVEL),
    "calibrate_mean": lambda n: calibrate_alpha(MethodSpec.jeffreys(), n, LEVEL, MeanCoverage()),
    "calibrate_min": lambda n: calibrate_alpha(
        MethodSpec.jeffreys(), n, LEVEL, MinCoverage(PGrid(0.01, 0.99, 2))
    ),
}


@pytest.mark.parametrize("n", [0, -3, 2.5, float("inf"), float("nan")])
@pytest.mark.parametrize("call", BAD_N_CALLS.values(), ids=BAD_N_CALLS.keys())
def test_bad_n_rejected_and_never_cached(call, n):
    # n = 0 and -3 used to give coverage 1 and -0, and calibrate to gamma 0.202;
    # n = 2.5 raised ValueError or IndexError, and inf or nan a ValueError
    # from the expected widths' ln k! table
    with pytest.raises(DomainError, match="integer n >= 1"):
        call(n)
    for spec in (MethodSpec.clopper_pearson(), MethodSpec.wilson(), MethodSpec.jeffreys()):
        assert (spec, n, LEVEL) not in exact_eval._held_bounds


def test_bool_n_rejected():
    # bool is a numbers.Integral: n = True used to run as n = 1, giving an
    # expected width of 0.975 and a mean coverage of 0.999375
    for call in BAD_N_CALLS.values():
        with pytest.raises(DomainError, match="integer n >= 1"):
            call(True)
    assert expected_width_exact(CP, np.int64(20), 0.3, LEVEL) == expected_width_exact(
        CP, 20, 0.3, LEVEL
    )


class TestCoverageProbability:
    def test_matches_brute_force(self):
        rng = random.Random(41)
        for spec in FAMILIES:
            for _ in range(8):
                n = rng.randint(2, 80)
                p = rng.uniform(0.02, 0.98)
                got = coverage_probability(spec, n, p, LEVEL)
                assert got == pytest.approx(
                    brute_force_coverage(spec, n, p, LEVEL), abs=1e-9
                )

    def test_cp_exactness_pointwise(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(2, 150)
            p = rng.uniform(0.01, 0.99)
            got = coverage_probability(MethodSpec.clopper_pearson(), n, p, LEVEL)
            assert got >= 0.95 - 1e-9

    def test_certain_coverage(self):
        # at n=1 both realized CP intervals contain 0.5, so coverage is 1
        assert coverage_probability(MethodSpec.clopper_pearson(), 1, 0.5, LEVEL) == 1.0

    def test_jeffreys_undercoverage_at_n250(self):
        got = coverage_probability(MethodSpec.jeffreys(), 250, 0.01, LEVEL)
        assert got == pytest.approx(0.88, abs=0.01)

    def test_array_of_p_matches_each_float(self):
        p = np.array([[0.013, 0.2, 0.5], [0.77, 0.9, 0.99]])
        got = coverage_probability(MethodSpec.jeffreys(), 60, p, LEVEL)
        assert isinstance(got, np.ndarray) and got.shape == p.shape
        for pi, ci in zip(p.ravel().tolist(), got.ravel().tolist()):
            one = coverage_probability(MethodSpec.jeffreys(), 60, pi, LEVEL)
            assert type(one) is float and one == ci

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, float("nan")])
    def test_every_p_is_checked(self, bad):
        with pytest.raises(DomainError, match="0 < p < 1"):
            coverage_probability(CP, 20, bad, LEVEL)
        with pytest.raises(DomainError, match=f"got p={bad}"):
            coverage_probability(CP, 20, np.array([0.3, 0.6, bad, 0.7]), LEVEL)


def _window(ps, L, U):
    """Covering range [lo, hi] of x at each p, located as the engine does."""
    return np.searchsorted(U, ps, side="left"), np.searchsorted(L, ps, side="right") - 1


def _scan_points(L, U, grid):
    """Grid points plus the realized endpoints in (0, 1), thinned to about
    4,000, and their +/-1e-12 probes."""
    ends = np.concatenate([L, U])
    ends = ends[(ends > 0.0) & (ends < 1.0)]
    ends = ends[:: max(1, ends.size // 4000)]
    ps = np.concatenate([grid, ends * (1.0 - 1e-12), ends, ends * (1.0 + 1e-12)])
    return ps[(ps > 0.0) & (ps < 1.0)]


SCAN_FAMILIES = [
    MethodSpec.clopper_pearson(), MethodSpec.jeffreys(), MethodSpec.wilson(), MethodSpec.wald(),
]


class TestCoverageScan:
    def test_window_sums_match_scipy_at_every_n(self):
        # per n, about twice the worst absolute error against scipy's cdf
        # differences; at 10^5 most of it is scipy's own, at p near 1e-4
        # (the engine's sum is within 1e-16 of mpmath there)
        binom = pytest.importorskip("scipy.stats").binom
        bounds = {1: 5e-16, 5: 1e-15, 50: 1.5e-15, 250: 5e-15, 2000: 2e-14, 10**5: 4e-13}
        for n, bound in bounds.items():
            for spec in SCAN_FAMILIES:
                L, U = _bounds_arrays(spec, n, LEVEL)
                ps = _scan_points(L, U, np.linspace(1e-4, 1.0 - 1e-4, 2001))
                lo, hi = _window(ps, L, U)
                ref = np.where(lo <= hi, binom.cdf(hi, n, ps) - binom.cdf(lo - 1, n, ps), 0.0)
                err = np.max(np.abs(_coverage_values(ps, L, U, n)[0] - ref))
                assert err <= bound, (n, str(spec))

    def test_window_edges_match_exact_rationals(self):
        seen = set()
        for n in (1, 2, 10, 30):
            for spec in SCAN_FAMILIES:
                L, U = _bounds_arrays(spec, n, LEVEL)
                ps = _scan_points(L, U, np.linspace(0.01, 0.99, 41))
                lo, hi = _window(ps, L, U)
                mode = np.floor((n + 1.0) * ps)
                got = _coverage_values(ps, L, U, n)[0]
                for p, g, a, b, m in zip(ps, got, lo, hi, mode):
                    if a > b:
                        seen.add("uncovered")
                        assert g == 0.0
                        continue
                    seen.update(
                        name for name, hit in (
                            ("x_lo = 0", a == 0), ("x_hi = n", b == n), ("n = 1", n == 1),
                            ("mode outside", not a <= m <= b),
                        ) if hit
                    )
                    exact = binom_tail_exact(int(a), n, p) - binom_tail_exact(int(b) + 1, n, p)
                    assert g == pytest.approx(float(exact), abs=1e-15), (n, str(spec), p)
        assert seen == {"uncovered", "x_lo = 0", "x_hi = n", "n = 1", "mode outside"}

    def test_lanes_do_not_depend_on_their_batch(self):
        # the walk drops lanes as their windows end; each lane must still get
        # the bits of C(p) and its one-sided limits it gets alone, which the
        # workers test relies on
        rng = np.random.default_rng(31)
        for spec, n in ((MethodSpec.wald(), 40), (MethodSpec.jeffreys(), 2000)):
            L, U = _bounds_arrays(spec, n, LEVEL)
            ps = rng.permutation(_scan_points(L, U, rng.uniform(1e-4, 1.0 - 1e-4, 200)))[:400]
            batch = _coverage_values(ps, L, U, n)
            for i, p in enumerate(ps):
                alone = _coverage_values(ps[i : i + 1], L, U, n)[:, 0]
                assert batch[:, i].tolist() == alone.tolist(), (n, p)

    @pytest.mark.parametrize("spec", [MethodSpec.clopper_pearson(), MethodSpec.jeffreys()], ids=str)
    def test_blocks_do_not_change_a_bit(self, monkeypatch, spec):
        n, block = 2000, exact_eval._SCAN_BLOCK
        L, U = _bounds_arrays(spec, n, ConfidenceLevel(0.01))
        ends = np.concatenate([L, U])
        ends = ends[(ends > 0.0) & (ends < 1.0)]
        for size in (0, 1, block - 1, block, block + 1, 2 * block + 1, 200_000):
            ps = np.linspace(0.01, 0.99, size)
            ps[::3] = np.resize(ends, ps[::3].size)  # where the limits differ from C(p)
            got = _coverage_values(ps, L, U, n)  # C(p), C(p-) and C(p+)
            assert got.shape == (3, size)
            with monkeypatch.context() as one_block:
                one_block.setattr(exact_eval, "_SCAN_BLOCK", max(size, 1))
                assert np.array_equal(got, _coverage_values(ps, L, U, n)), size

    def test_one_walk_over_both_directions_equals_two(self):
        # the windows of a real scan, walked up and down from their largest
        # term: the sums and the last terms
        n = 300
        L, U = _bounds_arrays(MethodSpec.jeffreys(), n, LEVEL)
        p = np.linspace(0.01, 0.99, 3001)
        lo, hi = _window(p, L, U)
        assert np.all(lo <= hi)  # every p is covered
        s = np.clip(np.floor((n + 1.0) * p), lo, hi)
        top = _binom_pmf_vec(s, n, p)
        walk = exact_eval._walk_sum
        up = walk(top, n - s, p / (1 - p), hi - s, n)
        down = walk(top, s, (1 - p) / p, s - lo, n)
        both = walk(
            np.tile(top, 2),
            np.concatenate([n - s, s]),
            np.concatenate([p / (1 - p), (1 - p) / p]),
            np.concatenate([hi - s, s - lo]),
            n,
        )
        assert np.array_equal(both, np.concatenate([up, down], axis=1))

    def test_one_sided_limits_match_exact_rationals(self):
        # C(e-) sums the window without the x with L(x) = e, C(e+) without
        # those with U(x) = e, at every endpoint e in (0, 1)
        seen = set()
        for n, L, U in _limit_cases():
            ends = np.concatenate([L, U])
            ends = np.unique(ends[(ends > 0.0) & (ends < 1.0)])
            cov, left, right = _coverage_values(ends, L, U, n)
            for e, c, got_left, got_right in zip(ends, cov, left, right):
                lo, hi = _window_at(e, L, U, "closed")
                s = min(max(math.floor((n + 1.0) * e), lo), hi)
                assert c == pytest.approx(_exact_sum(n, e, lo, hi), abs=1e-15), (n, e)
                for side, got in (("left", got_left), ("right", got_right)):
                    a, b = _window_at(e, L, U, side)
                    seen.update(
                        name for name, hit in (
                            ("empty window", a > b),
                            ("edge at the mode", (a, b) != (lo, hi) and s in (lo, hi)
                             and not a <= s <= b),
                            ("run", (b - a) < (hi - lo) - 1),
                        ) if hit
                    )
                    assert got == pytest.approx(_exact_sum(n, e, a, b), abs=1e-15), (n, e, side)
                if e in L and e in U:
                    seen.add("both an L and a U")
        assert seen == {"empty window", "edge at the mode", "run", "both an L and a U"}


# (n, L, U) built by hand: e = .2 and .5 are both an L and a U; at .7 the
# window is {4} alone, so C(.7-) sums nothing; at .3 three x enter at once
# and at .6 three leave
HAND_BOUNDS = [
    (4, [0.0, 0.2, 0.35, 0.5, 0.7], [0.2, 0.4, 0.5, 0.65, 1.0]),
    (6, [0.0, 0.1, 0.3, 0.3, 0.3, 0.5, 0.7], [0.3, 0.45, 0.6, 0.6, 0.6, 0.9, 1.0]),
]


def _limit_cases():
    for n in (1, 2, 10, 30):
        for spec in SCAN_FAMILIES:
            yield (n, *_bounds_arrays(spec, n, LEVEL))
    for n, L, U in HAND_BOUNDS:
        yield n, np.array(L), np.array(U)


def _window_at(e, L, U, side):
    """Covering range of x at e if side is "closed"; beside e, on the left
    {x : L(x) < e <= U(x)}, where the x with L(x) = e have not entered yet,
    and on the right {x : L(x) <= e < U(x)}, where those with U(x) = e have
    left."""
    u_side, l_side = ("left", "right") if side == "closed" else (side, side)
    return int(np.searchsorted(U, e, side=u_side)), int(np.searchsorted(L, e, side=l_side)) - 1


def _exact_infimum(n, L, U, lo, hi):
    """The infimum over [lo, hi] in exact rationals: C(lo+), C(hi-) and both
    one-sided limits at each endpoint inside."""
    ends = np.concatenate([L, U])
    limits = [(lo, "right"), (hi, "left")]
    limits += [(e, side) for e in ends[(ends > lo) & (ends < hi)] for side in ("left", "right")]
    return min(_exact_sum(n, e, *_window_at(e, L, U, side)) for e, side in limits)


def _exact_sum(n, p, a, b):
    """P(a <= X <= b) in exact rationals, as a float; 0 for an empty window."""
    return float(binom_tail_exact(a, n, p) - binom_tail_exact(b + 1, n, p)) if a <= b else 0.0


MIN_FAMILIES = [
    MethodSpec.clopper_pearson(),
    MethodSpec.jeffreys(),
    MethodSpec.wilson(),
    MethodSpec.agresti_coull(),
    MethodSpec.wald(),
]


class TestMinCoverage:
    def test_wilson_and_ac_at_n250(self):
        grid = PGrid(0.01, 0.99, 20001)
        wil = min_coverage(MethodSpec.wilson(), 250, LEVEL, grid)
        assert wil.min_coverage == pytest.approx(0.93, abs=0.005)
        ac = min_coverage(MethodSpec.agresti_coull(), 250, LEVEL, grid)
        assert ac.min_coverage == pytest.approx(0.94, abs=0.005)

    def test_cp_exact_over_central_grid(self):
        rep = min_coverage(MethodSpec.clopper_pearson(), 100, LEVEL, PGrid(0.1, 0.9, 10001))
        assert rep.min_coverage >= 0.95 - 1e-9

    @pytest.mark.parametrize("alpha", [0.2, 0.01])
    @pytest.mark.parametrize("n", [10, 250, 2000])
    @pytest.mark.parametrize("spec", MIN_FAMILIES, ids=str)
    def test_refinement_not_above_grid_minimum(self, spec, n, alpha):
        # the minimum reads no grid point, so a dense grid must never go below it
        level = ConfidenceLevel(alpha)
        grid = PGrid(0.01, 0.99, 20001)
        rep = min_coverage(spec, n, level, grid)
        assert rep.min_coverage <= rep.grid_min_coverage
        assert rep.min_coverage <= coverage_probability(spec, n, grid.lo, level)
        assert rep.min_coverage <= coverage_probability(spec, n, grid.hi, level)
        assert rep.min_coverage <= coverage_probability(spec, n, grid.values(), level).min()

    def test_per_point_retention_and_smoothness(self):
        grid = PGrid(0.2, 0.8, 601)
        p = grid.values()
        cov = coverage_probability(MethodSpec.wilson(), 40, p, LEVEL)
        assert cov.shape == (601,)
        L, U = _bounds_arrays(MethodSpec.wilson(), 40, LEVEL)
        ends = np.concatenate([L, U])
        dp = (0.8 - 0.2) / 600
        # between consecutive grid points with no realized endpoint inside,
        # coverage moves at most at a loosely bounded pmf-derivative rate
        slope_cap = 4.0 * 40 * dp
        for p1, c1, p2, c2 in zip(p, cov, p[1:], cov[1:]):
            if not np.any((ends > p1) & (ends <= p2)):
                assert abs(c2 - c1) <= slope_cap

    def test_argmin_tie_breaks_to_smallest_p(self):
        grid = PGrid(0.3, 0.7, 5)
        rep = min_coverage(MethodSpec.clopper_pearson(), 10, LEVEL, grid)
        p = grid.values()
        cov = coverage_probability(MethodSpec.clopper_pearson(), 10, p, LEVEL)
        assert rep.grid_argmin_p == p[cov == cov.min()].min()

    @pytest.mark.parametrize(
        "spec, n, alpha, grid",
        [
            (MethodSpec.clopper_pearson(), 100, 0.05, PGrid(0.01, 0.99, 20001)),
            (MethodSpec.jeffreys(), 50, 0.05, PGrid(0.01, 0.99, 20001)),
            (MethodSpec.jeffreys(), 20, 0.1, PGrid(0.1, 0.9, 1001)),
            (MethodSpec.wilson(), 100, 0.05, PGrid(0.01, 0.99, 20001)),
            (MethodSpec.agresti_coull(), 250, 0.05, PGrid(0.01, 0.99, 20001)),
        ],
        ids=["cp-100", "jeffreys-50", "jeffreys-20-edges", "wilson-100", "ac-250"],
    )
    def test_mirror_minima_report_the_smaller_p(self, spec, n, alpha, grid):
        # coverage is symmetric under p -> 1 - p for these families, and the
        # two mirror minima differ only by rounding; each case here used to
        # report the one above 1/2
        level = ConfidenceLevel(alpha)
        rep = min_coverage(spec, n, level, grid)
        assert rep.argmin_p <= 0.5 and rep.grid_argmin_p <= 0.5
        # the minimum itself does not move
        assert rep.grid_min_coverage == coverage_probability(spec, n, grid.values(), level).min()

    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.001])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 37, 250, 500, 2000])
    @pytest.mark.parametrize("spec", MIN_FAMILIES, ids=str)
    def test_grid_minimum_matches_full_scan(self, spec, n, alpha):
        # the grid minimum reads only the grid points beside each endpoint;
        # coverage_probability reads every grid point
        level = ConfidenceLevel(alpha)
        grids = [PGrid(0.01, 0.99, 20001), PGrid(0.1, 0.9, 1001), PGrid(0.3, 0.7, 5)]
        if alpha == 0.05 and n >= 250:
            grids.append(PGrid(0.01, 0.99, 200000))
        L, U = _bounds_arrays(spec, n, level)
        ends = np.concatenate([L, U])
        mantissa = np.frexp(ends)[0]
        inner = ends[(ends > 0.0) & (ends < 1.0) & (mantissa > 0.51) & (mantissa < 0.99)]
        if inner.size:
            # 201 points e + j * d, d a power of two, all in e's binade: each
            # is exact, so the middle one is the endpoint e itself
            e = float(inner[inner.size // 2])
            d = math.ldexp(1.0, math.frexp(e)[1] - 16)
            grids.append(PGrid(e - 100 * d, e + 100 * d, 201))
            assert grids[-1].values()[100] == e
        for grid in grids:
            rep = min_coverage(spec, n, level, grid)
            p = grid.values()
            cov = coverage_probability(spec, n, p, level)
            assert rep.grid_argmin_p == exact_eval._argmin_p(p, cov), grid
            if cov.min() < 1.0 - 1e-12:
                assert rep.grid_min_coverage == cov.min(), grid
            else:  # coverage 1 up to rounding
                assert abs(rep.grid_min_coverage - cov.min()) <= 1e-15, grid

    def test_bounded_candidates_keep_the_one_scan_bits(self, monkeypatch):
        # every report field equals the one from the exact minimum's scan with
        # all grid candidates in it, on both sides of the crossover, and with
        # the bounds forced on every report
        rng = random.Random(3701)
        reports, sides = [], set()
        for i in range(200):
            spec = rng.choice(MIN_FAMILIES)
            n = round(3000.0 ** rng.random()) if i % 2 else rng.randrange(300, 3001)
            alpha = 1e-6 if i % 5 == 0 else 10.0 ** rng.uniform(-6.0, math.log10(0.5))
            L, U = _bounds_arrays(spec, n, ConfidenceLevel(alpha))
            ends = np.concatenate([L, U])
            ends = np.unique(ends[(ends > 1e-4) & (ends < 1.0 - 1e-4)])
            points = round(200000.0 ** rng.random()) if i % 2 else rng.randrange(2001, 40001)
            lo, hi = sorted(rng.uniform(1e-4, 1.0 - 1e-4) for _ in range(2))
            if i % 3 == 0 and ends.size >= 2:  # lo, hi or both on an endpoint
                a, b = sorted(rng.sample(range(ends.size), 2))
                lo, hi = [(ends[a], ends[b]), (ends[a], hi), (lo, ends[b])][i % 9 // 3]
            mantissa = np.frexp(ends)[0]
            inner = ends[(mantissa > 0.51) & (mantissa < 0.99) & (ends < 0.99)]
            if i % 7 == 0 and inner.size:  # the binade grid with an endpoint at its middle
                e = float(inner[rng.randrange(inner.size)])
                d = math.ldexp(1.0, math.frexp(e)[1] - 16)
                lo, hi, points = e - 100 * d, e + 100 * d, 201
                assert PGrid(lo, hi, points).values()[100] == e
            if not lo < hi:
                lo, hi = 0.01, 0.99
            reports.append((spec, n, ConfidenceLevel(alpha), PGrid(float(lo), float(hi), max(points, 2))))
            cand = exact_eval._grid_candidates(reports[-1][3].values(), L, U).sum()
            sides.add(bool(cand > exact_eval._ONE_SCAN_CANDIDATES))
        assert sides == {False, True}
        got = [min_coverage(*r) for r in reports]
        monkeypatch.setattr(exact_eval, "_ONE_SCAN_CANDIDATES", 10**9)
        assert [min_coverage(*r) for r in reports] == got
        monkeypatch.setattr(exact_eval, "_ONE_SCAN_CANDIDATES", 0)
        assert [min_coverage(*r) for r in reports] == got

    def test_large_reports_evaluate_few_candidates(self, monkeypatch):
        # the benchmark's coverage-figure keys above the crossover and its
        # 200,000-point scans each evaluate at most 32 grid candidates
        sizes = []
        scan = exact_eval._coverage_over
        monkeypatch.setattr(
            exact_eval, "_coverage_over", lambda p, *rest: sizes.append(p.size) or scan(p, *rest)
        )
        keys = [(spec, n, 0.05, PGrid(lo, hi, 20001))
                for n in (500, 1000, 2000) for lo, hi in ((0.01, 0.99), (0.1, 0.9))
                for spec in MIN_FAMILIES[:4]]
        keys += [(spec, 2000, 0.01, PGrid(0.01, 0.99, 200000)) for spec in MIN_FAMILIES[:4]]
        for spec, n, alpha, grid in keys:
            sizes.clear()
            min_coverage(spec, n, ConfidenceLevel(alpha), grid)
            assert len(sizes) >= 2 and sum(sizes[1:]) <= 32, (spec, n, grid, sizes)

    def test_pieces_take_the_inner_limit_at_each_end(self):
        # over [lo, hi] between consecutive endpoints the infimum is C(lo+) or
        # C(hi-); C(lo-) and C(hi+) lie outside and do not count
        seen = set()
        for n, L, U in _limit_cases():
            ends = np.concatenate([L, U])
            ends = np.unique(ends[(ends > 0.0) & (ends < 1.0)])
            for lo, hi in zip(ends[:-1], ends[1:]):
                inner = {lo: _window_at(lo, L, U, "right"),
                         hi: _window_at(hi, L, U, "left")}
                limit = {p: _exact_sum(n, p, *w) for p, w in inner.items()}
                at = {p: _exact_sum(n, p, *_window_at(p, L, U, "closed")) for p in inner}
                outer = min(_exact_sum(n, lo, *_window_at(lo, L, U, "left")),
                            _exact_sum(n, hi, *_window_at(hi, L, U, "right")))
                argmin_p, got = exact_eval._exact_min(L, U, n, lo, hi)[:2]
                want = min(limit.values())
                assert got == pytest.approx(want, abs=1e-15), (n, lo, hi)
                if abs(limit[lo] - limit[hi]) > 1e-12:
                    assert argmin_p == min(limit, key=limit.get), (n, lo, hi)
                for p, name in ((lo, "C(lo+) below C(lo)"), (hi, "C(hi-) below C(hi)")):
                    if limit[p] == want < at[p] - 1e-12:
                        seen.add(name)
                if outer < want - 1e-12:
                    seen.add("outer limit lower")
                for p, (a, b) in inner.items():
                    closed_a, closed_b = _window_at(p, L, U, "closed")
                    if (closed_b - closed_a) - (b - a) >= 2:
                        seen.add("run")
        assert seen == {"C(lo+) below C(lo)", "C(hi-) below C(hi)", "outer limit lower", "run"}

    @pytest.mark.parametrize("spec", SCAN_FAMILIES, ids=str)
    def test_ends_on_endpoints_through_min_coverage(self, spec):
        # lo and hi exactly on realized endpoints, with endpoints between
        for n in (10, 30):
            L, U = _bounds_arrays(spec, n, LEVEL)
            inner_L = L[(L > 0.0) & (L < 1.0)]
            inner_U = U[(U > 0.0) & (U < 1.0)]
            for lo, hi in ((inner_U[1], inner_L[-2]), (inner_L[1], inner_U[-2])):
                rep = min_coverage(spec, n, LEVEL, PGrid(lo, hi, 11))
                assert rep.min_coverage == pytest.approx(_exact_infimum(n, L, U, lo, hi), abs=1e-15)

    @pytest.mark.parametrize("spec", MIN_FAMILIES, ids=str)
    def test_minimum_is_approached_beside_argmin(self, spec):
        # the coverage at the floats next to argmin_p is not below the
        # minimum, and on one side it is the minimum, within 1e-13 relative
        for n in (10, 50, 250, 2000):
            for alpha in (0.2, 0.05, 0.01):
                level = ConfidenceLevel(alpha)
                rep = min_coverage(spec, n, level, PGrid(0.01, 0.99, 2001))
                e = rep.argmin_p
                beside = coverage_probability(
                    spec, n, np.array([np.nextafter(e, 0.0), np.nextafter(e, 1.0)]), level
                ).min()
                assert rep.min_coverage <= beside * (1.0 + 1e-13), (n, alpha)
                assert beside <= rep.min_coverage * (1.0 + 1e-13), (n, alpha)

    def test_workers_reproduce_sequential(self):
        grid = PGrid(0.05, 0.95, 5000)
        seq = min_coverage(MethodSpec.jeffreys(), 73, LEVEL, grid, workers=1)
        par = min_coverage(MethodSpec.jeffreys(), 73, LEVEL, grid, workers=3)
        assert seq.min_coverage == par.min_coverage
        assert seq.argmin_p == par.argmin_p

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            PGrid(0.0, 0.9, 100)
        with pytest.raises(DomainError):
            PGrid(0.5, 0.4, 100)
        with pytest.raises(DomainError):
            PGrid(0.1, 0.9, 1)
        with pytest.raises(DomainError):
            PGrid(0.1, 0.9, 2.5)
        with pytest.raises(DomainError, match="integer"):
            PGrid(0.1, 0.9, True)  # a bool is no count of points
        assert PGrid(0.1, 0.9, np.int64(3)).values().tolist() == np.linspace(0.1, 0.9, 3).tolist()


class TestBoundsCache:
    def test_byte_bound_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(exact_eval, "_BOUNDS_CACHE_BYTES", 2000)
        cache = exact_eval._ByteBoundedLRU(lambda k: (np.full(k, 1.0), np.full(k, 2.0)))
        cache(50)  # 800 bytes
        cache(50)  # a hit
        cache(60)  # 960 bytes: 1,760 held
        cache(50)  # a hit makes 60 the least recently used
        cache(40)  # 640 bytes: 60 goes
        info = cache.cache_info()
        assert (info.hits, info.misses, info.entries, info.bytes) == (2, 3, 2, 1440)
        assert (50,) in cache and (40,) in cache and (60,) not in cache
        assert cache(300)[1][0] == 2.0  # 4,800 bytes: returned, not held
        info = cache.cache_info()
        assert info.bytes <= 2000 and (300,) not in cache and info.misses == 4
        cache.cache_clear()
        assert cache.cache_info() == (0, 0, 0, 0)

    def test_non_monotone_arrays_raise(self, monkeypatch):
        _bounds_arrays.cache_clear()
        monkeypatch.setattr(exact_eval, "_bounds_for_x", lambda method, n, level, x: (-x, x))
        try:
            with pytest.raises(ConvergenceError, match="not monotone for wilson at n=5, alpha=0.05"):
                _bounds_arrays(MethodSpec.wilson(), 5, LEVEL)
        finally:
            _bounds_arrays.cache_clear()


def _count_betainc(monkeypatch) -> list:
    """A list that gets one item per _betainc_vec call from now on."""
    calls = []
    betainc = exact_eval._betainc_vec
    monkeypatch.setattr(
        exact_eval, "_betainc_vec", lambda *args: calls.append(1) or betainc(*args)
    )
    return calls


MEAN_KEYS = [
    (spec, n, ConfidenceLevel(alpha))
    for spec in (
        MethodSpec.clopper_pearson(), MethodSpec.jeffreys(), MethodSpec.wilson(),
        MethodSpec.agresti_coull(), MethodSpec.wald(), MethodSpec.beta_prior(BetaParams(0.3, 2.0)),
    )
    for n in (1, 7, 50, 333, 2000)
    for alpha in (0.2, 0.05, 1e-4)
]


class TestMeanCoverage:
    def test_both_tails_in_one_betainc_call(self, monkeypatch):
        spec = MethodSpec.clopper_pearson()
        _bounds_arrays.cache_clear()  # so that no earlier test has asked for this mean
        _bounds_arrays(spec, 40, LEVEL)  # cached: its quantile solves are not counted
        calls = _count_betainc(monkeypatch)
        mean_coverage(spec, 40, LEVEL)
        assert len(calls) == 1

    def test_held_mean_is_computed_once(self, monkeypatch):
        spec = MethodSpec.jeffreys()
        _bounds_arrays.cache_clear()
        _bounds_arrays(spec, 60, LEVEL)
        calls = _count_betainc(monkeypatch)
        first = mean_coverage(spec, 60, LEVEL)
        assert len(calls) == 1
        assert mean_coverage(spec, 60, LEVEL) == first
        assert len(calls) == 1

    def test_reports_over_two_ranges_share_one_mean(self, monkeypatch):
        spec = MethodSpec.wilson()
        _bounds_arrays.cache_clear()
        _bounds_arrays(spec, 120, LEVEL)
        calls = _count_betainc(monkeypatch)
        reports = [min_coverage(spec, 120, LEVEL, PGrid(lo, hi, 2001))
                   for lo, hi in ((0.01, 0.99), (0.1, 0.9))]
        assert len(calls) == 1
        for rep in reports:
            assert rep.mean_coverage == mean_coverage(spec, 120, LEVEL)
        assert len(calls) == 1

    def test_recomputed_mean_has_the_same_bits(self, monkeypatch):
        # a held mean, one computed after cache_clear and one computed after
        # its entry was evicted are the same float
        _bounds_arrays.cache_clear()
        held = [mean_coverage(*key) for key in MEAN_KEYS]
        assert [mean_coverage(*key) for key in MEAN_KEYS] == held
        _bounds_arrays.cache_clear()
        assert [mean_coverage(*key) for key in MEAN_KEYS] == held
        filler = (MethodSpec.wilson(), 2000, ConfidenceLevel(0.3))  # closed form: cheap
        monkeypatch.setattr(exact_eval, "_BOUNDS_CACHE_BYTES", 2 * 8 * 2001)  # one n = 2000 entry
        for key, want in zip(MEAN_KEYS, held):
            assert mean_coverage(*key) == want, key
            _bounds_arrays(*filler)
            assert key not in exact_eval._held_bounds
            assert mean_coverage(*key) == want, key
        _bounds_arrays.cache_clear()

    def test_unheld_entry_gives_the_same_mean_every_call(self, monkeypatch):
        spec = MethodSpec.wilson()  # closed-form ends: the mean is its only _betainc_vec call
        want = mean_coverage(spec, 90, LEVEL)
        monkeypatch.setattr(exact_eval, "_BOUNDS_CACHE_BYTES", 100)  # below one entry
        _bounds_arrays.cache_clear()
        calls = _count_betainc(monkeypatch)
        assert [mean_coverage(spec, 90, LEVEL) for _ in range(3)] == [want] * 3
        assert (spec, 90, LEVEL) not in exact_eval._held_bounds
        assert len(calls) == 3  # computed on every call, as before
        _bounds_arrays.cache_clear()

    def test_cp_mean_between_level_and_one(self):
        got = mean_coverage(MethodSpec.clopper_pearson(), 25, LEVEL)
        assert 0.95 < got < 1.0

    def test_near_total_interval_has_mean_one(self):
        # with alpha nearly 0 the realized intervals cover almost all of (0, 1)
        got = mean_coverage(MethodSpec.clopper_pearson(), 10, ConfidenceLevel(1e-9))
        assert got == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("spec", FAMILIES, ids=str)
    def test_closed_form_matches_riemann_sum(self, spec):
        for n in (10, 50, 100):
            closed = mean_coverage(spec, n, LEVEL)
            ps = (np.arange(100_000) + 0.5) / 100_000
            L, U = _bounds_arrays(spec, n, LEVEL)
            cov = exact_eval._coverage_values(ps, L, U, n)[0]
            assert closed == pytest.approx(float(cov.mean()), abs=1e-4)

    def test_uniform_prior_interval_has_mean_one_minus_alpha(self):
        # the uniform prior's posteriors are Beta(x + 1, n - x + 1), the
        # mean coverage's own shapes, so each x adds exactly (1 - alpha) / (n + 1)
        for n in (1, 2, 10, 200, 2000):
            for alpha in (0.2, 0.05, 0.01):
                got = mean_coverage(MethodSpec.uniform_prior(), n, ConfidenceLevel(alpha))
                assert abs(got - (1.0 - alpha)) <= 1e-15, (n, alpha)

    def test_cp_matches_the_pmf_at_its_endpoints(self):
        # DLMF 8.17.20-21: I_U(x+1, n-x+1) = I_U(x+1, n-x) + U b(x; n, U) and
        # I_L(x+1, n-x+1) = I_L(x, n-x+1) - (1 - L) b(x; n, L), whose first
        # terms are 1 - alpha/2 and alpha/2 at the CP endpoints, so the mean
        # coverage is [n (1 - alpha) + 1 + sum_{x<n} U b(x; n, U)
        # + sum_{x>0} (1 - L) b(x; n, L)] / (n + 1), with b from 30-digit
        # mpmath; the endpoints' own residual bounds the difference
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for n in (1, 2, 10, 200, 2000):
                for alpha in (0.2, 0.05, 0.01):
                    level = ConfidenceLevel(alpha)
                    L, U = _bounds_arrays(CP, n, level)

                    def b(k, e):
                        e = mp.mpf(e)
                        return mp.binomial(n, k) * e**k * (1 - e) ** (n - k)

                    total = mp.fsum(
                        [U[k] * b(k, U[k]) for k in range(n)]
                        + [(1 - mp.mpf(L[k])) * b(k, L[k]) for k in range(1, n + 1)]
                    )
                    ref = (n * (1 - mp.mpf(alpha)) + 1 + total) / (n + 1)
                    assert abs(mean_coverage(CP, n, level) - float(ref)) <= 2e-13, (n, alpha)


class TestCalibration:
    def test_cp_min_criterion_is_noop(self):
        got = calibrate_alpha(
            MethodSpec.clopper_pearson(), 25, LEVEL, MinCoverage(PGrid(0.01, 0.99, 2001))
        )
        assert got.alpha == 0.05

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
    @pytest.mark.parametrize("n", [20, 100, 200])
    @pytest.mark.parametrize("spec", MIN_FAMILIES[1:4], ids=str)
    def test_min_criterion_bracketing(self, spec, n, alpha):
        # the largest passing gamma within _GAMMA_TOL: gamma passes, one
        # tolerance above it fails
        criterion, target = MinCoverage(PGrid(0.01, 0.99, 2)), 1.0 - alpha - 1e-9
        got = calibrate_alpha(spec, n, ConfidenceLevel(alpha), criterion).alpha
        assert got < alpha
        at = exact_eval._criterion_value(spec, n, criterion, got)
        above = exact_eval._criterion_value(spec, n, criterion, got + exact_eval._GAMMA_TOL)
        assert at >= target > above

    def test_min_criterion_evaluations(self, monkeypatch):
        # the bisection this root loop replaced took 387 evaluations over
        # these 27 cases (12, 15 and 16 at alpha .01, .05 and .1); it takes 311
        calls = []
        value = exact_eval._criterion_value
        monkeypatch.setattr(
            exact_eval, "_criterion_value", lambda *args: calls.append(1) or value(*args)
        )
        per_case = []
        for spec in MIN_FAMILIES[1:4]:
            for n in (20, 100, 200):
                for alpha in (0.1, 0.05, 0.01):
                    calls.clear()
                    calibrate_alpha(
                        spec, n, ConfidenceLevel(alpha), MinCoverage(PGrid(0.01, 0.99, 2))
                    )
                    per_case.append(len(calls))
        assert max(per_case) <= 60
        assert sum(per_case) < 387, per_case

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("spec", MIN_FAMILIES, ids=str)
    def test_min_criterion_nonincreasing_in_gamma(self, spec, n):
        # intervals nest in alpha, so the exact minimum never rises as gamma
        # grows; calibrate_alpha's root loop keeps a bracket on it
        criterion = MinCoverage(PGrid(0.01, 0.99, 2))
        mins = [
            exact_eval._criterion_value(spec, n, criterion, gamma)
            for gamma in np.linspace(1e-3, 0.2, 40)
        ]
        assert all(b <= a for a, b in zip(mins, mins[1:]))

    def test_cp_mean_criterion_moves_up(self):
        got = calibrate_alpha(MethodSpec.clopper_pearson(), 50, LEVEL, MeanCoverage())
        assert got.alpha > 0.05
        assert mean_coverage(MethodSpec.clopper_pearson(), 50, got) == pytest.approx(
            0.95, abs=1e-5
        )

    @pytest.mark.parametrize("spec", [MethodSpec.jeffreys(), MethodSpec.agresti_coull()], ids=str)
    def test_held_means_do_not_move_gamma(self, spec):
        for criterion in (MeanCoverage(), MinCoverage(PGrid(0.01, 0.99, 2))):
            _bounds_arrays.cache_clear()
            cold = calibrate_alpha(spec, 200, LEVEL, criterion)
            warm = calibrate_alpha(spec, 200, LEVEL, criterion)  # every key held
            assert warm.alpha == cold.alpha, criterion
        _bounds_arrays.cache_clear()

    def test_unknown_criterion_raises(self):
        with pytest.raises(DomainError, match="unknown calibration criterion 'min'"):
            calibrate_alpha(MethodSpec.wilson(), 20, LEVEL, "min")

    def test_unattainable_criterion_raises(self):
        # the degenerate Wald intervals at x in {0, n} pin the minimum
        # coverage near 0 close to the grid edges for every gamma
        spec = MethodSpec.wald()
        with pytest.raises(CalibrationError, match=re.escape(f"of {spec} at n=10,")):
            calibrate_alpha(spec, 10, LEVEL, MinCoverage(PGrid(0.001, 0.999, 501)))

    def test_unattainable_mean_criterion_raises(self):
        spec = MethodSpec.wald()
        with pytest.raises(CalibrationError, match=re.escape(f"of {spec} at n=20,")) as err:
            calibrate_alpha(spec, 20, LEVEL, MeanCoverage())
        assert "cannot reach" in str(err.value)

    def test_root_loop_raises_at_its_evaluation_cap(self, monkeypatch):
        # a step in gamma never brings |f| under 1e-10, and halving the kept
        # end's f does not close a bracket to 1e-12 in 60 evaluations
        monkeypatch.setattr(
            exact_eval, "_criterion_value", lambda m, n, c, gamma: 0.96 if gamma < 0.3 else 0.9
        )
        with pytest.raises(CalibrationError, match="after 60 evaluations"):
            calibrate_alpha(MethodSpec.wilson(), 30, LEVEL, MeanCoverage())

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
    @pytest.mark.parametrize("n", [20, 200, 1200])
    @pytest.mark.parametrize("spec", MIN_FAMILIES[:4], ids=str)  # Wald cannot reach some
    def test_mean_criterion_root(self, monkeypatch, spec, n, alpha):
        calls = []
        mean = exact_eval.mean_coverage
        monkeypatch.setattr(
            exact_eval, "mean_coverage", lambda *args: calls.append(1) or mean(*args)
        )
        got = calibrate_alpha(spec, n, ConfidenceLevel(alpha), MeanCoverage())
        assert len(calls) <= 12
        assert abs(mean(spec, n, got) - (1.0 - alpha)) <= 1e-10

    def test_mean_criterion_matches_fine_bisection(self):
        spec = MethodSpec.clopper_pearson()
        got = calibrate_alpha(spec, 50, LEVEL, MeanCoverage()).alpha
        lo, hi = 1e-6, 0.5  # mean coverage falls in gamma
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if mean_coverage(spec, 50, ConfidenceLevel(mid)) >= 0.95:
                lo = mid
            else:
                hi = mid
        assert abs(got - 0.5 * (lo + hi)) <= 1e-9


class TestReportShape:
    def test_report_fields(self):
        grid = PGrid(0.1, 0.9, 101)
        rep = min_coverage(MethodSpec.wilson(), 20, LEVEL, grid)
        assert isinstance(rep, CoverageReport)
        assert 0.0 <= rep.min_coverage <= 1.0
        assert 0.1 <= rep.argmin_p <= 0.9
        assert not hasattr(rep, "grid") and not hasattr(rep, "per_point")
        assert rep.min_coverage <= rep.mean_coverage + 1.0
