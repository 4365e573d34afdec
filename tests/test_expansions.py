import math

import pytest

from binomci.errors import DomainError
from binomci.expansions import (
    ExpansionOrder,
    ExpansionTerms,
    cp_bound_expansion,
    excess_distance_one_sided,
    excess_length,
    expected_distance_expansion,
    expected_length_expansion,
    length_correction_coeff,
)
from binomci.methods import (
    ApproxFamily,
    ConfidenceLevel,
    MethodSpec,
    Observation,
    Side,
    clopper_pearson_bound,
    clopper_pearson_interval,
)
from binomci.exact_eval import expected_width_exact

from oracles import loglog_slope

LEVEL = ConfidenceLevel(0.05)
# not an integer n >= 1; True and n = inf used to give a negative and a zero length
NOT_COUNTS = [math.nan, True, 2.5, math.inf]


class TestBoundExpansion:
    def test_symmetric_at_half(self):
        est = cp_bound_expansion(Observation(25, 50), LEVEL)
        assert est.lower + est.upper == pytest.approx(1.0, abs=1e-13)
        est3 = cp_bound_expansion(Observation(25, 50), LEVEL, order=ExpansionOrder.THIRD_ORDER)
        assert est3.lower + est3.upper == pytest.approx(1.0, abs=1e-13)

    def test_second_order_accuracy_n50(self):
        # two-decimal accuracy away from the boundary observations
        for x in range(3, 50):
            exact = clopper_pearson_interval(Observation(x, 50), LEVEL)
            approx = cp_bound_expansion(Observation(x, 50), LEVEL)
            assert abs(approx.upper - exact.upper) < 0.005

    def test_third_order_accuracy_n25(self):
        # Two-decimal accuracy holds strictly for interior x; at x in {5, 20}
        # the true error peaks at 0.00507, just past the two-decimal line.
        for x in range(5, 21):
            exact = clopper_pearson_interval(Observation(x, 25), LEVEL)
            approx = cp_bound_expansion(
                Observation(x, 25), LEVEL, order=ExpansionOrder.THIRD_ORDER
            )
            tol = 0.005 if 6 <= x <= 19 else 0.0051
            assert abs(approx.upper - exact.upper) < tol
            assert abs(approx.lower - exact.lower) < tol

    def test_one_sided_substitutes_full_quantile(self):
        two = cp_bound_expansion(Observation(20, 50), LEVEL, Side.UPPER)
        exact = clopper_pearson_bound(Observation(20, 50), LEVEL, Side.UPPER)
        assert two.lower == 0.0
        assert abs(two.upper - exact.upper) < 0.005
        low = cp_bound_expansion(Observation(20, 50), LEVEL, Side.LOWER)
        assert low.upper == 1.0

    def test_third_order_error_shrinks_like_n_minus_two(self):
        ns = [50, 100, 200, 400, 800]
        errs = []
        for n in ns:
            exact = clopper_pearson_interval(Observation(n // 2, n), LEVEL)
            approx = cp_bound_expansion(
                Observation(n // 2, n), LEVEL, order=ExpansionOrder.THIRD_ORDER
            )
            errs.append(abs(approx.upper - exact.upper))
        assert loglog_slope(ns, errs) <= -1.8

    def test_rejected_at_boundary_observations(self):
        with pytest.raises(DomainError):
            cp_bound_expansion(Observation(0, 50), LEVEL)
        with pytest.raises(DomainError):
            cp_bound_expansion(Observation(50, 50), LEVEL)


class TestExpectedLengthExpansion:
    def test_terms_assemble(self):
        t = expected_length_expansion(100, 0.5, LEVEL)
        assert isinstance(t, ExpansionTerms)
        rn = math.sqrt(100)
        assert t.value == pytest.approx(
            t.t_half / rn + t.t_one / 100 + t.t_threehalf / (100 * rn), abs=1e-15
        )

    def test_leading_term_scaling(self):
        # quadrupling n halves the leading term
        a = expected_length_expansion(100, 0.3, LEVEL)
        b = expected_length_expansion(400, 0.3, LEVEL)
        assert a.t_half / math.sqrt(100) == pytest.approx(
            2.0 * b.t_half / math.sqrt(400), abs=1e-15
        )

    def test_third_order_coefficient_direct_arithmetic(self):
        z = LEVEL.z_half
        t = expected_length_expansion(100, 0.5, LEVEL)
        expect = (1.0 / math.sqrt(0.25)) * (z / 18.0) * (
            z * z - 2.5 - 17.0 / 4.0 - 13.0 * z * z / 4.0
        )
        assert t.t_threehalf == pytest.approx(expect, rel=1e-13)

    def test_close_to_exact_enumeration(self):
        exact = expected_width_exact(MethodSpec.clopper_pearson(), 100, 0.5, LEVEL)
        assert abs(expected_length_expansion(100, 0.5, LEVEL).value - exact) < 0.01

    def test_order_of_convergence(self):
        for p in (0.2, 0.5, 0.8):
            ns = [50, 100, 200, 400, 800]
            errs = [
                abs(
                    expected_length_expansion(n, p, LEVEL).value
                    - expected_width_exact(MethodSpec.clopper_pearson(), n, p, LEVEL)
                )
                for n in ns
            ]
            assert loglog_slope(ns, errs) <= -1.8

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expected_length_expansion(100, 0.0, LEVEL)
        with pytest.raises(DomainError):
            expected_length_expansion(100, 1.0, LEVEL)
        for n in NOT_COUNTS:
            with pytest.raises(DomainError):
                expected_length_expansion(n, 0.5, LEVEL)


class TestExpectedDistanceExpansion:
    def test_centered_terms_vanish_at_half(self):
        t = expected_distance_expansion(100, 0.5, LEVEL)
        z = LEVEL.z_full
        assert t.t_one == pytest.approx((1.0 + 0.5) / 3.0, abs=1e-14)
        bracket = -53.0 / 36.0 + (z * z + 6.5) / 9.0 - 13.0 * z * z / 36.0
        assert t.t_threehalf == pytest.approx(z * 0.5 * bracket, rel=1e-13)

    def test_close_to_exact_enumeration(self):
        exact = expected_width_exact(
            MethodSpec.clopper_pearson(Side.UPPER), 100, 0.3, LEVEL
        )
        assert abs(expected_distance_expansion(100, 0.3, LEVEL).value - exact) < 0.01

    def test_accuracy_across_p_at_n50(self):
        worst = 0.0
        for i in range(5, 96):
            p = i / 100.0
            exact = expected_width_exact(
                MethodSpec.clopper_pearson(Side.UPPER), 50, p, LEVEL
            )
            approx = expected_distance_expansion(50, p, LEVEL).value
            worst = max(worst, abs(approx - exact))
        assert worst < 0.01

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expected_distance_expansion(100, 1.0, LEVEL)
        for n in NOT_COUNTS:
            with pytest.raises(DomainError):
                expected_distance_expansion(n, 0.5, LEVEL)


class TestCoefficientIdentities:
    def test_length_correction_matches_printed_bracket(self):
        # assembling the realized-length coefficient with the Wald-length
        # expectation correction must reproduce the expected-length bracket
        for p in [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]:
            for z in [1.2815515655, 1.6448536270, 1.9599639845, 2.5758293035]:
                pq = p * (1.0 - p)
                assembled = length_correction_coeff(p, z) - z / (4.0 * math.sqrt(pq))
                direct = (z / 18.0) / math.sqrt(pq) * (
                    z * z - 2.5 - 17.0 * pq - 13.0 * pq * z * z
                )
                assert assembled == pytest.approx(direct, rel=1e-12)

    def test_bound_expansion_assembles_length_coefficient(self):
        # (U3 - L3) - (U2 - L2) at p_hat = p equals n^(-3/2) times the
        # realized-length coefficient
        n = 400
        for x in [40, 100, 200, 300, 360]:
            p = x / n
            second = cp_bound_expansion(Observation(x, n), LEVEL)
            third = cp_bound_expansion(
                Observation(x, n), LEVEL, order=ExpansionOrder.THIRD_ORDER
            )
            diff = (third.upper - third.lower) - (second.upper - second.lower)
            expect = length_correction_coeff(p, LEVEL.z_half) / (n * math.sqrt(n))
            assert diff == pytest.approx(expect, rel=1e-9)

    def test_second_order_width_is_exactly_one_over_n(self):
        for x, n in [(10, 40), (25, 50), (70, 100)]:
            est = cp_bound_expansion(Observation(x, n), LEVEL)
            ph = x / n
            wald_width = 2.0 * LEVEL.z_half * math.sqrt(ph * (1 - ph) / n)
            assert est.width - wald_width == pytest.approx(1.0 / n, rel=1e-10)


class TestExcessLength:
    def test_jeffreys_is_one_over_n(self):
        assert excess_length(ApproxFamily.JEFFREYS, 200, 0.3, LEVEL) == 0.005
        assert (
            excess_length(
                ApproxFamily.JEFFREYS, 200, 0.3, LEVEL, ExpansionOrder.THIRD_ORDER
            )
            == 0.005
        )

    def test_wilson_second_order_is_one_over_n(self):
        assert excess_length(ApproxFamily.WILSON, 200, 0.4, LEVEL) == 0.005

    def test_wilson_third_order_direct_arithmetic(self):
        z = LEVEL.z_half
        pq = 0.25
        shrink = 26.0 * pq / 9.0 - 2.0 / 9.0
        bracket = 9.0 * z * (z + shrink**2) + 34.0 * pq * (1 - 2 * z * z) - 4.0
        expect = 0.01 - (z / (36.0 * math.sqrt(pq))) * bracket / 1000.0
        got = excess_length(ApproxFamily.WILSON, 100, 0.5, LEVEL, ExpansionOrder.THIRD_ORDER)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_agresti_coull_third_order_direct_arithmetic(self):
        z = LEVEL.z_half
        pq = 0.21
        shrink = 26.0 * pq / 9.0 - 2.0 / 9.0
        bracket = 9.0 * z * (2 * z + shrink**2) + pq * (34.0 - 108.0 * z * z) - 4.0
        expect = 0.01 - (z / (36.0 * math.sqrt(pq))) * bracket / 1000.0
        got = excess_length(
            ApproxFamily.AGRESTI_COULL, 100, 0.3, LEVEL, ExpansionOrder.THIRD_ORDER
        )
        assert got == pytest.approx(expect, rel=1e-13)

    def test_wilson_third_order_against_exact_difference(self):
        e_cp = expected_width_exact(MethodSpec.clopper_pearson(), 100, 0.5, LEVEL)
        e_ws = expected_width_exact(MethodSpec.wilson(), 100, 0.5, LEVEL)
        got = excess_length(ApproxFamily.WILSON, 100, 0.5, LEVEL, ExpansionOrder.THIRD_ORDER)
        assert abs(got - (e_cp - e_ws)) < 0.002

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            excess_length(ApproxFamily.WILSON, 100, 0.0, LEVEL)
        with pytest.raises(DomainError):
            excess_length(ApproxFamily.WILSON, 0, 0.5, LEVEL)
        for n in NOT_COUNTS:
            with pytest.raises(DomainError):
                excess_length(ApproxFamily.WILSON, n, 0.5, LEVEL)


class TestExcessDistance:
    def test_values(self):
        assert excess_distance_one_sided(100) == 0.005
        assert excess_distance_one_sided(50) == 2 * excess_distance_one_sided(100)

    def test_against_exact_difference(self):
        e_cp = expected_width_exact(MethodSpec.clopper_pearson(Side.UPPER), 50, 0.5, LEVEL)
        e_j = expected_width_exact(MethodSpec.jeffreys(Side.UPPER), 50, 0.5, LEVEL)
        assert abs((e_cp - e_j) - 0.01) < 0.004

    def test_domain_error(self):
        with pytest.raises(DomainError):
            excess_distance_one_sided(0)
        for n in NOT_COUNTS:
            with pytest.raises(DomainError):
                excess_distance_one_sided(n)
