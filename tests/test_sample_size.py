import math
import random

import numpy as np
import pytest

from binomci import sample_size
from binomci.errors import DomainError, SearchBudgetError
from binomci.exact_eval import expected_widths_batch
from binomci.expansions import expected_distance_expansion
from binomci.methods import ApproxFamily, ConfidenceLevel, MethodSpec, Side
from binomci.sample_size import (
    FormulaMode,
    SampleSizeQuery,
    SampleSizeResult,
    approx_method_n,
    cp_n_one_sided,
    cp_n_one_sided_prior,
    cp_n_two_sided,
    cp_n_two_sided_prior,
    exact_n,
    jeffreys_one_sided_n_verbatim,
    n_plus_adjusted,
    n_plus_one_sided,
    n_plus_two_sided,
    prior_moment,
)
from binomci.special import BetaParams, JEFFREYS_PRIOR, UNIFORM_PRIOR

LEVEL = ConfidenceLevel(0.05)


class TestQueryValidation:
    def test_exactly_one_guess(self):
        with pytest.raises(DomainError):
            SampleSizeQuery(0.05, LEVEL)
        with pytest.raises(DomainError):
            SampleSizeQuery(0.05, LEVEL, p0=0.5, prior=JEFFREYS_PRIOR)

    def test_d_range(self):
        with pytest.raises(DomainError):
            SampleSizeQuery(0.0, LEVEL, p0=0.5)
        with pytest.raises(DomainError):
            SampleSizeQuery(1.0, LEVEL, p0=0.5)

    def test_lower_side_rejected(self):
        with pytest.raises(DomainError, match="got lower$"):
            SampleSizeQuery(0.05, LEVEL, Side.LOWER, p0=0.5)

    def test_p0_range(self):
        with pytest.raises(DomainError, match="p0 must be in"):
            SampleSizeQuery(0.05, LEVEL, p0=1.5)

    def test_result_ceiling_invariant(self):
        with pytest.raises(DomainError):
            SampleSizeResult(5, 5.5, FormulaMode.DERIVED_ALGEBRA)


class TestPriorMoment:
    def test_reference_priors(self):
        assert prior_moment(JEFFREYS_PRIOR) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert prior_moment(UNIFORM_PRIOR) == pytest.approx(math.pi / 8.0, abs=1e-12)
        assert prior_moment(BetaParams(2, 2)) == pytest.approx(
            9.0 * math.pi / 64.0, abs=1e-12
        )


class TestTwoSided:
    def test_worked_example(self):
        res = cp_n_two_sided(SampleSizeQuery(0.05, LEVEL, p0=0.05))
        assert res.n == 331
        assert res.n_unrounded == pytest.approx(330.74146653175785, rel=1e-12)

    def test_halving_d_quadruples_n(self):
        big = cp_n_two_sided(SampleSizeQuery(0.02, LEVEL, p0=0.05)).n_unrounded
        small = cp_n_two_sided(SampleSizeQuery(0.01, LEVEL, p0=0.05)).n_unrounded
        assert small / big == pytest.approx(4.0, rel=0.1)

    def test_prior_variant_uses_moment(self):
        res = cp_n_two_sided_prior(SampleSizeQuery(0.05, LEVEL, prior=JEFFREYS_PRIOR))
        r = 1.0 / math.pi
        z = LEVEL.z_half
        expect = (
            2 * z * z * r * r + 2 * z * math.sqrt(z * z * r**4 + 0.05 * r * r) + 0.05
        ) / 0.0025
        assert res.n_unrounded == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_alpha_and_p0(self):
        # required n falls as alpha grows, rises toward p0 = 1/2
        ns = [
            cp_n_two_sided(SampleSizeQuery(0.05, ConfidenceLevel(a), p0=0.3)).n_unrounded
            for a in (0.01, 0.05, 0.1, 0.2)
        ]
        assert all(a > b for a, b in zip(ns, ns[1:]))
        left = [
            cp_n_two_sided(SampleSizeQuery(0.05, LEVEL, p0=p)).n_unrounded
            for p in (0.1, 0.2, 0.3, 0.4, 0.5)
        ]
        assert all(a < b for a, b in zip(left, left[1:]))
        right = [
            cp_n_two_sided(SampleSizeQuery(0.05, LEVEL, p0=p)).n_unrounded
            for p in (0.5, 0.6, 0.7, 0.8, 0.9)
        ]
        assert all(a > b for a, b in zip(right, right[1:]))


class TestOneSided:
    def test_derived_algebra_solution(self):
        res = cp_n_one_sided(SampleSizeQuery(0.02, LEVEL, Side.UPPER, 0.5))
        assert 1735 <= res.n_unrounded <= 1745
        assert res.n == 1741

    def test_paper_verbatim_display(self):
        res = cp_n_one_sided(
            SampleSizeQuery(0.02, LEVEL, Side.UPPER, 0.5), FormulaMode.PAPER_VERBATIM
        )
        assert res.n_unrounded == pytest.approx(26690.45, abs=0.5)

    def test_unattainable_target_is_domain_error(self):
        # C < 0 at p0 = 0.9, so the expansion peaks below d = 0.2
        query = SampleSizeQuery(0.2, LEVEL, Side.UPPER, 0.9)
        for mode in FormulaMode:
            with pytest.raises(DomainError, match="unattainable"):
                cp_n_one_sided(query, mode)
            with pytest.raises(DomainError, match="unattainable"):
                n_plus_one_sided(0.2, 0.9, LEVEL, mode)

    def test_derived_solves_the_expansion(self):
        # plugging the solution back into the second-order distance model
        # reproduces d
        d, p0 = 0.02, 0.5
        res = cp_n_one_sided(SampleSizeQuery(d, LEVEL, Side.UPPER, p0))
        n = res.n_unrounded
        z = LEVEL.z_full
        c = 2 * (0.5 - p0) * z * z + 1 + (1 - p0)
        model = z * math.sqrt(p0 * (1 - p0) / n) + c / (3 * n)
        assert model == pytest.approx(d, rel=1e-12)


class TestOneSidedPrior:
    def test_jeffreys_coefficients_reduce(self):
        from binomci.sample_size import _one_sided_prior_coeffs

        z = LEVEL.z_full
        a_coeff, b_coeff = _one_sided_prior_coeffs(JEFFREYS_PRIOR, z)
        assert a_coeff == pytest.approx(z / 6.0, rel=1e-12)
        assert b_coeff == pytest.approx(math.pi / 16.0, rel=1e-12)

    def test_jeffreys_worked_value(self):
        res = cp_n_one_sided_prior(SampleSizeQuery(0.02, LEVEL, Side.UPPER, prior=JEFFREYS_PRIOR))
        assert res.n_unrounded == pytest.approx(207.05, abs=0.05)
        assert res.n == 208

    def test_uniform_prior_finite(self):
        res = cp_n_one_sided_prior(SampleSizeQuery(0.02, LEVEL, Side.UPPER, prior=UNIFORM_PRIOR))
        assert res.n >= 2
        assert math.isfinite(res.n_unrounded)

    def test_pole_region_rejected(self):
        for bad in (BetaParams(2.0, 1.0), BetaParams(1.0, 2.5), BetaParams(3.0, 3.0)):
            with pytest.raises(DomainError):
                cp_n_one_sided_prior(SampleSizeQuery(0.02, LEVEL, Side.UPPER, prior=bad))

    def test_verbatim_display_retained_for_comparison(self):
        assert jeffreys_one_sided_n_verbatim(0.02, LEVEL) == pytest.approx(85216.2, abs=0.5)


def _point_coeffs(two_sided, p0, level):
    # the printed expansion coefficients, written out independently here
    pq = p0 * (1.0 - p0)
    if two_sided:
        return 2.0 * level.z_half * math.sqrt(pq), 1.0
    z = level.z_full
    return z * math.sqrt(pq), (2.0 * (0.5 - p0) * z * z + 1.0 + (1.0 - p0)) / 3.0


def _prior_coeffs(two_sided, prior, level):
    from binomci.sample_size import _one_sided_prior_coeffs

    if two_sided:
        return 2.0 * level.z_half * prior_moment(prior), 1.0
    return _one_sided_prior_coeffs(prior, level.z_full)


# At alpha .05, Beta(1.7241029864823263, 1.9) has a one-sided n^(-1)
# coefficient of 2.5e-14 and Beta(1.72410298, 1.9) one of -1.3e-7; the root
# that divided by it returned n = 12544 for 26996.93 on the first, and was
# off by 1.4e-7 relative in the residual on the second.
RESIDUAL_PRIORS = [
    JEFFREYS_PRIOR,
    UNIFORM_PRIOR,
    BetaParams(0.5, 1.0),
    BetaParams(1.5, 0.7),
    BetaParams(1.7241029864823263, 1.9),
    BetaParams(1.72410298, 1.9),
]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("d", [0.005, 0.02, 0.1])
@pytest.mark.parametrize(
    "form,guesses,coeffs",
    [
        (cp_n_two_sided, [0.02, 0.1, 0.3, 0.5, 0.7, 0.9], _point_coeffs),
        (cp_n_one_sided, [0.02, 0.1, 0.3, 0.5, 0.7, 0.9], _point_coeffs),
        (cp_n_two_sided_prior, RESIDUAL_PRIORS, _prior_coeffs),
        (cp_n_one_sided_prior, RESIDUAL_PRIORS, _prior_coeffs),
    ],
    ids=["two_sided", "one_sided", "two_sided_prior", "one_sided_prior"],
)
def test_closed_form_solves_its_expansion(form, guesses, coeffs, alpha, d):
    # t_half / sqrt(n) + t_one / n = d at the returned unrounded n
    level = ConfidenceLevel(alpha)
    two_sided = form in (cp_n_two_sided, cp_n_two_sided_prior)
    side = Side.TWO_SIDED if two_sided else Side.UPPER
    for guess in guesses:
        if isinstance(guess, BetaParams):
            query = SampleSizeQuery(d, level, side, prior=guess)
        else:
            query = SampleSizeQuery(d, level, side, guess)
        t_half, t_one = coeffs(two_sided, guess, level)
        if t_half * t_half + 4.0 * t_one * d < 0.0:
            with pytest.raises(DomainError, match="unattainable"):
                form(query)
            continue
        n = form(query).n_unrounded
        residual = t_half / math.sqrt(n) + t_one / n - d
        assert abs(residual) <= 1e-13 * d, (guess, n, residual)


@pytest.mark.parametrize("alpha", [0.52, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("d", [1e-12, 1e-6, 0.005, 0.1])
def test_one_sided_prior_root_at_alpha_above_half(alpha, d):
    # z_full < 0 above alpha = 1/2, so the n^(-1/2) coefficient A is negative
    # and (A + sqrt(A^2 + 4 B d)) / (2 d) cancels; the rationalized root is
    # within 1e-14 of the quadratic's root in 60-digit mpmath (the cancelling
    # form was up to 19 % off), and DomainError where it has no positive root
    mp = pytest.importorskip("mpmath")
    level = ConfidenceLevel(alpha)
    for prior in RESIDUAL_PRIORS:
        query = SampleSizeQuery(d, level, Side.UPPER, prior=prior)
        a_coeff, b_coeff = _prior_coeffs(False, prior, level)
        with mp.workdps(60):
            disc = mp.mpf(a_coeff) ** 2 + 4 * mp.mpf(b_coeff) * d
            root = (a_coeff + mp.sqrt(disc)) / (2 * mp.mpf(d)) if disc >= 0 else -1
            if not root > 0:
                with pytest.raises(DomainError, match="unattainable"):
                    cp_n_one_sided_prior(query)
                continue
            n = cp_n_one_sided_prior(query).n_unrounded
            assert abs(n / root**2 - 1) <= 1e-14, (prior, n, root**2)


class TestApproxMethodN:
    def test_jeffreys_formula(self):
        res = approx_method_n(ApproxFamily.JEFFREYS, 0.05, 0.5, LEVEL)
        assert res.n == 1537
        assert res.n_unrounded == pytest.approx(
            4 * LEVEL.z_half**2 * 0.25 / 0.0025, rel=1e-12
        )

    def test_ac_is_jeffreys_minus_z2(self):
        j = approx_method_n(ApproxFamily.JEFFREYS, 0.05, 0.5, LEVEL)
        ac = approx_method_n(ApproxFamily.AGRESTI_COULL, 0.05, 0.5, LEVEL)
        assert ac.n_unrounded == pytest.approx(
            j.n_unrounded - LEVEL.z_half**2, rel=1e-12
        )
        assert ac.n == 1533

    def test_wilson_symmetric_term_vanishes(self):
        # at p0 = 1/2 the (p0 - 1/2)^2 term drops out of the printed formula
        z2 = LEVEL.z_half**2
        res = approx_method_n(ApproxFamily.WILSON, 0.05, 0.5, LEVEL)
        expect = z2 * (0.25 + 0.00125 + 0.25) * 2 / 0.0025
        assert res.n_unrounded == pytest.approx(expect, rel=1e-12)


class TestExactSearch:
    def test_two_sided_worked_example(self):
        res = exact_n(MethodSpec.clopper_pearson(), 0.05, 0.05, LEVEL)
        assert res.n == 329
        assert res.achieved is not None and res.achieved <= 0.05

    def test_one_sided_worked_example(self):
        res = exact_n(MethodSpec.clopper_pearson(Side.UPPER), 0.02, 0.5, LEVEL)
        assert res.n == 1738
        assert res.achieved <= 0.02

    def test_trivial_target(self):
        res = exact_n(MethodSpec.wilson(), 1.0, 0.5, LEVEL)
        assert res.n == 2

    def test_mirror_symmetry(self):
        a = exact_n(MethodSpec.clopper_pearson(), 0.06, 0.2, LEVEL)
        b = exact_n(MethodSpec.clopper_pearson(), 0.06, 0.8, LEVEL)
        assert a.n == b.n

    def test_budget_error(self):
        with pytest.raises(SearchBudgetError):
            exact_n(MethodSpec.clopper_pearson(), 0.001, 0.5, LEVEL, n_max=100)

    @pytest.mark.parametrize("d", [0.0, -0.1, math.nan])
    def test_bad_target_rejected(self, d):
        # a nan d used to pass `d <= 0` and walk to n_max
        with pytest.raises(DomainError, match="target d"):
            exact_n(MethodSpec.clopper_pearson(), d, 0.5, LEVEL, n_max=3000)

    def test_lower_side_spec_rejected(self):
        with pytest.raises(DomainError, match="side two-sided or upper"):
            exact_n(MethodSpec.clopper_pearson(Side.LOWER), 0.05, 0.5, LEVEL)

    def test_p0_at_one_rejected(self):
        with pytest.raises(DomainError, match="p0 must be in"):
            exact_n(MethodSpec.clopper_pearson(), 0.05, 1.0, LEVEL)

    def test_n_max_below_two_rejected(self):
        with pytest.raises(DomainError):
            exact_n(MethodSpec.clopper_pearson(), 0.5, 0.5, LEVEL, n_max=1)

    def test_n_max_must_be_an_integer(self):
        # used to raise TypeError from range()
        with pytest.raises(DomainError, match="integer"):
            exact_n(MethodSpec.clopper_pearson(), 0.5, 0.5, LEVEL, n_max=2.5)

    def test_n_max_must_not_be_a_bool(self):
        with pytest.raises(DomainError, match="integer"):
            exact_n(MethodSpec.clopper_pearson(), 0.5, 0.5, LEVEL, n_max=True)
        res = exact_n(MethodSpec.clopper_pearson(), 0.2, 0.5, LEVEL, n_max=np.int64(1000))
        assert res == exact_n(MethodSpec.clopper_pearson(), 0.2, 0.5, LEVEL, n_max=1000)

    def test_target_above_beta_upper_expansion_peak(self):
        # uniform prior, p0 .9, alpha .3: the 1/n coefficient is -0.607, so the
        # expected distance is negative at n = 2 and the expansion peaks below
        # d = 0.0102; the walk starts at n = 2, the smallest passing n (a start
        # without the 1/n term stopped at the first crossing, n = 76)
        spec = MethodSpec.beta_prior(UNIFORM_PRIOR, Side.UPPER)
        res = exact_n(spec, 0.0102, 0.9, ConfidenceLevel(0.3))
        assert res.n == 2
        assert res.achieved < 0.0

    def test_target_above_one_sided_expansion_peak(self):
        # the closed form has no solution here, but n = 2 already meets d
        res = exact_n(MethodSpec.clopper_pearson(Side.UPPER), 0.2, 0.9, LEVEL)
        assert res.n == 2
        assert res.achieved <= 0.2

    @pytest.mark.parametrize("side", [Side.TWO_SIDED, Side.UPPER])
    def test_wald_rejected(self, side):
        # Wald's width is 0 at x = 0 and x = n, so its expected width rises
        # with n at small n and a walk's first crossing need not be smallest
        with pytest.raises(DomainError, match="Wald.*rises with n"):
            exact_n(MethodSpec.wald(side), 0.05, 0.3, LEVEL)


# (method, alpha, p0, d, n, achieved.hex()) recorded from the search that
# solved one n at a time; however the search batches its solves, it must
# reproduce these bit for bit.  d puts n between about 100 and 3000.  Every
# n is the one first recorded; the achieved widths carry the last bits of
# the Halley solver with the predicted stop (they moved by at most 7.2e-15
# relative from the Newton solver that stopped only on dx <= 1e-15 x), run
# on the kernel steps shared with the scalar solver (23 rows moved by at
# most 2.5e-15 relative from the lane kernel's own copy of those steps),
# weighted by the ratio-walk pmf (all 36 moved, by at most 5.8e-12
# relative, from ln k! table differences; each is now within 1e-15 of a
# 40-digit sum at the same endpoints, where the table's were up to 5.8e-12),
# solved on the bfrac form of the continued fraction (28 moved, by at
# most 3.7e-15 relative, from the modified-Lentz form), and with each
# Halley round after a near step carrying I_x - q by the density's integral
# instead of a second fraction (32 moved, by at most 8.8e-15 relative).
GOLDEN_SEARCHES = [
    ("cp", 0.01, 0.02, 0.07212, 134, "0x1.261b0a912ce52p-4"),
    ("cp", 0.01, 0.1, 0.09775, 267, "0x1.903400b144450p-4"),
    ("cp", 0.01, 0.3, 0.09638, 616, "0x1.8abdc330c8174p-4"),
    ("cp", 0.01, 0.5, 0.06651, 1525, "0x1.106ca6ced7f15p-4"),
    ("cp", 0.05, 0.02, 0.01002, 3197, "0x1.484915c0513dep-7"),
    ("cp", 0.05, 0.1, 0.1176, 114, "0x1.e07499f2bb12ep-4"),
    ("cp", 0.05, 0.3, 0.1136, 265, "0x1.d06aaac6d41f4p-4"),
    ("cp", 0.05, 0.5, 0.08002, 622, "0x1.4790a36a64c36p-4"),
    ("cp", 0.1, 0.02, 0.01189, 1662, "0x1.859bc8f3c055fp-7"),
    ("cp", 0.1, 0.1, 0.01802, 3107, "0x1.273a150740973p-6"),
    ("cp", 0.1, 0.3, 0.1508, 111, "0x1.3368ce2de1737p-3"),
    ("cp", 0.1, 0.5, 0.104, 267, "0x1.a956bde6ca958p-4"),
    ("cp_upper", 0.01, 0.02, 0.0133, 942, "0x1.b3a623eaacf3dp-7"),
    ("cp_upper", 0.01, 0.1, 0.01802, 1724, "0x1.27337825ae70dp-6"),
    ("cp_upper", 0.01, 0.3, 0.01946, 3129, "0x1.3ed522017c331p-6"),
    ("cp_upper", 0.01, 0.5, 0.1163, 105, "0x1.da90225611af7p-4"),
    ("cp_upper", 0.05, 0.02, 0.01456, 447, "0x1.dd1a123f43bb9p-7"),
    ("cp_upper", 0.05, 0.1, 0.02015, 730, "0x1.49e92d3cee15ep-6"),
    ("cp_upper", 0.05, 0.3, 0.01946, 1593, "0x1.3ec3c6883a785p-6"),
    ("cp_upper", 0.05, 0.5, 0.01502, 3062, "0x1.ec2342e4d33bcp-7"),
    ("cp_upper", 0.1, 0.02, 0.01794, 222, "0x1.256bf8c23d054p-6"),
    ("cp_upper", 0.1, 0.1, 0.02432, 334, "0x1.8df6a11af843ep-6"),
    ("cp_upper", 0.1, 0.3, 0.02398, 663, "0x1.88abc758121abp-6"),
    ("cp_upper", 0.1, 0.5, 0.01654, 1559, "0x1.0ef14934d4b5fp-6"),
    ("jeffreys", 0.01, 0.02, 0.01317, 3006, "0x1.af7ce563abca8p-7"),
    ("jeffreys", 0.01, 0.1, 0.1545, 98, "0x1.3ad8a357c6079p-3"),
    ("jeffreys", 0.01, 0.3, 0.1493, 246, "0x1.3160f3ffe44e2p-3"),
    ("jeffreys", 0.01, 0.5, 0.1052, 595, "0x1.aec98f9b02354p-4"),
    ("jeffreys", 0.05, 0.02, 0.01417, 1501, "0x1.d02dd2cfbee14p-7"),
    ("jeffreys", 0.05, 0.1, 0.02147, 2998, "0x1.5fb7ba91a6c02p-6"),
    ("jeffreys", 0.05, 0.3, 0.1796, 97, "0x1.6f271c5606c05p-3"),
    ("jeffreys", 0.05, 0.5, 0.124, 247, "0x1.fb4adc44e3e12p-4"),
    ("jeffreys", 0.1, 0.02, 0.0188, 598, "0x1.33fa9bd5f51abp-6"),
    ("jeffreys", 0.1, 0.1, 0.02548, 1498, "0x1.a16391490d82dp-6"),
    ("jeffreys", 0.1, 0.3, 0.02752, 2998, "0x1.c2e25d341c632p-6"),
    ("jeffreys", 0.1, 0.5, 0.1645, 98, "0x1.4f629692d90dep-3"),
]
GOLDEN_METHODS = {
    "cp": MethodSpec.clopper_pearson(),
    "cp_upper": MethodSpec.clopper_pearson(Side.UPPER),
    "jeffreys": MethodSpec.jeffreys(),
}


@pytest.mark.parametrize("name,alpha,p0,d,n,achieved", GOLDEN_SEARCHES)
def test_exact_search_is_bit_identical(name, alpha, p0, d, n, achieved):
    res = exact_n(GOLDEN_METHODS[name], d, p0, ConfidenceLevel(alpha))
    assert (res.n, res.achieved.hex()) == (n, achieved)


@pytest.mark.parametrize(
    "name,alpha,p0,d,n,achieved", [row for row in GOLDEN_SEARCHES if row[4] in (97, 105, 111)]
)
def test_exact_search_is_smallest_n(name, alpha, p0, d, n, achieved):
    # brute force: every size from 2 up, in one batch
    ns = list(range(2, n + 1))
    widths = expected_widths_batch(GOLDEN_METHODS[name], ns, p0, ConfidenceLevel(alpha))
    assert next(m for m, w in zip(ns, widths) if w <= d) == n
    assert widths[-1].hex() == achieved


# exact_n walks from its estimate and returns the smallest passing n only
# where the expected width does not rise in n.  This seeded sweep pins that
# for the specs the search serves; the Beta-prior upper bounds rise at small
# n from p0 = 0.7 (exact_n's docstring), so they are drawn at p0 <= 0.5.
MONOTONE_SPECS = [
    ("cp", MethodSpec.clopper_pearson(), 0.98),
    ("cp_upper", MethodSpec.clopper_pearson(Side.UPPER), 0.98),
    ("jeffreys", MethodSpec.jeffreys(), 0.98),
    ("wilson", MethodSpec.wilson(), 0.98),
    ("ac", MethodSpec.agresti_coull(), 0.98),
    ("beta_0.3_2", MethodSpec.beta_prior(BetaParams(0.3, 2.0)), 0.98),
    ("jeffreys_upper", MethodSpec.jeffreys(Side.UPPER), 0.5),
    ("uniform_upper", MethodSpec.beta_prior(UNIFORM_PRIOR, Side.UPPER), 0.5),
]


@pytest.mark.parametrize(
    "name,spec,p0_max", MONOTONE_SPECS, ids=[row[0] for row in MONOTONE_SPECS]
)
def test_expected_width_never_rises_in_n(name, spec, p0_max):
    rng = random.Random(name)
    ns = list(range(2, 301))
    for _ in range(9):
        alpha = 1e-3 * 300.0 ** rng.random()
        p0 = rng.uniform(1e-3, p0_max)
        widths = expected_widths_batch(spec, ns, p0, ConfidenceLevel(alpha))
        rises = [(m, w, v) for m, w, v in zip(ns, widths, widths[1:]) if v > w]
        assert not rises, (alpha, p0, rises[:3])


def planning_queries(seed: str, per_cell: int):
    """Seeded searches of the planning benchmark's range: CP two-sided and
    upper and Jeffreys two-sided at alpha .01, .05 and .1, p0 log-uniform in
    [.02, .5], and d the first-order width plus 1/n at an n log-uniform in
    [100, 2600]."""
    rng = random.Random(seed)
    queries = []
    for name, spec in GOLDEN_METHODS.items():
        for alpha in (0.01, 0.05, 0.1):
            level = ConfidenceLevel(alpha)
            z, scale = (level.z_full, 1.0) if spec.side is Side.UPPER else (level.z_half, 2.0)
            for _ in range(per_cell):
                n = 100.0 * 26.0 ** rng.random()
                p0 = 0.02 * 25.0 ** rng.random()
                d = scale * z * math.sqrt(p0 * (1.0 - p0) / n) + 1.0 / n
                queries.append((name, spec, d, p0, level))
    return queries


@pytest.fixture
def solved(monkeypatch):
    """The number of widths each of exact_n's batches solves, in order."""
    counts = []

    def counting(method, sizes, p0, level):
        counts.append(len(sizes))
        return expected_widths_batch(method, sizes, p0, level)

    monkeypatch.setattr(sample_size.exact_eval, "expected_widths_batch", counting)
    return counts


def test_exact_search_solves_few_widths(solved):
    # the second-order start solved about 12 widths per search here
    queries = planning_queries("widths", 4)
    for _, spec, d, p0, level in queries:
        exact_n(spec, d, p0, level)
    assert sum(solved) / len(queries) <= 6.0


BETA_PRIORS = [JEFFREYS_PRIOR, UNIFORM_PRIOR, BetaParams(1.5, 1.5), BetaParams(0.3, 2.0),
               BetaParams(2.0, 0.3)]


def test_beta_prior_upper_search_solves_few_widths(solved):
    # the first-order start z^2 p0 q0 / d^2 solved 171 widths per search here,
    # the shifted third-order start 8.9
    rng = random.Random("beta upper widths")
    searches = 40
    for i in range(searches):
        spec = MethodSpec.beta_prior(BETA_PRIORS[i % len(BETA_PRIORS)], Side.UPPER)
        alpha = 0.01 * 20.0 ** rng.random()
        p0 = rng.uniform(0.02, 0.9)
        d = 10.0 ** rng.uniform(-2.3, -1.0)
        exact_n(spec, d, p0, ConfidenceLevel(alpha))
    assert sum(solved) / searches <= 15.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("prior", [prior for prior in BETA_PRIORS if prior.a != 1.5], ids=str)
def test_beta_upper_one_over_n_term_matches_enumeration(prior, p):
    # v(n) = n (E[U - p] - z sqrt(pq/n)) = c + O(n^(-1/2)), so Richardson's
    # 2 v(16,000) - v(4,000) cancels the n^(-1/2) term and leaves c, the
    # Cornish-Fisher 1/n coefficient of the posterior quantile after E over X
    # (within 7.6e-4 in all 12 cases)
    level = ConfidenceLevel(0.05)
    z, a, b = level.z_full, prior.a, prior.b
    spec = MethodSpec.beta_prior(prior, Side.UPPER)
    c = a - (a + b) * p + (z * z - 1.0) * (1.0 - 2.0 * p) / 3.0
    ns = [4000, 16000]
    v = [n * (w - z * math.sqrt(p * (1.0 - p) / n))
         for n, w in zip(ns, expected_widths_batch(spec, ns, p, level))]
    assert abs(2.0 * v[1] - v[0] - c) <= 5e-3
    # and exact_n's start solves the third-order expansion with that term
    d = 0.01
    s = 1.0 / math.sqrt(sample_size._estimate_for(spec, d, p, level))
    t_threehalf = expected_distance_expansion(1, p, level).t_threehalf
    residual = ((t_threehalf * s + c) * s + z * math.sqrt(p * (1.0 - p))) * s - d
    assert abs(residual) <= 1e-12 * d


# _estimate_for(...).hex() recorded from the per-family starts that preceded
# the one Beta-posterior shift: that shift is exactly 0 for CP and exactly -1
# for two-sided Jeffreys, and Wilson and Agresti-Coull keep their printed
# forms, so none of these starts may move by a bit.  Drawn with alpha
# log-uniform in [1e-6, .5], p0 in [1e-4, 1) and d in [1e-4, .9].
GOLDEN_ESTIMATES = [
    ("cp", 0.000831, 0.00506, 0.809, "0x1.5bf68d921e488p+3"),
    ("cp", 3.26e-05, 0.00145, 0.000115, "0x1.ce6ed901d5cc2p+22"),
    ("cp", 7.14e-05, 0.00183, 0.000179, "0x1.b87dc1d33d7b3p+21"),
    ("cp", 2.63e-05, 0.00179, 0.0203, "0x1.46c614209c969p+9"),
    ("cp", 0.0252, 0.00597, 0.0367, "0x1.2abde364df470p+7"),
    ("cp", 0.000144, 0.0832, 0.000417, "0x1.82ed21e320c33p+24"),
    ("cp", 0.000275, 0.00017, 0.00246, "0x1.e6a358fbc2c7ep+11"),
    ("cp", 0.0669, 0.000304, 0.000375, "0x1.0bcf4fc94c830p+15"),
    ("cp_upper", 0.0575, 0.000672, 0.0197, "0x1.44c471f52555fp+7"),
    ("cp_upper", 7.52e-05, 0.0319, 0.00423, "0x1.a8ef9e2c5133dp+14"),
    ("cp_upper", 1.92e-05, 0.00117, 0.791, "0x1.b8dc4f6170565p+4"),
    ("cp_upper", 0.0051, 0.0412, 0.0282, "0x1.fb30a9908b07ap+8"),
    ("cp_upper", 0.00673, 0.00332, 0.747, "0x1.4982e2009a39ap+3"),
    ("cp_upper", 0.000392, 0.00659, 0.0337, "0x1.2eb79e9722e89p+8"),
    ("cp_upper", 0.343, 0.000581, 0.584, "0x1.f81c19eed293dp+1"),
    ("cp_upper", 0.000171, 0.024, 0.000278, "0x1.dea789757904fp+21"),
    ("jeffreys", 0.0725, 0.983, 0.0142, "0x1.0b192f0993189p+10"),
    ("jeffreys", 0.000187, 0.0371, 0.000692, "0x1.fc6a333dc0c83p+21"),
    ("jeffreys", 0.0143, 0.355, 0.00623, "0x1.148fd07409801p+17"),
    ("jeffreys", 0.0077, 0.0233, 0.601, "0x1.1d707a53534b0p+2"),
    ("jeffreys", 0.114, 0.147, 0.00104, "0x1.1acb24967b111p+20"),
    ("jeffreys", 0.0065, 0.0515, 0.000803, "0x1.11f4466c59ee1p+21"),
    ("jeffreys", 0.000415, 0.416, 0.0982, "0x1.38114b189b513p+10"),
    ("jeffreys", 0.0343, 0.305, 0.588, "0x1.5f8ce973870ecp+3"),
    ("wilson", 0.000134, 0.758, 0.000364, "0x1.341ade74b6951p+26"),
    ("wilson", 1.64e-06, 0.0026, 0.00174, "0x1.3bed77a599f34p+16"),
    ("wilson", 1.56e-06, 0.0254, 0.00873, "0x1.d8021d18e0ac0p+14"),
    ("wilson", 0.000186, 0.0548, 0.000723, "0x1.51e6fbb9af887p+22"),
    ("wilson", 0.000377, 0.000111, 0.00884, "0x1.71b833d186a9fp+10"),
    ("wilson", 0.000275, 0.647, 0.00397, "0x1.768c8c814b22ap+19"),
    ("wilson", 0.000795, 0.159, 0.000208, "0x1.0959b982a991bp+27"),
    ("wilson", 0.322, 0.000104, 0.000232, "0x1.27deedffb4f10p+13"),
    ("ac", 0.000656, 0.036, 0.000148, "0x1.18ad3c5af8d6cp+26"),
    ("ac", 0.000144, 0.00512, 0.17, "-0x1.10c732cf8d9a4p+2"),
    ("ac", 0.0159, 0.0974, 0.00359, "0x1.35d179db9780fp+17"),
    ("ac", 1.8e-05, 0.115, 0.00234, "0x1.4dcc9c4e2f31cp+20"),
    ("ac", 4.6e-05, 0.00231, 0.000194, "0x1.f086fb5b7bf24p+21"),
    ("ac", 0.00155, 0.000773, 0.000376, "0x1.ab973963f73bbp+17"),
    ("ac", 7.87e-06, 0.000155, 0.408, "-0x1.3e5137589f1e6p+4"),
    ("ac", 2.72e-05, 0.0193, 0.000157, "0x1.9c8850fae8745p+25"),
]
ESTIMATE_METHODS = {
    **GOLDEN_METHODS,
    "wilson": MethodSpec.wilson(),
    "ac": MethodSpec.agresti_coull(),
}


@pytest.mark.parametrize("name,alpha,p0,d,start", GOLDEN_ESTIMATES)
def test_exact_search_start_is_bit_identical(name, alpha, p0, d, start):
    level = ConfidenceLevel(alpha)
    assert sample_size._estimate_for(ESTIMATE_METHODS[name], d, p0, level).hex() == start


def test_exact_search_start_is_within_two_sizes():
    for name, spec, d, p0, level in planning_queries("start", 4):
        start = math.ceil(sample_size._estimate_for(spec, d, p0, level))
        n = exact_n(spec, d, p0, level).n
        assert abs(n - start) <= 2, (name, level.alpha, p0, d, n, start)


class TestNPlusTwoSided:
    def test_jeffreys_modes_agree_identically(self):
        for d in (0.03, 0.05, 0.08):
            for p0 in (0.1, 0.3, 0.5, 0.7):
                derived = n_plus_two_sided(ApproxFamily.JEFFREYS, d, p0, LEVEL)
                paper = n_plus_two_sided(
                    ApproxFamily.JEFFREYS, d, p0, LEVEL, FormulaMode.PAPER_VERBATIM
                )
                assert derived == pytest.approx(paper, abs=1e-9)

    def test_ac_modes_agree_identically(self):
        for d in (0.03, 0.05, 0.08):
            for p0 in (0.2, 0.5, 0.8):
                derived = n_plus_two_sided(ApproxFamily.AGRESTI_COULL, d, p0, LEVEL)
                paper = n_plus_two_sided(
                    ApproxFamily.AGRESTI_COULL, d, p0, LEVEL, FormulaMode.PAPER_VERBATIM
                )
                assert derived == pytest.approx(paper, abs=1e-9)

    def test_wilson_modes_differ_by_sign_flip(self):
        # the printed leading term d(1 + d z^2) versus the derived d(1 - d z^2)
        # shifts the result by exactly 2 z^2
        z2 = LEVEL.z_half**2
        for d in (0.03, 0.05, 0.08):
            derived = n_plus_two_sided(ApproxFamily.WILSON, d, 0.4, LEVEL)
            paper = n_plus_two_sided(
                ApproxFamily.WILSON, d, 0.4, LEVEL, FormulaMode.PAPER_VERBATIM
            )
            assert paper - derived == pytest.approx(2 * z2, abs=1e-9)

    def test_jeffreys_cost_about_forty(self):
        assert n_plus_two_sided(ApproxFamily.JEFFREYS, 0.05, 0.5, LEVEL) == pytest.approx(
            39.746, abs=0.001
        )

    def test_jeffreys_insensitivity_sweeps(self):
        # the cost is nearly flat in p0 at fixed alpha and in alpha at fixed p0
        over_p0 = [
            n_plus_two_sided(ApproxFamily.JEFFREYS, 0.05, 0.05 * i, LEVEL)
            for i in range(1, 20)
        ]
        assert max(over_p0) - min(over_p0) < 2.0
        over_alpha = [
            n_plus_two_sided(ApproxFamily.JEFFREYS, 0.05, 0.5, ConfidenceLevel(a))
            for a in (0.001, 0.01, 0.05, 0.1, 0.2)
        ]
        assert max(over_alpha) - min(over_alpha) < 2.0

    def test_ac_worked_value(self):
        assert n_plus_two_sided(
            ApproxFamily.AGRESTI_COULL, 0.05, 0.5, LEVEL
        ) == pytest.approx(43.588, abs=0.001)

    def test_formula_vs_search_gap(self):
        # the closed form overshoots the exact search by at most 4 at the 95%
        # level across the whole d x p0 grid
        for d in [0.03 + 0.01 * i for i in range(8)]:
            for ip in range(1, 10):
                p0 = ip / 10.0
                formula = cp_n_two_sided(SampleSizeQuery(d, LEVEL, p0=p0)).n
                search = exact_n(MethodSpec.clopper_pearson(), d, p0, LEVEL).n
                assert 0 <= formula - search <= 4

    def test_jeffreys_formula_tracks_exact_difference(self):
        for p0 in (0.2, 0.5, 0.8):
            formula = n_plus_two_sided(ApproxFamily.JEFFREYS, 0.05, p0, LEVEL)
            diff = (
                exact_n(MethodSpec.clopper_pearson(), 0.05, p0, LEVEL).n
                - exact_n(MethodSpec.jeffreys(), 0.05, p0, LEVEL).n
            )
            assert abs(formula - diff) < 3.0

    def test_wilson_formula_tracks_exact_difference(self):
        # The printed Wilson sample-size formula overshoots the enumerated
        # Wilson requirement by about 8 at the 95% level, so the derived
        # difference runs 5 to 7 below the exact one while the typeset
        # approximation lands within about 3 of it.
        for p0 in (0.2, 0.5, 0.8):
            derived = n_plus_two_sided(ApproxFamily.WILSON, 0.05, p0, LEVEL)
            paper = n_plus_two_sided(
                ApproxFamily.WILSON, 0.05, p0, LEVEL, FormulaMode.PAPER_VERBATIM
            )
            diff = (
                exact_n(MethodSpec.clopper_pearson(), 0.05, p0, LEVEL).n
                - exact_n(MethodSpec.wilson(), 0.05, p0, LEVEL).n
            )
            assert abs(paper - diff) <= 3.5
            assert 3.0 <= diff - derived <= 7.0


class TestNPlusOneSided:
    def test_derived_value(self):
        assert n_plus_one_sided(0.05, 0.5, LEVEL) == pytest.approx(19.655, abs=0.001)

    def test_paper_verbatim_value(self):
        got = n_plus_one_sided(0.05, 0.5, LEVEL, FormulaMode.PAPER_VERBATIM)
        assert got == pytest.approx(80.441, abs=0.001)

    def test_derived_tracks_exact_difference(self):
        formula = n_plus_one_sided(0.05, 0.5, LEVEL)
        diff = (
            exact_n(MethodSpec.clopper_pearson(Side.UPPER), 0.05, 0.5, LEVEL).n
            - exact_n(MethodSpec.jeffreys(Side.UPPER), 0.05, 0.5, LEVEL).n
        )
        assert abs(formula - diff) <= 4.0

    def test_half_minimizes_cost_over_conservative_guesses(self):
        # The one-sided cost falls monotonically in p0, so p0 = 1/2 is the
        # cheapest point of the conservative half-range (0, 1/2]; using it
        # as a default underestimates the cost of any smaller true p.
        base = n_plus_one_sided(0.05, 0.5, LEVEL)
        for p0 in (0.05, 0.1, 0.2, 0.3, 0.4, 0.45):
            assert base < n_plus_one_sided(0.05, p0, LEVEL)


class TestNPlusAdjusted:
    def test_worked_example(self):
        got = n_plus_adjusted(0.04, 0.5, LEVEL, 0.04)
        assert got == pytest.approx(-185.52, abs=0.01)

    def test_reduces_to_jeffreys_cost_at_gamma_alpha(self):
        for d in (0.03, 0.05, 0.08):
            for p0 in (0.2, 0.5, 0.7):
                adjusted = n_plus_adjusted(d, p0, LEVEL, LEVEL.alpha)
                plain = n_plus_two_sided(
                    ApproxFamily.JEFFREYS, d, p0, LEVEL, FormulaMode.PAPER_VERBATIM
                )
                assert adjusted == pytest.approx(plain, abs=1e-9)

    def test_monotone_in_gamma(self):
        values = [
            n_plus_adjusted(0.04, 0.5, LEVEL, g) for g in (0.01, 0.03, 0.05, 0.1, 0.2)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_gamma_validation(self):
        with pytest.raises(DomainError):
            n_plus_adjusted(0.04, 0.5, LEVEL, 0.0)


# Closed forms whose n or n-plus is not a finite float at d = 1e-300, where
# d^2 underflows to 0; each once raised ZeroDivisionError or OverflowError.
TINY_TARGET_FORMS = {
    "cp_n_two_sided": lambda d: cp_n_two_sided(SampleSizeQuery(d, LEVEL, p0=0.5)),
    "cp_n_two_sided_prior": lambda d: cp_n_two_sided_prior(
        SampleSizeQuery(d, LEVEL, prior=JEFFREYS_PRIOR)
    ),
    "cp_n_one_sided": lambda d: cp_n_one_sided(SampleSizeQuery(d, LEVEL, Side.UPPER, 0.3)),
    "cp_n_one_sided_paper": lambda d: cp_n_one_sided(
        SampleSizeQuery(d, LEVEL, Side.UPPER, 0.3), FormulaMode.PAPER_VERBATIM
    ),
    "cp_n_one_sided_prior": lambda d: cp_n_one_sided_prior(
        SampleSizeQuery(d, LEVEL, Side.UPPER, prior=JEFFREYS_PRIOR)
    ),
    "jeffreys_one_sided_n_verbatim": lambda d: jeffreys_one_sided_n_verbatim(d, LEVEL),
    "approx_method_n": lambda d: approx_method_n(ApproxFamily.WILSON, d, 0.5, LEVEL),
    "n_plus_two_sided": lambda d: n_plus_two_sided(ApproxFamily.JEFFREYS, d, 0.5, LEVEL),
    "n_plus_two_sided_paper": lambda d: n_plus_two_sided(
        ApproxFamily.JEFFREYS, d, 0.5, LEVEL, FormulaMode.PAPER_VERBATIM
    ),
    "n_plus_one_sided": lambda d: n_plus_one_sided(d, 0.5, LEVEL),
    "n_plus_one_sided_paper": lambda d: n_plus_one_sided(
        d, 0.5, LEVEL, FormulaMode.PAPER_VERBATIM
    ),
    "n_plus_adjusted": lambda d: n_plus_adjusted(d, 0.5, LEVEL, 0.04),
}


@pytest.mark.parametrize("form", TINY_TARGET_FORMS.values(), ids=TINY_TARGET_FORMS)
def test_tiny_target_is_domain_error_naming_d(form):
    with pytest.raises(DomainError, match="target d=1e-300 is too small"):
        form(1e-300)


@pytest.mark.parametrize("name", ["cp_n_two_sided", "cp_n_two_sided_prior"])
def test_target_past_the_float_range_is_domain_error(name):
    # d^2 is a finite 1e-310 here, but n is above the float range
    with pytest.raises(DomainError, match="target d=1e-155 is too small"):
        TINY_TARGET_FORMS[name](1e-155)


@pytest.mark.parametrize("d", [1e-155, 1e-300])
@pytest.mark.parametrize("spec", [MethodSpec.clopper_pearson(), MethodSpec.wilson()], ids=str)
def test_tiny_target_search_starts_at_n_max(spec, d, solved):
    # an infinite start is n_max, not a walk up from n = 2
    with pytest.raises(SearchBudgetError, match="no n <= 2000"):
        exact_n(spec, d, 0.5, LEVEL, n_max=2000)
    assert solved == [3]


def test_tiny_one_sided_target_above_alpha_half_starts_at_n_max(solved):
    # alpha > 1/2 puts the root's t_half below 0; the cancelling form gave 0
    # there, "unattainable", and the walk went up from n = 2 for hours
    spec = MethodSpec.clopper_pearson(Side.UPPER)
    level = ConfidenceLevel(0.5413427394536561)
    with pytest.raises(SearchBudgetError, match="no n <= 1000000"):
        exact_n(spec, 3.272130634310096e-256, 2.8424046219764744e-86, level)
    assert solved == [3]


def test_start_at_p0_near_zero_is_not_the_cubic_root(solved):
    # at p0 = 1e-17 the cubic term is 2.0e6 times the other two at the
    # second-order root (49); the third-order root, 32,033, made the walk
    # down solve 31,880 widths in 6.6 s
    spec = MethodSpec.clopper_pearson()
    level = ConfidenceLevel(0.0854571721402093)
    assert exact_n(spec, 0.020431879140054066, 1e-17, level).n == 153
    assert sum(solved) <= 300, solved
