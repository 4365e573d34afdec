import math

import pytest

from binomci.errors import DomainError, SearchBudgetError
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
        with pytest.raises(DomainError):
            SampleSizeQuery(0.05, LEVEL, Side.LOWER, p0=0.5)

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

    def test_n_max_below_two_rejected(self):
        with pytest.raises(DomainError):
            exact_n(MethodSpec.clopper_pearson(), 0.5, 0.5, LEVEL, n_max=1)

    def test_n_max_must_be_an_integer(self):
        # used to raise TypeError from range()
        with pytest.raises(DomainError, match="integer"):
            exact_n(MethodSpec.clopper_pearson(), 0.5, 0.5, LEVEL, n_max=2.5)

    def test_target_above_one_sided_expansion_peak(self):
        # the closed form has no solution here, but n = 2 already meets d
        res = exact_n(MethodSpec.clopper_pearson(Side.UPPER), 0.2, 0.9, LEVEL)
        assert res.n == 2
        assert res.achieved <= 0.2


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
# 40-digit sum at the same endpoints, where the table's were up to 5.8e-12).
GOLDEN_SEARCHES = [
    ("cp", 0.01, 0.02, 0.07212, 134, "0x1.261b0a912ce52p-4"),
    ("cp", 0.01, 0.1, 0.09775, 267, "0x1.903400b14444fp-4"),
    ("cp", 0.01, 0.3, 0.09638, 616, "0x1.8abdc330c8174p-4"),
    ("cp", 0.01, 0.5, 0.06651, 1525, "0x1.106ca6ced7f0fp-4"),
    ("cp", 0.05, 0.02, 0.01002, 3197, "0x1.484915c0513dbp-7"),
    ("cp", 0.05, 0.1, 0.1176, 114, "0x1.e07499f2bb130p-4"),
    ("cp", 0.05, 0.3, 0.1136, 265, "0x1.d06aaac6d41f7p-4"),
    ("cp", 0.05, 0.5, 0.08002, 622, "0x1.4790a36a64c2fp-4"),
    ("cp", 0.1, 0.02, 0.01189, 1662, "0x1.859bc8f3c055ap-7"),
    ("cp", 0.1, 0.1, 0.01802, 3107, "0x1.273a15074095ep-6"),
    ("cp", 0.1, 0.3, 0.1508, 111, "0x1.3368ce2de173bp-3"),
    ("cp", 0.1, 0.5, 0.104, 267, "0x1.a956bde6ca954p-4"),
    ("cp_upper", 0.01, 0.02, 0.0133, 942, "0x1.b3a623eaacf36p-7"),
    ("cp_upper", 0.01, 0.1, 0.01802, 1724, "0x1.27337825ae6fep-6"),
    ("cp_upper", 0.01, 0.3, 0.01946, 3129, "0x1.3ed522017c33dp-6"),
    ("cp_upper", 0.01, 0.5, 0.1163, 105, "0x1.da90225611af5p-4"),
    ("cp_upper", 0.05, 0.02, 0.01456, 447, "0x1.dd1a123f43bcap-7"),
    ("cp_upper", 0.05, 0.1, 0.02015, 730, "0x1.49e92d3cee15ap-6"),
    ("cp_upper", 0.05, 0.3, 0.01946, 1593, "0x1.3ec3c6883a769p-6"),
    ("cp_upper", 0.05, 0.5, 0.01502, 3062, "0x1.ec2342e4d3408p-7"),
    ("cp_upper", 0.1, 0.02, 0.01794, 222, "0x1.256bf8c23d058p-6"),
    ("cp_upper", 0.1, 0.1, 0.02432, 334, "0x1.8df6a11af843ap-6"),
    ("cp_upper", 0.1, 0.3, 0.02398, 663, "0x1.88abc758121b5p-6"),
    ("cp_upper", 0.1, 0.5, 0.01654, 1559, "0x1.0ef14934d4b74p-6"),
    ("jeffreys", 0.01, 0.02, 0.01317, 3006, "0x1.af7ce563abcacp-7"),
    ("jeffreys", 0.01, 0.1, 0.1545, 98, "0x1.3ad8a357c6077p-3"),
    ("jeffreys", 0.01, 0.3, 0.1493, 246, "0x1.3160f3ffe44e3p-3"),
    ("jeffreys", 0.01, 0.5, 0.1052, 595, "0x1.aec98f9b0234ep-4"),
    ("jeffreys", 0.05, 0.02, 0.01417, 1501, "0x1.d02dd2cfbee1ep-7"),
    ("jeffreys", 0.05, 0.1, 0.02147, 2998, "0x1.5fb7ba91a6bfdp-6"),
    ("jeffreys", 0.05, 0.3, 0.1796, 97, "0x1.6f271c5606c05p-3"),
    ("jeffreys", 0.05, 0.5, 0.124, 247, "0x1.fb4adc44e3e15p-4"),
    ("jeffreys", 0.1, 0.02, 0.0188, 598, "0x1.33fa9bd5f51adp-6"),
    ("jeffreys", 0.1, 0.1, 0.02548, 1498, "0x1.a16391490d82cp-6"),
    ("jeffreys", 0.1, 0.3, 0.02752, 2998, "0x1.c2e25d341c66cp-6"),
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
