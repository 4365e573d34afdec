"""Sample-size determination and cost-of-exactness calculators.

Closed forms for the sample size that gives the Clopper-Pearson methods a
target expected length (two-sided) or expected distance to p (one-sided),
prior-averaged variants, the printed sample-size formulas for the
approximate comparison methods, an exact enumeration search, and the
n-plus quantities measuring how many extra observations exactness costs.

Every derived closed form inverts t_half n^(-1/2) + t_one / n = d by one
root, _root_n, which never divides by t_one; the point-guess forms read
their coefficients from `expansions`.  The exact search of every CP and
Beta-prior method starts from that root carried to third order,
_third_order_n, on CP's expansion shifted by each end's posterior mean
(see _estimate_for).

Several printed displays disagree with their own derivations; those
operations therefore run in one of two modes.  DERIVED_ALGEBRA (the
default) evaluates the algebraically consistent form, PAPER_VERBATIM the
display exactly as typeset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import exact_eval
from .errors import DomainError, SearchBudgetError
from .expansions import expected_distance_expansion, expected_length_expansion
from .methods import (
    ApproxFamily, ConfidenceLevel, Family, MethodSpec, Side, _check_member, _end_priors
)
from .special import BetaParams, _is_count, log_gamma, normal_quantile


class FormulaMode(Enum):
    DERIVED_ALGEBRA = "derived"
    PAPER_VERBATIM = "paper"


@dataclass(frozen=True)
class SampleSizeQuery:
    """Target width/distance d with either a point guess p0 or a Beta prior.

    Two-sided queries interpret d as a full expected length; one-sided
    queries interpret it as the expected distance from the upper bound to p,
    which also reads as an error tolerance.
    """

    d: float
    level: ConfidenceLevel
    side: Side = Side.TWO_SIDED
    p0: float | None = None
    prior: BetaParams | None = None

    def __post_init__(self):
        if not (0.0 < self.d < 1.0):
            raise DomainError(f"target d must be in (0, 1), got {self.d}")
        _check_member(self.side, Side, "side")
        if self.side not in (Side.TWO_SIDED, Side.UPPER):
            raise DomainError(f"sample sizes take side two-sided or upper, got {self.side.value}")
        if (self.p0 is None) == (self.prior is None):
            raise DomainError("exactly one of p0 and prior must be given")
        if self.p0 is not None and not (0.0 < self.p0 < 1.0):
            raise DomainError(f"p0 must be in (0, 1), got {self.p0}")


@dataclass(frozen=True)
class SampleSizeResult:
    n: int
    n_unrounded: float
    formula: FormulaMode
    achieved: float | None = None

    def __post_init__(self):
        if self.n != math.ceil(self.n_unrounded):
            raise DomainError("n must be the ceiling of n_unrounded")


def prior_moment(prior: BetaParams) -> float:
    """Mean of sqrt(p(1-p)) under a Beta(a, b) prior.

    Equals Gamma(a+1/2) Gamma(b+1/2) / ((a+b) Gamma(a) Gamma(b)); for the
    Jeffreys, uniform and Beta(2, 2) priors this is 1/pi, pi/8 and 9 pi/64.
    """
    a, b = prior.a, prior.b
    return math.exp(
        log_gamma(a + 0.5)
        + log_gamma(b + 0.5)
        - math.log(a + b)
        - log_gamma(a)
        - log_gamma(b)
    )


def _require_point(q: SampleSizeQuery) -> float:
    if q.p0 is None:
        raise DomainError("this operation needs a point guess p0")
    return q.p0


def _require_prior(q: SampleSizeQuery) -> BetaParams:
    if q.prior is None:
        raise DomainError("this operation needs a Beta prior")
    return q.prior


def _check_target(d: float, p0: float) -> None:
    if not (0.0 < d < 1.0) or not (0.0 < p0 < 1.0):
        raise DomainError(f"need 0 < d < 1 and 0 < p0 < 1, got d={d}, p0={p0}")


def _root_n(t_half: float, t_one: float, d: float, where: str) -> float:
    """The n solving t_half n^(-1/2) + t_one / n = d, a quadratic in sqrt(n).

    sqrt(n) = (t_half + sqrt(t_half^2 + 4 t_one d)) / (2 d) never divides by
    t_one, so a t_one near zero costs no digits (Goldberg 1991, section 1.4).
    A t_one < 0 makes the expansion peak at a finite n; a d above the peak
    leaves a negative discriminant and is unattainable.
    """
    disc = t_half * t_half + 4.0 * t_one * d
    root_n = (t_half + math.sqrt(disc)) / (2.0 * d) if disc >= 0.0 else math.nan
    if not (root_n > 0.0):
        raise DomainError(f"target d={d} is unattainable{where}")
    return root_n * root_n


def cp_n_two_sided(query: SampleSizeQuery) -> SampleSizeResult:
    """Sample size for a target expected two-sided Clopper-Pearson length."""
    if query.side is not Side.TWO_SIDED:
        raise DomainError("cp_n_two_sided requires a two-sided query")
    p0 = _require_point(query)
    terms = expected_length_expansion(1, p0, query.level)  # coefficients do not depend on n
    n = _root_n(terms.t_half, terms.t_one, query.d, f" for p0={p0}")
    return SampleSizeResult(math.ceil(n), n, FormulaMode.DERIVED_ALGEBRA)


def cp_n_two_sided_prior(query: SampleSizeQuery) -> SampleSizeResult:
    """Two-sided sample size with p integrated out against a Beta prior."""
    if query.side is not Side.TWO_SIDED:
        raise DomainError("cp_n_two_sided_prior requires a two-sided query")
    t_half = 2.0 * query.level.z_half * prior_moment(_require_prior(query))
    n = _root_n(t_half, 1.0, query.d, " for this prior")
    return SampleSizeResult(math.ceil(n), n, FormulaMode.DERIVED_ALGEBRA)


def cp_n_one_sided(
    query: SampleSizeQuery, formula: FormulaMode = FormulaMode.DERIVED_ALGEBRA
) -> SampleSizeResult:
    """Sample size for a target expected distance of the upper CP bound to p.

    DERIVED_ALGEBRA inverts the second-order expected_distance_expansion as a
    quadratic in sqrt(n).  PAPER_VERBATIM evaluates the printed display
    exactly as typeset (which is inconsistent with that derivation).  For p0
    well above 1/2 the expansion peaks at a finite n, and a d above the peak
    is unattainable in both modes.
    """
    _check_member(formula, FormulaMode, "formula")
    if query.side is not Side.UPPER:
        raise DomainError("cp_n_one_sided requires an upper one-sided query")
    p0 = _require_point(query)
    d = query.d
    if formula is FormulaMode.DERIVED_ALGEBRA:
        terms = expected_distance_expansion(1, p0, query.level)  # coefficients do not depend on n
        n = _root_n(terms.t_half, terms.t_one, d, f" for p0={p0}")
        return SampleSizeResult(math.ceil(n), n, formula)
    q0 = 1.0 - p0
    pq = p0 * q0
    z = query.level.z_full
    z2 = z * z
    disc = 3.0 * z2 * pq + 4.0 * (d * z2 - 2.0 * d * z2 * p0 + d * (1.0 + q0))
    n = (
        9.0 * z2 * pq
        + 3.0 * z * math.sqrt(3.0 * pq) * math.sqrt(max(disc, 0.0))
        + 6.0 * (2.0 * z2 * (0.5 - p0) + (1.0 + q0))
    ) / (2.0 * d * d)
    if disc < 0.0 or not (n > 0.0):
        raise DomainError(f"target d={d} is unattainable for p0={p0}")
    return SampleSizeResult(math.ceil(n), n, formula)


_ONE_SIDED_PRIOR_LIMIT = 2.0


def _one_sided_prior_coeffs(prior: BetaParams, z: float) -> tuple[float, float]:
    a, b = prior.a, prior.b
    if not (0.0 < a < _ONE_SIDED_PRIOR_LIMIT and 0.0 < b < _ONE_SIDED_PRIOR_LIMIT):
        raise DomainError(
            "prior-averaged one-sided sample size needs 0 < a < 2 and 0 < b < 2 "
            f"(gamma-function poles), got a={a}, b={b}"
        )
    coeff_half = z * math.exp(
        log_gamma(2.5 - a) + log_gamma(2.5 - b) - log_gamma(5.0 - a - b)
    )
    coeff_one = (2.0 + z * z) / 3.0 * math.exp(
        log_gamma(2.0 - a) + log_gamma(2.0 - b) - log_gamma(4.0 - a - b)
    ) - (2.0 * z * z + 1.0) / 3.0 * math.exp(
        log_gamma(3.0 - a) + log_gamma(2.0 - b) - log_gamma(5.0 - a - b)
    )
    return coeff_half, coeff_one


def cp_n_one_sided_prior(query: SampleSizeQuery) -> SampleSizeResult:
    """One-sided sample size with p integrated out against a Beta prior.

    Inverts A n^(-1/2) + B n^(-1) = d, where A and B are the prior-averaged
    expansion coefficients (for the Jeffreys prior A = z/6 and B = pi/16),
    by the same root as the point-guess forms, without cancellation: B is a
    difference of two terms and is zero, tiny or negative for some priors.
    """
    if query.side is not Side.UPPER:
        raise DomainError("cp_n_one_sided_prior requires an upper one-sided query")
    coeff_half, coeff_one = _one_sided_prior_coeffs(
        _require_prior(query), query.level.z_full
    )
    n = _root_n(coeff_half, coeff_one, query.d, " for this prior")
    return SampleSizeResult(math.ceil(n), n, FormulaMode.DERIVED_ALGEBRA)


def jeffreys_one_sided_n_verbatim(d: float, level: ConfidenceLevel) -> float:
    """The printed Jeffreys-prior one-sided closed form, exactly as typeset.

    Kept for comparison; it disagrees with the direct inversion of the
    prior-averaged expansion by a large factor.
    """
    if not (0.0 < d < 1.0):
        raise DomainError(f"target d must be in (0, 1), got {d}")
    z = level.z_full
    return 6.0 * z * (z + math.sqrt(z * z + 9.0 * d * math.pi)) / (d * d) + math.pi / (
        16.0 * d
    )


def approx_method_n(
    family: ApproxFamily, d: float, p0: float, level: ConfidenceLevel
) -> SampleSizeResult:
    """Printed sample-size formulas for the approximate comparison intervals."""
    _check_member(family, ApproxFamily, "family")
    _check_target(d, p0)
    z = level.z_half
    z2 = z * z
    q0 = 1.0 - p0
    pq = p0 * q0
    if family is ApproxFamily.JEFFREYS:
        n = 4.0 * z2 * pq / (d * d)
    elif family is ApproxFamily.WILSON:
        n = (
            z2
            * (pq + d * d / 2.0 + math.sqrt(pq * pq + d * d * (p0 - 0.5) ** 2))
            * 2.0
            / (d * d)
        )
    else:
        n = 4.0 * z2 * pq / (d * d) - z2
    return SampleSizeResult(math.ceil(n), n, FormulaMode.DERIVED_ALGEBRA)


_NEWTON_STEPS = 8


def _third_order_n(
    t_half: float, t_one: float, t_threehalf: float, d: float, where: str
) -> float:
    """The n solving t_half s + t_one s^2 + t_threehalf s^3 = d, s = n^(-1/2).

    Newton's method on s from _root_n's second-order root, which raises
    DomainError where that root does not exist.  That root is kept where
    Newton leaves the rising branch (t_threehalf < 0 puts a peak in the
    cubic) or does not give a finite s > 0.
    """
    n = _root_n(t_half, t_one, d, where)
    s = 1.0 / math.sqrt(n)
    for _ in range(_NEWTON_STEPS):
        slope = (3.0 * t_threehalf * s + 2.0 * t_one) * s + t_half
        if not (slope > 0.0):
            return n
        step = (((t_threehalf * s + t_one) * s + t_half) * s - d) / slope
        s -= step
        if abs(step) <= 1e-15 * s:
            break
    return 1.0 / (s * s) if math.isfinite(s) and s > 0.0 else n


def _estimate_for(method: MethodSpec, d: float, p0: float, level: ConfidenceLevel) -> float:
    """Closed-form start for exact_n's walk.

    Wilson and Agresti-Coull keep their printed formulas: a third-order
    start from CP's length minus their excess_length left offsets from -17
    to +4 over 160 seeded searches, too wide for one block.  Every other
    start is the third-order root (_third_order_n) of CP's expansion with
    each end's 1/n term moved by its posterior mean (methods._end_priors),
    (x + a) / (n + a + b) = p + (a - (a + b) p) / n + ...: the upper end by
    (a_U - 1) - (a_U + b_U - 1) p0 and the lower by a_L - (a_L + b_L - 1) p0,
    exactly 0 for CP.  On the `planning` benchmark's queries (n 100 to
    2,600, p0 .02 to .5, alpha .01 to .1) it lands within 2 sizes.
    """
    if method.family in (Family.WILSON, Family.AGRESTI_COULL):
        return approx_method_n(ApproxFamily(method.family.value), d, p0, level).n_unrounded
    two_sided = method.side is Side.TWO_SIDED
    expansion = expected_length_expansion if two_sided else expected_distance_expansion
    terms = expansion(1, p0, level)  # coefficients do not depend on n
    (a_lo, b_lo), (a_up, b_up) = _end_priors(method)
    t_one = terms.t_one + ((a_up - 1.0) - (a_up + b_up - 1.0) * p0)
    if two_sided:
        t_one -= a_lo - (a_lo + b_lo - 1.0) * p0
    return _third_order_n(terms.t_half, t_one, terms.t_threehalf, d, f" for p0={p0}")


_EXACT_BLOCK = 5


def exact_n(
    method: MethodSpec,
    d: float,
    p0: float,
    level: ConfidenceLevel,
    n_max: int = 10**6,
) -> SampleSizeResult:
    """Smallest n in [2, n_max] whose exact expected width/distance is <= d.

    Walks from the closed-form estimate (_estimate_for): down while n - 1
    passes, or up to the first passing n.  The estimate is solved in one
    batched pass with its neighbours, the _EXACT_BLOCK = 5 sizes centred on
    it; a miss then solves the sizes beyond it in the walk's direction,
    _EXACT_BLOCK of them or as many as it lies from the estimate, if more.
    For Clopper-Pearson and every Beta prior the estimate is a third-order
    root; on the `planning` benchmark's queries it lies within 2 sizes of
    the answer, so one pass of 5 nearly always holds both the answer and
    the n - 1 that fails.

    That n is the smallest wherever the expected width does not rise in n.
    Over n = 2..300 and alpha .001 to .3 it does not rise for Clopper-Pearson
    (two-sided and upper), Jeffreys, Wilson, Agresti-Coull and Beta(0.3, 2)
    intervals, nor for the Jeffreys and uniform upper bounds at p0 <= 0.5
    (tests pin a seeded sweep).  It rises at small n for Beta-prior upper
    bounds at higher p0 (Jeffreys and uniform from p0 = 0.7, Beta(0.3, 2)
    from 0.2) and for two-sided Beta(0.1, 0.1) from n = 2 to 3 at p0 >= 0.2.
    A Beta-prior upper bound whose 1/n coefficient a - (a + b) p0 +
    (z^2 - 1)(1 - 2 p0)/3 is below 0 has a negative expected distance at
    small n: a d above its expansion's peak starts the walk at n = 2, which
    passes, and one below the peak can stop above a run of small passing n.
    Wald is rejected: its width is 0 at x = 0 and x = n, so its expected
    width rises with n at small n.
    """
    if method.family is Family.WALD:
        raise DomainError("exact_n does not take Wald: its expected width rises with n at small n")
    if method.side is Side.LOWER:
        raise DomainError("exact_n takes side two-sided or upper")
    if not (d > 0.0):
        raise DomainError(f"target d must be positive, got {d}")
    if not (0.0 < p0 < 1.0):
        raise DomainError(f"p0 must be in (0, 1), got {p0}")
    if not _is_count(n_max) or n_max < 2:
        raise DomainError(f"n_max must be an integer of at least 2, got {n_max!r}")

    cache: dict[int, float] = {}

    def passing(m: int, below: int, above: int) -> bool:
        """Whether m meets d; a miss solves the sizes m - below to m + above."""
        if m not in cache:
            if len(cache) > 200_000:
                raise SearchBudgetError("exact_n evaluation budget exhausted")
            sizes = range(max(2, m - below), min(n_max, m + above) + 1)
            cache.update(zip(sizes, exact_eval.expected_widths_batch(method, sizes, p0, level)))
        return cache[m] <= d

    # A d the closed forms cannot take (d >= 1 for the printed forms, which
    # any realized width meets, or one above the peak of the one-sided
    # expansion) is large, so the walk then starts from the bottom.
    try:
        n = min(max(2, math.ceil(_estimate_for(method, d, p0, level))), n_max)
    except DomainError:
        n = 2
    start, reach = n, _EXACT_BLOCK - 1
    if passing(n, reach // 2, reach // 2):
        while n > 2 and passing(n - 1, max(reach, start - n + 1), 0):
            n -= 1
    else:
        while not passing(n, 0, max(reach, n - start)):
            if n >= n_max:
                raise SearchBudgetError(
                    f"no n <= {n_max} achieves expected width {d} for {method}"
                )
            n += 1
    return SampleSizeResult(n, float(n), FormulaMode.DERIVED_ALGEBRA, cache[n])


def n_plus_two_sided(
    vs: ApproxFamily,
    d: float,
    p0: float,
    level: ConfidenceLevel,
    formula: FormulaMode = FormulaMode.DERIVED_ALGEBRA,
) -> float:
    """Extra observations the exact interval needs versus an approximate one.

    DERIVED_ALGEBRA takes the unrounded difference of the two sample-size
    formulas.  PAPER_VERBATIM evaluates the printed approximations; for the
    Jeffreys and Agresti-Coull comparisons the two modes coincide
    identically, for Wilson they differ in the sign of one d^2 z^2 term.
    """
    _check_member(vs, ApproxFamily, "vs")
    _check_member(formula, FormulaMode, "formula")
    _check_target(d, p0)
    z = level.z_half
    z2 = z * z
    q0 = 1.0 - p0
    pq = p0 * q0
    if formula is FormulaMode.DERIVED_ALGEBRA:
        n_cp = cp_n_two_sided(SampleSizeQuery(d, level, Side.TWO_SIDED, p0)).n_unrounded
        return n_cp - approx_method_n(vs, d, p0, level).n_unrounded
    root = math.sqrt(z2 * pq * pq + d * pq)
    if vs is ApproxFamily.JEFFREYS:
        return (d - 2.0 * z * (z * pq - root)) / (d * d)
    if vs is ApproxFamily.WILSON:
        other = math.sqrt(z2 * pq * pq + d * d * z2 * (p0 - 0.5) ** 2)
        return (d * (1.0 + d * z2) + 2.0 * z * (root - other)) / (d * d)
    return (d + z2 * (d * d - 2.0 * pq) + 2.0 * z * root) / (d * d)


def n_plus_one_sided(
    d: float,
    p0: float,
    level: ConfidenceLevel,
    formula: FormulaMode = FormulaMode.DERIVED_ALGEBRA,
) -> float:
    """Extra observations the exact upper bound needs versus the naive
    first-order sample size z^2 p0 q0 / d^2 for an approximate bound."""
    _check_member(formula, FormulaMode, "formula")
    _check_target(d, p0)
    z = level.z_full
    if formula is FormulaMode.DERIVED_ALGEBRA:
        n_cp = cp_n_one_sided(SampleSizeQuery(d, level, Side.UPPER, p0)).n_unrounded
        return n_cp - z * z * (p0 * (1.0 - p0)) / (d * d)
    z2 = z * z
    q0 = 1.0 - p0
    pq = p0 * q0
    omega = 9.0 * z2 * pq + 12.0 * d * z2 - 24.0 * d * z2 * p0
    if omega + 12.0 * d * (0.5 - p0) < 0.0:
        raise DomainError(f"target d={d} is unattainable for p0={p0}")
    return (
        math.sqrt(omega + 12.0 * d * (1.0 + q0))
        - math.sqrt(omega + 12.0 * d * (0.5 - p0))
        + d / 2.0
    ) / (d * d)


def n_plus_adjusted(d: float, p0: float, level: ConfidenceLevel, gamma: float) -> float:
    """Extra observations of the exact interval versus a gamma-adjusted
    Jeffreys interval (nominal level 1 - gamma), as printed; negative values
    mean the exact interval needs fewer observations."""
    _check_target(d, p0)
    if not (0.0 < gamma < 1.0):
        raise DomainError(f"gamma must be in (0, 1), got {gamma}")
    if 1.0 - gamma / 2.0 == 1.0:  # gamma <= 2^-53: no finite z_g
        raise DomainError(f"gamma too small: 1 - gamma/2 rounds to 1, got gamma={gamma}")
    z_a = level.z_half
    z_g = normal_quantile(1.0 - gamma / 2.0)
    q0 = 1.0 - p0
    pq = p0 * q0
    return (
        d
        + 2.0 * pq * (z_a * z_a - 2.0 * z_g * z_g)
        + 2.0 * z_a * math.sqrt(z_a * z_a * pq * pq + d * pq)
    ) / (d * d)
