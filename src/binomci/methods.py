"""Confidence interval and bound constructions for a binomial proportion.

One uniform abstraction (MethodSpec -> IntervalEstimate) over the exact
Clopper-Pearson interval and bounds and the usual approximate competitors:
Wald, Wilson score, Agresti-Coull and equal-tailed Bayesian beta intervals
(Jeffreys and other Beta(a, b) priors).  Their formulas are one table,
_endpoints, over the kernel namespace of :mod:`binomci.special`: interval()
runs it on floats, the engine on arrays, and the namespace's `quantiles` op
solves the Beta-quantile ends.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, UnsupportedSideError
from .special import (
    SCALAR,
    BetaParams,
    JEFFREYS_PRIOR,
    UNIFORM_PRIOR,
    _is_count,
    beta_quantile,
    normal_quantile,
)


class Family(Enum):
    CLOPPER_PEARSON = "cp"
    WALD = "wald"
    WILSON = "wilson"
    AGRESTI_COULL = "ac"
    BETA_PRIOR = "beta"


class Side(Enum):
    TWO_SIDED = "two-sided"
    UPPER = "upper"
    LOWER = "lower"


class ApproxFamily(Enum):
    """Approximate competitors used in length and sample-size comparisons."""

    JEFFREYS = "jeffreys"
    WILSON = "wilson"
    AGRESTI_COULL = "ac"


def _check_member(value, kind: type[Enum], name: str) -> None:
    """DomainError naming `name` unless value is a member of the enum `kind`."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class Observation:
    """x successes out of n trials."""

    x: int
    n: int

    def __post_init__(self):
        if not (_is_count(self.x) and _is_count(self.n)):
            raise DomainError(f"x and n must be integers, got x={self.x!r}, n={self.n!r}")
        if self.n < 1:
            raise DomainError(f"need at least one trial, got n={self.n}")
        if not (0 <= self.x <= self.n):
            raise DomainError(f"need 0 <= x <= n, got x={self.x}, n={self.n}")

    @property
    def p_hat(self) -> float:
        return self.x / self.n


@dataclass(frozen=True)
class ConfidenceLevel:
    """Nominal level 1 - alpha with cached normal quantiles.

    z_half is the upper alpha/2 quantile (two-sided use), z_full the upper
    alpha quantile (one-sided use); both are derived from alpha, never passed.
    """

    alpha: float
    z_half: float = field(init=False)
    z_full: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        if 1.0 - self.alpha / 2.0 == 1.0:  # alpha <= 2^-53: no finite z_half
            raise DomainError(f"alpha too small: 1 - alpha/2 rounds to 1, got alpha={self.alpha}")
        object.__setattr__(self, "z_half", normal_quantile(1.0 - self.alpha / 2.0))
        object.__setattr__(self, "z_full", normal_quantile(1.0 - self.alpha))


@dataclass(frozen=True)
class MethodSpec:
    """A confidence method: family, sidedness and (for beta methods) a prior."""

    family: Family
    side: Side = Side.TWO_SIDED
    prior: BetaParams | None = None

    def __post_init__(self):
        _check_member(self.family, Family, "family")
        _check_member(self.side, Side, "side")
        if self.family is Family.BETA_PRIOR:
            if self.prior is None:
                raise DomainError("beta-prior method requires prior parameters")
        elif self.prior is not None:
            raise DomainError(f"{self.family.value} method takes no prior")
        if self.family in (Family.WILSON, Family.AGRESTI_COULL) and self.side is not Side.TWO_SIDED:
            raise UnsupportedSideError(
                f"one-sided {self.family.value} bounds are not implemented"
            )

    def __str__(self) -> str:
        """The CLI's --method spelling, then the side unless it is two-sided."""
        name = self.family.value if self.prior is None else "jeffreys"
        if self.prior not in (None, JEFFREYS_PRIOR):
            name = f"beta:{float(self.prior.a)!r},{float(self.prior.b)!r}"
        return name if self.side is Side.TWO_SIDED else f"{name} {self.side.value}"

    @classmethod
    def clopper_pearson(cls, side: Side = Side.TWO_SIDED) -> "MethodSpec":
        return cls(Family.CLOPPER_PEARSON, side)

    @classmethod
    def wald(cls, side: Side = Side.TWO_SIDED) -> "MethodSpec":
        return cls(Family.WALD, side)

    @classmethod
    def wilson(cls) -> "MethodSpec":
        return cls(Family.WILSON)

    @classmethod
    def agresti_coull(cls) -> "MethodSpec":
        return cls(Family.AGRESTI_COULL)

    @classmethod
    def beta_prior(cls, prior: BetaParams, side: Side = Side.TWO_SIDED) -> "MethodSpec":
        return cls(Family.BETA_PRIOR, side, prior)

    @classmethod
    def jeffreys(cls, side: Side = Side.TWO_SIDED) -> "MethodSpec":
        return cls(Family.BETA_PRIOR, side, JEFFREYS_PRIOR)

    @classmethod
    def uniform_prior(cls, side: Side = Side.TWO_SIDED) -> "MethodSpec":
        return cls(Family.BETA_PRIOR, side, UNIFORM_PRIOR)


@dataclass(frozen=True)
class IntervalEstimate:
    """A realized confidence interval; one-sided estimates pin the free end at 0 or 1."""

    lower: float
    upper: float
    method: MethodSpec
    level: ConfidenceLevel

    def __post_init__(self):
        if not (self.lower <= self.upper):
            raise DomainError(
                f"interval endpoints out of order: ({self.lower}, {self.upper})"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _end_priors(method: MethodSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """((a_L, b_L), (a_U, b_U)): a CP or Beta-prior end is a quantile of the
    Beta(x + a, n - x + b) posterior of its prior; CP's ends take (0, 1) and
    (1, 0), a Beta-prior method its prior at both ends."""
    if method.family is Family.CLOPPER_PEARSON:
        return (0.0, 1.0), (1.0, 0.0)
    return ((method.prior.a, method.prior.b),) * 2


def _endpoints(xp, method: MethodSpec, n, level: ConfidenceLevel, x, quantile):
    """(L, U) for the success counts x out of n, over the kernel namespace xp.

    The one table of the interval formulas: interval() runs it on floats
    (SCALAR, with the scalar beta_quantile), the engine on arrays of lanes
    (VECTOR, with its vector kernel; n may vary per lane, and is an array
    there, as numpy powers a 0-d exponent by other loops).  A CP or
    Beta-prior end is a quantile of its posterior, solved by xp.quantiles,
    which under VECTOR hands both ends' lanes to one quantile call; a lane
    goes through the same operations as when solved alone.
    """
    fam = method.family
    # one-sided bounds put the whole alpha in their tail; the other end is 0 or 1
    tail = level.alpha / 2.0 if method.side is Side.TWO_SIDED else level.alpha
    lower = method.side is not Side.UPPER
    upper = method.side is not Side.LOWER
    if fam in (Family.CLOPPER_PEARSON, Family.BETA_PRIOR):
        # Quantiles are solved but at CP's x = 0 and x = n, where closed forms
        # fill both ends (L = 0 and U = 1 where a posterior shape is 0).
        (a_lower, b_lower), (a_upper, b_upper) = _end_priors(method)
        inner = (x > 0.0) & (x < n) | (fam is Family.BETA_PRIOR)
        L, U = xp.quantiles(
            quantile, x, n,
            (lower & inner, tail, a_lower, b_lower), (upper & inner, 1.0 - tail, a_upper, b_upper),
        )
        if fam is Family.CLOPPER_PEARSON:
            root = xp.power(tail, 1.0 / n)
            L = xp.where((x == n) & lower, root, L)
            U = xp.where((x == 0.0) & upper, 1.0 - root, U)
        return L, U
    z = level.z_half if method.side is Side.TWO_SIDED else level.z_full
    z2 = z * z
    if fam is Family.WILSON:
        ph = x / n
        center = (x + z2 / 2.0) / (n + z2)
        halfwidth = z / (n + z2) * xp.sqrt(ph * (1.0 - ph) * n + z2 / 4.0)
        # closed ends 0 at x = 0 and 1 at x = n, where these round a few ulps off
        return xp.where(x == 0.0, 0.0, center - halfwidth), xp.where(x == n, 1.0, center + halfwidth)
    # Wald, and Agresti-Coull as Wald at the shrunk (x + z^2/2) / (n + z^2)
    if fam is Family.AGRESTI_COULL:
        x, n = x + z2 / 2.0, n + z2
    ph = x / n
    halfwidth = z * xp.sqrt(ph * (1.0 - ph) / n)
    # clipped both ways: z_full < 0 where alpha > 1/2
    L = xp.where(lower, xp.minimum(xp.maximum(ph - halfwidth, 0.0), 1.0), 0.0)
    U = xp.where(upper, xp.minimum(xp.maximum(ph + halfwidth, 0.0), 1.0), 1.0)
    return L, U


def interval(spec: MethodSpec, obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """The interval or bound of a MethodSpec for one observation."""
    L, U = _endpoints(SCALAR, spec, float(obs.n), level, float(obs.x), beta_quantile)
    return IntervalEstimate(float(L), float(U), spec, level)


def clopper_pearson_interval(obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Equal-tailed exact interval from inverting the binomial test.

    Endpoints are beta quantiles; at x = 0 and x = n the closed forms
    (0, 1 - (alpha/2)^(1/n)) and ((alpha/2)^(1/n), 1) apply.
    """
    return interval(MethodSpec.clopper_pearson(), obs, level)


def clopper_pearson_bound(obs: Observation, level: ConfidenceLevel, side: Side) -> IntervalEstimate:
    """One-sided exact bound at level 1 - alpha."""
    if side not in (Side.UPPER, Side.LOWER):
        raise DomainError("clopper_pearson_bound requires side upper or lower")
    return interval(MethodSpec.clopper_pearson(side), obs, level)


def wald_interval(
    obs: Observation, level: ConfidenceLevel, side: Side = Side.TWO_SIDED
) -> IntervalEstimate:
    """p_hat +/- z * sqrt(p_hat q_hat / n), clamped to [0, 1].

    Degenerate at x in {0, n}, where it collapses to zero width at p_hat.
    """
    return interval(MethodSpec.wald(side), obs, level)


def wilson_interval(obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Score interval from inverting the normal test with the null standard error."""
    return interval(MethodSpec.wilson(), obs, level)


def agresti_coull_interval(obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Wald interval recentered at the shrunk proportion (x + z^2/2)/(n + z^2)."""
    return interval(MethodSpec.agresti_coull(), obs, level)


def beta_prior_interval(
    obs: Observation,
    level: ConfidenceLevel,
    prior: BetaParams,
    side: Side = Side.TWO_SIDED,
) -> IntervalEstimate:
    """Equal-tailed Bayesian credible interval or bound under a Beta(a, b) prior."""
    return interval(MethodSpec.beta_prior(prior, side), obs, level)

