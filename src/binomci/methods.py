"""Confidence interval and bound constructions for a binomial proportion.

One uniform abstraction (MethodSpec -> IntervalEstimate) over the exact
Clopper-Pearson interval and bounds and the usual approximate competitors:
Wald, Wilson score, Agresti-Coull and equal-tailed Bayesian beta intervals
(Jeffreys and other Beta(a, b) priors).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, UnsupportedSideError
from .special import (
    BetaParams,
    JEFFREYS_PRIOR,
    UNIFORM_PRIOR,
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


@dataclass(frozen=True)
class Observation:
    """x successes out of n trials."""

    x: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.x, numbers.Integral) and isinstance(self.n, numbers.Integral)):
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
    alpha quantile (one-sided use).
    """

    alpha: float
    z_half: float = 0.0
    z_full: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")
        object.__setattr__(self, "z_half", normal_quantile(1.0 - self.alpha / 2.0))
        object.__setattr__(self, "z_full", normal_quantile(1.0 - self.alpha))


@dataclass(frozen=True)
class MethodSpec:
    """A confidence method: family, sidedness and (for beta methods) a prior."""

    family: Family
    side: Side = Side.TWO_SIDED
    prior: BetaParams | None = None

    def __post_init__(self):
        if self.family is Family.BETA_PRIOR:
            if self.prior is None:
                raise DomainError("beta-prior method requires prior parameters")
        elif self.prior is not None:
            raise DomainError(f"{self.family.value} method takes no prior")
        if self.family in (Family.WILSON, Family.AGRESTI_COULL) and self.side is not Side.TWO_SIDED:
            raise UnsupportedSideError(
                f"one-sided {self.family.value} bounds are not implemented"
            )

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


def _clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def clopper_pearson_interval(obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Equal-tailed exact interval from inverting the binomial test.

    Endpoints are beta quantiles; at x = 0 and x = n the closed forms
    (0, 1 - (alpha/2)^(1/n)) and ((alpha/2)^(1/n), 1) apply.
    """
    x, n = obs.x, obs.n
    half = level.alpha / 2.0
    lower = 0.0 if x == 0 else (
        half ** (1.0 / n) if x == n else beta_quantile(half, float(x), float(n - x + 1))
    )
    upper = 1.0 if x == n else (
        1.0 - half ** (1.0 / n) if x == 0 else beta_quantile(1.0 - half, float(x + 1), float(n - x))
    )
    return IntervalEstimate(lower, upper, MethodSpec.clopper_pearson(), level)


def clopper_pearson_bound(obs: Observation, level: ConfidenceLevel, side: Side) -> IntervalEstimate:
    """One-sided exact bound at level 1 - alpha."""
    x, n = obs.x, obs.n
    a = level.alpha
    if side is Side.UPPER:
        if x == n:
            upper = 1.0
        elif x == 0:
            upper = 1.0 - a ** (1.0 / n)
        else:
            upper = beta_quantile(1.0 - a, float(x + 1), float(n - x))
        return IntervalEstimate(0.0, upper, MethodSpec.clopper_pearson(Side.UPPER), level)
    if side is Side.LOWER:
        if x == 0:
            lower = 0.0
        elif x == n:
            lower = a ** (1.0 / n)
        else:
            lower = beta_quantile(a, float(x), float(n - x + 1))
        return IntervalEstimate(lower, 1.0, MethodSpec.clopper_pearson(Side.LOWER), level)
    raise DomainError("clopper_pearson_bound requires side upper or lower")


def wald_interval(
    obs: Observation, level: ConfidenceLevel, side: Side = Side.TWO_SIDED
) -> IntervalEstimate:
    """p_hat +/- z * sqrt(p_hat q_hat / n), clamped to [0, 1].

    Degenerate at x in {0, n}, where it collapses to zero width at p_hat.
    """
    ph = obs.p_hat
    se = math.sqrt(ph * (1.0 - ph) / obs.n)
    if side is Side.TWO_SIDED:
        z = level.z_half
        lo, hi = _clamp01(ph - z * se), _clamp01(ph + z * se)
    elif side is Side.UPPER:
        lo, hi = 0.0, _clamp01(ph + level.z_full * se)
    else:
        lo, hi = _clamp01(ph - level.z_full * se), 1.0
    return IntervalEstimate(lo, hi, MethodSpec.wald(side), level)


def wilson_interval(obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Score interval from inverting the normal test with the null standard error."""
    x, n = obs.x, obs.n
    z = level.z_half
    z2 = z * z
    ph = obs.p_hat
    center = (x + z2 / 2.0) / (n + z2)
    halfwidth = z / (n + z2) * math.sqrt(ph * (1.0 - ph) * n + z2 / 4.0)
    return IntervalEstimate(center - halfwidth, center + halfwidth, MethodSpec.wilson(), level)


def agresti_coull_interval(obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Wald interval recentered at the shrunk proportion (x + z^2/2)/(n + z^2)."""
    z = level.z_half
    z2 = z * z
    n_t = obs.n + z2
    p_t = (obs.x + z2 / 2.0) / n_t
    halfwidth = z * math.sqrt(p_t * (1.0 - p_t) / n_t)
    return IntervalEstimate(
        _clamp01(p_t - halfwidth),
        _clamp01(p_t + halfwidth),
        MethodSpec.agresti_coull(),
        level,
    )


def beta_prior_interval(
    obs: Observation,
    level: ConfidenceLevel,
    prior: BetaParams,
    side: Side = Side.TWO_SIDED,
) -> IntervalEstimate:
    """Equal-tailed Bayesian credible interval or bound under a Beta(a, b) prior."""
    a = float(obs.x) + prior.a
    b = float(obs.n - obs.x) + prior.b
    spec = MethodSpec.beta_prior(prior, side)
    if side is Side.TWO_SIDED:
        half = level.alpha / 2.0
        return IntervalEstimate(
            beta_quantile(half, a, b), beta_quantile(1.0 - half, a, b), spec, level
        )
    if side is Side.UPPER:
        return IntervalEstimate(0.0, beta_quantile(1.0 - level.alpha, a, b), spec, level)
    return IntervalEstimate(beta_quantile(level.alpha, a, b), 1.0, spec, level)


def interval(spec: MethodSpec, obs: Observation, level: ConfidenceLevel) -> IntervalEstimate:
    """Dispatch a MethodSpec to its construction."""
    if spec.family is Family.CLOPPER_PEARSON:
        if spec.side is Side.TWO_SIDED:
            return clopper_pearson_interval(obs, level)
        return clopper_pearson_bound(obs, level, spec.side)
    if spec.family is Family.WALD:
        return wald_interval(obs, level, spec.side)
    if spec.family is Family.WILSON:
        return wilson_interval(obs, level)
    if spec.family is Family.AGRESTI_COULL:
        return agresti_coull_interval(obs, level)
    if spec.family is Family.BETA_PRIOR:
        return beta_prior_interval(obs, level, spec.prior, spec.side)
    raise DomainError(f"unknown method family {spec.family!r}")


def approx_method_spec(family: ApproxFamily, side: Side = Side.TWO_SIDED) -> MethodSpec:
    """MethodSpec for one of the approximate comparison families."""
    if family is ApproxFamily.JEFFREYS:
        return MethodSpec.jeffreys(side)
    if family is ApproxFamily.WILSON:
        return MethodSpec.wilson()
    return MethodSpec.agresti_coull()
