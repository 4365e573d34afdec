"""Self-contained special-function kernel.

Scalar routines for the log-gamma function, the regularized incomplete beta
function and its inverse, the standard normal quantile (the standard
library's AS 241) and the binomial mass/distribution functions.  Everything
here is pure and deterministic.
The steps of ln Gamma, the incomplete beta (front factor, switch-point mirror,
and a continued fraction in the form of TOMS 708 bfrac: each term's
coefficients, then its recurrence), its inverse (mirrored start, Halley
rounds) and the binomial pmf are written once, over an injected float (SCALAR)
or numpy (VECTOR) namespace.  This module drives them one value at a time and
:mod:`binomci.exact_eval` over arrays of lanes, but for the last few lanes of a
fraction or a Halley solve, which it finishes in the float loops here; a driver
owns only its input checks, the x in {0, 1} ends and its loop.  The family
table of :mod:`binomci.methods` runs over them too, by their `quantiles` op.
"""
from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "BetaParams",
    "JEFFREYS_PRIOR",
    "UNIFORM_PRIOR",
    "log_gamma",
    "reg_inc_beta",
    "beta_quantile",
    "normal_quantile",
    "binom_pmf",
    "binom_cdf",
]

@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta(a, b) distribution, both strictly positive."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError(f"beta parameter a must be positive, got {self.a}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"beta parameter b must be positive, got {self.b}")


JEFFREYS_PRIOR = BetaParams(0.5, 0.5)
UNIFORM_PRIOR = BetaParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# The L0 kernel.  Each step below is written once, as plain arithmetic over an
# injected namespace `xp`: SCALAR for Python floats (the loops of this module,
# behind interval()) or VECTOR for numpy arrays (the lane loops of
# binomci.exact_eval).  Only the loop drivers are written twice.
#
# Both take log, log1p, exp and power from numpy's array loops (SCALAR returns
# floats; numpy squares a float for a float exponent 2, so power gets it as an
# array), so a lane has the same bits under either.  Only a float division by zero raises
# where numpy gives inf or nan, so SCALAR.select(cond, f, g) calls only the
# branch it takes, and VECTOR.select calls both only where the mask is mixed,
# else the branch a uniform mask takes.  lookup(table, i) reads a
# numpy table at the integer-valued floats i.  quantiles(quantile, x, n, *ends)
# gives the family table's (L, U): an end (solve, q, a, b) is quantile(q, x + a,
# (n - x) + b) where solve holds, else 0 for L and 1 for U.  The fraction's
# round divides by its new denominator with no floor; the test suite finds no
# zero there over shapes in 10^[-3, 6], and _bfrac_from reports one as a
# ConvergenceError.

_BETACF_EPS = 1e-15
_BETACF_MAXIT = 2000
_QUANTILE_MAXIT = 200


def _vector_quantiles(quantile, x, n, *ends):
    """VECTOR's quantiles as a (2, lanes) array, both ends' lanes in one call,
    the lower end's first; x and n are gathered before the prior shapes are
    added, so that no full-size shape grid is alive during the solve."""
    solve, q, pa, pb = map(np.array, zip(*ends))
    end, lane = np.nonzero(solve)
    xs = x[lane]
    lanes = q[end], xs + pa[end], (n[lane] - xs) + pb[end]
    del end, lane, xs  # out of the solve's memory peak
    out = np.zeros(solve.shape)
    out[1] = 1.0
    out[solve] = quantile(*lanes)
    return out


SCALAR = SimpleNamespace(
    log=lambda v: float(np.log(v)), log1p=lambda v: float(np.log1p(v)),
    exp=lambda v: float(np.exp(v)), power=lambda v, e: float(np.power(v, np.array([e]))[0]),
    sqrt=math.sqrt, isfinite=math.isfinite, where=lambda cond, f, g: f if cond else g,
    maximum=max, minimum=min, lookup=lambda table, i: float(table[int(i)]),
    select=lambda cond, f, g: f() if cond else g(),
    quantiles=lambda quantile, x, n, *ends: tuple(
        quantile(q, x + a, (n - x) + b) if solve else end
        for (solve, q, a, b), end in zip(ends, (0.0, 1.0))
    ),
)
VECTOR = SimpleNamespace(
    log=np.log, log1p=np.log1p, exp=np.exp, power=np.power, sqrt=np.sqrt, isfinite=np.isfinite,
    where=np.where,
    maximum=np.maximum, minimum=np.minimum,
    lookup=lambda table, i: table[i.astype(np.intp)],
    select=lambda c, f, g: f() if c.all() else g() if not c.any() else np.where(c, f(), g()),
    quantiles=_vector_quantiles,
)


# Lanczos approximation of ln Gamma, g = 607/128, 15 coefficients
# (P. Godfrey 2001, "A note on the computation of the convergent Lanczos
# complex Gamma approximation"; same data as used by the GSL and numerous
# ports).  Relative error of the rational sum is below 1e-15 for real
# arguments > 0.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_TWO_PI = 0.91893853320467274178


def _log_gamma(xp, x):
    s = _LANCZOS_C[0]
    for k in range(1, 15):
        s += _LANCZOS_C[k] / (x + k - 1.0)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (x - 0.5) * xp.log(t) - t + xp.log(s)


def _log_beta(xp, a, b):
    return _log_gamma(xp, a) + _log_gamma(xp, b) - _log_gamma(xp, a + b)


def _bfrac_start(xp, a, b, x, y):
    """Lane constants and first convergent of the incomplete-beta continued
    fraction in the form of TOMS 708 `bfrac` (DiDonato & Morris 1992, ACM
    TOMS 18, 360-373), for x below the switch point and y = 1 - x.

    lambda = a - (a + b) x is taken as (a + b) y - b where a > b: the switch
    point is then above 1/2, where y is exact, and near it, where lambda is
    about (a - b)/(a + b + 2), that form subtracts terms of about b + 1
    where a - (a + b) x subtracts terms of about a.  Returns a + b,
    c = lambda + 1, y + 1 and the recurrence state (an, bn, r): the previous
    numerator and denominator over the current denominator, and the
    convergent r = (1 + 1/a) / c, the current numerator over a denominator
    of 1."""
    lam = xp.where(a > b, (a + b) * y - b, a - (a + b) * x)
    c = lam + 1.0
    r = (1.0 / a + 1.0) / c
    return a + b, c, y + 1.0, 0.0 * r, r, r


def _bfrac_terms(xp, n, a, b, x, ab, c, yp1):
    """The coefficients (alpha, beta) of the fraction's term n: an int, or a
    column of integer-valued floats, one term a row.  With s = a + 2n - 1,
    alpha = (a + n - 1)(a + b + n - 1) n (b - n) x^2 / s^2 and
    beta = n + n (b - n) x / s + (a + n)(c + n (1 + y)) / (s + 2)."""
    s = a + (2 * n - 1)
    w = n * (b - n) * x
    alpha = (a + (n - 1)) * (ab + (n - 1)) * (w * x) / (s * s)
    return alpha, n + w / s + (a + n) * (c + n * yp1) / (s + 2.0)


def _bfrac_round(xp, alpha, beta, an, bn, r):
    """A term of the fraction by the forward three-term recurrence, rescaled
    so that the new denominator is 1: the new (an, bn, r) and whether r moved
    by at most 1e-15 of itself."""
    d = alpha * bn + beta
    r_next = (alpha * an + beta * r) / d
    return r / d, 1.0 / d, r_next, abs(r_next - r) <= _BETACF_EPS * r_next


def _log_beta_kernel(xp, x, a, b, lgb):
    """ln(x^a (1 - x)^b) - lgb, 0 < x < 1: with lgb = ln B(a, b), the ln front
    factor of I_x(a, b) at (a, b) and the ln pdf of Beta(a, b) at (a - 1, b - 1)."""
    return a * xp.log(x) + b * xp.log1p(-x) - lgb


def _inc_beta(xp, x, a, b, lgb, fraction):
    """I_x(a, b) for 0 < x < 1: the front factor x^a (1 - x)^b / B(a, b), with
    lgb = ln B(a, b) or None to compute it, times the driver's loop
    fraction(a, b, x, y) over _bfrac_start, _bfrac_terms and _bfrac_round.  Above
    the switch point (a + 1)/(a + b + 2) the fraction runs on (b, a, 1 - x), where
    it converges fastest, and I_x = 1 - I_{1-x}(b, a); y is then the original x."""
    if lgb is None:
        lgb = _log_beta(xp, a, b)
    front = xp.exp(_log_beta_kernel(xp, x, a, b, lgb))
    direct = x < (a + 1.0) / (a + b + 2.0)
    y = 1.0 - x
    fa, fb = xp.where(direct, a, b), xp.where(direct, b, a)
    fx, fy = xp.where(direct, x, y), xp.where(direct, y, x)
    del x, a, b, lgb, y  # lane arrays the fraction does not need: freed while it runs
    res = front * fraction(fa, fb, fx, fy)
    return xp.where(direct, res, 1.0 - res)


def _quantile_seed(xp, q, a, b):
    """Starting point of the beta-quantile solve: a normal approximation
    (Abramowitz & Stegun 26.5.22 via the Numerical Recipes invbetai
    construction) where both shapes are at least 1, else the small-shape
    power-law tails; kept inside (0, 1)."""

    def large_shapes():
        pp = xp.where(q < 0.5, q, 1.0 - q)
        t = xp.sqrt(-2.0 * xp.log(pp))
        w = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        w = xp.where(q < 0.5, -w, w)
        al = (w * w - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        ww = w * xp.sqrt(al + h) / h - (
            1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
        ) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        return a / (a + b * xp.exp(2.0 * ww))

    def small_shapes():
        t = xp.exp(a * xp.log(a / (a + b))) / a
        u = xp.exp(b * xp.log(b / (a + b))) / b
        w = t + u
        return xp.select(
            q < t / w,
            lambda: xp.power(a * w * q, 1.0 / a),
            lambda: 1.0 - xp.power(b * w * (1.0 - q), 1.0 / b),
        )

    x = xp.select((a >= 1.0) & (b >= 1.0), large_shapes, small_shapes)
    x = xp.where(x <= 0.0, 1e-300, x)
    return xp.where(x >= 1.0, 1.0 - 1e-16, x)


def _quantile_start(xp, q, a, b):
    """(swap, q, a, b, lgb, seed, lo, hi), the state a beta-quantile solve
    starts from: lgb = ln B(a, b) and the bracket [lo, hi] = [0, 1], floats
    that a vector round broadcasts.  A lane seeded above 1/2 has its root
    near 1, so it solves for 1 - x on (1 - q, b, a), where the float grid is
    finer, seeded again on those shapes (a float only then, arrays on every
    lane); the driver returns 1 - w there."""
    seed = _quantile_seed(xp, q, a, b)
    swap = seed > 0.5
    q, a, b = xp.where(swap, 1.0 - q, q), xp.where(swap, b, a), xp.where(swap, a, b)
    seed = xp.select(swap, lambda: _quantile_seed(xp, q, a, b), lambda: seed)
    return swap, q, a, b, _log_beta(xp, a, b), seed, 0.0, 1.0


def _halley_round(xp, x, err, a, b, lgb, lo, hi):
    """One safeguarded Halley round of the beta-quantile solve at x, where
    err = I_x(a, b) - q is nonzero.  Returns the next x, the bracket [lo, hi]
    shrunk to x's side, and whether the solve stops there.

    u = err / pdf is the Newton step and g = (ln pdf)'; the round steps to
    x - u / (1 - u g / 2), or to x - u where that divisor is outside
    (0.5, 2), and bisects where the pdf underflows or the step leaves the
    bracket.  A step that rounds to zero is convergence, although x sits on
    the bracket edge this round has just moved to it.  The solve stops on a
    step below 1e-15 x + 1e-18, on a bracket narrower than 1e-15 of its
    lower end, or after an accepted step whose Newton-predicted remaining
    error |g| / 2 * dx^2 is at most 1e-15 x: a further round would only
    chase the rounding noise of I_x.
    """
    pos = err > 0.0
    hi = xp.where(pos, x, hi)
    lo = xp.where(pos, lo, x)
    log_pdf = _log_beta_kernel(xp, x, a - 1.0, b - 1.0, lgb)
    # floored exponent and unit divisor: a refused step must not raise on floats
    u = err * xp.exp(-xp.maximum(log_pdf, -700.0))
    g = (a - 1.0) / x - (b - 1.0) / (1.0 - x)
    den = 1.0 - 0.5 * u * g
    trial = x - u / xp.where((den > 0.5) & (den < 2.0), den, 1.0)
    inside = ((lo < trial) & (trial < hi)) | (trial == x)
    ok = (log_pdf > -700.0) & inside & xp.isfinite(trial)
    xn = xp.where(ok, trial, 0.5 * (lo + hi))
    dx = abs(xn - x)
    stop = (
        (dx <= 1e-15 * xn + 1e-18)
        | ((hi - lo) <= 1e-15 * lo)
        | (ok & (0.5 * abs(g) * dx * dx <= 1e-15 * xn))
    )
    return xn, lo, hi, stop


# ln k! - ln(sqrt(2 pi k) (k / e)^k) for k = 0..15 (0 at k = 0 by convention)
_STIRLERR = np.array([
    0.0,
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(xp, k):
    """Stirling-formula error of ln k!: the table up to 15, the asymptotic series above."""
    kb = xp.maximum(k, 16.0)
    kk = kb * kb
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / kb
    return xp.where(k <= 15.0, xp.lookup(_STIRLERR, xp.minimum(k, 15.0)), series)


def _bd0(xp, x, m):
    """x ln(x / m) + m - x for x, m > 0, by a series where x is within 10 % of m."""
    d = x - m
    v = d / (x + m)
    direct = x * xp.log(x / m) + m - x
    # x ln(x/m) + m - x = d v + 2 x sum_j v^(2j+1) / (2j + 1) with |v| < 0.1
    # there, so the ninth term is below 1e-17 of the sum
    s = d * v
    term = 2.0 * x * v
    v2 = v * v
    for j in range(1, 10):
        term = term * v2
        s = s + term / (2 * j + 1)
    return xp.where(abs(d) < 0.1 * (x + m), s, direct)


def _binom_pmf_inner(xp, k, n, p):
    """P(X = k) under Binomial(n, p) for integer-valued floats 0 < k < n and
    0 < p < 1, in Loader's (2000) saddle-point form: exp(stirlerr(n) -
    stirlerr(k) - stirlerr(n - k) - bd0(k, n p) - bd0(n - k, n q)) /
    sqrt(2 pi k (n - k) / n), which has no cancellation between ln-gamma
    values.  (The log form of the square root, log1p(-k / n), loses n eps
    relative at k = n - 1.)"""
    lc = (
        _stirlerr(xp, n) - _stirlerr(xp, k) - _stirlerr(xp, n - k)
        - _bd0(xp, k, n * p) - _bd0(xp, n - k, n * (1.0 - p))
    )
    return xp.exp(lc) * xp.sqrt(n / (2.0 * math.pi * k * (n - k)))


# ---------------------------------------------------------------------------
# scalar drivers

def log_gamma(x: float) -> float:
    """Natural logarithm of the gamma function for x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return _log_gamma(SCALAR, x)


def _betacf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction of I_x(a, b) / front for x below the switch point
    and y = 1 - x (TOMS 708 bfrac's form, renormalized recurrence)."""
    return _bfrac_from(range(1, _BETACF_MAXIT + 1), a, b, x, *_bfrac_start(SCALAR, a, b, x, y))


def _bfrac_from(terms, a, b, x, ab, c, yp1, an, bn, r) -> float:
    """The fraction's float loop over terms, resumed from the state the term before left."""
    try:
        for m in terms:
            alpha, beta = _bfrac_terms(SCALAR, m, a, b, x, ab, c, yp1)
            an, bn, r, converged = _bfrac_round(SCALAR, alpha, beta, an, bn, r)
            if converged:
                return r
    except ZeroDivisionError:
        pass
    raise ConvergenceError(f"continued fraction did not converge for a={a}, b={b}, x={x}")


def reg_inc_beta(x: float, a: float, b: float, lgb: float | None = None) -> float:
    """Regularized incomplete beta function I_x(a, b), by the front factor and
    continued fraction of _inc_beta.  lgb, if given, is ln B(a, b) already
    computed by the caller."""
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
        raise DomainError(f"reg_inc_beta requires finite a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _inc_beta(SCALAR, x, a, b, lgb, _betacf)


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of reg_inc_beta: the x in (0, 1) with I_x(a, b) = q.

    Halley iteration on the beta cdf, seeded by a normal approximation and
    safeguarded by a shrinking bisection bracket; a round takes the Newton
    step where Halley's correction factor is outside (0.5, 2).  A step that
    rounds to zero ends the solve, even on the bracket edge the same round
    has just moved, and so does an accepted step after which Newton's
    predicted remaining error, |(ln pdf)'| / 2 * dx^2, is at most 1e-15 x.
    Roots expected near 1 are solved mirrored (see _quantile_start).  Raises
    ConvergenceError if the fixed iteration budget is exhausted rather than
    returning silently.
    """
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
        raise DomainError(f"beta_quantile requires finite a, b > 0, got a={a}, b={b}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"beta_quantile requires 0 < q < 1, got q={q}")
    with np.errstate(all="ignore"):
        swap, *start = _quantile_start(SCALAR, q, a, b)
        w = _solve_beta_quantile(range(_QUANTILE_MAXIT), *start)
    return 1.0 - w if swap else w


def _solve_beta_quantile(rounds, q, a, b, lgb, x, lo, hi) -> float:
    """The Halley loop's float rounds, from x in the bracket [lo, hi]; lgb = ln B(a, b)."""
    for _ in rounds:
        err = reg_inc_beta(x, a, b, lgb) - q
        if err == 0.0:
            return x
        x, lo, hi, stop = _halley_round(SCALAR, x, err, a, b, lgb, lo, hi)
        if stop:
            return x
    raise ConvergenceError(
        f"beta_quantile did not converge for q={q}, a={a}, b={b}"
    )


# ---------------------------------------------------------------------------
# normal quantile and binomial distribution

_STANDARD_NORMAL = statistics.NormalDist()


def normal_quantile(q: float) -> float:
    """Standard normal quantile: the z with Phi(z) = q, 0 < q < 1.

    The standard library's inv_cdf, which is algorithm AS 241 (Wichura 1988,
    PPND16), absolute error below 1e-15 across (0, 1).  It evaluates the
    central region at q - 1/2 and the tails at min(q, 1 - q), so
    normal_quantile(1 - q) == -normal_quantile(q) wherever 1 - q is exact.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"normal_quantile requires 0 < q < 1, got q={q}")
    return _STANDARD_NORMAL.inv_cdf(q)


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_n(n) -> None:
    if not _is_count(n) or n < 1:
        raise DomainError(f"need an integer n >= 1, got {n!r}")


def _check_binom_args(name: str, k, n, p) -> None:
    if not (_is_count(k) and _is_count(n)):
        raise DomainError(f"{name} requires integer k and n, got k={k!r}, n={n!r}")
    if not (0 <= k <= n) or n < 1:
        raise DomainError(f"{name} requires 0 <= k <= n, n >= 1, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"{name} requires 0 <= p <= 1, got p={p}")


def binom_pmf(k: int, n: int, p: float) -> float:
    """P(X = k) for X ~ Binomial(n, p): the kernel's saddle-point step for
    0 < k < n, exp(n log1p(-p)) at k = 0 and exp(n log p) at k = n."""
    _check_binom_args("binom_pmf", k, n, p)
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    if k == 0:
        return SCALAR.exp(n * SCALAR.log1p(-p))
    if k == n:
        return SCALAR.exp(n * SCALAR.log(p))
    return _binom_pmf_inner(SCALAR, float(k), float(n), p)


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), via the incomplete beta identity.

    The lower tail is I_(1-p)(n - k, k + 1) itself, not 1 - I_p(k + 1, n - k),
    in which a small P(X <= k) cancels to 0."""
    _check_binom_args("binom_cdf", k, n, p)
    if k == n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return reg_inc_beta(1.0 - p, float(n - k), k + 1.0)
