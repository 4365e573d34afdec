"""Self-contained special-function kernel.

Scalar routines for the log-gamma function, the regularized incomplete beta
function and its inverse, the standard normal quantile, and the binomial
mass/distribution functions.  Everything here is pure and deterministic.
The steps of ln Gamma, the incomplete beta and its inverse are written once,
over an injected float (SCALAR) or numpy (VECTOR) namespace; this module
drives them one value at a time and :mod:`binomci.exact_eval` drives them
over arrays of lanes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "BetaParams",
    "JEFFREYS_PRIOR",
    "UNIFORM_PRIOR",
    "log_gamma",
    "log_beta",
    "log_binom_coeff",
    "reg_inc_beta",
    "beta_quantile",
    "normal_quantile",
    "binom_pmf",
    "binom_cdf",
]

# A probability is carried as a plain float in [0, 1]; constructors and
# operations validate the range at their boundaries.
Probability = float


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
# Floats raise where numpy returns inf or nan (math.exp overflows, a division
# by zero raises), so SCALAR.select(cond, f, g) calls only the branch it takes,
# while VECTOR.select calls both and picks per lane.  guard(v) is the modified
# Lentz guard: v, with 1e-300 wherever |v| < 1e-300 (numpy's in place, on the
# fresh array each caller passes).

_BETACF_FPMIN = 1e-300
_BETACF_EPS = 1e-15
_BETACF_MAXIT = 2000
_QUANTILE_MAXIT = 200


def _guard_array(v):
    np.copyto(v, _BETACF_FPMIN, where=np.abs(v) < _BETACF_FPMIN)
    return v


SCALAR = SimpleNamespace(
    log=math.log, log1p=math.log1p, exp=math.exp, sqrt=math.sqrt, isfinite=math.isfinite,
    where=lambda cond, f, g: f if cond else g,
    maximum=max,
    select=lambda cond, f, g: f() if cond else g(),
    guard=lambda v, tiny=_BETACF_FPMIN: tiny if abs(v) < tiny else v,
)
VECTOR = SimpleNamespace(
    log=np.log, log1p=np.log1p, exp=np.exp, sqrt=np.sqrt, isfinite=np.isfinite,
    where=np.where,
    maximum=np.maximum,
    select=lambda cond, f, g: np.where(cond, f(), g()),
    guard=_guard_array,
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


def _lentz_start(xp, a, b, x):
    """Shape sums a + b, a + 1, a - 1 and the first d of the modified Lentz
    evaluation of the incomplete-beta continued fraction; c = 1 and h = d."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    return qab, qap, qam, 1.0 / xp.guard(1.0 - qab * x / qap)


def _lentz_round(xp, m, a, b, x, qab, qap, qam, c, d, h):
    """Round m of the fraction, both partial terms: the new (h, c, d) and
    whether the round's last factor d * c is within 1e-15 of 1."""
    guard = xp.guard
    m2 = 2 * m
    aa = m * (b - m) * x / ((qam + m2) * (a + m2))
    d = 1.0 / guard(1.0 + aa * d)
    c = guard(1.0 + aa / c)
    h = h * (d * c)
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
    d = 1.0 / guard(1.0 + aa * d)
    c = guard(1.0 + aa / c)
    delta = d * c
    return h * delta, c, d, abs(delta - 1.0) < _BETACF_EPS


def _inc_beta_front(xp, x, a, b, lgb):
    """Front factor x^a (1 - x)^b / B(a, b) of I_x(a, b) for 0 < x < 1, and
    the mirror rule: below the switch point (a + 1)/(a + b + 2) the fraction
    runs on (a, b, x), else on (b, a, 1 - x), where it converges fastest.
    Returns (front, direct, the fraction's a, b and x)."""
    front = xp.exp(a * xp.log(x) + b * xp.log1p(-x) - lgb)
    direct = x < (a + 1.0) / (a + b + 2.0)
    fx = xp.where(direct, x, 1.0 - x)
    return front, direct, xp.where(direct, a, b), xp.where(direct, b, a), fx


def _inc_beta_value(xp, front, direct, cf, a):
    """I_x from the front factor and the fraction cf on the side `direct` chose,
    a being that side's first shape: I_x = 1 - I_{1-x}(b, a) when mirrored."""
    res = front * cf / a
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
            lambda: (a * w * q) ** (1.0 / a),
            lambda: 1.0 - (b * w * (1.0 - q)) ** (1.0 / b),
        )

    x = xp.select((a >= 1.0) & (b >= 1.0), large_shapes, small_shapes)
    x = xp.where(x <= 0.0, 1e-300, x)
    return xp.where(x >= 1.0, 1.0 - 1e-16, x)


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
    log_pdf = (a - 1.0) * xp.log(x) + (b - 1.0) * xp.log1p(-x) - lgb
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


# ---------------------------------------------------------------------------
# scalar drivers

def log_gamma(x: float) -> float:
    """Natural logarithm of the gamma function for x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return _log_gamma(SCALAR, x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
        raise DomainError(f"log_beta requires a, b > 0, got a={a}, b={b}")
    return _log_beta(SCALAR, a, b)


def log_binom_coeff(n: int, k: int) -> float:
    """ln C(n, k) for integers 0 <= k <= n."""
    if not (0 <= k <= n):
        raise DomainError(f"log_binom_coeff requires 0 <= k <= n, got k={k}, n={n}")
    if k == 0 or k == n:
        return 0.0
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab, qap, qam, d = _lentz_start(SCALAR, a, b, x)
    c = 1.0
    h = d
    for m in range(1, _BETACF_MAXIT + 1):
        h, c, d, converged = _lentz_round(SCALAR, m, a, b, x, qab, qap, qam, c, d, h)
        if converged:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Uses the continued fraction directly for x below the mode-leaning switch
    point (a + 1)/(a + b + 2) and the mirrored fraction I_x = 1 - I_{1-x}(b, a)
    above it, where the fraction converges fastest.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front, direct, fa, fb, fx = _inc_beta_front(SCALAR, x, a, b, log_beta(a, b))
    return _inc_beta_value(SCALAR, front, direct, _betacf(fa, fb, fx), fa)


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of reg_inc_beta: the x in (0, 1) with I_x(a, b) = q.

    Halley iteration on the beta cdf, seeded by a normal approximation and
    safeguarded by a shrinking bisection bracket; a round takes the Newton
    step where Halley's correction factor is outside (0.5, 2).  A step that
    rounds to zero ends the solve, even on the bracket edge the same round
    has just moved, and so does an accepted step after which Newton's
    predicted remaining error, |(ln pdf)'| / 2 * dx^2, is at most 1e-15 x.
    Roots expected near 1 are solved in mirrored coordinates, where the
    floating-point grid is fine enough to pin them down.  Raises
    ConvergenceError if the fixed iteration budget is exhausted rather than
    returning silently.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_quantile requires a, b > 0, got a={a}, b={b}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"beta_quantile requires 0 < q < 1, got q={q}")
    if _quantile_seed(SCALAR, q, a, b) > 0.5:
        return 1.0 - _solve_beta_quantile(1.0 - q, b, a)
    return _solve_beta_quantile(q, a, b)


def _solve_beta_quantile(q: float, a: float, b: float) -> float:
    lgb = log_beta(a, b)
    x = _quantile_seed(SCALAR, q, a, b)
    lo, hi = 0.0, 1.0
    for _ in range(_QUANTILE_MAXIT):
        err = reg_inc_beta(x, a, b) - q
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

# Rational approximation of the normal quantile, algorithm AS 241 (Wichura
# 1988, PPND16).  Absolute error below 1e-15 across (0, 1).
_PPND_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_PPND_B = (
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_PPND_D = (
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_PPND_F = (
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _ppnd16_low_half(q: float) -> float:
    # q in (0, 0.5]; returns the (nonpositive) quantile.
    r = q - 0.5
    if abs(r) <= 0.425:
        s = 0.180625 - r * r
        num = _PPND_A[7]
        for cf in reversed(_PPND_A[:7]):
            num = num * s + cf
        den = _PPND_B[6]
        for cf in reversed(_PPND_B[:6]):
            den = den * s + cf
        den = den * s + 1.0
        return r * num / den
    r = math.sqrt(-math.log(q))
    if r <= 5.0:
        r -= 1.6
        num = _PPND_C[7]
        for cf in reversed(_PPND_C[:7]):
            num = num * r + cf
        den = _PPND_D[6]
        for cf in reversed(_PPND_D[:6]):
            den = den * r + cf
        den = den * r + 1.0
        return -(num / den)
    r -= 5.0
    num = _PPND_E[7]
    for cf in reversed(_PPND_E[:7]):
        num = num * r + cf
    den = _PPND_F[6]
    for cf in reversed(_PPND_F[:6]):
        den = den * r + cf
    den = den * r + 1.0
    return -(num / den)


def normal_quantile(q: float) -> float:
    """Standard normal quantile: the z with Phi(z) = q, 0 < q < 1.

    Evaluation is mirrored onto (0, 1/2] so that the antisymmetry
    normal_quantile(1 - q) == -normal_quantile(q) holds structurally.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"normal_quantile requires 0 < q < 1, got q={q}")
    if q == 0.5:
        return 0.0
    if q > 0.5:
        return -_ppnd16_low_half(1.0 - q)
    return _ppnd16_low_half(q)


def binom_pmf(k: int, n: int, p: float) -> float:
    """P(X = k) for X ~ Binomial(n, p)."""
    if not (0 <= k <= n) or n < 1:
        raise DomainError(f"binom_pmf requires 0 <= k <= n, n >= 1, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"binom_pmf requires 0 <= p <= 1, got p={p}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    if k == 0:
        return (1.0 - p) ** n
    if k == n:
        return p**n
    if n <= 1000:
        # Exact integer coefficient keeps the relative error at a few ulp.
        pk = p**k
        qk = (1.0 - p) ** (n - k)
        if pk > 0.0 and qk > 0.0:
            return math.comb(n, k) * pk * qk
    log_pmf = (
        log_binom_coeff(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), via the incomplete beta identity."""
    if not (0 <= k <= n) or n < 1:
        raise DomainError(f"binom_cdf requires 0 <= k <= n, n >= 1, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"binom_cdf requires 0 <= p <= 1, got p={p}")
    if k == n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return 1.0 - reg_inc_beta(p, k + 1.0, float(n - k))
