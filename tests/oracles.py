"""Independent oracles shared by the test modules.

Everything here avoids the package's own numerical paths: binomial masses
and tails are exact rationals, the normal cdf comes from an erf Maclaurin
series, and quantile references are plain bisections against those.
"""
from __future__ import annotations

import math
from fractions import Fraction


def binom_pmf_exact(k: int, n: int, p: float) -> Fraction:
    """Exact rational P(X = k) at the exact binary value of the float p."""
    pf = Fraction(p)
    return math.comb(n, k) * pf**k * (1 - pf) ** (n - k)


def binom_tail_exact(k: int, n: int, p: float) -> Fraction:
    """Exact rational P(X >= k).

    With p = s / t and r = t - s, the tail is the sum of the terms
    T_j = C(n, j) s^j r^(n - j) / t^n over j >= k.  It is summed from j = n
    down as T_k (1 + T_(k+1) / T_k (1 + ...)), keeping the term ratio
    T_(j+1) / T_j = (n - j) s / ((j + 1) r) as an integer numerator and
    denominator: every step multiplies by word-sized integers only, no
    intermediate rational is reduced, and the sum is s^k num / ((n - k)! t^n).
    """
    if k > n:
        return Fraction(0)
    s, t = Fraction(p).as_integer_ratio()
    r = t - s
    num, den = 1, 1
    for j in range(n - 1, k - 1, -1):
        den *= (j + 1) * r
        num = den + (n - j) * s * num
    return Fraction(num * s**k, math.factorial(n - k) * t**n)


def binom_cdf_exact(k: int, n: int, p: float) -> Fraction:
    """Exact rational P(X <= k)."""
    return sum(binom_pmf_exact(j, n, p) for j in range(0, k + 1))


def reg_inc_beta_int(x: float, a: int, b: int) -> float:
    """I_x(a, b) for integer shapes via the exact binomial tail identity."""
    n = a + b - 1
    return float(binom_tail_exact(a, n, x))


def bisect_root(f, lo: float, hi: float, steps: int = 100) -> float:
    """Bisection for the root of an increasing function f."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_quantile_bisect(q: float, a: float, b: float, cdf) -> float:
    """Quantile by bisection against a supplied beta cdf."""
    return bisect_root(lambda x: cdf(x, a, b) - q, 0.0, 1.0)


def erf_series(z: float) -> float:
    """erf by its Maclaurin series; converges quickly for |z| <= 6."""
    term = z
    total = z
    zz = z * z
    for k in range(1, 300):
        term *= -zz / k
        add = term / (2 * k + 1)
        total += add
        if abs(add) < 1e-22 * abs(total):
            break
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(z: float) -> float:
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def normal_quantile_bisect(q: float) -> float:
    return bisect_root(lambda z: normal_cdf_series(z) - q, -6.0, 6.0, steps=200)


def loglog_slope(ns, errs) -> float:
    """Least-squares slope of log(err) against log(n)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(e) for e in errs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
