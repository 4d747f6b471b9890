"""Special functions used by every density and risk formula.

Provides the log-gamma function, the (non-regularized) upper incomplete
gamma function for arbitrary real shape -- including the negative shapes
that arise from priors with shape parameter ``-p/2`` -- and the CDF and
quantile function of the F-distribution.  ``upper_incomplete_gamma_array``
evaluates the same split elementwise over a numpy array for shapes a >= 1/2.

The upper incomplete gamma function is

.. math:: \\Gamma(a, x) = \\int_x^\\infty t^{a-1} e^{-t}\\,dt,

which converges for every real ``a`` as long as ``x > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "ConvergenceError",
    "log_gamma",
    "upper_incomplete_gamma",
    "upper_incomplete_gamma_array",
    "f_cdf",
    "f_quantile",
]

_EULER_GAMMA = 0.5772156649015328606065120900824024
_EPS = 1e-16
_TINY = 1e-300


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets for iterative special-function evaluation."""

    rel: float = 1e-14
    abs: float = 1e-300
    max_iter: int = 500

    def __post_init__(self) -> None:
        if not (self.rel > 0 and math.isfinite(self.rel)):
            raise ValueError(f"rel tolerance must be positive, got {self.rel}")
        if not (self.abs > 0 and math.isfinite(self.abs)):
            raise ValueError(f"abs tolerance must be positive, got {self.abs}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


# The default targets; a frozen instance is shared instead of rebuilt per call.
_DEFAULT_TOL = Tolerance()


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within max_iter.

    Carries the last bracket or partial result in ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def log_gamma(a: float) -> float:
    """Return ln Gamma(a) for a > 0."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"log_gamma requires a finite positive argument, got {a}")
    return math.lgamma(a)


def _lower_series(a: float, x: float, tol: Tolerance) -> float:
    # Regularized lower incomplete gamma P(a, x) by power series; a > 0, x < a+1.
    term = 1.0 / a
    total = term
    n = 0
    while n < tol.max_iter:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(
        f"incomplete-gamma series did not converge for a={a}, x={x}", partial=total
    )


def _upper_cf(a: float, x: float, tol: Tolerance) -> float:
    # Gamma(a, x) = e^{-x} x^a * CF, by the Legendre continued fraction with
    # modified Lentz evaluation.  Valid for any real a when x is not small.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    n = 0
    while n < tol.max_iter:
        n += 1
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            log_pref = -x + a * math.log(x)
            if log_pref > 700.0:
                return math.inf
            return math.exp(log_pref) * h
    raise ConvergenceError(
        f"incomplete-gamma continued fraction did not converge for a={a}, x={x}",
        partial=h,
    )


# zeta(k) - 1 for k = 2..40, for the accelerated log-gamma series below.
_ZETA_MINUS_1 = (
    0.6449340668482264365,
    0.2020569031595942854,
    0.08232323371113819152,
    0.03692775514336992633,
    0.01734306198444913971,
    0.00834927738192282684,
    0.004077356197944339379,
    0.002008392826082214418,
    0.0009945751278180853371,
    0.0004941886041194645587,
    0.0002460865533080482986,
    0.0001227133475784891468,
    0.00006124813505870482926,
    0.00003058823630702049355,
    0.00001528225940865187173,
    7.637197637899762274e-6,
    3.817293264999839856e-6,
    1.908212716553938926e-6,
    9.539620338727961132e-7,
    4.769329867878064631e-7,
    2.3845050272773299e-7,
    1.192199259653110731e-7,
    5.960818905125947961e-8,
    2.980350351465228019e-8,
    1.490155482836504123e-8,
    7.450711789835429492e-9,
    3.725334024788457055e-9,
    1.862659723513049006e-9,
    9.313274324196681829e-10,
    4.656629065033784073e-10,
    2.328311833676505492e-10,
    1.164155017270051978e-10,
    5.820772087902700889e-11,
    2.910385044497099687e-11,
    1.455192189104198424e-11,
    7.275959835057481015e-12,
    3.63797954737865119e-12,
    1.818989650307065948e-12,
    9.094947840263889283e-13,
)


def _log_gamma_1p(a: float) -> float:
    # ln Gamma(1 + a) for |a| <= 1/2, accurate in absolute terms down to
    # a ~ 0 where math.lgamma(1 + a) loses everything to the rounding of
    # its argument.  Uses the accelerated Taylor series
    #   ln Gamma(1+a) = -ln(1+a) + a(1 - euler_gamma)
    #                   + sum_{k>=2} (-1)^k (zeta(k)-1) a^k / k,
    # whose terms decay like (|a|/2)^k.
    total = a * (1.0 - _EULER_GAMMA) - math.log1p(a)
    power = -a
    for k, zm1 in enumerate(_ZETA_MINUS_1, start=2):
        power *= -a
        term = zm1 * power / k
        total += term
        if abs(term) < abs(total) * _EPS + 1e-320:
            break
    return total


def _small_shape_series(a: float, x: float, tol: Tolerance) -> float:
    # Gamma(a, x) for 0 < |a| < 1 and x < 1.  The textbook routes cancel
    # catastrophically near a = 0 (Gamma(a) * (1 - P(a, x)) for a > 0, the
    # downward recurrence's final division for a < 0); regroup the lower
    # series as
    #   Gamma(a, x) = (expm1(lgamma(a+1)) - expm1(a ln x)) / a - x^a S,
    #   S = sum_{k>=1} (-x)^k / ((a+k) k!),
    # whose head tends to -euler_gamma - ln x as a -> 0.  For subnormal a
    # the quotient keeps no digits; below 1e-200 the head's O(a) part is far
    # under double resolution, so the limit is used.
    if abs(a) < 1e-200:
        head = -_EULER_GAMMA - math.log(x)
    else:
        head = (math.expm1(_log_gamma_1p(a)) - math.expm1(a * math.log(x))) / a
    term = 1.0
    s = 0.0
    for k in range(1, tol.max_iter):
        term *= -x / k
        contrib = term / (a + k)
        s += contrib
        if abs(contrib) < abs(s) * _EPS + 1e-320:
            break
    return head - math.pow(x, a) * s


def _e1_series(x: float) -> float:
    # Exponential integral E1(x) = Gamma(0, x) for small x, by the
    # convergent series E1(x) = -euler_gamma - ln x + sum (-1)^{k+1} x^k/(k k!).
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 200):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < abs(total) * _EPS + 1e-320:
            break
    return total


def upper_incomplete_gamma(a: float, x: float, tol: Tolerance | None = None) -> float:
    """Return Gamma(a, x) for real shape a and x > 0.

    For a >= 1/2 the standard series / continued-fraction split at
    ``x = a + 1`` is used; smaller positive shapes with small x take a
    regrouped series that avoids the ``Gamma(a) * (1 - P)`` cancellation.
    For a <= 0 the continued fraction still applies
    when x is not small; for small x the value is obtained by running the
    recurrence ``Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a`` downward
    from the shape in (-1/2, 1/2] that differs from a by an integer.  The
    downward direction is stable there because the ``x^a e^{-x}`` term
    dominates.

    Overflow saturates to ``inf``; results below the underflow threshold
    saturate to 0.0.
    """
    if tol is None:
        tol = _DEFAULT_TOL
    if x == math.inf:
        return 0.0
    if not (math.isfinite(x) and x > 0):
        raise ValueError(
            f"upper_incomplete_gamma requires x > 0 (integral diverges at 0 "
            f"for a <= 0), got x={x}"
        )
    if not math.isfinite(a):
        raise ValueError(f"shape must be finite, got a={a}")

    if a >= 0.5:
        if x < a + 1.0:
            p = _lower_series(a, x, tol)
            return math.exp(math.lgamma(a)) * (1.0 - p)
        return _upper_cf(a, x, tol)

    # a < 0.5
    if x >= 1.0:
        # The continued fraction converges quickly here and avoids both the
        # cancellation the downward recurrence suffers at large x and the
        # Gamma(a) * (1 - P) cancellation for tiny positive shapes.
        return _upper_cf(a, x, tol)
    if a != 0.0 and abs(a) < 0.5:
        # Covers tiny negative shapes too: the downward recurrence would
        # finish by dividing a cancelled difference by the tiny a itself.
        return _small_shape_series(a, x, tol)

    # Small x: recurrence downward from a shape in (-1/2, 1/2], seeded with
    # E1 (integer a) or the series for that shape.  Seeding from the
    # fractional part in (1/2, 1) instead would pass through a shape near 0
    # when a lies just below an integer, and divide a cancelled difference
    # by it (Gamma(-1 - 2^-52, 0.5) came out 67% off).
    frac = a - math.floor(a)
    if frac == 0.0:
        g = _e1_series(x)
        cur = 0.0
    else:
        cur = frac if frac <= 0.5 else frac - 1.0
        g = upper_incomplete_gamma(cur, x, tol)
    emx = math.exp(-x)
    while cur > a:
        cur -= 1.0
        g = (g - math.pow(x, cur) * emx) / cur
    return g


def _lower_series_array(a: float, x: np.ndarray, tol: Tolerance) -> np.ndarray:
    # _lower_series elementwise; each entry stops at the same term as the
    # scalar loop, and only unconverged entries keep iterating.
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    out = np.empty(x.shape)
    active = np.arange(x.size)
    xa = x
    n = 0
    while active.size and n < tol.max_iter:
        n += 1
        term *= xa / (a + n)
        total += term
        done = np.abs(term) < np.abs(total) * _EPS
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, xa, term, total = active[keep], xa[keep], term[keep], total[keep]
    if active.size:
        raise ConvergenceError(
            f"incomplete-gamma series did not converge for a={a} at "
            f"{active.size} points", partial=total,
        )
    return out * np.exp(-x + a * np.log(x) - math.lgamma(a))


def _upper_cf_array(a: float, x: np.ndarray, tol: Tolerance) -> np.ndarray:
    # _upper_cf elementwise (modified Lentz on the Legendre fraction).
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    out = np.empty(x.shape)
    active = np.arange(x.size)
    n = 0
    while active.size and n < tol.max_iter:
        n += 1
        an = -n * (n - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[active[done]] = h[done]
            keep = ~done
            active, b, c, d, h = active[keep], b[keep], c[keep], d[keep], h[keep]
    if active.size:
        raise ConvergenceError(
            f"incomplete-gamma continued fraction did not converge for a={a} "
            f"at {active.size} points", partial=h,
        )
    log_pref = -x + a * np.log(x)
    with np.errstate(over="ignore"):
        return np.where(log_pref > 700.0, np.inf, np.exp(log_pref) * out)


def upper_incomplete_gamma_array(a: float, x) -> np.ndarray:
    """Gamma(a, x) elementwise over an array x > 0, for a scalar a >= 1/2.

    Runs the same series / continued-fraction split at ``x = a + 1`` as
    ``upper_incomplete_gamma``, under masks, so each element matches the
    scalar form to rounding.  Returns an array of the shape of ``x``;
    ``x = inf`` gives 0 and overflow saturates to ``inf``.
    """
    if not (math.isfinite(a) and a >= 0.5):
        raise ValueError(f"the array form needs a finite shape a >= 1/2, got a={a}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("upper_incomplete_gamma_array requires every x > 0")
    tol = _DEFAULT_TOL
    flat = x.ravel()
    out = np.zeros(flat.shape)
    low = flat < a + 1.0
    high = ~low & (flat < math.inf)
    if low.any():
        series = _lower_series_array(a, flat[low], tol)
        out[low] = math.exp(math.lgamma(a)) * (1.0 - series)
    if high.any():
        out[high] = _upper_cf_array(a, flat[high], tol)
    return out.reshape(x.shape)


def _betacf(a: float, b: float, x: float, tol: Tolerance) -> float:
    # Continued fraction for the regularized incomplete beta function
    # (modified Lentz).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, tol.max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"incomplete-beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x}",
        partial=h,
    )


def _betainc_reg(a: float, b: float, x: float, tol: Tolerance) -> float:
    # Regularized incomplete beta I_x(a, b).
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(log_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x, tol) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x, tol) / b


def f_cdf(d1: int, d2: int, t: float, tol: Tolerance | None = None) -> float:
    """CDF of the F-distribution with d1 and d2 degrees of freedom at t >= 0."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got d1={d1}, d2={d2}")
    if not (math.isfinite(t) or t == math.inf) or t < 0:
        raise ValueError(f"f_cdf requires t >= 0, got t={t}")
    if t == 0.0:
        return 0.0
    if t == math.inf:
        return 1.0
    if tol is None:
        tol = _DEFAULT_TOL
    # I_y(d1/2, d2/2) with y = d1 t / (d1 t + d2); evaluate the smaller tail
    # to keep absolute accuracy.
    y = d1 * t / (d1 * t + d2)
    if y <= 0.5:
        return _betainc_reg(0.5 * d1, 0.5 * d2, y, tol)
    return 1.0 - _betainc_reg(0.5 * d2, 0.5 * d1, d2 / (d1 * t + d2), tol)


def f_quantile(d1: int, d2: int, q: float, tol: Tolerance | None = None) -> float:
    """Return t with f_cdf(d1, d2, t) = q, for q in (0, 1).

    Implemented by bracket expansion followed by bisection with a final
    secant polish, all on f_cdf itself.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"f_quantile requires 0 < q < 1, got q={q}")
    if tol is None:
        tol = Tolerance(rel=1e-14, abs=1e-300, max_iter=300)

    lo, hi = 0.0, 1.0
    it = 0
    while f_cdf(d1, d2, hi) < q:
        lo, hi = hi, hi * 4.0
        it += 1
        if it > 600:
            raise ConvergenceError(
                f"f_quantile bracket expansion failed for d1={d1}, d2={d2}, q={q}",
                partial=(lo, hi),
            )

    flo = f_cdf(d1, d2, lo) - q
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f_cdf(d1, d2, mid) - q
        if abs(fmid) < 1e-13 or (hi - lo) < 1e-15 * max(1.0, mid):
            break
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    else:
        raise ConvergenceError(
            f"f_quantile bisection did not converge for d1={d1}, d2={d2}, q={q}",
            partial=(lo, hi),
        )

    # Secant polish inside the final bracket.
    t0, t1 = lo, hi
    f0 = f_cdf(d1, d2, t0) - q
    f1 = f_cdf(d1, d2, t1) - q
    for _ in range(8):
        if f1 == f0:
            break
        t2 = t1 - f1 * (t1 - t0) / (f1 - f0)
        if not (lo <= t2 <= hi):
            break
        t0, f0, t1 = t1, f1, t2
        f1 = f_cdf(d1, d2, t1) - q
        if abs(f1) < 1e-15:
            break
    return t1
