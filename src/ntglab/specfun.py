"""Special functions used by every density and risk formula.

Provides the log-gamma function, the (non-regularized) upper incomplete
gamma function for arbitrary real shape -- including the negative shapes
that arise from priors with shape parameter ``-p/2`` -- and the CDF and
quantile function of the F-distribution.  ``upper_incomplete_gamma_array``
evaluates the same split elementwise over a numpy array for shapes a >= 1/2.
The F quantile and the NtG precision sampler share one safeguarded Newton
solver, ``_newton_root``.

The upper incomplete gamma function is

.. math:: \\Gamma(a, x) = \\int_x^\\infty t^{a-1} e^{-t}\\,dt,

which converges for every real ``a`` as long as ``x > 0``.
"""

from __future__ import annotations

import math
import sys
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
_LOG_DBL_MAX = math.log(sys.float_info.max)
# Term cap of every series and continued fraction below.
_MAX_ITER = 500
# Iteration cap of the safeguarded Newton solver.
_NEWTON_CAP = 200


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets of ``numint.integrate_1d`` and ``risk.posterior_risk``.

    ``specfun`` does not read it, but it is the lowest layer: its readers
    and the benchmark import it from here, and moving it up to ``numint``
    would need a re-export here, which would make ``specfun`` import upward.
    """

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


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within its iteration cap.

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


def _lower_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series; a > 0,
    0 < x < a+1.  Every term and partial sum is then positive, so the stop
    test compares them without abs()."""
    term = 1.0 / a
    total = term
    n = 0
    while n < _MAX_ITER:
        n += 1
        term *= x / (a + n)
        total += term
        if term < total * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(
        f"incomplete-gamma series did not converge for a={a}, x={x}", partial=total
    )


def _upper_cf(a: float, x: float) -> float:
    # Gamma(a, x) = e^{-x} x^a * CF, by the Legendre continued fraction with
    # modified Lentz evaluation.  Valid for any real a when x is not small.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    n = 0
    while n < _MAX_ITER:
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
                # e^{-x} x^a alone may overflow while Gamma(a, x) does not.
                log_pref += math.log(h)
                return math.exp(log_pref) if log_pref < _LOG_DBL_MAX else math.inf
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


def _small_shape_series(a: float, x: float) -> float:
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
    for k in range(1, _MAX_ITER):
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


def upper_incomplete_gamma(a: float, x: float) -> float:
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

    Where the continued fraction applies, a value past the double range
    saturates to ``inf``; where the series applies, ``Gamma(a)`` itself
    must be finite, so ``upper_incomplete_gamma(172, 100)`` raises
    ``OverflowError``.  Results below the underflow threshold saturate
    to 0.0.
    """
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
            p = _lower_series(a, x)
            return math.exp(math.lgamma(a)) * (1.0 - p)
        return _upper_cf(a, x)

    # a < 0.5
    if x >= 1.0:
        # The continued fraction converges quickly here and avoids both the
        # cancellation the downward recurrence suffers at large x and the
        # Gamma(a) * (1 - P) cancellation for tiny positive shapes.
        return _upper_cf(a, x)
    if a != 0.0 and abs(a) < 0.5:
        # Covers tiny negative shapes too: the downward recurrence would
        # finish by dividing a cancelled difference by the tiny a itself.
        return _small_shape_series(a, x)

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
        g = upper_incomplete_gamma(cur, x)
    emx = math.exp(-x)
    while cur > a:
        cur -= 1.0
        g = (g - math.pow(x, cur) * emx) / cur
    return g


def _lower_series_array(a: float, x: np.ndarray) -> np.ndarray:
    # _lower_series elementwise; each entry stops at the same term as the
    # scalar loop, and only unconverged entries keep iterating.
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    out = np.empty(x.shape)
    active = np.arange(x.size)
    xa = x
    n = 0
    while active.size and n < _MAX_ITER:
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


def _upper_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    # _upper_cf elementwise (modified Lentz on the Legendre fraction).
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    out = np.empty(x.shape)
    active = np.arange(x.size)
    n = 0
    while active.size and n < _MAX_ITER:
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
    big = log_pref > 700.0
    if big.any():  # as in _upper_cf, on the masked entries only
        log_pref[big] += np.log(out[big])
        out[big] = 1.0
    with np.errstate(over="ignore"):
        return np.exp(log_pref) * out


def upper_incomplete_gamma_array(a: float, x) -> np.ndarray:
    """Gamma(a, x) elementwise over an array x > 0, for a scalar a >= 1/2.

    Runs the same series / continued-fraction split at ``x = a + 1`` as
    ``upper_incomplete_gamma``, under masks, so each element matches the
    scalar form to rounding.  Returns an array of the shape of ``x``;
    ``x = inf`` gives 0, and overflow behaves as in the scalar form.
    """
    if not (math.isfinite(a) and a >= 0.5):
        raise ValueError(f"the array form needs a finite shape a >= 1/2, got a={a}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("upper_incomplete_gamma_array requires every x > 0")
    flat = x.ravel()
    out = np.zeros(flat.shape)
    low = flat < a + 1.0
    high = ~low & (flat < math.inf)
    if low.any():
        series = _lower_series_array(a, flat[low])
        out[low] = math.exp(math.lgamma(a)) * (1.0 - series)
    if high.any():
        out[high] = _upper_cf_array(a, flat[high])
    return out.reshape(x.shape)


def _betacf(a: float, b: float, x: float) -> float:
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
    for m in range(1, _MAX_ITER + 1):
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


# Coefficients of Stirling's series ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2
# = sum_k c_k / z^{2k-1}, highest order first; seven terms reach double
# precision for z >= 10.
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _stirling_delta(z: float) -> float:
    # The remainder of Stirling's approximation to ln Gamma(z), z >= 10.
    w = 1.0 / (z * z)
    s = 0.0
    for c in _STIRLING:
        s = s * w + c
    return s / z


def _log_beta(a: float, b: float) -> float:
    # ln B(a, b).  For a large b, lgamma(a + b) - lgamma(b) cancels (9e-12
    # absolute at b = 5000); the difference is formed from Stirling's series
    # instead (DiDonato & Morris 1992, Algorithm 708).
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    diff = (
        a * math.log(b) + (a + b - 0.5) * math.log1p(a / b) - a
        + _stirling_delta(a + b) - _stirling_delta(b)
    )
    return math.lgamma(a) - diff


def f_cdf(d1: int, d2: int, t: float) -> float:
    """CDF of the F-distribution with d1 and d2 degrees of freedom at t >= 0."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got d1={d1}, d2={d2}")
    if not (math.isfinite(t) or t == math.inf) or t < 0:
        raise ValueError(f"f_cdf requires t >= 0, got t={t}")
    if t == 0.0:
        return 0.0
    if t == math.inf:
        return 1.0
    # I_y(a, b) with y = d1 t / (d1 t + d2), a = d1/2, b = d2/2.  The
    # continued fraction converges on the side of y its switch point picks
    # and gives that tail directly; the other is its complement.  ln y and
    # ln(1 - y) are formed from t, so a y rounded near 1 costs no digits.
    a, b = 0.5 * d1, 0.5 * d2
    u = d1 * t
    bt = math.exp(-a * math.log1p(d2 / u) - b * math.log1p(u / d2) - _log_beta(a, b))
    y = u / (u + d2)
    if y < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, y) / a
    return 1.0 - bt * _betacf(b, a, d2 / (u + d2)) / b


def _newton_root(newton, y: float, lo: float, hi: float = math.inf) -> float:
    # Safeguarded Newton iteration for the root of a monotone function in
    # [lo, hi], started at y.  ``newton(y)`` returns (f, step): f > 0 means
    # the root lies above y, and y + step is the Newton iterate.  Each
    # evaluation narrows the bracket; a step that leaves it, or that fails
    # to halve the step before last, is replaced by bisection (by doubling
    # while no upper end is known).  Stops once |step| <= 1e-14 y.
    older = last = math.inf
    for _ in range(_NEWTON_CAP):
        f, step = newton(y)
        if f > 0.0:
            lo = y
        elif f < 0.0:
            hi = y
        nxt = y + step
        safe = lo < nxt < hi and not (hi < math.inf and abs(step) > 0.5 * abs(older))
        # A converged step may round onto a bracket end; it is kept.
        if not safe and abs(step) > 1e-14 * y:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * y
        older, last = last, nxt - y
        if abs(last) <= 1e-14 * nxt:
            return nxt
        y = nxt
    raise ConvergenceError("safeguarded Newton iteration did not converge", partial=(lo, hi))


def _f_lower_quantile(d1: int, d2: int, q: float) -> float:
    # t with F(t) = q <= 1/2, by Newton on q - F(t); the step is the residual
    # over the F density y^a (1 - y)^b / (B(a, b) t).  The start solves the
    # small-y asymptote F ~ y^a / (a B(a, b)) while b y < 1, where dropping
    # (1 - y)^b is safe, so roots like 1e-200 need no halving from t = 1.
    a, b = 0.5 * d1, 0.5 * d2
    log_beta = _log_beta(a, b)
    y = math.exp((math.log(q) + math.log(a) + log_beta) / a)
    start = min(d2 * y / (d1 * (1.0 - y)), 1.0) if y < 1.0 and b * y < 1.0 else 1.0
    if start == 0.0:  # the quantile is below the smallest double
        return 0.0

    def newton(t: float) -> tuple[float, float]:
        f = q - f_cdf(d1, d2, t)
        u = d1 * t
        neg_log_pdf = a * math.log1p(d2 / u) + b * math.log1p(u / d2) + log_beta + math.log(t)
        if neg_log_pdf < 700.0:
            return f, f * math.exp(neg_log_pdf)
        return f, math.copysign(math.inf, f)

    return _newton_root(newton, start, 0.0)


def f_quantile(d1: int, d2: int, q: float) -> float:
    """Return t with f_cdf(d1, d2, t) = q, for q in (0, 1).

    Solved by safeguarded Newton on the smaller tail (Gil, Segura & Temme
    2012).  For q > 1/2 the upper tail 1 - q, exact in floating point, is
    solved as the lower tail of F(d2, d1) at 1/t.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"f_quantile requires 0 < q < 1, got q={q}")
    if q > 0.5:
        return 1.0 / _f_lower_quantile(d2, d1, 1.0 - q)
    return _f_lower_quantile(d1, d2, q)
