"""Special functions used by every density and risk formula.

Provides the log-gamma function, the (non-regularized) upper incomplete
gamma function for arbitrary real shape -- including the negative shapes
that arise from priors with shape parameter ``-p/2`` -- and the CDF and
quantile function of the F-distribution.  ``upper_incomplete_gamma_array``
evaluates the same branches elementwise over a numpy array for shapes
a >= 1/2, a block of series terms or continued-fraction steps at a time
(at most 65,536 entries a block): running products and sums down the
block give the series, and the fraction runs 16 Lentz steps with no
per-step test.  Each element goes through the scalar loop's floating-point
operations.  Neither fraction guards against zero denominators, which
cannot occur on its domain (the proof is at ``_upper_cf``).
At shapes a >= 20 with 0.2 a <= x <= 1.6 a, where the series and
the continued fraction need O(sqrt(a)) terms, Temme's uniform expansion
(Temme 1979; DiDonato & Morris 1986; DLMF 8.12) gives Gamma(a) Q(a, x) from
one erfc, one exp and one Horner pass over a polynomial memoised per shape;
the array form routes those elements through the same scalar code.
The F quantile and the NtG precision sampler share one safeguarded Newton
solver, ``_newton_root``.

The upper incomplete gamma function is

.. math:: \\Gamma(a, x) = \\int_x^\\infty t^{a-1} e^{-t}\\,dt,

which converges for every real ``a`` as long as ``x > 0``.
"""

from __future__ import annotations

import functools
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
# Rows of the first block of the array kernels' series (later blocks
# double) and steps of each block of their continued fraction.
_BLOCK = 16
# Cap on rows x entries of one such block (512 KiB a buffer of doubles):
# wider arrays take shorter blocks, down to one row, so a kernel's memory
# stays linear in the array's length.
_BLOCK_CELLS = 1 << 16
# Iteration cap of the safeguarded Newton solver.
_NEWTON_CAP = 200


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets of ``numint.gauss_legendre``.

    ``specfun`` does not read it, but it is the lowest layer: its readers
    and the benchmark import it from here, and moving it up to ``numint``
    would need a re-export here, which would make ``specfun`` import upward.
    ``max_iter`` is frozen, not live: nothing in ``src/`` reads it, since the
    rule's cap is ``numint._RULE_CAP``.  It stays only because the
    benchmark's frozen call sites still pass it.
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
    # modified Lentz evaluation, on the domain x >= a + 1 for a >= 1/2 and
    # x >= 1 for a < 1/2.
    #
    # Lentz's guards against a zero denominator (Thompson & Barnett 1986)
    # cannot fire there.  With y = x - a > 1/2, b_n = y + 2n + 1,
    # a_n = -n(n - a) and D_n = a_n d_{n-1} + b_n (d_n = 1/D_n, d_0 = 1/b_0,
    # c_0 = 1/_TINY), induction gives D_n >= b_n/2 and c_n >= b_n/2 for
    # every real a.  If a_n >= 0 this is immediate.  Otherwise
    # |a_n| d_{n-1} <= 2n(n - a)/b_{n-1} <= b_n/2, as
    # b_{n-1} b_n - 4n(n - a) = (y + 2n)^2 - 1 - 4n(n - a) = y^2 + 4nx - 1
    # is >= 0 once x >= 1/4; the same bound holds for |a_n|/c_{n-1}.  (Run
    # unguarded for _MAX_ITER steps over a grid of the domain, the smallest
    # of D_n/b_n and c_n/b_n is 0.52.)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    n = 0
    while n < _MAX_ITER:
        n += 1
        an = -n * (n - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
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


# Temme's uniform expansion (DLMF 8.12.8-8.12.10) serves a >= _TEMME_MIN_A
# with _TEMME_LO a <= x <= _TEMME_HI a, where the series and the continued
# fraction need O(sqrt(a)) terms.  Over that window it is within about 7e-15
# of 30-digit mpmath for a <= 170.5.  Rows c_0 .. c_9 of Taylor coefficients
# in eta, eta^0 first, from scripts/temme_coefficients.py --terms 10
# --degree 18; dropping the rest changes Q by under 1e-16 in the window.
_TEMME_MIN_A = 20.0
_TEMME_LO = 0.2
_TEMME_HI = 1.6
_TEMME_C = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
        7.1624989648114856e-12,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
        1.197593554636698e-11,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
        -2.1894761681963938e-11,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
        -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10,
        -4.356323005056618e-11,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
        3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15,
        9.358944242306784e-11,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
        8.649648858010293e-14, 1.6846058979264062e-09, -8.575492823577594e-10,
        2.1598224929232125e-10,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
        4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
        -1.4578352908731272e-08, 3.887645959386175e-09, -3.881002251019412e-17,
        -5.327994173877286e-10,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
        6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
        3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08,
        6.597703826733e-16, -9.590386497425686e-09, 5.213214492280807e-09,
        -1.3991589583935709e-09,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
        -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
        8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07,
        8.862466778790695e-08, -2.5184812301826817e-08, -1.0225912098215092e-14,
        3.896947075815478e-09,
    ),
)
# 1/3, 1/5, ..., 1/27, highest order first, from
# 2 atanh(w) = 2w + 2w^3 sum_n w^2n / (2n + 3), whose terms past these fall
# below 1e-17 for |w| <= 1/4.
_ATANH_TAIL = tuple(1.0 / (2 * n + 3) for n in range(12, -1, -1))


@functools.lru_cache(maxsize=64)
def _temme_poly(a: float) -> tuple[float, ...]:
    # sum_k c_k(eta) a^-k / sqrt(2 pi a) as one polynomial in eta, highest
    # degree first: a pure function of a, memoised so that a call costs one
    # Horner pass.
    inv, scale = 1.0 / a, 1.0 / math.sqrt(2.0 * math.pi * a)
    poly = []
    for column in zip(*_TEMME_C):
        s = 0.0
        for c in reversed(column):
            s = s * inv + c
        poly.append(s * scale)
    return tuple(reversed(poly))


def _temme(a: float, x: float) -> float:
    # Gamma(a, x) = Gamma(a) Q(a, x) with
    #   Q = erfc(eta sqrt(a/2)) / 2 + e^{-a eta^2/2} sum_k c_k(eta) a^-k / sqrt(2 pi a),
    # a eta^2 / 2 = a (z - log1p(z)), z = x/a - 1.  The exponent is formed
    # without cancellation from w = z / (2 + z) = (x - a) / (x + a): since
    # log1p(z) = 2 atanh(w), a eta^2/2 = (x - a) w - 2 a w^3 (1/3 + w^2/5 + ...).
    # Only the lower tail w < -1/4 (x < 0.6 a), where the expansion's term
    # is a small share of Q, takes the direct form.
    if a >= 171.0 and x < a + 1.0 and math.lgamma(a) >= _LOG_DBL_MAX:
        raise OverflowError(f"Gamma({a}) is past the double range")
    d = x - a
    w = d / (x + a)
    if w > -0.25:
        u = w * w
        s = 0.0
        for c in _ATANH_TAIL:
            s = s * u + c
        half_a_eta2 = d * w - 2.0 * a * w * u * s
    else:
        z = d / a
        half_a_eta2 = a * (z - math.log1p(z))
    y = math.copysign(math.sqrt(half_a_eta2), d)  # eta sqrt(a/2)
    eta = y * math.sqrt(2.0 / a)
    s = 0.0
    for c in _temme_poly(a):
        s = s * eta + c
    q = 0.5 * math.erfc(y) + math.exp(-half_a_eta2) * s
    if a < 171.0:
        return math.gamma(a) * q
    # Gamma(a) alone may be past the double range while Gamma(a, x) is not.
    # Q underflows only for a above about 5,000, where Gamma(a, x) is far
    # past it.
    log_g = math.lgamma(a) + math.log(q) if q > 0.0 else math.inf
    return math.exp(log_g) if log_g < _LOG_DBL_MAX else math.inf


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Return Gamma(a, x) for real shape a and x > 0.

    For a >= 1/2 the standard series / continued-fraction split at
    ``x = a + 1`` is used, except that a >= 20 with 0.2 a <= x <= 1.6 a
    takes Temme's uniform expansion, Gamma(a) Q(a, x), formed as
    ``math.gamma(a) * Q`` below a = 171 and as exp(ln Gamma(a) + ln Q)
    above.  For a < 1/2 the continued fraction applies when x >= 1.  For
    x < 1 the regrouped series at the shape cur = a - round(a) in
    [-1/2, 1/2] (E1 at cur = 0), which avoids the ``Gamma(a) * (1 - P)``
    cancellation, gives Gamma(cur, x), and the recurrence
    ``Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a`` runs downward from
    it to a.  The downward direction is stable there because the
    ``x^a e^{-x}`` term dominates.  ``round`` takes ties to even, so a
    negative half-integer seeds at -1/2 or +1/2.

    At and above ``x = a + 1`` (the continued fraction, and Temme's
    expansion there) a value past the double range saturates to ``inf``;
    below it (the series, and Temme's expansion there) ``Gamma(a)`` itself
    must be finite, so ``upper_incomplete_gamma(172, 100)`` and
    ``(5000, 4990)`` raise ``OverflowError``.  Results below the underflow
    threshold saturate to 0.0.
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
        if a >= _TEMME_MIN_A and _TEMME_LO * a <= x <= _TEMME_HI * a:
            return _temme(a, x)
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
    # Small x: a shape near 0 takes the series at that shape, never the
    # recurrence, whose last step would divide a cancelled difference by
    # it.  Seeding from a - floor(a) in [0, 1) would also pass through a
    # shape near 0 when a lies just below an integer (Gamma(-1 - 2^-52, 0.5)
    # came out 67% off), and a - floor(a) rounds to 1.0 at a = -2^-60;
    # a - round(a) is exact.
    cur = a - round(a)
    g = _e1_series(x) if cur == 0.0 else _small_shape_series(cur, x)
    emx = math.exp(-x)
    while cur > a:
        cur -= 1.0
        g = (g - math.pow(x, cur) * emx) / cur
    return g


def _take_converged(done: np.ndarray, values: np.ndarray, out: np.ndarray, active):
    # Each column of a block that converged gives out[active[column]] its
    # value at the first converged row; returns the mask of the others.
    cols = np.arange(done.shape[1])
    first = done.argmax(axis=0)
    hit = done[first, cols]
    out[active[hit]] = values[first, cols][hit]
    return ~hit


def _lower_series_array(a: float, x: np.ndarray) -> np.ndarray:
    # _lower_series elementwise, a block of terms at a time.  Down each
    # column, running products of x/(a+n) form term *= x/(a+n) and running
    # sums total += term, both strictly top to bottom (ufunc.accumulate),
    # so every term and total is the scalar loop's, bit for bit; an entry's
    # answer is its total at the first term below total * _EPS.  Blocks
    # start at _BLOCK rows and double, within _BLOCK_CELLS; only
    # unconverged entries enter the next one.
    out = np.empty(x.shape)
    active = np.arange(x.size)
    xa = x
    term = total = np.full(x.shape, 1.0 / a)
    n, rows = 0, _BLOCK
    while active.size and n < _MAX_ITER:
        k = min(rows, _MAX_ITER - n, max(1, _BLOCK_CELLS // active.size))
        terms = xa / (a + np.arange(n + 1, n + k + 1, dtype=float))[:, None]
        terms[0] *= term
        np.multiply.accumulate(terms, axis=0, out=terms)
        totals = terms.copy()
        totals[0] += total
        np.add.accumulate(totals, axis=0, out=totals)
        n, rows = n + k, 2 * rows
        done = terms < totals * _EPS
        keep = _take_converged(done, totals, out, active)
        active, xa, term, total = active[keep], xa[keep], terms[-1, keep], totals[-1, keep]
    if active.size:
        raise ConvergenceError(
            f"incomplete-gamma series did not converge for a={a} at "
            f"{active.size} points", partial=total,
        )
    return out * np.exp(-x + a * np.log(x) - math.lgamma(a))


def _upper_cf_array(a: float, x: np.ndarray) -> np.ndarray:
    # _upper_cf elementwise (modified Lentz on the Legendre fraction), in
    # blocks of _BLOCK steps (fewer within _BLOCK_CELLS) with no per-step
    # test: each step's delta and h go to a buffer, and after the block an
    # entry takes h at its first step with |delta - 1| < _EPS.  Steps past
    # that point are discarded, so each answer is the scalar loop's, bit
    # for bit.  Its domain, a >= 1/2 and x >= a + 1, is part of the
    # scalar one, so the proof at _upper_cf that no denominator nears zero
    # covers it.
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    out = np.empty(x.shape)
    active = np.arange(x.size)
    n = 0
    while active.size and n < _MAX_ITER:
        k = min(_BLOCK, _MAX_ITER - n, max(1, _BLOCK_CELLS // active.size))
        deltas = np.empty((k, active.size))
        hs = np.empty((k, active.size))
        for row in range(k):
            n += 1
            an = -n * (n - a)
            b = b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = np.multiply(d, c, out=deltas[row])
            h = np.multiply(h, delta, out=hs[row])
        done = np.abs(deltas - 1.0) < _EPS
        keep = _take_converged(done, hs, out, active)
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
    ``upper_incomplete_gamma``; the elements in Temme's window go through
    the scalar branch itself.  The series and the fraction run over blocks:
    the series' terms and partial sums are running products and sums down
    a block of rows (16, then doubling), and the fraction takes 16 Lentz
    steps per block; a block holds at most 65,536 entries, so long arrays
    take fewer rows a block, down to one, and memory stays linear in the
    length.  The fraction has no convergence test within a block.  An
    element's value is read at its first converged row, so its
    terms, sums and Lentz steps are the scalar loop's, bit for bit; the
    prefactor, formed with numpy's exp and log, matches the scalar form to
    rounding.  Returns an array of the shape of ``x``; ``x = inf`` gives 0,
    and overflow behaves as in the scalar form.
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
    if a >= _TEMME_MIN_A:
        temme = (flat >= _TEMME_LO * a) & (flat <= _TEMME_HI * a)
        out[temme] = [_temme(a, v) for v in flat[temme].tolist()]
        low &= ~temme
        high &= ~temme
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
    #
    # A rejected step longer than the last one means f's rounding, not the
    # distance to the root, now sets the step.  Newton may have landed on
    # one side of the root again and again (f_cdf's bias makes it do so), so
    # the other bracket end is stale: y + 2 step, just across the root,
    # brackets it tightly, where bisection would halve its way back over
    # many evaluations.
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
            if hi == math.inf:
                nxt = 2.0 * y
            elif abs(step) > abs(last) and lo < y + 2.0 * step < hi:
                nxt = y + 2.0 * step
            else:
                nxt = 0.5 * (lo + hi)
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
