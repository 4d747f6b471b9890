"""The normal-truncated-gamma (NtG) conjugate prior family.

A joint prior on a location vector ``mu`` in R^p and a precision
``lambda > 0`` whose density is

    C * kappa0^{p/2} * lambda^{alpha0 + p/2 - 1}
      * exp(-lambda * (beta0 + kappa0 * ||mu - mu0||^2 / 2)) * {lambda > eps0},

i.e. a Gaussian in ``mu`` given ``lambda`` and a gamma-shaped ``lambda``
density truncated to ``(eps0, inf)``.  The family is conjugate for the
Gaussian location-scale model (``x | mu, lambda ~ N(mu, I_p/lambda)``,
``s | lambda ~ chi^2_m / lambda``).

Every density and draw of one distribution needs Gamma(alpha0, beta0 eps0),
which each ``NtGParams`` computes on first use and keeps as ``_gamma0``; a
raised exception is not kept, so the next use raises it afresh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _newton_root, log_gamma, upper_incomplete_gamma
from .specfun import upper_incomplete_gamma_array

__all__ = [
    "NtGParams",
    "LocationScale",
    "normalizing_constant",
    "prior_density",
    "posterior_update",
    "marginal_mu_density",
    "marginal_mu_density_sqdist",
    "marginal_lambda_density",
    "marginal_obs_density",
    "sample_prior",
]


def _freeze(obj, field: str) -> np.ndarray:
    # Replace an array field of a frozen dataclass by a read-only float64
    # copy that no caller's array aliases; returns it for a shape check.
    # A NaN or infinite entry raises.  The array value types compare by
    # identity (eq=False), as a generated == or hash would take an array's
    # truth value or hash, and raise.
    v = np.array(getattr(obj, field), dtype=float)
    if not all(map(math.isfinite, v.ravel().tolist())):
        raise ValueError(f"{field} has an entry that is not finite")
    v.flags.writeable = False
    object.__setattr__(obj, field, v)
    return v


def _sqdist(u: np.ndarray, v: np.ndarray) -> float:
    # ||u - v||^2 in Python floats, which skips numpy's per-call cost on a
    # short vector; summed left to right, which is np.sum's order for p < 8.
    t = 0.0
    for a, b in zip(u.tolist(), v.tolist()):
        t += (a - b) * (a - b)
    return t


@dataclass(frozen=True, eq=False)
class NtGParams:
    """Hyper-parameters (p, mu0, kappa0, alpha0, beta0, eps0) of an NtG prior.

    Propriety requires exactly one of:
      * eps0 = 0, alpha0 > 0, beta0 > 0   (plain normal-gamma),
      * eps0 > 0, beta0 > 0               (truncated normal-gamma),
      * eps0 > 0, alpha0 < 0, beta0 = 0   (Pareto-type tail).
    Every hyper-parameter, and every entry of mu0, must be finite.
    """

    p: int
    mu0: np.ndarray
    kappa0: float
    alpha0: float
    beta0: float
    eps0: float

    def __post_init__(self) -> None:
        mu0 = _freeze(self, "mu0")
        if mu0.shape != (self.p,):
            raise ValueError(f"mu0 must be a length-{self.p} vector")
        if self.p < 1:
            raise ValueError(f"dimension must be >= 1, got {self.p}")
        if not all(map(math.isfinite, (self.kappa0, self.alpha0, self.beta0, self.eps0))):
            raise ValueError(f"hyper-parameters must be finite, got {self}")
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be positive, got {self.kappa0}")
        if self.beta0 < 0 or self.eps0 < 0:
            raise ValueError("beta0 and eps0 must be nonnegative")
        proper = (
            (self.eps0 == 0 and self.alpha0 > 0 and self.beta0 > 0)
            or (self.eps0 > 0 and self.beta0 > 0)
            or (self.eps0 > 0 and self.alpha0 < 0 and self.beta0 == 0)
        )
        if not proper:
            raise ValueError(
                "improper hyper-parameters: need (eps0=0, alpha0>0, beta0>0) "
                "or (eps0>0, beta0>0) or (eps0>0, alpha0<0, beta0=0); got "
                f"alpha0={self.alpha0}, beta0={self.beta0}, eps0={self.eps0}"
            )

    @functools.cached_property
    def _gamma0(self) -> float:
        # Gamma(alpha0, beta0 eps0), the normaliser's Gamma when beta0 > 0.
        return upper_incomplete_gamma(self.alpha0, self.beta0 * self.eps0)


@dataclass(frozen=True, eq=False)
class LocationScale:
    """A parameter point, mean vector and precision lambda = 1/sigma^2, or a
    stack of them: mu (..., p) and lam broadcasting against mu's leading axes.
    Every entry must be finite and every precision positive."""

    mu: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        if _freeze(self, "mu").ndim < 1:
            raise ValueError("mu must be a vector or a stack of vectors")
        ok = (self.lam > 0) & (self.lam < math.inf)
        if ok is not True and not np.all(ok):  # a float gives a bool
            raise ValueError(f"precision must be positive and finite, got {self.lam}")


def normalizing_constant(params: NtGParams) -> float:
    """The scaling constant C of the prior density.

    ``(2 pi)^{-p/2} beta0^{alpha0} / Gamma(alpha0, beta0 * eps0)`` when
    beta0 > 0, and ``(2 pi)^{-p/2} (-alpha0) eps0^{-alpha0}`` when beta0 = 0.
    """
    return _scaled_normaliser(params, (2.0 * math.pi) ** (-0.5 * params.p))


def _scaled_normaliser(params: NtGParams, pref: float) -> float:
    # pref * C (2 pi)^{p/2}, left to right: each marginal passes its own
    # prefactor, so none forms (2 pi)^{-p/2} only to cancel it.
    if params.beta0 > 0:
        return pref * params.beta0 ** params.alpha0 / params._gamma0
    return pref * (-params.alpha0) * params.eps0 ** (-params.alpha0)


def prior_density(params: NtGParams, point: LocationScale):
    """Joint prior density at (mu, lambda), zero for lambda <= eps0: a float
    at one point, an array over a stack."""
    if point.mu.shape[-1] != params.p:
        raise ValueError("dimension mismatch between params and point")
    lam = point.lam
    d2 = ((point.mu - params.mu0) ** 2).sum(axis=-1)
    dens = (
        normalizing_constant(params)
        * params.kappa0 ** (0.5 * params.p)
        * lam ** (params.alpha0 + 0.5 * params.p - 1.0)
        * np.exp(-lam * (params.beta0 + 0.5 * params.kappa0 * d2))
        * (lam > params.eps0)
    )
    return dens if dens.ndim else float(dens)


def _update(params: NtGParams, x: np.ndarray, s: float, m: int) -> tuple:
    # The checked x and the updated alpha1, beta1 of ``posterior_update``.
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != params.p:
        raise ValueError(f"x must be a length-{params.p} vector")
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    kap = params.kappa0
    alpha1 = params.alpha0 + 0.5 * (params.p + m)
    d2 = _sqdist(x, params.mu0)
    beta1 = params.beta0 + 0.5 * s + 0.5 * kap / (1.0 + kap) * d2
    if not beta1 < math.inf:  # beta1 > 0, so this one test also rejects NaN
        raise ValueError(f"beta1 = {beta1} is not finite at s={s}, ||x - mu0||^2={d2}")
    return x, alpha1, beta1


def posterior_update(params: NtGParams, x: np.ndarray, s: float, m: int) -> NtGParams:
    """Conjugate update after observing (x, s) with m scale degrees of freedom.

    mu1 = (x + kappa0 mu0)/(1 + kappa0), kappa1 = 1 + kappa0,
    alpha1 = alpha0 + (p+m)/2,
    beta1 = beta0 + s/2 + kappa0/(1+kappa0) * ||x - mu0||^2 / 2.
    The truncation point eps0 is unchanged.
    """
    x, alpha1, beta1 = _update(params, x, s, m)
    kap = params.kappa0
    updated = NtGParams(
        p=params.p, mu0=(x + kap * params.mu0) / (1.0 + kap), kappa0=1.0 + kap,
        alpha0=alpha1, beta0=beta1, eps0=params.eps0,
    )
    # Conjugacy closure: valid inputs cannot leave the proper region.
    assert updated.alpha0 > params.alpha0 and updated.beta0 > params.beta0
    return updated


def marginal_mu_density(params: NtGParams, mu: np.ndarray) -> float:
    """Marginal prior density of the location vector.

    ``C kappa0^{p/2} Gamma(alpha0 + p/2, eps0 * b) / b^{alpha0 + p/2}`` with
    ``b = beta0 + kappa0 ||mu - mu0||^2 / 2``.  When beta0 = 0 the density
    has an integrable singularity at mu = mu0; that point returns +inf.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size != params.p:
        raise ValueError(f"mu must have shape ({params.p},), got {mu.shape}")
    b = params.beta0 + 0.5 * params.kappa0 * _sqdist(mu, params.mu0)
    if math.isnan(b):
        raise ValueError(f"mu has an entry that is not a number: {mu.tolist()}")
    if b == 0.0:
        return math.inf
    if b == math.inf:  # mu at infinity, or past about 1e154
        return 0.0
    return _mu_density(params, b, upper_incomplete_gamma)


def marginal_mu_density_sqdist(params: NtGParams, t) -> np.ndarray:
    """``marginal_mu_density`` over an array of squared distances
    t = ||mu - mu0||^2, elementwise; the density depends on mu only through
    t.  Needs eps0 b > 0 at every t and alpha0 + p/2 >= 1/2, the domain of
    ``upper_incomplete_gamma_array``."""
    b = params.beta0 + 0.5 * params.kappa0 * np.asarray(t, dtype=float)
    return _mu_density(params, b, upper_incomplete_gamma_array)


def _mu_density(params: NtGParams, b, upper_gamma):
    # C kappa0^{p/2} Gamma(alpha0 + p/2, eps0 b) / b^{alpha0 + p/2}, scalar or
    # array as upper_gamma is.
    k = (params.kappa0 / (2.0 * math.pi)) ** (0.5 * params.p)
    shape = params.alpha0 + 0.5 * params.p
    norm = _scaled_normaliser(params, k)
    return norm * upper_gamma(shape, params.eps0 * b) / b ** shape


def marginal_lambda_density(params: NtGParams, lam: float) -> float:
    """Marginal prior density of the precision; zero for lambda <= eps0 and
    at lambda = inf."""
    if math.isnan(lam):
        raise ValueError("lam is not a number")
    if lam <= params.eps0 or lam == math.inf:
        return 0.0
    return (
        _scaled_normaliser(params, 1.0)
        * lam ** (params.alpha0 - 1.0)
        * math.exp(-lam * params.beta0)
    )


def marginal_obs_density(params: NtGParams, m: int, x: np.ndarray, s: float) -> float:
    """Marginal density of the observables (x, s) under the hierarchical model.

    ``C / (2^{m/2} Gamma(m/2)) * (kappa0/(1+kappa0))^{p/2} * s^{m/2-1}
    * Gamma(alpha1, eps0 * beta1) / beta1^{alpha1}`` with alpha1, beta1 from
    the conjugate update.
    """
    _, alpha1, beta1 = _update(params, x, s, m)
    c = normalizing_constant(params)
    return (
        c
        / (2.0 ** (0.5 * m) * math.exp(log_gamma(0.5 * m)))
        * (params.kappa0 / (1.0 + params.kappa0)) ** (0.5 * params.p)
        * s ** (0.5 * m - 1.0)
        * upper_incomplete_gamma(alpha1, params.eps0 * beta1)
        / beta1 ** alpha1
    )


# Abramowitz & Stegun 26.2.23: a rational fit to the upper standard-normal
# quantile, good to 4.5e-4; only a Newton starting value needs it.
_AS_NUM = (2.515517, 0.802853, 0.010328)
_AS_DEN = (1.432788, 0.189269, 0.001308)
_LN_HALF = -math.log(2.0)


def _normal_upper_quantile(log_q: float) -> float:
    # z with P(Z > z) = q for a standard normal Z, from ln q < 0.
    sign = 1.0
    if log_q > _LN_HALF:
        log_q = math.log(-math.expm1(log_q))
        sign = -1.0
    t = math.sqrt(-2.0 * log_q)
    num = _AS_NUM[0] + t * (_AS_NUM[1] + t * _AS_NUM[2])
    den = 1.0 + t * (_AS_DEN[0] + t * (_AS_DEN[1] + t * _AS_DEN[2]))
    return sign * (t - num / den)


def _gamma_quantile_start(a: float, log_q: float) -> float:
    # y with Gamma(a, y) / Gamma(a) ~ q for a > 0 (DiDonato & Morris 1986):
    # the Wilson-Hilferty cube, or P(a, y) ~ y^a / Gamma(a + 1) where the
    # cube is not positive (small a, q near 1).
    c = 1.0 / (9.0 * a)
    w = 1.0 - c + _normal_upper_quantile(log_q) * math.sqrt(c)
    if w > 0.0:
        return a * w ** 3
    return math.exp((math.log(-math.expm1(log_q)) + math.lgamma(a + 1.0)) / a)


def _sample_lambda(params: NtGParams, u: float) -> float:
    # Inverse-CDF draw of the precision: the t >= eps0 with P(lambda > t) = u.
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    if params.beta0 == 0.0:
        # Closed-form inverse: survival (t/eps0)^{alpha0} with alpha0 < 0.
        return params.eps0 * u ** (1.0 / params.alpha0)
    if u == 1.0:
        return params.eps0
    # Safeguarded Newton on f(y) = ln(Gamma(a, y) / Gamma(a, y0)) - ln u with
    # y = beta0 * t and y0 = beta0 * eps0.  f' = -h, h = y^{a-1} e^{-y} /
    # Gamma(a, y) the hazard, taken in log space.  Forming the ratio before
    # the log keeps f's rounding near that of ln u when Gamma is huge.
    a, beta = params.alpha0, params.beta0
    y0 = beta * params.eps0
    g0 = params._gamma0
    if not 0.0 < g0 < math.inf:
        raise OverflowError(f"Gamma({a}, {y0}) = {g0} is out of double range")
    log_u = math.log(u)
    y = y0
    if a > 0.0:
        log_q = min(log_u, log_u + math.log(g0) - math.lgamma(a))
        start = _gamma_quantile_start(a, log_q)
        if start > y0:
            y = start
        elif y0 == 0.0:  # the quantile is below the smallest double
            return 0.0

    def newton(y: float) -> tuple[float, float]:
        g = g0 if y == y0 else upper_incomplete_gamma(a, y)
        if g == math.inf:  # Gamma(a, y) <= Gamma(a, y0) is finite
            raise OverflowError(f"Gamma({a}, {y}) saturated to inf")
        if not g > 0.0:  # Gamma(a, y) underflowed: y lies far beyond the root.
            return -math.inf, -math.inf
        f = math.log(g / g0) - log_u
        if log_u > -1e-15 and abs(f) <= 1e-15:  # u ulps from 1: f's sign is noise
            return 0.0, 0.0  # and y already solves the equation to rounding
        neg_log_h = math.log(g) + y - (a - 1.0) * math.log(y)
        if neg_log_h < 700.0:
            return f, f * math.exp(neg_log_h)
        return f, math.copysign(math.inf, f)

    # The root / beta may round below eps0 when u is an ulp from 1.
    return max(_newton_root(newton, y, y0) / beta, params.eps0)


def sample_prior(params: NtGParams, rng: np.random.Generator) -> LocationScale:
    """Draw (mu, lambda) from the prior; deterministic for a given generator.

    The precision is drawn by inverse CDF from its marginal (a safeguarded
    Newton iteration on the incomplete-gamma survival function, or a closed
    form when beta0 = 0), then ``mu | lambda ~ N(mu0, I_p / (kappa0 * lambda))``.
    A uniform of exactly 0, which ``rng.random()`` can return, is drawn again.
    """
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    lam = _sample_lambda(params, u)
    mu = params.mu0 + rng.standard_normal(params.p) / math.sqrt(params.kappa0 * lam)
    return LocationScale(mu=mu, lam=lam)
