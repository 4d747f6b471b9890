"""The specific hierarchical experiment behind the risk comparison.

Places the NtG(p, 0, kappa, -p/2, 0, eps) prior on (mu, lambda) and observes
``x | (mu, lambda) ~ N(mu, I_p/lambda)`` and ``s | lambda ~ chi^2_m / lambda``.
Everything here is available in closed form:

* the shrunk center ``mu_kappa = x / (1 + kappa)`` and the scale statistic
  ``beta_kappa = (s + kappa/(1+kappa) ||x||^2) / 2``,
* the posterior marginals of lambda and mu given (x, s); the mu marginal
  also over an array of squared distances from mu_kappa,
* the conditional Gaussian density of mu given (x, s, lambda), written as a
  function ``r_kappa`` of the squared distance from mu_kappa,
* the un-normed (improper) prior ``q = K * p`` whose kappa -> 0 limit is
  sigma-finite, together with its observable-side counterpart.

kappa = 0 is allowed everywhere except in the diverging constant K.

Every posterior marginal is normalised by beta_kappa^{m/2} /
Gamma(m/2, eps beta_kappa), which depends on the data alone.  A grid of
density values for one observation therefore needs that Gamma once: the
private ``_normaliser_gamma`` keeps the last value in a one-entry memo keyed
on (m, eps, beta_kappa).  One entry is enough because callers evaluate a
density over many points of one observation before moving to the next, and
a key of any other value computes afresh, so the memo never goes stale.
Exceptions are not memoised.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ntg import LocationScale, NtGParams
from .specfun import log_gamma, upper_incomplete_gamma, upper_incomplete_gamma_array

__all__ = [
    "Observation",
    "BlythContext",
    "mu_kappa",
    "beta_kappa",
    "big_K",
    "r_kappa",
    "cond_mu_density",
    "lambda_posterior_density",
    "mu_posterior_density",
    "mu_posterior_density_sqdist",
    "q_joint",
    "q_obs",
    "likelihood",
    "sample_obs_given",
    "prior_params",
]


@dataclass(frozen=True)
class Observation:
    """The sufficient pair (x, s) of the location-scale model."""

    x: np.ndarray
    s: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise ValueError("x must be a vector")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        if not self.s > 0:
            raise ValueError(f"s must be positive, got {self.s}")


@dataclass(frozen=True)
class BlythContext:
    """Experiment configuration: dimension p, scale dof m, ball constant c,
    shrinkage kappa >= 0 (0 selects the improper limit), truncation eps > 0."""

    p: int
    m: int
    c: float
    kappa: float
    eps: float

    def __post_init__(self) -> None:
        if self.p < 1 or self.m < 1:
            raise ValueError("p and m must be >= 1")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


def prior_params(ctx: BlythContext) -> NtGParams:
    """The proper NtG prior of the experiment; requires kappa > 0."""
    if ctx.kappa <= 0:
        raise ValueError("the proper prior exists only for kappa > 0")
    return NtGParams(
        p=ctx.p, mu0=np.zeros(ctx.p), kappa0=ctx.kappa, alpha0=-0.5 * ctx.p,
        beta0=0.0, eps0=ctx.eps,
    )


def mu_kappa(x: np.ndarray, kappa: float) -> np.ndarray:
    """Shrunk center x / (1 + kappa); equals x at kappa = 0."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    return np.asarray(x, dtype=float) / (1.0 + kappa)


def beta_kappa(obs: Observation, kappa: float) -> float:
    """(s + kappa/(1+kappa) * ||x||^2) / 2; equals s/2 at kappa = 0."""
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    sq = 0.0
    for v in obs.x.tolist():
        sq += v * v
    return 0.5 * (obs.s + kappa / (1.0 + kappa) * sq)


def big_K(ctx: BlythContext) -> float:
    """The scaling constant (2/p) Gamma(m/2) ((2 pi / eps)(1+kappa)/kappa)^{p/2}.

    Diverges (order kappa^{-p/2}) as kappa -> 0, so kappa = 0 is rejected;
    callers use the q-densities directly in the limit.
    """
    if ctx.kappa <= 0:
        raise ValueError("K diverges at kappa = 0")
    return (
        2.0
        / ctx.p
        * math.exp(log_gamma(0.5 * ctx.m))
        * (2.0 * math.pi / ctx.eps * (1.0 + ctx.kappa) / ctx.kappa) ** (0.5 * ctx.p)
    )


def r_kappa(t: float, lam: float, ctx: BlythContext) -> float:
    """The N(mu_kappa, I_p/((1+kappa) lambda)) density at squared distance t.

    ((1+kappa) lambda / (2 pi))^{p/2} exp(-(1+kappa) lambda t / 2).
    """
    if t < 0:
        raise ValueError(f"squared distance must be nonnegative, got {t}")
    if not lam > 0:
        raise ValueError(f"precision must be positive, got {lam}")
    k1 = 1.0 + ctx.kappa
    return (k1 * lam / (2.0 * math.pi)) ** (0.5 * ctx.p) * math.exp(
        -0.5 * k1 * lam * t
    )


def cond_mu_density(
    ctx: BlythContext, obs: Observation, lam: float, mu: np.ndarray
) -> float:
    """Conditional density of mu given (x, s, lambda).

    Defined for every lambda > 0, extending the formula below the truncation
    point by convention.
    """
    mu = np.asarray(mu, dtype=float)
    d2 = float(np.sum((mu - mu_kappa(obs.x, ctx.kappa)) ** 2))
    return r_kappa(d2, lam, ctx)


def lambda_posterior_density(ctx: BlythContext, obs: Observation, lam: float) -> float:
    """Posterior marginal of lambda given (x, s); zero for lambda <= eps.

    beta_kappa^{m/2} / Gamma(m/2, eps beta_kappa) * lambda^{m/2-1}
    e^{-lambda beta_kappa}; well-defined at kappa = 0 since beta_0 = s/2 > 0.
    """
    if lam <= ctx.eps:
        return 0.0
    bk = beta_kappa(obs, ctx.kappa)
    return (
        bk ** (0.5 * ctx.m)
        / _normaliser_gamma(ctx.m, ctx.eps, bk)
        * lam ** (0.5 * ctx.m - 1.0)
        * math.exp(-lam * bk)
    )


@functools.lru_cache(maxsize=1)
def _normaliser_gamma(m: int, eps: float, bk: float) -> float:
    """Gamma(m/2, eps beta_kappa), the data-only factor of every posterior
    marginal's normaliser.  The memo holds the Gamma value, not the ratio,
    so each caller keeps its own order of operations."""
    return upper_incomplete_gamma(0.5 * m, eps * bk)


def _mu_posterior_prefactor(ctx: BlythContext, obs: Observation) -> tuple[float, float]:
    # ((1+kappa)/(2 pi))^{p/2} beta_kappa^{m/2} / Gamma(m/2, eps beta_kappa),
    # in Python floats so that overflow raises, and beta_kappa.
    bk = beta_kappa(obs, ctx.kappa)
    pref = (
        ((1.0 + ctx.kappa) / (2.0 * math.pi)) ** (0.5 * ctx.p)
        * bk ** (0.5 * ctx.m)
        / _normaliser_gamma(ctx.m, ctx.eps, bk)
    )
    return pref, bk


def mu_posterior_density(ctx: BlythContext, obs: Observation, mu: np.ndarray) -> float:
    """Posterior marginal of mu given (x, s).

    ((1+kappa)/(2 pi))^{p/2} beta_kappa^{m/2} / Gamma(m/2, eps beta_kappa)
    * Gamma((m+p)/2, eps b) / b^{(m+p)/2}
    with b = beta_kappa + (1+kappa) ||mu - mu_kappa||^2 / 2.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != obs.x.shape:
        raise ValueError(f"mu must have shape {obs.x.shape}, got {mu.shape}")
    pref, bk = _mu_posterior_prefactor(ctx, obs)
    k1 = 1.0 + ctx.kappa
    # Python floats skip numpy's per-call cost on a short vector; summed left
    # to right, which is np.sum's order for p < 8.
    t = 0.0
    for v, c in zip(mu.tolist(), mu_kappa(obs.x, ctx.kappa).tolist()):
        d = v - c
        t += d * d
    b = bk + 0.5 * k1 * t
    shape = 0.5 * (ctx.m + ctx.p)
    return pref * upper_incomplete_gamma(shape, ctx.eps * b) / b ** shape


def mu_posterior_density_sqdist(ctx: BlythContext, obs: Observation, t) -> np.ndarray:
    """``mu_posterior_density`` over an array of squared distances
    t = ||mu - mu_kappa||^2, elementwise; the density depends on mu only
    through t."""
    pref, bk = _mu_posterior_prefactor(ctx, obs)
    b = bk + 0.5 * (1.0 + ctx.kappa) * np.asarray(t, dtype=float)
    shape = 0.5 * (ctx.m + ctx.p)
    return pref * upper_incomplete_gamma_array(shape, ctx.eps * b) / b ** shape


def q_joint(ctx: BlythContext, mu: np.ndarray, lam: float) -> float:
    """Un-normed prior density Gamma(m/2) (1+kappa)^{p/2} lambda^{-1}
    e^{-lambda kappa ||mu||^2 / 2} {lambda > eps}.

    At kappa = 0 this is the sigma-finite limit, independent of mu.
    """
    if lam <= ctx.eps:
        return 0.0
    mu = np.asarray(mu, dtype=float)
    return (
        math.exp(log_gamma(0.5 * ctx.m))
        * (1.0 + ctx.kappa) ** (0.5 * ctx.p)
        / lam
        * math.exp(-0.5 * lam * ctx.kappa * float(np.sum(mu ** 2)))
    )


def q_obs(ctx: BlythContext, obs: Observation) -> float:
    """Un-normed observable density s^{m/2-1} (2 beta_kappa)^{-m/2}
    Gamma(m/2, eps beta_kappa); valid for kappa >= 0."""
    bk = beta_kappa(obs, ctx.kappa)
    return (
        obs.s ** (0.5 * ctx.m - 1.0)
        * (2.0 * bk) ** (-0.5 * ctx.m)
        * upper_incomplete_gamma(0.5 * ctx.m, ctx.eps * bk)
    )


def likelihood(x: np.ndarray, s: float, mu: np.ndarray, lam: float, m: int) -> float:
    """Density of (x, s) given (mu, lambda): Gaussian times scaled chi-square.

    (lambda/(2 pi))^{p/2} e^{-lambda ||x-mu||^2/2}
    * lambda^{m/2} s^{m/2-1} e^{-lambda s/2} / (2^{m/2} Gamma(m/2)).
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if not (s > 0 and lam > 0):
        raise ValueError("s and lambda must be positive")
    p = x.size
    d2 = float(np.sum((x - mu) ** 2))
    return (
        (lam / (2.0 * math.pi)) ** (0.5 * p)
        * math.exp(-0.5 * lam * d2)
        * lam ** (0.5 * m)
        * s ** (0.5 * m - 1.0)
        * math.exp(-0.5 * lam * s)
        / (2.0 ** (0.5 * m) * math.exp(log_gamma(0.5 * m)))
    )


def sample_obs_given(
    point: LocationScale, p: int, m: int, rng: np.random.Generator
) -> Observation:
    """Draw (x, s) from the model at a parameter point."""
    if point.mu.size != p:
        raise ValueError("dimension mismatch")
    x = point.mu + rng.standard_normal(p) / math.sqrt(point.lam)
    s = rng.chisquare(m) / point.lam
    return Observation(x=x, s=s)
