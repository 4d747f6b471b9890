"""The specific hierarchical experiment behind the risk comparison.

Places the NtG(p, 0, kappa, -p/2, 0, eps) prior on (mu, lambda) and observes
``x | (mu, lambda) ~ N(mu, I_p/lambda)`` and ``s | lambda ~ chi^2_m / lambda``.
Everything here is available in closed form:

* the shrunk center ``mu_kappa = x / (1 + kappa)`` and the scale statistic
  ``beta_kappa = (s + kappa/(1+kappa) ||x||^2) / 2``,
* the posterior of (mu, lambda) given (x, s), itself
  NtG(p, mu_kappa, 1 + kappa, m/2, beta_kappa, eps), and its marginals of
  lambda and mu, which ``ntg`` evaluates,
* the un-normed (improper) prior ``q = K * p`` whose kappa -> 0 limit is
  sigma-finite, together with its observable-side counterpart.

kappa = 0 is allowed everywhere except in the diverging constant K.

A grid of density values for one observation builds the posterior once
(``posterior``'s memo) and its normaliser's Gamma once (``ntg``'s memo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ntg
from .ntg import NtGParams, _freeze_vector
from .specfun import log_gamma, upper_incomplete_gamma

__all__ = [
    "Observation",
    "BlythContext",
    "mu_kappa",
    "beta_kappa",
    "big_K",
    "lambda_posterior_density",
    "mu_posterior_density",
    "posterior",
    "q_joint",
    "q_obs",
    "likelihood",
    "prior_params",
]


@dataclass(frozen=True)
class Observation:
    """The sufficient pair (x, s) of the location-scale model."""

    x: np.ndarray
    s: float

    def __post_init__(self) -> None:
        _freeze_vector(self, "x")
        if not self.s > 0:
            raise ValueError(f"s must be positive, got {self.s}")


@dataclass(frozen=True)
class BlythContext:
    """Experiment configuration: dimension p, scale dof m, ball constant c,
    shrinkage kappa >= 0 (0 selects the improper limit), truncation eps > 0;
    c, kappa and eps are finite."""

    p: int
    m: int
    c: float
    kappa: float
    eps: float

    def __post_init__(self) -> None:
        if self.p < 1 or self.m < 1:
            raise ValueError("p and m must be >= 1")
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


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
    callers use the q-densities directly in the limit.  Raises OverflowError
    where K leaves the double range.
    """
    if ctx.kappa <= 0:
        raise ValueError("K diverges at kappa = 0")
    k = (
        2.0
        / ctx.p
        * math.exp(log_gamma(0.5 * ctx.m))
        * (2.0 * math.pi / ctx.eps * (1.0 + ctx.kappa) / ctx.kappa) ** (0.5 * ctx.p)
    )
    if not math.isfinite(k):
        raise OverflowError(f"K = {k} at p={ctx.p}, m={ctx.m}, eps={ctx.eps}, kappa={ctx.kappa}")
    return k


def _as_mu(mu, p: int) -> np.ndarray:
    # mu as a float vector of the model's dimension p; rejects any other
    # shape rather than broadcasting it.
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (p,):
        raise ValueError(f"mu must have shape ({p},), got {mu.shape}")
    return mu


# (key, posterior) of the last observation; see ``posterior``.
_posterior_memo: list = [None, None]


def posterior(ctx: BlythContext, obs: Observation) -> NtGParams:
    """The posterior NtG(p, mu_kappa, 1 + kappa, m/2, beta_kappa, eps) of
    (mu, lambda) given (x, s): proper for every kappa >= 0, and for kappa > 0
    ``ntg.posterior_update`` of the prior.  Memoised for the last (ctx, s, x).
    """
    key = (ctx, obs.s, obs.x.tobytes())
    if _posterior_memo[0] != key:
        _posterior_memo[:] = key, NtGParams(
            p=ctx.p, mu0=mu_kappa(obs.x, ctx.kappa), kappa0=1.0 + ctx.kappa,
            alpha0=0.5 * ctx.m, beta0=beta_kappa(obs, ctx.kappa), eps0=ctx.eps,
        )
    return _posterior_memo[1]


def lambda_posterior_density(ctx: BlythContext, obs: Observation, lam: float) -> float:
    """Posterior marginal of lambda given (x, s), that of ``posterior``:
    beta_kappa^{m/2} / Gamma(m/2, eps beta_kappa) lambda^{m/2-1}
    e^{-lambda beta_kappa} above eps, zero at and below it."""
    return ntg.marginal_lambda_density(posterior(ctx, obs), lam)


def mu_posterior_density(ctx: BlythContext, obs: Observation, mu: np.ndarray) -> float:
    """Posterior marginal of mu given (x, s), that of ``posterior``: radial
    about mu_kappa, see ``ntg.marginal_mu_density``."""
    return ntg.marginal_mu_density(posterior(ctx, obs), mu)


def q_joint(ctx: BlythContext, mu: np.ndarray, lam: float) -> float:
    """Un-normed prior density Gamma(m/2) (1+kappa)^{p/2} lambda^{-1}
    e^{-lambda kappa ||mu||^2 / 2} {lambda > eps}.

    At kappa = 0 this is the sigma-finite limit, independent of mu.
    """
    mu = _as_mu(mu, ctx.p)
    if lam <= ctx.eps:
        return 0.0
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


def likelihood(x: np.ndarray, s: float, mu: np.ndarray, lam: float, m: int):
    """Density of (x, s) given (mu, lambda): Gaussian times scaled chi-square.

    (lambda/(2 pi))^{p/2} e^{-lambda ||x-mu||^2/2}
    * lambda^{m/2} s^{m/2-1} e^{-lambda s/2} / (2^{m/2} Gamma(m/2)).
    Broadcasts over a stack of means mu (..., p) and precisions lambda; a
    single (mu, lambda) gives a float.
    """
    x = np.asarray(x, dtype=float)
    p = x.size
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1:] != (p,):
        raise ValueError(f"mu must have shape (..., {p}), got {mu.shape}")
    if not (s > 0 and np.asarray(lam > 0).all()):
        raise ValueError("s and lambda must be positive")
    d2 = ((x - mu) ** 2).sum(axis=-1)
    dens = (
        (lam / (2.0 * math.pi)) ** (0.5 * p)
        * np.exp(-0.5 * lam * d2)
        * lam ** (0.5 * m)
        * s ** (0.5 * m - 1.0)
        * np.exp(-0.5 * lam * s)
        / (2.0 ** (0.5 * m) * math.exp(log_gamma(0.5 * m)))
    )
    return dens if dens.ndim else float(dens)
