"""Oracles that several test modules share.

* ``phi0`` and ``inclusion``: the standard procedure, the ball of squared
  radius c s / m about x, and the weight with which a procedure includes mu;
* ``r_kappa``: the conditional density of mu given (x, s, lambda), as a
  function of the squared distance from x / (1 + kappa);
* ``joint_quadrature``: nested scipy quadrature over (mu, lambda) against an
  NtG prior at p = 1;
* ``lemma_bigint_check`` and ``lemma_d_check``: the appendix identities
  that ``ntglab verify`` reports, as callable tables built from its cone
  integral.
"""

import math

import numpy as np
from scipy import integrate

from ntglab import ntg, verify
from ntglab.risk import Procedure

LEMMA_D_DELTAS = (1e-1, 1e-2, 1e-3)  # decreasing towards the cone's limit


def phi0(ctx):
    """The standard procedure: one ball of squared radius c*s/m centered at x."""
    cm = ctx.c / ctx.m

    def balls(x, s):
        centre = np.asarray(x, dtype=float)
        return np.ones(1), centre[..., None, :], (cm * np.asarray(s, dtype=float))[..., None]

    return Procedure(balls=balls, label="phi0")


def inclusion(proc, x, s, mu):
    """Inclusion weight of mu in proc's set at (x, s), over batches like
    those of ``proc.balls``."""
    weights, centres, radii2 = proc.balls(x, s)
    mu = np.asarray(mu, dtype=float)[..., None, :]
    return np.sum(weights * (np.sum((mu - centres) ** 2, axis=-1) < radii2), axis=-1)


def r_kappa(t, lam, ctx):
    """The N(mu_kappa, I_p/((1+kappa) lambda)) density at squared distance t:
    ((1+kappa) lambda / (2 pi))^{p/2} exp(-(1+kappa) lambda t / 2),
    elementwise over t and lambda as numpy broadcasts them."""
    t, lam = np.asarray(t, dtype=float), np.asarray(lam, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"squared distance must be nonnegative, got {t}")
    if not np.all(lam > 0):
        raise ValueError(f"precision must be positive, got {lam}")
    k1 = 1.0 + ctx.kappa
    return (k1 * lam / (2.0 * math.pi)) ** (0.5 * ctx.p) * np.exp(-0.5 * k1 * lam * t)


def joint_quadrature(params, tol, f=None):
    """Integral of f(mu, lambda) times the prior density of params over
    (mu, lambda), p = 1, by nested scipy quadrature at tol; f = None
    integrates the density alone."""
    width = 12.0 / math.sqrt(params.kappa0 * max(params.eps0, 1e-3)) + 5.0
    c0 = float(params.mu0[0])
    opts = dict(epsabs=tol.abs, epsrel=tol.rel, limit=max(tol.max_iter, 50))

    def inner(lam):
        def g(mu):
            w = ntg.prior_density(params, ntg.LocationScale(mu=np.array([mu]), lam=lam))
            return w if f is None else w * f(mu, lam)

        # At large lambda the mu-slice is a very narrow Gaussian around mu0;
        # splitting the panel there keeps the adaptive rule from missing it.
        return integrate.quad(g, c0 - width, c0 + width, points=[c0], **opts)[0]

    return integrate.quad(inner, params.eps0, math.inf, **opts)[0]


def lemma_bigint_check(p, alpha, beta, gamma_):
    """Numeric (an EstimateWithError) and closed value of the weighted
    (t, z)-integral of ``t^alpha ||z||^{2 beta} Gamma(gamma, t+||z||^2)
    / (t+||z||^2)^gamma`` over (0, inf) x R^p; ValueError where it
    diverges."""
    return verify._bigint(p, alpha, beta, gamma_)


def lemma_d_check(p, gamma_):
    """Rows (delta, ratio, limit), one per delta in ``LEMMA_D_DELTAS``, of
    the cone-restricted integral's approach to its closed-form limit;
    ValueError unless gamma > (p-2)/2."""
    radial = verify._lemma_d_radial(p, gamma_)
    return [(delta, *verify._lemma_d_row(p, gamma_, delta, radial)) for delta in LEMMA_D_DELTAS]
