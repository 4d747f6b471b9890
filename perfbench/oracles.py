"""Independent reference values for checking ntglab's outputs.

Everything here is built on scipy's special functions and quadrature, in
log space, and never calls ntglab, so a defect in ntglab's own special
functions cannot hide in its check.  Notation follows ``ntglab.blyth``:
``bk = (s + kappa/(1+kappa) ||x||^2) / 2`` and ``eps`` truncates the
precision from below.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def log_upper_gamma(a: float, x: float) -> float:
    """ln Gamma(a, x) for a > 0, x > 0."""
    return math.log(special.gammaincc(a, x)) + special.gammaln(a)


def beta_kappa(x, s: float, kappa: float) -> float:
    return 0.5 * (s + kappa / (1.0 + kappa) * float(np.sum(np.square(x))))


def log_mu_posterior(p, m, kappa, eps, bk, t2) -> float:
    """ln of the posterior density of mu at squared distance t2 from the
    shrunk centre."""
    k1 = 1.0 + kappa
    a = 0.5 * (m + p)
    b = bk + 0.5 * k1 * t2
    return (0.5 * p * math.log(k1 / (2.0 * math.pi)) + 0.5 * m * math.log(bk)
            - log_upper_gamma(0.5 * m, eps * bk)
            + log_upper_gamma(a, eps * b) - a * math.log(b))


def log_lambda_posterior(m, eps, bk, lam) -> float:
    return (0.5 * m * math.log(bk) - log_upper_gamma(0.5 * m, eps * bk)
            + (0.5 * m - 1.0) * math.log(lam) - lam * bk)


def log_q_obs(m, eps, bk, s) -> float:
    return ((0.5 * m - 1.0) * math.log(s) - 0.5 * m * math.log(2.0 * bk)
            + log_upper_gamma(0.5 * m, eps * bk))


def log_marginal_obs(p, m, kappa, eps, bk, s) -> float:
    """ln marginal density of (x, s) under the NtG(p, 0, kappa, -p/2, 0, eps)
    prior, whose normalising constant is (2 pi)^{-p/2} (p/2) eps^{p/2}."""
    log_c = -0.5 * p * math.log(2.0 * math.pi) + math.log(0.5 * p) + 0.5 * p * math.log(eps)
    return (log_c - 0.5 * m * math.log(2.0) - special.gammaln(0.5 * m)
            + 0.5 * p * math.log(kappa / (1.0 + kappa))
            + (0.5 * m - 1.0) * math.log(s)
            + log_upper_gamma(0.5 * m, eps * bk) - 0.5 * m * math.log(bk))


def truncated_gamma_isf(alpha: float, beta: float, eps: float, u: float) -> float:
    """t > eps with P(lambda > t) = u for lambda ~ Gamma(alpha, rate beta)
    truncated to (eps, inf)."""
    return special.gammainccinv(alpha, u * special.gammaincc(alpha, beta * eps)) / beta


def f_cdf(p: int, m: int, t: float) -> float:
    return float(special.fdtr(p, m, t))


def risk_difference(p: int, m: int, c: float, kappa: float) -> float:
    """F(c(1+kappa)/p) - F(c/p) for F the F(p, m) distribution function."""
    return f_cdf(p, m, c * (1.0 + kappa) / p) - f_cdf(p, m, c / p)


def big_K(p: int, m: int, eps: float, kappa: float) -> float:
    """(2/p) Gamma(m/2) ((2 pi / eps)(1+kappa)/kappa)^(p/2)."""
    return math.exp(math.log(2.0 / p) + special.gammaln(0.5 * m)
                    + 0.5 * p * math.log(2.0 * math.pi / eps * (1.0 + kappa) / kappa))


def f_quantile(p: int, m: int, q: float) -> float:
    return float(special.fdtri(p, m, q))


def ball_posterior_risk(p, m, c, kappa, eps, x, s) -> float:
    """Posterior risk of the ball of squared radius c s/m centred at
    x/(1+kappa).

    The lambda-integral of the conditional Gaussian of mu is the posterior
    density of mu, so the risk is that density on the boundary times the
    ball's volume minus the ball's posterior mass (a radial quadrature).
    """
    bk = beta_kappa(x, s, kappa)
    r2 = c * s / m
    vol = math.exp(0.5 * p * math.log(math.pi * r2) - special.gammaln(0.5 * p + 1.0))
    area = 2.0 * math.pi ** (0.5 * p) / math.gamma(0.5 * p)

    def shell(r):
        return area * r ** (p - 1) * math.exp(log_mu_posterior(p, m, kappa, eps, bk, r * r))

    mass = integrate.quad(shell, 0.0, math.sqrt(r2), epsabs=1e-13, epsrel=1e-11)[0]
    return math.exp(log_mu_posterior(p, m, kappa, eps, bk, r2)) * vol - mass
