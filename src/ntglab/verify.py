"""Identity checks pairing closed-form values with independent oracles.

Each ``check_*`` returns report rows with the fields check_name, expected,
observed, error and pass, ready for the CLI's JSON report.  Quadrature and
Monte Carlo act as the oracles; the closed forms under test never feed
their own verification.  Every quadrature is ``numint.gauss_legendre``.
Conjugacy and the prior's normalisation share one (mu, lambda) quadrature
at p = 1, a tensor product of the rule on the unit square over which the
densities broadcast.  The weighted Gamma(g, t+||z||^2) integral and its
small-delta cone limit, which is the same integral on a cone, go through
one cone integral: a radial times an angular 1-D quadrature in the
parameterization ``t = r^2 cos^2(theta)``, ``||z|| = r sin(theta)``; each
round of the radial rule takes one array Gamma call.  The moment of the
scale statistic is estimated by Monte Carlo, in ``lemma_smoments_check``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import blyth, ntg
from .blyth import BlythContext, Observation
from .numint import EstimateWithError, gauss_legendre, mc_estimate
from .risk import sphere_area
from .specfun import Tolerance, log_gamma, upper_incomplete_gamma_array

__all__ = ["lemma_smoments_check", "run_all"]

_QTOL = Tolerance(rel=1e-9, abs=1e-12)  # the (mu, lambda) oracle's
_LEMMA_TOL = Tolerance(rel=1e-10, abs=1e-12)  # the lemmas' radial and angular integrals
_MU_WINDOW = 12.0  # the oracle's half-width in mu, in standard deviations 1/sqrt(kappa0 lambda)
_RADIAL_END = 7.0  # where the radial integral stops; its tail is bounded in closed form
# The integrands' relative rounding, which a rule's two sums share, with a
# margin of about 3 over 30-digit mpmath: the lemmas' Gamma(g, x) arrays were
# within 22 ulps on (0, 49], and likelihood * prior within 91 ulps at 900
# random points of three check_conjugacy pairs.
_LEMMA_ROUNDING, _ORACLE_ROUNDING = 64.0 * np.finfo(float).eps, 256.0 * np.finfo(float).eps
_CONJUGACY_PAIRS = 2  # (prior, observation) pairs of check_conjugacy
# The checks' pass thresholds: relative errors, except the prior's absolute
# deviation of its mass from one.
_CONJUGACY_RTOL, _NORMALIZATION_TOL, _Q_RTOL = 1e-5, 1e-6, 1e-10
_BIGINT_RTOL, _LEMMA_D_RTOL = 1e-4, 0.05
_LEMMA_D_DELTA = 1e-3  # the cone's opening, small enough to approach its limit


def _row(name: str, expected: float, observed: float, err: float, ok: bool) -> dict:
    return {
        "check_name": name,
        "expected": expected,
        "observed": observed,
        "error": err,
        "pass": bool(ok),
    }


def _random_params(rng: np.random.Generator) -> ntg.NtGParams:
    # Proper truncated normal-gamma hyper-parameters, p = 1 so the evidence
    # oracle stays a 2-D quadrature.
    return ntg.NtGParams(
        p=1,
        mu0=rng.normal(size=1),
        kappa0=float(rng.uniform(0.5, 2.0)),
        alpha0=float(rng.uniform(0.5, 2.0)),
        beta0=float(rng.uniform(0.5, 2.0)),
        eps0=float(rng.uniform(0.2, 1.0)),
    )


def _mu_lambda_quadrature(params: ntg.NtGParams, center: float, f: Callable) -> EstimateWithError:
    # Integral of f(LocationScale) over (mu, lambda), p = 1, by the rule's
    # tensor product on the unit square (t, v), with lambda = eps0 + t/(1-t),
    # mu = center + h (2v - 1) and h = _MU_WINDOW / sqrt(kappa0 lambda): the
    # n-node rule in t pairs with the n-node rule in v, the 2n with the 2n.
    # The mass outside the window is below erfc(_MU_WINDOW / sqrt 2) relative.
    def integrand(r, w):
        n = r.shape[-1] // 3
        t, wt = r[0], w[0]
        lam = params.eps0 + t / (1.0 - t)
        half = _MU_WINDOW / np.sqrt(params.kappa0 * lam)
        inner = []
        for b in (slice(None, n), slice(n, None)):  # the n-node, then the 2n-node rule
            mu = center + half[b, None] * (2.0 * t[b] - 1.0)
            inner.append(f(ntg.LocationScale(mu=mu[..., None], lam=lam[b, None])) @ wt[b])
        terms = wt * (2.0 * half / (1.0 - t) ** 2) * np.concatenate(inner)
        return terms[None], 0.0, 5 * n * n

    tail = math.erfc(_MU_WINDOW / math.sqrt(2.0))
    return gauss_legendre(integrand, [0.0], [1.0], 1.0, _QTOL, _ORACLE_ROUNDING + tail)


def check_conjugacy(seed: int) -> dict:
    """Posterior density equals likelihood * prior / quadrature evidence."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_CONJUGACY_PAIRS):
        params = _random_params(rng)
        m = int(rng.integers(1, 6))
        x = rng.normal(size=1)
        s = float(rng.uniform(0.5, 3.0))
        updated = ntg.posterior_update(params, x, s, m)

        def joint(point: ntg.LocationScale) -> float:
            return blyth.likelihood(x, s, point.mu, point.lam, m) * ntg.prior_density(params, point)

        center = float((x[0] + params.kappa0 * params.mu0[0]) / (1.0 + params.kappa0))
        evidence = _mu_lambda_quadrature(params, center, joint).value
        for _ in range(10):
            lam = params.eps0 + float(rng.uniform(0.05, 3.0))
            mu = updated.mu0 + rng.normal(size=1) / math.sqrt(updated.kappa0 * lam)
            point = ntg.LocationScale(mu=mu, lam=lam)
            direct = ntg.prior_density(updated, point)
            bayes = joint(point) / evidence
            worst = max(worst, abs(direct / bayes - 1.0))
    return _row("conjugacy_bayes_rule", 0.0, worst, worst, worst <= _CONJUGACY_RTOL)


def check_normalization(seed: int) -> dict:
    """The joint prior density integrates to one (2-D quadrature, p = 1)."""
    rng = np.random.default_rng(seed)
    params = _random_params(rng)
    total = _mu_lambda_quadrature(
        params, float(params.mu0[0]), lambda point: ntg.prior_density(params, point)
    ).value
    err = abs(total - 1.0)
    return _row("prior_normalization", 1.0, total, err, err <= _NORMALIZATION_TOL)


def check_q_identity(seed: int) -> dict:
    """q = K * p pointwise, on both the parameter and the observable side."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kappa in (0.1, 1.0):
        ctx = BlythContext(p=2, m=3, c=2.0, kappa=kappa, eps=float(rng.uniform(0.5, 2.0)))
        params = blyth.prior_params(ctx)
        k_const = blyth.big_K(ctx)
        for _ in range(25):
            lam = ctx.eps + float(rng.uniform(0.01, 5.0))
            mu = rng.normal(size=ctx.p)
            lhs = blyth.q_joint(ctx, mu, lam)
            rhs = k_const * ntg.prior_density(params, ntg.LocationScale(mu=mu, lam=lam))
            worst = max(worst, abs(lhs / rhs - 1.0))
            obs = Observation(x=rng.normal(size=ctx.p) * 2.0, s=float(rng.uniform(0.2, 4.0)))
            lhs = blyth.q_obs(ctx, obs)
            rhs = k_const * ntg.marginal_obs_density(params, ctx.m, obs.x, obs.s)
            worst = max(worst, abs(lhs / rhs - 1.0))
    return _row("q_equals_K_times_p", 0.0, worst, worst, worst <= _Q_RTOL)


def _radial_weighted(p: int, alpha: float, beta: float, gamma_: float) -> EstimateWithError:
    # The radial factor of the weighted integral: the integral over r in
    # (0, inf) of 2 r^k Gamma(gamma_, r^2), on the pieces (0, 1), which
    # isolates the possible algebraic singularity at the origin, and
    # (1, _RADIAL_END).  The factor 2 belongs to the Jacobian 2 r^2 cos(theta)
    # of the (t, rho) -> (r, theta) change of variables, and k combines the
    # powers of r analytically so small-r nodes cannot overflow.  Raises
    # ValueError where the weighted integral diverges.
    denom = alpha + beta - gamma_ + 1.0 + 0.5 * p
    if denom <= 0 or alpha <= -1 or beta + 0.5 * p <= 0:
        raise ValueError("integral diverges: need alpha+beta-gamma+1+p/2 > 0, alpha > -1 and "
                         f"beta > -p/2 (alpha={alpha}, beta={beta}, sum={denom})")
    # The tail beyond R = _RADIAL_END: with X = R^2 and a = denom + gamma, it
    # is int_X^inf x^(denom-1) Gamma(gamma, x) dx <= Gamma(a, X) / denom by
    # parts, and Gamma(a, X) <= X^a e^-X / (X - max(a - 1, 0)) for X > a - 1.
    x_end, a = _RADIAL_END ** 2, denom + gamma_
    if a - 1.0 >= x_end:
        raise ValueError(f"the radial tail bound needs alpha+beta+p/2 < {x_end}, got {a - 1.0}")
    tail = x_end ** a * math.exp(-x_end) / (denom * (x_end - max(a - 1.0, 0.0)))
    k = 2.0 * denom - 1.0

    def integrand(r, w):
        return w * 2.0 * r ** k * upper_incomplete_gamma_array(gamma_, r * r), 0.0, r.size

    est = gauss_legendre(integrand, [0.0, 1.0], [1.0, _RADIAL_END], 1.0, _LEMMA_TOL,
                         _LEMMA_ROUNDING)
    return EstimateWithError(est.value, est.error + tail, est.n_evals, "quadrature")


def _cone(p: int, alpha: float, beta: float, radial: EstimateWithError,
          theta_lo: float) -> EstimateWithError:
    # The weighted integral over the cone theta > theta_lo: |S^{p-1}| times
    # the radial factor times the integral of cos^{2 alpha+1} sin^{2 beta+p-1}
    # over (theta_lo, pi/2).  theta_lo = 0 is the whole (t, z) domain.
    def integrand(th, w):
        return (w * np.cos(th) ** (2.0 * alpha + 1.0) * np.sin(th) ** (2.0 * beta + p - 1.0),
                0.0, th.size)

    angular = gauss_legendre(integrand, [theta_lo], [0.5 * math.pi], 1.0, _LEMMA_TOL,
                             _LEMMA_ROUNDING)
    area = sphere_area(p)
    return EstimateWithError(
        value=area * radial.value * angular.value,
        error=area * (radial.error * abs(angular.value) + abs(radial.value) * angular.error),
        n_evals=radial.n_evals + angular.n_evals,
        method="quadrature",
    )


def _bigint(p: int, alpha: float, beta: float, gamma_: float):
    # Numeric and closed value of the weighted (t, z)-integral.  Numeric
    # side: the integrand t^alpha ||z||^{2 beta} Gamma(gamma, t+||z||^2)
    # / (t+||z||^2)^gamma over (0, inf) x R^p, as the cone integral over the
    # whole domain.  Closed side: pi^{p/2} Gamma(alpha+1) Gamma(beta+p/2)
    # / ((alpha+beta-gamma+1+p/2) Gamma(p/2)).
    radial = _radial_weighted(p, alpha, beta, gamma_)
    numeric = _cone(p, alpha, beta, radial, 0.0)
    closed = (
        math.pi ** (0.5 * p)
        / (alpha + beta - gamma_ + 1.0 + 0.5 * p)
        * math.exp(log_gamma(alpha + 1.0) + log_gamma(beta + 0.5 * p) - log_gamma(0.5 * p))
    )
    return numeric, closed


def check_lemma_bigint() -> list[dict]:
    rows = []
    for tup in ((1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3)):
        numeric, closed = _bigint(*tup)
        err = abs(numeric.value / closed - 1.0)
        rows.append(_row(f"lemma_bigint{tup}", closed, numeric.value, err, err <= _BIGINT_RTOL))
    return rows


def _lemma_d_radial(p: int, gamma_: float) -> EstimateWithError:
    # The radial factor of _lemma_d_row's cone integral.  Its power of r is
    # exactly 1, so it depends on gamma alone and check_lemma_d shares it
    # between dimensions.  It diverges, and ValueError is raised, unless
    # alpha = gamma - p/2 > -1, that is gamma > (p-2)/2.
    return _radial_weighted(p, gamma_ - 0.5 * p, 0.0, gamma_)


def _lemma_d_row(p: int, gamma_: float, delta: float, radial: EstimateWithError) -> tuple:
    # (ratio, limit): delta^{(p-2)/2 - gamma} times the integral of
    # t^{gamma - p/2} Gamma(gamma, t+||z||^2) / (t+||z||^2)^gamma over the
    # region ||z||^2 delta > t, which is _bigint's integral at
    # alpha = gamma - p/2, beta = 0 on the cone theta > arctan(1/sqrt(delta)),
    # and its delta -> 0 limit
    # 2 pi^{p/2} Gamma(gamma+1) / ((2 gamma + 2 - p) Gamma(p/2)).
    cone = _cone(p, gamma_ - 0.5 * p, 0.0, radial, math.atan(1.0 / math.sqrt(delta)))
    limit = (
        2.0
        * math.pi ** (0.5 * p)
        / (2.0 * gamma_ + 2.0 - p)
        * math.exp(log_gamma(gamma_ + 1.0) - log_gamma(0.5 * p))
    )
    return delta ** (0.5 * (p - 2.0) - gamma_) * cone.value, limit


def check_lemma_d() -> list[dict]:
    radial = {}
    rows = []
    for p, g in ((1, 1.0), (2, 1.0), (2, 2.0)):
        if g not in radial:
            radial[g] = _lemma_d_radial(p, g)
        ratio, limit = _lemma_d_row(p, g, _LEMMA_D_DELTA, radial[g])
        err = abs(ratio / limit - 1.0)
        rows.append(_row(f"lemma_d(p={p},gamma={g})", limit, ratio, err, err <= _LEMMA_D_RTOL))
    return rows


def lemma_smoments_check(
    p: int,
    m: int,
    eps: float,
    n: int = 10 ** 6,
    seed: int = 0,
):
    """MC estimate of E[s^{p/2}] under the hierarchical prior vs. closed form.

    The prior draws the precision from the Pareto-type marginal
    ``lambda = eps * U^{-2/p}`` and then ``s | lambda ~ chi^2_m / lambda``;
    the scale statistic depends neither on the location draw, which is
    therefore skipped, nor on kappa, which scales only that draw.  The
    closed value is ``(1/2) (eps/2)^{-p/2} Gamma((m+p)/2) / Gamma(p/2)``.
    Each chunk draws into the workspace ``mc_estimate`` passes the sampler.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def sampler(rng: np.random.Generator, size: int, ws) -> np.ndarray:
        # In place in the chunk's workspace rows, operation for operation
        # eps * u ** (-2/p) and (chisquare(m) / lambda) ** (p/2).
        lam = rng.random(out=ws.row("c", size))
        lam **= -2.0 / p
        lam *= eps
        s = rng.standard_gamma(0.5 * m, out=ws.row("d", size))
        s *= 2.0  # chi^2_m as numpy's chisquare forms it
        s /= lam
        s **= 0.5 * p
        return s

    mc = mc_estimate(sampler, n, seed)
    closed = (
        0.5
        * (0.5 * eps) ** (-0.5 * p)
        * math.exp(log_gamma(0.5 * (m + p)) - log_gamma(0.5 * p))
    )
    return mc, closed


def check_lemma_smoments(seed: int, n: int) -> dict:
    mc, closed = lemma_smoments_check(2, 2, eps=1.0, n=n, seed=seed)
    if mc.error > 0 and math.isfinite(mc.error):
        z = abs(mc.value - closed) / mc.error
    else:
        z = math.inf  # no usable standard error: fail
    return _row("lemma_smoments", closed, mc.value, mc.error, z <= 4.0)


def run_all(seed: int, mc_n: int) -> list[dict]:
    """All identity checks, in a fixed order for reproducible reports."""
    checks = [
        check_conjugacy(seed),
        check_normalization(seed + 1),
        check_q_identity(seed + 2),
    ]
    checks.extend(check_lemma_bigint())
    checks.extend(check_lemma_d())
    checks.append(check_lemma_smoments(seed + 3, mc_n))
    return checks
