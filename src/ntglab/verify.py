"""Identity checks pairing closed-form values with independent oracles.

Each ``check_*`` returns report rows with the fields check_name, expected,
observed, error and pass, ready for the CLI's JSON report.  Quadrature and
Monte Carlo act as the oracles; the closed forms under test never feed
their own verification.  Conjugacy and the prior's normalisation share one
nested (mu, lambda) quadrature at p = 1.  Each appendix identity is
computed by a ``lemma_*_check`` beside the ``check_*`` that reads it: the
weighted Gamma(g, t+||z||^2) integral and its small-delta cone limit, both
reduced to radial and angular 1-D quadratures by the parameterization
``t = r^2 cos^2(theta)``, ``||z|| = r sin(theta)``, and the moment of the
scale statistic, by Monte Carlo.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import blyth, ntg
from .blyth import BlythContext, Observation
from .numint import EstimateWithError, integrate_1d, mc_estimate
from .specfun import Tolerance, log_gamma, upper_incomplete_gamma

__all__ = ["lemma_bigint_check", "lemma_d_check", "lemma_smoments_check", "run_all"]

_QTOL = Tolerance(rel=1e-9, abs=1e-12, max_iter=200)


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


def _mu_lambda_quadrature(params: ntg.NtGParams, center: float, f: Callable) -> float:
    # Integral of f(LocationScale) over (mu, lambda), p = 1, by nested adaptive
    # quadrature; the mu window about center is generous relative to the
    # smallest admissible precision.
    width = 12.0 / math.sqrt(params.kappa0 * max(params.eps0, 1e-3)) + 5.0

    def inner(lam: float) -> float:
        def g(mu: float) -> float:
            return f(ntg.LocationScale(mu=np.array([mu]), lam=lam))

        return integrate_1d(g, center - width, center + width, _QTOL).value

    return integrate_1d(inner, params.eps0, math.inf, _QTOL).value


def check_conjugacy(seed: int, n_pairs: int = 2, rel_tol: float = 1e-5) -> dict:
    """Posterior density equals likelihood * prior / quadrature evidence."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        params = _random_params(rng)
        m = int(rng.integers(1, 6))
        x = rng.normal(size=1)
        s = float(rng.uniform(0.5, 3.0))
        updated = ntg.posterior_update(params, x, s, m)

        def joint(point: ntg.LocationScale) -> float:
            return blyth.likelihood(x, s, point.mu, point.lam, m) * ntg.prior_density(params, point)

        center = float((x[0] + params.kappa0 * params.mu0[0]) / (1.0 + params.kappa0))
        evidence = _mu_lambda_quadrature(params, center, joint)
        for _ in range(10):
            lam = params.eps0 + float(rng.uniform(0.05, 3.0))
            mu = updated.mu0 + rng.normal(size=1) / math.sqrt(updated.kappa0 * lam)
            point = ntg.LocationScale(mu=mu, lam=lam)
            direct = ntg.prior_density(updated, point)
            bayes = joint(point) / evidence
            worst = max(worst, abs(direct / bayes - 1.0))
    return _row("conjugacy_bayes_rule", 0.0, worst, worst, worst <= rel_tol)


def check_normalization(seed: int, tol: float = 1e-6) -> dict:
    """The joint prior density integrates to one (2-D quadrature, p = 1)."""
    rng = np.random.default_rng(seed)
    params = _random_params(rng)
    total = _mu_lambda_quadrature(
        params, float(params.mu0[0]), lambda point: ntg.prior_density(params, point)
    )
    err = abs(total - 1.0)
    return _row("prior_normalization", 1.0, total, err, err <= tol)


def check_q_identity(seed: int, rel_tol: float = 1e-10) -> dict:
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
    return _row("q_equals_K_times_p", 0.0, worst, worst, worst <= rel_tol)


def _sphere_area(p: int) -> float:
    # Surface area of the unit sphere in R^p (2 points for p = 1).
    return 2.0 * math.pi ** (0.5 * p) / math.exp(log_gamma(0.5 * p))


def _radial_weighted(upper_gamma: Callable[[float], float], r_pow: float) -> EstimateWithError:
    # integral over r in (0, inf) of 2 r^r_pow * Gamma(g, r^2), with
    # upper_gamma(x) = Gamma(g, x), split at 1 to isolate the possible
    # algebraic singularity at the origin.  The factor 2 belongs to the
    # Jacobian 2 r^2 cos(theta) of the (t, rho) -> (r, theta) change of
    # variables.
    def f(r: float) -> float:
        return 2.0 * r ** r_pow * upper_gamma(r * r)

    lo = integrate_1d(f, 0.0, 1.0)
    hi = integrate_1d(f, 1.0, math.inf)
    return EstimateWithError(
        value=lo.value + hi.value,
        error=lo.error + hi.error,
        n_evals=lo.n_evals + hi.n_evals,
        method="quadrature",
    )


def lemma_bigint_check(p: int, alpha: float, beta: float, gamma_: float, upper_gamma=None):
    """Numeric vs. closed-form value of the weighted (t, z)-integral.

    Numeric side: the integrand ``t^alpha ||z||^{2 beta}
    Gamma(gamma, t+||z||^2) / (t+||z||^2)^gamma`` over (0, inf) x R^p,
    reduced to a radial and an angular 1-D quadrature via the quadratic
    spherical parameterization (t = r^2 cos^2 th, ||z|| = r sin th).

    Closed side: ``pi^{p/2} Gamma(alpha+1) Gamma(beta+p/2)
    / ((alpha+beta-gamma+1+p/2) Gamma(p/2))``.

    ``upper_gamma(x)``, when given, returns Gamma(gamma_, x): checks of one
    shape pass one memo and so share its values.

    Returns (numeric: EstimateWithError, closed: float).
    """
    if upper_gamma is None:
        upper_gamma = functools.partial(upper_incomplete_gamma, gamma_)
    denom = alpha + beta - gamma_ + 1.0 + 0.5 * p
    if denom <= 0 or alpha + beta + 1.0 + 0.5 * p <= 0:
        raise ValueError(
            "integral diverges: need alpha+beta-gamma+1+p/2 > 0 and "
            f"alpha+beta+1+p/2 > 0 (got {denom} and "
            f"{alpha + beta + 1.0 + 0.5 * p})"
        )
    if alpha <= -1 or beta + 0.5 * p <= 0:
        raise ValueError("integral diverges: need alpha > -1 and beta > -p/2")

    # In (r, theta) the integrand factorizes; the powers of r are combined
    # analytically so small-r probes cannot overflow.
    r_pow = 2.0 * alpha + 2.0 * beta - 2.0 * gamma_ + p + 1.0
    radial = _radial_weighted(upper_gamma, r_pow)

    def ang(th: float) -> float:
        return (
            math.cos(th) ** (2.0 * alpha + 1.0)
            * math.sin(th) ** (2.0 * beta + p - 1.0)
        )

    angular = integrate_1d(ang, 0.0, 0.5 * math.pi)
    area = _sphere_area(p)
    value = area * radial.value * angular.value
    err = area * (
        radial.error * abs(angular.value) + abs(radial.value) * angular.error
    )
    numeric = EstimateWithError(
        value=value,
        error=err,
        n_evals=radial.n_evals + angular.n_evals,
        method="quadrature",
    )
    closed = (
        math.pi ** (0.5 * p)
        / denom
        * math.exp(log_gamma(alpha + 1.0) + log_gamma(beta + 0.5 * p) - log_gamma(0.5 * p))
    )
    return numeric, closed


def check_lemma_bigint(rel_tol: float = 1e-4) -> list[dict]:
    # (2, 1, 1, 3) and (3, 1, 0, 3) integrate Gamma(3, r^2) against
    # different powers of r, but their quadratures share many nodes: one
    # memo per shape evaluates each Gamma(gamma, r^2) once.
    memos = {}
    rows = []
    for tup in ((1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3)):
        g = tup[3]
        if g not in memos:
            memos[g] = functools.cache(functools.partial(upper_incomplete_gamma, g))
        numeric, closed = lemma_bigint_check(*tup, upper_gamma=memos[g])
        err = abs(numeric.value / closed - 1.0)
        rows.append(_row(f"lemma_bigint{tup}", closed, numeric.value, err, err <= rel_tol))
    return rows


def lemma_d_check(
    p: int,
    gamma_: float,
    delta_grid: Sequence[float] = (1e-1, 1e-2, 1e-3),
):
    """Convergence of the cone-restricted integral to its closed-form limit.

    For each delta computes ``delta^{(p-2)/2 - gamma}`` times the integral of
    ``t^{gamma - p/2} Gamma(gamma, t+||z||^2)/(t+||z||^2)^gamma`` over the
    region ``||z||^2 delta > t``, and pairs it with the limit
    ``2 pi^{p/2} Gamma(gamma+1) / ((2 gamma + 2 - p) Gamma(p/2))``.

    Returns a list of (delta, ratio, limit) rows.
    """
    if gamma_ <= 0.5 * (p - 2):
        raise ValueError(f"need gamma > (p-2)/2, got gamma={gamma_}, p={p}")
    deltas = list(delta_grid)
    if any(d <= 0 for d in deltas) or any(
        deltas[i] <= deltas[i + 1] for i in range(len(deltas) - 1)
    ):
        raise ValueError("delta grid must be positive and strictly decreasing")

    # Combined power of r in the (r, theta) parameterization is exactly 1.
    radial = _radial_weighted(functools.partial(upper_incomplete_gamma, gamma_), 1.0)
    return _lemma_d_rows(p, gamma_, deltas, radial)


def _lemma_d_rows(p: int, gamma_: float, deltas, radial: EstimateWithError) -> list:
    # lemma_d_check's rows from its radial integral, which depends on gamma
    # alone: check_lemma_d shares it between dimensions.
    area = _sphere_area(p)
    limit = (
        2.0
        * math.pi ** (0.5 * p)
        / (2.0 * gamma_ + 2.0 - p)
        * math.exp(log_gamma(gamma_ + 1.0) - log_gamma(0.5 * p))
    )

    rows = []
    for delta in deltas:
        # The cone ||z||^2 delta > t becomes theta > arctan(1/sqrt(delta)).
        th_star = math.atan(1.0 / math.sqrt(delta))

        def ang(th: float) -> float:
            return (
                math.sin(th) ** (p - 1.0)
                * math.cos(th) ** (2.0 * gamma_ + 1.0 - p)
            )

        angular = integrate_1d(ang, th_star, 0.5 * math.pi)
        value = area * radial.value * angular.value
        ratio = delta ** (0.5 * (p - 2.0) - gamma_) * value
        rows.append((delta, ratio, limit))
    return rows


def check_lemma_d(rel_tol: float = 0.05) -> list[dict]:
    cases = ((1, 1.0), (2, 1.0), (2, 2.0))
    radial = {g: _radial_weighted(functools.partial(upper_incomplete_gamma, g), 1.0)
              for g in {g for _, g in cases}}
    rows = []
    for p, g in cases:
        table = _lemma_d_rows(p, g, [1e-1, 1e-2, 1e-3], radial[g])
        delta, ratio, limit = table[-1]
        err = abs(ratio / limit - 1.0)
        rows.append(_row(f"lemma_d(p={p},gamma={g})", limit, ratio, err, err <= rel_tol))
    return rows


def lemma_smoments_check(
    p: int,
    m: int,
    kappa: float,
    eps: float,
    n: int = 10 ** 6,
    seed: int = 0,
):
    """MC estimate of E[s^{p/2}] under the hierarchical prior vs. closed form.

    The prior draws the precision from the Pareto-type marginal
    ``lambda = eps * U^{-2/p}`` and then ``s | lambda ~ chi^2_m / lambda``;
    the scale statistic does not depend on the location draw, which is
    therefore skipped.  The closed value
    ``(1/2) (eps/2)^{-p/2} Gamma((m+p)/2) / Gamma(p/2)`` is kappa-free.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        lam = eps * u ** (-2.0 / p)
        s = rng.chisquare(m, size) / lam
        return s ** (0.5 * p)

    mc = mc_estimate(sampler, n, seed)
    closed = (
        0.5
        * (0.5 * eps) ** (-0.5 * p)
        * math.exp(log_gamma(0.5 * (m + p)) - log_gamma(0.5 * p))
    )
    return mc, closed


def check_lemma_smoments(seed: int, n: int) -> dict:
    mc, closed = lemma_smoments_check(2, 2, kappa=0.5, eps=1.0, n=n, seed=seed)
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
