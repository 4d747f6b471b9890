"""Identity checks pairing closed-form values with independent oracles.

Each check returns a dict with the fields check_name, expected, observed,
error and pass, ready for the CLI's JSON report.  Quadrature and Monte
Carlo act as the oracles; the closed forms under test never feed their own
verification.
"""

from __future__ import annotations

import math

import numpy as np

from . import blyth, ntg
from .blyth import BlythContext, Observation
from .numint import (
    integrate_1d,
    lemma_bigint_check,
    lemma_d_check,
    lemma_smoments_check,
)
from .specfun import Tolerance

__all__ = ["run_all"]

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


def _evidence_quadrature(params: ntg.NtGParams, x: np.ndarray, s: float, m: int) -> float:
    # Joint integral of likelihood * prior over (mu, lambda) by nested
    # adaptive quadrature; the mu window is generous relative to the
    # smallest admissible precision.
    width = 12.0 / math.sqrt(params.kappa0 * max(params.eps0, 1e-3)) + 5.0
    center = float((x[0] + params.kappa0 * params.mu0[0]) / (1.0 + params.kappa0))

    def inner(lam: float) -> float:
        def f(mu: float) -> float:
            point = ntg.LocationScale(mu=np.array([mu]), lam=lam)
            return blyth.likelihood(x, s, point.mu, lam, m) * ntg.prior_density(
                params, point
            )

        return integrate_1d(f, center - width, center + width, _QTOL).value

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
        evidence = _evidence_quadrature(params, x, s, m)
        for _ in range(10):
            lam = params.eps0 + float(rng.uniform(0.05, 3.0))
            mu = updated.mu0 + rng.normal(size=1) / math.sqrt(updated.kappa0 * lam)
            point = ntg.LocationScale(mu=mu, lam=lam)
            direct = ntg.prior_density(updated, point)
            bayes = (
                blyth.likelihood(x, s, point.mu, lam, m)
                * ntg.prior_density(params, point)
                / evidence
            )
            worst = max(worst, abs(direct / bayes - 1.0))
    return _row("conjugacy_bayes_rule", 0.0, worst, worst, worst <= rel_tol)


def check_normalization(seed: int, tol: float = 1e-6) -> dict:
    """The joint prior density integrates to one (2-D quadrature, p = 1)."""
    rng = np.random.default_rng(seed)
    params = _random_params(rng)
    width = 12.0 / math.sqrt(params.kappa0 * max(params.eps0, 1e-3)) + 5.0
    c0 = float(params.mu0[0])

    def inner(lam: float) -> float:
        def f(mu: float) -> float:
            return ntg.prior_density(params, ntg.LocationScale(mu=np.array([mu]), lam=lam))

        return integrate_1d(f, c0 - width, c0 + width, _QTOL).value

    total = integrate_1d(inner, params.eps0, math.inf, _QTOL).value
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


def check_lemma_bigint(rel_tol: float = 1e-4) -> list[dict]:
    rows = []
    for tup in ((1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3)):
        numeric, closed = lemma_bigint_check(*tup)
        err = abs(numeric.value / closed - 1.0)
        rows.append(
            _row(f"lemma_bigint{tup}", closed, numeric.value, err, err <= rel_tol)
        )
    return rows


def check_lemma_d(rel_tol: float = 0.05) -> list[dict]:
    rows = []
    for p, g in ((1, 1.0), (2, 1.0), (2, 2.0)):
        table = lemma_d_check(p, g, (1e-1, 1e-2, 1e-3))
        delta, ratio, limit = table[-1]
        err = abs(ratio / limit - 1.0)
        rows.append(
            _row(f"lemma_d(p={p},gamma={g})", limit, ratio, err, err <= rel_tol)
        )
    return rows


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
