"""Confidence procedures, the recentered-ball loss, and risk evaluation.

A procedure is a finite mixture of balls: given ``(x, s)`` it includes mu
with weight ``sum_k a_k 1{||mu - c_k||^2 < rho_k}``; it never reads the
unknown precision lambda.  Its loss at the true (mu, lambda) is the set
volume weighted by the conditional location density at the ball
threshold, minus the inclusion weight:

    L(phi) = r_kappa(c s / m | lambda) * volume(phi(x, s, .)) - phi(x, s, mu).

As phi does not depend on lambda, conjugacy integrates lambda out of the
posterior risk, leaving the posterior density of mu, radial about
``mu_kappa``, which ``posterior_risk`` integrates along the radius.  The
risk is minimized by the equal-radius ball recentered at ``mu_kappa``; the
prior risk difference between the standard and the recentered ball is
``F_{p,m}(c (1+kappa)/p) - F_{p,m}(c/p)`` whatever the truncation eps.
``risk_difference_sweep`` checks that by paired Monte Carlo over several
eps at once.  Both balls' coverage tests depend on pivotal quantities
only, in which the precision cancels, so each draw is tested once for
every eps; the few draws within a rounding bound of a threshold are
tested again in model space at each eps, which keeps every estimate
bit-identical to a run of the model-space arithmetic at that eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blyth, ntg
from .blyth import BlythContext, Observation
from .numint import EstimateWithError, QuadratureError, _mc_estimate_rows, mc_estimate
from .specfun import Tolerance, f_cdf, f_quantile, log_gamma

__all__ = [
    "Procedure",
    "ball_volume",
    "phi0",
    "phi_kappa",
    "coverage",
    "loss",
    "posterior_risk",
    "bayes_risk",
    "risk_difference_closed",
    "risk_difference_mc",
    "risk_difference_sweep",
    "risk_difference_z",
    "blyth_scaling",
    "perturb",
    "default_c",
]

_RULE_START = 32  # nodes of posterior_risk's first Gauss-Legendre rule
_RULE_CAP = 1 << 10  # largest rule posterior_risk may double to
_DEFAULT_TOL = Tolerance(rel=1e-12, abs=1e-15)
# The posterior density's relative rounding error, in units of machine
# epsilon, as A + B (m + p)/2: B for the power b^((m+p)/2) and the shape of
# Gamma((m+p)/2, .).  Sized against 30-digit mpmath with a margin of about
# 2: the largest needs seen were 75 at m <= 60, 212 at m = 120 and 490 at
# m = 250.
_MACH_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double, 2^-1022
_ROUNDING_ULPS = (128.0, 8.0)
_SWEEP_BLOCK = 8192  # draws per block of risk_difference_sweep's pivotal tests
# The pivot decides a draw only when u >= 2^-64, so that u^(-2/p) <= 2^128,
# when lambda and kappa*lambda lie within 2^(+-_SWEEP_LOG2_RANGE) at every
# eps (checked 2^8 inside that, for the rounding of the power), and when
# the bound's magnitudes stay below _SWEEP_CAP: then no model-space
# intermediate overflows (see _sweep_rows).
_SWEEP_MIN_LOG2_U = -64.0
_SWEEP_LOG2_RANGE = 512.0
_SWEEP_CAP = 2.0 ** 400


@dataclass(frozen=True)
class Procedure:
    """A confidence procedure: a finite mixture of balls.

    ``balls(x, s)`` returns ``(weights, centres, radii2)``; mu is included
    with weight ``sum_k weights[k] 1{||mu - centres[k]||^2 < radii2[k]}``,
    which must lie in [0, 1].  It broadcasts over batch axes of ``x``
    (..., p) and ``s`` (...): ``centres`` is (..., k, p), ``radii2``
    (..., k) and ``weights`` (k,) or (..., k).  It takes no precision: a
    procedure cannot depend on the unknown lambda, and ``posterior_risk``
    relies on that.
    """

    balls: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    label: str

    def eval(self, x, s, mu) -> np.ndarray:
        """Inclusion weight of mu, over batches like those of ``balls``."""
        weights, centres, radii2 = self.balls(x, s)
        mu = np.asarray(mu, dtype=float)[..., None, :]
        return np.sum(weights * (np.sum((mu - centres) ** 2, axis=-1) < radii2), axis=-1)

    def volume(self, x, s) -> np.ndarray:
        """Lebesgue volume of the confidence set, weights included."""
        weights, centres, radii2 = self.balls(x, s)
        return np.sum(weights * ball_volume(centres.shape[-1], radii2), axis=-1)


def ball_volume(p: int, radius2) -> np.ndarray:
    """Volume of a p-ball given the squared radius."""
    radius2 = np.asarray(radius2, dtype=float)
    return (math.pi * radius2) ** (0.5 * p) / math.exp(log_gamma(0.5 * p + 1.0))


def _ball_procedure(ctx: BlythContext, shrink: float, label: str) -> Procedure:
    # One ball of squared radius c*s/m centered at x/(1+shrink).
    cm = ctx.c / ctx.m

    def balls(x, s):
        centre = np.asarray(x, dtype=float) / (1.0 + shrink)
        return np.ones(1), centre[..., None, :], (cm * np.asarray(s, dtype=float))[..., None]

    return Procedure(balls=balls, label=label)


def phi0(ctx: BlythContext) -> Procedure:
    """The standard procedure: ball of squared radius c*s/m centered at x."""
    return _ball_procedure(ctx, 0.0, "phi0")


def phi_kappa(ctx: BlythContext) -> Procedure:
    """The posterior-risk minimizer: same radius, center shrunk to
    x/(1+kappa)."""
    return _ball_procedure(ctx, ctx.kappa, f"phi_kappa[{ctx.kappa}]")


def coverage(
    proc: Procedure,
    mu,
    lam: float,
    ctx: BlythContext,
    n: int = 10 ** 5,
    seed: int = 0,
    workers: int = 1,
) -> EstimateWithError:
    """MC estimate of the coverage probability E_{mu,lambda}[phi]."""
    mu = np.asarray(mu, dtype=float)
    p, m = ctx.p, ctx.m

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        x = mu + rng.standard_normal((size, p)) / math.sqrt(lam)
        s = rng.chisquare(m, size) / lam
        return np.asarray(proc.eval(x, s, mu), dtype=float)

    return mc_estimate(sampler, n, seed, workers)


def loss(proc: Procedure, ctx: BlythContext, x, s: float, mu, lam: float) -> float:
    """Pointwise loss: weighted set volume minus the inclusion weight."""
    x = np.asarray(x, dtype=float)
    w = blyth.r_kappa(ctx.c * s / ctx.m, lam, ctx)
    return w * float(proc.volume(x, s)) - float(proc.eval(x, s, np.asarray(mu, float)))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # n-node Gauss-Legendre rule on (0, 1); built on first use, not at import.
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _cap_fraction(p: int, r, d, radius) -> np.ndarray:
    """Share of the sphere of radius r about the origin inside the open ball
    of radius R centred at distance d.  At p = 1 the sphere is two points;
    at p >= 2 the share is a cap, cos(theta) = (r^2 + d^2 - R^2)/(2 r d):
    arccos(cos theta)/pi at p = 2, else ``1/2 I_{sin^2 theta}((p-1)/2, 1/2)
    = 1/2 f_cdf(p-1, 1, tan^2 theta/(p-1))`` (S. Li, Asian J. Math. Stat. 4,
    2011), mirrored for cos(theta) < 0; outside the cap it is 0 or 1."""
    r, d, radius = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, d, radius)))
    if p == 1:
        return 0.5 * ((np.abs(r - d) < radius) + (r + d < radius).astype(float))
    on_axis = ~(r * d > 0.0)  # the sphere lies wholly inside or outside
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (r * r + d * d - radius * radius) / (2.0 * r * d)
        cos = np.where(on_axis, 1.0, np.clip(cos, -1.0, 1.0))
        if p == 2:
            frac = np.arccos(cos) / math.pi
        else:
            tan2 = (1.0 - cos) * (1.0 + cos) / (cos * cos) / (p - 1)
            # f_cdf at tan2 = 0 is 0, so only nodes strictly inside a cap,
            # off the axis, need the scalar call.
            cap, half = np.abs(cos) < 1.0, np.zeros(cos.shape)
            half[cap] = [0.5 * f_cdf(p - 1, 1, t) for t in tan2[cap]]
            frac = np.where(cos >= 0.0, half, 1.0 - half)
    return np.where(on_axis, r + d < radius, frac)


def posterior_risk(
    proc: Procedure,
    ctx: BlythContext,
    obs: Observation,
    tol: Tolerance | None = None,
    inner_grid: int | None = None,
) -> EstimateWithError:
    """Posterior expected loss given (x, s), as one radial sum over the balls.

    Procedures do not depend on lambda, so conjugacy closes the
    lambda-integral: the posterior mean of ``r_kappa(t | lambda)`` is the
    posterior density ``pi_kappa`` of mu at squared distance t from
    mu_kappa: the mu-marginal of ``blyth.posterior``, which
    ``ntg.marginal_mu_density_sqdist`` evaluates over an array of t.  The
    risk of the mixture ``sum_k a_k 1{||mu - c_k|| < R_k}`` is its weighted
    volume minus its posterior coverage,
    ``sum_k a_k (w vol(R_k) - Pi(d_k, R_k))``, with w = pi_kappa at c s / m
    and d_k = ||c_k - mu_kappa||.  As pi_kappa is radial, a ball's mass is
    one integral along the radius,

        Pi(d, R) = int_0^inf pi_kappa(r^2) |S^{p-1}| r^{p-1} frac_p(r; d, R) dr,

    where ``frac_p`` (``_cap_fraction``) is 1 below R - d, a spherical cap
    up to d + R, and 0 beyond.  Both pieces are mapped to (0, pi) by
    ``r = lo + (hi - lo)(1 - cos t)/2``, which smooths the cap's square-root
    ends, and summed by Gauss-Legendre rules with n and 2n nodes, from
    n = 32; each round sends every node and w through one density call.
    The value is the 2n-node sum; n doubles while ``sum_k |a_k| |G_2n - G_n|``
    exceeds ``tol.abs + tol.rel |value|``, and a non-finite result, or
    passing ``_RULE_CAP`` nodes, raises ``QuadratureError``.  The reported
    error is that difference plus the density's rounding, which both rules
    share: ``(A + B (m+p)/2) eps_mach`` (``_ROUNDING_ULPS``) times the
    magnitudes summed, ``|w vol| + sum_k |a_k| G_2n,k``.  ``inner_grid`` is
    ignored: it sized the midpoint grid this rule replaced, and existing
    callers still pass it.
    """
    tol = tol or _DEFAULT_TOL
    p = ctx.p
    post = blyth.posterior(ctx, obs)
    weights, centres, radii2 = proc.balls(obs.x, obs.s)
    d = np.sqrt(np.sum((centres - post.mu0) ** 2, axis=-1))
    radius = np.sqrt(radii2)
    # One row per piece: (0, R - d), where the ball holds the whole sphere,
    # and the cap piece (|d - R|, d + R); empty pieces are dropped.
    lo = np.concatenate([np.zeros_like(d), np.abs(d - radius)])
    hi = np.concatenate([np.maximum(radius - d, 0.0), d + radius])
    keep = hi > lo
    lo, hi = lo[keep, None], hi[keep, None]
    row_d, row_radius = np.tile(d, 2)[keep, None], np.tile(radius, 2)[keep, None]
    row_weight = np.tile(weights, 2)[keep]
    area = p * float(ball_volume(p, 1.0))  # of the unit sphere

    def rule(n):  # nodes r and weights of the n-node rule, one row per piece
        u, gl = _gauss_legendre(n)
        r = lo + (hi - lo) * (0.5 - 0.5 * np.cos(math.pi * u))
        jac = (hi - lo) * (0.5 * math.pi) * np.sin(math.pi * u) * gl
        return r, jac * area * r ** (p - 1) * _cap_fraction(p, r, row_d, row_radius)

    n, n_evals = _RULE_START, 0
    volume = float(proc.volume(obs.x, obs.s))
    while True:
        (r1, h1), (r2, h2) = rule(n), rule(2 * n)
        t = np.square(np.concatenate([r1, r2], axis=-1)).ravel()
        t = np.append(t, ctx.c * obs.s / ctx.m)  # and w's squared distance
        dens = ntg.marginal_mu_density_sqdist(post, t)
        n_evals += dens.size
        both = dens[:-1].reshape(-1, 3 * n)
        coarse, fine = np.sum(h1 * both[:, :n], axis=-1), np.sum(h2 * both[:, n:], axis=-1)
        value = float(dens[-1] * volume - np.sum(row_weight * fine))
        error = float(np.sum(np.abs(row_weight * (fine - coarse))))
        if not (math.isfinite(value) and math.isfinite(error)):
            raise QuadratureError(
                f"posterior risk of {proc.label!r} is not finite", partial=(value, error))
        if error <= tol.abs + tol.rel * abs(value):
            # The two rules share their density values, so |G_2n - G_n|
            # cannot see the density's rounding: add it, relative to the
            # magnitudes summed, outside the doubling test.
            magnitude = abs(dens[-1] * volume) + np.sum(np.abs(row_weight * fine))
            ulps = _ROUNDING_ULPS[0] + _ROUNDING_ULPS[1] * 0.5 * (ctx.m + p)
            rounding = ulps * _MACH_EPS * float(magnitude)
            return EstimateWithError(value, error + rounding, n_evals, "quadrature")
        n *= 2
        if 2 * n > _RULE_CAP:
            raise QuadratureError(
                f"posterior risk of {proc.label!r}: error {error:.3e} above tolerance "
                f"at {n // 2}- and {n}-node rules", partial=(value, error))


def _prior_draws(p: int, m: int, rng: np.random.Generator, size: int):
    # One chunk's standardised draws for (mu, lambda) from the
    # NtG(p,0,kappa,-p/2,0,eps) prior and (x, s) from the model, in stream
    # order: lambda = eps u^(-2/p), mu = z1/sqrt(kappa lambda),
    # x = mu + z2/sqrt(lambda), s = chi2/lambda.  Returns u^(-2/p), z1, z2
    # and chi2, which do not depend on eps or kappa.
    upow = rng.random(size) ** (-2.0 / p)
    z1 = rng.standard_normal((size, p))
    z2 = rng.standard_normal((size, p))
    return upow, z1, z2, rng.chisquare(m, size)


def bayes_risk(
    proc: Procedure,
    ctx: BlythContext,
    n: int = 10 ** 5,
    seed: int = 0,
    workers: int = 1,
) -> EstimateWithError:
    """Prior-averaged risk by Monte Carlo over (mu, lambda, x, s).

    Requires kappa > 0 (the proper prior).  The weighted-volume term uses
    the procedure's closed-form volume, which removes the inner
    mu-integration from every draw.
    """
    if ctx.kappa <= 0:
        raise ValueError("bayes_risk requires kappa > 0")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        upow, z1, z2, chi2 = _prior_draws(ctx.p, ctx.m, rng, size)
        lam = ctx.eps * upow
        mu = z1 / np.sqrt(ctx.kappa * lam)[:, None]
        x = mu + z2 / np.sqrt(lam)[:, None]
        s = chi2 / lam
        k1, t = 1.0 + ctx.kappa, ctx.c * s / ctx.m
        w = (k1 * lam / (2.0 * math.pi)) ** (0.5 * ctx.p) * np.exp(-0.5 * k1 * lam * t)
        vol = np.asarray(proc.volume(x, s), dtype=float)
        cov = np.asarray(proc.eval(x, s, mu), dtype=float)
        return w * vol - cov

    return mc_estimate(sampler, n, seed, workers)


def risk_difference_closed(ctx: BlythContext) -> float:
    """Closed-form risk difference F_{p,m}(c(1+kappa)/p) - F_{p,m}(c/p).

    Independent of eps by construction (eps does not enter the formula).
    """
    t0 = ctx.c / ctx.p
    return f_cdf(ctx.p, ctx.m, t0 * (1.0 + ctx.kappa)) - f_cdf(ctx.p, ctx.m, t0)


def risk_difference_mc(
    ctx: BlythContext,
    n: int = 10 ** 6,
    seed: int = 0,
    workers: int = 1,
) -> EstimateWithError:
    """Paired Monte Carlo estimate of the risk difference at ``ctx.eps``:
    the one-eps case of ``risk_difference_sweep``."""
    return risk_difference_sweep(ctx, (ctx.eps,), n, seed, workers)[0]


def risk_difference_sweep(
    ctx: BlythContext,
    eps_values: Sequence[float],
    n: int = 10 ** 6,
    seed: int = 0,
    workers: int = 1,
) -> tuple[EstimateWithError, ...]:
    """Paired Monte Carlo estimates of the risk difference, one per eps.

    Since the two balls have equal volume, the risk difference reduces to
    the difference of coverage terms; both indicators are evaluated on
    common draws (common random numbers), which is what makes the O(kappa)
    signal visible at feasible sample sizes.  The eps values share the
    draws as well.  A draw is (u, z1, z2, chi2), in that stream order, and
    stands for lambda = eps u^(-2/p), mu = z1/sqrt(kappa lambda),
    x = mu + z2/sqrt(lambda) and s = chi2/lambda.  With v = sqrt(kappa) z1
    - z2, mu - x/(1+kappa) = v/((1+kappa) sqrt(lambda)), mu - x =
    -z2/sqrt(lambda) and c s/m = (c/m) chi2/lambda, so lambda cancels from
    both coverage tests:

        ||mu - x/(1+kappa)||^2 < c s/m  <=>  S_k = ||v||^2 < T_k = (1+kappa)^2 (c/m) chi2,
        ||mu - x||^2 < c s/m            <=>  S_0 = ||z2||^2 < T_0 = (c/m) chi2,

    and each draw's value [S_k < T_k] - [S_0 < T_0] serves every eps.  A
    draw within the rounding bound B of either threshold
    (``_sweep_rows``), or with u < 2^-64, or whose lambda or kappa*lambda
    may leave [2^-512, 2^512] at some eps, is evaluated again at each eps
    by the model-space expressions, lambda, mu and x included, with
    left-to-right sums over the p coordinates.  Off that fallback set the
    two agree, so each estimate is bit-identical to a separate model-space
    run at that eps with the same seed.  Where lambda or kappa*lambda
    leaves the normal double range those expressions fail (past the largest
    double both indicators read 0), and the pivot decides instead.
    ``ctx.eps`` is not read.

    At kappa = 0 the two indicators coincide and every difference is
    exactly 0.
    """
    eps_values = tuple(float(eps) for eps in eps_values)
    if not all(0.0 < eps < math.inf for eps in eps_values):
        raise ValueError(f"eps values must be positive and finite, got {eps_values}")
    if ctx.kappa == 0.0:
        zero = EstimateWithError(value=0.0, error=0.0, n_evals=n, method="monte_carlo")
        return (zero,) * len(eps_values)

    def sampler(rng: np.random.Generator, size: int) -> list[np.ndarray]:
        u = rng.random(size)
        z1 = rng.standard_normal((size, ctx.p))
        z2 = rng.standard_normal((size, ctx.p))
        return _sweep_rows(ctx, eps_values, u, z1, z2, rng.chisquare(ctx.m, size))

    return tuple(_mc_estimate_rows(sampler, n, seed, workers))


def _pivot_u_range(p: int, kappa: float, eps_values: Sequence[float]) -> tuple[float, float]:
    # [u_lo, u_hi]: the u >= 2^-64 at which lambda = eps u^(-2/p) and
    # kappa*lambda lie within 2^(+-(_SWEEP_LOG2_RANGE - 8)) at every eps; in
    # log2, log2(lambda) = log2(eps) - (2/p) log2(u).
    reach = _SWEEP_LOG2_RANGE - 8.0
    logs = [g + h for g in map(math.log2, eps_values) for h in (0.0, math.log2(kappa))]
    lo = max([_SWEEP_MIN_LOG2_U] + [0.5 * p * (g - reach) for g in logs])
    hi = min(0.5 * p * (g + reach) for g in logs)
    return 2.0 ** min(lo, 0.0), 2.0 ** min(hi, 0.0)


def _ltr_sq_sum(d: np.ndarray) -> np.ndarray:
    # Sum of squares over the p rows of d (p, k), left to right, squaring d
    # in place: np.sum adds 8 or more contiguous terms pairwise.
    total = np.square(d[0], out=d[0])
    for row in d[1:]:
        total += np.square(row, out=row)
    return total


def _sweep_rows(
    ctx: BlythContext,
    eps_values: Sequence[float],
    u: np.ndarray,
    z1: np.ndarray,
    z2: np.ndarray,
    chi2: np.ndarray,
) -> list[np.ndarray]:
    """``risk_difference_sweep``'s paired indicators on one chunk of draws:
    u (k,), z1 and z2 (k, p), chi2 (k,); one row per eps, and eps values
    whose rows agree share one array.

    The pivot decides a draw when min(|S_k - T_k|, |S_0 - T_0|) > B, with

        B = (16 + 8p) u_r [S_k + T_k + S_0 + T_0
                           + 16 (1+kappa)^2/kappa^2 (S_k + S_0) + 8 S_0 + tau],
        tau = (2p + c/m + 4) (1+kappa)^2 2^-510,

    u_r = 2^-53 the unit roundoff.  B increases with S_k, S_0 and chi2, so
    each block of ``_SWEEP_BLOCK`` draws takes it at its largest values, one
    bound for all its draws.  The bound follows Higham (Accuracy and
    Stability of Numerical Algorithms, 2002): fl(a op b) = (a op b)(1 + d),
    |d| <= u_r, and gamma_n = n u_r/(1 - n u_r) for n such factors (3.1).
    Let w_i = 2((1+kappa)|z1_i|/sqrt(kappa) + |z2_i|).  In model space, the
    i-th coordinate of mu - x/(1+kappa), scaled by (1+kappa) sqrt(lambda),
    is v_i + f_i with |f_i| <= gamma_7 w_i (mu takes 3 roundings, x 4,
    x/(1+kappa) 6 and the difference 7, each relative to |mu_i| or |z2_i|
    /sqrt(lambda)); that of mu - x, scaled by sqrt(lambda), is -z2_i + f'_i
    with |f'_i| <= gamma_8 w_i/2; the pivot's v_i carries |g_i| <= gamma_3 w_i.
    A sum of p rounded squares adds gamma_p relative in any order, and
    2|v_i f_i| <= gamma (v_i^2 + w_i^2).  The thresholds carry gamma_2 (model
    space) and gamma_5 (pivot).  To first order in u_r the model-space and
    pivotal tests of the shrunk ball thus both match the exact one once
    |S_k - T_k| > u_r [(10 + 4p) S_k + 10 ||w||^2 + 7 T_k], and those of the
    standard ball once |S_0 - T_0| > u_r [(8 + 3p) S_0 + 3 ||w||^2 + 3 T_0];
    ||w||^2 <= 8((1+kappa)^2/kappa ||z1||^2 + ||z2||^2) and kappa ||z1||^2 <=
    2(S_k + S_0) give the bracket.  The factor 16 + 8p >= 1.6 (10 + 4p)
    leaves room for the second-order terms, for replacing the exact S and T
    by their rounded values and for the rounding of B itself.  With
    gradual underflow a product or quotient errs by at most u_r 2^-1022
    more, and sums are exact there; lambda <= 2^512 keeps their scaled
    total below u_r tau.

    The pivot also needs every model-space intermediate in range: u >=
    2^-64 bounds u^(-2/p) by 2^128, lambda and kappa*lambda within
    2^(+-512) (``_pivot_u_range``) and a bracket below 2^400 then bound
    every one by 2^920.  Elsewhere each eps runs the model-space
    expressions operation for operation, left-to-right sums included, and
    the pivot decides only where lambda or kappa*lambda leaves the normal
    range.
    """
    p, kappa, cm = ctx.p, ctx.kappa, ctx.c / ctx.m
    k1 = 1.0 + kappa
    root_k, t_k = math.sqrt(kappa), k1 * k1 * cm
    shrink = 16.0 * (k1 / kappa) * (k1 / kappa)
    tau = (2 * p + cm + 4) * k1 * k1 * 2.0 ** -510
    ulps = (8 + 4 * p) * _MACH_EPS  # (16 + 8p) u_r
    coef = (ulps * (1.0 + shrink), ulps * (9.0 + shrink), ulps * (t_k + cm), ulps * tau)
    u_lo, u_hi = _pivot_u_range(p, kappa, eps_values)
    pivot = np.empty(u.size)
    fallback = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, u.size, _SWEEP_BLOCK):
            blk = slice(lo, lo + _SWEEP_BLOCK)
            for j in range(p):
                v = z1[blk, j] * root_k
                v -= z2[blk, j]
                if j == 0:
                    s_k, s_0 = np.square(v, out=v), np.square(z2[blk, j])
                else:
                    s_k += np.square(v, out=v)
                    s_0 += np.square(z2[blk, j])
            ch, ub = chi2[blk], u[blk]
            d_k = s_k - t_k * ch
            d_0 = s_0 - cm * ch
            np.less(d_k, 0.0, out=pivot[blk])
            pivot[blk] -= d_0 < 0.0
            bound = coef[0] * s_k.max() + coef[1] * s_0.max() + coef[2] * ch.max() + coef[3]
            margin = np.minimum(np.abs(d_k, out=d_k), np.abs(d_0, out=d_0), out=d_k)
            if not bound < ulps * _SWEEP_CAP:  # past the cap, or NaN: flag the block
                bound = math.inf
            if margin.min() > bound and ub.min() >= u_lo and ub.max() <= u_hi:
                continue
            flagged = ~(margin > bound) | (ub < u_lo) | (ub > u_hi)
            fallback.append(lo + np.flatnonzero(flagged))
    if not fallback:
        return [pivot] * len(eps_values)
    idx = np.concatenate(fallback)
    rows, piv = [], pivot[idx]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        upow = u[idx] ** (-2.0 / p)
        r1, r2, ch = z1[idx].T.copy(), z2[idx].T.copy(), chi2[idx]
        for eps in eps_values:
            lam = eps * upow
            kl = kappa * lam
            thresh = cm * (ch / lam)
            mu = r1 / np.sqrt(kl)
            x = r2 / np.sqrt(lam)
            x += mu
            vals = (_ltr_sq_sum(mu - x / k1) < thresh).astype(float)
            vals -= _ltr_sq_sum(np.subtract(mu, x, out=x)) < thresh
            in_range = (np.minimum(lam, kl) >= _TINY) & (np.maximum(lam, kl) < math.inf)
            vals = np.where(in_range, vals, piv)
            if np.array_equal(vals, piv):
                rows.append(pivot)
            else:
                row = pivot.copy()
                row[idx] = vals
                rows.append(row)
    return rows


def risk_difference_z(mc: EstimateWithError, closed: float, kappa: float) -> float:
    """z-score of a Monte Carlo risk difference against the closed form.

    Fails closed: a standard error of 0 or NaN gives ``inf``, except at
    kappa = 0, where both sides are exactly 0 and a zero error is right.
    """
    if mc.error > 0 and math.isfinite(mc.error):
        return (mc.value - closed) / mc.error
    if kappa == 0.0 and mc.error == 0.0 and mc.value == closed:
        return 0.0
    return math.inf


def default_c(p: int, m: int, level: float) -> float:
    """Radius constant making the standard procedure attain the given
    coverage level: c = p * F^{-1}_{p,m}(level)."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level}")
    return p * f_quantile(p, m, level)


def blyth_scaling(
    p: int,
    m: int,
    c: float,
    eps: float,
    kappa_grid: Sequence[float],
):
    """Table of (kappa, K, closed risk difference, K * difference).

    The last column converges to 0 for p = 1, to a constant for p = 2, and
    diverges for p >= 3 as kappa -> 0 (the K * difference scales like
    kappa^{1 - p/2}).
    """
    rows = []
    for kap in kappa_grid:
        ctx = BlythContext(p=p, m=m, c=c, kappa=kap, eps=eps)
        k_const = blyth.big_K(ctx)
        delta = risk_difference_closed(ctx)
        rows.append((kap, k_const, delta, k_const * delta))
    return rows


def perturb(proc: Procedure, seed: int) -> Procedure:
    """A competitor differing from proc on a set of positive measure.

    Three families, selected by the seed: (0) every ball's radius scaled by
    a factor f, (1) every ball's centre moved along the first axis by a
    fraction of its radius, (2) every ball split into two halves of weight
    1/2 with radii R(1 + w) and R(1 - w), which includes mu with weight 1/2
    in the band between them.
    """
    rng = np.random.default_rng(seed)
    family = int(rng.integers(3))

    if family == 0:
        f = float(rng.uniform(1.05, 1.3)) if rng.random() < 0.5 else float(
            rng.uniform(0.7, 0.95)
        )

        def scaled(x, s):
            weights, centres, radii2 = proc.balls(x, s)
            return weights, centres, radii2 * (f * f)

        return Procedure(balls=scaled, label=f"{proc.label}+scale[{f:.3f}]")

    if family == 1:
        frac = float(rng.uniform(0.1, 0.5))

        def shifted(x, s):
            weights, centres, radii2 = proc.balls(x, s)
            axis0 = np.eye(centres.shape[-1])[0]
            return weights, centres + frac * np.sqrt(radii2)[..., None] * axis0, radii2

        return Procedure(balls=shifted, label=f"{proc.label}+offset[{frac:.3f}]")

    width = float(rng.uniform(0.05, 0.2))

    def banded(x, s):
        weights, centres, radii2 = proc.balls(x, s)
        half = 0.5 * np.asarray(weights, dtype=float)
        return (np.concatenate([half, half], axis=-1), np.concatenate([centres, centres], axis=-2),
                np.concatenate([radii2 * (1.0 + width) ** 2, radii2 * (1.0 - width) ** 2], axis=-1))

    return Procedure(balls=banded, label=f"{proc.label}+band[{width:.3f}]")
