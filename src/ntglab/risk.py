"""Confidence procedures, the recentered-ball loss, and risk evaluation.

A procedure is a finite mixture of balls: given ``(x, s)`` it includes mu
with weight ``sum_k a_k 1{||mu - c_k||^2 < rho_k}``; it never reads the
unknown precision lambda.  Its loss at the true (mu, lambda) is the set
volume weighted by the conditional location density at the ball
threshold, minus the inclusion weight:

    L(phi) = r_kappa(c s / m | lambda) * volume(phi(x, s, .)) - phi(x, s, mu),

with r_kappa the N(x/(1+kappa), I_p/((1+kappa) lambda)) density at a
squared distance from its centre.

As phi does not depend on lambda, conjugacy integrates lambda out of the
posterior risk, leaving the posterior density of mu, radial about
``mu_kappa``, which ``posterior_risk`` integrates along the radius with
``numint.gauss_legendre``, the one quadrature rule.  The risk is minimized by the equal-radius ball recentered at ``mu_kappa``; the
prior risk difference between the standard and the recentered ball is
``F_{p,m}(c (1+kappa)/p) - F_{p,m}(c/p)`` whatever the truncation eps.
``risk_difference_mc`` checks that by paired Monte Carlo.  Both balls'
coverage tests depend on pivotal quantities only, in which the precision
cancels, so the estimate does not read eps and serves every eps: its
eps-independence is structural.  The same tests written with lambda, mu
and x live in the test suite, as the oracle the pivot is checked against.

The standard set, the ball of squared radius c s / m about x, is not a
procedure here: ``regress.standard_region`` builds it for a regression, and
``risk_difference_mc`` tests it in pivotal form (S_0 < T_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blyth, ntg
from .blyth import BlythContext, Observation
from .numint import EstimateWithError, gauss_legendre, mc_estimate
from .specfun import Tolerance, f_cdf, f_quantile, log_gamma

__all__ = [
    "Procedure",
    "ball_volume",
    "sphere_area",
    "phi_kappa",
    "posterior_risk",
    "risk_difference_closed",
    "risk_difference_mc",
    "risk_difference_z",
    "blyth_scaling",
    "perturb",
    "default_c",
]

_DEFAULT_TOL = Tolerance(rel=1e-12, abs=1e-15)
# The posterior density's relative rounding error, in units of machine
# epsilon, as A + B (m + p)/2: B for the power b^((m+p)/2) and the shape of
# Gamma((m+p)/2, .).  Sized against 30-digit mpmath with a margin of about
# 2: the largest needs seen were 75 at m <= 60, 212 at m = 120 and 490 at
# m = 250.
_MACH_EPS = float(np.finfo(float).eps)
_ROUNDING_ULPS = (128.0, 8.0)
# Draws per block of risk_difference_mc's pivotal tests: blocks ran
# faster than whole 65,536-draw chunks.
_PIVOT_BLOCK = 8192


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

    def volume(self, x, s) -> np.ndarray:
        """Lebesgue volume of the confidence set, weights included."""
        weights, centres, radii2 = self.balls(x, s)
        return np.sum(weights * ball_volume(centres.shape[-1], radii2), axis=-1)


def ball_volume(p: int, radius2) -> np.ndarray:
    """Volume of a p-ball given the squared radius."""
    radius2 = np.asarray(radius2, dtype=float)
    return (math.pi * radius2) ** (0.5 * p) / math.exp(log_gamma(0.5 * p + 1.0))


def sphere_area(p: int) -> float:
    """Surface area of the unit sphere in R^p, p times the unit ball's
    volume (2, the two points, at p = 1)."""
    return p * float(ball_volume(p, 1.0))


def phi_kappa(ctx: BlythContext) -> Procedure:
    """The posterior-risk minimizer: one ball of squared radius c*s/m
    centered at x/(1+kappa)."""
    cm = ctx.c / ctx.m

    def balls(x, s):
        centre = np.asarray(x, dtype=float) / (1.0 + ctx.kappa)
        return np.ones(1), centre[..., None, :], (cm * np.asarray(s, dtype=float))[..., None]

    return Procedure(balls=balls, label=f"phi_kappa[{ctx.kappa}]")


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
    up to d + R, and 0 beyond.  ``numint.gauss_legendre`` sums both pieces,
    with coefficients -a_k and the offset w vol; each round sends every node
    and w through one density call.  The density's own rounding, which the
    rule's two sums share, is ``(A + B (m+p)/2) eps_mach``
    (``_ROUNDING_ULPS``) relative.  ``inner_grid`` is
    ignored: it sized the midpoint grid this rule replaced, and existing
    callers still pass it.
    """
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
    row_d, row_radius = np.tile(d, 2)[keep, None], np.tile(radius, 2)[keep, None]
    area = sphere_area(p)
    volume = float(proc.volume(obs.x, obs.s))

    def integrand(r, w):
        t = np.append(np.square(r).ravel(), ctx.c * obs.s / ctx.m)  # and w's squared distance
        dens = ntg.marginal_mu_density_sqdist(post, t)
        h = w * area * r ** (p - 1) * _cap_fraction(p, r, row_d, row_radius)
        return h * dens[:-1].reshape(r.shape), dens[-1] * volume, dens.size

    ulps = _ROUNDING_ULPS[0] + _ROUNDING_ULPS[1] * 0.5 * (ctx.m + p)
    return gauss_legendre(integrand, lo[keep], hi[keep], -np.tile(weights, 2)[keep],
                          tol or _DEFAULT_TOL, ulps * _MACH_EPS)


def risk_difference_closed(ctx: BlythContext) -> float:
    """Closed-form risk difference F_{p,m}(c(1+kappa)/p) - F_{p,m}(c/p).

    Independent of eps by construction (eps does not enter the formula).
    """
    t0 = ctx.c / ctx.p
    return f_cdf(ctx.p, ctx.m, t0 * (1.0 + ctx.kappa)) - f_cdf(ctx.p, ctx.m, t0)


def risk_difference_mc(ctx: BlythContext, n: int = 10 ** 6, seed: int = 0) -> EstimateWithError:
    """Paired Monte Carlo estimate of the risk difference, for every eps.

    Since the two balls have equal volume, the risk difference reduces to
    the difference of coverage terms; both indicators are evaluated on
    common draws (common random numbers), which is what makes the O(kappa)
    signal visible at feasible sample sizes.  A draw is (u, z1, z2, chi2),
    in that stream order, and stands for lambda = eps u^(-2/p),
    mu = z1/sqrt(kappa lambda), x = mu + z2/sqrt(lambda) and s = chi2/lambda.
    With v = sqrt(kappa) z1 - z2, mu - x/(1+kappa) = v/((1+kappa) sqrt(lambda)),
    mu - x = -z2/sqrt(lambda) and c s/m = (c/m) chi2/lambda, so lambda
    cancels from both coverage tests:

        ||mu - x/(1+kappa)||^2 < c s/m  <=>  S_k = ||v||^2 < T_k = (1+kappa)^2 (c/m) chi2,
        ||mu - x||^2 < c s/m            <=>  S_0 = ||z2||^2 < T_0 = (c/m) chi2,

    and each draw's value [S_k < T_k] - [S_0 < T_0] (``_pivot_values``)
    does not depend on eps.  The estimate thus serves every eps, and
    ``ctx.eps`` is not read.  Unlike the tests in terms of lambda, mu and
    x, the pivotal ones cannot overflow or underflow at an extreme eps.

    At kappa = 0 the two indicators coincide and every difference is
    exactly 0.
    """
    if ctx.kappa == 0.0:
        return EstimateWithError(value=0.0, error=0.0, n_evals=n, method="monte_carlo")

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        rng.random(size)  # u, the draw of lambda, which the pivot does not read
        z1 = rng.standard_normal((size, ctx.p))
        z2 = rng.standard_normal((size, ctx.p))
        return _pivot_values(ctx, z1, z2, rng.chisquare(ctx.m, size))

    return mc_estimate(sampler, n, seed)


def _pivot_values(ctx: BlythContext, z1: np.ndarray, z2: np.ndarray, chi2: np.ndarray):
    """[S_k < T_k] - [S_0 < T_0] for draws z1 and z2 (k, p) and chi2 (k,),
    see ``risk_difference_mc``, in blocks of ``_PIVOT_BLOCK`` draws,
    with S_k and S_0 summed left to right over the p coordinates."""
    p, cm = ctx.p, ctx.c / ctx.m
    k1 = 1.0 + ctx.kappa
    root_k, t_k = math.sqrt(ctx.kappa), k1 * k1 * cm
    values = np.empty(chi2.size)
    for lo in range(0, chi2.size, _PIVOT_BLOCK):
        blk = slice(lo, lo + _PIVOT_BLOCK)
        for j in range(p):
            v = z1[blk, j] * root_k
            v -= z2[blk, j]
            if j == 0:
                s_k, s_0 = np.square(v, out=v), np.square(z2[blk, j])
            else:
                s_k += np.square(v, out=v)
                s_0 += np.square(z2[blk, j])
        ch = chi2[blk]
        np.less(s_k, t_k * ch, out=values[blk])
        values[blk] -= s_0 < cm * ch
    return values


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
