"""Confidence procedures, the recentered-ball loss, and risk evaluation.

A procedure maps ``(x, s, mu)`` to an inclusion weight in [0, 1]; it never
reads the unknown precision lambda.  Its loss at the true (mu, lambda) is
the set volume weighted by the conditional location density at the ball
threshold, minus the coverage indicator:

    L(phi) = r_kappa(c s / m | lambda) * volume(phi(x, s, .)) - phi(x, s, mu).

As phi does not depend on lambda, conjugacy integrates lambda out of the
posterior risk, leaving one mu-integral against the posterior density of
mu, which ``posterior_risk`` sums on a midpoint grid.  The risk is
minimized by the equal-radius ball recentered at ``mu_kappa``; the prior
risk difference between the standard and the recentered ball is
``F_{p,m}(c (1+kappa)/p) - F_{p,m}(c/p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import blyth
from .blyth import BlythContext, Observation
from .numint import EstimateWithError, mc_estimate
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
    "risk_difference_z",
    "blyth_scaling",
    "perturb",
    "default_c",
]

_GRID_CHUNK = 1 << 13  # grid nodes per array-density call in posterior_risk
_DEFAULT_GRID = 1 << 12  # posterior_risk nodes when inner_grid is None


@dataclass(frozen=True)
class Procedure:
    """A (possibly randomized) confidence procedure.

    ``eval(x, s, mu)`` returns inclusion weights in [0, 1] and must
    broadcast over leading batch axes of ``x``/``mu`` (shape (n, p)) and
    ``s`` (shape (n,)).  It takes no precision: a procedure cannot depend
    on the unknown lambda, and ``posterior_risk`` relies on that.
    ``closed_form_measure(x, s)``, when present, gives the Lebesgue volume
    of the confidence set; ``loss`` and ``bayes_risk`` need it.
    ``support(x, s)`` returns a (center, radius) ball guaranteed to contain
    every point where ``eval`` is nonzero; ``posterior_risk`` and
    ``perturb`` need it.
    """

    eval: Callable[..., np.ndarray]
    label: str
    closed_form_measure: Optional[Callable[..., np.ndarray]] = None
    support: Optional[Callable[..., tuple[np.ndarray, float]]] = None


def ball_volume(p: int, radius2) -> np.ndarray:
    """Volume of a p-ball given the squared radius."""
    radius2 = np.asarray(radius2, dtype=float)
    return (math.pi * radius2) ** (0.5 * p) / math.exp(log_gamma(0.5 * p + 1.0))


def _ball_procedure(ctx: BlythContext, shrink: float, label: str) -> Procedure:
    # Ball of squared radius c*s/m centered at x/(1+shrink).
    cm = ctx.c / ctx.m
    p = ctx.p

    def ev(x, s, mu):
        x = np.asarray(x, dtype=float)
        mu = np.asarray(mu, dtype=float)
        d2 = np.sum((mu - x / (1.0 + shrink)) ** 2, axis=-1)
        return (d2 < cm * np.asarray(s, dtype=float)).astype(float)

    def meas(x, s):
        return ball_volume(p, cm * np.asarray(s, dtype=float))

    def supp(x, s):
        x = np.asarray(x, dtype=float)
        radius = np.sqrt(cm * np.asarray(s, dtype=float))
        return x / (1.0 + shrink), (float(radius) if radius.ndim == 0 else radius)

    return Procedure(eval=ev, label=label, closed_form_measure=meas, support=supp)


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

    return mc_estimate(sampler, None, n, seed, workers)


def loss(proc: Procedure, ctx: BlythContext, x, s: float, mu, lam: float) -> float:
    """Pointwise loss: weighted set volume minus the inclusion weight.

    Needs the procedure's closed-form measure.
    """
    if proc.closed_form_measure is None:
        raise ValueError(f"loss needs a closed-form measure; {proc.label!r} has none")
    ups = float(proc.closed_form_measure(np.asarray(x, float), s))
    w = blyth.r_kappa(ctx.c * s / ctx.m, lam, ctx)
    return w * ups - float(proc.eval(np.asarray(x, float), s, np.asarray(mu, float)))


def posterior_risk(
    proc: Procedure,
    ctx: BlythContext,
    obs: Observation,
    tol: Tolerance | None = None,
    inner_grid: int | None = None,
) -> EstimateWithError:
    """Posterior expected loss given (x, s), as one midpoint sum over mu.

    Procedures do not depend on lambda, so conjugacy closes the
    lambda-integral: the posterior mean of ``r_kappa(t | lambda)`` is the
    posterior density ``pi_kappa`` of mu at squared distance t from
    mu_kappa (``blyth.mu_posterior_density``), and the risk is

        integral of phi(mu) (w - pi_kappa(mu)) dmu,   w = pi_kappa at c s / m,

    which is the weighted volume minus the posterior coverage.  It is summed
    by the midpoint rule on about ``inner_grid`` nodes (``_DEFAULT_GRID``
    when None) over the support box, so the volume comes from the same grid
    and ``closed_form_measure`` is not read.  For the recentred ball the
    factor ``w - pi_kappa`` vanishes on the boundary, where phi jumps.
    ``tol`` is kept for existing call sites and unused.

    The error adds, for every cell where ``eval`` jumps to an axis
    neighbour, that jump times the largest ``|w - pi_kappa|`` over the cell
    times the cell volume, and the midpoint rule's curvature term
    (second differences / 24) of the integrand.
    """
    if proc.support is None:
        raise ValueError(f"procedure {proc.label!r} has no support hint; posterior_risk needs one")
    box_center, radius = proc.support(obs.x, obs.s)
    box_center = np.atleast_1d(np.asarray(box_center, float))
    lo, hi = box_center - radius, box_center + radius
    p = ctx.p
    n_axis = max(2, int(round((inner_grid or _DEFAULT_GRID) ** (1.0 / p))))
    width = (hi - lo) / n_axis
    axes = [lo[j] + width[j] * (np.arange(n_axis) + 0.5) for j in range(p)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
    cell = float(np.prod(width))
    center = np.atleast_1d(blyth.mu_kappa(obs.x, ctx.kappa))
    w = float(blyth.mu_posterior_density_sqdist(ctx, obs, ctx.c * obs.s / ctx.m))

    def excess(t):  # w - pi_kappa at squared distances t, in fixed chunks
        out = np.empty(t.size)
        for i in range(0, t.size, _GRID_CHUNK):
            out[i:i + _GRID_CHUNK] = w - blyth.mu_posterior_density_sqdist(
                ctx, obs, t[i:i + _GRID_CHUNK])
        return out

    vals = np.asarray(proc.eval(obs.x, np.full(mesh.shape[0], obs.s), mesh), dtype=float)
    terms = vals * excess(np.sum((mesh - center) ** 2, axis=-1))
    value = float(np.sum(terms)) * cell

    # Each cell's largest jump of eval to an axis neighbour, and the
    # integrand's second differences along every axis.
    vals, terms = vals.reshape((n_axis,) * p), terms.reshape((n_axis,) * p)
    jump = np.zeros(vals.shape)
    curvature = 0.0
    for ax in range(p):
        v, big = np.moveaxis(vals, ax, 0), np.moveaxis(jump, ax, 0)  # views
        step = np.abs(v[1:] - v[:-1])
        np.maximum(big[1:], step, out=big[1:])
        np.maximum(big[:-1], step, out=big[:-1])
        curvature += float(np.abs(np.diff(terms, n=2, axis=ax)).sum())
    # w - pi_kappa is monotone in the squared distance, so its extremes over
    # a cell sit at the cell's nearest and farthest points from mu_kappa.
    idx = np.nonzero(jump.reshape(-1))[0]
    off = np.abs(mesh[idx] - center)
    near = np.sum(np.maximum(off - 0.5 * width, 0.0) ** 2, axis=-1)
    far = np.sum((off + 0.5 * width) ** 2, axis=-1)
    reach = np.maximum(np.abs(excess(near)), np.abs(excess(far)))
    error = (float(np.sum(jump.reshape(-1)[idx] * reach)) + curvature / 24.0) * cell
    return EstimateWithError(value, error, vals.size, "quadrature")


def _prior_model_draw(ctx: BlythContext, rng: np.random.Generator, size: int):
    # Vectorized draw of (mu, lambda) from the NtG(p,0,kappa,-p/2,0,eps)
    # prior and (x, s) from the model.
    p, m = ctx.p, ctx.m
    u = rng.random(size)
    lam = ctx.eps * u ** (-2.0 / p)
    mu = rng.standard_normal((size, p)) / np.sqrt(ctx.kappa * lam)[:, None]
    x = mu + rng.standard_normal((size, p)) / np.sqrt(lam)[:, None]
    s = rng.chisquare(m, size) / lam
    return mu, lam, x, s


def bayes_risk(
    proc: Procedure,
    ctx: BlythContext,
    n: int = 10 ** 5,
    seed: int = 0,
    workers: int = 1,
) -> EstimateWithError:
    """Prior-averaged risk by Monte Carlo over (mu, lambda, x, s).

    Requires kappa > 0 (the proper prior) and a closed-form measure; the
    weighted-volume term uses it directly, which removes the inner
    mu-integration from every draw.
    """
    if ctx.kappa <= 0:
        raise ValueError("bayes_risk requires kappa > 0")
    if proc.closed_form_measure is None:
        raise ValueError(
            "bayes_risk needs a closed-form measure; use posterior_risk plus "
            "numeric marginalization for irregular procedures"
        )

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        mu, lam, x, s = _prior_model_draw(ctx, rng, size)
        k1, t = 1.0 + ctx.kappa, ctx.c * s / ctx.m
        w = (k1 * lam / (2.0 * math.pi)) ** (0.5 * ctx.p) * np.exp(-0.5 * k1 * lam * t)
        vol = np.asarray(proc.closed_form_measure(x, s), dtype=float)
        cov = np.asarray(proc.eval(x, s, mu), dtype=float)
        return w * vol - cov

    return mc_estimate(sampler, None, n, seed, workers)


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
    """Paired Monte Carlo estimate of the risk difference.

    Since the two balls have equal volume, the risk difference reduces to
    the difference of coverage terms; both indicators are evaluated on
    common draws (common random numbers), which is what makes the O(kappa)
    signal visible at feasible sample sizes.

    At kappa = 0 the two indicators coincide and the difference is exactly 0.
    """
    if ctx.kappa == 0.0:
        return EstimateWithError(value=0.0, error=0.0, n_evals=n, method="monte_carlo")
    cm = ctx.c / ctx.m

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        mu, lam, x, s = _prior_model_draw(ctx, rng, size)
        thresh = cm * s
        d2_k = np.sum((mu - x / (1.0 + ctx.kappa)) ** 2, axis=-1)
        d2_0 = np.sum((mu - x) ** 2, axis=-1)
        return (d2_k < thresh).astype(float) - (d2_0 < thresh).astype(float)

    return mc_estimate(sampler, None, n, seed, workers)


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

    Three families, selected by the seed: (0) radius rescaling about the
    support center, (1) center offset along the first axis, (2) a
    randomized band of weight 1/2 straddling the support boundary.  The
    base procedure must carry a support hint.
    """
    if proc.support is None:
        raise ValueError("perturb requires a support hint on the base procedure")
    rng = np.random.default_rng(seed)
    family = int(rng.integers(3))
    base_support = proc.support

    if family == 0:
        f = float(rng.uniform(1.05, 1.3)) if rng.random() < 0.5 else float(
            rng.uniform(0.7, 0.95)
        )

        def ev(x, s, mu):
            center, _ = base_support(x, s)
            mu = np.asarray(mu, dtype=float)
            return proc.eval(x, s, center + (mu - center) / f)

        def supp(x, s):
            center, radius = base_support(x, s)
            return center, radius * f

        return Procedure(eval=ev, label=f"{proc.label}+scale[{f:.3f}]", support=supp)

    if family == 1:
        frac = float(rng.uniform(0.1, 0.5))

        def ev(x, s, mu):
            _, radius = base_support(x, s)
            shifted = np.array(mu, dtype=float)
            shifted[..., 0] -= frac * radius
            return proc.eval(x, s, shifted)

        def supp(x, s):
            center, radius = base_support(x, s)
            shift = np.zeros_like(np.asarray(center, float))
            shift[..., 0] = frac * radius
            return center + shift, radius

        return Procedure(eval=ev, label=f"{proc.label}+offset[{frac:.3f}]", support=supp)

    width = float(rng.uniform(0.05, 0.2))

    def ev(x, s, mu):
        center, radius = base_support(x, s)
        mu = np.asarray(mu, dtype=float)
        dist = np.sqrt(np.sum((mu - center) ** 2, axis=-1))
        base = np.asarray(proc.eval(x, s, mu), dtype=float)
        in_band = (dist >= radius * (1.0 - width)) & (dist <= radius * (1.0 + width))
        return np.where(in_band, 0.5, base)

    def supp(x, s):
        center, radius = base_support(x, s)
        return center, radius * (1.0 + width)

    return Procedure(eval=ev, label=f"{proc.label}+band[{width:.3f}]", support=supp)
