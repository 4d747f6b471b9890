"""Confidence procedures, the recentered-ball loss, and risk evaluation.

A procedure maps ``(x, s, mu)`` to an inclusion weight in [0, 1]; it never
reads the unknown precision lambda.  Its loss at the true (mu, lambda) is
the set volume weighted by the conditional location density at the ball
threshold, minus the coverage indicator:

    L(phi) = r_kappa(c s / m | lambda) * volume(phi(x, s, .)) - phi(x, s, mu).

As phi does not depend on lambda, conjugacy integrates lambda out of the
posterior risk, leaving one mu-integral against the posterior density of
mu.  The risk is minimized by the equal-radius ball recentered at
``mu_kappa``; the prior risk difference between the standard and the
recentered ball is ``F_{p,m}(c (1+kappa)/p) - F_{p,m}(c/p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import blyth
from .blyth import BlythContext, Observation
from .numint import EstimateWithError, integrate_nd, mc_estimate
from .specfun import Tolerance, f_cdf, f_quantile, log_gamma

__all__ = [
    "Procedure",
    "RiskReport",
    "ball_volume",
    "phi0",
    "phi_kappa",
    "measure",
    "coverage",
    "loss",
    "posterior_risk",
    "bayes_risk",
    "risk_difference_closed",
    "risk_difference_mc",
    "blyth_scaling",
    "perturb",
    "default_c",
    "risk_report",
]

_GRID_CHUNK = 1 << 13  # grid nodes per array-density call in posterior_risk


@dataclass(frozen=True)
class Procedure:
    """A (possibly randomized) confidence procedure.

    ``eval(x, s, mu)`` returns inclusion weights in [0, 1] and must
    broadcast over leading batch axes of ``x``/``mu`` (shape (n, p)) and
    ``s`` (shape (n,)).  It takes no precision: a procedure cannot depend
    on the unknown lambda, and ``posterior_risk`` relies on that.
    ``closed_form_measure(x, s)``, when present, gives the Lebesgue volume
    of the confidence set.  ``support(x, s)`` returns a (center, radius)
    ball guaranteed to contain every point where ``eval`` is nonzero;
    numeric integration routines rely on it.
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


def _support_box(proc: Procedure, x, s):
    if proc.support is None:
        raise ValueError(
            f"procedure {proc.label!r} has neither a closed-form measure nor "
            "a support hint; numeric integration needs one"
        )
    center, radius = proc.support(x, s)
    center = np.asarray(center, dtype=float)
    return center - radius, center + radius


def measure(
    proc: Procedure, x, s: float, tol: Tolerance | None = None
) -> EstimateWithError:
    """Lebesgue measure of the confidence set at (x, s).

    Uses the closed form when available, otherwise integrates ``eval`` over
    the support box.
    """
    if proc.closed_form_measure is not None:
        val = float(proc.closed_form_measure(np.asarray(x, float), s))
        return EstimateWithError(value=val, error=0.0, n_evals=1, method="quadrature")
    if tol is None:
        tol = Tolerance(rel=1e-9, abs=1e-12, max_iter=200)
    lo, hi = _support_box(proc, x, s)
    x = np.asarray(x, dtype=float)

    def f(*mu):
        return float(proc.eval(x, s, np.array(mu)))

    return integrate_nd(f, lo, hi, tol)


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
    """Pointwise loss: weighted set volume minus the inclusion weight."""
    ups = measure(proc, x, s).value
    w = blyth.r_kappa(ctx.c * s / ctx.m, lam, ctx)
    return w * ups - float(proc.eval(np.asarray(x, float), s, np.asarray(mu, float)))


def _grid_risk(proc: Procedure, ctx: BlythContext, obs: Observation, inner_grid: int):
    # Midpoint rule over the support box; the densities are evaluated in
    # fixed chunks of nodes to bound the array incomplete gamma's temporaries.
    lo, hi = (np.atleast_1d(np.asarray(b, float)) for b in _support_box(proc, obs.x, obs.s))
    n_axis = max(2, int(round(inner_grid ** (1.0 / ctx.p))))
    axes = [lo[j] + (hi[j] - lo[j]) * (np.arange(n_axis) + 0.5) / n_axis for j in range(ctx.p)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ctx.p)
    cell = float(np.prod((hi - lo) / n_axis))
    center = blyth.mu_kappa(obs.x, ctx.kappa)
    vals = np.asarray(proc.eval(obs.x, np.full(mesh.shape[0], obs.s), mesh), dtype=float)
    weighted = np.empty(vals.size)
    for i in range(0, vals.size, _GRID_CHUNK):
        part = slice(i, i + _GRID_CHUNK)
        t = np.sum((mesh[part] - center) ** 2, axis=-1)
        weighted[part] = vals[part] * blyth.mu_posterior_density_sqdist(ctx, obs, t)
    hit = float(np.sum(weighted)) * cell

    # Error: a cell where eval jumps to an axis neighbour is misweighted by
    # at most the largest density on the grid (at the node nearest
    # mu_kappa); every cell adds the midpoint rule's h^2/24 curvature term,
    # estimated by second differences.
    vals, weighted = vals.reshape((n_axis,) * ctx.p), weighted.reshape((n_axis,) * ctx.p)
    on_jump = np.zeros(vals.shape, dtype=bool)
    curvature = 0.0
    for ax in range(ctx.p):
        v, mark = np.moveaxis(vals, ax, 0), np.moveaxis(on_jump, ax, 0)  # views
        jump = v[1:] != v[:-1]
        mark[1:] |= jump
        mark[:-1] |= jump
        curvature += float(np.abs(np.diff(weighted, n=2, axis=ax)).sum())
    t_min = sum(float(np.min((a - c) ** 2)) for a, c in zip(axes, center))
    jump_mass = int(on_jump.sum()) * cell
    peak = float(blyth.mu_posterior_density_sqdist(ctx, obs, t_min))
    error = jump_mass * peak + curvature / 24.0 * cell
    w = float(blyth.mu_posterior_density_sqdist(ctx, obs, ctx.c * obs.s / ctx.m))
    if proc.closed_form_measure is not None:
        ups = float(proc.closed_form_measure(obs.x, obs.s))
    else:
        ups = float(np.sum(vals)) * cell
        error += w * jump_mass
    return EstimateWithError(w * ups - hit, error, vals.size, "quadrature")


def posterior_risk(
    proc: Procedure,
    ctx: BlythContext,
    obs: Observation,
    tol: Tolerance | None = None,
    inner_grid: int | None = None,
) -> EstimateWithError:
    """Posterior expected loss given (x, s), as one integral over mu.

    Procedures do not depend on lambda, so conjugacy closes the
    lambda-integral: the posterior mean of ``r_kappa(t | lambda)`` is the
    posterior density ``pi_kappa`` of mu at squared distance t from
    mu_kappa (``blyth.mu_posterior_density``), and the risk is

        pi_kappa(c s / m) * volume(phi) - integral of phi(mu) pi_kappa(mu) dmu.

    By default the mu-integral is adaptive quadrature over the support box
    to ``tol``, with error (weight * measure error + quadrature error).
    ``inner_grid`` selects instead a vectorized midpoint rule with about
    that many nodes (``tol`` unused), whose error counts the cells where
    ``eval`` jumps, at the largest density on the grid, plus the midpoint
    curvature term; ample for comparing risks that differ at the 1e-3 scale.
    """
    if inner_grid is not None:
        return _grid_risk(proc, ctx, obs, inner_grid)
    if tol is None:
        tol = Tolerance(rel=1e-9, abs=1e-11, max_iter=200)
    center = blyth.mu_kappa(obs.x, ctx.kappa)
    edge = center + math.sqrt(ctx.c * obs.s / ctx.m) * np.eye(ctx.p)[0]
    w = blyth.mu_posterior_density(ctx, obs, edge)
    ups = measure(proc, obs.x, obs.s, tol)

    def g(*mu):
        muv = np.array(mu)
        return float(proc.eval(obs.x, obs.s, muv)) * blyth.mu_posterior_density(ctx, obs, muv)

    hit = integrate_nd(g, *_support_box(proc, obs.x, obs.s), tol)
    return EstimateWithError(w * ups.value - hit.value, w * ups.error + hit.error,
                             ups.n_evals + hit.n_evals, "quadrature")


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


@dataclass(frozen=True)
class RiskReport:
    """A bundle of risk-study results for one context, JSON-serializable."""

    context: BlythContext
    labels: tuple[str, ...]
    coverage_grid: tuple
    bayes_risks: tuple
    risk_difference_mc: EstimateWithError
    risk_difference_closed: float
    k_scaled_difference: float

    def to_dict(self) -> dict:
        def est(e: EstimateWithError) -> dict:
            return {
                "value": e.value,
                "error": e.error,
                "n_evals": e.n_evals,
                "method": e.method,
            }

        return {
            "context": {
                "p": self.context.p,
                "m": self.context.m,
                "c": self.context.c,
                "kappa": self.context.kappa,
                "eps": self.context.eps,
            },
            "labels": list(self.labels),
            "coverage_grid": [
                {"mu": list(mu), "lambda": lam, "label": lab, "estimate": est(e)}
                for (mu, lam, lab, e) in self.coverage_grid
            ],
            "bayes_risks": [
                {"label": lab, "estimate": est(e)} for (lab, e) in self.bayes_risks
            ],
            "risk_difference_mc": est(self.risk_difference_mc),
            "risk_difference_closed": self.risk_difference_closed,
            "k_scaled_difference": self.k_scaled_difference,
        }


def risk_report(
    ctx: BlythContext,
    n: int = 10 ** 5,
    seed: int = 0,
    coverage_points: Sequence[tuple] | None = None,
    workers: int = 1,
) -> RiskReport:
    """Run the standard risk study for one context."""
    procs = [phi0(ctx), phi_kappa(ctx)]
    if coverage_points is None:
        coverage_points = [(np.zeros(ctx.p), 1.0), (np.ones(ctx.p), 2.0)]
    grid = []
    for i, (mu, lam) in enumerate(coverage_points):
        for j, proc in enumerate(procs):
            e = coverage(proc, mu, lam, ctx, n=n, seed=seed + 1000 + 10 * i + j,
                         workers=workers)
            grid.append((tuple(np.asarray(mu, float)), lam, proc.label, e))
    risks = [
        (proc.label, bayes_risk(proc, ctx, n=n, seed=seed + 2000 + j, workers=workers))
        for j, proc in enumerate(procs)
    ]
    mc = risk_difference_mc(ctx, n=n, seed=seed, workers=workers)
    closed = risk_difference_closed(ctx)
    k_scaled = blyth.big_K(ctx) * closed if ctx.kappa > 0 else math.nan
    return RiskReport(
        context=ctx,
        labels=tuple(p.label for p in procs),
        coverage_grid=tuple(grid),
        bayes_risks=tuple(risks),
        risk_difference_mc=mc,
        risk_difference_closed=closed,
        k_scaled_difference=k_scaled,
    )
