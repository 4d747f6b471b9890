"""Numerical integration and Monte Carlo engine.

* ``integrate_1d``: adaptive 1-D quadrature on finite, semi-infinite and
  doubly infinite intervals, raising ``QuadratureError`` when it misses
  its tolerance;
* ``mc_estimate``: chunked Monte Carlo with a standard error, bit-identical
  for any worker count; its private row form gives several estimates on
  each chunk's shared draws;
* numeric checks of the appendix-style integral identities, each reduced
  to 1-D radial and angular quadratures by the quadratic spherical
  parameterization ``t = r^2 cos^2(theta)``, ``||z|| = r sin(theta)``:

  - a weighted integral of ``t^a ||z||^{2b} Gamma(g, t+||z||^2)/(t+||z||^2)^g``
    with a closed-form value (``lemma_bigint_check``),
  - a small-``delta`` limit of the same kind of integral restricted to the
    cone ``||z||^2 delta > t`` (``lemma_d_check``), and
  - a closed-form moment of the scale statistic under the hierarchical
    prior, by Monte Carlo (``lemma_smoments_check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .specfun import log_gamma, upper_incomplete_gamma, Tolerance

__all__ = [
    "EstimateWithError",
    "QuadratureError",
    "integrate_1d",
    "lemma_bigint_check",
    "lemma_d_check",
    "lemma_smoments_check",
    "mc_estimate",
]

_MC_CHUNK = 1 << 16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance.

    ``partial`` carries the best available (value, error) pair.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class EstimateWithError:
    """A numeric result with an error estimate and an evaluation count.

    ``error`` is a standard error for Monte Carlo results and an error
    bound for quadrature results.
    """

    value: float
    error: float
    n_evals: int
    method: str  # "quadrature" or "monte_carlo"

    def __post_init__(self) -> None:
        if self.error < 0:
            raise ValueError("error estimate must be nonnegative")
        if self.n_evals < 1:
            raise ValueError("n_evals must be >= 1")
        if self.method not in ("quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance | None = None,
    points: Sequence[float] | None = None,
) -> EstimateWithError:
    """Adaptive quadrature of f over (a, b); either limit may be infinite.

    A semi-infinite upper limit is mapped to (0, 1) by the rational
    substitution ``t = a + u/(1-u)``; a lower one mirrors it, and the
    doubly-infinite line uses ``t = u/(1-u^2)`` over (-1, 1).
    """
    if tol is None:
        tol = Tolerance(rel=1e-10, abs=1e-12, max_iter=200)
    limit = max(tol.max_iter, 50)
    kwargs = {}
    if a == -math.inf and b == math.inf:
        def g(u: float) -> float:
            w = 1.0 - u * u
            if w <= 0.0:
                return 0.0
            return f(u / w) * (1.0 + u * u) / (w * w)

        lo, hi = -1.0, 1.0
    elif a == -math.inf or b == math.inf:
        end, sign = (a, 1.0) if b == math.inf else (b, -1.0)

        def g(u: float) -> float:
            w = 1.0 - u
            if w <= 0.0:
                return 0.0
            return f(end + sign * u / w) / (w * w)

        lo, hi = 0.0, 1.0
    else:
        g, lo, hi = f, a, b
        if points:
            kwargs["points"] = [p for p in points if a < p < b]
    val, err, info = quad(
        g, lo, hi, epsabs=tol.abs, epsrel=tol.rel, limit=limit,
        full_output=True, **kwargs,
    )[:3]
    neval = int(info["neval"])
    if not math.isfinite(val):
        raise QuadratureError(
            f"quadrature returned non-finite value on ({a}, {b})",
            partial=(val, err),
        )
    if err > tol.abs + tol.rel * abs(val) and err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(
            f"quadrature error {err:.3e} above tolerance on ({a}, {b})",
            partial=(val, err),
        )
    return EstimateWithError(value=val, error=err, n_evals=neval, method="quadrature")


def _sphere_area(p: int) -> float:
    # Surface area of the unit sphere in R^p (2 points for p = 1).
    return 2.0 * math.pi ** (0.5 * p) / math.exp(log_gamma(0.5 * p))


def _radial_weighted(g: float, r_pow: float) -> EstimateWithError:
    # integral over r in (0, inf) of 2 r^r_pow * Gamma(g, r^2), split at 1 to
    # isolate the possible algebraic singularity at the origin.  The factor 2
    # belongs to the Jacobian 2 r^2 cos(theta) of the (t, rho) -> (r, theta)
    # change of variables.
    def f(r: float) -> float:
        return 2.0 * r ** r_pow * upper_incomplete_gamma(g, r * r)

    lo = integrate_1d(f, 0.0, 1.0)
    hi = integrate_1d(f, 1.0, math.inf)
    return EstimateWithError(
        value=lo.value + hi.value,
        error=lo.error + hi.error,
        n_evals=lo.n_evals + hi.n_evals,
        method="quadrature",
    )


def lemma_bigint_check(p: int, alpha: float, beta: float, gamma_: float):
    """Numeric vs. closed-form value of the weighted (t, z)-integral.

    Numeric side: the integrand ``t^alpha ||z||^{2 beta}
    Gamma(gamma, t+||z||^2) / (t+||z||^2)^gamma`` over (0, inf) x R^p,
    reduced to a radial and an angular 1-D quadrature via the quadratic
    spherical parameterization (t = r^2 cos^2 th, ||z|| = r sin th).

    Closed side: ``pi^{p/2} Gamma(alpha+1) Gamma(beta+p/2)
    / ((alpha+beta-gamma+1+p/2) Gamma(p/2))``.

    Returns (numeric: EstimateWithError, closed: float).
    """
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
    radial = _radial_weighted(gamma_, r_pow)

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
    radial = _radial_weighted(gamma_, 1.0)
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

    mc = mc_estimate(sampler, None, n, seed)
    closed = (
        0.5
        * (0.5 * eps) ** (-0.5 * p)
        * math.exp(log_gamma(0.5 * (m + p)) - log_gamma(0.5 * p))
    )
    return mc, closed


def _mc_chunk_seeds(seed: int, n_chunks: int):
    # Deterministic per-chunk seed sequences, independent of scheduling.
    return np.random.SeedSequence(seed).spawn(n_chunks)


def mc_estimate(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    integrand: Callable[[np.ndarray], np.ndarray] | None,
    n: int,
    seed: int,
    workers: int = 1,
) -> EstimateWithError:
    """Sample mean with standard error, chunked into fixed substreams.

    ``sampler(rng, size)`` draws ``size`` samples; ``integrand`` maps them to
    values (pass None if the sampler already returns values).  The work is
    split into fixed-size chunks, each driven by its own spawned seed
    sequence, so the result is bit-identical for any worker count.
    The values must be one-dimensional, one per draw.
    """

    def rows(rng: np.random.Generator, size: int) -> np.ndarray:
        vals = sampler(rng, size)
        if integrand is not None:
            vals = integrand(vals)
        vals = np.asarray(vals, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"mc_estimate needs one value per draw, got shape {vals.shape}")
        return vals[None, :]

    return _mc_estimate_rows(rows, n, seed, workers)[0]


def _mc_estimate_rows(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    seed: int,
    workers: int = 1,
) -> list[EstimateWithError]:
    # Row form of mc_estimate: sampler(rng, size) returns (k, size) values,
    # k estimates on each chunk's shared draws.  Every row is summed as a
    # contiguous 1-D array and merged on its own, so each estimate is
    # bit-identical to an mc_estimate call whose sampler returns that row.
    if n < 1:
        raise ValueError("n must be >= 1")
    n_chunks = (n + _MC_CHUNK - 1) // _MC_CHUNK
    seeds = _mc_chunk_seeds(seed, n_chunks)
    sizes = [min(_MC_CHUNK, n - i * _MC_CHUNK) for i in range(n_chunks)]

    def run_chunk(i: int):
        rng = np.random.default_rng(seeds[i])
        vals = np.ascontiguousarray(sampler(rng, sizes[i]), dtype=float)
        stats = []
        for row in vals:
            mean = float(row.sum()) / row.size
            stats.append((row.size, mean, float(np.square(row - mean).sum())))
        return stats

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        results = [run_chunk(i) for i in range(n_chunks)]

    # Merge per-chunk (count, mean, sum of squared deviations) in chunk
    # order, so the result does not depend on timing (Chan, Golub and
    # LeVeque 1983); unlike sum(x^2)/n - mean^2 this does not cancel when
    # the mean dwarfs the spread.
    estimates = []
    for row_stats in zip(*results):
        count, mean, m2 = row_stats[0]
        for nb, mean_b, m2_b in row_stats[1:]:
            delta = mean_b - mean
            total = count + nb
            mean += delta * nb / total
            m2 += m2_b + delta * delta * count * nb / total
            count = total
        se = math.sqrt(m2 / count / count)
        estimates.append(EstimateWithError(value=mean, error=se, n_evals=n, method="monte_carlo"))
    return estimates
