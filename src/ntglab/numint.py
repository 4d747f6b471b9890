"""Numerical integration and Monte Carlo engine.

* ``integrate_1d``: adaptive 1-D quadrature on finite, semi-infinite and
  doubly infinite intervals, raising ``QuadratureError`` when it misses
  its tolerance;
* ``mc_estimate``: chunked Monte Carlo with a standard error, bit-identical
  for any worker count; its private row form gives several estimates on
  each chunk's shared draws.

Both return an ``EstimateWithError``.  What is integrated lives with its
callers: the identity checks in ``verify``, the risks in ``risk``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .specfun import Tolerance

__all__ = ["EstimateWithError", "QuadratureError", "integrate_1d", "mc_estimate"]

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


def mc_estimate(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    seed: int,
    workers: int = 1,
) -> EstimateWithError:
    """Sample mean with standard error, chunked into fixed substreams.

    ``sampler(rng, size)`` returns the values of ``size`` draws.  The work is
    split into fixed-size chunks, each driven by its own spawned seed
    sequence, so the result is bit-identical for any worker count.
    The values must be one-dimensional, one per draw.
    """

    def rows(rng: np.random.Generator, size: int) -> np.ndarray:
        vals = np.asarray(sampler(rng, size), dtype=float)
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
    # Row form of mc_estimate: sampler(rng, size) returns k rows of size
    # values, k estimates on each chunk's shared draws.  Every row is summed
    # as a contiguous 1-D array and merged on its own, so each estimate is
    # bit-identical to an mc_estimate call whose sampler returns that row.
    # A row the sampler returns more than once, as the same array object,
    # is summarised once.
    if n < 1:
        raise ValueError("n must be >= 1")
    n_chunks = (n + _MC_CHUNK - 1) // _MC_CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)  # independent of scheduling
    sizes = [min(_MC_CHUNK, n - i * _MC_CHUNK) for i in range(n_chunks)]

    def run_chunk(i: int):
        rng = np.random.default_rng(seeds[i])
        rows = list(sampler(rng, sizes[i]))  # kept alive, so id() names a row
        summaries = {}
        for row in rows:
            if id(row) not in summaries:
                vals = np.ascontiguousarray(row, dtype=float)
                mean = float(vals.sum()) / vals.size
                summaries[id(row)] = (vals.size, mean, float(np.square(vals - mean).sum()))
        return [summaries[id(row)] for row in rows]

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
