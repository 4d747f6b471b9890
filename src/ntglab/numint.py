"""Numerical integration and Monte Carlo engine.

* ``integrate_1d``: adaptive 1-D quadrature on finite intervals and on
  (a, inf), raising ``QuadratureError`` when it misses its tolerance;
* ``mc_estimate``: chunked Monte Carlo with a standard error, run on every
  core of the affinity mask and bit-identical for any core count.

Both return an ``EstimateWithError``.  What is integrated lives with its
callers: the identity checks in ``verify``, the risks in ``risk``.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
) -> EstimateWithError:
    """Adaptive quadrature of f over (a, b), where b may be +inf.

    An infinite upper limit is mapped to (0, 1) by the rational
    substitution ``t = a + u/(1-u)``.  A -inf limit raises ValueError.
    """
    from scipy.integrate import quad  # here, so that importing ntglab loads no scipy

    if a == -math.inf or b == -math.inf:
        raise ValueError(f"integrate_1d takes no -inf limit, got ({a}, {b})")
    if tol is None:
        tol = Tolerance(rel=1e-10, abs=1e-12, max_iter=200)
    limit = max(tol.max_iter, 50)
    if b == math.inf:
        def g(u: float) -> float:
            w = 1.0 - u
            if w <= 0.0:
                return 0.0
            return f(a + u / w) / (w * w)

        lo, hi = 0.0, 1.0
    else:
        g, lo, hi = f, a, b
    val, err, info = quad(
        g, lo, hi, epsabs=tol.abs, epsrel=tol.rel, limit=limit, full_output=True,
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
) -> EstimateWithError:
    """Sample mean with standard error, chunked into fixed substreams.

    ``sampler(rng, size)`` returns the values of ``size`` draws.  The work is
    split into fixed-size chunks, each driven by its own spawned seed
    sequence, so the result is bit-identical for any worker count.
    The values must be one-dimensional, one per draw.

    The chunks run on the caller's thread and those of one shared pool, one
    per core of the process's affinity mask and at most one per chunk.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)  # no affinity mask on macOS or Windows
    n_chunks = (n + _MC_CHUNK - 1) // _MC_CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)  # independent of scheduling
    sizes = [min(_MC_CHUNK, n - i * _MC_CHUNK) for i in range(n_chunks)]
    results: list = [None] * n_chunks
    chunks = iter(range(n_chunks))  # the shared counter; next() on it is atomic

    def drain() -> None:
        for i in chunks:
            vals = np.asarray(sampler(np.random.default_rng(seeds[i]), sizes[i]), dtype=float)
            if vals.ndim != 1:
                raise ValueError(f"mc_estimate needs one value per draw, got shape {vals.shape}")
            vals = np.ascontiguousarray(vals)
            mean = float(vals.sum()) / vals.size
            results[i] = vals.size, mean, float(np.square(vals - mean).sum())

    helpers = [_pool().submit(drain) for _ in range(min(workers, n_chunks) - 1)]
    try:
        drain()
    finally:
        # The caller has claimed every chunk left: a helper still queued is
        # cancelled, not awaited, so nested and concurrent calls cannot
        # deadlock on a busy pool.  A running one is awaited and re-raises.
        for helper in helpers:
            if not helper.cancel():
                helper.result()

    # Merge per-chunk (count, mean, sum of squared deviations) in chunk
    # order, so the result does not depend on timing (Chan, Golub and
    # LeVeque 1983); unlike sum(x^2)/n - mean^2 this does not cancel when
    # the mean dwarfs the spread.
    count, mean, m2 = results[0]
    for nb, mean_b, m2_b in results[1:]:
        delta = mean_b - mean
        total = count + nb
        mean += delta * nb / total
        m2 += m2_b + delta * delta * count * nb / total
        count = total
    se = math.sqrt(m2 / count / count)
    return EstimateWithError(value=mean, error=se, n_evals=n, method="monte_carlo")


@functools.cache
def _pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(thread_name_prefix="ntglab-mc")  # threads start on first use
