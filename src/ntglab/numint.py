"""Numerical integration and Monte Carlo engine.

* ``gauss_legendre``: the one quadrature rule, Gauss-Legendre rules with n
  and 2n nodes on rows of finite pieces, n doubling until their difference
  meets the tolerance, raising ``QuadratureError`` when it cannot;
* ``mc_estimate``: chunked Monte Carlo with a standard error, run on every
  core of the affinity mask and bit-identical for any core count.

Both return an ``EstimateWithError``.  What is integrated lives with its
callers: the identity checks in ``verify``, the risks in ``risk``.  A
caller maps an infinite range onto a finite one or cuts it, with a bound
of the tail it cuts.
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

__all__ = ["EstimateWithError", "QuadratureError", "gauss_legendre", "mc_estimate"]

_MC_CHUNK = 1 << 16
_RULE_START = 32  # nodes of the first Gauss-Legendre rule
_RULE_CAP = 1 << 10  # largest rule the doubling may reach


class QuadratureError(RuntimeError):
    """Quadrature failed to meet its tolerance or gave a non-finite sum.

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


def gauss_legendre(f: Callable, lo, hi, coef, tol: Tolerance,
                   rounding: float) -> EstimateWithError:
    """``offset + sum_i coef_i int g`` over finite pieces (lo_i, hi_i), by
    Gauss-Legendre rules with n and 2n nodes, n doubling from 32.

    Each piece is mapped from (0, 1) by ``r = lo + (hi - lo)(1 - cos pi u)/2``,
    which clusters the nodes at both ends.  Each round calls ``f(r, w)`` once
    on nodes and weights (k, 3n), per piece the n-node rule, then the 2n; it
    returns ``(w g(r), offset, evaluations made)``.  The value is the 2n-node
    sum; n doubles while ``sum_i |coef_i| |G_2n,i - G_n,i|`` exceeds
    ``tol.abs + tol.rel |value|``, and a non-finite sum, or a rule past
    ``_RULE_CAP`` nodes, raises ``QuadratureError``.  The two rules share f's
    values, so the reported error adds f's relative error ``rounding`` times
    the magnitudes summed, ``|offset| + sum_i |coef_i G_2n,i|``.
    """
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    n, n_evals = _RULE_START, 0
    while True:
        cos_map, sin_pi_u, gl = _rule_pair(n)
        r = lo + (hi - lo) * cos_map
        w = (hi - lo) * (0.5 * math.pi) * sin_pi_u * gl
        terms, offset, evals = f(r, w)
        n_evals += evals
        coarse, fine = np.sum(terms[:, :n], axis=-1), np.sum(terms[:, n:], axis=-1)
        value = float(offset + np.sum(coef * fine))
        error = float(np.sum(np.abs(coef * (fine - coarse))))
        if not (math.isfinite(value) and math.isfinite(error)):
            raise QuadratureError("quadrature sum is not finite", partial=(value, error))
        if error <= tol.abs + tol.rel * abs(value):
            magnitude = abs(offset) + np.sum(np.abs(coef * fine))
            return EstimateWithError(value, error + rounding * float(magnitude), n_evals,
                                     "quadrature")
        n *= 2
        if 2 * n > _RULE_CAP:
            raise QuadratureError(
                f"quadrature error {error:.3e} above tolerance at {n // 2}- and {n}-node rules",
                partial=(value, error))


@functools.cache
def _rule_pair(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The n- and then the 2n-node Gauss-Legendre rule on (0, 1), as
    # (1 - cos pi u)/2, sin pi u and the weights; built on first use, not at
    # import.
    rules = (np.polynomial.legendre.leggauss(k) for k in (n, 2 * n))
    nodes, weights = map(np.concatenate, zip(*rules))
    u = 0.5 * (nodes + 1.0)
    return 0.5 - 0.5 * np.cos(math.pi * u), np.sin(math.pi * u), 0.5 * weights


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
