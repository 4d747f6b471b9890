"""Closed-loop operation runner and the arithmetic of the end-to-end metrics."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

# Tail levels in per mille, highest first.
TAIL_LEVELS = (999, 990, 950, 900, 750)
TAIL_MIN_BEYOND = 10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CheckFailed(Exception):
    """An output missed its oracle."""


@dataclass(frozen=True)
class OpResult:
    """``outcome`` is "ok", "raised" (the call raised an exception that the
    operation declares in ``raises``: a known defect), "error" (the call
    raised any other exception) or "check" (the output missed its oracle,
    or the check itself raised)."""

    pass_index: int
    op_index: int
    label: str
    seconds: float
    outcome: str
    detail: str = ""


@dataclass(frozen=True)
class Run:
    results: list
    passes: int
    elapsed: float  # wall time of the whole loop, checks included


def run_ops(ops, seconds: float, clock=time.perf_counter, on_op=None, before_pass=None,
            min_passes: int = 1) -> Run:
    """Run the pass ``ops`` in a closed loop, one operation at a time.

    Only whole passes run, so every run measures the same mix of
    operations.  The first ``min_passes`` passes always run; another starts
    only if a pass as long as the last one still ends within ``seconds``.
    Only the call is timed; the check runs after the clock stops.
    ``before_pass(k)`` is called before pass ``k`` and ``on_op(i)`` before
    operation ``i`` of the run.
    """
    results: list[OpResult] = []
    walls: list[float] = []
    start = clock()
    while True:
        if before_pass is not None:
            before_pass(len(walls))
        pass_start = clock()
        for j, op in enumerate(ops):
            if on_op is not None:
                on_op(len(results))
            where = (len(walls), j, op.label)
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation, not a harness crash
                outcome = "raised" if isinstance(exc, tuple(op.raises)) else "error"
                results.append(OpResult(*where, clock() - t0, outcome,
                                        f"{type(exc).__name__}: {exc}"))
                continue
            took = clock() - t0
            try:
                op.check(out)
            except CheckFailed as exc:
                results.append(OpResult(*where, took, "check", str(exc)))
            except Exception as exc:
                results.append(OpResult(*where, took, "check",
                                        f"check raised {type(exc).__name__}: {exc}"))
            else:
                results.append(OpResult(*where, took, "ok"))
        walls.append(clock() - pass_start)
        if len(walls) >= min_passes and clock() - start + walls[-1] > seconds:
            return Run(results, len(walls), clock() - start)


def correct(results) -> bool:
    """False when an output missed its oracle or a call raised an exception
    its operation does not declare."""
    return all(r.outcome in ("ok", "raised") for r in results)


def tail(values):
    """The highest of ``TAIL_LEVELS`` with at least ten samples above it.

    Returns (level in per mille, value, samples beyond) or None when there
    are too few samples for any level.
    """
    xs = sorted(values)
    n = len(xs)
    for level in TAIL_LEVELS:
        rank = -(-level * n // 1000)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return level, xs[rank - 1], n - rank
    return None


def best_times(results, outcome=None) -> dict[int, float]:
    """Each operation's fastest call over the run's passes, by operation
    index; with ``outcome``, over the calls with that outcome only."""
    best: dict[int, float] = {}
    for r in results:
        if outcome is None or r.outcome == outcome:
            best[r.op_index] = min(best.get(r.op_index, math.inf), r.seconds)
    return best


def best_wall(results) -> float:
    """Time of one pass with every operation at its fastest call."""
    return math.fsum(best_times(results).values())


def fail_ratio(results) -> float:
    """Operations that raised or missed their check, per operation attempted."""
    if not results:
        raise ValueError("no operations attempted")
    return sum(r.outcome != "ok" for r in results) / len(results)


def end_to_end(run: Run) -> dict:
    """End-to-end metrics of one untraced run as ``{name: (value, unit)}``,
    with the sample counts behind them.

    Each operation runs once per pass, and its time is its fastest call
    over the passes: other load on the machine only ever adds time, and the
    fastest call is the one it disturbed least.  Latency percentiles cover
    verified operations only, and throughput counts only them, over the
    time of all calls: an operation that fails cannot make the program look
    faster.
    """
    wall = best_wall(run.results)
    ok = list(best_times(run.results, "ok").values())
    verified_per_pass = sum(r.outcome == "ok" for r in run.results) / run.passes
    out = {
        "wall_s": (wall, "s"),
        "ops_per_s": (verified_per_pass / wall if wall else 0.0, "1/s"),
        "fail_ratio": (fail_ratio(run.results), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if ok:
        out["op_p50_ms"] = (statistics.median(ok) * 1e3, "ms")
        t = tail(ok)
        if t is not None:
            level, value, beyond = t
            out["op_tail_ms"] = (value * 1e3, "ms")
            out["op_tail_level"] = (level / 10, "percentile")
            out["op_tail_beyond"] = (beyond, "count")
    out["ops_verified"] = (len(ok), "count")
    out["passes"] = (run.passes, "count")
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cap_thread_pools(nproc: int) -> dict:
    """Cap the BLAS/OpenMP pools at ``nproc`` through the environment; must
    run before numpy is imported.  Returns the values in force."""
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var)
        value = nproc if current is None or not current.isdigit() else min(int(current), nproc)
        os.environ[var] = str(max(value, 1))
        caps[var] = int(os.environ[var])
    return caps


def _openblas_threads():
    import ctypes
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = [n for n in os.listdir(libs) if "openblas" in n]
    except OSError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc: int, caps: dict) -> dict:
    """nproc, CPU, versions and thread-pool sizes."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
        "openblas_threads": _openblas_threads(),
    }
