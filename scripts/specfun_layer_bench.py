#!/usr/bin/env python3
"""Time the special-function layer: Gamma(a, x) branch by branch, and the F distribution.

Prints one JSON object: the microseconds per call of each scalar branch of
``specfun.upper_incomplete_gamma`` (series, continued fraction, Temme's
expansion, the small-shape series and the downward recurrence), each at
the points listed in ``SCALAR_POINTS``; of ``specfun.f_cdf`` and
``specfun.f_quantile`` at the points listed in ``F_POINTS``; the
microseconds per element of
``specfun.upper_incomplete_gamma_array`` on arrays that lie wholly on the
series side (x < a + 1) or the continued-fraction side (x >= a + 1),
with the peak bytes per element that one such call allocates (as
``tracemalloc`` sees numpy's buffers).  Each time is the best of timed
rounds within --seconds, so it measures the code and not the machine's
noise; the machine facts go with it.

Example:

    PYTHONPATH=src python3 scripts/specfun_layer_bench.py --seconds 0.5
"""

import argparse
import json
import os
import platform
import time
import tracemalloc

import numpy as np

from ntglab import specfun

# (a, x) points of each scalar branch, as upper_incomplete_gamma picks it.
SCALAR_POINTS = {
    "series": ((1.5, 0.7), (10.5, 6.0)),
    "continued_fraction": ((1.5, 4.0), (10.5, 20.0), (-1.5, 3.0)),
    "temme": ((48.5, 40.0), (120.0, 130.0)),
    "small_shape": ((0.25, 0.5), (-0.3, 0.5)),
    "recurrence": ((-2.5, 0.3), (-3.0, 0.3)),
}
# (d1, d2, t) points of f_cdf and (d1, d2, q) points of f_quantile: one
# denominator degree of freedom, a small m, and m = 9997 as
# regress_posterior's largest fits meet it.
F_POINTS = {
    "f_cdf": ((3, 1, 0.7), (2, 5, 1.0), (1, 9997, 3.84)),
    "f_quantile": ((2, 5, 0.95), (1, 9997, 0.95)),
}
# Shapes of the array figures: (m + p)/2 for small m, as posterior_risk
# meets them, and one shape below Temme's window at a = 20.
ARRAY_SHAPES = (1.5, 10.5)


def _best_seconds(call, budget: float) -> float:
    # Best time per call over rounds of ``number`` calls, each round about
    # a millisecond or more, run until the budget is spent.
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        took = time.perf_counter() - start
        if took >= 1e-3 or number >= 1 << 20:
            break
        number *= 2
    best, deadline = took / number, time.perf_counter() + budget
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _peak_bytes(call) -> int:
    # Peak bytes allocated during one call.
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _side(a: float, size: int, side: str) -> np.ndarray:
    # size points spread over one side of the split at x = a + 1.
    edge = a + 1.0
    if side == "series":
        return np.geomspace(1e-3 * edge, edge, size, endpoint=False)
    return np.geomspace(edge, 5.0 * edge, size)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=0.25,
                    help="timing budget of each figure")
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 4096],
                    help="array lengths of the per-element figures")
    args = ap.parse_args()

    scalar = {}
    for branch, points in SCALAR_POINTS.items():
        scalar[branch] = {
            f"{a:g},{x:g}": round(1e6 * _best_seconds(
                lambda a=a, x=x: specfun.upper_incomplete_gamma(a, x), args.seconds), 3)
            for a, x in points
        }
    f_dist = {}
    for name, points in F_POINTS.items():
        f_dist[name] = {
            f"{d1},{d2},{v:g}": round(1e6 * _best_seconds(
                lambda fn=getattr(specfun, name), d1=d1, d2=d2, v=v: fn(d1, d2, v),
                args.seconds), 3)
            for d1, d2, v in points
        }
    array, peak = {}, {}
    for side in ("series", "continued_fraction"):
        array[side], peak[side] = {}, {}
        for a in ARRAY_SHAPES:
            for size in args.sizes:
                x = _side(a, size, side)
                call = lambda a=a, x=x: specfun.upper_incomplete_gamma_array(a, x)
                key = f"a={a:g},n={size}"
                array[side][key] = round(1e6 * _best_seconds(call, args.seconds) / size, 4)
                peak[side][key] = round(_peak_bytes(call) / size, 1)
    print(json.dumps({
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seconds_per_figure": args.seconds,
        "scalar_us_per_call": scalar,
        "f_us_per_call": f_dist,
        "array_us_per_element": array,
        "array_peak_bytes_per_element": peak,
    }, indent=1))


if __name__ == "__main__":
    main()
