#!/usr/bin/env python3
"""Time the Monte Carlo layer: draws per second of the paired risk difference.

Prints one JSON object: the draws per second of
``risk.risk_difference_mc`` at the four (p, m, kappa) cells of the
benchmark's ``identities`` workload (c at the 95% F quantile), at --n
draws, run on one worker and on the default, every core of the process's
affinity mask.  The one-worker figure pins the calling thread to one core
of its mask, as ``taskset -c 0`` pins a process, so the chunks run inline.
Each figure is the best of timed rounds within --seconds, so it measures
the code and not the machine's noise; the machine facts go with it.

Example:

    PYTHONPATH=src python3 scripts/mc_layer_bench.py --seconds 2
"""

import argparse
import functools
import json
import os
import platform
import time

import numpy as np

from ntglab.blyth import BlythContext
from ntglab.risk import risk_difference_mc
from ntglab.specfun import f_quantile

# (p, m, kappa) of the identities workload's risk-diff operations.
CELLS = ((1, 2, 0.5), (1, 5, 1.0), (2, 2, 1.0), (2, 5, 0.25))


def _best_seconds(call, budget: float) -> float:
    # Best time of one call over rounds run until the budget is spent, after
    # one untimed call that starts the pool's threads.
    call()
    best, deadline = float("inf"), time.perf_counter() + budget
    while best == float("inf") or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="timing budget of each figure")
    ap.add_argument("--n", type=int, default=10 ** 6, help="draws per estimate")
    args = ap.parse_args()

    rates, mask = {}, os.sched_getaffinity(0)
    for p, m, kappa in CELLS:
        ctx = BlythContext(p=p, m=m, c=p * f_quantile(p, m, 0.95), kappa=kappa, eps=1.0)
        estimate = functools.partial(risk_difference_mc, ctx, args.n, 0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            one = _best_seconds(estimate, args.seconds)
        finally:
            os.sched_setaffinity(0, mask)
        rates[f"p={p},m={m},kappa={kappa:g}"] = {
            "workers=1": round(args.n / one),
            "default": round(args.n / _best_seconds(estimate, args.seconds)),
        }
    print(json.dumps({
        "machine": {
            "nproc": len(mask),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seconds_per_figure": args.seconds,
        "n": args.n,
        "draws_per_s": rates,
    }, indent=1))


if __name__ == "__main__":
    main()
