#!/usr/bin/env python3
"""Compare Monte Carlo and closed-form risk differences across a grid.

For each (p, m, kappa) cell the paired estimator draws common random
numbers for both procedures, so the truncation floor eps cancels exactly;
pass --eps-sweep to demonstrate that the estimate is bit-identical across
eps values under one seed.  The eps values of a cell share one Monte Carlo
pass: each chunk is drawn once, and each draw's pivotal test, in which the
precision cancels, serves every eps.

Example:

    python3 scripts/risk_difference_study.py --n 1000000 --seed 7 --eps-sweep
"""

import argparse

from ntglab.blyth import BlythContext
from ntglab.risk import (
    default_c, risk_difference_closed, risk_difference_sweep, risk_difference_z,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--level", type=float, default=0.95)
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--dofs", type=int, nargs="+", default=[1, 2, 5])
    ap.add_argument("--kappas", type=float, nargs="+", default=[0.25, 1.0])
    ap.add_argument("--eps-sweep", action="store_true",
                    help="repeat each cell at eps in (0.5, 1, 2)")
    args = ap.parse_args()

    eps_values = [0.5, 1.0, 2.0] if args.eps_sweep else [1.0]
    print(f"{'p':>2} {'m':>2} {'kappa':>6} {'eps':>5} {'closed':>12} "
          f"{'mc':>12} {'se':>10} {'z':>6}")
    for p in args.dims:
        for m in args.dofs:
            c = default_c(p, m, args.level)
            for kappa in args.kappas:
                ctx = BlythContext(p=p, m=m, c=c, kappa=kappa, eps=eps_values[0])
                closed = risk_difference_closed(ctx)
                sweep = risk_difference_sweep(ctx, eps_values, n=args.n, seed=args.seed)
                for eps, mc in zip(eps_values, sweep):
                    z = risk_difference_z(mc, closed, kappa)
                    print(f"{p:2d} {m:2d} {kappa:6.3f} {eps:5.2f} "
                          f"{closed:12.6g} {mc.value:12.6g} "
                          f"{mc.error:10.3g} {z:6.2f}")


if __name__ == "__main__":
    main()
