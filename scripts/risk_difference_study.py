#!/usr/bin/env python3
"""Compare Monte Carlo and closed-form risk differences across a grid.

For each (p, m, kappa) cell the paired estimator draws common random
numbers for both procedures.  Each draw's coverage tests are pivotal: the
precision, and with it the truncation floor eps, cancels from them, so one
Monte Carlo pass gives a cell's estimate, the same at every eps by
construction, and the table has no eps column.  The test suite checks the
pivot against the tests written with lambda, mu and x.

Example:

    python3 scripts/risk_difference_study.py --n 1000000 --seed 7
"""

import argparse

from ntglab.blyth import BlythContext
from ntglab.risk import default_c, risk_difference_closed, risk_difference_mc, risk_difference_z


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--level", type=float, default=0.95)
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--dofs", type=int, nargs="+", default=[1, 2, 5])
    ap.add_argument("--kappas", type=float, nargs="+", default=[0.25, 1.0])
    args = ap.parse_args()

    print(f"{'p':>2} {'m':>2} {'kappa':>6} {'closed':>12} {'mc':>12} {'se':>10} {'z':>6}")
    for p in args.dims:
        for m in args.dofs:
            c = default_c(p, m, args.level)
            for kappa in args.kappas:
                ctx = BlythContext(p=p, m=m, c=c, kappa=kappa, eps=1.0)
                closed = risk_difference_closed(ctx)
                mc = risk_difference_mc(ctx, n=args.n, seed=args.seed)
                z = risk_difference_z(mc, closed, kappa)
                print(f"{p:2d} {m:2d} {kappa:6.3f} {closed:12.6g} {mc.value:12.6g} "
                      f"{mc.error:10.3g} {z:6.2f}")


if __name__ == "__main__":
    main()
