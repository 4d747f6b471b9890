"""Command-line entry point.

Subcommands:

* ``verify``     -- run the identity suites and emit a JSON report,
* ``risk-diff``  -- closed-form vs. Monte Carlo risk difference; neither
  reads eps, so with ``--eps-sweep`` the one estimate fills every eps row,
* ``blyth``      -- the scaling table over a kappa grid, as CSV,
* ``regress``    -- OLS plus the standard confidence region from a CSV file.

Exit codes: 0 pass, 1 check failure, 2 I/O error (including a data file
that cannot be read or fitted), 64 usage error, including a number the
configuration rejects (a negative eps, an mc-n below 1000, a K overflow).
Reports embed the resolved configuration and are byte-identical for a
given configuration and seed.  The environment variable ``NTGLAB_SEED``
supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import regress, risk, verify
from .blyth import BlythContext
from .risk import blyth_scaling, default_c, risk_difference_closed, risk_difference_mc

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_USAGE = 64

SCHEMA = "ntg-lab/3"

__all__ = ["main", "RunConfig"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration, embedded verbatim in every report."""

    seed: int
    mc_n: int

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.mc_n < 1000:
            raise ValueError(
                "mc_n below 1000 would make Monte Carlo results meaningless; refusing"
            )

    def to_dict(self) -> dict:
        return {"seed": self.seed, "mc_n": self.mc_n}


def _run_config(args) -> RunConfig:
    try:
        seed = int(os.environ.get("NTGLAB_SEED", "0")) if args.seed is None else args.seed
        return RunConfig(seed=seed, mc_n=args.mc_n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_verify(args) -> int:
    config = _run_config(args)
    checks = verify.run_all(config.seed, config.mc_n)
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "config": config.to_dict(),
        "checks": checks,
        "pass": all_pass,
    }
    _emit(_report_json(payload), args.output)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _valid_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise _UsageError(f"level must lie in (0, 1), got {level}")
    return level


def _context(args, kappa: float, eps: float) -> BlythContext:
    # The experiment the arguments describe: an argument it rejects is a
    # usage error, while an error in computing the default c propagates.
    if args.p < 1 or args.m < 1:
        raise _UsageError(f"p and m must be >= 1, got p={args.p}, m={args.m}")
    c = args.c if args.c is not None else default_c(args.p, args.m, _valid_level(args.level))
    try:
        return BlythContext(p=args.p, m=args.m, c=c, kappa=kappa, eps=eps)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_risk_diff(args) -> int:
    config = _run_config(args)
    ctx = _context(args, args.kappa, args.eps)
    closed = risk_difference_closed(ctx)  # eps enters neither side
    mc = risk_difference_mc(ctx, n=config.mc_n, seed=config.seed)
    z = risk.risk_difference_z(mc, closed, ctx.kappa)
    rows = [
        {"eps": eps, "closed": closed, "mc": mc.value, "se": mc.error, "n": mc.n_evals, "z": z}
        for eps in ([0.5, 1.0, 2.0] if args.eps_sweep else [args.eps])
    ]
    ok = abs(z) <= 4.0
    payload = {
        "schema": SCHEMA,
        "command": "risk-diff",
        "config": config.to_dict(),
        "context": {"p": args.p, "m": args.m, "c": ctx.c, "kappa": args.kappa},
        "rows": rows,
        "max_abs_z": abs(z),
        "pass": ok,
    }
    _emit(_report_json(payload), args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_blyth(args) -> int:
    try:
        kappa_grid = [float(k) for k in args.kappa_grid.split(",") if k.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad kappa grid: {exc}") from None
    if not kappa_grid:
        raise _UsageError("empty kappa grid")
    if not all(0.0 < k < math.inf for k in kappa_grid):
        raise _UsageError(f"kappa grid entries must be positive and finite, got {kappa_grid}")
    c = _context(args, kappa_grid[0], args.eps).c
    try:
        rows = blyth_scaling(args.p, args.m, c, args.eps, kappa_grid)
    except OverflowError:  # Gamma(m/2) or the power in K leaves the double range
        raise _UsageError(f"K overflows at p={args.p}, m={args.m}, eps={args.eps}") from None
    lines = ["kappa,K,delta_closed,K_times_delta"]
    for kap, k_const, delta, prod in rows:
        lines.append(f"{kap!r},{k_const!r},{delta!r},{prod!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_regress(args) -> int:
    p = args.coef_count
    if p not in (1, 2):
        raise _UsageError(f"coef-count must be 1 or 2, got {p}")
    _valid_level(args.level)
    try:
        data = regress.load_csv(args.csv, args.response, intercept=args.intercept)
        fit = regress.ols(data, p)
    except FileNotFoundError:
        print(f"error: no such file: {args.csv}", file=sys.stderr)
        return EXIT_IO
    except regress.CsvFormatError as exc:  # names the file, row and column
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # data that OLS cannot fit
        print(f"error: {args.csv}: cannot fit --coef-count {p}: {exc}", file=sys.stderr)
        return EXIT_IO
    region = regress.standard_region(fit, p, args.level)
    result = {
        "schema": SCHEMA,
        "command": "regress",
        "config": {
            "csv": args.csv,
            "response": args.response,
            "coef_count": p,
            "level": args.level,
            "intercept": args.intercept,
        },
        "beta_hat": [float(b) for b in fit.beta_hat],
        "sigma2_hat": fit.sigma2_hat,
        "m": fit.m,
        "region": {
            "center": [float(b) for b in region.center],
            "shape": [[float(v) for v in row] for row in region.shape],
            "threshold": region.threshold,
            "level": region.level,
        },
    }
    if p == 1:
        lo, hi = region.interval()
        result["interval"] = [lo, hi]
    if args.json:
        _emit(_report_json(result), args.output)
    else:
        out = [
            "beta_hat: " + " ".join(f"{b:.10g}" for b in fit.beta_hat),
            f"sigma2_hat: {fit.sigma2_hat:.10g}  (m = {fit.m})",
        ]
        if p == 1:
            out.append(
                f"{100 * args.level:.12g}% interval for coefficient 1: "
                f"[{lo:.10g}, {hi:.10g}]"
            )
        else:
            out.append(
                f"{100 * args.level:.12g}% ellipse: center="
                + " ".join(f"{b:.10g}" for b in region.center)
                + f" threshold={region.threshold:.10g}"
            )
            out.append("shape: " + repr([list(map(float, r)) for r in region.shape]))
        _emit("\n".join(out) + "\n", args.output)
    return EXIT_OK


@functools.cache  # one parser per process; NTGLAB_SEED is read per command
def _build_parser() -> _Parser:
    parser = _Parser(prog="ntglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the identity suites")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--mc-n", type=int, default=100_000)
    pv.add_argument("--output", default=None)
    pv.set_defaults(func=cmd_verify)

    ball = _Parser(add_help=False)  # the experiment risk-diff and blyth share
    ball.add_argument("--p", type=int, required=True)
    ball.add_argument("--m", type=int, required=True)
    ball.add_argument("--c", type=float, default=None)
    ball.add_argument("--level", type=float, default=0.95)
    ball.add_argument("--eps", type=float, default=1.0)
    ball.add_argument("--output", default=None)

    pr = sub.add_parser("risk-diff", parents=[ball], help="closed vs. MC risk difference")
    pr.add_argument("--kappa", type=float, required=True)
    pr.add_argument("--eps-sweep", action="store_true")
    pr.add_argument("--mc-n", type=int, default=1_000_000)
    pr.add_argument("--seed", type=int, default=None)
    pr.set_defaults(func=cmd_risk_diff)

    pb = sub.add_parser("blyth", parents=[ball], help="scaling table over a kappa grid")
    pb.add_argument("--kappa-grid", default="0.2,0.1,0.05,0.025")
    pb.set_defaults(func=cmd_blyth)

    pg = sub.add_parser("regress", help="OLS and standard confidence region")
    pg.add_argument("--csv", required=True)
    pg.add_argument("--response", required=True)
    pg.add_argument("--coef-count", type=int, default=1)
    pg.add_argument("--level", type=float, default=0.95)
    pg.add_argument("--intercept", action="store_true")
    pg.add_argument("--json", action="store_true")
    pg.add_argument("--output", default=None)
    pg.set_defaults(func=cmd_regress)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, IOError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
