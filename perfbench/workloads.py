"""The benchmark workloads.

A workload is a function of (seed, output directory) that returns
a list of operations, the *pass*.  An operation is one user-level task: a
call into ntglab and a check of its output against an oracle.  Calls go through module attributes
(``risk.posterior_risk``, not a name bound at import), so the traced run
sees them.  Building the pass (contexts, ``default_c``, data) is the
workload's set-up; the set-up time metric covers it.

Checks that span operations (outputs equal to the first pass's, rivals
against the recentred ball) keep their reference in the closure of the
workload, so a repeated pass is checked against the first one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ntglab import blyth, cli, ntg, regress, risk, verify
from ntglab.blyth import BlythContext, Observation
from ntglab.specfun import Tolerance

import oracles
from harness import CheckFailed


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@dataclass(frozen=True)
class Op:
    """One operation: ``call()`` is timed, ``check(result)`` raises
    ``CheckFailed`` when the result is wrong.  ``raises`` names the
    exceptions of a known, documented defect that the call may raise; any
    other exception makes the run incorrect."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    raises: tuple = ()


LEVEL = 0.95  # credibility level of every ball and region


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(v) for v in rng.integers(0, 2 ** 31, size=k)]


# -- identities ----------------------------------------------------------

IDENTITY_MC_N = 100_000
RISK_CELLS = ((1, 2, 0.5), (1, 5, 1.0), (2, 2, 1.0), (2, 5, 0.25))  # (p, m, kappa)
BLYTH_KAPPAS = (0.2, 0.1, 0.05, 0.025)  # the CLI's default grid
BLYTH_EPS = 1.0  # the CLI's default
Z_MAX = 4.0
CLOSED_RTOL = 1e-9


def build_identities(seed: int, out_dir: Path) -> list[Op]:
    """The short identity checks of ``ntglab.verify`` and the ``risk-diff``
    and ``blyth`` commands, one (p, m, kappa) cell and one seed drawn from
    ``seed`` per group.  From the second pass on, every output is checked to
    equal the first pass's."""
    rng = np.random.default_rng(seed)
    firsts: dict[str, str] = {}

    def same_as_first(key: str, text: str) -> None:
        expect(text == firsts.setdefault(key, text), f"{key}: differs from the first pass")

    def rows_pass(key: str):
        def check(rows):
            rows = rows if isinstance(rows, list) else [rows]
            expect(all(r["pass"] for r in rows), f"{key} does not pass")
            same_as_first(key, json.dumps(rows, sort_keys=True))
        return check

    ops = [
        Op("check_lemma_bigint", lambda: verify.check_lemma_bigint(),
           rows_pass("lemma_bigint")),
        Op("check_lemma_d", lambda: verify.check_lemma_d(), rows_pass("lemma_d")),
    ]
    for vs, (p, m, kappa) in zip(_seeds(rng, len(RISK_CELLS)), RISK_CELLS):
        ops.append(Op(f"check_q_identity seed={vs}", lambda vs=vs: verify.check_q_identity(vs),
                      rows_pass(f"q_identity {vs}")))
        ops.append(Op(f"check_lemma_smoments seed={vs}",
                      lambda vs=vs: verify.check_lemma_smoments(vs, IDENTITY_MC_N),
                      rows_pass(f"lemma_smoments {vs}")))
        c = p * oracles.f_quantile(p, m, LEVEL)
        ops.append(_risk_diff_op(out_dir / f"risk-diff-{vs}.json", vs, p, m, kappa, c,
                                 same_as_first))
        ops.append(_blyth_op(out_dir / f"blyth-p{p}-m{m}.csv", p, m, c, same_as_first))
    return ops


def _risk_diff_op(path: Path, vs: int, p: int, m: int, kappa: float, c: float,
                  same_as_first) -> Op:
    argv = ["risk-diff", "--p", str(p), "--m", str(m), "--kappa", str(kappa), "--eps-sweep",
            "--mc-n", str(IDENTITY_MC_N), "--seed", str(vs), "--output", str(path)]
    closed = oracles.risk_difference(p, m, c, kappa)

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        text = path.read_text()
        report = json.loads(text)
        expect(report["pass"] is True, "report does not pass")
        for row in report["rows"]:
            expect(rel_diff(row["closed"], closed) <= CLOSED_RTOL,
                   f"closed risk difference {row['closed']} vs oracle {closed}")
            expect(row["se"] > 0 and abs(row["mc"] - closed) <= Z_MAX * row["se"],
                   f"Monte Carlo {row['mc']} +- {row['se']} vs oracle {closed}")
        same_as_first(" ".join(argv), text)

    return Op(f"cli risk-diff p={p} m={m} kappa={kappa} seed={vs}", lambda: cli.main(argv),
              check)


def _blyth_op(path: Path, p: int, m: int, c: float, same_as_first) -> Op:
    argv = ["blyth", "--p", str(p), "--m", str(m), "--output", str(path)]

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        text = path.read_text()
        header, *lines = text.splitlines()
        expect(header == "kappa,K,delta_closed,K_times_delta", f"header {header!r}")
        rows = [tuple(map(float, line.split(","))) for line in lines]
        expect(tuple(r[0] for r in rows) == BLYTH_KAPPAS, "kappa grid")
        for kap, k_const, delta, prod in rows:
            k_ref = oracles.big_K(p, m, BLYTH_EPS, kap)
            d_ref = oracles.risk_difference(p, m, c, kap)
            expect(rel_diff(k_const, k_ref) <= CLOSED_RTOL, f"K {k_const} vs oracle {k_ref}")
            expect(rel_diff(delta, d_ref) <= CLOSED_RTOL,
                   f"risk difference {delta} vs oracle {d_ref}")
            expect(rel_diff(prod, k_ref * d_ref) <= 2 * CLOSED_RTOL,
                   f"K * difference {prod} vs oracle {k_ref * d_ref}")
        same_as_first(" ".join(argv), text)

    return Op(f"cli blyth p={p} m={m}", lambda: cli.main(argv), check)


# -- posterior_risk ------------------------------------------------------

# Criterion 09's quadrature tolerance and grid.
POSTERIOR_TOL = Tolerance(rel=1e-6, abs=1e-9, max_iter=200)
INNER_GRID = 65536
RIVAL_SLACK = 1e-8
ORACLE_TOL = 1e-6
RIVAL_FAMILIES = ("scale", "offset", "band")


def _rival(base: risk.Procedure, rng: np.random.Generator, family: str) -> risk.Procedure:
    # Draw perturbation seeds until one gives the wanted family, so each
    # pass holds the same mix of rival kinds whatever the seed.
    while True:
        rival = risk.perturb(base, _seeds(rng, 1)[0])
        if f"+{family}[" in rival.label:
            return rival


def build_posterior_risk(seed: int, out_dir: Path) -> list[Op]:
    """The criterion-09 probe grid with one rival per probe, a p = 2 slice,
    and adaptive-path calls on the recentred ball."""
    rng = np.random.default_rng(seed)
    probes = []  # (ctx, obs, inner_grid)
    for kappa in (0.0, 0.5):
        ctx = BlythContext(p=1, m=2, c=risk.default_c(1, 2, LEVEL), kappa=kappa, eps=1.0)
        for x in (-2.0, 0.0, 2.0):
            for s in (0.5, 1.0, 4.0):
                probes.append((ctx, Observation(x=np.array([x]), s=s), INNER_GRID))
    ctx2 = BlythContext(p=2, m=3, c=risk.default_c(2, 3, LEVEL), kappa=0.5, eps=1.0)
    for x in ((0.0, 0.0), (1.5, -1.0)):
        probes.append((ctx2, Observation(x=np.array(x), s=2.0), INNER_GRID))
    ctx_a = probes[9][0]
    adaptive = [(ctx_a, Observation(x=np.array([x]), s=1.0), None) for x in (-2.0, 2.0)]

    oracle_cache: dict = {}

    def oracle(ctx, obs):
        key = (ctx, obs.x.tobytes(), obs.s)
        if key not in oracle_cache:
            oracle_cache[key] = oracles.ball_posterior_risk(
                ctx.p, ctx.m, ctx.c, ctx.kappa, ctx.eps, obs.x, obs.s)
        return oracle_cache[key]

    ops = []
    best: dict[int, float] = {}
    for i, (ctx, obs, grid) in enumerate(probes + adaptive):
        where = f"p={ctx.p} kappa={ctx.kappa} x={obs.x.tolist()} s={obs.s}"
        path = "grid" if grid else "adaptive"
        ball = risk.phi_kappa(ctx)

        def best_call(ball=ball, ctx=ctx, obs=obs, grid=grid):
            return risk.posterior_risk(ball, ctx, obs, POSTERIOR_TOL, inner_grid=grid)

        def check_best(est, i=i, ctx=ctx, obs=obs):
            ref = oracle(ctx, obs)
            expect(abs(est.value - ref) <= ORACLE_TOL,
                   f"posterior risk {est.value} vs oracle {ref}")
            best[i] = est.value

        ops.append(Op(f"posterior_risk phi_kappa {path} {where}", best_call, check_best))
        if grid is None:
            continue
        rival = _rival(ball, rng, RIVAL_FAMILIES[i % len(RIVAL_FAMILIES)])

        def call(rival=rival, ctx=ctx, obs=obs):
            return risk.posterior_risk(rival, ctx, obs, POSTERIOR_TOL, inner_grid=INNER_GRID)

        def check_rival(est, i=i):
            expect(i in best, "no verified risk of the recentred ball for this probe")
            expect(est.value >= best[i] - RIVAL_SLACK,
                   f"rival risk {est.value} below the recentred ball's {best[i]}")

        ops.append(Op(f"posterior_risk {rival.label} {where}", call, check_rival))
    return ops


# -- regress_posterior ---------------------------------------------------

REGRESS_SIZES = (20, 50, 100, 200, 500, 2000, 10000)
REGRESS_COLUMNS = 3
REGRESS_KAPPA = 0.5
REGRESS_EPS = 0.5
DENSITY_GRID = 64
POSTERIOR_DRAWS = 32
CANDIDATES = 16
DENSITY_RTOL = 1e-8
# The densities and the sampler raise OverflowError once m is a few hundred
# (ROADMAP direction 3); at and above this m their operations may raise it.
OVERFLOW_M = 400


def _check_densities(values, log_refs, what: str) -> None:
    for v, lr in zip(values, log_refs):
        expect(math.isfinite(v) and v > 0, f"{what} density {v}")
        expect(abs(math.log(v) - lr) <= DENSITY_RTOL,
               f"{what} density {v} vs oracle {math.exp(lr)}")


def _regression_ops(rng: np.random.Generator, n: int, p: int) -> list[Op]:
    d = REGRESS_COLUMNS
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    beta = rng.uniform(-1.0, 1.0, size=d)
    data = regress.RegressionData(Z=Z, y=Z @ beta + rng.standard_normal(n))
    m = n - d
    ctx = BlythContext(p=p, m=m, c=risk.default_c(p, m, LEVEL), kappa=REGRESS_KAPPA,
                       eps=REGRESS_EPS)
    directions = rng.standard_normal((CANDIDATES, p))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    # Radii as a share of the boundary radius, kept clear of the boundary.
    shares = np.concatenate([rng.uniform(0.0, 0.95, CANDIDATES // 2),
                             rng.uniform(1.05, 2.0, CANDIDATES - CANDIDATES // 2)])
    draw_seed = _seeds(rng, 1)[0]
    state: dict = {}
    tag = f"n={n} p={p}"

    def fit():
        f = regress.ols(data, p)
        region = regress.standard_region(f, p, LEVEL)
        x, s, m_fit = regress.reduce_to_location_scale(f, p)
        return f, region, x, s, m_fit

    def check_fit(out):
        f, region, x, s, m_fit = out
        expect(m_fit == m, f"m = {m_fit}, expected {m}")
        expect(rel_diff(s, m * f.sigma2_hat) <= 1e-12, "s is not m * sigma2_hat")
        S = np.asarray(f.S_p, dtype=float)
        bh = f.beta_hat[:p]
        expect(rel_diff(float(x @ x), float(bh @ np.linalg.solve(S, bh))) <= 1e-9,
               "reduced x is not a whitening of beta_hat")
        c = p * oracles.f_quantile(p, m, LEVEL)
        expect(rel_diff(region.threshold, c * f.sigma2_hat) <= 1e-9,
               f"threshold {region.threshold} vs oracle {c * f.sigma2_hat}")
        # With S = L L', mu = L^{-1} b whitens the region, so the reduced
        # ball ||mu - L^{-1} beta_hat||^2 < c s / m holds exactly when
        # b = beta_hat + L u r has r^2 < c s / m.
        L = np.linalg.cholesky(S)
        radius = math.sqrt(c * s / m)
        for u, share in zip(directions, shares):
            b = bh + L @ (u * share * radius)
            expect(region.contains(b) == (share < 1.0),
                   f"region and reduced ball disagree at share {share:.3f}")
        state["fit"] = (x, s)

    def fitted():
        if "fit" not in state:
            raise RuntimeError("no verified fit for this regression")
        return state["fit"]

    def bk_of(x, s):
        return oracles.beta_kappa(x, s, REGRESS_KAPPA)

    def mu_grid():
        x, s = fitted()
        obs = Observation(x=x, s=s)
        center = blyth.mu_kappa(x, REGRESS_KAPPA)
        steps = np.linspace(0.0, 4.0, DENSITY_GRID) * math.sqrt(s / m)
        points = [center + t * np.eye(p)[0] for t in steps]
        return x, s, steps, [blyth.mu_posterior_density(ctx, obs, mu) for mu in points]

    def check_mu(out):
        x, s, steps, vals = out
        bk = bk_of(x, s)
        _check_densities(vals, [oracles.log_mu_posterior(p, m, REGRESS_KAPPA, REGRESS_EPS,
                                                         bk, t * t) for t in steps], "mu")

    lams = REGRESS_EPS * (1.0 + np.linspace(0.02, 4.0, DENSITY_GRID))

    def lam_grid():
        x, s = fitted()
        obs = Observation(x=x, s=s)
        return x, s, [blyth.lambda_posterior_density(ctx, obs, float(v)) for v in lams]

    def check_lam(out):
        x, s, vals = out
        bk = bk_of(x, s)
        _check_densities(vals, [oracles.log_lambda_posterior(m, REGRESS_EPS, bk, float(v))
                                for v in lams], "lambda")

    scales = np.linspace(0.5, 2.0, DENSITY_GRID)

    def q_grid():
        x, s = fitted()
        return x, s, [blyth.q_obs(ctx, Observation(x=x, s=s * float(k))) for k in scales]

    def check_q(out):
        x, s, vals = out
        refs = []
        for k in scales:
            sk = s * float(k)
            refs.append(oracles.log_q_obs(m, REGRESS_EPS, bk_of(x, sk), sk))
        _check_densities(vals, refs, "q_obs")

    def marginal_grid():
        x, s = fitted()
        prior = blyth.prior_params(ctx)
        return x, s, [ntg.marginal_obs_density(prior, m, x, s * float(k)) for k in scales]

    def check_marginal(out):
        x, s, vals = out
        refs = []
        for k in scales:
            sk = s * float(k)
            refs.append(oracles.log_marginal_obs(p, m, REGRESS_KAPPA, REGRESS_EPS,
                                                 bk_of(x, sk), sk))
        _check_densities(vals, refs, "marginal obs")

    def sample():
        x, s = fitted()
        post = ntg.posterior_update(blyth.prior_params(ctx), x, s, m)
        gen = np.random.default_rng(draw_seed)
        return x, s, [ntg.sample_prior(post, gen) for _ in range(POSTERIOR_DRAWS)]

    def check_sample(out):
        # sample_prior takes u = rng.random() for the precision by inverse
        # CDF, then rng.standard_normal(p) for the location.
        x, s, draws = out
        bk = bk_of(x, s)
        gen = np.random.default_rng(draw_seed)
        for draw in draws:
            u = gen.random()
            z = gen.standard_normal(p)
            lam = oracles.truncated_gamma_isf(0.5 * m, bk, REGRESS_EPS, u)
            expect(rel_diff(draw.lam, lam) <= 1e-8, f"precision {draw.lam} vs oracle {lam}")
            mu = x / (1.0 + REGRESS_KAPPA) + z / math.sqrt((1.0 + REGRESS_KAPPA) * draw.lam)
            expect(np.allclose(draw.mu, mu, rtol=1e-10, atol=1e-12), "location draw")

    raises = (OverflowError,) if m >= OVERFLOW_M else ()
    return [
        Op(f"fit {tag}", fit, check_fit),
        Op(f"mu_posterior_density grid {tag}", mu_grid, check_mu, raises),
        Op(f"lambda_posterior_density grid {tag}", lam_grid, check_lam, raises),
        Op(f"q_obs grid {tag}", q_grid, check_q, raises),
        Op(f"marginal_obs_density grid {tag}", marginal_grid, check_marginal, raises),
        Op(f"sample_prior x{POSTERIOR_DRAWS} {tag}", sample, check_sample, raises),
    ]


def build_regress_posterior(seed: int, out_dir: Path) -> list[Op]:
    """Synthetic regressions from n = 20 to 10^4 rows, p in {1, 2}: fit,
    posterior densities on grids, and posterior draws."""
    rng = np.random.default_rng(seed)
    ops = []
    for n in REGRESS_SIZES:
        for p in (1, 2):
            ops.extend(_regression_ops(rng, n, p))
    return ops


WORKLOADS = {
    "identities": build_identities,
    "posterior_risk": build_posterior_risk,
    "regress_posterior": build_regress_posterior,
}
