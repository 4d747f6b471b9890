"""End-to-end acceptance gate.

One test per contract criterion; each prints a single PASS/FAIL line with
the governing quantity, straight to the terminal (bypassing capture), and
fails the usual pytest way when the bound is violated.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstwobign

from ntglab import ntg
from ntglab.blyth import BlythContext, Observation, big_K, likelihood, prior_params
from ntglab.cli import EXIT_OK, main
from ntglab.ntg import LocationScale, NtGParams
from ntglab.numint import mc_estimate
from ntglab.regress import RegressionData, ols, reduce_to_location_scale, standard_region
from ntglab.risk import (
    blyth_scaling,
    default_c,
    perturb,
    phi_kappa,
    posterior_risk,
    risk_difference_closed,
    risk_difference_mc,
)
from ntglab.specfun import Tolerance, f_cdf, f_quantile
from ntglab.verify import lemma_smoments_check

from reference import inclusion, joint_quadrature, lemma_bigint_check, lemma_d_check, phi0
from test_risk import _separate_risk_difference  # the model-space oracle

_QTOL = Tolerance(rel=1e-9, abs=1e-12, max_iter=200)
_FAST = Tolerance(rel=1e-6, abs=1e-9, max_iter=200)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_risk_difference_identity(capsys):
    worst_z = 0.0
    worst_cell = None
    slowest = 0.0
    for p in (1, 2):
        for m in (1, 2, 5):
            for kappa in (0.25, 1.0):
                c = p * f_quantile(p, m, 0.95)
                ctx = BlythContext(p=p, m=m, c=c, kappa=kappa, eps=1.0)
                start = time.monotonic()
                est = risk_difference_mc(ctx, n=10 ** 6, seed=2024)
                elapsed = time.monotonic() - start
                slowest = max(slowest, elapsed)
                z = abs(est.value - risk_difference_closed(ctx)) / est.error
                if z > worst_z:
                    worst_z, worst_cell = z, (p, m, kappa)
    ok = worst_z <= 3.0 and slowest < 60.0
    _report(
        capsys, 1, ok,
        f"paired MC vs closed form on 12 cells: worst |z| = {worst_z:.2f} "
        f"at {worst_cell} (<= 3), slowest cell {slowest:.1f}s (< 60s)",
    )


def test_criterion_02_eps_independence(capsys):
    # The pivotal estimate, the same at every eps, against the oracle that
    # tests each eps in terms of lambda, mu and x, on the same seed and draws.
    c = 2.0 * f_quantile(2, 2, 0.95)
    worst = 0.0
    for eps in (0.5, 1.0, 2.0):
        ctx = BlythContext(p=2, m=2, c=c, kappa=1.0, eps=eps)
        pivot = risk_difference_mc(ctx, n=10 ** 6, seed=7)
        model = _separate_risk_difference(ctx, n=10 ** 6, seed=7)
        se = math.hypot(pivot.error, model.error)
        worst = max(worst, abs(pivot.value - model.value) / se)
    ok = worst <= 3.0
    _report(
        capsys, 2, ok,
        f"risk difference at eps in (0.5, 1, 2), common seed: worst |z| of the "
        f"pivotal estimate vs the per-eps model-space one = {worst:.2f} (<= 3)",
    )


def test_criterion_03_scaling_trichotomy(capsys):
    worst = 0.0
    for p in (1, 2, 3):
        c = p * f_quantile(p, 2, 0.95)
        rows = blyth_scaling(p, 2, c, 1.0, [0.2, 0.1, 0.05, 0.025])
        scaled = [row[3] for row in rows]
        target = 2.0 ** (0.5 * p - 1.0)
        for a, b in zip(scaled, scaled[1:]):
            worst = max(worst, abs((b / a) / target - 1.0))
    ok = worst <= 0.10
    _report(
        capsys, 3, ok,
        f"(K*delta)(kappa/2)/(K*delta)(kappa) vs 2^(p/2-1), p in 1..3: "
        f"worst deviation {worst:.3f} (<= 0.10)",
    )


def test_criterion_04_conjugacy_oracle(capsys):
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(5):
        params = NtGParams(
            p=1,
            mu0=rng.normal(size=1),
            kappa0=float(rng.uniform(0.5, 2.0)),
            alpha0=float(rng.uniform(0.5, 2.0)),
            beta0=float(rng.uniform(0.5, 2.0)),
            eps0=float(rng.uniform(0.2, 1.0)),
        )
        m = int(rng.integers(1, 6))
        x = rng.normal(size=1)
        s = float(rng.uniform(0.5, 3.0))
        updated = ntg.posterior_update(params, x, s, m)
        evidence = joint_quadrature(
            params, _QTOL, lambda mu, lam: likelihood(x, s, np.array([mu]), lam, m)
        )
        for _ in range(20):
            lam = params.eps0 + float(rng.uniform(0.05, 3.0))
            mu = updated.mu0 + rng.normal(size=1) / math.sqrt(updated.kappa0 * lam)
            point = LocationScale(mu=mu, lam=lam)
            direct = ntg.prior_density(updated, point)
            bayes = likelihood(x, s, point.mu, lam, m) * ntg.prior_density(
                params, point
            ) / evidence
            worst = max(worst, abs(direct / bayes - 1.0))
    ok = worst <= 1e-5
    _report(
        capsys, 4, ok,
        f"updated density vs likelihood*prior/quadrature-evidence, 5 pairs "
        f"x 20 probes: worst rel error {worst:.2e} (<= 1e-5)",
    )


def test_criterion_05_marginal_identities(capsys):
    rng = np.random.default_rng(52)
    params = NtGParams(
        p=1, mu0=np.array([0.3]), kappa0=1.2, alpha0=0.8, beta0=1.1, eps0=0.5
    )
    m = 2
    worst = 0.0
    quad_tol = dict(epsabs=_QTOL.abs, epsrel=_QTOL.rel, limit=_QTOL.max_iter)

    # mu marginal at random probes vs lambda-quadrature.
    for _ in range(5):
        mu = float(rng.normal()) * 1.5
        direct = ntg.marginal_mu_density(params, np.array([mu]))
        via_quad = integrate.quad(
            lambda lam, mu=mu: ntg.prior_density(
                params, LocationScale(np.array([mu]), lam)
            ),
            params.eps0, math.inf, **quad_tol,
        )[0]
        worst = max(worst, abs(direct / via_quad - 1.0))

    # lambda marginal at random probes vs mu-quadrature.
    width = 12.0 / math.sqrt(params.kappa0 * params.eps0) + 5.0
    for _ in range(5):
        lam = params.eps0 + float(rng.uniform(0.05, 3.0))
        direct = ntg.marginal_lambda_density(params, lam)
        via_quad = integrate.quad(
            lambda mu, lam=lam: ntg.prior_density(
                params, LocationScale(np.array([mu]), lam)
            ),
            -width, width, **quad_tol,
        )[0]
        worst = max(worst, abs(direct / via_quad - 1.0))

    # observable marginal at random probes vs joint quadrature.
    for _ in range(5):
        x = rng.normal(size=1)
        s = float(rng.uniform(0.3, 3.0))
        direct = ntg.marginal_obs_density(params, m, x, s)
        via_quad = joint_quadrature(
            params, _QTOL, lambda mu, lam: likelihood(x, s, np.array([mu]), lam, m)
        )
        worst = max(worst, abs(direct / via_quad - 1.0))

    # Normalization of each marginal.
    norms = []
    norms.append(integrate.quad(
        lambda mu: ntg.marginal_mu_density(params, np.array([mu])),
        -math.inf, math.inf, **quad_tol,
    )[0])
    norms.append(integrate.quad(
        lambda lam: ntg.marginal_lambda_density(params, lam),
        params.eps0, math.inf, **quad_tol,
    )[0])

    def over_s(x):
        return integrate.quad(
            lambda s: ntg.marginal_obs_density(params, m, np.array([x]), s),
            0.0, math.inf, **quad_tol,
        )[0]

    norms.append(integrate.quad(over_s, -math.inf, math.inf, **quad_tol)[0])
    worst_norm = max(abs(v - 1.0) for v in norms)
    ok = worst <= 1e-5 and worst_norm <= 1e-5
    _report(
        capsys, 5, ok,
        f"three marginals vs quadrature: worst rel error {worst:.2e} "
        f"(<= 1e-5), worst normalization defect {worst_norm:.2e} (<= 1e-5)",
    )


def test_criterion_06_quadratic_spherical_integral(capsys):
    worst = 0.0
    for tup in ((1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3)):
        numeric, closed = lemma_bigint_check(*tup)
        worst = max(worst, abs(numeric.value / closed - 1.0))
    _, closed_pi = lemma_bigint_check(2, 1, 1, 3)
    exact_pi = abs(closed_pi - math.pi) < 1e-15
    # (2, 0, 0, 2) makes the closed-form denominator vanish and the integral
    # log-divergent at the origin; the library rejects it as out of domain.
    with pytest.raises(ValueError):
        lemma_bigint_check(2, 0, 0, 2)
    ok = worst <= 1e-4 and exact_pi
    _report(
        capsys, 6, ok,
        f"weighted-ball integrals vs closed form: worst rel error {worst:.2e} "
        f"(<= 1e-4); (2,1,1,3) closed value is pi exactly; divergent tuple "
        f"(2,0,0,2) rejected as a domain error",
    )


def test_criterion_07_scale_moment(capsys):
    mc, closed = lemma_smoments_check(2, 2, eps=1.0, n=10 ** 6, seed=71)
    z = abs(mc.value - closed) / mc.error
    a, _ = lemma_smoments_check(2, 2, eps=1.0, n=10 ** 6, seed=72)
    b, _ = lemma_smoments_check(2, 2, eps=1.0, n=10 ** 6, seed=73)
    z_pair = abs(a.value - b.value) / math.hypot(a.error, b.error)
    ok = abs(closed - 1.0) < 1e-14 and z <= 3.0 and z_pair <= 3.0
    _report(
        capsys, 7, ok,
        f"E[s^(p/2)] at (p,m,eps)=(2,2,1): closed value {closed:g}, "
        f"MC |z| = {z:.2f} (<= 3), two-seed |z| = {z_pair:.2f} (<= 3)",
    )


def test_criterion_08_vanishing_cap_ratio(capsys):
    worst = 0.0
    for p, g in ((1, 1.0), (2, 1.0), (2, 2.0)):
        table = lemma_d_check(p, g)
        _, ratio, limit = table[-1]
        worst = max(worst, abs(ratio / limit - 1.0))
    ok = worst <= 0.05
    _report(
        capsys, 8, ok,
        f"cap-integral ratio at delta = 1e-3 vs closed limit: worst "
        f"deviation {worst:.4f} (<= 0.05)",
    )


def test_criterion_09_posterior_risk_optimality(capsys):
    worst_gap = -math.inf
    for kappa in (0.0, 0.5):
        ctx = BlythContext(
            p=1, m=2, c=default_c(1, 2, 0.95), kappa=kappa, eps=1.0
        )
        for x in (-2.0, 0.0, 2.0):
            for s in (0.5, 1.0, 4.0):
                obs = Observation(x=np.array([x]), s=s)
                best = posterior_risk(
                    phi_kappa(ctx), ctx, obs, _FAST, inner_grid=65536
                ).value
                for seed in range(20):
                    rival = perturb(phi_kappa(ctx), seed)
                    rv = posterior_risk(
                        rival, ctx, obs, _FAST, inner_grid=65536
                    ).value
                    worst_gap = max(worst_gap, best - rv)
    ok = worst_gap <= 1e-8
    _report(
        capsys, 9, ok,
        f"posterior risk of the recentered ball vs 20 perturbations x 9 "
        f"probes, kappa in (0, 0.5): worst excess {worst_gap:.2e} (<= 1e-8)",
    )


def test_criterion_10_pivot_distribution(capsys):
    n = 10 ** 5
    critical = float(kstwobign.ppf(0.99)) / math.sqrt(n)
    worst = 0.0
    rng = np.random.default_rng(101)
    for p, m in ((1, 3), (2, 4)):
        mu = rng.normal(size=p)
        lam = float(rng.uniform(0.5, 2.0))
        x = mu + rng.standard_normal((n, p)) / math.sqrt(lam)
        s = rng.chisquare(m, n) / lam
        pivots = np.sort((np.sum((x - mu) ** 2, axis=1) / p) / (s / m))
        cdf = np.array([f_cdf(p, m, t) for t in pivots])
        grid = np.arange(1, n + 1) / n
        d = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        worst = max(worst, d)
    ok = worst <= critical
    _report(
        capsys, 10, ok,
        f"KS of 1e5 pivots vs F CDF for (p,m) in ((1,3),(2,4)): worst "
        f"D = {worst:.5f} (<= 1% critical {critical:.5f})",
    )


def test_criterion_11_q_identity(capsys):
    rng = np.random.default_rng(111)
    worst = 0.0
    for kappa in (0.1, 1.0):
        ctx = BlythContext(p=2, m=3, c=2.0, kappa=kappa, eps=0.8)
        params = prior_params(ctx)
        k_const = big_K(ctx)
        for _ in range(100):
            lam = ctx.eps + float(rng.uniform(0.01, 5.0))
            mu = rng.normal(size=2)
            from ntglab.blyth import q_joint, q_obs

            lhs = q_joint(ctx, mu, lam)
            rhs = k_const * ntg.prior_density(
                params, LocationScale(mu=mu, lam=lam)
            )
            worst = max(worst, abs(lhs / rhs - 1.0))
            obs = Observation(
                x=rng.normal(size=2) * 2.0, s=float(rng.uniform(0.2, 4.0))
            )
            lhs = q_obs(ctx, obs)
            rhs = k_const * ntg.marginal_obs_density(params, ctx.m, obs.x, obs.s)
            worst = max(worst, abs(lhs / rhs - 1.0))
    ok = worst <= 1e-10
    _report(
        capsys, 11, ok,
        f"q = K * p at 100 parameter and 100 observable points, kappa in "
        f"(0.1, 1): worst rel error {worst:.2e} (<= 1e-10)",
    )


def test_criterion_12_regression_round_trip(capsys):
    # Membership equivalence on 1000 candidates, exactly.
    rng = np.random.default_rng(121)
    Z = rng.normal(size=(40, 3))
    y = Z @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(40)
    data = RegressionData(Z=Z, y=y)
    p, level = 2, 0.9
    fit = ols(data, p)
    region = standard_region(fit, p, level)
    x, s, m = reduce_to_location_scale(fit, p)
    ctx = BlythContext(p=p, m=m, c=default_c(p, m, level), kappa=0.0, eps=1.0)
    proc = phi0(ctx)
    T = np.linalg.cholesky(np.linalg.inv(fit.S_p)).T
    mismatches = 0
    included = 0
    for _ in range(1000):
        b = fit.beta_hat[:p] + rng.normal(size=p) * math.sqrt(fit.sigma2_hat)
        direct = region.contains(b)
        mapped = bool(inclusion(proc, x, s, T @ b))
        mismatches += direct != mapped
        included += direct

    # Fixed fixture: p = 1 interval vs the classical t-interval.
    from scipy.stats import t as student_t

    Zf = np.column_stack([np.ones(8), np.arange(8.0)])
    yf = np.array([1.0, 1.9, 3.2, 3.9, 5.1, 6.2, 6.8, 8.1])
    fitf = ols(RegressionData(Z=Zf, y=yf), 1)
    lo, hi = standard_region(fitf, 1, 0.95).interval()
    se = math.sqrt(fitf.sigma2_hat * fitf.S_p[0, 0])
    tcrit = float(student_t.ppf(0.975, fitf.m))
    t_err = max(
        abs(lo - (fitf.beta_hat[0] - tcrit * se)),
        abs(hi - (fitf.beta_hat[0] + tcrit * se)),
    )
    ok = mismatches == 0 and 0 < included < 1000 and t_err <= 1e-9
    _report(
        capsys, 12, ok,
        f"region membership vs reduced-ball membership: {mismatches}/1000 "
        f"mismatches (= 0, {included} inside); t-interval endpoint error "
        f"{t_err:.2e} (<= 1e-9)",
    )


def test_criterion_13_determinism(capsys, report_cores):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a.json"
        b = Path(tmp) / "b.json"
        code_a = main(["verify", "--seed", "17", "--mc-n", "2000",
                       "--output", str(a)])
        code_b = main(["verify", "--seed", "17", "--mc-n", "2000",
                       "--output", str(b)])
        identical = (
            code_a == EXIT_OK and code_b == EXIT_OK
            and a.read_bytes() == b.read_bytes()
        )
        report = json.loads(a.read_text())

    def sampler(rng, size, ws):
        return rng.standard_normal(size) ** 2

    report_cores(1)
    one = mc_estimate(sampler, 300_000, seed=13)
    report_cores(4)
    four = mc_estimate(sampler, 300_000, seed=13)
    workers_ok = one == four
    ok = identical and workers_ok and report["schema"] == "ntg-lab/3"
    _report(
        capsys, 13, ok,
        f"verify reports byte-identical for one seed: {identical}; MC "
        f"numbers identical across worker counts: {workers_ok}",
    )


def test_criterion_14_certified_optimality_p2(capsys):
    # Two coefficients: no rival may beat the recentred ball by more than
    # the two risks' own quadrature errors.
    worst_margin, worst_excess, largest_error = math.inf, -math.inf, 0.0
    for kappa in (0.0, 0.5):
        ctx = BlythContext(
            p=2, m=3, c=default_c(2, 3, 0.95), kappa=kappa, eps=1.0
        )
        for x in ((-2.0, 0.0), (0.0, 0.0), (1.5, -1.0)):
            for s in (0.5, 1.0, 4.0):
                obs = Observation(x=np.array(x), s=s)
                best = posterior_risk(phi_kappa(ctx), ctx, obs)
                for seed in range(20):
                    rv = posterior_risk(perturb(phi_kappa(ctx), seed), ctx, obs)
                    worst_margin = min(
                        worst_margin, rv.value - best.value + best.error + rv.error)
                    worst_excess = max(worst_excess, best.value - rv.value)
                    largest_error = max(largest_error, best.error, rv.error)
    ok = worst_margin >= 0.0 and math.isfinite(largest_error)
    _report(
        capsys, 14, ok,
        f"p = 2 posterior risk of the recentered ball vs 20 perturbations x 9 "
        f"probes, kappa in (0, 0.5): worst excess {worst_excess:.2e}, worst "
        f"margin over the combined error {worst_margin:.2e} (>= 0), largest "
        f"error {largest_error:.2e}",
    )
