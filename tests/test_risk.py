import math

import numpy as np
import pytest
from scipy import integrate, special

from ntglab import blyth
from ntglab.blyth import BlythContext, Observation
from ntglab.numint import EstimateWithError, integrate_1d
from ntglab.risk import (
    Procedure,
    ball_volume,
    bayes_risk,
    blyth_scaling,
    coverage,
    default_c,
    loss,
    perturb,
    phi0,
    phi_kappa,
    posterior_risk,
    risk_difference_closed,
    risk_difference_mc,
    risk_difference_z,
)
from ntglab.specfun import Tolerance, f_cdf


def _ctx(**kw):
    defaults = dict(p=2, m=2, c=2.0, kappa=1.0, eps=1.0)
    defaults.update(kw)
    return BlythContext(**defaults)


def _nested_posterior_risk(proc, ctx, obs, tol, inner_grid):
    # Reference posterior risk that does not use the conjugate closed form
    # of the lambda-integral: an outer quadrature over lambda of
    #   r_kappa(c s / m | lambda) * volume - integral of eval * r_kappa(t | lambda),
    # against the posterior density of lambda.  The mu-integral and the
    # volume use the same midpoint grid as posterior_risk.
    center = blyth.mu_kappa(obs.x, ctx.kappa)
    k1 = 1.0 + ctx.kappa
    c, r = proc.support(obs.x, obs.s)
    lo, hi = np.atleast_1d(c - r), np.atleast_1d(c + r)
    n_axis = max(2, int(round(inner_grid ** (1.0 / ctx.p))))
    axes = [
        lo[j] + (hi[j] - lo[j]) * (np.arange(n_axis) + 0.5) / n_axis
        for j in range(ctx.p)
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ctx.p)
    cell = float(np.prod((hi - lo) / n_axis))
    d2 = np.sum((mesh - center) ** 2, axis=-1)
    vals = np.asarray(proc.eval(obs.x, np.full(mesh.shape[0], obs.s), mesh), float)
    ups = float(np.sum(vals)) * cell

    def inner(lam):
        dens = (k1 * lam / (2.0 * math.pi)) ** (0.5 * ctx.p) * np.exp(
            -0.5 * k1 * lam * d2
        )
        hit = float(np.sum(vals * dens)) * cell
        return blyth.r_kappa(ctx.c * obs.s / ctx.m, lam, ctx) * ups - hit

    return integrate_1d(
        lambda lam: blyth.lambda_posterior_density(ctx, obs, lam) * inner(lam),
        ctx.eps, math.inf, tol,
    ).value


def _log_mu_posterior(ctx, obs, t):
    # ln of the posterior density of mu at squared distance t from
    # x / (1 + kappa), from scipy's incomplete gamma rather than specfun.
    def log_upper_gamma(a, z):
        return math.log(special.gammaincc(a, z)) + special.gammaln(a)

    k1 = 1.0 + ctx.kappa
    bk = 0.5 * (obs.s + ctx.kappa / k1 * float(np.sum(np.square(obs.x))))
    a = 0.5 * (ctx.m + ctx.p)
    b = bk + 0.5 * k1 * t
    return (0.5 * ctx.p * math.log(k1 / (2.0 * math.pi)) + 0.5 * ctx.m * math.log(bk)
            - log_upper_gamma(0.5 * ctx.m, ctx.eps * bk)
            + log_upper_gamma(a, ctx.eps * b) - a * math.log(b))


def _radial_ball_risk(ctx, obs):
    # Posterior risk of phi_kappa: the density on the boundary times the
    # ball's volume, minus the ball's posterior mass by radial quadrature.
    r2 = ctx.c * obs.s / ctx.m
    area = 2.0 * math.pi ** (0.5 * ctx.p) / math.gamma(0.5 * ctx.p)

    def shell(r):
        return area * r ** (ctx.p - 1) * math.exp(_log_mu_posterior(ctx, obs, r * r))

    mass = integrate.quad(shell, 0.0, math.sqrt(r2), epsabs=1e-14, epsrel=1e-12)[0]
    return math.exp(_log_mu_posterior(ctx, obs, r2)) * area * r2 ** (0.5 * ctx.p) / ctx.p - mass


def _split_reference(proc, ctx, obs):
    # p = 1 posterior risk of any procedure: locate the jumps of eval by
    # bisection, then integrate phi * (w - pi_kappa) piece by piece, phi
    # being constant on each piece.
    center, radius = proc.support(obs.x, obs.s)
    lo, hi = float(center[0] - radius), float(center[0] + radius)

    def ev(u):
        return float(proc.eval(obs.x, obs.s, np.array([u])))

    coarse = np.linspace(lo, hi, 2001)
    cuts = [lo]
    for a, b in zip(coarse, coarse[1:]):
        va = ev(a)
        if ev(b) != va:
            for _ in range(64):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if ev(mid) == va else (a, mid)
            cuts.append(0.5 * (a + b))
    cuts.append(hi)
    mid_k = float(obs.x[0]) / (1.0 + ctx.kappa)
    w = math.exp(_log_mu_posterior(ctx, obs, ctx.c * obs.s / ctx.m))
    tight = Tolerance(rel=1e-13, abs=1e-15, max_iter=200)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        phi = ev(0.5 * (a + b))
        if phi:
            total += phi * integrate_1d(
                lambda u: w - math.exp(_log_mu_posterior(ctx, obs, (u - mid_k) ** 2)),
                a, b, tight,
            ).value
    return total


def _rival(base, family):
    # The first perturbation of the requested family: scale, offset or band.
    for seed in range(100):
        rival = perturb(base, seed)
        if f"+{family}[" in rival.label:
            return rival
    raise AssertionError(f"no {family} rival in 100 seeds")


class TestBallVolume:
    def test_low_dimensions(self):
        assert ball_volume(1, 4.0) == pytest.approx(4.0, rel=1e-14)  # 2r, r=2
        assert ball_volume(2, 2.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_vectorized(self):
        r2 = np.array([1.0, 4.0])
        out = ball_volume(2, r2)
        assert np.allclose(out, [math.pi, 4.0 * math.pi])


class TestProcedures:
    def test_phi0_membership(self):
        ctx = _ctx(p=2, m=2, c=2.0)
        proc = phi0(ctx)
        x = np.array([1.0, 0.0])
        s = 2.0  # squared radius c*s/m = 2
        assert proc.eval(x, s, np.array([1.0, 0.0])) == 1.0
        assert proc.eval(x, s, np.array([1.0, 1.4])) == 1.0
        assert proc.eval(x, s, np.array([1.0, 1.5])) == 0.0

    def test_phi_kappa_center_shrinks(self):
        ctx = _ctx(p=1, m=2, c=2.0, kappa=1.0)
        proc = phi_kappa(ctx)
        x = np.array([2.0])
        s = 0.01
        # Center is x/(1+kappa) = 1; x itself is outside the tiny ball.
        assert proc.eval(x, s, np.array([1.0])) == 1.0
        assert proc.eval(x, s, np.array([2.0])) == 0.0

    def test_eval_broadcasts(self):
        ctx = _ctx()
        proc = phi0(ctx)
        x = np.zeros((5, 2))
        s = np.full(5, 2.0)
        mu = np.zeros((5, 2))
        out = proc.eval(x, s, mu)
        assert out.shape == (5,)
        assert np.all(out == 1.0)

    def test_equal_volumes(self):
        # The standard and recentered balls always have the same measure.
        ctx = _ctx(p=2, kappa=0.7)
        x = np.array([0.3, -0.8])
        for s in (0.5, 2.0):
            v0 = phi0(ctx).closed_form_measure(x, s)
            vk = phi_kappa(ctx).closed_form_measure(x, s)
            assert v0 == pytest.approx(vk, rel=1e-14)
            assert v0 == pytest.approx(
                ball_volume(2, ctx.c * s / ctx.m), rel=1e-14
            )


class TestCoverage:
    def test_constant_one(self):
        ctx = _ctx()
        proc = Procedure(
            eval=lambda x, s, mu: np.ones(np.asarray(s).shape),
            label="always",
        )
        est = coverage(proc, np.zeros(2), 1.0, ctx, n=5000, seed=0)
        assert est.value == 1.0
        assert est.error == 0.0

    def test_phi0_attains_pivotal_coverage(self):
        # P(||x - mu||^2 < c s / m) = F_{p,m}(c/p) for every (mu, lambda).
        for p, m, lam in ((1, 3, 0.7), (2, 2, 2.5)):
            ctx = _ctx(p=p, m=m, c=1.7)
            target = f_cdf(p, m, ctx.c / p)
            est = coverage(
                phi0(ctx), np.full(p, 0.4), lam, ctx, n=200_000, seed=3
            )
            assert abs(est.value - target) <= 4.0 * est.error

    def test_coverage_level_calibration(self):
        # With c = default_c(p, m, level), phi0 covers at exactly the level.
        p, m, level = 2, 4, 0.9
        ctx = _ctx(p=p, m=m, c=default_c(p, m, level))
        est = coverage(phi0(ctx), np.zeros(p), 1.3, ctx, n=200_000, seed=5)
        assert abs(est.value - level) <= 4.0 * est.error


class TestLoss:
    def test_zero_procedure(self):
        ctx = _ctx()
        proc = Procedure(
            eval=lambda x, s, mu: np.zeros(np.asarray(s).shape),
            label="never",
            closed_form_measure=lambda x, s: np.zeros(
                np.asarray(s).shape
            ),
        )
        assert loss(proc, ctx, np.zeros(2), 1.0, np.zeros(2), 1.5) == 0.0

    def test_requires_closed_measure(self):
        ctx = _ctx()
        base = phi0(ctx)
        bare = Procedure(eval=base.eval, label="bare", support=base.support)
        with pytest.raises(ValueError):
            loss(bare, ctx, np.zeros(2), 1.0, np.zeros(2), 1.5)

    def test_hand_value(self):
        ctx = _ctx(p=2, m=2, c=2.0, kappa=1.0)
        x = np.array([0.0, 0.0])
        s, lam = 2.0, 1.5
        mu_in = np.array([0.0, 0.0])
        # weight = r_kappa(c s / m) = (2*1.5/(2pi)) e^{-1.5*2}; volume = 2 pi.
        w = (2.0 * lam / (2.0 * math.pi)) * math.exp(-lam * 2.0)
        expected = w * 2.0 * math.pi - 1.0
        assert loss(phi0(ctx), ctx, x, s, mu_in, lam) == pytest.approx(
            expected, rel=1e-12
        )

    def test_bounded_below(self):
        ctx = _ctx()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=2)
            s = float(rng.uniform(0.2, 3.0))
            mu = rng.normal(size=2)
            lam = float(rng.uniform(0.5, 3.0))
            assert loss(phi0(ctx), ctx, x, s, mu, lam) >= -1.0


class TestPosteriorRisk:
    def test_zero_procedure_has_zero_risk(self):
        ctx = _ctx(p=1)
        proc = Procedure(
            eval=lambda x, s, mu: np.zeros(np.asarray(s).shape),
            label="never",
            closed_form_measure=lambda x, s: 0.0,
            support=lambda x, s: (np.asarray(x, float), 1.0),
        )
        obs = Observation(x=np.array([0.5]), s=1.0)
        est = posterior_risk(proc, ctx, obs)
        assert abs(est.value) < 1e-10

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_recentered_ball_minimizes(self, kappa):
        # phi_kappa beats both phi0 and a handful of perturbed competitors.
        fast = Tolerance(rel=1e-6, abs=1e-9, max_iter=200)
        ctx = _ctx(p=1, m=2, c=2.0, kappa=kappa)
        obs = Observation(x=np.array([1.2]), s=1.5)
        best = posterior_risk(phi_kappa(ctx), ctx, obs, fast, inner_grid=65536).value
        assert (
            best
            <= posterior_risk(phi0(ctx), ctx, obs, fast, inner_grid=65536).value
            + 1e-8
        )
        for seed in range(5):
            rival = perturb(phi_kappa(ctx), seed)
            assert (
                best
                <= posterior_risk(rival, ctx, obs, fast, inner_grid=65536).value
                + 1e-8
            )

    def test_grid_path_matches_adaptive(self):
        ctx = _ctx(p=1, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=np.array([1.2]), s=1.5)
        grid = posterior_risk(
            phi_kappa(ctx), ctx, obs,
            Tolerance(rel=1e-6, abs=1e-9, max_iter=200), inner_grid=65536,
        ).value
        assert grid == pytest.approx(_radial_ball_risk(ctx, obs), abs=1e-8)

    def test_p2_ball_matches_radial_oracle(self):
        # phi * (w - pi_kappa) has no jump on the ball's boundary, so the
        # midpoint sum converges at p = 2 too, and its error covers the gap.
        ctx = _ctx(p=2, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=np.array([0.6, -0.4]), s=1.5)
        grid = posterior_risk(phi_kappa(ctx), ctx, obs, inner_grid=65536)
        gap = abs(grid.value - _radial_ball_risk(ctx, obs))
        assert gap <= 1e-6
        assert gap <= grid.error

    _TIGHT = Tolerance(rel=1e-12, abs=1e-14, max_iter=200)
    _PROBES = {1: np.array([1.2]), 2: np.array([0.6, -0.4])}

    @pytest.mark.parametrize("kind", ["ball", "scale", "offset", "band"])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("p", [1, 2])
    def test_grid_path_matches_nested_oracle(self, p, kappa, kind):
        ctx = _ctx(p=p, m=2, c=2.0, kappa=kappa)
        obs = Observation(x=self._PROBES[p], s=1.5)
        proc = phi_kappa(ctx) if kind == "ball" else _rival(phi_kappa(ctx), kind)
        got = posterior_risk(proc, ctx, obs, inner_grid=4096)
        ref = _nested_posterior_risk(proc, ctx, obs, self._TIGHT, inner_grid=4096)
        assert got.value == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("kind", ["ball", "offset", "band"])
    def test_grid_error_covers_the_adaptive_value(self, kind):
        ctx = _ctx(p=1, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=self._PROBES[1], s=1.5)
        proc = phi_kappa(ctx) if kind == "ball" else _rival(phi_kappa(ctx), kind)
        exact = _split_reference(proc, ctx, obs)
        grid = posterior_risk(proc, ctx, obs, inner_grid=65536)
        assert 0.0 < abs(grid.value - exact) <= grid.error <= 1e-5

    def test_default_grid(self):
        ctx = _ctx(p=2, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=self._PROBES[2], s=1.5)
        default = posterior_risk(phi_kappa(ctx), ctx, obs)
        assert default == posterior_risk(phi_kappa(ctx), ctx, obs, inner_grid=4096)

    def test_half_weight_halves_the_risk(self):
        # The midpoint sum is linear in phi, and halving is exact in floats.
        ctx = _ctx(p=2, kappa=0.5)
        base = phi_kappa(ctx)

        def half(x, s, mu):
            return 0.5 * np.asarray(base.eval(x, s, mu), dtype=float)

        proc = Procedure(eval=half, label="half-ball", support=base.support)
        obs = Observation(x=self._PROBES[2], s=1.5)
        full = posterior_risk(base, ctx, obs).value
        assert posterior_risk(proc, ctx, obs).value == 0.5 * full

    def test_missing_support_rejected(self):
        ctx = _ctx(p=1)
        proc = Procedure(eval=lambda *a: 0.0, label="bare")
        with pytest.raises(ValueError):
            posterior_risk(proc, ctx, Observation(x=np.zeros(1), s=1.0))

    def test_risk_is_negative_for_sensible_balls(self):
        # A well-placed ball earns more coverage than it pays in volume.
        ctx = _ctx(p=1, m=2, c=default_c(1, 2, 0.9), kappa=0.5)
        obs = Observation(x=np.array([0.3]), s=0.8)
        assert posterior_risk(phi_kappa(ctx), ctx, obs).value < 0.0


class TestBayesRisk:
    def test_requires_proper_prior(self):
        with pytest.raises(ValueError):
            bayes_risk(phi0(_ctx(kappa=0.0)), _ctx(kappa=0.0), n=1000)

    def test_requires_closed_measure(self):
        ctx = _ctx()
        base = phi0(ctx)
        bare = Procedure(eval=base.eval, label="x", support=base.support)
        with pytest.raises(ValueError):
            bayes_risk(bare, ctx, n=1000)

    def test_bounds(self):
        ctx = _ctx(p=2, m=2, c=2.0, kappa=1.0)
        est = bayes_risk(phi_kappa(ctx), ctx, n=50_000, seed=1)
        assert -1.0 <= est.value <= 0.0

    def test_difference_matches_closed_form(self):
        ctx = _ctx(p=2, m=2, c=2.0, kappa=1.0)
        b0 = bayes_risk(phi0(ctx), ctx, n=400_000, seed=2)
        bk = bayes_risk(phi_kappa(ctx), ctx, n=400_000, seed=2)
        delta = risk_difference_closed(ctx)
        se = math.hypot(b0.error, bk.error)
        assert abs((b0.value - bk.value) - delta) <= 4.0 * se

    def test_deterministic_and_worker_invariant(self):
        ctx = _ctx()
        proc = phi_kappa(ctx)
        a = bayes_risk(proc, ctx, n=100_000, seed=4, workers=1)
        b = bayes_risk(proc, ctx, n=100_000, seed=4, workers=4)
        assert a == b


class TestRiskDifference:
    def test_closed_hand_value(self):
        # F_{2,2}(2) - F_{2,2}(1) = 2/3 - 1/2 = 1/6.
        ctx = _ctx(p=2, m=2, c=2.0, kappa=1.0)
        assert risk_difference_closed(ctx) == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_zero_at_kappa_zero(self):
        ctx = _ctx(kappa=0.0)
        assert risk_difference_closed(ctx) == 0.0
        est = risk_difference_mc(ctx, n=10_000, seed=0)
        assert est.value == 0.0
        assert est.error == 0.0

    def test_monotone_in_kappa(self):
        values = [
            risk_difference_closed(_ctx(kappa=k)) for k in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kappa", [0.25, 1.0])
    @pytest.mark.parametrize("p,m", [(1, 2), (2, 3)])
    def test_mc_agrees_with_closed(self, p, m, kappa):
        ctx = _ctx(p=p, m=m, c=default_c(p, m, 0.95), kappa=kappa)
        est = risk_difference_mc(ctx, n=200_000, seed=13)
        assert abs(est.value - risk_difference_closed(ctx)) <= 4.0 * est.error

    def test_eps_cancels_exactly_under_common_draws(self):
        # lambda rescales with eps but the coverage indicators are scale
        # free, so the paired estimate is bitwise eps-independent.
        base = risk_difference_mc(_ctx(eps=1.0), n=50_000, seed=21)
        for eps in (0.5, 2.0):
            alt = risk_difference_mc(_ctx(eps=eps), n=50_000, seed=21)
            assert alt.value == base.value
            assert alt.error == base.error


class TestDefaultC:
    def test_round_trip(self):
        for p, m, level in ((1, 2, 0.9), (2, 5, 0.95), (3, 3, 0.99)):
            c = default_c(p, m, level)
            assert f_cdf(p, m, c / p) == pytest.approx(level, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_c(2, 2, 1.0)


class TestBlythScaling:
    def test_scaled_difference_ratio(self):
        # K * Delta ~ kappa^{1 - p/2}: halving kappa multiplies it by
        # 2^{p/2 - 1} in the small-kappa limit.
        for p, direction in ((1, "down"), (2, "flat"), (3, "up")):
            c = default_c(p, 2, 0.95)
            rows = blyth_scaling(p, 2, c, 1.0, [0.05, 0.025, 0.0125])
            scaled = [row[3] for row in rows]
            ratios = [b / a for a, b in zip(scaled, scaled[1:])]
            for r in ratios:
                assert r == pytest.approx(2.0 ** (0.5 * p - 1.0), rel=0.08)
            if direction == "down":
                assert scaled[0] > scaled[-1]
            elif direction == "up":
                assert scaled[0] < scaled[-1]

    def test_row_contents(self):
        rows = blyth_scaling(2, 2, 2.0, 1.0, [0.5])
        kap, k_const, delta, prod = rows[0]
        assert kap == 0.5
        ctx = _ctx(p=2, m=2, c=2.0, kappa=0.5)
        assert delta == risk_difference_closed(ctx)
        assert prod == pytest.approx(k_const * delta, rel=1e-15)


class TestPerturb:
    def test_requires_support(self):
        with pytest.raises(ValueError):
            perturb(Procedure(eval=lambda *a: 0.0, label="bare"), 0)

    def test_weights_stay_in_unit_interval_and_differ(self):
        ctx = _ctx(p=2)
        base = phi_kappa(ctx)
        x = np.array([1.0, -0.5])
        s = 1.8
        rng = np.random.default_rng(0)
        probes = rng.normal(size=(400, 2))
        base_vals = base.eval(x, np.full(400, s), probes)
        for seed in range(12):
            rival = perturb(base, seed)
            vals = np.asarray(
                rival.eval(x, np.full(400, s), probes), dtype=float
            )
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.any(vals != base_vals)

    def test_support_covers_eval(self):
        ctx = _ctx(p=2)
        base = phi_kappa(ctx)
        x = np.array([0.4, 0.9])
        s = 1.1
        rng = np.random.default_rng(1)
        for seed in range(12):
            rival = perturb(base, seed)
            center, radius = rival.support(x, s)
            probes = np.asarray(center) + rng.normal(size=(500, 2))
            vals = np.asarray(
                rival.eval(x, np.full(500, s), probes), dtype=float
            )
            dist = np.sqrt(np.sum((probes - center) ** 2, axis=-1))
            assert np.all(vals[dist > radius + 1e-12] == 0.0)


def _mc(value, error):
    return EstimateWithError(value=value, error=error, n_evals=1000, method="monte_carlo")


class TestRiskDifferenceZ:
    def test_standard_score(self):
        assert risk_difference_z(_mc(0.3, 0.1), 0.1, 0.5) == pytest.approx(2.0)

    def test_zero_error_fails_closed(self):
        assert risk_difference_z(_mc(0.1, 0.0), 0.1, 0.5) == math.inf

    def test_nan_error_fails_closed(self):
        assert risk_difference_z(_mc(0.1, math.nan), 0.1, 0.5) == math.inf

    def test_exact_kappa_zero(self):
        assert risk_difference_z(_mc(0.0, 0.0), 0.0, 0.0) == 0.0
        # At kappa = 0 a nonzero value or a nonzero closed form still fails.
        assert risk_difference_z(_mc(0.1, 0.0), 0.0, 0.0) == math.inf
        assert risk_difference_z(_mc(0.0, 0.0), 0.1, 0.0) == math.inf
