import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ntglab import blyth
from ntglab.blyth import BlythContext, Observation
from ntglab.numint import EstimateWithError, QuadratureError, mc_estimate
from ntglab.risk import (
    Procedure,
    _cap_fraction,
    _pivot_values,
    ball_volume,
    blyth_scaling,
    default_c,
    perturb,
    phi_kappa,
    posterior_risk,
    risk_difference_closed,
    risk_difference_mc,
    risk_difference_z,
)
from ntglab.specfun import Tolerance, f_cdf
from ntglab.verify import lemma_smoments_check

from reference import as_mu, inclusion, phi0, r_kappa, volume


def _ctx(**kw):
    defaults = dict(p=2, m=2, c=2.0, kappa=1.0, eps=1.0)
    defaults.update(kw)
    return BlythContext(**defaults)


def coverage(proc, mu, lam, ctx, n, seed):
    """MC estimate of the coverage probability E_{mu,lambda}[phi]; mu must
    have shape (p,)."""
    mu = as_mu(mu, ctx.p)
    p, m = ctx.p, ctx.m

    def sampler(rng, size, ws):
        x = mu + rng.standard_normal((size, p)) / math.sqrt(lam)
        s = rng.chisquare(m, size) / lam
        return np.asarray(inclusion(proc, x, s, mu), dtype=float)

    return mc_estimate(sampler, n, seed)


def loss(proc, ctx, x, s, mu, lam):
    """Pointwise loss: the set volume weighted by r_kappa at the ball
    threshold c s / m, minus the inclusion weight; mu must have shape (p,)."""
    mu = as_mu(mu, ctx.p)
    x = np.asarray(x, dtype=float)
    w = r_kappa(ctx.c * s / ctx.m, lam, ctx)
    return w * float(volume(proc, x, s)) - float(inclusion(proc, x, s, mu))


def bayes_risk(proc, ctx, n, seed=0):
    """Prior-averaged risk by Monte Carlo over (mu, lambda, x, s), from the
    draws (u, z1, z2, chi2) of risk_difference_mc; requires kappa > 0."""
    if ctx.kappa <= 0:
        raise ValueError("bayes_risk requires kappa > 0")
    p = ctx.p

    def sampler(rng, size, ws):
        lam = ctx.eps * rng.random(size) ** (-2.0 / p)
        mu = rng.standard_normal((size, p)) / np.sqrt(ctx.kappa * lam)[:, None]
        x = mu + rng.standard_normal((size, p)) / np.sqrt(lam)[:, None]
        s = rng.chisquare(ctx.m, size) / lam
        w = r_kappa(ctx.c * s / ctx.m, lam, ctx)
        return w * np.asarray(volume(proc, x, s), dtype=float) - inclusion(proc, x, s, mu)

    return mc_estimate(sampler, n, seed)


def _never(x, s):
    # The empty mixture: it includes nothing.
    x = np.asarray(x, dtype=float)
    return np.zeros(0), np.zeros(x.shape[:-1] + (0, x.shape[-1])), np.zeros(np.shape(s) + (0,))


def _always(x, s):
    # One ball of infinite radius: it includes everything.
    x = np.asarray(x, dtype=float)
    return np.ones(1), x[..., None, :], np.full(np.shape(s) + (1,), np.inf)


def _box(proc, obs):
    # The smallest axis-aligned box holding every ball of the mixture.
    _, centres, radii2 = proc.balls(obs.x, obs.s)
    radius = np.sqrt(radii2)[:, None]
    return np.min(centres - radius, axis=0), np.max(centres + radius, axis=0)


def _midpoint_mesh(lo, hi, inner_grid):
    # Midpoint nodes of about inner_grid cells over the box, the cell widths
    # and the number of nodes per axis.
    p = lo.size
    n_axis = max(2, int(round(inner_grid ** (1.0 / p))))
    width = (hi - lo) / n_axis
    axes = [lo[j] + width[j] * (np.arange(n_axis) + 0.5) for j in range(p)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
    return mesh, width, n_axis


def _nested_posterior_risk(proc, ctx, obs, tol, inner_grid):
    # Reference posterior risk that does not use the conjugate closed form
    # of the lambda-integral: an outer quadrature over lambda of
    #   r_kappa(c s / m | lambda) * volume - integral of eval * r_kappa(t | lambda),
    # against the posterior density of lambda.  The mu-integral and the
    # volume use the same midpoint grid as _grid_posterior_risk.
    center = blyth.mu_kappa(obs.x, ctx.kappa)
    k1 = 1.0 + ctx.kappa
    mesh, width, _ = _midpoint_mesh(*_box(proc, obs), inner_grid)
    cell = float(np.prod(width))
    d2 = np.sum((mesh - center) ** 2, axis=-1)
    vals = np.asarray(inclusion(proc, obs.x, np.full(mesh.shape[0], obs.s), mesh), float)
    ups = float(np.sum(vals)) * cell

    def inner(lam):
        dens = (k1 * lam / (2.0 * math.pi)) ** (0.5 * ctx.p) * np.exp(
            -0.5 * k1 * lam * d2
        )
        hit = float(np.sum(vals * dens)) * cell
        return r_kappa(ctx.c * obs.s / ctx.m, lam, ctx) * ups - hit

    return integrate.quad(
        lambda lam: blyth.lambda_posterior_density(ctx, obs, lam) * inner(lam),
        ctx.eps, math.inf, epsabs=tol.abs, epsrel=tol.rel, limit=max(tol.max_iter, 50),
    )[0]


def _log_mu_posterior(ctx, obs, t):
    # ln of the posterior density of mu at squared distances t from
    # x / (1 + kappa), from scipy's incomplete gamma rather than specfun.
    def log_upper_gamma(a, z):
        return np.log(special.gammaincc(a, z)) + special.gammaln(a)

    k1 = 1.0 + ctx.kappa
    bk = 0.5 * (obs.s + ctx.kappa / k1 * float(np.sum(np.square(obs.x))))
    a = 0.5 * (ctx.m + ctx.p)
    b = bk + 0.5 * k1 * np.asarray(t, dtype=float)
    return (0.5 * ctx.p * math.log(k1 / (2.0 * math.pi)) + 0.5 * ctx.m * math.log(bk)
            - log_upper_gamma(0.5 * ctx.m, ctx.eps * bk)
            + log_upper_gamma(a, ctx.eps * b) - a * np.log(b))


def _grid_posterior_risk(proc, ctx, obs, inner_grid=65536):
    # Midpoint-grid oracle: the sum of eval * (w - pi_kappa) over the box
    # holding every ball, with scipy's density; returns (value, error).  The
    # error adds, for every cell where eval jumps to an axis neighbour, that
    # jump times the largest |w - pi_kappa| over the cell times the cell
    # volume, and the midpoint rule's curvature term (second differences
    # / 24) of the integrand.
    p = ctx.p
    mesh, width, n_axis = _midpoint_mesh(*_box(proc, obs), inner_grid)
    cell = float(np.prod(width))
    center = np.atleast_1d(blyth.mu_kappa(obs.x, ctx.kappa))
    w = math.exp(_log_mu_posterior(ctx, obs, ctx.c * obs.s / ctx.m))

    def excess(t):
        return w - np.exp(_log_mu_posterior(ctx, obs, t))

    vals = np.asarray(inclusion(proc, obs.x, np.full(mesh.shape[0], obs.s), mesh), dtype=float)
    terms = vals * excess(np.sum((mesh - center) ** 2, axis=-1))
    value = float(np.sum(terms)) * cell

    # Each cell's largest jump of eval to an axis neighbour, and the
    # integrand's second differences along every axis.
    vals, terms = vals.reshape((n_axis,) * p), terms.reshape((n_axis,) * p)
    jump = np.zeros(vals.shape)
    curvature = 0.0
    for ax in range(p):
        v, big = np.moveaxis(vals, ax, 0), np.moveaxis(jump, ax, 0)  # views
        step = np.abs(v[1:] - v[:-1])
        np.maximum(big[1:], step, out=big[1:])
        np.maximum(big[:-1], step, out=big[:-1])
        curvature += float(np.abs(np.diff(terms, n=2, axis=ax)).sum())
    # w - pi_kappa is monotone in the squared distance, so its extremes over
    # a cell sit at the cell's nearest and farthest points from mu_kappa.
    idx = np.nonzero(jump.reshape(-1))[0]
    off = np.abs(mesh[idx] - center)
    near = np.sum(np.maximum(off - 0.5 * width, 0.0) ** 2, axis=-1)
    far = np.sum((off + 0.5 * width) ** 2, axis=-1)
    reach = np.maximum(np.abs(excess(near)), np.abs(excess(far)))
    error = (float(np.sum(jump.reshape(-1)[idx] * reach)) + curvature / 24.0) * cell
    return value, error


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
    lo, hi = (float(v[0]) for v in _box(proc, obs))

    def ev(u):
        return float(inclusion(proc, obs.x, obs.s, np.array([u])))

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
            total += phi * integrate.quad(
                lambda u: w - math.exp(_log_mu_posterior(ctx, obs, (u - mid_k) ** 2)),
                a, b, epsabs=tight.abs, epsrel=tight.rel, limit=tight.max_iter,
            )[0]
    return total


def _cap_posterior_risk(proc, ctx, obs):
    # Posterior risk sum_k a_k (w vol_k - Pi_k) of any procedure at p >= 2,
    # from scipy alone; returns (value, the sum of quad's error estimates).
    # The mu-density is (k/(2 pi))^{p/2} b0^{m/2} Gamma((m+p)/2, eps b)
    # / (Gamma(m/2, eps b0) b^{(m+p)/2}), b = b0 + k t/2 and k = 1 + kappa;
    # the cap share is I_{sin^2 theta}((p-1)/2, 1/2)/2, mirrored for
    # cos theta < 0; each ball's mass is integrated along the radius in
    # pieces split at |d - R| and d + R.
    p, m, k1 = ctx.p, ctx.m, 1.0 + ctx.kappa
    b0 = 0.5 * (obs.s + ctx.kappa / k1 * float(np.sum(np.square(obs.x))))

    def upper_gamma(a, z):
        return special.gammaincc(a, z) * special.gamma(a)

    def density(t):
        b = b0 + 0.5 * k1 * t
        return ((k1 / (2.0 * math.pi)) ** (0.5 * p) * b0 ** (0.5 * m)
                * upper_gamma(0.5 * (m + p), ctx.eps * b)
                / (upper_gamma(0.5 * m, ctx.eps * b0) * b ** (0.5 * (m + p))))

    def share(r, d, radius):
        if r == 0.0 or d == 0.0:
            return float(r + d < radius)
        cos = min(1.0, max(-1.0, (r * r + d * d - radius * radius) / (2.0 * r * d)))
        half = 0.5 * special.betainc(0.5 * (p - 1), 0.5, (1.0 - cos) * (1.0 + cos))
        return half if cos >= 0.0 else 1.0 - half

    area = 2.0 * math.pi ** (0.5 * p) / special.gamma(0.5 * p)
    w = density(ctx.c * obs.s / m)
    weights, centres, radii2 = proc.balls(obs.x, obs.s)
    value = error = 0.0
    for a, centre, rho in zip(np.broadcast_to(weights, radii2.shape), centres, radii2):
        d = float(np.sqrt(np.sum(np.square(centre - obs.x / k1))))
        radius = math.sqrt(rho)
        value += a * w * (math.pi * rho) ** (0.5 * p) / special.gamma(0.5 * p + 1.0)
        for lo, hi in ((0.0, abs(d - radius)), (abs(d - radius), d + radius)):
            mass, err = integrate.quad(
                lambda r: area * r ** (p - 1) * density(r * r) * share(r, d, radius),
                lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)
            value, error = value - a * mass, error + a * err
    return value, error


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
        assert inclusion(proc, x, s, np.array([1.0, 0.0])) == 1.0
        assert inclusion(proc, x, s, np.array([1.0, 1.4])) == 1.0
        assert inclusion(proc, x, s, np.array([1.0, 1.5])) == 0.0

    def test_phi_kappa_center_shrinks(self):
        ctx = _ctx(p=1, m=2, c=2.0, kappa=1.0)
        proc = phi_kappa(ctx)
        x = np.array([2.0])
        s = 0.01
        # Center is x/(1+kappa) = 1; x itself is outside the tiny ball.
        assert inclusion(proc, x, s, np.array([1.0])) == 1.0
        assert inclusion(proc, x, s, np.array([2.0])) == 0.0

    def test_eval_broadcasts(self):
        ctx = _ctx()
        proc = phi0(ctx)
        x = np.zeros((5, 2))
        s = np.full(5, 2.0)
        mu = np.zeros((5, 2))
        out = inclusion(proc, x, s, mu)
        assert out.shape == (5,)
        assert np.all(out == 1.0)

    def test_equal_volumes(self):
        # The standard and recentered balls always have the same measure.
        ctx = _ctx(p=2, kappa=0.7)
        x = np.array([0.3, -0.8])
        for s in (0.5, 2.0):
            v0 = volume(phi0(ctx), x, s)
            vk = volume(phi_kappa(ctx), x, s)
            assert v0 == pytest.approx(vk, rel=1e-14)
            assert v0 == pytest.approx(
                ball_volume(2, ctx.c * s / ctx.m), rel=1e-14
            )


class TestCoverage:
    def test_constant_one(self):
        ctx = _ctx()
        proc = Procedure(balls=_always, label="always")
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

    def test_mu_of_the_wrong_shape_raises(self):
        # A mu of shape (1,) at p = 2 would broadcast against x.
        ctx = _ctx()
        with pytest.raises(ValueError, match="shape"):
            coverage(phi0(ctx), [0.1], 1.0, ctx, n=2000, seed=1)


class TestLoss:
    def test_zero_procedure(self):
        ctx = _ctx()
        proc = Procedure(balls=_never, label="never")
        assert loss(proc, ctx, np.zeros(2), 1.0, np.zeros(2), 1.5) == 0.0

    def test_mixture_volume(self):
        # Weights 1/2 and 1/4 on concentric balls of squared radii 1 and 4:
        # volume (1/2) pi + (1/4) 4 pi, and mu between the two spheres is
        # included with weight 1/4.
        ctx = _ctx(p=2, m=2, c=2.0, kappa=1.0)

        def balls(x, s):
            centre = np.asarray(x, dtype=float)[..., None, :]
            return np.array([0.5, 0.25]), np.concatenate([centre, centre], axis=-2), np.array([1.0, 4.0])

        proc = Procedure(balls=balls, label="two-ball")
        x, s, lam = np.zeros(2), 2.0, 1.5
        assert float(volume(proc, x, s)) == pytest.approx(1.5 * math.pi, rel=1e-15)
        w = r_kappa(ctx.c * s / ctx.m, lam, ctx)
        assert loss(proc, ctx, x, s, np.array([1.5, 0.0]), lam) == pytest.approx(
            w * 1.5 * math.pi - 0.25, rel=1e-14
        )

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

    @pytest.mark.parametrize("mu", [[0.1], [0.1, 0.2, 0.3], np.zeros((2, 2)), 0.1])
    def test_mu_of_the_wrong_shape_raises(self, mu):
        ctx = _ctx()
        with pytest.raises(ValueError, match="shape"):
            loss(phi0(ctx), ctx, [0.3, 0.1], 1.2, mu, 1.0)


class TestCapFraction:
    # Squared radius R^2 = 1 about a centre at distance d; the kinks of
    # frac_p sit at r = |d - R| and r = d + R.
    @staticmethod
    def _radii(d):
        kinks = (abs(d - 1.0), d + 1.0)
        near = [np.nextafter(k, side) for k in kinks for side in (0.0, np.inf)]
        return np.array(sorted({0.0, *kinks, *near, *np.linspace(0.0, d + 2.0, 41)}))

    @pytest.mark.parametrize("d", [0.0, 0.4, 1.0, 1.7])
    def test_p1_counts_points(self, d):
        # The sphere of radius r about 0 is the two points +r and -r.
        r = self._radii(d)
        count = (np.abs(r - d) < 1.0).astype(float) + (np.abs(-r - d) < 1.0)
        assert np.array_equal(_cap_fraction(1, r, d, 1.0), count / 2.0)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("d", [0.4, 1.0, 1.7])
    def test_spherical_cap(self, p, d):
        # arccos(cos theta)/pi at p = 2 and Archimedes' (1 - cos theta)/2 at
        # p = 3, with cos theta clipped to [-1, 1] past the kinks.
        r = self._radii(d)[1:]
        cos = np.clip((r * r + d * d - 1.0) / (2.0 * r * d), -1.0, 1.0)
        expect = np.arccos(cos) / math.pi if p == 2 else 0.5 * (1.0 - cos)
        got = _cap_fraction(p, r, d, 1.0)
        assert np.max(np.abs(got - expect)) <= 1e-15
        # Below the first kink the ball holds all, half (d = R) or none.
        assert got[0] == {0.4: 1.0, 1.0: 0.5, 1.7: 0.0}[d] and got[-1] == 0.0

    @pytest.mark.parametrize("p", [4, 5, 6, 9])
    def test_cap_matches_angular_quadrature(self, p):
        # The cap of polar angle theta holds the share
        # int_0^theta sin^{p-2} / int_0^pi sin^{p-2} of the sphere; the
        # last two radii put cos theta at +-(1 - 1e-12), at the cap's ends.
        d = 0.7
        total = integrate.quad(lambda a: math.sin(a) ** (p - 2), 0.0, math.pi)[0]
        ends = [math.sqrt(1.0 - d * d * (1.0 - c * c)) + c * d for c in (1 - 1e-12, -1 + 1e-12)]
        for r in (0.35, 0.8, 1.2, 1.6, *ends):
            theta = math.acos((r * r + d * d - 1.0) / (2.0 * r * d))
            share = integrate.quad(lambda a: math.sin(a) ** (p - 2), 0.0, theta)[0] / total
            assert float(_cap_fraction(p, r, d, 1.0)) == pytest.approx(share, abs=1e-14)

    @pytest.mark.parametrize("p", range(2, 10))
    def test_clipped_ends_are_exact(self, p):
        # At or below the kink |d - R| = 0.3, cos theta clips to -1 and the
        # ball holds the whole sphere; past d + R = 1.7 it clips to 1 and
        # holds none of it: the shares are exactly 1 and 0.
        d = 0.7
        r = np.array([np.nextafter(0.3, 0.0), 0.3, np.nextafter(1.7, np.inf), 2.0])
        assert np.all(np.abs((r * r + d * d - 1.0) / (2.0 * r * d)) > 1.0)
        assert np.array_equal(_cap_fraction(p, r, d, 1.0), [1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("d", [0.0, 0.4, 1.0, 1.7])
    def test_p3_closed_form_matches_f_cdf_form(self, d):
        # The general form 1/2 f_cdf(p - 1, 1, tan^2 theta/(p - 1)),
        # mirrored for cos theta < 0, at p = 3 on both sides of each kink,
        # at cos theta = 0 and on the axis.
        r = np.append(self._radii(d), math.sqrt(abs(1.0 - d * d)))
        r, dd = np.broadcast_arrays(r, float(d))
        on_axis = ~(r * dd > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(on_axis, 1.0, np.clip((r * r + dd * dd - 1.0) / (2.0 * r * dd), -1, 1))
            tan2 = (1.0 - cos) * (1.0 + cos) / (cos * cos) / 2.0
        half = np.array([0.5 * f_cdf(2, 1, t) if abs(c) < 1.0 else 0.0
                         for c, t in zip(cos, tan2)])
        want = np.where(on_axis, r + dd < 1.0, np.where(cos >= 0.0, half, 1.0 - half))
        assert np.max(np.abs(_cap_fraction(3, r, d, 1.0) - want)) <= 1e-15

    def test_on_axis(self):
        # At d = 0 or r = 0 the sphere lies wholly inside or outside.
        assert np.array_equal(_cap_fraction(2, [0.5, 1.5], 0.0, 1.0), [1.0, 0.0])
        assert np.array_equal(_cap_fraction(3, 0.0, [0.5, 1.5], 1.0), [1.0, 0.0])

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [0.3, 0.7])
    def test_subnormal_radius_is_quiet(self, p, d):
        # r = 5e-324 makes r d subnormal, so cos theta overflows before its
        # clip: the sphere is a point at distance d, inside R = 0.5 or not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            share = _cap_fraction(p, 5e-324, d, 0.5)
        assert float(share) == (1.0 if d < 0.5 else 0.0)

    def test_f_cdf_only_on_cap_nodes(self, monkeypatch):
        # The cap share is closed form at every p: neither the centred ball,
        # which has no cap piece, nor an offset rival calls f_cdf.
        calls = []

        def counting(d1, d2, t):
            calls.append(t)
            return f_cdf(d1, d2, t)

        monkeypatch.setattr("ntglab.risk.f_cdf", counting)
        for p in (3, 4, 5):
            ctx = _ctx(p=p, m=4, c=default_c(p, 4, 0.95), kappa=0.5)
            obs = Observation(x=np.array([0.6, -0.4, 0.3, 0.1, -0.2][:p]), s=1.5)
            posterior_risk(phi_kappa(ctx), ctx, obs)
            offset = posterior_risk(_rival(phi_kappa(ctx), "offset"), ctx, obs)
            if p == 4:
                # One round of the 32- and 64-node rules over the inner and
                # the cap piece, plus w.
                assert offset.n_evals == 2 * 96 + 1
        assert calls == []


class TestPosteriorRisk:
    def test_zero_procedure_has_zero_risk(self):
        # The empty mixture has no balls, so no volume and no coverage.
        ctx = _ctx(p=1)
        proc = Procedure(balls=_never, label="never")
        obs = Observation(x=np.array([0.5]), s=1.0)
        est = posterior_risk(proc, ctx, obs)
        assert est.value == 0.0 and est.error == 0.0

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
        # The radial rule at criterion 09's tolerance against scipy's radial
        # quadrature of the ball.
        ctx = _ctx(p=1, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=np.array([1.2]), s=1.5)
        got = posterior_risk(
            phi_kappa(ctx), ctx, obs,
            Tolerance(rel=1e-6, abs=1e-9, max_iter=200), inner_grid=65536,
        ).value
        assert got == pytest.approx(_radial_ball_risk(ctx, obs), abs=1e-12)

    def test_p2_ball_matches_radial_oracle(self):
        for kappa in (0.0, 0.5):
            ctx = _ctx(p=2, m=2, c=2.0, kappa=kappa)
            obs = Observation(x=np.array([0.6, -0.4]), s=1.5)
            got = posterior_risk(phi_kappa(ctx), ctx, obs)
            assert abs(got.value - _radial_ball_risk(ctx, obs)) <= 1e-12

    _TIGHT = Tolerance(rel=1e-12, abs=1e-14, max_iter=200)
    _PROBES = {1: np.array([1.2]), 2: np.array([0.6, -0.4]), 3: np.array([0.6, -0.4, 0.3])}

    @pytest.mark.parametrize("kind", ["ball", "scale", "offset", "band"])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_matches_split_reference(self, kappa, kind):
        # p = 1: every rival kind against the piecewise scipy reference.
        ctx = _ctx(p=1, m=2, c=2.0, kappa=kappa)
        obs = Observation(x=self._PROBES[1], s=1.5)
        proc = phi_kappa(ctx) if kind == "ball" else _rival(phi_kappa(ctx), kind)
        got = posterior_risk(proc, ctx, obs)
        assert abs(got.value - _split_reference(proc, ctx, obs)) <= 1e-12

    @pytest.mark.parametrize("kind", ["ball", "scale", "offset", "band"])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_grid_oracle(self, p, kappa, kind):
        ctx = _ctx(p=p, m=2, c=2.0, kappa=kappa)
        obs = Observation(x=self._PROBES[p], s=1.5)
        proc = phi_kappa(ctx) if kind == "ball" else _rival(phi_kappa(ctx), kind)
        got = posterior_risk(proc, ctx, obs)
        grid, grid_error = _grid_posterior_risk(proc, ctx, obs, inner_grid=65536)
        assert abs(got.value - grid) <= grid_error + got.error

    def test_p3_offset_matches_grid_oracle(self):
        # At p >= 3 the cap fraction comes from f_cdf node by node.
        ctx = _ctx(p=3, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=self._PROBES[3], s=1.5)
        proc = _rival(phi_kappa(ctx), "offset")
        got = posterior_risk(proc, ctx, obs)
        grid, grid_error = _grid_posterior_risk(proc, ctx, obs, inner_grid=1 << 18)
        assert abs(got.value - grid) <= grid_error + got.error

    @pytest.mark.parametrize("kind", ["ball", "scale", "offset", "band"])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("p", [1, 2])
    def test_grid_path_matches_nested_oracle(self, p, kappa, kind):
        # The grid oracle's conjugate step against an outer lambda-quadrature
        # on the same grid.
        ctx = _ctx(p=p, m=2, c=2.0, kappa=kappa)
        obs = Observation(x=self._PROBES[p], s=1.5)
        proc = phi_kappa(ctx) if kind == "ball" else _rival(phi_kappa(ctx), kind)
        got, _ = _grid_posterior_risk(proc, ctx, obs, inner_grid=4096)
        ref = _nested_posterior_risk(proc, ctx, obs, self._TIGHT, inner_grid=4096)
        assert got == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("kind", ["ball", "offset", "band"])
    def test_grid_error_covers_the_adaptive_value(self, kind):
        # The grid oracle's error is real: it covers the exact value.
        ctx = _ctx(p=1, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=self._PROBES[1], s=1.5)
        proc = phi_kappa(ctx) if kind == "ball" else _rival(phi_kappa(ctx), kind)
        exact = _split_reference(proc, ctx, obs)
        grid, grid_error = _grid_posterior_risk(proc, ctx, obs, inner_grid=65536)
        assert 0.0 < abs(grid - exact) <= grid_error <= 1e-5

    def test_inner_grid_is_ignored(self):
        ctx = _ctx(p=2, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=self._PROBES[2], s=1.5)
        default = posterior_risk(phi_kappa(ctx), ctx, obs)
        for grid in (4096, 65536):
            assert default == posterior_risk(phi_kappa(ctx), ctx, obs, inner_grid=grid)

    def test_rule_doubles_until_the_error_meets_tol(self):
        # A ball several posterior widths across needs more than the first
        # rules; the error of the coarse rules still covers their gap.
        ctx = _ctx(p=2, m=2, c=400.0, kappa=0.5)
        obs = Observation(x=self._PROBES[2], s=1.5)
        exact = _radial_ball_risk(ctx, obs)
        coarse = posterior_risk(phi_kappa(ctx), ctx, obs, Tolerance(rel=1e-3, abs=1e-6))
        fine = posterior_risk(phi_kappa(ctx), ctx, obs)
        assert coarse.n_evals < fine.n_evals
        assert abs(coarse.value - exact) <= coarse.error
        assert fine.error <= 1e-15 + 1e-12 * abs(fine.value)
        assert abs(fine.value - exact) <= 1e-12

    def test_unreachable_tolerance_raises(self):
        ctx = _ctx(p=2, m=2, c=2.0, kappa=0.5)
        obs = Observation(x=self._PROBES[2], s=1.5)
        with pytest.raises(QuadratureError) as info:
            posterior_risk(phi_kappa(ctx), ctx, obs, Tolerance(rel=1e-300, abs=1e-300))
        value, error = info.value.partial
        assert abs(value - _radial_ball_risk(ctx, obs)) <= 1e-12 and error > 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_risk_fails_closed(self):
        # A ball of infinite radius has infinite volume.
        ctx = _ctx(p=1)
        proc = Procedure(balls=_always, label="always")
        with pytest.raises(QuadratureError):
            posterior_risk(proc, ctx, Observation(x=np.zeros(1), s=1.0))

    def test_half_weight_halves_the_risk(self):
        # The rule is linear in the weights, and halving is exact in floats.
        ctx = _ctx(p=2, kappa=0.5)
        base = phi_kappa(ctx)

        def half(x, s):
            weights, centres, radii2 = base.balls(x, s)
            return 0.5 * weights, centres, radii2

        proc = Procedure(balls=half, label="half-ball")
        obs = Observation(x=self._PROBES[2], s=1.5)
        full = posterior_risk(base, ctx, obs)
        got = posterior_risk(proc, ctx, obs)
        assert got.value == 0.5 * full.value and got.error == 0.5 * full.error

    def test_risk_is_negative_for_sensible_balls(self):
        # A well-placed ball earns more coverage than it pays in volume.
        ctx = _ctx(p=1, m=2, c=default_c(1, 2, 0.9), kappa=0.5)
        obs = Observation(x=np.array([0.3]), s=0.8)
        assert posterior_risk(phi_kappa(ctx), ctx, obs).value < 0.0


    @pytest.mark.parametrize("m,c,cap", [(2, 2.0, 1e-13), (2, 400.0, 1e-13), (2, 4000.0, 1e-13),
                                         (120, 20.0, 2e-13), (250, 4000.0, 3e-13)])
    def test_error_covers_the_density_rounding(self, m, c, cap):
        # The recentred ball at 30 digits: at p = 2 its risk is
        # w pi R^2 - pi int_0^{R^2} pi_kappa(t) dt.  Both Gauss-Legendre rules
        # share the density's rounding, which |G_2n - G_n| cannot see; at
        # m = 2, c = 4000 it is about twice that difference.  The rounding
        # grows with the shape (m+p)/2: at m = 120 and 250 it exceeds the
        # shape-free 128 eps_mach part of the rounding term alone.
        mpmath = pytest.importorskip("mpmath")
        ctx = _ctx(p=2, m=m, c=c, kappa=0.5)
        obs = Observation(x=np.array([0.6, -0.4]), s=1.5)
        est = posterior_risk(phi_kappa(ctx), ctx, obs)
        with mpmath.workdps(30):
            mpf = mpmath.mpf
            k1, a = 1 + mpf(ctx.kappa), mpf(m) / 2
            bk = (mpf(obs.s) + mpf(ctx.kappa) / k1 * sum(mpf(float(v)) ** 2 for v in obs.x)) / 2
            pref = k1 / (2 * mpmath.pi) * bk ** a / mpmath.gammainc(a, mpf(ctx.eps) * bk)

            def density(t):
                b = bk + k1 * t / 2
                return pref * mpmath.gammainc(a + 1, mpf(ctx.eps) * b) / b ** (a + 1)

            r2 = mpf(ctx.c) * mpf(obs.s) / ctx.m
            ref = mpmath.pi * (density(r2) * r2 - mpmath.quad(density, [0, r2]))
            gap = float(abs(mpf(est.value) - ref))
        assert gap <= est.error <= cap

    def test_reads_each_procedure_once(self):
        # The pieces and the volume come from one call of balls.
        ctx = _ctx(p=2, m=3, c=default_c(2, 3, 0.95), kappa=0.5)
        rival = _rival(phi_kappa(ctx), "band")
        calls = []

        def counting(x, s):
            calls.append(s)
            return rival.balls(x, s)

        obs = Observation(x=np.array([1.5, -1.0]), s=2.0)
        est = posterior_risk(Procedure(balls=counting, label="counting"), ctx, obs)
        assert calls == [2.0]
        assert est == posterior_risk(rival, ctx, obs)

    @pytest.mark.parametrize("p", [4, 5])
    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_matches_radial_oracle_at_p4_p5(self, p, m, kappa):
        # The recentred ball and one rival of each family against scipy's
        # radial quadrature, within the two reported errors.
        ctx = _ctx(p=p, m=m, c=default_c(p, m, 0.95), kappa=kappa)
        obs = Observation(x=np.array([0.6, -0.4, 0.3, 0.1, -0.2][:p]), s=1.5)
        base = phi_kappa(ctx)
        for proc in (base, *(_rival(base, family) for family in ("scale", "offset", "band"))):
            est = posterior_risk(proc, ctx, obs)
            want, quad_error = _cap_posterior_risk(proc, ctx, obs)
            assert abs(est.value - want) <= est.error + quad_error, proc.label


class TestBayesRisk:
    def test_requires_proper_prior(self):
        with pytest.raises(ValueError):
            bayes_risk(phi0(_ctx(kappa=0.0)), _ctx(kappa=0.0), n=1000)

    def test_half_weight_halves_the_risk(self):
        # Every draw's volume and inclusion weight halve exactly, and so do
        # the mean and the standard error.
        ctx = _ctx()
        base = phi0(ctx)

        def half(x, s):
            weights, centres, radii2 = base.balls(x, s)
            return 0.5 * weights, centres, radii2

        full = bayes_risk(base, ctx, n=20_000, seed=6)
        got = bayes_risk(Procedure(balls=half, label="half-ball"), ctx, n=20_000, seed=6)
        assert got.value == 0.5 * full.value and got.error == 0.5 * full.error

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

    def test_deterministic_and_worker_invariant(self, report_cores):
        ctx = _ctx()
        proc = phi_kappa(ctx)
        report_cores(1)
        a = bayes_risk(proc, ctx, n=100_000, seed=4)
        report_cores(4)
        b = bayes_risk(proc, ctx, n=100_000, seed=4)
        assert a == b


def _separate_risk_difference(ctx, n, seed):
    # One eps per pass: the per-eps sampler that draws (u, z1, z2, chi2)
    # afresh for every eps, through the public 1-D mc_estimate.
    if ctx.kappa == 0.0:
        return EstimateWithError(value=0.0, error=0.0, n_evals=n, method="monte_carlo")
    p, m, cm = ctx.p, ctx.m, ctx.c / ctx.m

    def sampler(rng, size, ws):
        u = rng.random(size)
        lam = ctx.eps * u ** (-2.0 / p)
        mu = rng.standard_normal((size, p)) / np.sqrt(ctx.kappa * lam)[:, None]
        x = mu + rng.standard_normal((size, p)) / np.sqrt(lam)[:, None]
        thresh = cm * (rng.chisquare(m, size) / lam)
        d2_k = np.sum((mu - x / (1.0 + ctx.kappa)) ** 2, axis=-1)
        d2_0 = np.sum((mu - x) ** 2, axis=-1)
        return (d2_k < thresh).astype(float) - (d2_0 < thresh).astype(float)

    return mc_estimate(sampler, n, seed)


_SWEEP_EPS = (0.3, 0.5, 1.0, 2.0, 7.0)


def _ltr_sum_sq(d):
    # Sum of squares over the last axis of d (k, p), left to right.
    total = np.square(d[:, 0])
    for j in range(1, d.shape[1]):
        total = total + np.square(d[:, j])
    return total


def _model_space_rows(ctx, eps_values, u, z1, z2, chi2):
    # The oracle for _pivot_values: _separate_risk_difference's arithmetic
    # on given draws, with left-to-right sums over the coordinates, at each
    # eps.  Where lambda or kappa*lambda leaves the double range these
    # expressions fail (at lambda = inf both indicators read 0).
    p, kappa, cm = ctx.p, ctx.kappa, ctx.c / ctx.m
    k1 = 1.0 + kappa
    rows = []
    with np.errstate(all="ignore"):
        for eps in eps_values:
            lam = eps * u ** (-2.0 / p)
            mu = z1 / np.sqrt(kappa * lam)[:, None]
            x = mu + z2 / np.sqrt(lam)[:, None]
            thresh = cm * (chi2 / lam)
            rows.append((_ltr_sum_sq(mu - x / k1) < thresh).astype(float)
                        - (_ltr_sum_sq(mu - x) < thresh).astype(float))
    return rows


def _pivot_agrees(ctx, eps_values, u, z1, z2, chi2):
    """The draws on which the pivot provably agrees with the model space.

    Those are the draws with u >= 2^-64, with lambda and kappa*lambda within
    2^(+-504) at every eps, and whose margin min(|S_k - T_k|, |S_0 - T_0|)
    exceeds the rounding bound

        B = (16 + 8p) u_r [S_k + T_k + S_0 + T_0
                           + 16 (1+kappa)^2/kappa^2 (S_k + S_0) + 8 S_0 + tau],
        tau = (2p + c/m + 4) (1+kappa)^2 2^-510,

    u_r = 2^-53 the unit roundoff.  The bound follows Higham (Accuracy and
    Stability of Numerical Algorithms, 2002): fl(a op b) = (a op b)(1 + d),
    |d| <= u_r, and gamma_n = n u_r/(1 - n u_r) for n such factors (3.1).
    Let w_i = 2((1+kappa)|z1_i|/sqrt(kappa) + |z2_i|).  In model space, the
    i-th coordinate of mu - x/(1+kappa), scaled by (1+kappa) sqrt(lambda),
    is v_i + f_i with |f_i| <= gamma_7 w_i (mu takes 3 roundings, x 4,
    x/(1+kappa) 6 and the difference 7, each relative to |mu_i| or |z2_i|
    /sqrt(lambda)); that of mu - x, scaled by sqrt(lambda), is -z2_i + f'_i
    with |f'_i| <= gamma_8 w_i/2; the pivot's v_i carries |g_i| <= gamma_3 w_i.
    A sum of p rounded squares adds gamma_p relative in any order, and
    2|v_i f_i| <= gamma (v_i^2 + w_i^2).  The thresholds carry gamma_2 (model
    space) and gamma_5 (pivot).  To first order in u_r the model-space and
    pivotal tests of the shrunk ball thus both match the exact one once
    |S_k - T_k| > u_r [(10 + 4p) S_k + 10 ||w||^2 + 7 T_k], and those of the
    standard ball once |S_0 - T_0| > u_r [(8 + 3p) S_0 + 3 ||w||^2 + 3 T_0];
    ||w||^2 <= 8((1+kappa)^2/kappa ||z1||^2 + ||z2||^2) and kappa ||z1||^2 <=
    2(S_k + S_0) give the bracket.  The factor 16 + 8p >= 1.6 (10 + 4p)
    leaves room for the second-order terms, for replacing the exact S and T
    by their rounded values and for the rounding of B itself.  With
    gradual underflow a product or quotient errs by at most u_r 2^-1022
    more, and sums are exact there; lambda <= 2^504 keeps their scaled
    total below u_r tau.  The ranges of u and lambda keep every model-space
    intermediate finite and normal.
    """
    p, kappa, cm = ctx.p, ctx.kappa, ctx.c / ctx.m
    k1 = 1.0 + kappa
    s_k, s_0 = _ltr_sum_sq(z1 * math.sqrt(kappa) - z2), _ltr_sum_sq(z2)
    t_k, t_0 = (k1 * k1 * cm) * chi2, cm * chi2
    tau = (2 * p + cm + 4) * k1 * k1 * 2.0 ** -510
    bracket = s_k + t_k + s_0 + t_0 + 16.0 * (k1 / kappa) ** 2 * (s_k + s_0) + 8.0 * s_0 + tau
    margin = np.minimum(np.abs(s_k - t_k), np.abs(s_0 - t_0))
    keep = (margin > (8 + 4 * p) * np.finfo(float).eps * bracket) & (u >= 2.0 ** -64)
    with np.errstate(divide="ignore"):
        for eps in eps_values:
            lam = eps * u ** (-2.0 / p)
            for v in (lam, kappa * lam):
                keep &= (v >= 2.0 ** -504) & (v <= 2.0 ** 504)
    return keep


def _near_tie_draws(ctx, rng, k, ulps=8):
    # k draws whose chi2 lies up to about ulps ulps (a relative offset of
    # ulps 2^-53) from the chi2 at which S_k = T_k (odd draws) or S_0 = T_0
    # (even draws); at ulps = 0 it is that chi2.
    p, cm, k1 = ctx.p, ctx.c / ctx.m, 1.0 + ctx.kappa
    u = rng.random(k)
    z1, z2 = rng.standard_normal((k, p)), rng.standard_normal((k, p))
    s_k, s_0 = _ltr_sum_sq(z1 * math.sqrt(ctx.kappa) - z2), _ltr_sum_sq(z2)
    chi2 = np.where(np.arange(k) % 2 == 1, s_k / (k1 * k1 * cm), s_0 / cm)
    chi2 *= 1.0 + rng.integers(-ulps, ulps + 1, k) * 2.0 ** -53
    return u, z1, z2, chi2


class TestRiskDifferenceSweep:
    """One estimate against a separate model-space run at each eps."""

    @pytest.mark.parametrize("n", [1000, 65536, 100_000, 200_001])
    def test_matches_separate_runs(self, n):
        ctx = _ctx(p=2, m=3, c=default_c(2, 3, 0.95), kappa=0.5)
        got = risk_difference_mc(ctx, n=n, seed=11)
        for eps in _SWEEP_EPS:
            want = _separate_risk_difference(_ctx(p=2, m=3, c=ctx.c, kappa=0.5, eps=eps), n, 11)
            assert (got.value, got.error, got.n_evals) == (want.value, want.error, n)

    @pytest.mark.parametrize("p,m,kappa", [(1, 2, 0.25), (2, 5, 1.0), (3, 17, 0.1), (9, 4, 0.5)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_separate_runs_in_every_dimension(self, p, m, kappa, workers, report_cores):
        # At p = 9 the separate run's np.sum adds pairwise and the pivot
        # left to right; no draw lies within those ulps of its threshold.
        c = default_c(p, m, 0.95)
        report_cores(workers)
        got = risk_difference_mc(_ctx(p=p, m=m, c=c, kappa=kappa), n=70_000, seed=3)
        report_cores(1)
        for eps in _SWEEP_EPS:
            want = _separate_risk_difference(_ctx(p=p, m=m, c=c, kappa=kappa, eps=eps), 70_000, 3)
            assert (got.value, got.error) == (want.value, want.error)


class TestSweepRows:
    """The estimator's one row of values, ``_pivot_values``, against the
    model-space oracle at several eps, on hand-built draws."""

    @given(
        p=st.integers(1, 9),
        kappa=st.floats(1e-3, 10.0),
        eps_values=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4),
        special_u=st.lists(st.sampled_from([0.0, 2.0 ** -70, 2.0 ** -60]), max_size=6),
        log2_ulps=st.integers(0, 40),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_model_space_bit_for_bit(self, p, kappa, eps_values, special_u, log2_ulps,
                                             seed):
        # Near ties straddle the bound B: those inside it, and u or lambda
        # out of range, may differ in model space between eps values.
        m = 1 + seed % 7
        ctx = _ctx(p=p, m=m, c=default_c(p, m, 0.95), kappa=kappa)
        rng = np.random.default_rng(seed)
        ties = _near_tie_draws(ctx, rng, 48, ulps=2 ** log2_ulps)
        plain = (rng.random(48), rng.standard_normal((48, p)), rng.standard_normal((48, p)),
                 rng.chisquare(m, 48))
        u, z1, z2, chi2 = (np.concatenate(pair) for pair in zip(ties, plain))
        u[rng.choice(u.size, len(special_u), replace=False)] = special_u
        keep = _pivot_agrees(ctx, eps_values, u, z1, z2, chi2)
        got = _pivot_values(ctx, z1, z2, chi2)
        for want in _model_space_rows(ctx, eps_values, u, z1, z2, chi2):
            np.testing.assert_array_equal(got[keep], want[keep])

    def test_near_ties_take_the_model_space(self):
        # Within 8 ulps of a threshold the model-space indicators differ
        # between eps values on some draws; the bound B sets each such draw
        # aside, and on the ordinary draws mixed in the pivot takes every
        # model-space row.
        ctx = _ctx(p=2, m=5, c=default_c(2, 5, 0.95), kappa=0.25)
        rng = np.random.default_rng(4)
        ties = _near_tie_draws(ctx, rng, 4000)
        plain = (rng.random(4000), rng.standard_normal((4000, 2)), rng.standard_normal((4000, 2)),
                 rng.chisquare(5, 4000))
        draws = [np.concatenate(pair) for pair in zip(ties, plain)]
        want = _model_space_rows(ctx, _SWEEP_EPS, *draws)
        split = np.any([w != want[0] for w in want[1:]], axis=0)
        assert np.any(split[:4000])
        keep = _pivot_agrees(ctx, _SWEEP_EPS, *draws)
        assert not np.any(keep[:4000]) and np.count_nonzero(keep[4000:]) > 3900
        got = _pivot_values(ctx, *draws[1:])
        for w in want:
            np.testing.assert_array_equal(got[keep], w[keep])

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_near_overflow_lambda_keeps_the_unit_eps_row(self, p):
        # At eps = 1e300 lambda lies near the top of the double range, so
        # for draws of order 1e-7 the model-space squares are subnormal and
        # their rounding flips indicators a relative 1e-9 from a threshold,
        # far outside the bound B; the pivot gives the unit-eps values.
        ctx = _ctx(p=p, m=3, c=default_c(p, 3, 0.95), kappa=0.5)
        rng = np.random.default_rng(p)
        u, z1, z2, chi2 = _near_tie_draws(ctx, rng, 2000, ulps=0)
        z1, z2, chi2 = 1e-7 * z1, 1e-7 * z2, 1e-14 * chi2 * (1.0 + 1e-9 * rng.standard_normal(2000))
        far, unit = _model_space_rows(ctx, (1e300, 1.0), u, z1, z2, chi2)
        assert not np.array_equal(far, unit)
        np.testing.assert_array_equal(_pivot_values(ctx, z1, z2, chi2), unit)


class TestRiskDifference:
    def test_closed_hand_value(self):
        # F_{2,2}(2) - F_{2,2}(1) = 2/3 - 1/2 = 1/6.
        ctx = _ctx(p=2, m=2, c=2.0, kappa=1.0)
        assert risk_difference_closed(ctx) == pytest.approx(1.0 / 6.0, abs=1e-13)

    def test_zero_at_kappa_zero(self):
        ctx = _ctx(kappa=0.0)
        assert risk_difference_closed(ctx) == 0.0
        est = risk_difference_mc(ctx, n=10_000, seed=0)
        assert est == EstimateWithError(0.0, 0.0, 10_000, "monte_carlo")

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
        # free: the pivot tests each draw once for every eps, so the paired
        # estimate is bitwise eps-independent, also at 1e308, where lambda
        # overflows on about half the draws in model space.
        base = risk_difference_mc(_ctx(eps=1.0), n=50_000, seed=21)
        for eps in (0.5, 2.0, 1e-300, 1e300, 1e308):
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

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_matches_an_independent_quantile(self, p):
        # scipy's fdtri (cdflib) shares no code with f_quantile.  The worst
        # gap over this grid, 3.1e-13 at (1, 9997, 0.95), is the accuracy of
        # f_cdf's incomplete-beta continued fraction.
        for m in (1, 2, 3, 5, 17, 60, 497, 9997):
            for level in (0.5, 0.9, 0.95, 0.99):
                want = p * special.fdtri(p, m, level)
                assert default_c(p, m, level) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,m", [(1, 2), (2, 5)])
    def test_the_quantile_oracle_against_mpmath(self, p, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, b = mpmath.mpf(p) / 2, mpmath.mpf(m) / 2
            y = mpmath.findroot(
                lambda y: mpmath.betainc(a, b, 0, y, regularized=True) - 0.95, 0.5
            )
            want = float(m * y / (p * (1 - y)))
        assert special.fdtri(p, m, 0.95) == pytest.approx(want, rel=1e-15, abs=0.0)


# Two-sided 99.99% bounds of chi^2_399 / 399, the law of the sample variance
# of 400 independent standard normal scores (scipy.stats.chi2.ppf at 5e-5 and
# 1 - 5e-5, divided by 399).
_Z_VAR_LO, _Z_VAR_HI = 0.748, 1.299


class TestStandardErrorCalibration:
    # z = (estimate - closed form) / SE over seeds 0..399 of 10^4 draws each
    # is near standard normal only if the standard error is calibrated: an
    # SE off by a factor of 2 either way puts the sample variance of z near
    # 1/4 or 4.  The seeds are fixed, so the gate is deterministic.
    @staticmethod
    def _z_variance(runs) -> float:
        z = [(est.value - closed) / est.error for est, closed in runs]
        return float(np.var(z, ddof=1))

    @pytest.mark.parametrize("p,m", [(2, 2), (1, 5)])
    def test_risk_difference_mc(self, p, m):
        ctx = _ctx(p=p, m=m, c=default_c(p, m, 0.95), kappa=1.0)
        closed = risk_difference_closed(ctx)
        runs = [(risk_difference_mc(ctx, n=10_000, seed=seed), closed) for seed in range(400)]
        assert _Z_VAR_LO <= self._z_variance(runs) <= _Z_VAR_HI

    def test_lemma_smoments(self):
        runs = [lemma_smoments_check(2, 2, 1.0, n=10_000, seed=seed) for seed in range(400)]
        assert _Z_VAR_LO <= self._z_variance(runs) <= _Z_VAR_HI


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
    def test_perturbs_any_mixture(self):
        # Each family maps every ball of the base mixture: the empty mixture
        # stays empty, and two balls become two (scale, offset) or four
        # (band) with the same total weight.
        ctx = _ctx(p=2)
        base = phi_kappa(ctx)

        def two(x, s):
            weights, centres, radii2 = base.balls(x, s)
            return (np.array([0.5, 0.5]), np.concatenate([centres, centres + 1.0], axis=-2),
                    np.concatenate([radii2, 4.0 * radii2], axis=-1))

        x, s = np.array([1.0, -0.5]), 1.8
        for seed in range(12):
            empty = perturb(Procedure(balls=_never, label="never"), seed)
            assert [a.size for a in empty.balls(x, s)] == [0, 0, 0]
            weights, centres, radii2 = perturb(Procedure(balls=two, label="two"), seed).balls(x, s)
            assert weights.size in (2, 4) and centres.shape == (weights.size, 2)
            assert radii2.shape == (weights.size,) and np.sum(weights) == 1.0

    def test_weights_stay_in_unit_interval_and_differ(self):
        ctx = _ctx(p=2)
        base = phi_kappa(ctx)
        x = np.array([1.0, -0.5])
        s = 1.8
        rng = np.random.default_rng(0)
        probes = rng.normal(size=(400, 2))
        base_vals = inclusion(base, x, np.full(400, s), probes)
        for seed in range(12):
            rival = perturb(base, seed)
            vals = np.asarray(
                inclusion(rival, x, np.full(400, s), probes), dtype=float
            )
            assert np.all((vals >= 0.0) & (vals <= 1.0))
            assert np.any(vals != base_vals)

    def test_eval_vanishes_outside_the_balls(self):
        ctx = _ctx(p=2)
        base = phi_kappa(ctx)
        x = np.array([0.4, 0.9])
        s = 1.1
        rng = np.random.default_rng(1)
        for seed in range(12):
            rival = perturb(base, seed)
            _, centres, radii2 = rival.balls(x, s)
            probes = centres[0] + 2.0 * rng.normal(size=(500, 2))
            vals = np.asarray(
                inclusion(rival, x, np.full(500, s), probes), dtype=float
            )
            d2 = np.sum((probes[:, None, :] - centres) ** 2, axis=-1)
            outside = np.all(d2 >= radii2, axis=-1)
            assert outside.any() and np.all(vals[outside] == 0.0)
            assert np.all(vals[~outside] > 0.0)


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
