import math

import numpy as np
import pytest
from scipy import integrate

from ntglab import blyth, ntg
from ntglab.blyth import (
    BlythContext,
    Observation,
    beta_kappa,
    big_K,
    lambda_posterior_density,
    likelihood,
    mu_kappa,
    mu_posterior_density,
    posterior,
    prior_params,
    q_joint,
    q_obs,
)
from ntglab.specfun import Tolerance, f_cdf, upper_incomplete_gamma

from reference import r_kappa

_QTOL = Tolerance(rel=1e-10, abs=1e-13, max_iter=200)
_QUAD_TOL = dict(epsabs=_QTOL.abs, epsrel=_QTOL.rel, limit=_QTOL.max_iter)


def _ctx(**kw):
    defaults = dict(p=2, m=3, c=2.0, kappa=1.0, eps=1.0)
    defaults.update(kw)
    return BlythContext(**defaults)


def cond_mu_density(ctx, obs, lam, mu):
    """Conditional density of mu given (x, s, lambda), the
    N(x/(1+kappa), I_p/((1+kappa) lambda)) density; mu must have shape (p,)."""
    d2 = float(np.sum((blyth._as_mu(mu, ctx.p) - obs.x / (1.0 + ctx.kappa)) ** 2))
    return r_kappa(d2, lam, ctx)


def sample_obs_given(point, p, m, rng):
    """Draw (x, s) from the model at a parameter point."""
    if point.mu.size != p:
        raise ValueError("dimension mismatch")
    x = point.mu + rng.standard_normal(p) / math.sqrt(point.lam)
    s = rng.chisquare(m) / point.lam
    return Observation(x=x, s=s)


class TestConstruction:
    def test_observation_validation(self):
        with pytest.raises(ValueError):
            Observation(x=np.zeros((2, 2)), s=1.0)
        with pytest.raises(ValueError):
            Observation(x=np.zeros(2), s=0.0)

    def test_observation_frozen(self):
        obs = Observation(x=np.array([1.0, 2.0]), s=1.0)
        with pytest.raises(ValueError):
            obs.x[0] = 9.0

    def test_context_validation(self):
        with pytest.raises(ValueError):
            _ctx(p=0)
        with pytest.raises(ValueError):
            _ctx(c=0.0)
        with pytest.raises(ValueError):
            _ctx(kappa=-0.1)
        with pytest.raises(ValueError):
            _ctx(eps=0.0)
        for bad in (math.inf, math.nan):
            for name in ("c", "kappa", "eps"):
                with pytest.raises(ValueError):
                    _ctx(**{name: bad})
        _ctx(kappa=0.0)  # the improper limit is a valid context

    def test_prior_params_wiring(self):
        ctx = _ctx(kappa=0.7)
        params = prior_params(ctx)
        assert params.p == ctx.p
        assert params.kappa0 == ctx.kappa
        assert params.alpha0 == -0.5 * ctx.p
        assert params.beta0 == 0.0
        assert params.eps0 == ctx.eps
        with pytest.raises(ValueError):
            prior_params(_ctx(kappa=0.0))


class TestStatistics:
    def test_mu_kappa(self):
        x = np.array([3.0, -6.0])
        assert np.allclose(mu_kappa(x, 2.0), [1.0, -2.0])
        assert np.allclose(mu_kappa(x, 0.0), x)
        with pytest.raises(ValueError):
            mu_kappa(x, -1.0)

    def test_beta_kappa(self):
        obs = Observation(x=np.array([2.0, 0.0]), s=3.0)
        # (3 + (1/2) * 4) / 2 = 2.5 at kappa = 1.
        assert beta_kappa(obs, 1.0) == pytest.approx(2.5, abs=1e-15)
        assert beta_kappa(obs, 0.0) == pytest.approx(1.5, abs=1e-15)

    def test_big_K_example(self):
        # p=2, m=2, eps=2*pi, kappa=1: (2/2) * 1 * ((1)(2))^1 = 2.
        ctx = _ctx(p=2, m=2, eps=2.0 * math.pi, kappa=1.0)
        assert big_K(ctx) == pytest.approx(2.0, rel=1e-14)

    def test_big_K_diverges_at_zero(self):
        with pytest.raises(ValueError):
            big_K(_ctx(kappa=0.0))

    def test_big_K_overflow_raises(self):
        # At m = 343 Gamma(m/2) is finite but its product with the power is not.
        with pytest.raises(OverflowError):
            big_K(_ctx(p=2, m=343, kappa=0.2))

    def test_big_K_kappa_order(self):
        # K ~ kappa^{-p/2} as kappa -> 0.
        for p in (1, 2, 3):
            a = big_K(_ctx(p=p, kappa=1e-4))
            b = big_K(_ctx(p=p, kappa=1e-6))
            assert b / a == pytest.approx(100.0 ** (0.5 * p), rel=1e-3)

    def test_r_kappa_peak_and_decay(self):
        ctx = _ctx(p=2, kappa=1.0)
        lam = 1.5
        peak = (2.0 * lam / (2.0 * math.pi)) ** 1.0
        assert r_kappa(0.0, lam, ctx) == pytest.approx(peak, rel=1e-14)
        assert r_kappa(1.0, lam, ctx) == pytest.approx(
            peak * math.exp(-lam), rel=1e-14
        )
        with pytest.raises(ValueError):
            r_kappa(-0.1, lam, ctx)
        with pytest.raises(ValueError):
            r_kappa(0.1, 0.0, ctx)

    def test_r_kappa_is_normalized(self):
        # Integrating r_kappa over mu in R^1 must give one.
        ctx = _ctx(p=1, kappa=0.8)
        lam = 2.3
        total = integrate.quad(
            lambda u: r_kappa(u * u, lam, ctx), -math.inf, math.inf, **_QUAD_TOL
        )[0]
        assert total == pytest.approx(1.0, rel=1e-9)


class TestQIdentities:
    def test_q_equals_K_times_prior(self):
        rng = np.random.default_rng(5)
        for kappa in (0.1, 1.0):
            ctx = _ctx(p=2, m=3, kappa=kappa, eps=0.8)
            params = prior_params(ctx)
            k_const = big_K(ctx)
            for _ in range(25):
                lam = ctx.eps + float(rng.uniform(0.01, 5.0))
                mu = rng.normal(size=2)
                lhs = q_joint(ctx, mu, lam)
                rhs = k_const * ntg.prior_density(
                    params, ntg.LocationScale(mu=mu, lam=lam)
                )
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_q_obs_equals_K_times_marginal(self):
        rng = np.random.default_rng(6)
        for kappa in (0.1, 1.0):
            ctx = _ctx(p=2, m=3, kappa=kappa, eps=0.8)
            params = prior_params(ctx)
            k_const = big_K(ctx)
            for _ in range(25):
                obs = Observation(
                    x=rng.normal(size=2) * 2.0, s=float(rng.uniform(0.2, 4.0))
                )
                lhs = q_obs(ctx, obs)
                rhs = k_const * ntg.marginal_obs_density(params, ctx.m, obs.x, obs.s)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_q_obs_hand_example(self):
        # kappa=0, m=2, eps=1, x=0, s=2: bk=1, q = 1 * (2)^{-1} Gamma(1,1).
        ctx = _ctx(p=1, m=2, kappa=0.0, eps=1.0)
        obs = Observation(x=np.zeros(1), s=2.0)
        assert q_obs(ctx, obs) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)

    def test_q_joint_zero_below_truncation(self):
        ctx = _ctx(eps=1.0)
        assert q_joint(ctx, np.zeros(2), 0.9) == 0.0
        assert q_joint(ctx, np.zeros(2), 1.1) > 0.0

    @pytest.mark.parametrize("lam", [0.9, 1.5])  # below and above the truncation
    def test_q_joint_rejects_mu_of_the_wrong_shape(self, lam):
        with pytest.raises(ValueError, match="shape"):
            q_joint(_ctx(eps=1.0), [0.1, 0.2, 0.3], lam)

    def test_cond_mu_density_rejects_mu_of_the_wrong_shape(self):
        obs = Observation(x=np.array([1.0, -0.5]), s=1.4)
        with pytest.raises(ValueError, match="shape"):
            cond_mu_density(_ctx(), obs, 1.5, [0.1])

    def test_factorization(self):
        # likelihood * q_joint = q_obs * lambda-posterior * (mu | lambda),
        # pointwise, including at the improper limit kappa = 0.
        rng = np.random.default_rng(7)
        for kappa in (0.0, 0.3, 2.0):
            ctx = _ctx(p=2, m=4, kappa=kappa, eps=0.6)
            for _ in range(20):
                obs = Observation(
                    x=rng.normal(size=2) * 1.5, s=float(rng.uniform(0.3, 3.0))
                )
                lam = ctx.eps + float(rng.uniform(0.01, 4.0))
                mu = rng.normal(size=2)
                lhs = likelihood(obs.x, obs.s, mu, lam, ctx.m) * q_joint(
                    ctx, mu, lam
                )
                rhs = (
                    q_obs(ctx, obs)
                    * lambda_posterior_density(ctx, obs, lam)
                    * cond_mu_density(ctx, obs, lam, mu)
                )
                assert lhs == pytest.approx(rhs, rel=1e-8)


class TestPosteriors:
    def test_lambda_posterior_normalized(self):
        for kappa in (0.0, 0.5):
            ctx = _ctx(p=2, m=3, kappa=kappa, eps=0.7)
            obs = Observation(x=np.array([1.0, -0.5]), s=1.4)
            total = integrate.quad(
                lambda lam: lambda_posterior_density(ctx, obs, lam),
                ctx.eps,
                math.inf,
                **_QUAD_TOL,
            )[0]
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_lambda_posterior_zero_below_truncation(self):
        ctx = _ctx(eps=0.7)
        obs = Observation(x=np.zeros(2), s=1.0)
        assert lambda_posterior_density(ctx, obs, 0.7) == 0.0
        assert lambda_posterior_density(ctx, obs, 0.71) > 0.0

    def test_mu_posterior_normalized(self):
        ctx = _ctx(p=1, m=2, kappa=0.6, eps=0.5)
        obs = Observation(x=np.array([0.8]), s=1.1)
        total = integrate.quad(
            lambda mu: mu_posterior_density(ctx, obs, np.array([mu])),
            -math.inf,
            math.inf,
            **_QUAD_TOL,
        )[0]
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_mu_posterior_is_lambda_mixture(self):
        # The mu marginal equals the lambda-mixture of the conditional.
        ctx = _ctx(p=1, m=3, kappa=0.4, eps=0.6)
        obs = Observation(x=np.array([-1.2]), s=2.0)
        for mu in (-1.0, 0.0, 1.5):
            direct = mu_posterior_density(ctx, obs, np.array([mu]))
            mixed = integrate.quad(
                lambda lam, mu=mu: lambda_posterior_density(ctx, obs, lam)
                * cond_mu_density(ctx, obs, lam, np.array([mu])),
                ctx.eps,
                math.inf,
                **_QUAD_TOL,
            )[0]
            assert direct == pytest.approx(mixed, rel=1e-8)

    def test_kappa_continuity_at_zero(self):
        # Every kappa = 0 formula is the limit of its kappa > 0 version.
        obs = Observation(x=np.array([0.7, -0.3]), s=1.6)
        lam, mu = 1.4, np.array([0.5, 0.1])
        for kappa in (1e-2, 1e-4, 1e-6):
            ctx = _ctx(p=2, m=3, kappa=kappa, eps=0.8)
            ctx0 = _ctx(p=2, m=3, kappa=0.0, eps=0.8)
            pairs = [
                (beta_kappa(obs, kappa), beta_kappa(obs, 0.0)),
                (
                    lambda_posterior_density(ctx, obs, lam),
                    lambda_posterior_density(ctx0, obs, lam),
                ),
                (
                    mu_posterior_density(ctx, obs, mu),
                    mu_posterior_density(ctx0, obs, mu),
                ),
                (q_obs(ctx, obs), q_obs(ctx0, obs)),
            ]
            for got, limit in pairs:
                assert got == pytest.approx(limit, rel=20.0 * kappa)
        assert np.allclose(mu_kappa(obs.x, 1e-6), obs.x, rtol=1e-5)


class TestPosteriorParams:
    # The Blyth posterior is the conjugate update of the prior; at kappa = 0
    # it is still a proper NtG distribution.
    @pytest.mark.parametrize("p, m", [(1, 2), (2, 5), (3, 17)])
    @pytest.mark.parametrize("kappa", [0.05, 0.5, 2.0])
    def test_matches_the_conjugate_update(self, p, m, kappa):
        rng = np.random.default_rng(10 * p + m)
        ctx = _ctx(p=p, m=m, kappa=kappa, eps=0.7)
        obs = Observation(x=rng.standard_normal(p) * 1.5, s=float(rng.uniform(0.2, 4.0)))
        got = posterior(ctx, obs)
        want = ntg.posterior_update(prior_params(ctx), obs.x, obs.s, ctx.m)
        assert (got.p, got.eps0) == (want.p, want.eps0)
        assert np.allclose(got.mu0, want.mu0, rtol=1e-15, atol=0.0)
        for a, b in ((got.kappa0, want.kappa0), (got.alpha0, want.alpha0),
                     (got.beta0, want.beta0)):
            assert a == pytest.approx(b, rel=1e-15)

    def test_is_proper_at_kappa_zero(self):
        ctx = _ctx(p=2, m=3, kappa=0.0, eps=0.8)
        obs = Observation(x=np.array([0.7, -0.3]), s=1.6)
        post = posterior(ctx, obs)
        assert isinstance(post, ntg.NtGParams)
        assert np.array_equal(post.mu0, obs.x)
        assert (post.kappa0, post.alpha0, post.beta0, post.eps0) == (1.0, 1.5, 0.8, 0.8)


@pytest.fixture
def gamma_calls(monkeypatch):
    # Every Gamma(a, x) that the posterior densities evaluate (in ntg), from
    # empty memos on.
    calls = []

    def counted(a, x):
        calls.append((a, x))
        return upper_incomplete_gamma(a, x)

    monkeypatch.setattr(ntg, "upper_incomplete_gamma", counted)
    _clear_memos()
    yield calls
    _clear_memos()


def _clear_memos():
    blyth._posterior_memo[:] = None, None


def _mu_sqdist(ctx, obs, t):
    return ntg.marginal_mu_density_sqdist(posterior(ctx, obs), t)


class TestNormaliserMemo:
    # Gamma(m/2, eps beta_kappa) depends on the data alone, so a grid of
    # density values for one observation evaluates it once.
    ctx = _ctx(p=2, m=17, kappa=0.5, eps=0.5)
    obs = Observation(x=np.array([0.4, -1.1]), s=15.0)

    def test_lambda_grid_makes_one_gamma_call(self, gamma_calls):
        for lam in np.linspace(0.51, 2.5, 64):
            lambda_posterior_density(self.ctx, self.obs, float(lam))
        assert len(gamma_calls) == 1

    def test_mu_grid_makes_one_gamma_call_per_point_plus_one(self, gamma_calls):
        center = mu_kappa(self.obs.x, self.ctx.kappa)
        for t in np.linspace(0.0, 4.0, 64):
            mu_posterior_density(self.ctx, self.obs, center + np.array([t, 0.0]))
        assert len(gamma_calls) == 65

    def test_interleaved_values_equal_fresh_ones(self, gamma_calls):
        # Neighbours differ only in m, eps, kappa or s; at x = 0 the two
        # kappas share beta_kappa, and so the memo entry, correctly.
        base = dict(p=2, m=17, c=2.0, kappa=0.5, eps=0.5)
        x = np.array([0.4, -1.1])
        cases = [
            (_ctx(**base), Observation(x=x, s=15.0)),
            (_ctx(**{**base, "m": 18}), Observation(x=x, s=15.0)),
            (_ctx(**{**base, "eps": 0.6}), Observation(x=x, s=15.0)),
            (_ctx(**{**base, "kappa": 0.25}), Observation(x=x, s=15.0)),
            (_ctx(**base), Observation(x=x, s=15.5)),
            (_ctx(**base), Observation(x=np.zeros(2), s=15.0)),
            (_ctx(**{**base, "kappa": 0.0}), Observation(x=np.zeros(2), s=15.0)),
        ]
        lams = (0.7, 1.3)
        mus = (np.array([0.1, -0.2]), np.array([1.5, 0.3]))
        ts = np.array([0.0, 0.3, 9.0])

        def values(ctx, obs):
            return (
                [lambda_posterior_density(ctx, obs, lam) for lam in lams]
                + [mu_posterior_density(ctx, obs, mu) for mu in mus]
                + _mu_sqdist(ctx, obs, ts).tolist()
            )

        fresh = []
        for ctx, obs in cases:
            _clear_memos()
            fresh.append(values(ctx, obs))
        _clear_memos()
        for _ in range(2):
            for (ctx, obs), want in zip(cases + cases[::-1], fresh + fresh[::-1]):
                assert values(ctx, obs) == want

    def test_overflow_raises_on_every_call(self, gamma_calls):
        # At m = 400, Gamma(200, 0.5) is past the double range while
        # beta_kappa^{m/2} = 1 is not, so the error comes from the memoised
        # Gamma itself; it is raised afresh each time.
        ctx = _ctx(p=2, m=400, kappa=0.5, eps=0.5)
        obs = Observation(x=np.zeros(2), s=2.0)
        for k in range(1, 4):
            with pytest.raises(OverflowError):
                lambda_posterior_density(ctx, obs, 1.0)
            with pytest.raises(OverflowError):
                mu_posterior_density(ctx, obs, np.zeros(2))
            with pytest.raises(OverflowError):
                _mu_sqdist(ctx, obs, np.array([0.0, 1.0]))
            assert len(gamma_calls) == 3 * k

    @pytest.mark.parametrize("mu", [np.zeros(1), np.zeros(3), np.zeros((2, 2)), 0.0])
    def test_mu_of_the_wrong_shape_raises(self, mu):
        with pytest.raises(ValueError, match="shape"):
            mu_posterior_density(self.ctx, self.obs, mu)


class TestMuPosteriorSqdist:
    # ntg's array form over squared distances against the scalar density, to
    # test_specfun's array-vs-scalar Gamma bound.
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 17, 48])
    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_matches_the_scalar_density(self, p, m, kappa):
        rng = np.random.default_rng(100 * p + m)
        ctx = _ctx(p=p, m=m, kappa=kappa, eps=0.5)
        obs = Observation(x=rng.standard_normal(p), s=float(m))
        center = mu_kappa(obs.x, kappa)
        # From the centre out to where eps * b is far past the shape, so
        # both the series and the continued fraction of Gamma are used.
        radii = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 40)])
        dirs = rng.standard_normal((radii.size, p))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        mus = center + radii[:, None] * dirs
        t = np.sum((mus - center) ** 2, axis=1)
        got = _mu_sqdist(ctx, obs, t)
        want = np.array([mu_posterior_density(ctx, obs, mu) for mu in mus])
        assert got.shape == t.shape
        assert np.all(want > 0.0)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14


class TestModelSampling:
    def test_dimension_mismatch(self):
        point = ntg.LocationScale(mu=np.zeros(3), lam=1.0)
        with pytest.raises(ValueError):
            sample_obs_given(point, 2, 3, np.random.default_rng(0))

    def test_observation_moments(self):
        point = ntg.LocationScale(mu=np.array([1.0, -2.0]), lam=4.0)
        rng = np.random.default_rng(8)
        n = 20000
        xs = np.empty((n, 2))
        ss = np.empty(n)
        for i in range(n):
            obs = sample_obs_given(point, 2, 3, rng)
            xs[i] = obs.x
            ss[i] = obs.s
        # x ~ N(mu, I/lambda), s ~ chi^2_m / lambda.
        assert np.allclose(xs.mean(axis=0), point.mu, atol=4.0 * 0.5 / math.sqrt(n))
        assert np.allclose(xs.var(axis=0), 0.25, rtol=0.05)
        assert ss.mean() == pytest.approx(3.0 / 4.0, rel=0.03)

    def test_pivot_follows_f_distribution(self):
        # (||x - mu||^2 / p) / (s / m) ~ F(p, m) regardless of (mu, lambda).
        p, m = 2, 4
        point = ntg.LocationScale(mu=np.array([0.3, 1.1]), lam=2.5)
        rng = np.random.default_rng(9)
        n = 5000
        pivots = np.empty(n)
        for i in range(n):
            obs = sample_obs_given(point, p, m, rng)
            pivots[i] = (float(np.sum((obs.x - point.mu) ** 2)) / p) / (obs.s / m)
        pivots.sort()
        grid = pivots[:: n // 100]
        ks = max(
            abs(f_cdf(p, m, t) - np.searchsorted(pivots, t, side="right") / n)
            for t in grid
        )
        assert ks < 1.63 / math.sqrt(n)


class TestLikelihood:
    def test_matches_factorized_densities(self):
        # Gaussian factor times the chi^2_m / lambda density for s.
        x = np.array([0.5])
        mu = np.array([0.1])
        lam, s, m = 1.7, 0.9, 3
        gauss = math.sqrt(lam / (2 * math.pi)) * math.exp(
            -0.5 * lam * (0.4) ** 2
        )
        chi = (
            (lam * s) ** (0.5 * m - 1.0)
            * math.exp(-0.5 * lam * s)
            / (2.0 ** (0.5 * m) * math.gamma(0.5 * m))
            * lam
        )
        assert likelihood(x, s, mu, lam, m) == pytest.approx(gauss * chi, rel=1e-13)

    def test_integrates_to_one_over_obs(self):
        mu = np.array([0.4])
        lam, m = 1.3, 2

        def over_s(x):
            return integrate.quad(
                lambda s: likelihood(np.array([x]), s, mu, lam, m),
                0.0,
                math.inf,
                **_QUAD_TOL,
            )[0]

        total = integrate.quad(over_s, -math.inf, math.inf, **_QUAD_TOL)[0]
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            likelihood(np.zeros(1), 0.0, np.zeros(1), 1.0, 2)
        with pytest.raises(ValueError):
            likelihood(np.zeros(1), 1.0, np.zeros(1), 0.0, 2)

    def test_stack_matches_each_point(self):
        # Means (3, 4, 2) against precisions (4,); one (mu, lambda) gives a
        # float.
        x, s, m = np.array([0.5, -1.0]), 0.9, 3
        rng = np.random.default_rng(9)
        mu, lam = rng.normal(size=(3, 4, 2)), rng.uniform(0.2, 3.0, size=4)
        stack = likelihood(x, s, mu, lam, m)
        assert stack.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            one = likelihood(x, s, mu[i, j], float(lam[j]), m)
            d2 = float(np.sum((x - mu[i, j]) ** 2))
            ref = (lam[j] / (2 * math.pi) * math.exp(-0.5 * lam[j] * (d2 + s))
                   * lam[j] ** 1.5 * s ** 0.5 / (2.0 ** 1.5 * math.gamma(1.5)))
            assert type(one) is float and one == pytest.approx(stack[i, j], rel=1e-15)
            assert one == pytest.approx(ref, rel=1e-13)
        with pytest.raises(ValueError):
            likelihood(x, s, mu, np.array([1.0, 0.0, 1.0, 1.0]), m)

    def test_mu_of_the_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            likelihood(np.array([0.3, -0.2]), 1.0, np.array([0.1]), 1.5, 2)
