import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ntglab import ntg
from ntglab.blyth import likelihood
from ntglab.ntg import (
    LocationScale,
    NtGParams,
    marginal_lambda_density,
    marginal_mu_density,
    marginal_obs_density,
    normalizing_constant,
    posterior_update,
    prior_density,
    sample_prior,
)
from ntglab.specfun import Tolerance, upper_incomplete_gamma

from reference import joint_quadrature

_QTOL = Tolerance(rel=1e-10, abs=1e-13, max_iter=200)
_QUAD_TOL = dict(epsabs=_QTOL.abs, epsrel=_QTOL.rel, limit=_QTOL.max_iter)


def _proper_params(**kw):
    defaults = dict(p=1, mu0=np.zeros(1), kappa0=1.0, alpha0=1.0, beta0=1.0,
                    eps0=0.5)
    defaults.update(kw)
    return NtGParams(**defaults)


class TestNtGParams:
    def test_proper_regimes_accepted(self):
        NtGParams(1, np.zeros(1), 1.0, 2.0, 1.0, 0.0)
        NtGParams(2, np.zeros(2), 0.5, -3.0, 1.0, 0.7)
        NtGParams(3, np.zeros(3), 2.0, -1.5, 0.0, 1.0)

    @pytest.mark.parametrize(
        "alpha0,beta0,eps0",
        [
            (-1.0, 1.0, 0.0),   # eps0 = 0 needs alpha0 > 0
            (1.0, 0.0, 0.0),    # eps0 = 0 needs beta0 > 0
            (1.0, 0.0, 1.0),    # beta0 = 0 needs alpha0 < 0
            (0.0, 0.0, 1.0),    # alpha0 = 0 with beta0 = 0 is improper
        ],
    )
    def test_improper_regimes_rejected(self, alpha0, beta0, eps0):
        with pytest.raises(ValueError):
            NtGParams(1, np.zeros(1), 1.0, alpha0, beta0, eps0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NtGParams(1, np.zeros(2), 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            NtGParams(1, np.zeros(1), 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            NtGParams(0, np.zeros(0), 1.0, 1.0, 1.0, 0.0)

    def test_mu0_is_frozen(self):
        params = _proper_params()
        with pytest.raises(ValueError):
            params.mu0[0] = 3.0

    def test_mu0_copy_independent(self):
        src = np.array([1.0])
        params = _proper_params(mu0=src)
        src[0] = 99.0
        assert params.mu0[0] == 1.0


class TestNormalizingConstant:
    def test_pareto_tail_example(self):
        # p=2, alpha0=-1, beta0=0, eps0=1: C = (2 pi)^{-1} * 1 * 1.
        params = NtGParams(2, np.zeros(2), 1.0, -1.0, 0.0, 1.0)
        assert normalizing_constant(params) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-14
        )

    def test_truncated_example(self):
        # p=2, alpha0=2, beta0=3, eps0=0.5: C = (2 pi)^{-1} 9 / Gamma(2, 1.5)
        # with Gamma(2, 1.5) = 2.5 e^{-1.5}.
        params = NtGParams(2, np.zeros(2), 1.0, 2.0, 3.0, 0.5)
        expected = 9.0 / (2.0 * math.pi * 2.5 * math.exp(-1.5))
        assert normalizing_constant(params) == pytest.approx(expected, rel=1e-13)

    def test_untruncated_example(self):
        # eps0 = 0: plain normal-gamma, C = (2 pi)^{-p/2} beta^alpha / Gamma(alpha).
        params = NtGParams(1, np.zeros(1), 1.0, 1.5, 2.0, 0.0)
        expected = 2.0 ** 1.5 / (math.sqrt(2.0 * math.pi) * math.gamma(1.5))
        assert normalizing_constant(params) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha0=1.0, beta0=1.0, eps0=0.0),
            dict(alpha0=-0.5, beta0=2.0, eps0=0.3),
            dict(alpha0=-0.5, beta0=0.0, eps0=0.7),
        ],
    )
    def test_density_integrates_to_one(self, kw):
        params = _proper_params(kappa0=0.8, **kw)
        # The beta0 = 0 tail decays only polynomially in lambda; the nested
        # quadrature converges there, just to a looser figure.
        tol = _QTOL if kw["beta0"] > 0 else Tolerance(rel=1e-5, abs=1e-8)
        total = joint_quadrature(params, tol)
        assert total == pytest.approx(1.0, abs=5e-5)


class TestPriorDensity:
    def test_zero_below_truncation(self):
        params = _proper_params(eps0=0.5)
        point = LocationScale(mu=np.zeros(1), lam=0.4)
        assert prior_density(params, point) == 0.0
        assert prior_density(params, LocationScale(np.zeros(1), 0.5)) == 0.0
        assert prior_density(params, LocationScale(np.zeros(1), 0.6)) > 0.0

    def test_dimension_mismatch(self):
        params = _proper_params()
        with pytest.raises(ValueError):
            prior_density(params, LocationScale(mu=np.zeros(2), lam=1.0))

    def test_stack_matches_each_point(self):
        # A (3, 4) stack of p = 2 points, precisions on both sides of eps0,
        # against the density written with math at each point; one point
        # gives a float.
        params = NtGParams(2, np.array([0.3, -0.2]), 1.3, 0.7, 1.5, 0.4)
        rng = np.random.default_rng(8)
        mu, lam = rng.normal(size=(3, 4, 2)), rng.uniform(0.1, 3.0, size=(3, 4))
        stack = prior_density(params, LocationScale(mu=mu, lam=lam))
        c = normalizing_constant(params)
        assert stack.shape == (3, 4)
        for i in np.ndindex(3, 4):
            one = prior_density(params, LocationScale(mu=mu[i], lam=float(lam[i])))
            d2 = float(np.sum((mu[i] - params.mu0) ** 2))
            ref = (c * 1.3 * lam[i] ** 0.7 * math.exp(-lam[i] * (1.5 + 0.65 * d2))
                   if lam[i] > 0.4 else 0.0)
            assert type(one) is float and one == pytest.approx(stack[i], rel=1e-15)
            assert one == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu,lam", [(0.0, 1.0), (np.zeros(2), np.array([1.0, 0.0])),
                                        (np.zeros(2), math.nan)])
    def test_point_validation(self, mu, lam):
        with pytest.raises(ValueError):
            LocationScale(mu=mu, lam=lam)

    def test_rotation_invariance(self):
        # The density depends on mu only through ||mu - mu0||.
        params = NtGParams(2, np.array([0.3, -0.2]), 1.3, -1.0, 1.5, 0.4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=2)
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)],
                 [math.sin(theta), math.cos(theta)]]
            )
            lam = float(rng.uniform(0.5, 3.0))
            a = prior_density(params, LocationScale(params.mu0 + v, lam))
            b = prior_density(params, LocationScale(params.mu0 + rot @ v, lam))
            assert a == pytest.approx(b, rel=1e-12)

    def test_gaussian_conditional_shape(self):
        # At fixed lambda the mu-slice is N(mu0, 1/(kappa0 lambda)) shaped:
        # the log density is quadratic with curvature kappa0 * lambda.
        params = _proper_params(kappa0=2.0)
        lam = 1.7
        f = lambda mu: prior_density(params, LocationScale(np.array([mu]), lam))
        ratio = math.log(f(0.0) / f(1.0))
        assert ratio == pytest.approx(0.5 * params.kappa0 * lam, rel=1e-12)


class TestPosteriorUpdate:
    def test_hand_computed_example(self):
        # x=2, s=1, m=1, kappa0=1, mu0=0, alpha0=0.5, beta0=1:
        # mu1 = 1, kappa1 = 2, alpha1 = 1.5, beta1 = 1 + 0.5 + 0.5*4/2 = 2.5.
        params = _proper_params(alpha0=0.5, beta0=1.0, eps0=0.5)
        updated = posterior_update(params, np.array([2.0]), 1.0, 1)
        assert updated.mu0[0] == pytest.approx(1.0, abs=1e-15)
        assert updated.kappa0 == pytest.approx(2.0, abs=1e-15)
        assert updated.alpha0 == pytest.approx(1.5, abs=1e-15)
        assert updated.beta0 == pytest.approx(2.5, abs=1e-15)
        assert updated.eps0 == params.eps0

    def test_input_validation(self):
        params = _proper_params()
        with pytest.raises(ValueError):
            posterior_update(params, np.zeros(2), 1.0, 1)
        with pytest.raises(ValueError):
            posterior_update(params, np.zeros(1), 0.0, 1)
        with pytest.raises(ValueError):
            posterior_update(params, np.zeros(1), 1.0, 0)

    def test_bayes_rule_against_quadrature(self):
        # The updated density equals likelihood * prior / evidence where the
        # evidence comes from an independent nested quadrature.
        rng = np.random.default_rng(12)
        params = _proper_params(kappa0=1.2, alpha0=0.8, beta0=1.1, eps0=0.4)
        x = np.array([0.7])
        s, m = 1.9, 3
        updated = posterior_update(params, x, s, m)
        evidence = joint_quadrature(
            params, _QTOL, lambda mu, lam: likelihood(x, s, np.array([mu]), lam, m)
        )
        for _ in range(12):
            lam = params.eps0 + float(rng.uniform(0.05, 3.0))
            mu = updated.mu0 + rng.normal(size=1) / math.sqrt(updated.kappa0 * lam)
            point = LocationScale(mu=mu, lam=lam)
            direct = prior_density(updated, point)
            bayes = likelihood(x, s, point.mu, lam, m) * prior_density(
                params, point
            ) / evidence
            assert direct == pytest.approx(bayes, rel=1e-6)

    def test_sequential_updates_commute(self):
        # Sequential conditioning equals batch conditioning, so the final
        # hyper-parameters cannot depend on the observation order.
        params = _proper_params(alpha0=0.5, beta0=1.0)
        obs = [(np.array([1.0]), 0.8, 2), (np.array([-2.0]), 1.5, 3)]
        ab = posterior_update(posterior_update(params, *obs[0]), *obs[1])
        ba = posterior_update(posterior_update(params, *obs[1]), *obs[0])
        assert ab.kappa0 == ba.kappa0
        assert ab.alpha0 == ba.alpha0
        assert ab.mu0[0] == pytest.approx(ba.mu0[0], rel=1e-14)
        assert ab.beta0 == pytest.approx(ba.beta0, rel=1e-14)

    def test_reference_limit(self):
        # With kappa0 = eps0 -> 0, alpha0 = -p/2, beta0 = 0 the posterior
        # approaches NtG(p, x, 1, m/2, s/2, 0) evaluated pointwise.
        x = np.array([1.3])
        s, m = 2.0, 4
        params = NtGParams(1, np.zeros(1), 1e-4, -0.5, 0.0, 1e-4)
        updated = posterior_update(params, x, s, m)
        limit = NtGParams(1, x, 1.0, 0.5 * m, 0.5 * s, 0.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = float(rng.uniform(0.2, 3.0))
            mu = x + rng.normal(size=1) / math.sqrt(lam)
            point = LocationScale(mu=mu, lam=lam)
            a = prior_density(updated, point)
            b = prior_density(limit, point)
            assert a == pytest.approx(b, rel=0.01)


class TestMarginals:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha0=1.0, beta0=1.0, eps0=0.0),
            dict(alpha0=-0.4, beta0=1.5, eps0=0.6),
            dict(alpha0=-0.5, beta0=0.0, eps0=1.0),
        ],
    )
    def test_mu_marginal_matches_quadrature(self, kw):
        params = _proper_params(kappa0=1.4, **kw)
        tol = _QTOL if kw["beta0"] > 0 else Tolerance(rel=1e-8, abs=1e-12)
        # mu = mu0 is excluded for beta0 = 0: the marginal blows up there.
        probes = (0.0, 0.5, 1.7, -2.3) if kw["beta0"] > 0 else (0.5, 1.7, -2.3)
        for mu in probes:
            direct = marginal_mu_density(params, np.array([mu]))
            quad = integrate.quad(
                lambda lam, mu=mu: prior_density(
                    params, LocationScale(np.array([mu]), lam)
                ),
                params.eps0,
                math.inf,
                epsabs=tol.abs, epsrel=tol.rel, limit=max(tol.max_iter, 50),
            )[0]
            assert direct == pytest.approx(quad, rel=1e-6)

    def test_mu_marginal_integrates_to_one(self):
        params = _proper_params(kappa0=0.9, alpha0=-0.3, beta0=1.2, eps0=0.5)
        total = integrate.quad(
            lambda mu: marginal_mu_density(params, np.array([mu])),
            -math.inf,
            math.inf,
            **_QUAD_TOL,
        )[0]
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_mu_marginal_singularity_flagged(self):
        params = _proper_params(alpha0=-0.5, beta0=0.0, eps0=1.0)
        assert marginal_mu_density(params, params.mu0) == math.inf

    def test_lambda_marginal_matches_quadrature(self):
        params = _proper_params(kappa0=1.1, alpha0=0.7, beta0=0.9, eps0=0.3)
        width = 12.0 / math.sqrt(params.kappa0 * params.eps0) + 5.0
        for lam in (0.4, 1.0, 2.5):
            direct = marginal_lambda_density(params, lam)
            quad = integrate.quad(
                lambda mu, lam=lam: prior_density(
                    params, LocationScale(np.array([mu]), lam)
                ),
                -width,
                width,
                **_QUAD_TOL,
            )[0]
            assert direct == pytest.approx(quad, rel=1e-9)

    def test_lambda_marginal_integrates_to_one(self):
        for kw in (
            dict(alpha0=0.7, beta0=0.9, eps0=0.3),
            dict(alpha0=-1.2, beta0=0.0, eps0=0.8),
        ):
            params = _proper_params(**kw)
            total = integrate.quad(
                lambda lam: marginal_lambda_density(params, lam),
                params.eps0,
                math.inf,
                **_QUAD_TOL,
            )[0]
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_obs_marginal_matches_quadrature(self):
        # p(x, s) = integral of likelihood * prior over (mu, lambda).
        params = _proper_params(kappa0=1.3, alpha0=0.6, beta0=1.2, eps0=0.4)
        for x, s, m in ((0.5, 1.0, 2), (-1.2, 2.5, 1), (2.0, 0.3, 4)):
            xv = np.array([x])
            direct = marginal_obs_density(params, m, xv, s)
            quad = joint_quadrature(
                params, _QTOL, lambda mu, lam: likelihood(xv, s, np.array([mu]), lam, m)
            )
            assert direct == pytest.approx(quad, rel=1e-6)

    def test_obs_marginal_integrates_to_one(self):
        params = _proper_params(kappa0=1.0, alpha0=0.8, beta0=1.0, eps0=0.5)
        m = 2

        def over_s(x):
            return integrate.quad(
                lambda s: marginal_obs_density(params, m, np.array([x]), s),
                0.0,
                math.inf,
                **_QUAD_TOL,
            )[0]

        total = integrate.quad(over_s, -math.inf, math.inf, **_QUAD_TOL)[0]
        assert total == pytest.approx(1.0, rel=1e-6)


class TestSampling:
    def test_deterministic_given_generator(self):
        params = _proper_params(alpha0=-0.6, beta0=1.0, eps0=0.5)
        a = sample_prior(params, np.random.default_rng(7))
        b = sample_prior(params, np.random.default_rng(7))
        assert a.lam == b.lam
        assert np.array_equal(a.mu, b.mu)

    def test_lambda_above_truncation(self):
        params = _proper_params(alpha0=-1.0, beta0=0.0, eps0=0.7)
        rng = np.random.default_rng(1)
        draws = [sample_prior(params, rng).lam for _ in range(200)]
        assert min(draws) > params.eps0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha0=-1.0, beta0=0.0, eps0=1.0),
            dict(alpha0=0.8, beta0=1.3, eps0=0.4),
            dict(alpha0=1.5, beta0=1.0, eps0=0.0),
        ],
    )
    def test_lambda_distribution_ks(self, kw):
        # Compare empirical lambda draws with the marginal CDF obtained by
        # quadrature of the marginal density.
        params = _proper_params(**kw)
        rng = np.random.default_rng(42)
        n = 4000
        draws = np.sort([sample_prior(params, rng).lam for _ in range(n)])

        def cdf(t):
            return integrate.quad(
                lambda lam: marginal_lambda_density(params, lam),
                params.eps0,
                t,
                **_QUAD_TOL,
            )[0]

        grid = draws[:: n // 80]
        ks = max(
            abs(cdf(t) - np.searchsorted(draws, t, side="right") / n)
            for t in grid
        )
        # 1% critical value for n=4000 is about 1.63/sqrt(n) ~ 0.0258.
        assert ks < 1.63 / math.sqrt(n)

    def test_conditional_location_moments(self):
        # mu | lambda ~ N(mu0, I/(kappa0 lambda)), so lambda ||mu - mu0||^2
        # is chi-squared_p / kappa0 regardless of the lambda distribution.
        params = NtGParams(3, np.array([1.0, -1.0, 0.5]), 2.0, -1.5, 0.0, 0.8)
        rng = np.random.default_rng(9)
        n = 20000
        vals = np.empty(n)
        for i in range(n):
            point = sample_prior(params, rng)
            vals[i] = point.lam * np.sum((point.mu - params.mu0) ** 2)
        target = params.p / params.kappa0
        se = np.std(vals, ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 4.0 * se

    def test_closed_form_lambda_inverse(self):
        # beta0 = 0: lambda = eps0 * u^{1/alpha0} satisfies the survival
        # identity (lambda/eps0)^{alpha0} = u.
        params = _proper_params(alpha0=-2.5, beta0=0.0, eps0=1.3)
        for u in (0.05, 0.3, 0.9):
            lam = ntg._sample_lambda(params, u)
            assert (lam / params.eps0) ** params.alpha0 == pytest.approx(
                u, rel=1e-12
            )

    def test_u_outside_unit_interval_rejected(self):
        for params in (_proper_params(alpha0=-2.5, beta0=0.0, eps0=1.3),
                       _proper_params(alpha0=1.5, beta0=1.0, eps0=0.5)):
            for u in (0.0, -0.25, 1.5, math.nan):
                with pytest.raises(ValueError):
                    ntg._sample_lambda(params, u)
            assert ntg._sample_lambda(params, 1.0) == params.eps0

    @pytest.mark.parametrize("beta0", [0.0, 1.0])
    def test_zero_uniform_is_redrawn(self, beta0):
        class Stub:
            def __init__(self):
                self.uniforms = [0.0, 0.3]

            def random(self):
                return self.uniforms.pop(0)

            def standard_normal(self, size):
                return np.zeros(size)

        params = _proper_params(alpha0=-1.5, beta0=beta0, eps0=0.5)
        stub = Stub()
        point = sample_prior(params, stub)
        assert stub.uniforms == []
        assert point.lam == ntg._sample_lambda(params, 0.3)


def _survival_check(params, u, lam):
    # (ln S(lam) - ln u, cond) from mpmath at 30 digits, where S is the
    # precision's survival function Gamma(a, beta0 lam) / Gamma(a, beta0 eps0)
    # and cond = Gamma(a, y) / (y^a e^{-y}) is the relative condition number
    # of lam as a function of u.  Their product is lam's relative error to
    # first order.
    mpmath = pytest.importorskip("mpmath")
    a, beta = params.alpha0, params.beta0
    with mpmath.workdps(30):
        y = mpmath.mpf(beta) * mpmath.mpf(lam)
        g = mpmath.gammainc(a, y)
        g0 = mpmath.gammainc(a, mpmath.mpf(beta) * mpmath.mpf(params.eps0))
        resid = mpmath.log(g / g0) - mpmath.log(mpmath.mpf(u))
        cond = g / (y ** a * mpmath.exp(-y))
        return float(resid), float(cond)


class TestGammaMemo:
    # Gamma(alpha0, beta0 eps0) is fixed by the prior, so a run of draws
    # from one posterior evaluates it once.
    prior = NtGParams(2, np.zeros(2), 0.5, -1.0, 0.0, 0.5)

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(a, x):
            calls.append((a, x))
            return upper_incomplete_gamma(a, x)

        monkeypatch.setattr(ntg, "upper_incomplete_gamma", counted)
        yield calls

    def test_one_truncation_gamma_per_run_of_draws(self, calls):
        post = posterior_update(self.prior, np.array([0.3, -0.8]), 17.0, 17)
        rng = np.random.default_rng(5)
        for _ in range(32):
            sample_prior(post, rng)
        at_truncation = (post.alpha0, post.beta0 * post.eps0)
        assert calls.count(at_truncation) == 1

    def test_interleaved_draws_equal_fresh_ones(self, calls):
        # Posteriors that differ only in m or in s, drawn in turn.
        posts = [
            posterior_update(self.prior, np.array([0.3, -0.8]), s, m)
            for m, s in ((17, 17.0), (18, 17.0), (17, 17.5))
        ]
        fresh = []
        for post in posts:
            rng = np.random.default_rng(9)
            draws = []
            for _ in range(4):
                draws.append(sample_prior(dataclasses.replace(post), rng).lam)
            fresh.append(draws)
        rngs = [np.random.default_rng(9) for _ in posts]
        got = [[] for _ in posts]
        for _ in range(4):
            for i, post in enumerate(posts):
                got[i].append(sample_prior(post, rngs[i]).lam)
        assert got == fresh

    def test_alternating_draws_compute_each_gamma_once(self, calls):
        # Two posteriors drawn from in turn keep one Gamma each, where a
        # single shared memo entry would recompute it on every switch.
        posts = [
            posterior_update(self.prior, np.array([0.3, -0.8]), 17.0, m)
            for m in (17, 18)
        ]
        rng = np.random.default_rng(5)
        for _ in range(8):
            for post in posts:
                sample_prior(post, rng)
        for post in posts:
            assert calls.count((post.alpha0, post.beta0 * post.eps0)) == 1

    def test_overflow_raises_on_every_draw(self, calls):
        # m = 497: Gamma(alpha1, beta1 eps0) is past the double range.
        post = posterior_update(self.prior, np.array([0.3, -0.8]), 1.0, 497)
        rng = np.random.default_rng(3)
        for k in range(1, 4):
            with pytest.raises(OverflowError):
                sample_prior(post, rng)
            assert len(calls) == k


class TestPrecisionInverse:
    # A subnormal shape has Gamma(a) = inf, so no normalising constant.
    @given(
        alpha0=st.floats(min_value=-3.0, max_value=60.0, allow_subnormal=False),
        beta0=st.floats(min_value=0.05, max_value=20.0),
        eps0=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=3.0)),
        u=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
    )
    # u one ulp from 1 without truncation: ln u is at the rounding of the
    # Gamma ratio, where the iteration once failed to converge.
    @example(alpha0=0.3359375, beta0=1.0, eps0=0.0, u=0.9999999999999998)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, alpha0, beta0, eps0, u):
        assume(eps0 > 0.0 or alpha0 > 0.0)
        params = _proper_params(alpha0=alpha0, beta0=beta0, eps0=eps0)
        lam = ntg._sample_lambda(params, u)
        # A shape near 0 without truncation puts the quantile below the
        # doubles; there is nothing to compare.
        assume(lam > 1e-300)
        assert lam >= eps0
        resid, cond = _survival_check(params, u, lam)
        # Backward error: lam is the exact draw for a uniform u' with
        # |ln u' - ln u| at the accuracy of Gamma, however ill-conditioned
        # the inverse is, plus the 1e-14 / cond that the stopping rule's
        # relative step of 1e-14 allows.
        assert abs(resid) <= 5e-13 + 2e-14 / cond
        # Forward error: to first order lam is off by resid * cond
        # relative, so Gamma's ~1e-13 accuracy supports a 1e-11 check where
        # cond <= 50.  Beyond that (eps0 = 0 with u near 1) the upper-Gamma
        # equation cannot resolve lam to 1e-11.
        if cond <= 50.0:
            assert abs(resid) * cond <= 1e-11
            if alpha0 > 0.0:
                # scipy's inverse, where its argument is a normal double.
                q = u * special.gammaincc(alpha0, beta0 * eps0)
                if q >= 1e-300:
                    want = special.gammainccinv(alpha0, q) / beta0
                    assert abs(lam - want) <= 1e-11 * want

    def test_shape_where_the_fraction_prefactor_overflows(self):
        # e^{-y} y^a exceeds the double range on the way to the root, while
        # Gamma(a, y) ~ 2e306 does not.
        params = _proper_params(alpha0=171.0, beta0=1.0, eps0=0.5)
        lam = ntg._sample_lambda(params, 0.3)
        want = special.gammainccinv(171.0, 0.3 * special.gammaincc(171.0, 0.5))
        assert abs(lam - want) <= 1e-11 * want

    @pytest.mark.parametrize("m", [17, 97, 197])
    def test_gamma_call_budget(self, m, monkeypatch):
        # A regression posterior: the blyth prior updated with m residual
        # degrees of freedom.
        prior = NtGParams(1, np.zeros(1), 0.5, -0.5, 0.0, 0.5)
        post = posterior_update(prior, np.array([0.3]), float(m), m)
        calls = []

        def counted(a, x):
            calls.append((a, x))
            return upper_incomplete_gamma(a, x)

        monkeypatch.setattr(ntg, "upper_incomplete_gamma", counted)
        rng = np.random.default_rng(m)
        n = 200
        for _ in range(n):
            sample_prior(post, rng)
        assert len(calls) / n <= 8.0


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_update_shrinks_toward_data(kappa0, x, s, m):
    # The posterior center always lies between the prior center and the data.
    params = NtGParams(1, np.array([0.5]), kappa0, 1.0, 1.0, 0.0)
    updated = posterior_update(params, np.array([x]), s, m)
    lo, hi = min(0.5, x), max(0.5, x)
    assert lo - 1e-12 <= updated.mu0[0] <= hi + 1e-12
    assert updated.alpha0 == params.alpha0 + 0.5 * (1 + m)
    assert updated.beta0 >= params.beta0 + 0.5 * s
