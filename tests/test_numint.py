import math

import numpy as np
import pytest

from ntglab.numint import EstimateWithError, integrate_1d, mc_estimate
from ntglab.specfun import upper_incomplete_gamma
from ntglab.verify import lemma_bigint_check, lemma_d_check, lemma_smoments_check


class TestEstimateWithError:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EstimateWithError(1.0, -0.1, 10, "quadrature")
        with pytest.raises(ValueError):
            EstimateWithError(1.0, 0.1, 0, "quadrature")
        with pytest.raises(ValueError):
            EstimateWithError(1.0, 0.1, 10, "guess")


class TestIntegrate1d:
    def test_unit(self):
        est = integrate_1d(lambda u: 1.0, 0.0, 1.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_semi_infinite_exponential(self):
        est = integrate_1d(lambda t: math.exp(-t), 0.0, math.inf)
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_cross_oracle_with_specfun(self):
        est = integrate_1d(lambda t: t ** -2 * math.exp(-t), 1.0, math.inf)
        assert est.value == pytest.approx(upper_incomplete_gamma(-1.0, 1.0), rel=1e-9)

    def test_error_estimates_conservative(self):
        # Known-value suite: polynomial times exponential on (0, inf) and
        # polynomials on (0, 1).  The reported bound should cover the true
        # error in at least 95% of the cases.
        cases = []
        for k in range(8):
            cases.append((lambda t, k=k: t ** k * math.exp(-t), 0.0, math.inf,
                          math.gamma(k + 1)))
        for k in range(1, 8):
            cases.append((lambda t, k=k: k * t ** (k - 1), 0.0, 1.0, 1.0))
        for a in (0.5, 1.5, 2.5):
            cases.append((lambda t, a=a: t ** (a - 1) * math.exp(-t), 0.0,
                          math.inf, math.gamma(a)))
        covered = 0
        for f, a, b, truth in cases:
            est = integrate_1d(f, a, b)
            if abs(est.value - truth) <= max(est.error, 1e-15):
                covered += 1
        assert covered / len(cases) >= 0.95


class TestLemmaBigint:
    def test_simple_closed_values(self):
        # (2,1,1,3): every gamma factor is 1 and the denominator is 1.
        _, closed = lemma_bigint_check(2, 1, 1, 3)
        assert closed == pytest.approx(math.pi, rel=1e-14)
        # (1,0,0,1): pi^{1/2} / (1/2) = 2 sqrt(pi).
        _, closed = lemma_bigint_check(1, 0, 0, 1)
        assert closed == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize(
        "tup", [(1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3), (2, 2, 0.5, 1.5)]
    )
    def test_numeric_matches_closed(self, tup):
        numeric, closed = lemma_bigint_check(*tup)
        assert numeric.value == pytest.approx(closed, rel=1e-4)

    def test_divergent_parameters_rejected(self):
        # alpha + beta - gamma + 1 + p/2 = 0: log-divergent at the origin.
        with pytest.raises(ValueError):
            lemma_bigint_check(2, 0, 0, 2)


class TestLemmaD:
    def test_closed_limits(self):
        rows = lemma_d_check(2, 1.0)
        assert rows[0][2] == pytest.approx(math.pi, rel=1e-13)
        rows = lemma_d_check(1, 1.0)
        assert rows[0][2] == pytest.approx(2.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("p,g", [(1, 1.0), (2, 1.0), (2, 2.0)])
    def test_ratio_converges(self, p, g):
        rows = lemma_d_check(p, g, (1e-1, 1e-2, 1e-3))
        devs = [abs(ratio / limit - 1.0) for _, ratio, limit in rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.05

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lemma_d_check(2, 1.0, (1e-3, 1e-2))
        with pytest.raises(ValueError):
            lemma_d_check(2, 0.0)


class TestLemmaSmoments:
    def test_closed_value(self):
        _, closed = lemma_smoments_check(2, 2, kappa=1.0, eps=1.0, n=1000, seed=0)
        assert closed == pytest.approx(1.0, rel=1e-14)

    def test_mc_matches_closed(self):
        mc, closed = lemma_smoments_check(2, 2, kappa=0.5, eps=1.0, n=200_000, seed=11)
        assert abs(mc.value - closed) <= 3.0 * mc.error

    def test_kappa_free(self):
        a, ca = lemma_smoments_check(2, 3, kappa=0.1, eps=1.0, n=100_000, seed=5)
        b, cb = lemma_smoments_check(2, 3, kappa=1.0, eps=1.0, n=100_000, seed=6)
        assert ca == cb
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.error, b.error)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            lemma_smoments_check(2, 2, kappa=0.0, eps=1.0)


class TestMcEstimate:
    def test_constant_integrand(self):
        est = mc_estimate(lambda rng, n: np.full(n, 3.25), 5000, seed=0)
        assert est.value == 3.25
        assert est.error == 0.0

    def test_uniform_mean(self):
        est = mc_estimate(lambda rng, n: rng.random(n), 100_000, seed=3)
        assert abs(est.value - 0.5) <= 3.0 * est.error

    def test_agrees_with_quadrature(self):
        truth = integrate_1d(lambda u: math.sin(u), 0.0, 1.0).value
        est = mc_estimate(
            lambda rng, n: np.sin(rng.random(n)), 200_000, seed=9
        )
        assert abs(est.value - truth) <= 4.0 * est.error

    def test_worker_count_invariance(self):
        def sampler(rng, n):
            return rng.standard_normal(n) ** 2

        one = mc_estimate(sampler, 300_000, seed=21, workers=1)
        four = mc_estimate(sampler, 300_000, seed=21, workers=4)
        assert one.value == four.value
        assert one.error == four.error

    def test_variance_does_not_cancel(self):
        # A mean far above the spread: sum(x^2)/n - mean^2 loses every digit.
        est = mc_estimate(
            lambda rng, n: 1e8 + rng.standard_normal(n), 10 ** 6, seed=5
        )
        assert est.error == pytest.approx(1e-3, rel=0.01)

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError):
            mc_estimate(lambda rng, n: np.ones((n, 2)), 1000, seed=0)

    def test_seed_determinism(self):
        a = mc_estimate(lambda rng, n: rng.random(n), 50_000, seed=7)
        b = mc_estimate(lambda rng, n: rng.random(n), 50_000, seed=7)
        assert a == b
