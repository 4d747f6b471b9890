import math

import numpy as np
import pytest

from ntglab.numint import EstimateWithError, integrate_1d, mc_estimate
from ntglab.specfun import upper_incomplete_gamma


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
