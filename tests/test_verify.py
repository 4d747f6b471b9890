import math

import numpy as np
import pytest

from ntglab import blyth, ntg, verify
from ntglab.specfun import upper_incomplete_gamma
from ntglab.verify import (
    _mu_lambda_quadrature,
    _random_params,
    check_lemma_bigint,
    lemma_bigint_check,
    lemma_d_check,
    lemma_smoments_check,
)


class TestMuLambdaQuadrature:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prior_has_unit_mass(self, seed):
        params = _random_params(np.random.default_rng(seed))
        total = _mu_lambda_quadrature(
            params, float(params.mu0[0]), lambda point: ntg.prior_density(params, point)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_evidence_matches_closed_marginal(self, seed):
        # The joint likelihood x prior integrates to the closed-form marginal
        # density of the observation (x, s).
        rng = np.random.default_rng(seed)
        params = _random_params(rng)
        m = int(rng.integers(1, 6))
        x = rng.normal(size=1)
        s = float(rng.uniform(0.5, 3.0))
        center = float((x[0] + params.kappa0 * params.mu0[0]) / (1.0 + params.kappa0))
        evidence = _mu_lambda_quadrature(
            params,
            center,
            lambda point: blyth.likelihood(x, s, point.mu, point.lam, m)
            * ntg.prior_density(params, point),
        )
        closed = ntg.marginal_obs_density(params, m, x, s)
        assert math.isfinite(evidence)
        assert evidence == pytest.approx(closed, rel=1e-9)


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

    def test_check_evaluates_each_gamma_once(self, monkeypatch):
        # (2, 1, 1, 3) and (3, 1, 0, 3) integrate Gamma(3, r^2) over many
        # common nodes; evaluated separately they take 420 calls, 294 of
        # them distinct.  The rows are those of the separate checks.
        calls = []

        def counted(a, x):
            calls.append((a, x))
            return upper_incomplete_gamma(a, x)

        monkeypatch.setattr(verify, "upper_incomplete_gamma", counted)
        rows = check_lemma_bigint()
        assert len(calls) == len(set(calls)) == 294
        for row, tup in zip(rows, ((1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3))):
            assert row["observed"] == lemma_bigint_check(*tup)[0].value


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
