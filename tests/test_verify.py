import math

import numpy as np
import pytest

from ntglab import blyth, ntg, verify
from ntglab.numint import gauss_legendre
from ntglab.specfun import log_gamma, upper_incomplete_gamma_array
from ntglab.verify import (
    _lemma_d_radial,
    _mu_lambda_quadrature,
    _random_params,
    check_conjugacy,
    check_lemma_bigint,
    check_lemma_d,
    lemma_smoments_check,
)

from reference import lemma_bigint_check, lemma_d_check


class TestMuLambdaQuadrature:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prior_has_unit_mass(self, seed):
        params = _random_params(np.random.default_rng(seed))
        total = _mu_lambda_quadrature(
            params, float(params.mu0[0]), lambda point: ntg.prior_density(params, point)
        )
        assert total.value == pytest.approx(1.0, abs=1e-9)
        assert abs(total.value - 1.0) <= total.error

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
        ).value
        closed = ntg.marginal_obs_density(params, m, x, s)
        assert math.isfinite(evidence)
        assert evidence == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 7, 13, 101, 202])
    def test_error_covers_gap_on_conjugacy_pairs(self, monkeypatch, seed):
        # The pairs check_conjugacy draws: each evidence's reported error
        # covers its distance from the closed marginal density.
        pairs, estimates = [], []
        update, quadrature = ntg.posterior_update, verify._mu_lambda_quadrature

        def spy_update(params, x, s, m):
            pairs.append((params, m, x, s))
            return update(params, x, s, m)

        def spy_quadrature(*args):
            estimates.append(quadrature(*args))
            return estimates[-1]

        monkeypatch.setattr(ntg, "posterior_update", spy_update)
        monkeypatch.setattr(verify, "_mu_lambda_quadrature", spy_quadrature)
        assert check_conjugacy(seed)["pass"]
        assert len(pairs) == len(estimates) == 2
        for (params, m, x, s), est in zip(pairs, estimates):
            closed = ntg.marginal_obs_density(params, m, x, s)
            assert abs(est.value - closed) <= est.error <= 1e-12 * closed


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

    @pytest.mark.parametrize(
        "tup", [(1, 0, 0, 1), (2, 1, 1, 3), (3, 1, 0, 3), (2, 2, 0.5, 1.5)]
    )
    def test_error_covers_closed_form(self, tup):
        numeric, closed = lemma_bigint_check(*tup)
        assert abs(numeric.value - closed) <= numeric.error <= 1e-10 * closed

    def test_tail_beyond_the_radial_cut_must_have_a_bound(self):
        # alpha + beta + p/2 >= 49 = 7^2: the closed-form tail bound fails.
        with pytest.raises(ValueError, match="tail bound"):
            lemma_bigint_check(1, 48.5, 0, 1)

    def test_check_makes_one_gamma_call_per_round(self, monkeypatch):
        # Each row's radial rule meets its tolerance in its first round, the
        # 32- and 64-node rules on the two pieces (0, 1) and (1, 7): one
        # array call of 192 nodes.  The rows are those of the separate checks.
        calls = []

        def counted(a, x):
            calls.append((a, x.size))
            return upper_incomplete_gamma_array(a, x)

        monkeypatch.setattr(verify, "upper_incomplete_gamma_array", counted)
        rows = check_lemma_bigint()
        assert calls == [(1, 192), (3, 192), (3, 192)]
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
        rows = lemma_d_check(p, g)
        devs = [abs(ratio / limit - 1.0) for _, ratio, limit in rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.05

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lemma_d_check(2, 0.0)

    @pytest.mark.parametrize("p,g", [(1, 1.0), (2, 1.0), (2, 2.0)])
    def test_radial_error_covers_closed_form(self, p, g):
        # At alpha = gamma - p/2, beta = 0 the radial factor is
        # int_0^inf x^0 Gamma(gamma, x) dx = Gamma(gamma + 1).
        radial = _lemma_d_radial(p, g)
        closed = math.exp(log_gamma(g + 1.0))
        assert abs(radial.value - closed) <= radial.error <= 1e-10 * closed

    def test_check_shares_each_radial_integral(self, monkeypatch):
        # The radial factor depends on gamma alone: (1, 1.0) and (2, 1.0)
        # share one, so the check takes two radial quadratures, of one round
        # and one array Gamma call each, and one angular quadrature per row.
        # The rows are the last of the separate checks.
        calls, quads = [], []

        def counted(a, x):
            calls.append((a, x.size))
            return upper_incomplete_gamma_array(a, x)

        def counted_quad(*args):
            quads.append((args[1], args[2]))
            return gauss_legendre(*args)

        monkeypatch.setattr(verify, "upper_incomplete_gamma_array", counted)
        monkeypatch.setattr(verify, "gauss_legendre", counted_quad)
        rows = check_lemma_d()
        assert calls == [(1.0, 192), (2.0, 192)]
        assert [len(lo) for lo, _ in quads] == [2, 1, 1, 2, 1]  # radial pieces, angular
        monkeypatch.undo()
        for row, (p, g) in zip(rows, ((1, 1.0), (2, 1.0), (2, 2.0))):
            _, ratio, limit = lemma_d_check(p, g)[-1]
            assert (row["observed"], row["expected"]) == (ratio, limit)


class TestLemmaSmoments:
    def test_closed_value(self):
        _, closed = lemma_smoments_check(2, 2, eps=1.0, n=1000, seed=0)
        assert closed == pytest.approx(1.0, rel=1e-14)

    def test_mc_matches_closed(self):
        mc, closed = lemma_smoments_check(2, 2, eps=1.0, n=200_000, seed=11)
        assert abs(mc.value - closed) <= 3.0 * mc.error
