import math

import numpy as np
import pytest

from ntglab import blyth, ntg
from ntglab.verify import _mu_lambda_quadrature, _random_params


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
