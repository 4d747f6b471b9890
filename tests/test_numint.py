import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy import integrate

from ntglab import numint
from ntglab.numint import EstimateWithError, QuadratureError, gauss_legendre, mc_estimate
from ntglab.specfun import Tolerance, upper_incomplete_gamma


class TestEstimateWithError:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EstimateWithError(1.0, -0.1, 10, "quadrature")
        with pytest.raises(ValueError):
            EstimateWithError(1.0, 0.1, 0, "quadrature")
        with pytest.raises(ValueError):
            EstimateWithError(1.0, 0.1, 10, "guess")


def _plain(g):
    # An integrand of gauss_legendre: w g(r), no offset, one evaluation a node.
    return lambda r, w: (w * g(r), 0.0, r.size)


_TOL = Tolerance(rel=1e-10, abs=1e-12)
_ROUNDING = 16.0 * np.finfo(float).eps


class TestGaussLegendre:
    def test_unit(self):
        est = gauss_legendre(_plain(np.ones_like), [0.0], [1.0], 1.0, _TOL, _ROUNDING)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.method == "quadrature" and est.n_evals == 96

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_exact_to_degree_2n_minus_1(self, n):
        # The cached n- and 2n-node rules on (0, 1), before the cos map.
        nodes, weights = np.polynomial.legendre.leggauss(n)
        u, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        assert np.array_equal(numint._rule_pair(n)[2][:n], weights)
        assert np.array_equal(numint._rule_pair(n)[0][:n], 0.5 - 0.5 * np.cos(math.pi * u))
        for k in range(2 * n):
            assert np.sum(weights * u ** k) == pytest.approx(1.0 / (k + 1), rel=1e-13)
        # Not at degree 2n: P_n(2u - 1)^2, zero at the nodes, integrates to 1/(2n+1).
        square = np.polynomial.legendre.Legendre.basis(n)(nodes) ** 2
        assert np.sum(weights * square) < 1e-12

    def test_semi_infinite_exponential(self):
        # int_0^inf e^-t dt with t = u / (1 - u) on (0, 1).
        est = gauss_legendre(_plain(lambda u: np.exp(-u / (1.0 - u)) / (1.0 - u) ** 2),
                             [0.0], [1.0], 1.0, _TOL, _ROUNDING)
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_cross_oracle_with_specfun(self):
        # int_1^inf t^-2 e^-t dt = Gamma(-1, 1), with t = 1 + u / (1 - u).
        def g(u):
            t = 1.0 + u / (1.0 - u)
            return t ** -2 * np.exp(-t) / (1.0 - u) ** 2

        est = gauss_legendre(_plain(g), [0.0], [1.0], 1.0, _TOL, _ROUNDING)
        assert est.value == pytest.approx(upper_incomplete_gamma(-1.0, 1.0), rel=1e-9)

    def test_error_covers_closed_form(self):
        # Polynomials on (0, 1) and (0, 3); t^k e^-t and t^(a-1) e^-t on
        # (0, inf), mapped as t = u / (1 - u); the two pieces (0, 1), (1, 2)
        # with coefficients 2 and -1; and an offset.
        cases = [(lambda r, k=k: k * r ** (k - 1), [0.0], [1.0], 1.0, 1.0) for k in range(1, 8)]
        cases += [(lambda r: r ** 5, [0.0], [3.0], 1.0, 3.0 ** 6 / 6.0)]
        for k in range(8):
            cases.append((lambda u, k=k: (u / (1 - u)) ** k * np.exp(-u / (1 - u)) / (1 - u) ** 2,
                          [0.0], [1.0], 1.0, math.gamma(k + 1)))
        for a in (0.5, 1.5, 2.5):
            cases.append((lambda u, a=a: (u / (1 - u)) ** (a - 1) * np.exp(-u / (1 - u))
                          / (1 - u) ** 2, [0.0], [1.0], 1.0, math.gamma(a)))
        cases.append((np.cos, [0.0, 1.0], [1.0, 2.0], np.array([2.0, -1.0]),
                      3.0 * math.sin(1.0) - math.sin(2.0)))
        for g, lo, hi, coef, truth in cases:
            est = gauss_legendre(_plain(g), lo, hi, coef, _TOL, _ROUNDING)
            assert abs(est.value - truth) <= est.error, (lo, hi, truth)
        est = gauss_legendre(lambda r, w: (w * r, -0.25, r.size), [0.0], [1.0], 1.0, _TOL,
                             _ROUNDING)
        assert abs(est.value - 0.25) <= est.error and est.error > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("a,b", [(-math.inf, 0.0), (-math.inf, math.inf), (0.0, -math.inf)])
    def test_infinite_limit_fails_closed(self, a, b):
        # The rule takes finite pieces; an infinite one gives no number.
        with pytest.raises(QuadratureError, match="not finite"):
            gauss_legendre(_plain(lambda t: np.exp(-t * t)), [a], [b], 1.0, _TOL, _ROUNDING)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sum_raises(self):
        with pytest.raises(QuadratureError, match="not finite") as info:
            gauss_legendre(_plain(lambda r: 1.0 / (r - r)), [0.0], [1.0], 1.0, _TOL, _ROUNDING)
        assert not math.isfinite(info.value.partial[0])

    def test_cap_raises_with_the_last_sums(self):
        # A kink at 1/3 converges slowly; at 1e-300 the rule passes its cap
        # after the 512- and 1024-node round.
        calls = []

        def kink(r, w):
            calls.append(r.shape[-1] // 3)
            return w * np.abs(r - 1.0 / 3.0), 0.0, r.size

        tight = Tolerance(rel=1e-300, abs=1e-300)
        with pytest.raises(QuadratureError, match="512- and 1024-node") as info:
            gauss_legendre(kink, [0.0], [1.0], 1.0, tight, _ROUNDING)
        assert calls == [32, 64, 128, 256, 512]
        value, error = info.value.partial
        assert abs(value - 5.0 / 18.0) <= 1e-6 and error > 0.0


class TestMcEstimate:
    def test_constant_integrand(self):
        est = mc_estimate(lambda rng, n, ws: np.full(n, 3.25), 5000, seed=0)
        assert est.value == 3.25
        assert est.error == 0.0

    def test_uniform_mean(self):
        est = mc_estimate(lambda rng, n, ws: rng.random(n), 100_000, seed=3)
        assert abs(est.value - 0.5) <= 3.0 * est.error

    def test_agrees_with_quadrature(self):
        truth = integrate.quad(math.sin, 0.0, 1.0)[0]
        est = mc_estimate(
            lambda rng, n, ws: np.sin(rng.random(n)), 200_000, seed=9
        )
        assert abs(est.value - truth) <= 4.0 * est.error

    def test_worker_count_invariance(self, report_cores):
        def sampler(rng, n, ws):
            return rng.standard_normal(n) ** 2

        # A mask of four cores, then the process's own mask, at 5, 1, 1, 2
        # and 16 chunks; the last chunk of 10^6 + 1 draws is short.
        own = len(os.sched_getaffinity(0))
        cases = [(300_000, 4), (1000, own), (65_536, own), (100_000, own), (10 ** 6 + 1, own)]
        for n, cores in cases:
            report_cores(1)
            one = mc_estimate(sampler, n, seed=21)
            report_cores(cores)
            other = mc_estimate(sampler, n, seed=21)
            assert (one.value, one.error) == (other.value, other.error), (n, cores)

    def test_nested_calls_finish_and_match_serial(self, report_cores):
        # Forty outer chunks on a mask of forty cores, more than the pool's
        # 32 threads at most: every pool thread runs an outer chunk whose
        # inner call queues its helper behind the outer call's queued helpers.
        def outer():
            def sampler(rng, n, ws):
                inner = mc_estimate(lambda r, k, ws: r.random(k), 2 << 16,
                                    int(rng.integers(1 << 32)))
                return rng.random(n) + inner.value

            return mc_estimate(sampler, 40 << 16, seed=4)

        report_cores(1)
        serial = outer()
        report_cores(40)
        got = {}
        thread = threading.Thread(target=lambda: got.update(nested=outer()), daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "nested mc_estimate calls did not finish"
        assert got["nested"] == serial

    def test_chunk_error_propagates_and_the_next_call_succeeds(self, report_cores):
        class ChunkError(RuntimeError):
            pass

        def failing(rng, n, ws):
            if n < 1 << 16:  # the last of three chunks
                raise ChunkError
            return rng.random(n)

        report_cores(4)
        with pytest.raises(ChunkError):
            mc_estimate(failing, 150_000, seed=1)
        uniform = lambda rng, n, ws: rng.random(n)  # noqa: E731
        four = mc_estimate(uniform, 150_000, seed=1)
        report_cores(1)
        assert four == mc_estimate(uniform, 150_000, seed=1)

    def test_concurrent_callers_each_get_the_serial_result(self, report_cores):
        # Eight callers at once, each on a mask of four cores, more than
        # the machine may have, with thread switches forced often: a chunk
        # result lost or stored under another call's index changes some
        # estimate.
        def sampler(rng, n, ws):
            return rng.standard_normal(n) ** 2

        report_cores(1)
        serial = [mc_estimate(sampler, 200_000, seed=s) for s in range(8)]
        report_cores(4)
        got = [None] * 8

        def call(s):
            got[s] = mc_estimate(sampler, 200_000, seed=s)

        threads = [threading.Thread(target=call, args=(s,), daemon=True) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == serial

    def test_variance_does_not_cancel(self):
        # A mean far above the spread: sum(x^2)/n - mean^2 loses every digit.
        est = mc_estimate(
            lambda rng, n, ws: 1e8 + rng.standard_normal(n), 10 ** 6, seed=5
        )
        assert est.error == pytest.approx(1e-3, rel=0.01)

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError):
            mc_estimate(lambda rng, n, ws: np.ones((n, 2)), 1000, seed=0)

    def test_seed_determinism(self):
        a = mc_estimate(lambda rng, n, ws: rng.random(n), 50_000, seed=7)
        b = mc_estimate(lambda rng, n, ws: rng.random(n), 50_000, seed=7)
        assert a == b
