import math
import os
import sys
import threading

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

    @pytest.mark.parametrize("a,b", [(-math.inf, 0.0), (-math.inf, math.inf), (0.0, -math.inf)])
    def test_minus_infinite_limit_raises(self, a, b):
        with pytest.raises(ValueError, match="-inf"):
            integrate_1d(lambda t: math.exp(-t * t), a, b)

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

    def test_worker_count_invariance(self, report_cores):
        def sampler(rng, n):
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
            def sampler(rng, n):
                inner = mc_estimate(lambda r, k: r.random(k), 2 << 16,
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

        def failing(rng, n):
            if n < 1 << 16:  # the last of three chunks
                raise ChunkError
            return rng.random(n)

        report_cores(4)
        with pytest.raises(ChunkError):
            mc_estimate(failing, 150_000, seed=1)
        uniform = lambda rng, n: rng.random(n)  # noqa: E731
        four = mc_estimate(uniform, 150_000, seed=1)
        report_cores(1)
        assert four == mc_estimate(uniform, 150_000, seed=1)

    def test_concurrent_callers_each_get_the_serial_result(self, report_cores):
        # Eight callers at once, each on a mask of four cores, more than
        # the machine may have, with thread switches forced often: a chunk
        # result lost or stored under another call's index changes some
        # estimate.
        def sampler(rng, n):
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
