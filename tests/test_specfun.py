import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntglab import specfun
from ntglab.specfun import (
    Tolerance,
    f_cdf,
    f_quantile,
    log_gamma,
    upper_incomplete_gamma,
    upper_incomplete_gamma_array,
)

# Independent oracle value for Gamma(-1, 1), frozen from high-precision
# adaptive quadrature of the defining integral (mpmath, 30 digits).
GAMMA_MINUS1_AT_1 = 0.148495506775922047918359994701


class TestTolerance:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(rel=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs=-1.0)
        with pytest.raises(ValueError):
            Tolerance(max_iter=0)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                log_gamma(bad)

    @given(st.floats(min_value=0.01, max_value=169.0))
    def test_recurrence(self, a):
        # ln Gamma(a+1) = ln a + ln Gamma(a)
        assert log_gamma(a + 1.0) == pytest.approx(
            math.log(a) + log_gamma(a), rel=1e-12, abs=1e-12
        )


class TestUpperIncompleteGamma:
    def test_exponential_case(self):
        # Gamma(1, x) = e^{-x}
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-13
        )

    def test_complete_limit(self):
        # Gamma(3, x) -> Gamma(3) = 2 as x -> 0+
        assert upper_incomplete_gamma(3.0, 1e-12) == pytest.approx(2.0, rel=1e-10)

    def test_negative_shape_oracle(self):
        assert upper_incomplete_gamma(-1.0, 1.0) == pytest.approx(
            GAMMA_MINUS1_AT_1, rel=1e-12
        )

    def test_negative_shape_quadrature_oracle(self):
        from scipy.integrate import quad

        for a, x in [(-0.5, 0.3), (-2.5, 0.05), (-4.0, 2.0), (0.0, 0.7)]:
            truth, _ = quad(
                lambda t: t ** (a - 1.0) * math.exp(-t), x, np.inf, epsabs=1e-14,
                epsrel=1e-13, limit=400,
            )
            assert upper_incomplete_gamma(a, x) == pytest.approx(truth, rel=1e-9)

    @pytest.mark.parametrize("a", [5e-324, -5e-324, 1e-310])
    def test_subnormal_shape_is_the_zero_shape(self, a):
        # Gamma(a, x) is continuous in a, and at |a| < 1e-300 it equals
        # Gamma(0, x) = E1(x) to double resolution.
        from scipy.special import exp1

        for x in (0.01, 0.75):
            assert upper_incomplete_gamma(a, x) == pytest.approx(float(exp1(x)), rel=1e-14)

    @pytest.mark.parametrize(
        "a", [-1.0 - 2.0 ** -52, -1.0 - 1e-7, -1.00390625, -2.0 - 1e-10, -3.0 - 2.0 ** -51]
    )
    def test_shape_just_below_a_negative_integer(self, a):
        # The small-x downward recurrence must not pass through a shape near
        # 0; seeded from the fractional part it did, and Gamma(-1 - 2^-52,
        # 0.5) came out 67% off.
        mpmath = pytest.importorskip("mpmath")
        for x in (0.05, 0.5, 0.9):
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(a, x))
            assert upper_incomplete_gamma(a, x) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", [
        *(-0.5 - k for k in range(8)), -(2.0 ** -60), -1e-300,
        *(math.nextafter(-k, d) for k in (1.0, 2.0, 5.0) for d in (-math.inf, math.inf)),
    ])
    def test_small_x_seed_shapes(self, a):
        # The small-x path seeds at a - round(a) in [-1/2, 1/2].  Negative
        # half-integers seed at an end of that interval, shapes an ulp off a
        # negative integer seed next to 0, and at a = -2^-60 a - floor(a)
        # would round to 1.
        mpmath = pytest.importorskip("mpmath")
        for x in (1e-8, 1e-4, 0.01, 0.3, 0.9):
            with mpmath.workdps(40):
                want = float(mpmath.gammainc(a, x))
            assert upper_incomplete_gamma(a, x) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(-1.0, 0.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(2.0, -1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(math.nan, 1.0)

    @given(
        st.floats(min_value=-9.0, max_value=30.0),
        st.floats(min_value=1e-6, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_recurrence(self, a, x):
        # Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}; the downward form of
        # this recurrence is also the small-x evaluation path for a <= 0.
        if abs(a) < 1e-6:
            return
        lhs = upper_incomplete_gamma(a + 1.0, x)
        term1 = a * upper_incomplete_gamma(a, x)
        term2 = x ** a * math.exp(-x)
        rhs = term1 + term2
        # When the two right-hand terms cancel, float evaluation of the
        # recurrence itself loses digits; scale the tolerance accordingly.
        tol = 1e-10 * abs(lhs) + 1e-15 * (abs(term1) + abs(term2)) + 1e-280
        assert abs(lhs - rhs) <= tol

    @given(
        st.floats(min_value=-5.0, max_value=20.0),
        st.floats(min_value=0.01, max_value=20.0),
        st.floats(min_value=1.01, max_value=3.0),
    )
    @settings(max_examples=100)
    def test_monotone_decreasing_in_x(self, a, x, factor):
        # Strictly decreasing; equality is tolerated only when the tail mass
        # between the two points is below double resolution.
        g1 = upper_incomplete_gamma(a, x)
        g2 = upper_incomplete_gamma(a, x * factor)
        assert g2 <= g1
        if x ** max(a - 1.0, 0.0) * math.exp(-x) * x * (factor - 1.0) > 1e-12 * g1:
            assert g2 < g1

    def test_accuracy_grid_against_scipy(self):
        # For a > 0 scipy's regularized gammaincc is an independent route.
        from scipy.special import gammaincc

        for a in (0.5, 1.0, 3.7, 20.0, 100.0, 170.0):
            for x in (1e-8, 0.1, 1.0, 10.0, 150.0, 700.0):
                truth = gammaincc(a, x) * math.exp(log_gamma(a))
                if truth < 1e-290:
                    continue
                got = upper_incomplete_gamma(a, x)
                assert got == pytest.approx(truth, rel=1e-10)


class TestFractionPrefactorOverflow:
    # e^{-x} x^a exceeds the double range while Gamma(a, x) does not.  Past
    # a = 171, Gamma(a) does too: (176, 280) takes Temme's expansion in log
    # form, and (176, 290), just outside its window, the continued fraction.
    POINTS = ((171.0, 177.6), (165.0, 170.0), (160.0, 165.0),
              (176.0, 280.0), (176.0, 290.0))

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for a, x in self.POINTS:
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(a, x))
            assert abs(upper_incomplete_gamma(a, x) / want - 1.0) <= 1e-13
            got = upper_incomplete_gamma_array(a, np.array([x, 2.0 * x]))
            assert abs(got[0] / want - 1.0) <= 1e-13

    def test_saturates_past_double_range(self):
        # (180, 181) lies in Temme's window; (180, 300), past 1.6 a, takes
        # the continued fraction, scalar and array.
        assert upper_incomplete_gamma(180.0, 181.0) == math.inf
        assert upper_incomplete_gamma(180.0, 300.0) == math.inf
        # Q(6000, 9600) itself underflows.
        assert upper_incomplete_gamma(6000.0, 9600.0) == math.inf
        assert upper_incomplete_gamma_array(180.0, np.array([181.0]))[0] == math.inf
        assert upper_incomplete_gamma_array(180.0, np.array([300.0]))[0] == math.inf

    def test_series_branch_raises(self):
        # Gamma(172) itself is past the double range.  (172, 30), below
        # 0.2 a, takes the series; (172, 100) takes Temme's expansion.
        with pytest.raises(OverflowError):
            upper_incomplete_gamma(172.0, 30.0)
        with pytest.raises(OverflowError):
            upper_incomplete_gamma(172.0, 100.0)
        # So is Gamma(5000), below x = a + 1 in Temme's window.
        with pytest.raises(OverflowError):
            upper_incomplete_gamma(5000.0, 4990.0)


class TestTemmeBranch:
    # Shapes a >= 20 with 0.2 a <= x <= 1.6 a take Temme's uniform expansion.
    SHAPES = (20.0, 20.5, 24.5, 99.5, 170.5)

    @staticmethod
    def _points(a):
        lo, hi = 0.2 * a, 1.6 * a
        return (lo, math.nextafter(lo, math.inf), a * (1.0 - 1e-12), a,
                a * (1.0 + 1e-12), math.nextafter(hi, 0.0), hi)

    @pytest.mark.parametrize("a", SHAPES)
    def test_matches_mpmath(self, a, monkeypatch):
        mpmath = pytest.importorskip("mpmath")

        def other_branch(*args):
            raise AssertionError(f"left the Temme branch at {args}")

        monkeypatch.setattr(specfun, "_lower_series", other_branch)
        monkeypatch.setattr(specfun, "_upper_cf", other_branch)
        for x in self._points(a):
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(a, x))
            assert abs(upper_incomplete_gamma(a, x) / want - 1.0) <= 1e-14, x


class TestUpperIncompleteGammaArray:
    SHAPES = (0.5, 1.0, 1.5, 2.5, 7.0, 24.5, 50.5, 99.5)

    @staticmethod
    def _grid(a):
        # Both sides of the series / continued-fraction split at x = a + 1.
        return np.concatenate([
            np.geomspace(1e-6, a + 1.0, 40, endpoint=False),
            [a + 1.0],
            np.linspace(a + 1.0, 3.0 * a + 40.0, 40)[1:],
        ])

    @pytest.mark.parametrize("a", SHAPES)
    def test_matches_scalar(self, a):
        x = self._grid(a)
        got = upper_incomplete_gamma_array(a, x)
        want = np.array([upper_incomplete_gamma(a, float(v)) for v in x])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("a", SHAPES)
    def test_matches_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        x = self._grid(a)
        got = upper_incomplete_gamma_array(a, x)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.gammainc(a, float(v))) for v in x])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_keeps_shape(self):
        scalar = upper_incomplete_gamma_array(1.5, 2.0)
        assert scalar.shape == ()
        assert float(scalar) == upper_incomplete_gamma(1.5, 2.0)
        x = np.array([[0.5, 2.0, 3.0], [4.0, 0.1, 10.0]])
        out = upper_incomplete_gamma_array(1.5, x)
        assert out.shape == (2, 3)
        assert out[1, 2] == upper_incomplete_gamma(1.5, 10.0)

    def test_domain(self):
        for a in (0.49, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                upper_incomplete_gamma_array(a, np.array([1.0]))
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                upper_incomplete_gamma_array(1.5, np.array([1.0, bad]))


# The array kernels as they were before they went blockwise: one masked
# step at a time, with the scalar form's _TINY guards, compacting the
# active set whenever an entry converges.  The blocked kernels must agree
# with them bit for bit.
def _masked_lower_series(a, x):
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    out = np.empty(x.shape)
    active = np.arange(x.size)
    xa = x
    n = 0
    while active.size and n < specfun._MAX_ITER:
        n += 1
        term *= xa / (a + n)
        total += term
        done = np.abs(term) < np.abs(total) * specfun._EPS
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, xa, term, total = active[keep], xa[keep], term[keep], total[keep]
    if active.size:
        raise specfun.ConvergenceError("series", partial=total)
    return out * np.exp(-x + a * np.log(x) - math.lgamma(a))


def _masked_upper_cf(a, x):
    tiny = specfun._TINY
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    out = np.empty(x.shape)
    active = np.arange(x.size)
    n = 0
    while active.size and n < specfun._MAX_ITER:
        n += 1
        an = -n * (n - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < specfun._EPS
        if done.any():
            out[active[done]] = h[done]
            keep = ~done
            active, b, c, d, h = active[keep], b[keep], c[keep], d[keep], h[keep]
    if active.size:
        raise specfun.ConvergenceError("continued fraction", partial=h)
    log_pref = -x + a * np.log(x)
    big = log_pref > 700.0
    if big.any():
        log_pref[big] += np.log(out[big])
        out[big] = 1.0
    with np.errstate(over="ignore"):
        return np.exp(log_pref) * out


def _outcome(kernel, a, x):
    # The kernel's values, or the partial result it raised with, as raw bits.
    try:
        value = kernel(a, x)
    except specfun.ConvergenceError as exc:
        return "raised", exc.partial.view(np.int64).tolist()
    return "value", value.view(np.int64).tolist()


def _assert_kernels_match_oracle(a, x):
    # The series serves x < a + 1, the continued fraction x >= a + 1.
    below, above = x[x < a + 1.0], x[x >= a + 1.0]
    assert _outcome(specfun._lower_series_array, a, below) == _outcome(
        _masked_lower_series, a, below)
    assert _outcome(specfun._upper_cf_array, a, above) == _outcome(
        _masked_upper_cf, a, above)


# Shapes in [1/2, 400], half-integers (the shapes m/2 and (m+p)/2 the
# densities use) as often as the rest.
_SHAPES = st.one_of(
    st.integers(min_value=1, max_value=800).map(lambda k: 0.5 * k),
    st.floats(min_value=0.5, max_value=400.0),
)


@st.composite
def _shape_and_points(draw):
    # 1-300 points on both sides of x = a + 1: spread over decades below it
    # and up to 50 (a + 1) above it, so that entries converge in the same
    # block and in different ones, plus a + 1 itself and points within
    # 1e-12 of it, where the series and the fraction take longest.
    a = draw(_SHAPES)
    size = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    weights = rng.dirichlet(np.full(4, draw(st.sampled_from([0.2, 1.0, 5.0]))))
    kind = rng.choice(4, size=size, p=weights)
    edge = a + 1.0
    x = np.select(
        [kind == 0, kind == 1, kind == 2],
        [edge * 10.0 ** rng.uniform(-6.0, 0.0, size),
         edge * 50.0 ** rng.uniform(0.0, 1.0, size),
         np.full(size, edge)],
        edge + rng.uniform(-1e-12, 1e-12, size),
    )
    return a, x[x > 0.0]


class TestArrayKernelsAgainstMaskedOracle:
    @given(_shape_and_points())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, case):
        _assert_kernels_match_oracle(*case)

    @pytest.mark.parametrize("cells", [1, 5000, specfun._BLOCK_CELLS])
    @pytest.mark.parametrize("a", [0.5, 1.5, 9.5, 24.5, 399.5])
    def test_capped_blocks_bit_identical(self, a, cells, monkeypatch):
        # 4,096 points on each side under caps on the rows x entries of a
        # block (specfun._BLOCK_CELLS) from one row a block to the default,
        # so that blocks shrink with the active count as well as double.
        monkeypatch.setattr(specfun, "_BLOCK_CELLS", cells)
        edge = a + 1.0
        x = np.concatenate([np.geomspace(1e-6 * edge, edge, 4096, endpoint=False),
                            np.geomspace(edge, 50.0 * edge, 4096)])
        _assert_kernels_match_oracle(a, x)

    @pytest.mark.parametrize("kernel, oracle, x", [
        (specfun._lower_series_array, _masked_lower_series,
         np.array([0.01, 2.0, 3.0, 3.4, 0.5])),
        (specfun._upper_cf_array, _masked_upper_cf,
         np.array([3.5, 4.0, 1e5, 6.0, 3.5 + 1e-12])),
    ])
    def test_cap_raises_with_the_partial_result(self, kernel, oracle, x, monkeypatch):
        # At a cap of 8 terms, only the entries far from a + 1 converge; the
        # error carries the unconverged entries' last partial result.
        monkeypatch.setattr(specfun, "_MAX_ITER", 8)
        with pytest.raises(specfun.ConvergenceError) as exc:
            kernel(2.5, x)
        with pytest.raises(specfun.ConvergenceError) as want:
            oracle(2.5, x)
        assert 0 < exc.value.partial.size < x.size
        assert exc.value.partial.tolist() == want.value.partial.tolist()

    def test_memory_stays_linear_in_the_length(self):
        # A block holds at most _BLOCK_CELLS entries, so a wide array's peak
        # allocation is a few arrays of its length, not a block of rows of it.
        a, n = 1.5, 100_000
        x = np.geomspace(1e-3 * (a + 1.0), 50.0 * (a + 1.0), n)
        tracemalloc.start()
        try:
            specfun.upper_incomplete_gamma_array(a, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (16 * n + 4 * specfun._BLOCK_CELLS)

    def test_fraction_denominators_stay_above_half_of_b(self):
        # The fractions drop the _TINY guards on the claim that
        # D_n = a_n d_{n-1} + b_n and c_n = b_n + a_n / c_{n-1} stay at or
        # above b_n / 2 for a >= 1/2 with x >= a + 1 and for a < 1/2 with
        # x >= 1, with b_n = x + 2n + 1 - a and a_n = -n (n - a).  Run the
        # recurrences unguarded for the full term cap over a grid of both.
        a = np.concatenate([np.geomspace(0.5, 1e5, 60), np.arange(1, 200) / 2.0])
        lift = np.concatenate([[0.0, 1e-12], np.geomspace(1e-9, 1e6, 40)])
        a, lift = (v.ravel() for v in np.meshgrid(a, lift))
        x = a + 1.0 + lift
        low_a = np.concatenate([
            np.linspace(-50.0, 0.5, 202)[:-1], [-1e-12, 0.0, -0.5, -7.5, 0.4999999999],
        ])
        low_x = np.array([1.0, 1.0 + 1e-12, 1.5, 3.0, 10.0, 1e2, 1e4, 1e6])
        low_a, low_x = (v.ravel() for v in np.meshgrid(low_a, low_x))
        a, x = np.concatenate([a, low_a]), np.concatenate([x, low_x])
        b = x + 1.0 - a
        c = np.full(x.shape, 1.0 / specfun._TINY)
        d = 1.0 / b
        lowest = np.inf
        for n in range(1, specfun._MAX_ITER + 1):
            an = -n * (n - a)
            b = b + 2.0
            big_d = an * d + b
            c = b + an / c
            lowest = min(lowest, float(np.min(big_d / b)), float(np.min(c / b)))
            d = 1.0 / big_d
        assert lowest >= 0.5


class TestFCdf:
    def test_endpoints(self):
        assert f_cdf(3, 5, 0.0) == 0.0
        assert f_cdf(3, 5, math.inf) == 1.0

    def test_symmetry_at_one(self):
        for d in (1, 2, 5, 17):
            assert f_cdf(d, d, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_f22_closed_form(self):
        # F(2,2) CDF is t/(1+t), by direct integration of the density.
        for t in (0.1, 1.0, 3.0, 10.0):
            assert f_cdf(2, 2, t) == pytest.approx(t / (1.0 + t), abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_cdf(2, 2, -0.5)
        with pytest.raises(ValueError):
            f_cdf(0, 2, 1.0)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=150)
    def test_reciprocal_property(self, d1, d2, t):
        assert f_cdf(d1, d2, t) + f_cdf(d2, d1, 1.0 / t) == pytest.approx(
            1.0, abs=1e-10
        )

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_monotone(self, d1, d2, t, dt):
        assert f_cdf(d1, d2, t + dt) >= f_cdf(d1, d2, t)


# The F quantile grid: small d1, d2 from 1 to ~1e4, both tails.
_D1 = (1, 2, 3, 5)
_D2 = (1, 2, 3, 5, 17, 47, 97, 497, 1997, 9997)
_Q = (1e-6, 0.05, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-6)


def _mp_f_quantile(mpmath, d1, d2, q):
    # Newton in mpmath at 40 digits on the smaller regularized
    # incomplete-beta tail, started from scipy's quantile: I_y(a, b) = q in
    # y for q <= 1/2, else I_z(b, a) = 1 - q in z = 1 - y.
    from scipy import special

    t0 = float(special.fdtri(d1, d2, q))
    with mpmath.workdps(40):
        a, b = mpmath.mpf(d1) / 2, mpmath.mpf(d2) / 2
        if q <= 0.5:
            target, z = mpmath.mpf(q), d1 * mpmath.mpf(t0) / (d1 * t0 + d2)
        else:
            a, b = b, a
            target, z = 1 - mpmath.mpf(q), d2 / (d1 * mpmath.mpf(t0) + d2)
        log_beta = mpmath.log(mpmath.beta(a, b))
        for _ in range(50):
            resid = mpmath.betainc(a, b, 0, z, regularized=True) - target
            dens = mpmath.exp((a - 1) * mpmath.log(z) + (b - 1) * mpmath.log1p(-z) - log_beta)
            z -= resid / dens
            if abs(resid / dens) < mpmath.mpf(10) ** -35 * z:
                break
        y = z if q <= 0.5 else 1 - z
        return float(d2 * y / (d1 * (1 - y)))


class TestFAgainstMpmath:
    def test_cdf_at_large_m(self):
        # lgamma(a + b) - lgamma(b) and a ln y of a y rounded near 1 cost
        # f_cdf up to 7e-12 here.
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for d1 in _D1:
            for d2 in (47, 497, 1997, 9997):
                a, b = mpmath.mpf(d1) / 2, mpmath.mpf(d2) / 2
                for t in np.geomspace(1e-3, 1e3, 13):
                    with mpmath.workdps(40):
                        u = d1 * mpmath.mpf(float(t))
                        want = mpmath.betainc(a, b, 0, u / (u + d2), regularized=True)
                    got = f_cdf(d1, d2, float(t))
                    worst = max(worst, abs(got / float(want) - 1.0))
        assert worst <= 1e-13

    def test_quantile_grid(self):
        mpmath = pytest.importorskip("mpmath")
        for d1 in _D1:
            for d2 in _D2:
                for q in _Q:
                    want = _mp_f_quantile(mpmath, d1, d2, q)
                    got = f_quantile(d1, d2, q)
                    assert abs(got / want - 1.0) <= 1e-12, (d1, d2, q)

    def test_quantile_cdf_budget(self, monkeypatch):
        calls = []
        cdf = specfun.f_cdf

        def counted(d1, d2, t):
            calls.append(t)
            return cdf(d1, d2, t)

        monkeypatch.setattr(specfun, "f_cdf", counted)
        middle = []
        total = 0
        for d1 in _D1:
            for d2 in _D2:
                for q in _Q:
                    del calls[:]
                    f_quantile(d1, d2, q)
                    total += len(calls)
                    if 0.05 <= q <= 0.99:
                        middle.append(len(calls))
        assert sum(middle) / len(middle) <= 10.0
        assert total / (len(_D1) * len(_D2) * len(_Q)) <= 15.0


class TestFQuantileNoiseFloor:
    def test_brackets_tightly(self, monkeypatch):
        # f_cdf(9997, 1, t) is biased high near this root by more than the
        # residual the solve reads, so Newton lands above the root again and
        # again while the bracket's lower end stays at its third iterate.
        calls = []
        cdf = specfun.f_cdf

        def counted(d1, d2, t):
            calls.append(t)
            return cdf(d1, d2, t)

        monkeypatch.setattr(specfun, "f_cdf", counted)
        t = f_quantile(1, 9997, 0.95)
        assert len(calls) <= 13
        mpmath = pytest.importorskip("mpmath")
        assert abs(t / _mp_f_quantile(mpmath, 1, 9997, 0.95) - 1.0) <= 1e-12


class TestFQuantileTails:
    def test_f11_closed_form(self):
        # F(1,1) has CDF (2/pi) atan(sqrt(t)), so t = tan(pi q / 2)^2; a
        # root far below 1 must not be reached by halving from t = 1.
        for q in (1e-300, 1e-100, 1e-10, 0.3):
            want = math.tan(0.5 * math.pi * q) ** 2
            assert f_quantile(1, 1, q) == pytest.approx(want, rel=1e-12, abs=0.0)
        for q in (1.0 - 1e-10, 1.0 - 2.0 ** -53):
            want = 1.0 / math.tan(0.5 * math.pi * (1.0 - q)) ** 2
            assert f_quantile(1, 1, q) == pytest.approx(want, rel=1e-12)


class TestFQuantile:
    def test_symmetry(self):
        for d in (1, 3, 8):
            assert f_quantile(d, d, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_f22_inverse(self):
        assert f_quantile(2, 2, 0.75) == pytest.approx(3.0, abs=1e-9)

    def test_domain(self):
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                f_quantile(2, 3, q)

    def test_round_trip_grid(self):
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 5, 20, 50):
                for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99):
                    t = f_quantile(d1, d2, q)
                    assert f_cdf(d1, d2, t) == pytest.approx(q, abs=1e-10)

    def test_inverse_round_trip(self):
        for t in (0.2, 1.0, 4.0):
            q = f_cdf(2, 7, t)
            assert f_quantile(2, 7, q) == pytest.approx(t, rel=1e-8)
