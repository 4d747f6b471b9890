import math
import re

import numpy as np
import pytest
from scipy import stats

from ntglab.blyth import BlythContext
from ntglab.regress import (
    CsvFormatError,
    OlsFit,
    RegressionData,
    load_csv,
    ols,
    reduce_to_location_scale,
    standard_region,
)
from ntglab.risk import default_c
from ntglab.specfun import f_cdf

from reference import inclusion, phi0


def _simulate(n, d, seed, beta=None, sigma=1.0):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, d))
    if beta is None:
        beta = rng.normal(size=d)
    y = Z @ beta + sigma * rng.standard_normal(n)
    return RegressionData(Z=Z, y=y), np.asarray(beta, dtype=float)


class TestRegressionData:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionData(Z=np.zeros(3), y=np.zeros(3))
        with pytest.raises(ValueError):
            RegressionData(Z=np.zeros((3, 1)), y=np.zeros(2))
        with pytest.raises(ValueError):
            RegressionData(Z=np.zeros((2, 2)), y=np.zeros(2))  # n must exceed d

    def test_shape_properties(self):
        data, _ = _simulate(10, 3, 0)
        assert data.n == 10
        assert data.d == 3


class TestOls:
    def test_intercept_only_recovers_mean_and_variance(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        data = RegressionData(Z=np.ones((4, 1)), y=y)
        fit = ols(data, 1)
        assert fit.beta_hat[0] == pytest.approx(3.0, abs=1e-12)
        # sigma2_hat = sum (y - ybar)^2 / (n - 1) = (4 + 1 + 0 + 9) / 3.
        assert fit.sigma2_hat == pytest.approx(14.0 / 3.0, rel=1e-12)
        assert fit.m == 3
        assert fit.S_p[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_exact_recovery_without_noise(self):
        data, beta = _simulate(12, 3, 1, sigma=0.0)
        # Perturb one response so the residual variance stays positive.
        y = data.y.copy()
        y[0] += 1e-6
        fit = ols(RegressionData(Z=data.Z, y=y), 2)
        assert np.allclose(fit.beta_hat, beta, atol=1e-6)

    def test_residual_orthogonality(self):
        data, _ = _simulate(30, 4, 2)
        fit = ols(data, 4)
        resid = data.y - data.Z @ fit.beta_hat
        assert np.max(np.abs(data.Z.T @ resid)) <= 1e-10 * np.abs(data.y).max()

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=(8, 1))
        Z = np.hstack([col, 2.0 * col])
        data = RegressionData(Z=Z, y=rng.normal(size=8))
        with pytest.raises(ValueError):
            ols(data, 1)

    def test_p_range_validated(self):
        data, _ = _simulate(10, 2, 4)
        with pytest.raises(ValueError):
            ols(data, 0)
        with pytest.raises(ValueError):
            ols(data, 3)

    def test_matches_normal_equations(self):
        data, _ = _simulate(25, 3, 5)
        fit = ols(data, 3)
        ztz = data.Z.T @ data.Z
        direct = np.linalg.solve(ztz, data.Z.T @ data.y)
        assert np.allclose(fit.beta_hat, direct, rtol=1e-10)
        assert np.allclose(fit.S_p, np.linalg.inv(ztz), rtol=1e-8)


class TestReduction:
    def test_whitening_identity(self):
        # T S_p T' = I by construction.
        data, _ = _simulate(20, 3, 6)
        fit = ols(data, 2)
        S = fit.S_p
        L = np.linalg.cholesky(np.linalg.inv(S))
        T = L.T
        assert np.allclose(T @ S @ T.T, np.eye(2), atol=1e-10)

    def test_scale_statistic(self):
        data, _ = _simulate(20, 3, 7)
        fit = ols(data, 1)
        x, s, m = reduce_to_location_scale(fit, 1)
        assert m == 17
        assert s == pytest.approx(fit.m * fit.sigma2_hat, rel=1e-14)

    def test_membership_survives_factor_choice(self):
        # Region membership of any candidate is invariant under the
        # reduction: the quadratic form is what both sides compute.
        data, _ = _simulate(40, 3, 8)
        p, level = 2, 0.9
        fit = ols(data, p)
        region = standard_region(fit, p, level)
        x, s, m = reduce_to_location_scale(fit, p)
        ctx = BlythContext(p=p, m=m, c=default_c(p, m, level), kappa=0.0, eps=1.0)
        proc = phi0(ctx)
        S = fit.S_p
        T = np.linalg.cholesky(np.linalg.inv(S)).T
        rng = np.random.default_rng(9)
        agree = 0
        for _ in range(500):
            b = fit.beta_hat[:p] + rng.normal(size=p) * math.sqrt(fit.sigma2_hat)
            direct = region.contains(b)
            mapped = bool(inclusion(proc, x, s, T @ b))
            assert direct == mapped
            agree += direct
        assert 0 < agree < 500  # both outcomes actually exercised

    def test_pivot_distribution(self):
        # Under the model the region's defining statistic is F-distributed:
        # (x - T beta)' (x - T beta) / p / sigma2_hat ~ F_{p, m}.
        n, d, p = 12, 3, 2
        rng = np.random.default_rng(10)
        beta = rng.normal(size=d)
        Z = rng.normal(size=(n, d))
        reps = 3000
        pivots = np.empty(reps)
        for i in range(reps):
            y = Z @ beta + rng.standard_normal(n)
            fit = ols(RegressionData(Z=Z, y=y), p)
            x, s, m = reduce_to_location_scale(fit, p)
            T = np.linalg.cholesky(np.linalg.inv(fit.S_p)).T
            pivots[i] = (
                float(np.sum((x - T @ beta[:p]) ** 2)) / p / fit.sigma2_hat
            )
        pivots.sort()
        grid = pivots[:: reps // 100]
        ks = max(
            abs(f_cdf(p, n - d, t) - np.searchsorted(pivots, t, "right") / reps)
            for t in grid
        )
        assert ks < 1.63 / math.sqrt(reps)


class TestStandardRegion:
    def test_t_interval_identity(self):
        # For p = 1 the region is the classical two-sided t-interval:
        # beta_hat +- t_{m,1-(1-level)/2} * se(beta_hat).
        data, _ = _simulate(18, 2, 11)
        fit = ols(data, 1)
        level = 0.95
        region = standard_region(fit, 1, level)
        lo, hi = region.interval()
        se = math.sqrt(fit.sigma2_hat * fit.S_p[0, 0])
        tcrit = stats.t.ppf(0.5 * (1.0 + level), fit.m)
        assert lo == pytest.approx(fit.beta_hat[0] - tcrit * se, rel=1e-9)
        assert hi == pytest.approx(fit.beta_hat[0] + tcrit * se, rel=1e-9)

    def test_affine_equivariance(self):
        # Rescaling a regressor by a rescales its interval by 1/a.
        data, _ = _simulate(15, 2, 12)
        a = 2.5
        scaled = RegressionData(
            Z=data.Z * np.array([a, 1.0]), y=data.y
        )
        lo1, hi1 = standard_region(ols(data, 1), 1, 0.9).interval()
        lo2, hi2 = standard_region(ols(scaled, 1), 1, 0.9).interval()
        assert lo2 == pytest.approx(lo1 / a, rel=1e-10)
        assert hi2 == pytest.approx(hi1 / a, rel=1e-10)

    def test_center_membership_and_level_monotone(self):
        data, _ = _simulate(25, 3, 13)
        fit = ols(data, 2)
        narrow = standard_region(fit, 2, 0.5)
        wide = standard_region(fit, 2, 0.99)
        assert narrow.contains(fit.beta_hat[:2])
        assert wide.threshold > narrow.threshold

    def test_interval_requires_scalar(self):
        data, _ = _simulate(25, 3, 14)
        region = standard_region(ols(data, 2), 2, 0.9)
        with pytest.raises(ValueError):
            region.interval()

    def test_level_validated(self):
        data, _ = _simulate(10, 2, 15)
        with pytest.raises(ValueError):
            standard_region(ols(data, 1), 1, 1.0)


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, "z1,y,z2\n1,2,3\n4,5,6\n7,8,10\n")
        data = load_csv(path, "y")
        assert np.allclose(data.y, [2, 5, 8])
        assert np.allclose(data.Z, [[1, 3], [4, 6], [7, 10]])

    def test_intercept_prepended(self, tmp_path):
        path = self._write(tmp_path, "z,y\n1,2\n3,4\n5,7\n")
        data = load_csv(path, "y", intercept=True)
        assert np.allclose(data.Z[:, 0], 1.0)
        assert np.allclose(data.Z[:, 1], [1, 3, 5])

    def test_missing_response(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="response column"):
            load_csv(path, "y")

    def test_ragged_row_located(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n3\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path, "y")

    def test_non_numeric_cell_located(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\nx,4\n")
        with pytest.raises(CsvFormatError, match="column 'a'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,y\n1,2\n3,{cell}\n")
        with pytest.raises(CsvFormatError, match="row 3, column 'y'"):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = self._write(tmp_path, "a,y\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="empty file"):
            load_csv(path, "y")

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n3,5\n")
        data = load_csv(str(path), "y")
        assert data.y.tolist() == [1.0, 3.0]
        assert data.Z.tolist() == [[2.0], [5.0]]

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, "x,y\n1,2\n\n3,4\n5,6\n7,8\n\n")
        data = load_csv(path, "y")
        assert data.y.tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_rows_after_a_blank_line_keep_their_file_number(self, tmp_path):
        path = self._write(tmp_path, "x,y\n1,2\n\n3,z\n")
        with pytest.raises(CsvFormatError, match="row 4, column 'y'"):
            load_csv(path, "y")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\n1,2\n3,\xe9\n".encode("latin-1"))
        with pytest.raises(CsvFormatError, match=f"^{re.escape(str(path))}: not UTF-8"):
            load_csv(str(path), "y")


class TestOlsFitValidation:
    def test_fit_from_lists_keeps_arrays(self):
        fit = OlsFit(beta_hat=[1.0, 2.0], sigma2_hat=1.0, S_p=[[2.0, 0.5], [0.5, 1.0]], m=3)
        with pytest.raises(ValueError, match="fit holds only 2 coefficients"):
            standard_region(fit, 3, 0.95)

    def test_rejects_bad_pieces(self):
        with pytest.raises(ValueError):
            OlsFit(beta_hat=np.zeros(1), sigma2_hat=0.0, S_p=np.eye(1), m=3)
        with pytest.raises(ValueError):
            OlsFit(
                beta_hat=np.zeros(2),
                sigma2_hat=1.0,
                S_p=np.array([[1.0, 0.5], [0.0, 1.0]]),
                m=3,
            )
        with pytest.raises(ValueError):
            OlsFit(
                beta_hat=np.zeros(2),
                sigma2_hat=1.0,
                S_p=-np.eye(2),
                m=3,
            )
