"""Linear-regression front-end: OLS and the standard joint confidence region.

The regression model ``y = Z beta + u`` with Gaussian errors reduces, for
the first p coefficients, to the location-scale pair

    x = T beta_hat_(p)   with   T S_(p) T' = I_p,
    s = (n - d) sigma2_hat,

where ``S_(p)`` is the leading p x p block of ``(Z'Z)^{-1}``.  The standard
confidence region for the first p coefficients is the ellipsoid

    (b - beta_hat_(p))' S_(p)^{-1} (b - beta_hat_(p)) < c sigma2_hat,

with ``c = p * F^{-1}_{p, n-d}(level)`` (``risk.default_c``); for p = 1
this is the classical two-sided t-interval.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .risk import default_c

__all__ = [
    "RegressionData",
    "OlsFit",
    "StandardRegion",
    "ols",
    "reduce_to_location_scale",
    "standard_region",
    "load_csv",
    "CsvFormatError",
]

_RANK_RTOL = 1e-10  # smallest pivot relative to the largest


class CsvFormatError(ValueError):
    """Malformed CSV input; carries the offending row/column location."""


@dataclass(frozen=True)
class RegressionData:
    """Design matrix (full column rank) and response vector."""

    Z: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        Z = np.asarray(self.Z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if Z.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        n, d = Z.shape
        if y.shape != (n,):
            raise ValueError(f"response must have length {n}, got {y.shape}")
        if not (n > d >= 1):
            raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def d(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class OlsFit:
    """OLS estimates plus the pieces needed for the location-scale reduction."""

    beta_hat: np.ndarray
    sigma2_hat: float
    S_p: np.ndarray
    m: int

    def __post_init__(self) -> None:
        if not self.sigma2_hat > 0:
            raise ValueError(f"sigma2_hat must be positive, got {self.sigma2_hat}")
        S = np.asarray(self.S_p, dtype=float)
        if not np.allclose(S, S.T, rtol=1e-10, atol=1e-12):
            raise ValueError("S_p must be symmetric")
        if np.linalg.eigvalsh(S).min() <= 0:
            raise ValueError("S_p must be positive definite")


def ols(data: RegressionData, p: int) -> OlsFit:
    """Least-squares fit; p is the number of leading coefficients of interest."""
    if not (1 <= p <= data.d):
        raise ValueError(f"need 1 <= p <= d={data.d}, got p={p}")
    Z, y = data.Z, data.y
    n, d = Z.shape
    q, r = np.linalg.qr(Z)
    diag = np.abs(np.diag(r))
    if diag.min() <= _RANK_RTOL * diag.max():
        raise ValueError("design matrix is rank deficient")
    beta_hat = np.linalg.solve(r, q.T @ y)
    resid = y - Z @ beta_hat
    m = n - d
    sigma2_hat = float(resid @ resid) / m
    r_inv = np.linalg.solve(r, np.eye(d))
    xtx_inv = r_inv @ r_inv.T
    return OlsFit(beta_hat=beta_hat, sigma2_hat=sigma2_hat, S_p=xtx_inv[:p, :p], m=m)


def _leading_block(fit: OlsFit, p: int) -> np.ndarray:
    # S_(p), the leading p x p block of the fit's (Z'Z)^{-1}.
    S = np.asarray(fit.S_p, dtype=float)[:p, :p]
    if S.shape != (p, p):
        raise ValueError(f"fit holds only {fit.S_p.shape[0]} coefficients")
    return S


def reduce_to_location_scale(fit: OlsFit, p: int):
    """Map the fit to the sufficient pair (x, s) of the location-scale model.

    x = T beta_hat_(p) with T a triangular factor satisfying T S_(p) T' = I,
    s = m * sigma2_hat.  Returns (x, s, m).  Only the quadratic form matters
    downstream, so any square-root factor yields the same membership
    decisions.
    """
    T = np.linalg.cholesky(np.linalg.inv(_leading_block(fit, p))).T
    return T @ fit.beta_hat[:p], fit.m * fit.sigma2_hat, fit.m


@dataclass(frozen=True)
class StandardRegion:
    """Ellipsoidal confidence region for the first p coefficients.

    Membership: (b - center)' shape^{-1} (b - center) < threshold.
    """

    center: np.ndarray
    shape: np.ndarray
    threshold: float
    level: float

    def contains(self, b) -> bool:
        b = np.asarray(b, dtype=float)
        diff = b - self.center
        return float(diff @ np.linalg.solve(self.shape, diff)) < self.threshold

    def interval(self) -> tuple[float, float]:
        """Endpoints for the scalar case (p = 1)."""
        if self.center.size != 1:
            raise ValueError("interval endpoints exist only for p = 1")
        half = math.sqrt(self.threshold * float(self.shape[0, 0]))
        c0 = float(self.center[0])
        return c0 - half, c0 + half


def standard_region(fit: OlsFit, p: int, level: float) -> StandardRegion:
    """The standard joint confidence region at the given coverage level."""
    c = default_c(p, fit.m, level)
    S = _leading_block(fit, p)
    return StandardRegion(
        center=fit.beta_hat[:p].copy(),
        shape=S,
        threshold=c * fit.sigma2_hat,
        level=level,
    )


def load_csv(path, response: str, intercept: bool = False) -> RegressionData:
    """Read a header + numeric-rows CSV into regression data.

    Every cell must be a finite number; blank lines are skipped (error
    messages keep the file's row numbers), and a UTF-8 byte-order mark is
    dropped.  The named response column becomes y; the remaining columns
    form the design matrix in file order, optionally with a prepended
    intercept column of ones.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if response not in header:
                raise CsvFormatError(
                    f"{path}: response column {response!r} not in header {header}"
                )
            y_col = header.index(response)
            rows = []
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                    )
                vals = []
                for j, cell in enumerate(row):
                    try:
                        val = float(cell)
                    except ValueError:
                        val = math.nan  # reported below, with nan and inf cells
                    if not math.isfinite(val):
                        raise CsvFormatError(
                            f"{path}: row {i}, column {header[j]!r}: "
                            f"non-numeric or non-finite cell {cell!r}"
                        )
                    vals.append(val)
                rows.append(vals)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    y = arr[:, y_col]
    Z = np.delete(arr, y_col, axis=1)
    if intercept:
        Z = np.hstack([np.ones((Z.shape[0], 1)), Z])
    return RegressionData(Z=Z, y=y)
