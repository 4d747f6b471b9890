#!/usr/bin/env python3
"""Regenerate the Taylor coefficients of Temme's c_k(eta) for specfun.

Temme's uniform expansion of the regularized upper incomplete gamma
function (DLMF 8.12.8-8.12.10) is

    Q(a, x) = erfc(eta sqrt(a/2)) / 2
              + exp(-a eta^2 / 2) / sqrt(2 pi a) * sum_k c_k(eta) a^-k,

with lambda = x / a and eta^2 / 2 = lambda - 1 - ln lambda, eta having the
sign of lambda - 1.  The coefficients follow from DLMF 8.12.9,

    c_0(eta) = 1 / (lambda - 1) - 1 / eta,
    c_k(eta) = c'_{k-1}(eta) / eta + (-1)^k gamma_k / (lambda - 1),

where gamma_k are the Stirling coefficients of Gamma*(a) (DLMF 5.11.3).
Everything is carried as power series in eta with mpmath numbers: lambda(eta)
by series reversion (Lagrange inversion), gamma_k by exponentiating the
Bernoulli series of ln Gamma*(a).  The 1/eta pole of the two right-hand
terms cancels; the script checks that it does.

Prints the table as the Python literal ``specfun._TEMME_C`` holds, one row
per k, coefficients of eta^0 .. eta^degree.

Example:

    python3 scripts/temme_coefficients.py --terms 10 --degree 18
"""

import argparse

import mpmath


def _power(f, alpha, n):
    # Coefficients 0..n of f(t)^alpha for a series with f[0] = 1 (J. C. P.
    # Miller's recurrence).
    out = [mpmath.mpf(1)]
    for j in range(1, n + 1):
        s = mpmath.mpf(0)
        for k in range(1, min(j, len(f) - 1) + 1):
            s += ((alpha + 1) * k - j) * f[k] * out[j - k]
        out.append(s / j)
    return out


def _stirling_gammas(n):
    # gamma_0..gamma_n of Gamma*(a) ~ sum gamma_k a^-k, by exponentiating
    # ln Gamma*(a) ~ sum_j B_2j / (2j (2j - 1)) a^(1 - 2j).
    g = [mpmath.mpf(0)] * (n + 1)
    for k in range(1, n + 1, 2):
        g[k] = mpmath.bernoulli(k + 1) / (k * (k + 1))
    out = [mpmath.mpf(1)]
    for m in range(1, n + 1):
        out.append(sum(k * g[k] * out[m - k] for k in range(1, m + 1)) / m)
    return out


def temme_coefficients(terms, degree, dps=60):
    """Rows c_0 .. c_{terms-1}, each the Taylor coefficients of eta^0 ..
    eta^degree, as mpmath numbers at ``dps`` digits."""
    with mpmath.workdps(dps):
        n = degree + 2 * terms
        # With lambda = 1 + t, eta = t sqrt(f(t)) and f(t) = 2 (t - ln(1+t)) / t^2
        # = sum_j 2 (-1)^j t^j / (j + 2).  Lagrange inversion:
        # [eta^k] t = [t^(k-1)] f^(-k/2) / k.
        f = [mpmath.mpf(2 * (-1) ** j) / (j + 2) for j in range(n + 1)]
        t = [mpmath.mpf(0)] + [
            _power(f, mpmath.mpf(-k) / 2, k - 1)[k - 1] / k for k in range(1, n + 2)
        ]
        # 1 / (lambda - 1) = v(eta) / eta with v = (t / eta)^-1.
        v = _power(t[1:], mpmath.mpf(-1), n)
        gammas = _stirling_gammas(terms)
        rows = [v[1:n + 1]]  # c_0 = (v - 1) / eta
        for k in range(1, terms):
            prev = rows[-1]
            sign_gamma = (-1) ** k * gammas[k]
            pole = prev[1] + sign_gamma
            if abs(pole) > mpmath.mpf(10) ** (-dps // 2) * abs(gammas[k]):
                raise ArithmeticError(f"the 1/eta pole of c_{k} does not cancel: {pole}")
            rows.append([
                (i + 2) * prev[i + 2] + sign_gamma * v[i + 1]
                for i in range(len(prev) - 2)
            ])
        return [row[:degree + 1] for row in rows]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--terms", type=int, default=10, help="number of c_k rows")
    ap.add_argument("--degree", type=int, default=18, help="Taylor degree of each row")
    args = ap.parse_args()
    rows = temme_coefficients(args.terms, args.degree)
    print("_TEMME_C = (")
    for row in rows:
        print("    (")
        values = [repr(float(c)) for c in row]
        for i in range(0, len(values), 3):
            print("        " + ", ".join(values[i:i + 3]) + ",")
        print("    ),")
    print(")")


if __name__ == "__main__":
    main()
