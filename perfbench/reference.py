"""Reference computations for the benchmark's correctness checks.

Nothing here imports speclimit. Bin columns come from closed-form
integrals, linear chi-square problems from weighted least squares, and
the Poisson profile from the background score equation, so each check
compares the program against an independent computation rather than
against itself.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
ELEMENTARY_CHARGE_C = 1.602176634e-19
ELECTRON_MASS_KEV = 510.99895
NUCLEON_MASS_KEV = 938272.08816

_STANDARD_NORMAL = NormalDist()


# ---------------------------------------------------------------------------
# closed-form bin columns


def line_fractions(edges, centroid_kev: float, fwhm_kev: float) -> np.ndarray:
    """Share of a unit Gaussian line falling in each bin, from erf."""
    scale = fwhm_kev / FWHM_PER_SIGMA * math.sqrt(2.0)
    cdf = np.array([0.5 * (1.0 + math.erf((e - centroid_kev) / scale)) for e in edges])
    return np.diff(cdf)


def inverse_e_column(edges) -> np.ndarray:
    """Integral of 1/E over each bin, log(hi/lo)."""
    edges = np.asarray(edges, dtype=float)
    return np.log(edges[1:] / edges[:-1])


def power_column(edges, k: int) -> np.ndarray:
    """Integral of E^k over each bin, (hi^(k+1) - lo^(k+1)) / (k+1)."""
    edges = np.asarray(edges, dtype=float)
    return (edges[1:] ** (k + 1) - edges[:-1] ** (k + 1)) / (k + 1)


def neyman_chi2(observed, expected) -> float:
    """Chi-square with the max(n, 1) variance floor."""
    observed = np.asarray(observed, dtype=float)
    resid = observed - np.asarray(expected, dtype=float)
    return float(np.sum(resid * resid / np.maximum(observed, 1.0)))


# ---------------------------------------------------------------------------
# linear chi-square: bounded least squares and the truncated Gaussian


def truncated_gaussian_upper(mean: float, sigma: float, cl: float) -> float:
    """Quantile cl of N(mean, sigma) truncated to values >= 0."""
    kept = _STANDARD_NORMAL.cdf(mean / sigma)  # posterior mass above zero
    return mean - sigma * _STANDARD_NORMAL.inv_cdf((1.0 - cl) * kept)


def bounded_least_squares(columns, y, weights, lower=None):
    """Minimise sum w (y - A x)^2 subject to x >= lower (active set).

    lower holds -inf for unbounded parameters. Returns (x, chi2).
    """
    a = np.asarray(columns, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = a.shape[1]
    lower = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    fixed = np.zeros(n, dtype=bool)
    for _ in range(2 * n + 1):
        x = np.where(fixed, lower, 0.0)
        free = ~fixed
        rhs = y - a[:, fixed] @ x[fixed]
        af = a[:, free]
        x[free] = np.linalg.solve(af.T @ (af * w[:, None]), af.T @ (w * rhs))
        below = free & (x < lower)
        if np.any(below):
            fixed |= below
            continue
        # release a fixed parameter whose gradient points into the interior
        grad = -2.0 * a.T @ (w * (y - a @ x))
        release = fixed & (grad < 0)
        if not np.any(release):
            resid = y - a @ x
            return x, float(np.sum(w * resid * resid))
        fixed &= ~release
    raise RuntimeError("active set did not settle")


def least_squares_covariance(columns, weights) -> np.ndarray:
    """(A^T W A)^-1, the exact covariance of a linear chi-square fit."""
    a = np.asarray(columns, dtype=float)
    return np.linalg.inv(a.T @ (a * np.asarray(weights, dtype=float)[:, None]))


def linear_chi2_upper_limit(columns, y, weights, signal_index: int, cl: float):
    """Flat-prior bound on one column's coefficient, the rest profiled.

    The profiled chi-square is an exact parabola in the signal, so the
    posterior is a Gaussian truncated at zero. Returns (bound, mean, sigma).
    """
    a = np.asarray(columns, dtype=float)
    x, _ = bounded_least_squares(a, y, weights)
    cov = least_squares_covariance(a, weights)
    mean = float(x[signal_index])
    sigma = math.sqrt(cov[signal_index, signal_index])
    return truncated_gaussian_upper(mean, sigma, cl), mean, sigma


# ---------------------------------------------------------------------------
# Poisson profile with one background nuisance


def profile_background(observed, signal_col, background_col, s_values,
                       iterations: int = 64) -> np.ndarray:
    """Background coefficient minimising the Poisson NLL at each s.

    With mu = s a + b c (a >= 0, c > 0) the NLL is convex in b and its
    score sum c (1 - n / mu) rises from -inf at the edge where a bin
    with counts reaches mu = 0 to above zero at b = N / sum c, so
    bisection finds the root. Empty bins only need mu >= 0, which
    clips the root from below.
    """
    n = np.asarray(observed, dtype=float)
    a = np.asarray(signal_col, dtype=float)
    c = np.asarray(background_col, dtype=float)
    s = np.asarray(s_values, dtype=float)[:, None]
    used = n > 0
    if not np.any(used):
        raise ValueError("the Poisson profile needs at least one count")
    lo = np.max(np.where(used, -s * a / c, -np.inf), axis=1)
    hi = np.full(lo.shape, n.sum() / c.sum() + 1.0)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        mu = s * a + mid[:, None] * c
        score = np.sum(c - np.where(used, n * c / np.where(used, mu, 1.0), 0.0), axis=1)
        hi = np.where(score > 0, mid, hi)
        lo = np.where(score > 0, lo, mid)
    return np.maximum(0.5 * (lo + hi), np.max(-s * a / c, axis=1))


def profiled_poisson_nll(observed, signal_col, background_col, s_values) -> np.ndarray:
    """Poisson NLL minimised over the background at each signal value,
    up to the constant sum log n!."""
    n = np.asarray(observed, dtype=float)
    a = np.asarray(signal_col, dtype=float)
    c = np.asarray(background_col, dtype=float)
    s = np.asarray(s_values, dtype=float)
    b = profile_background(n, a, c, s)
    mu = s[:, None] * a + b[:, None] * c
    logs = np.log(np.where(n > 0, mu, 1.0))
    return np.sum(mu - n * logs, axis=1)


def poisson_upper_limit(observed, signal_col, background_col, cl: float,
                        points: int = 20_001) -> float:
    """Flat-prior quantile of exp(-profiled NLL) on a fine grid over s >= 0."""
    n = np.asarray(observed, dtype=float)
    a = np.asarray(signal_col, dtype=float)
    stat_min = float(np.min(profiled_poisson_nll(n, a, background_col,
                                                 np.linspace(0.0, n.sum() / a.sum(), 401))))
    s_max = max(1.0, math.sqrt(n.sum())) / a.sum()
    while profiled_poisson_nll(n, a, background_col, [s_max])[0] - stat_min < 40.0:
        s_max *= 1.5
    s = np.linspace(0.0, s_max, points)
    weight = np.exp(-(profiled_poisson_nll(n, a, background_col, s) - stat_min))
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(s) * 0.5 * (weight[1:] + weight[:-1]))])
    return float(np.interp(cl * cdf[-1], cdf, s))


# ---------------------------------------------------------------------------
# text files written by the command line


def read_bins(path):
    """Header dict and columns of a speclimit spectrum or residual file."""
    header, rows = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep:
                header[key.strip()] = value.strip()
        elif line.strip():
            rows.append([float(tok) for tok in line.split()])
    table = np.array(rows)
    edges = np.append(table[:, 0], table[-1, 1])
    return header, edges, table[:, 2:].T


def read_report(path) -> dict:
    """key: value report as a dict of strings."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out
