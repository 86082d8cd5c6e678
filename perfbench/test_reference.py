"""Tests of the benchmark's reference module against brute force."""

import math

import numpy as np
import pytest

import reference as ref

EDGES = np.linspace(7.0, 8.5, 31)


def midpoint_integral(fn, lo, hi, steps=20_000):
    x = np.linspace(lo, hi, steps + 1)
    mid = 0.5 * (x[1:] + x[:-1])
    return float(np.sum(fn(mid)) * (hi - lo) / steps)


def test_closed_form_columns_match_numerical_integrals():
    for i in (0, 13, 29):
        lo, hi = EDGES[i], EDGES[i + 1]
        assert ref.inverse_e_column(EDGES)[i] == pytest.approx(
            midpoint_integral(lambda e: 1.0 / e, lo, hi), rel=1e-9)
        for k in (0, 1, 2):
            assert ref.power_column(EDGES, k)[i] == pytest.approx(
                midpoint_integral(lambda e: e ** k, lo, hi), rel=1e-9)
        sigma = 0.32 / ref.FWHM_PER_SIGMA
        density = lambda e: np.exp(-0.5 * ((e - 7.7) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))  # noqa: E731
        assert ref.line_fractions(EDGES, 7.7, 0.32)[i] == pytest.approx(
            midpoint_integral(density, lo, hi), rel=1e-7)
    wide = np.linspace(0.0, 20.0, 201)
    assert ref.line_fractions(wide, 10.0, 0.5).sum() == pytest.approx(1.0, abs=1e-15)


def test_truncated_gaussian_quantiles():
    assert ref.truncated_gaussian_upper(0.0, 1.0, 0.90) == pytest.approx(1.6449, abs=1e-4)
    # far from the boundary the truncation is invisible
    assert ref.truncated_gaussian_upper(50.0, 2.0, 0.95) == pytest.approx(
        50.0 + 2.0 * 1.6448536, rel=1e-7)
    # brute-force quantile of a truncated density
    s = np.linspace(0.0, 12.0, 200_001)
    w = np.exp(-0.5 * ((s + 1.0) / 2.0) ** 2)
    cdf = np.cumsum(w) / w.sum()
    assert ref.truncated_gaussian_upper(-1.0, 2.0, 0.95) == pytest.approx(
        float(np.interp(0.95, cdf, s)), rel=1e-4)


def test_bounded_least_squares_free_and_active_bound():
    rng = np.random.default_rng(3)
    a = np.column_stack([ref.line_fractions(EDGES, 7.7, 0.32), ref.power_column(EDGES, 0)])
    w = rng.uniform(0.5, 2.0, EDGES.size - 1)
    y = a @ np.array([40.0, 200.0])
    x, chi2 = ref.bounded_least_squares(a, y, w, [0.0, -np.inf])
    assert x == pytest.approx([40.0, 200.0], rel=1e-10)
    assert chi2 == pytest.approx(0.0, abs=1e-16)
    # a negative true signal pins the bound and refits the background
    y = a @ np.array([-40.0, 200.0])
    x, chi2 = ref.bounded_least_squares(a, y, w, [0.0, -np.inf])
    assert x[0] == 0.0
    grid = np.linspace(150.0, 250.0, 100_001)
    brute = [np.sum(w * (y - b * a[:, 1]) ** 2) for b in grid]
    assert x[1] == pytest.approx(grid[int(np.argmin(brute))], abs=2e-3)
    assert chi2 == pytest.approx(min(brute), rel=1e-6)


def test_linear_chi2_limit_matches_numerical_profile_posterior():
    rng = np.random.default_rng(5)
    a = np.column_stack([ref.line_fractions(EDGES, 7.7, 0.32), ref.power_column(EDGES, 0)])
    n = rng.poisson(a @ np.array([10.0, 300.0])).astype(float)
    w = 1.0 / np.maximum(n, 1.0)
    bound, _, _ = ref.linear_chi2_upper_limit(a, n, w, 0, 0.95)
    s = np.linspace(0.0, 200.0, 40_001)
    # profile the background exactly at each s, then integrate exp(-chi2/2)
    b = (np.sum(w * a[:, 1] * (n[None, :] - s[:, None] * a[:, 0]), axis=1)
         / np.sum(w * a[:, 1] ** 2))
    resid = n[None, :] - s[:, None] * a[:, 0] - b[:, None] * a[:, 1]
    chi2 = np.sum(w * resid ** 2, axis=1)
    weight = np.exp(-0.5 * (chi2 - chi2.min()))
    cdf = np.cumsum(weight) / weight.sum()
    assert bound == pytest.approx(float(np.interp(0.95, cdf, s)), rel=1e-3)


def test_poisson_profile_solves_the_score_equation():
    rng = np.random.default_rng(7)
    a = ref.line_fractions(EDGES, 7.7, 0.32)
    c = ref.power_column(EDGES, 0)
    n = rng.poisson(8.0 * a + 80.0 * c).astype(float)
    s = np.array([0.0, 5.0, 20.0])
    b = ref.profile_background(n, a, c, s)
    for sv, bv in zip(s, b):
        nll = lambda bb: np.sum(sv * a + bb * c - n * np.log(sv * a + bb * c))  # noqa: E731
        assert nll(bv) <= min(nll(bv - 1e-3), nll(bv + 1e-3))
        assert np.sum(c * (1.0 - n / (sv * a + bv * c))) == pytest.approx(0.0, abs=1e-9)


def test_poisson_limit_approaches_chi2_limit_at_high_counts():
    rng = np.random.default_rng(11)
    a = ref.line_fractions(EDGES, 7.7, 0.32)
    c = ref.power_column(EDGES, 0)
    n = rng.poisson(200.0 * a + 20000.0 * c).astype(float)
    poisson = ref.poisson_upper_limit(n, a, c, 0.95)
    chi2, _, _ = ref.linear_chi2_upper_limit(np.column_stack([a, c]), n,
                                             1.0 / np.maximum(n, 1.0), 0, 0.95)
    assert poisson == pytest.approx(chi2, rel=0.03)


def test_reads_spectrum_and_report_files(tmp_path):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("# format: speclimit-spectrum/1\n# acquisition-days: 2.0\n"
                        "# columns: bin_lo_kev bin_hi_kev counts\n"
                        "1.0 1.5 3\n1.5 2.0 0\n")
    header, edges, (counts,) = ref.read_bins(spectrum)
    assert header["acquisition-days"] == "2.0"
    assert edges.tolist() == [1.0, 1.5, 2.0]
    assert counts.tolist() == [3.0, 0.0]
    report = tmp_path / "report.txt"
    report.write_text("overall improvement: 113.14 - 160.00\nfit.c0.amplitude: 1.5\n")
    assert ref.read_report(report) == {"overall improvement": "113.14 - 160.00",
                                       "fit.c0.amplitude": "1.5"}
