"""Grids, response, spectral components, simulation and subtraction.

Bin contents, which the package computes in closed form, are checked
against integrals computed right here a second way (Gaussian error
function, logarithm, polynomial antiderivative, scipy.integrate.quad),
so the two routes to every number stay independent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

from speclimit import (
    BinnedSpectrum,
    DetectorResponse,
    DomainError,
    EnergyGrid,
    Exposure,
    GaussianLine,
    ModelError,
    OneOverEContinuum,
    PolynomialBackground,
    ShapeError,
    SpectralModel,
    component_bin_counts,
    fwhm_to_sigma,
    gaussian_line_density,
    model_description,
    model_from_description,
    predict_counts,
    simulate_spectrum,
    subtract_spectra,
)
from speclimit.spectra import _response_from_description

RESPONSE = DetectorResponse(fwhm_kev_at_ref=0.32, reference_energy_kev=8.0)


# ---------------------------------------------------------------------------
# grids


def test_uniform_grid_properties():
    grid = EnergyGrid.uniform(6.5, 9.5, 120)
    assert grid.n_bins == 120
    assert grid.lo_kev == 6.5
    assert grid.hi_kev == 9.5
    assert grid.widths == pytest.approx(np.full(120, 0.025), rel=1e-12)
    assert grid.centers[0] == pytest.approx(6.5125, rel=1e-12)
    assert grid.lower_edges[0] == 6.5
    assert grid.upper_edges[-1] == 9.5


@pytest.mark.parametrize("edges", [
    [1.0],                      # a single edge bounds no bin
    [1.0, 1.0, 2.0],            # repeated edge
    [2.0, 1.0],                 # decreasing
    [1.0, float("nan")],        # non-finite
])
def test_grid_rejects_bad_edges(edges):
    with pytest.raises((DomainError, ShapeError)):
        EnergyGrid(np.asarray(edges, dtype=float))


def test_grid_equality_is_by_edges():
    a = EnergyGrid.uniform(1.0, 2.0, 4)
    b = EnergyGrid(np.linspace(1.0, 2.0, 5))
    c = EnergyGrid.uniform(1.0, 2.0, 5)
    assert a == b
    assert a != c


def test_grid_edges_are_read_only():
    grid = EnergyGrid.uniform(1.0, 2.0, 4)
    with pytest.raises(ValueError):
        grid.bin_edges[0] = 0.5


# ---------------------------------------------------------------------------
# detector response


def test_constant_resolution_model():
    assert RESPONSE.fwhm_at(3.0) == 0.32
    assert RESPONSE.fwhm_at(30.0) == 0.32
    assert RESPONSE.sigma_at(8.0) == pytest.approx(fwhm_to_sigma(0.32), rel=1e-14)


def test_sqrt_resolution_model_scales_with_energy():
    response = DetectorResponse(fwhm_kev_at_ref=0.32, reference_energy_kev=8.0,
                                resolution_model="sqrt")
    assert response.fwhm_at(8.0) == pytest.approx(0.32, rel=1e-14)
    assert response.fwhm_at(32.0) == pytest.approx(0.64, rel=1e-14)


def test_unknown_resolution_model_rejected():
    with pytest.raises(DomainError):
        DetectorResponse(fwhm_kev_at_ref=0.32, resolution_model="cubic")


def test_nan_widths_and_centroids_are_rejected():
    nan = float("nan")
    with pytest.raises(DomainError):
        DetectorResponse(fwhm_kev_at_ref=nan)
    with pytest.raises(DomainError):
        DetectorResponse(fwhm_kev_at_ref=0.32, reference_energy_kev=nan)
    with pytest.raises(DomainError):
        GaussianLine(centroid_kev=nan, amplitude=1.0)


def test_response_description_takes_the_response_defaults():
    assert _response_from_description({"fwhm_kev_at_ref": 0.3}) == DetectorResponse(0.3)


def test_per_bin_efficiency_must_match_grid():
    grid = EnergyGrid.uniform(1.0, 2.0, 4)
    response = DetectorResponse(fwhm_kev_at_ref=0.32, efficiency=(0.5, 0.5, 0.5, 0.5))
    assert response.efficiency_for(grid) == pytest.approx(np.full(4, 0.5))
    short = DetectorResponse(fwhm_kev_at_ref=0.32, efficiency=(0.5, 0.5))
    with pytest.raises(ShapeError):
        short.efficiency_for(grid)


# ---------------------------------------------------------------------------
# components: every bin integral has an independent closed form


def test_gaussian_line_density_normalizes_to_amplitude():
    total = quad(lambda e: gaussian_line_density(e, 8.0, 0.32, 600.0), 6.0, 10.0)[0]
    assert total == pytest.approx(600.0, rel=1e-10)


def test_gaussian_line_bin_counts_match_quadrature():
    grid = EnergyGrid(np.array([7.9, 8.0, 8.1, 9.0]))
    line = GaussianLine(centroid_kev=8.0, amplitude=600.0)
    counts = component_bin_counts(line, grid, RESPONSE)
    # frozen from an independent scipy.integrate.quad run
    assert counts[0] == pytest.approx(161.45911189269972, rel=1e-12)
    for k in range(grid.n_bins):
        oracle = quad(lambda e: gaussian_line_density(e, 8.0, 0.32, 600.0),
                      grid.lower_edges[k], grid.upper_edges[k])[0]
        assert counts[k] == pytest.approx(oracle, rel=1e-9)


def test_gaussian_line_counts_sum_to_amplitude_on_wide_grid():
    grid = EnergyGrid.uniform(4.0, 12.0, 64)  # +-29 sigma
    line = GaussianLine(centroid_kev=8.0, amplitude=600.0)
    assert float(component_bin_counts(line, grid, RESPONSE).sum()) == pytest.approx(
        600.0, rel=1e-12)


def test_one_over_e_bin_counts_match_logarithm():
    grid = EnergyGrid.uniform(4.5, 48.5, 88)
    counts = component_bin_counts(OneOverEContinuum(alpha=2.0), grid, RESPONSE)
    analytic = 2.0 * np.log(grid.upper_edges / grid.lower_edges)
    assert counts == pytest.approx(analytic, rel=1e-12)


def test_one_over_e_rejects_non_positive_energies():
    grid = EnergyGrid(np.array([-1.0, 1.0]))
    with pytest.raises(DomainError):
        component_bin_counts(OneOverEContinuum(alpha=1.0), grid, RESPONSE)


def test_polynomial_bin_counts_match_antiderivative():
    grid = EnergyGrid.uniform(2.0, 10.0, 16)
    coeffs = (5.0, -0.3, 0.02)
    counts = component_bin_counts(PolynomialBackground(coeffs), grid, RESPONSE)
    lo, hi = grid.lower_edges, grid.upper_edges
    analytic = (5.0 * (hi - lo)
                - 0.3 * (hi**2 - lo**2) / 2.0
                + 0.02 * (hi**3 - lo**3) / 3.0)
    assert counts == pytest.approx(analytic, rel=1e-12)


@pytest.mark.parametrize("power", [None, 0, 1, 2, 3], ids=["1/E", "E^0", "E^1", "E^2", "E^3"])
@pytest.mark.parametrize("grid", [
    EnergyGrid.uniform(4.5, 48.5, 88),
    # 1 eV bins near 99 keV: ln(hi/lo) of the rounded ratio keeps only
    # about eleven digits here, and hi^(k+1) - lo^(k+1) cancels as badly
    EnergyGrid.uniform(98.99, 99.01, 20),
], ids=["4.5-48.5keV", "1eV-bins-at-99keV"])
def test_smooth_bin_integrals_match_quadrature(grid, power):
    if power is None:
        component, density = OneOverEContinuum(alpha=1.0), lambda e: 1.0 / e
    else:
        component, density = PolynomialBackground((0.0,) * power + (1.0,)), lambda e: e**power
    counts = component_bin_counts(component, grid, RESPONSE)
    oracle = [quad(density, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
              for lo, hi in zip(grid.lower_edges, grid.upper_edges)]
    assert counts == pytest.approx(oracle, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=1e-3, max_value=1e3),
       lo=st.floats(min_value=0.5, max_value=20.0),
       span=st.floats(min_value=0.5, max_value=40.0))
def test_one_over_e_total_is_log_of_range(alpha, lo, span):
    grid = EnergyGrid.uniform(lo, lo + span, 7)
    total = float(component_bin_counts(OneOverEContinuum(alpha), grid, RESPONSE).sum())
    assert total == pytest.approx(alpha * math.log((lo + span) / lo), rel=1e-9)


def test_predict_counts_sums_components_and_applies_efficiency():
    grid = EnergyGrid.uniform(6.5, 9.5, 6)
    eff = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
    response = DetectorResponse(fwhm_kev_at_ref=0.32, efficiency=eff)
    line = GaussianLine(centroid_kev=8.0, amplitude=600.0)
    background = PolynomialBackground((40.0,))
    model = SpectralModel(components=(line, background), response=response)
    separate = (component_bin_counts(line, grid, response)
                + component_bin_counts(background, grid, response))
    assert predict_counts(model, grid) == pytest.approx(separate * np.asarray(eff),
                                                        rel=1e-12)


def test_model_description_round_trip():
    model = SpectralModel(
        components=(GaussianLine(7.7, 30.0), OneOverEContinuum(2.5),
                    PolynomialBackground((5.0, 0.1))),
        response=DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0,
                                  resolution_model="sqrt", efficiency=0.8),
    )
    rebuilt = model_from_description(model_description(model))
    assert rebuilt == model


# ---------------------------------------------------------------------------
# binned spectra


def _flat_spectrum(counts, tag="current_on", days=1.0):
    grid = EnergyGrid.uniform(6.5, 9.5, len(counts))
    return BinnedSpectrum(grid=grid, counts=np.asarray(counts),
                          exposure=Exposure(1.0, days), tag=tag,
                          acquisition_days=days)


def test_spectrum_counts_validation():
    with pytest.raises(DomainError):
        _flat_spectrum([1, -2, 3])
    with pytest.raises(DomainError):
        _flat_spectrum([1.5, 2.0, 3.0])
    with pytest.raises(DomainError):
        _flat_spectrum([1, 2, float("nan")])
    spectrum = _flat_spectrum([1, 2, 3])
    assert spectrum.total_counts == 6
    assert spectrum.counts.dtype == np.int64


def test_spectrum_rejects_unknown_tag():
    with pytest.raises(DomainError):
        _flat_spectrum([1, 2, 3], tag="mystery")


def test_simulation_is_deterministic_per_seed():
    grid = EnergyGrid.uniform(6.5, 9.5, 60)
    model = SpectralModel(components=(PolynomialBackground((200.0,)),),
                          response=RESPONSE)
    a = simulate_spectrum(model, grid, seed=42)
    b = simulate_spectrum(model, grid, seed=42)
    c = simulate_spectrum(model, grid, seed=43)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_simulation_mean_tracks_expectation():
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    model = SpectralModel(components=(PolynomialBackground((2000.0,)),),
                          response=RESPONSE)
    mu = predict_counts(model, grid)
    totals = [simulate_spectrum(model, grid, seed=s).total_counts
              for s in range(200)]
    expected = float(mu.sum())
    # 200 draws of a Poisson(6000): the mean sits within 5 standard errors
    standard_error = math.sqrt(expected / 200)
    assert abs(np.mean(totals) - expected) < 5 * standard_error


def test_simulation_rejects_negative_expectations():
    grid = EnergyGrid.uniform(6.5, 9.5, 30)
    model = SpectralModel(components=(PolynomialBackground((-5.0,)),),
                          response=RESPONSE)
    with pytest.raises(ModelError):
        simulate_spectrum(model, grid, seed=0)


# ---------------------------------------------------------------------------
# on/off subtraction


def test_subtraction_uses_acquisition_time_ratio():
    on = _flat_spectrum([20, 30, 40], tag="current_on", days=2.0)
    off = _flat_spectrum([5, 10, 15], tag="current_off", days=1.0)
    residual = subtract_spectra(on, off)
    assert residual.normalization_ratio == 2.0
    assert residual.values == pytest.approx([10.0, 10.0, 10.0])
    assert residual.sigmas == pytest.approx(
        np.sqrt(np.array([20, 30, 40]) + 4.0 * np.array([5, 10, 15])))
    assert residual.on_days == 2.0
    assert residual.off_days == 1.0


def test_subtraction_ratio_override():
    on = _flat_spectrum([20, 30, 40], days=2.0)
    off = _flat_spectrum([5, 10, 15], tag="current_off", days=1.0)
    residual = subtract_spectra(on, off, ratio=1.0)
    assert residual.values == pytest.approx([15.0, 20.0, 25.0])
    with pytest.raises(DomainError):
        subtract_spectra(on, off, ratio=-1.0)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, 0.0])
def test_subtraction_refuses_a_ratio_that_is_not_finite_and_positive(ratio):
    # NaN passes a test of ratio <= 0 and would write an all-NaN residual
    on = _flat_spectrum([20, 30, 40], days=2.0)
    off = _flat_spectrum([5, 10, 15], tag="current_off", days=1.0)
    with pytest.raises(DomainError, match="finite and positive"):
        subtract_spectra(on, off, ratio=ratio)


def test_subtraction_requires_matching_grids():
    on = _flat_spectrum([20, 30, 40])
    off_grid = EnergyGrid.uniform(6.0, 9.0, 3)
    off = BinnedSpectrum(grid=off_grid, counts=np.array([5, 10, 15]),
                         exposure=Exposure(1.0, 1.0), tag="current_off",
                         acquisition_days=1.0)
    with pytest.raises(ShapeError):
        subtract_spectra(on, off)


def test_subtraction_requires_positive_acquisition_times():
    on = _flat_spectrum([20, 30, 40], days=0.0)
    off = _flat_spectrum([5, 10, 15], tag="current_off", days=1.0)
    with pytest.raises(DomainError):
        subtract_spectra(on, off)
    assert subtract_spectra(on, off, ratio=1.0).values == pytest.approx(
        [15.0, 20.0, 25.0])


# erf identity: bin fractions of a unit line reproduce the cdf difference
def test_line_counts_agree_with_erf_expression():
    grid = EnergyGrid.uniform(7.0, 9.0, 10)
    line = GaussianLine(centroid_kev=7.7, amplitude=1.0)
    sigma = RESPONSE.sigma_at(7.7)
    z = (grid.bin_edges - 7.7) / (sigma * math.sqrt(2.0))
    oracle = np.diff(0.5 * (1.0 + erf(z)))
    assert component_bin_counts(line, grid, RESPONSE) == pytest.approx(oracle, rel=1e-12)


def test_erf_helper_is_math_erf_bit_for_bit():
    # exactly +-1 beyond |z| = 6, which math.erf also rounds to there
    from speclimit.spectra import _erf

    six = np.array([-6.0, 6.0])
    z = np.concatenate([np.linspace(-7.0, 7.0, 140_001), six,
                        np.nextafter(six, 0.0), np.nextafter(six, np.array([-7.0, 7.0]))])
    expected = np.array([math.erf(v) for v in z])
    for shaped, oracle in ((z, expected), (z[:-1].reshape(2, -1), expected[:-1].reshape(2, -1))):
        values = _erf(shaped)
        assert values.shape == shaped.shape
        assert np.array_equal(values.view(np.int64), oracle.view(np.int64))
    # and within 3 ulp of scipy's erf
    assert np.all(np.abs(_erf(z) - erf(z)) <= 3.0 * np.spacing(np.abs(erf(z))))


@pytest.mark.parametrize("model", ["constant", "sqrt"])
def test_line_centroid_derivatives_match_central_differences(model):
    # the sqrt model widens the line with its centroid, which adds the
    # width terms to both derivatives
    from speclimit.spectra import _line_fractions_and_derivatives

    response = DetectorResponse(fwhm_kev_at_ref=0.17, reference_energy_kev=8.0,
                                resolution_model=model)
    grid = EnergyGrid.uniform(7.0, 8.5, 60)
    centroid, h = 7.73, 1e-5
    fractions, first, second = (column[:, 0] for column in _line_fractions_and_derivatives(
        grid.bin_edges, [centroid], response))

    def counts(c):
        return component_bin_counts(GaussianLine(c, 1.0), grid, response)

    def derivative(c):
        return _line_fractions_and_derivatives(grid.bin_edges, [c], response)[1][:, 0]

    np.testing.assert_array_equal(fractions, counts(centroid))
    np.testing.assert_allclose(first, (counts(centroid + h) - counts(centroid - h)) / (2 * h),
                               rtol=0, atol=1e-7 * np.abs(first).max())
    np.testing.assert_allclose(second,
                               (derivative(centroid + h) - derivative(centroid - h)) / (2 * h),
                               rtol=0, atol=1e-7 * np.abs(second).max())
    # lines evaluated together are bit for bit the lines evaluated alone
    together = _line_fractions_and_derivatives(grid.bin_edges, [centroid, 8.21], response)
    for k, c in enumerate([centroid, 8.21]):
        alone = _line_fractions_and_derivatives(grid.bin_edges, [c], response)
        for both, one in zip(together, alone):
            assert both.shape == (60, 2)
            np.testing.assert_array_equal(both[:, k], one[:, 0])
