"""Forbidden-line yield chain and the beta^2/2 upper bound.

The unit-yield arithmetic is pinned by the elementary charge: 100 A
flowing for one second injects 100 / 1.602176634e-19 electrons. Limit
behavior is checked through exact rescalings (the bound is inversely
proportional to every factor of the yield chain) rather than through
re-derived statistics.
"""

import math

import numpy as np
import pytest

from speclimit import (
    DegenerateMapError,
    DetectorResponse,
    DomainError,
    EnergyGrid,
    Exposure,
    GaussianLine,
    PepRunConfig,
    PepTransition,
    PolynomialBackground,
    ResidualSpectrum,
    SpectralModel,
    component_bin_counts,
    forbidden_window,
    pep_expected_counts,
    pep_upper_limit,
    simulate_spectrum,
    subtract_spectra,
)

NEW_ELECTRONS_100A_1S = 6.241509074460762e20  # from e = 1.602176634e-19 C

RESPONSE = DetectorResponse(fwhm_kev_at_ref=0.32, reference_energy_kev=8.0)

RUN = PepRunConfig(current_a=40.0, duration_s=94_608_000.0,
                   geometric_acceptance=0.01, detection_efficiency=0.5,
                   capture_cascade_factor=0.1, capture_opportunities=1e5)


def test_transition_energies():
    transition = PepTransition()
    assert transition.normal_energy_kev == 8.0
    assert transition.shift_kev == 0.30
    assert transition.forbidden_energy_kev == pytest.approx(7.7, rel=1e-15)
    with pytest.raises(DomainError):
        PepTransition(normal_energy_kev=8.0, shift_kev=9.0)
    with pytest.raises(DomainError):
        PepTransition(normal_energy_kev=-8.0)


def test_new_electron_count_from_elementary_charge():
    run = PepRunConfig(current_a=100.0, duration_s=1.0,
                       geometric_acceptance=1.0, detection_efficiency=1.0)
    assert run.new_electron_count == pytest.approx(NEW_ELECTRONS_100A_1S, rel=1e-12)


def test_expected_counts_multiply_every_factor():
    run = PepRunConfig(current_a=2.0, duration_s=3.0,
                       geometric_acceptance=0.25, detection_efficiency=0.5,
                       capture_cascade_factor=0.1, capture_opportunities=7.0)
    beta = 1e-20
    expected = (beta * run.new_electron_count * 7.0 * 0.1 * 0.25 * 0.5)
    assert pep_expected_counts(run, beta) == pytest.approx(expected, rel=1e-12)
    assert pep_expected_counts(run, 0.0) == 0.0
    with pytest.raises(DomainError):
        pep_expected_counts(run, 1.5)


def test_run_config_validation():
    with pytest.raises(DomainError):
        PepRunConfig(current_a=-1.0, duration_s=1.0,
                     geometric_acceptance=0.5, detection_efficiency=0.5)
    with pytest.raises(DomainError):
        PepRunConfig(current_a=1.0, duration_s=1.0,
                     geometric_acceptance=1.5, detection_efficiency=0.5)
    with pytest.raises(DomainError):
        PepRunConfig(current_a=1.0, duration_s=1.0,
                     geometric_acceptance=0.5, detection_efficiency=0.5,
                     capture_opportunities=0.0)


def test_forbidden_window_spans_fwhm_multiples():
    lo, hi = forbidden_window(PepTransition(), RESPONSE, fwhm_multiple=1.5)
    assert lo == pytest.approx(7.7 - 1.5 * 0.32, rel=1e-12)
    assert hi == pytest.approx(7.7 + 1.5 * 0.32, rel=1e-12)
    with pytest.raises(DomainError):
        forbidden_window(PepTransition(), RESPONSE, fwhm_multiple=0.0)


def _flat_residual(n_bins=120, value=0.0, sigma=5.0):
    grid = EnergyGrid.uniform(6.5, 9.5, n_bins)
    return ResidualSpectrum(grid=grid, values=np.full(n_bins, value),
                            sigmas=np.full(n_bins, sigma),
                            normalization_ratio=1.0, on_days=1095.0,
                            off_days=1095.0)


def test_limit_requires_window_inside_grid():
    narrow = ResidualSpectrum(grid=EnergyGrid.uniform(7.6, 7.8, 8),
                              values=np.zeros(8), sigmas=np.ones(8),
                              normalization_ratio=1.0, on_days=1.0, off_days=1.0)
    with pytest.raises(DomainError):
        pep_upper_limit(narrow, PepTransition(), RESPONSE, RUN, 0.95)


def test_limit_inverse_in_each_yield_factor():
    residual = _flat_residual()
    base = pep_upper_limit(residual, PepTransition(), RESPONSE, RUN, 0.95)

    doubled_eff = PepRunConfig(current_a=40.0, duration_s=94_608_000.0,
                               geometric_acceptance=0.01, detection_efficiency=1.0,
                               capture_cascade_factor=0.1, capture_opportunities=1e5)
    harder = pep_upper_limit(residual, PepTransition(), RESPONSE, doubled_eff, 0.95)
    # identical excess-count bound, twice the unit yield
    assert harder.metadata["counts_upper_bound"] == pytest.approx(
        base.metadata["counts_upper_bound"], rel=1e-9)
    assert harder.upper_bound == pytest.approx(base.upper_bound / 2.0, rel=1e-6)

    doubled_current = PepRunConfig(current_a=80.0, duration_s=94_608_000.0,
                                   geometric_acceptance=0.01, detection_efficiency=0.5,
                                   capture_cascade_factor=0.1, capture_opportunities=1e5)
    assert pep_upper_limit(residual, PepTransition(), RESPONSE, doubled_current,
                           0.95).upper_bound == pytest.approx(
        base.upper_bound / 2.0, rel=1e-6)


def test_limit_metadata_documents_the_window():
    result = pep_upper_limit(_flat_residual(), PepTransition(), RESPONSE, RUN, 0.95)
    assert result.parameter == "beta2_over_2"
    lo, hi = result.metadata["window_kev"]
    assert lo == pytest.approx(7.22, rel=1e-12)
    assert hi == pytest.approx(8.18, rel=1e-12)
    assert result.metadata["window_bins"] >= 38
    assert result.metadata["unit_yield_counts"] == pytest.approx(
        pep_expected_counts(RUN, 1.0), rel=1e-12)
    assert result.method == "bayesian-gaussian-residual"
    # scan is expressed in beta^2/2 units
    assert result.scan[-1, 0] >= result.upper_bound


def test_limit_window_is_every_bin_overlapping_the_forbidden_window():
    residual = _flat_residual()
    lo, hi = forbidden_window(PepTransition(), RESPONSE)
    edges = residual.grid.bin_edges.tolist()
    overlapping = [i for i in range(len(edges) - 1) if edges[i + 1] > lo and edges[i] < hi]
    # 25 eV bins: the window's edges cover [lo, hi], one partial bin at each end
    assert edges[overlapping[0]] < lo < edges[overlapping[0] + 1]
    assert edges[overlapping[-1]] < hi < edges[overlapping[-1] + 1]
    base = pep_upper_limit(residual, PepTransition(), RESPONSE, RUN, 0.95)
    assert base.metadata["window_bins"] == len(overlapping) == 40

    def bound_with_spike(i):
        values = residual.values.copy()
        values[i] = 1e4
        spiked = ResidualSpectrum(grid=residual.grid, values=values, sigmas=residual.sigmas,
                                  normalization_ratio=1.0, on_days=1095.0, off_days=1095.0)
        return pep_upper_limit(spiked, PepTransition(), RESPONSE, RUN, 0.95).upper_bound

    # a bin just outside the window leaves the bound's bits alone, and each
    # partial bin at its ends moves it
    assert bound_with_spike(overlapping[0] - 1) == base.upper_bound
    assert bound_with_spike(overlapping[-1] + 1) == base.upper_bound
    assert bound_with_spike(overlapping[0]) != base.upper_bound
    assert bound_with_spike(overlapping[-1]) != base.upper_bound


def test_zero_yield_configuration_cannot_be_bounded():
    zero_current = PepRunConfig(current_a=0.0, duration_s=94_608_000.0,
                                geometric_acceptance=0.01, detection_efficiency=0.5)
    with pytest.raises(DegenerateMapError):
        pep_upper_limit(_flat_residual(), PepTransition(), RESPONSE, zero_current, 0.95)


def test_variance_floor_applies_to_empty_residual_bins():
    # all-zero sigmas would otherwise be rejected by the residual problem
    residual = _flat_residual(sigma=0.0)
    result = pep_upper_limit(residual, PepTransition(), RESPONSE, RUN, 0.95)
    assert np.isfinite(result.upper_bound)
    assert result.upper_bound > 0


def test_injected_line_is_recovered_by_best_fit():
    grid = EnergyGrid.uniform(6.5, 9.5, 120)
    line = GaussianLine(centroid_kev=7.7, amplitude=500.0)
    injected = component_bin_counts(line, grid, RESPONSE)
    residual = ResidualSpectrum(grid=grid, values=injected,
                                sigmas=np.full(120, 3.0),
                                normalization_ratio=1.0, on_days=1095.0,
                                off_days=1095.0)
    result = pep_upper_limit(residual, PepTransition(), RESPONSE, RUN, 0.95)
    unit_yield = pep_expected_counts(RUN, 1.0)
    # best fit finds the injected amplitude, expressed as beta^2/2
    assert result.metadata["best_signal"] == pytest.approx(500.0 / unit_yield,
                                                           rel=0.02)
    assert result.upper_bound > result.metadata["best_signal"]


def test_end_to_end_bound_scales_with_inverse_sqrt_background():
    # quadrupled flat background doubles the count bound on average;
    # exact here because the residual is noise-free
    base = pep_upper_limit(_flat_residual(sigma=5.0), PepTransition(), RESPONSE,
                           RUN, 0.95)
    worse = pep_upper_limit(_flat_residual(sigma=10.0), PepTransition(), RESPONSE,
                            RUN, 0.95)
    assert worse.upper_bound == pytest.approx(2.0 * base.upper_bound, rel=1e-3)


def test_simulated_on_off_chain_produces_finite_bound():
    grid = EnergyGrid.uniform(6.5, 9.5, 120)
    allowed = GaussianLine(centroid_kev=8.0, amplitude=600.0)
    background = PolynomialBackground((547.5,))
    model = SpectralModel(components=(allowed, background), response=RESPONSE)
    on = simulate_spectrum(model, grid, seed=101, exposure=Exposure(1.0, 1095.0),
                           acquisition_days=1095.0, tag="current_on")
    off = simulate_spectrum(model, grid, seed=202, exposure=Exposure(1.0, 1095.0),
                            acquisition_days=1095.0, tag="current_off")
    residual = subtract_spectra(on, off)
    result = pep_upper_limit(residual, PepTransition(), RESPONSE, RUN, 0.95)
    assert result.upper_bound > 0
    assert math.isfinite(result.upper_bound)
    # the allowed 8.0 keV line cancels in the residual, so the bound is
    # driven by counting noise, not by the line amplitude
    assert result.metadata["counts_upper_bound"] < 300.0
