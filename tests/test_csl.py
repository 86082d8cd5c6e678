"""Spontaneous-emission continuum: rate density, expected counts and
the collapse-rate map.

The per-electron coefficient and exposure products below were frozen
from an independent evaluation of the defining formulas; bin contents
are additionally cross-checked against a dense trapezoidal integration
of the rate density so the closed-form path never validates itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speclimit import (
    CORRELATION_LENGTH_DEFAULT_M,
    CslParams,
    DegenerateMapError,
    DomainError,
    EnergyGrid,
    Exposure,
    TargetMaterial,
    ValidityError,
    alpha_from_lambda,
    csl_rate_density,
    electron_second_exposure,
    expected_csl_counts,
    lambda_from_alpha,
    mass_ratio_squared,
    rate_coefficient,
)

# independent evaluations, frozen
COEFF_AT_UNIT_LAMBDA = 2.756376366862144e-15   # 1/(s keV) per electron
GE_ATOMS_PER_KG = 8.291533471017486e24
ELECTRON_SECONDS_80KGDAY = 2.292443174066914e32
TOTAL_COUNTS_REFERENCE = 3.755736776670261     # lambda=2.5e-18, Ge, 80 kg day

GE = TargetMaterial.from_table("Ge")
EXPOSURE_80 = Exposure(mass_kg=2.0, live_time_days=40.0)
GRID_88 = EnergyGrid.uniform(4.5, 48.5, 88)
WINDOW = GRID_88.bin_edges  # the fit window of a lambda bound


def test_rate_coefficient_matches_frozen_value():
    assert rate_coefficient(CslParams(1.0)) == pytest.approx(
        COEFF_AT_UNIT_LAMBDA, rel=1e-12)


def test_rate_coefficient_scales_linearly_in_lambda():
    assert rate_coefficient(CslParams(2.5e-18)) == pytest.approx(
        2.5e-18 * COEFF_AT_UNIT_LAMBDA, rel=1e-12)


def test_rate_coefficient_scales_inverse_square_in_correlation_length():
    wide = rate_coefficient(CslParams(1.0, correlation_length_m=2e-7))
    assert wide == pytest.approx(COEFF_AT_UNIT_LAMBDA / 4.0, rel=1e-12)


def test_mass_proportional_variant_rescales_by_mass_ratio():
    plain = rate_coefficient(CslParams(1.0))
    mass = rate_coefficient(CslParams(1.0, mass_proportional=True))
    assert mass / plain == pytest.approx(mass_ratio_squared(), rel=1e-14)
    assert mass < plain  # electron emission is suppressed in this variant


def test_rate_density_is_coefficient_over_energy():
    params = CslParams(1e-16)
    coeff = rate_coefficient(params)
    energies = np.linspace(4.5, 48.5, 97)
    density = csl_rate_density(energies, params)
    assert density == pytest.approx(coeff / energies, rel=1e-14)
    assert csl_rate_density(10.0, params) == pytest.approx(coeff / 10.0, rel=1e-14)


def test_rate_density_domain_and_validity_errors():
    params = CslParams(1e-16)
    with pytest.raises(DomainError):
        csl_rate_density(0.0, params)
    with pytest.raises(DomainError):
        csl_rate_density(-3.0, params)
    with pytest.raises(ValidityError):
        csl_rate_density(150.0, params)  # relativistic regime excluded
    with pytest.raises(ValidityError):
        csl_rate_density(np.array([10.0, 120.0]), params)


def test_germanium_table_entry():
    assert GE.atoms_per_kg == pytest.approx(GE_ATOMS_PER_KG, rel=1e-12)
    assert GE.quasi_free_electrons_per_atom == 4.0
    assert GE.electrons_per_kg == pytest.approx(4.0 * GE_ATOMS_PER_KG, rel=1e-12)


def test_unknown_material_lists_known_ones():
    with pytest.raises(DomainError, match="Ge"):
        TargetMaterial.from_table("Unobtainium")


def test_quasi_free_electron_override():
    custom = TargetMaterial.from_table("Ge", quasi_free_electrons=2.0)
    assert custom.electrons_per_kg == pytest.approx(2.0 * GE_ATOMS_PER_KG, rel=1e-12)


def test_electron_second_exposure_frozen_value():
    assert electron_second_exposure(GE, EXPOSURE_80) == pytest.approx(
        ELECTRON_SECONDS_80KGDAY, rel=1e-12)


def test_expected_counts_reference_total():
    mu = expected_csl_counts(CslParams(2.5e-18), GE, EXPOSURE_80, GRID_88)
    assert mu.shape == (88,)
    assert float(mu.sum()) == pytest.approx(TOTAL_COUNTS_REFERENCE, rel=1e-12)


def test_expected_counts_match_trapezoid_of_density():
    params = CslParams(2.5e-18)
    mu = expected_csl_counts(params, GE, EXPOSURE_80, GRID_88)
    electron_seconds = electron_second_exposure(GE, EXPOSURE_80)
    for k in (0, 40, 87):
        energies = np.linspace(GRID_88.lower_edges[k], GRID_88.upper_edges[k], 20001)
        oracle = np.trapezoid(
            electron_seconds * csl_rate_density(energies, params), energies)
        assert mu[k] == pytest.approx(oracle, rel=1e-9)


def test_expected_counts_decrease_with_energy():
    mu = expected_csl_counts(CslParams(1e-16), GE, EXPOSURE_80, GRID_88)
    assert np.all(np.diff(mu) < 0)


def test_expected_counts_require_positive_exposure():
    with pytest.raises(DomainError):
        expected_csl_counts(CslParams(1e-16), GE, Exposure(0.0, 40.0), GRID_88)


def test_alpha_lambda_round_trip():
    params = CslParams(2.5e-18)
    alpha = alpha_from_lambda(params, GE, EXPOSURE_80)
    back = lambda_from_alpha(alpha, GE, EXPOSURE_80, window_edges_kev=WINDOW)
    assert back == pytest.approx(2.5e-18, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(log_lambda=st.floats(min_value=-20.0, max_value=-10.0),
       mass_mode=st.booleans())
def test_alpha_lambda_round_trip_property(log_lambda, mass_mode):
    lam = 10.0 ** log_lambda
    params = CslParams(lam, mass_proportional=mass_mode)
    alpha = alpha_from_lambda(params, GE, EXPOSURE_80)
    back = lambda_from_alpha(alpha, GE, EXPOSURE_80, window_edges_kev=WINDOW,
                             mass_proportional=mass_mode)
    assert back == pytest.approx(lam, rel=1e-12)


def test_lambda_from_alpha_is_linear():
    one = lambda_from_alpha(1.0, GE, EXPOSURE_80, window_edges_kev=WINDOW)
    three = lambda_from_alpha(3.0, GE, EXPOSURE_80, window_edges_kev=WINDOW)
    assert three == pytest.approx(3.0 * one, rel=1e-12)


def test_mass_mode_bounds_differ_by_exact_mass_ratio():
    alpha = 30.0
    plain = lambda_from_alpha(alpha, GE, EXPOSURE_80, window_edges_kev=WINDOW,
                              mass_proportional=False)
    mass = lambda_from_alpha(alpha, GE, EXPOSURE_80, window_edges_kev=WINDOW,
                             mass_proportional=True)
    assert mass / plain == pytest.approx(1.0 / mass_ratio_squared(), rel=1e-12)


def test_lambda_from_alpha_degenerate_configurations():
    with pytest.raises(DegenerateMapError):
        lambda_from_alpha(1.0, GE, Exposure(0.0, 40.0), window_edges_kev=WINDOW)
    no_electrons = TargetMaterial.from_table("Ge", quasi_free_electrons=0.0)
    with pytest.raises(DegenerateMapError):
        lambda_from_alpha(1.0, no_electrons, EXPOSURE_80, window_edges_kev=WINDOW)
    with pytest.raises(DomainError):
        lambda_from_alpha(-1.0, GE, EXPOSURE_80, window_edges_kev=WINDOW)


def test_lambda_from_alpha_refuses_a_window_beyond_the_nonrelativistic_formula():
    # the guard holds on the library path: a fit window reaching the
    # 511 keV electron rest energy maps no amplitude to a collapse rate
    reaching = EnergyGrid.uniform(4.5, 511.0, 100).bin_edges
    for mass_mode in (False, True):
        with pytest.raises(ValidityError, match="non-relativistic"):
            lambda_from_alpha(1.0, GE, EXPOSURE_80, window_edges_kev=reaching,
                              mass_proportional=mass_mode)
    with pytest.raises(DomainError, match="positive"):
        lambda_from_alpha(1.0, GE, EXPOSURE_80, window_edges_kev=np.array([0.0, 10.0]))
    # the keyword is required
    with pytest.raises(TypeError):
        lambda_from_alpha(1.0, GE, EXPOSURE_80)
    assert lambda_from_alpha(1.0, GE, EXPOSURE_80, window_edges_kev=WINDOW) > 0.0


def test_params_validation():
    with pytest.raises(DomainError):
        CslParams(-1e-18)
    with pytest.raises(DomainError):
        CslParams(1e-18, correlation_length_m=0.0)


def test_default_correlation_length_is_standard_choice():
    assert CORRELATION_LENGTH_DEFAULT_M == 1e-7
    assert CslParams(1e-16).correlation_length_m == 1e-7
