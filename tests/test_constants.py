"""Constants, the FWHM conversion and exposure bookkeeping.

Frozen values below were computed independently from the CODATA
literals with a separate script; they guard against accidental edits
to the constant set as much as against formula regressions.
"""

import math

import pytest

from speclimit import (
    ELECTRON_MASS_KEV,
    Exposure,
    FWHM_PER_SIGMA,
    LAMBDA_BOUND_80KGDAY_MASSPROP_PER_S,
    LAMBDA_BOUND_80KGDAY_PER_S,
    LAMBDA_BOUND_SLAB_CORRECTED_PER_S,
    LAMBDA_BOUND_SLAB_PER_S,
    BETA2_OVER_2_BOUND_CCD_SEARCH,
    DomainError,
    NUCLEON_MASS_KEV,
    constants_table,
    fwhm_to_sigma,
    mass_ratio_squared,
)

# (nucleon mass / electron mass)^2 from the CODATA literals
MASS_RATIO_SQ = 3371456.6401267243


def test_fwhm_sigma_factor_matches_analytic_form():
    assert FWHM_PER_SIGMA == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)), rel=1e-15)


def test_fwhm_sigma_conversions_invert():
    assert fwhm_to_sigma(2.3548200450309493) == pytest.approx(1.0, rel=1e-14)
    assert fwhm_to_sigma(0.17) * FWHM_PER_SIGMA == pytest.approx(0.17, rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_width_conversions_reject_non_positive(bad):
    with pytest.raises(DomainError):
        fwhm_to_sigma(bad)


def test_electron_nucleon_mass_ratio_value():
    ratio = NUCLEON_MASS_KEV / ELECTRON_MASS_KEV
    assert 1836.0 < ratio < 1836.3
    assert mass_ratio_squared() == pytest.approx(1.0 / MASS_RATIO_SQ, rel=1e-12)


def test_exposure_product_and_seconds():
    exposure = Exposure(mass_kg=2.0, live_time_days=40.0)
    assert exposure.product_kg_day == pytest.approx(80.0, rel=1e-15)
    assert exposure.live_time_s == pytest.approx(40.0 * 86400.0, rel=1e-15)
    with pytest.raises(DomainError):
        Exposure(mass_kg=-2.0, live_time_days=40.0)
    with pytest.raises(DomainError):
        Exposure(mass_kg=2.0, live_time_days=-1.0)


def test_reference_bounds_are_ordered_sensibly():
    # the slab bound weakened after the numerical correction
    assert LAMBDA_BOUND_SLAB_PER_S < LAMBDA_BOUND_SLAB_CORRECTED_PER_S
    # the underground exposure bound is far stronger than the slab one
    assert LAMBDA_BOUND_80KGDAY_PER_S < LAMBDA_BOUND_SLAB_PER_S
    # mass-proportional coupling weakens the same data's bound
    assert LAMBDA_BOUND_80KGDAY_MASSPROP_PER_S > LAMBDA_BOUND_80KGDAY_PER_S
    assert 0.0 < BETA2_OVER_2_BOUND_CCD_SEARCH < 1.0


def test_stored_bound_pair_consistent_with_mass_ratio():
    stored = LAMBDA_BOUND_80KGDAY_MASSPROP_PER_S / LAMBDA_BOUND_80KGDAY_PER_S
    assert stored == pytest.approx(MASS_RATIO_SQ, rel=0.02)


def test_constants_table_lists_every_quantity():
    table = constants_table()
    lines = [line for line in table.splitlines() if line]
    names = {line.split(":", 1)[0] for line in lines}
    assert {"electron-mass-kev", "nucleon-mass-kev", "hbar-c-kev-m",
            "correlation-length-default-m", "mass-ratio-squared"} <= names
    # values round trip through eval-free float parsing
    for line in lines:
        float(line.split(":", 1)[1])
