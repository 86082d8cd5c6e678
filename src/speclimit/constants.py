"""Physical constants, exposures and the FWHM-to-sigma conversion the
toolkit relies on.

Internal units are keV for energy, seconds for time and metres for
length. Values are frozen CODATA 2018 numbers; tests pin arithmetic
on these exact digits, so do not refresh them casually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "Exposure",
    "ELECTRON_MASS_KEV",
    "NUCLEON_MASS_KEV",
    "ALPHA_EM",
    "HBAR_KEV_S",
    "HBAR_C_KEV_M",
    "CORRELATION_LENGTH_DEFAULT_M",
    "LAMBDA_QMSL_REFERENCE_PER_S",
    "LAMBDA_BOUND_SLAB_PER_S",
    "LAMBDA_BOUND_SLAB_CORRECTED_PER_S",
    "LAMBDA_BOUND_80KGDAY_PER_S",
    "LAMBDA_BOUND_80KGDAY_MASSPROP_PER_S",
    "BETA2_OVER_2_BOUND_CCD_SEARCH",
    "SECONDS_PER_DAY",
    "FWHM_PER_SIGMA",
    "ELEMENTARY_CHARGE_C",
    "AVOGADRO_PER_MOL",
    "fwhm_to_sigma",
    "mass_ratio_squared",
    "constants_table",
]

SECONDS_PER_DAY = 86400.0

# FWHM = 2 sqrt(2 ln 2) sigma for a Gaussian response
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

ELEMENTARY_CHARGE_C = 1.602176634e-19  # exact since the 2019 SI redefinition
AVOGADRO_PER_MOL = 6.02214076e23       # exact since the 2019 SI redefinition

# CODATA 2018 values entering the rate formulas. The electromagnetic
# coupling is the dimensionless alpha_em = e^2 / (hbar c), i.e. the
# squared charge in the Gaussian convention measured in units of hbar c;
# formulas that need e^2 restore hbar c so emitted rates come out in
# 1/(s keV).
ELECTRON_MASS_KEV = 510.99895000
NUCLEON_MASS_KEV = 938272.08816         # proton rest energy
ALPHA_EM = 7.2973525693e-3              # e^2 / (hbar c), dimensionless
HBAR_KEV_S = 6.582119569e-19
HBAR_C_KEV_M = 1.973269804e-10
CORRELATION_LENGTH_DEFAULT_M = 1.0e-7
LAMBDA_QMSL_REFERENCE_PER_S = 1.0e-16

# Published collapse-rate and violation-probability bounds, kept as
# comparison references for reports and consistency tests. These are
# literature values, not re-derived by this package.
LAMBDA_BOUND_SLAB_PER_S = 0.55e-16             # germanium-slab emission analysis, original
LAMBDA_BOUND_SLAB_CORRECTED_PER_S = 2.0e-16    # re-analysis of the same slab data
LAMBDA_BOUND_80KGDAY_PER_S = 2.5e-18           # 80 kg day germanium spectrum, no mass scaling
LAMBDA_BOUND_80KGDAY_MASSPROP_PER_S = 8.5e-12  # same spectrum, mass-proportional coupling
BETA2_OVER_2_BOUND_CCD_SEARCH = 4.7e-29        # forbidden-line search bound, CCD era


@dataclass(frozen=True)
class Exposure:
    """Detector mass and live time; product is the usual kg day figure."""

    mass_kg: float
    live_time_days: float

    def __post_init__(self):
        if self.mass_kg < 0 or self.live_time_days < 0:
            raise DomainError("exposure mass and live time must be non-negative")

    @property
    def product_kg_day(self) -> float:
        return self.mass_kg * self.live_time_days

    @property
    def live_time_s(self) -> float:
        return self.live_time_days * SECONDS_PER_DAY


def fwhm_to_sigma(fwhm_kev: float) -> float:
    if fwhm_kev <= 0:
        raise DomainError("FWHM must be positive")
    return fwhm_kev / FWHM_PER_SIGMA


def mass_ratio_squared() -> float:
    """(m_e / m_N)^2, the suppression of mass-proportional emission."""
    return (ELECTRON_MASS_KEV / NUCLEON_MASS_KEV) ** 2


def constants_table() -> str:
    """Key/value dump of every constant with units, one per line."""
    rows = [
        ("electron-mass-kev", ELECTRON_MASS_KEV),
        ("nucleon-mass-kev", NUCLEON_MASS_KEV),
        ("electron-charge-squared-alpha-em", ALPHA_EM),
        ("hbar-kev-s", HBAR_KEV_S),
        ("hbar-c-kev-m", HBAR_C_KEV_M),
        ("correlation-length-default-m", CORRELATION_LENGTH_DEFAULT_M),
        ("lambda-qmsl-reference-per-s", LAMBDA_QMSL_REFERENCE_PER_S),
        ("elementary-charge-c", ELEMENTARY_CHARGE_C),
        ("avogadro-per-mol", AVOGADRO_PER_MOL),
        ("seconds-per-day", SECONDS_PER_DAY),
        ("fwhm-per-sigma", FWHM_PER_SIGMA),
        ("nucleon-to-electron-mass-ratio", NUCLEON_MASS_KEV / ELECTRON_MASS_KEV),
        ("mass-ratio-squared", mass_ratio_squared()),
    ]
    return "\n".join(f"{name}: {value!r}" for name, value in rows) + "\n"
