"""Spontaneous X-ray emission from a collapse-type localizing field.

A free electron coupled to the field radiates with rate density

    dGamma/dE = e^2 lambda / (4 pi^2 a^2 m^2 E)

per unit photon energy, with lambda the collapse rate and a the field
correlation length. The squared charge follows the Gaussian convention
e^2 = alpha_em hbar c; restoring hbar and c for a rate in 1/(s keV)
with a in metres and m, E in keV gives

    dGamma/dE = alpha_em (hbar c)^2 lambda / (4 pi^2 a^2 m^2 E).

The mass-proportional variant multiplies by (m_e / m_N)^2. Because the
density is exactly C/E, the expected counts in any energy window are
C * ln(hi/lo) * (quasi-free electrons) * (live seconds), linear in
lambda; that linear map is inverted to turn a fitted continuum
amplitude into a collapse-rate bound.

The formula is non-relativistic: photon energies must stay far below
the electron rest energy. A guard rejects energies at or above 100 keV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .constants import (
    ALPHA_EM,
    AVOGADRO_PER_MOL,
    CORRELATION_LENGTH_DEFAULT_M,
    ELECTRON_MASS_KEV,
    HBAR_C_KEV_M,
    Exposure,
    mass_ratio_squared,
)
from .errors import DegenerateMapError, DomainError, ValidityError
from .spectra import EnergyGrid, _one_over_e_unit_integrals

__all__ = [
    "CslParams",
    "TargetMaterial",
    "NONRELATIVISTIC_LIMIT_KEV",
    "csl_rate_density",
    "rate_coefficient",
    "electron_second_exposure",
    "expected_csl_counts",
    "alpha_from_lambda",
    "lambda_from_alpha",
]

# Validity guard: the emission formula drops relativistic corrections,
# so it only applies for photon energies well below the 511 keV
# electron rest energy (analysis windows like 4.5-48.5 keV qualify).
NONRELATIVISTIC_LIMIT_KEV = 100.0


@dataclass(frozen=True)
class CslParams:
    """Collapse rate, correlation length and coupling variant."""

    lambda_per_s: float
    correlation_length_m: float = CORRELATION_LENGTH_DEFAULT_M
    mass_proportional: bool = False

    def __post_init__(self):
        if self.lambda_per_s < 0:
            raise DomainError("collapse rate must be non-negative")
        if self.correlation_length_m <= 0:
            raise DomainError("correlation length must be positive")


@dataclass(frozen=True)
class TargetMaterial:
    """Emitting material: how many electrons radiate per kg."""

    element: str
    quasi_free_electrons_per_atom: float
    atoms_per_kg: float

    def __post_init__(self):
        if self.quasi_free_electrons_per_atom < 0:
            raise DomainError("quasi-free electron count must be non-negative")
        if self.atoms_per_kg <= 0:
            raise DomainError("atoms per kg must be positive")

    @property
    def electrons_per_kg(self) -> float:
        return self.quasi_free_electrons_per_atom * self.atoms_per_kg

    @classmethod
    def from_table(cls, element: str, *,
                   quasi_free_electrons: float | None = None) -> "TargetMaterial":
        """Material from the packaged table; electron count overridable."""
        table = _load_material_table()
        if element not in table:
            known = ", ".join(sorted(table))
            raise DomainError(f"unknown material {element!r} (table has: {known})")
        entry = table[element]
        molar_mass_kg = entry["molar_mass_g_per_mol"] / 1000.0
        qfe = entry["quasi_free_electrons_per_atom"]
        if quasi_free_electrons is not None:
            qfe = quasi_free_electrons
        return cls(
            element=element,
            quasi_free_electrons_per_atom=float(qfe),
            atoms_per_kg=AVOGADRO_PER_MOL / molar_mass_kg,
        )


def _load_material_table() -> dict:
    text = resources.files(__package__).joinpath("materials.json").read_text()
    payload = json.loads(text)
    if payload.get("format") != "speclimit-materials/1":
        raise DomainError("unsupported material table format")
    return payload["materials"]


def rate_coefficient(params: CslParams) -> float:
    """C such that the per-electron rate density is C / E in 1/(s keV)."""
    coeff = (
        ALPHA_EM * HBAR_C_KEV_M ** 2 * params.lambda_per_s
        / (4.0 * math.pi ** 2
           * params.correlation_length_m ** 2
           * ELECTRON_MASS_KEV ** 2)
    )
    if params.mass_proportional:
        coeff *= mass_ratio_squared()
    return coeff


def _check_energy_validity(energy):
    e = np.asarray(energy, dtype=float)
    if np.any(e <= 0):
        raise DomainError("photon energy must be positive")
    if np.any(e >= NONRELATIVISTIC_LIMIT_KEV):
        raise ValidityError(
            "photon energy reaches %g keV; the non-relativistic emission formula "
            "only holds well below the 511 keV electron rest energy, keep windows "
            "such as 4.5-48.5 keV" % float(np.max(e))
        )


def csl_rate_density(energy_kev, params: CslParams):
    """Per-electron emission rate density in 1/(s keV)."""
    _check_energy_validity(energy_kev)
    coeff = rate_coefficient(params)
    out = coeff / np.asarray(energy_kev, dtype=float)
    if np.ndim(energy_kev) == 0:
        return float(out)
    return out


def electron_second_exposure(target: TargetMaterial, exposure: Exposure) -> float:
    """Quasi-free electrons in the target times live seconds."""
    return target.electrons_per_kg * exposure.mass_kg * exposure.live_time_s


def expected_csl_counts(params: CslParams, target: TargetMaterial,
                        exposure: Exposure, grid: EnergyGrid) -> np.ndarray:
    """Expected emitted counts per bin over the exposure.

    Uses the closed-form bin integral C * ln(hi/lo) of the 1/E density,
    the same one the spectral model's 1/E continuum uses.
    """
    if exposure.product_kg_day <= 0:
        raise DomainError("exposure must be positive")
    _check_energy_validity(grid.bin_edges)
    coeff = rate_coefficient(params)
    return (coeff * electron_second_exposure(target, exposure)
            * _one_over_e_unit_integrals(grid))


def alpha_from_lambda(params: CslParams, target: TargetMaterial,
                      exposure: Exposure) -> float:
    """Continuum amplitude alpha with expected count density alpha / E."""
    return rate_coefficient(params) * electron_second_exposure(target, exposure)


def lambda_from_alpha(alpha: float, target: TargetMaterial, exposure: Exposure, *,
                      window_edges_kev: np.ndarray,
                      correlation_length_m: float = CORRELATION_LENGTH_DEFAULT_M,
                      mass_proportional: bool = False) -> float:
    """Collapse rate whose expected continuum amplitude equals alpha.

    Inverse of alpha_from_lambda at fixed target, exposure and
    correlation length; linear, so upper bounds map to upper bounds.
    window_edges_kev are the bin edges of the fit window that alpha
    was fitted on: the map holds only for the non-relativistic
    emission formula, so an edge at or above NONRELATIVISTIC_LIMIT_KEV
    raises ValidityError.
    """
    _check_energy_validity(window_edges_kev)
    if alpha < 0:
        raise DomainError("continuum amplitude must be non-negative")
    unit = CslParams(lambda_per_s=1.0,
                     correlation_length_m=correlation_length_m,
                     mass_proportional=mass_proportional)
    per_lambda = alpha_from_lambda(unit, target, exposure)
    if per_lambda <= 0:
        raise DegenerateMapError(
            "alpha does not constrain lambda: zero exposure or no quasi-free electrons"
        )
    return alpha / per_lambda
