"""Forbidden-transition line search bookkeeping.

Fresh electrons injected into a conductor can, with probability
beta^2/2, bind into a symmetric state whose radiative cascade ends in
an X-ray slightly below the normal transition energy (about 300 eV
below the 8.0 keV copper line). The expected forbidden-line yield is

    counts = (beta^2/2) * N_new * opportunities * capture_cascade
             * acceptance * efficiency

with N_new = current * duration / e the number of injected electrons,
opportunities the mean number of atomic encounters per electron while
it drifts through the target, capture_cascade the probability that an
encounter captures the electron and cascades through the forbidden
transition, and the last two factors the usual detection chain. An
excess-count limit in the forbidden window of an on/off residual
divides by the unit yield to bound beta^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ELEMENTARY_CHARGE_C
from .errors import DegenerateMapError, DomainError
from .limits import GaussianResidualProblem, LimitResult, bayesian_upper_limit
from .spectra import DetectorResponse, ResidualSpectrum, _gaussian_bin_fractions

__all__ = [
    "PepTransition",
    "PepRunConfig",
    "pep_expected_counts",
    "forbidden_window",
    "pep_upper_limit",
]


@dataclass(frozen=True)
class PepTransition:
    """Normal transition energy and the downward shift of its
    forbidden counterpart, both in keV."""

    normal_energy_kev: float = 8.0
    shift_kev: float = 0.30

    def __post_init__(self):
        if self.normal_energy_kev <= 0:
            raise DomainError("transition energy must be positive")
        if not 0 < self.shift_kev < self.normal_energy_kev:
            raise DomainError("energy shift must be positive and below the transition energy")

    @property
    def forbidden_energy_kev(self) -> float:
        return self.normal_energy_kev - self.shift_kev


@dataclass(frozen=True)
class PepRunConfig:
    """Current-on run parameters and the yield-chain factors.

    capture_opportunities defaults to one encounter per electron; real
    targets are configured with the documented estimate of how many
    atoms an injected electron meets before settling.
    """

    current_a: float
    duration_s: float
    geometric_acceptance: float
    detection_efficiency: float
    capture_cascade_factor: float = 0.1  # conventional 1-in-10 cascade assumption
    capture_opportunities: float = 1.0

    def __post_init__(self):
        if self.current_a < 0 or self.duration_s < 0:
            raise DomainError("current and duration must be non-negative")
        for name in ("geometric_acceptance", "detection_efficiency", "capture_cascade_factor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} is a probability and must lie in [0, 1]")
        if self.capture_opportunities <= 0:
            raise DomainError("capture opportunities must be positive")

    @property
    def new_electron_count(self) -> float:
        return self.current_a * self.duration_s / ELEMENTARY_CHARGE_C


def pep_expected_counts(config: PepRunConfig, beta2_over_2: float) -> float:
    """Expected forbidden-line counts for the run at a given beta^2/2."""
    if not 0.0 <= beta2_over_2 <= 1.0:
        raise DomainError("beta^2/2 must lie in [0, 1]")
    return (
        beta2_over_2
        * config.new_electron_count
        * config.capture_opportunities
        * config.capture_cascade_factor
        * config.geometric_acceptance
        * config.detection_efficiency
    )


def forbidden_window(transition: PepTransition, response: DetectorResponse,
                     fwhm_multiple: float = 1.5) -> tuple[float, float]:
    """Energy window centroid +- fwhm_multiple * FWHM around the forbidden line."""
    if fwhm_multiple <= 0:
        raise DomainError("window half-width must be a positive FWHM multiple")
    center = transition.forbidden_energy_kev
    half = fwhm_multiple * response.fwhm_at(center)
    return center - half, center + half


def pep_upper_limit(residual: ResidualSpectrum, transition: PepTransition,
                    response: DetectorResponse, config: PepRunConfig,
                    cl: float, *, window_fwhm_multiple: float = 1.5) -> LimitResult:
    """Upper bound on beta^2/2 from the on/off residual.

    A Gaussian line at the forbidden energy is fit to the residual
    inside the window; the resulting excess-count bound divides by the
    unit yield of the run configuration. Residual bins with vanishing
    uncertainty get a one-count variance floor, matching the empty-bin
    convention of the chi-square statistic.
    """
    lo, hi = forbidden_window(transition, response, window_fwhm_multiple)
    grid = residual.grid
    if lo < grid.lo_kev or hi > grid.hi_kev:
        raise DomainError(
            f"forbidden window [{lo:.3f}, {hi:.3f}] keV extends beyond the "
            f"residual grid [{grid.lo_kev:.3f}, {grid.hi_kev:.3f}] keV"
        )
    window = residual.restrict(lo, hi)

    center = transition.forbidden_energy_kev
    sigma = response.sigma_at(center)
    shape = _gaussian_bin_fractions(window.grid.bin_edges, center, sigma)
    eff = response.efficiency_for(grid)
    mask = (grid.upper_edges > lo) & (grid.lower_edges < hi)
    shape = shape * eff[mask]

    sigmas = np.maximum(window.sigmas, 1.0)
    problem = GaussianResidualProblem(
        values=window.values,
        sigmas=sigmas,
        signal_shape=shape,
        name="forbidden_line_counts",
    )
    counts_limit = bayesian_upper_limit(problem, cl)

    unit_yield = pep_expected_counts(config, 1.0)
    if unit_yield <= 0:
        raise DegenerateMapError(
            "run configuration yields no expected counts; beta^2/2 is unconstrained"
        )

    scan = counts_limit.scan.copy()
    scan[:, 0] /= unit_yield
    metadata = dict(counts_limit.metadata)
    metadata.update({
        "counts_upper_bound": counts_limit.upper_bound,
        "unit_yield_counts": unit_yield,
        "window_kev": (lo, hi),
        "window_bins": int(window.grid.n_bins),
        "best_signal": counts_limit.metadata["best_signal"] / unit_yield,
    })
    return LimitResult(
        parameter="beta2_over_2",
        confidence_level=cl,
        upper_bound=counts_limit.upper_bound / unit_yield,
        scan=scan,
        method=counts_limit.method,
        metadata=metadata,
    )
