"""Forward model for binned X-ray spectra.

Emission components (Gaussian lines, a 1/E continuum, polynomial
background) combine with a detector response into expected counts per
energy bin. Lines are broadened analytically by the response; the 1/E
continuum and the polynomial background use their exact bin integrals,
written so that narrow bins lose no digits to cancellation. Poisson
pseudo-spectra and time-normalized on/off residuals round out the
measurement bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import Exposure, fwhm_to_sigma
from .errors import DomainError, ModelError, ShapeError, config_checked, config_choice
from .errors import config_list, config_number, config_numbers, config_object, config_string

__all__ = [
    "EnergyGrid",
    "BinnedSpectrum",
    "ResidualSpectrum",
    "DetectorResponse",
    "GaussianLine",
    "OneOverEContinuum",
    "PolynomialBackground",
    "SpectralModel",
    "gaussian_line_density",
    "component_bin_counts",
    "predict_counts",
    "simulate_spectrum",
    "subtract_spectra",
    "model_description",
    "model_from_description",
]

SPECTRUM_TAGS = ("current_on", "current_off", "simulated", "measured")
RESOLUTION_MODELS = ("constant", "sqrt")

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class EnergyGrid:
    """Strictly increasing bin edges in keV."""

    bin_edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("energy grid needs a 1-d array of at least two edges")
        if not np.all(np.isfinite(edges)):
            raise DomainError("energy grid edges must be finite")
        if not np.all(np.diff(edges) > 0):
            raise DomainError("energy grid edges must be strictly increasing")
        edges = edges.copy()
        edges.flags.writeable = False
        object.__setattr__(self, "bin_edges", edges)

    @classmethod
    def uniform(cls, lo_kev: float, hi_kev: float, n_bins: int) -> "EnergyGrid":
        if n_bins < 1:
            raise DomainError("uniform grid needs at least one bin")
        return cls(np.linspace(lo_kev, hi_kev, n_bins + 1))

    @property
    def n_bins(self) -> int:
        return self.bin_edges.size - 1

    @property
    def lo_kev(self) -> float:
        return float(self.bin_edges[0])

    @property
    def hi_kev(self) -> float:
        return float(self.bin_edges[-1])

    @property
    def lower_edges(self) -> np.ndarray:
        return self.bin_edges[:-1]

    @property
    def upper_edges(self) -> np.ndarray:
        return self.bin_edges[1:]

    @property
    def widths(self) -> np.ndarray:
        return self.bin_edges[1:] - self.bin_edges[:-1]

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def __eq__(self, other):
        if not isinstance(other, EnergyGrid):
            return NotImplemented
        return np.array_equal(self.bin_edges, other.bin_edges)

    __hash__ = object.__hash__


@dataclass(frozen=True)
class DetectorResponse:
    """Gaussian energy response plus a detection efficiency.

    The line width is pinned at a reference energy; the constant model
    applies it everywhere, the sqrt model scales it as sqrt(E / E_ref).
    Efficiency is either a scalar or a per-bin tuple, both in [0, 1].
    """

    fwhm_kev_at_ref: float
    reference_energy_kev: float = 8.0
    resolution_model: str = "constant"
    efficiency: float | tuple = 1.0

    def __post_init__(self):
        if not self.fwhm_kev_at_ref > 0:
            raise DomainError("reference FWHM must be positive")
        if not self.reference_energy_kev > 0:
            raise DomainError("reference energy must be positive")
        if self.resolution_model not in RESOLUTION_MODELS:
            raise DomainError(f"unknown resolution model {self.resolution_model!r}")
        eff = self.efficiency
        if np.ndim(eff) == 0:
            if not 0.0 <= float(eff) <= 1.0:
                raise DomainError("efficiency must lie in [0, 1]")
        else:
            eff = tuple(float(v) for v in eff)
            if any(not 0.0 <= v <= 1.0 for v in eff):
                raise DomainError("per-bin efficiencies must lie in [0, 1]")
            object.__setattr__(self, "efficiency", eff)

    def fwhm_at(self, energy_kev: float) -> float:
        if energy_kev <= 0:
            raise DomainError("energy must be positive")
        if self.resolution_model == "constant":
            return self.fwhm_kev_at_ref
        return self.fwhm_kev_at_ref * math.sqrt(energy_kev / self.reference_energy_kev)

    def sigma_at(self, energy_kev: float) -> float:
        return fwhm_to_sigma(self.fwhm_at(energy_kev))

    def efficiency_for(self, grid: EnergyGrid) -> np.ndarray:
        if np.ndim(self.efficiency) == 0:
            return np.full(grid.n_bins, float(self.efficiency))
        eff = np.asarray(self.efficiency, dtype=float)
        if eff.size != grid.n_bins:
            raise ShapeError(
                f"per-bin efficiency has {eff.size} entries for {grid.n_bins} bins"
            )
        return eff


@dataclass(frozen=True)
class GaussianLine:
    """Monochromatic emission line; the observed width comes from the
    detector response at the centroid. Amplitude is total counts."""

    centroid_kev: float
    amplitude: float

    def __post_init__(self):
        if not self.centroid_kev > 0:
            raise DomainError("line centroid must be positive")


@dataclass(frozen=True)
class OneOverEContinuum:
    """Continuum with density alpha / E counts per keV."""

    alpha: float


@dataclass(frozen=True)
class PolynomialBackground:
    """Smooth background with density sum_k c_k E^k counts per keV."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise DomainError("polynomial background needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class SpectralModel:
    """Sum of emission components seen through one detector response."""

    components: tuple
    response: DetectorResponse

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True, eq=False)
class BinnedSpectrum:
    """Observed or simulated counts on an energy grid.

    Counts are non-negative integers; acquisition_days is the wall-clock
    measurement time used to normalize on/off subtraction, while the
    exposure carries the mass x live-time bookkeeping.
    """

    grid: EnergyGrid
    counts: np.ndarray
    exposure: Exposure
    tag: str
    acquisition_days: float

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.grid.n_bins,):
            raise ShapeError(
                f"counts array of length {counts.shape} does not match {self.grid.n_bins} bins"
            )
        as_float = counts.astype(float)
        if not np.all(np.isfinite(as_float)):
            raise DomainError("counts must be finite")
        if np.any(as_float < 0):
            raise DomainError("counts must be non-negative")
        if not np.all(as_float == np.floor(as_float)):
            raise DomainError("counts must be integers")
        if self.tag not in SPECTRUM_TAGS:
            raise DomainError(f"unknown spectrum tag {self.tag!r}")
        if self.acquisition_days < 0:
            raise DomainError("acquisition time must be non-negative")
        fixed = counts.astype(np.int64)
        fixed.flags.writeable = False
        object.__setattr__(self, "counts", fixed)

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class ResidualSpectrum:
    """Time-normalized on minus off residual with per-bin Gaussian errors."""

    grid: EnergyGrid
    values: np.ndarray
    sigmas: np.ndarray
    normalization_ratio: float
    on_days: float
    off_days: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if values.shape != (self.grid.n_bins,) or sigmas.shape != (self.grid.n_bins,):
            raise ShapeError("residual arrays must match the grid length")
        if np.any(sigmas < 0):
            raise DomainError("residual uncertainties must be non-negative")
        values = values.copy()
        sigmas = sigmas.copy()
        values.flags.writeable = False
        sigmas.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)


def gaussian_line_density(energy_kev, centroid_kev, fwhm_kev, amplitude):
    """Line density in counts per keV at the given energies.

    Normalized so the full integral equals the amplitude.
    """
    if fwhm_kev <= 0:
        raise DomainError("FWHM must be positive")
    sigma = fwhm_to_sigma(fwhm_kev)
    e = np.asarray(energy_kev, dtype=float)
    z = (e - centroid_kev) / sigma
    out = amplitude * np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if np.ndim(energy_kev) == 0:
        return float(out)
    return out


def _erf(z: np.ndarray) -> np.ndarray:
    """math.erf elementwise. Beyond |z| = 6 it is exactly +-1, as erf
    rounds to in double precision from about 5.92, so only the points
    inside go through the scalar function."""
    z = np.asarray(z, dtype=float)
    out = np.sign(z)
    inside = np.abs(z) < 6.0
    values = z[inside].tolist()
    out[inside] = np.fromiter(map(math.erf, values), dtype=float, count=len(values))
    return out


def _gaussian_bin_fractions(edges: np.ndarray, centroid: float, sigma: float) -> np.ndarray:
    z = (edges - centroid) / (sigma * _SQRT2)
    cdf = 0.5 * (1.0 + _erf(z))
    return np.diff(cdf)


def _line_fractions_and_derivatives(edges: np.ndarray, centroids,
                                    response: DetectorResponse):
    """Bin fractions of unit lines at the given centroids and their first
    two derivatives in the centroid c, each bins x lines, all lines in
    one vectorised pass.

    At an edge e with z = (e - c) / s the cumulative fraction is Phi(z),
    whose derivative in c is -phi(z) (1 + z s') / s: minus the Gaussian
    pdf at the edge, plus a width term when the sqrt resolution model
    makes s depend on c (s' = s / 2c, s'' = -s / 4c^2). A bin's
    derivative is the lower edge's term minus the upper edge's.
    """
    centroids = np.asarray(centroids, dtype=float)[:, None]
    sigma = np.array([[response.sigma_at(c)] for c in centroids[:, 0]])
    z = (edges - centroids) / sigma
    pdf = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if response.resolution_model == "sqrt":
        ds, d2s = sigma / (2.0 * centroids), -sigma / (4.0 * centroids * centroids)
        u = 1.0 + z * ds
        first = pdf * u
        second = pdf * (z * u * u / sigma - 2.0 * ds * u / sigma + z * d2s)
    else:  # s' = s'' = 0
        first, second = pdf, pdf * (z / sigma)
    return (_gaussian_bin_fractions(edges, centroids, sigma).T,
            (first[:, :-1] - first[:, 1:]).T, (second[:, :-1] - second[:, 1:]).T)


def _one_over_e_unit_integrals(grid: EnergyGrid) -> np.ndarray:
    """Bin integrals of 1/E: ln(hi/lo), taken as log1p(width/lo) so a
    bin narrow against its energy keeps its digits."""
    if grid.lo_kev <= 0:
        raise DomainError("1/E continuum undefined on bins reaching E <= 0")
    return np.log1p(grid.widths / grid.lower_edges)


def _power_unit_integrals(grid: EnergyGrid, power: int) -> np.ndarray:
    """Bin integrals of E^power: (hi^(k+1) - lo^(k+1)) / (k+1), factored
    as width * s_k / (k+1) with s_k = sum_j hi^j lo^(k-j) = hi^k + lo s_(k-1):
    for positive edges every term is positive, so a narrow bin loses
    nothing to cancellation."""
    if power == 0:
        # s_0 = 1: the integral is the bin width
        return grid.widths
    lo, hi = grid.lower_edges, grid.upper_edges
    s = 1.0
    for k in range(1, power + 1):
        s = hi**k + lo * s
    return grid.widths * s / (power + 1)


def component_bin_counts(component, grid: EnergyGrid, response: DetectorResponse) -> np.ndarray:
    """Expected counts per bin from one component, before efficiency."""
    if isinstance(component, GaussianLine):
        sigma = response.sigma_at(component.centroid_kev)
        return component.amplitude * _gaussian_bin_fractions(
            grid.bin_edges, component.centroid_kev, sigma
        )
    if isinstance(component, OneOverEContinuum):
        return component.alpha * _one_over_e_unit_integrals(grid)
    if isinstance(component, PolynomialBackground):
        total = np.zeros(grid.n_bins)
        for k, c in enumerate(component.coefficients):
            if c != 0.0 or len(component.coefficients) == 1:
                total = total + c * _power_unit_integrals(grid, k)
        return total
    raise ModelError(f"unknown spectral component {type(component).__name__}")


def predict_counts(model: SpectralModel, grid: EnergyGrid) -> np.ndarray:
    """Expected counts per bin for the full model, efficiency applied."""
    total = np.zeros(grid.n_bins)
    for component in model.components:
        total = total + component_bin_counts(component, grid, model.response)
    return total * model.response.efficiency_for(grid)


def simulate_spectrum(model: SpectralModel, grid: EnergyGrid, seed: int, *,
                      exposure: Exposure | None = None,
                      acquisition_days: float = 1.0,
                      tag: str = "simulated") -> BinnedSpectrum:
    """Poisson pseudo-spectrum of the model; deterministic per seed."""
    counts = _poisson_counts(predict_counts(model, grid), [seed])[0]
    if exposure is None:
        exposure = Exposure(mass_kg=1.0, live_time_days=acquisition_days)
    return BinnedSpectrum(grid=grid, counts=counts, exposure=exposure,
                          tag=tag, acquisition_days=acquisition_days)


def _poisson_counts(mu: np.ndarray, seeds) -> np.ndarray:
    """Poisson draws of the expected counts mu, one row per seed, each
    from its own np.random.default_rng(seed): a pseudo-experiment
    ensemble draws the same spectra as simulate_spectrum would."""
    if np.any(mu < 0) or not np.all(np.isfinite(mu)):
        raise ModelError("expected counts must be finite and non-negative to simulate")
    return np.array([np.random.default_rng(seed).poisson(mu) for seed in seeds])


def subtract_spectra(on: BinnedSpectrum, off: BinnedSpectrum, *,
                     ratio: float | None = None) -> ResidualSpectrum:
    """Residual on - r * off with r the acquisition-time ratio.

    r defaults to on_days / off_days and can be overridden for
    alternative normalizations. Per-bin uncertainty is
    sqrt(on + r^2 * off), treating both spectra as Poisson.
    """
    if on.grid != off.grid:
        raise ShapeError("on and off spectra are binned on different grids")
    if ratio is None:
        if off.acquisition_days <= 0:
            raise DomainError("off spectrum has zero acquisition time")
        if on.acquisition_days <= 0:
            raise DomainError("on spectrum has zero acquisition time")
        ratio = on.acquisition_days / off.acquisition_days
    elif not 0.0 < ratio < math.inf:
        raise DomainError(f"normalization ratio must be finite and positive, got {ratio!r}")
    on_counts = on.counts.astype(float)
    off_counts = off.counts.astype(float)
    values = on_counts - ratio * off_counts
    sigmas = np.sqrt(on_counts + ratio * ratio * off_counts)
    return ResidualSpectrum(
        grid=on.grid,
        values=values,
        sigmas=sigmas,
        normalization_ratio=float(ratio),
        on_days=on.acquisition_days,
        off_days=off.acquisition_days,
    )


def model_description(model: SpectralModel) -> dict:
    """JSON-friendly description, with the keys of the description tables;
    inverse of model_from_description."""
    comps = []
    for comp in model.components:
        kind = next((kind for kind, (kind_type, _) in _COMPONENT_KINDS.items()
                     if isinstance(comp, kind_type)), None)
        if kind is None:
            raise ModelError(f"unknown spectral component {type(comp).__name__}")
        fields = _COMPONENT_KINDS[kind][1]
        comps.append({"kind": kind, **{key: getattr(comp, key) for key in fields}})
    return {"components": comps,
            "response": {key: getattr(model.response, key) for key in _RESPONSE}}


def _efficiency(value, key: str):
    """A response efficiency: one number, or one per bin."""
    return (config_numbers if isinstance(value, (list, tuple)) else config_number)(value, key)


_RESPONSE = {"fwhm_kev_at_ref": (config_number, True), "reference_energy_kev": config_number,
             "resolution_model": config_choice(RESOLUTION_MODELS), "efficiency": _efficiency}
# each component kind's type, and the table of the keys besides 'kind'
# that its description sets, which are the type's fields
_COMPONENT_KINDS = {
    "gaussian_line": (GaussianLine, {"centroid_kev": (config_number, True),
                                     "amplitude": (config_number, True)}),
    "one_over_e_continuum": (OneOverEContinuum, {"alpha": (config_number, True)}),
    "polynomial_background": (PolynomialBackground, {"coefficients": (config_numbers, True)}),
}


def _response_from_description(entry: dict, key: str = "response") -> DetectorResponse:
    """The detector response of a model description or a run config; the
    keys it leaves out take DetectorResponse's defaults."""
    return DetectorResponse(**config_checked(entry, _RESPONSE, key + "."))


def _components(entries, key: str) -> tuple:
    """The components a description lists, each checked against the
    table of its kind."""
    components = []
    for index, entry in enumerate(config_list(entries, key)):
        where = f"{key}[{index}]"
        kind = config_choice(_COMPONENT_KINDS)(config_object(entry, where).get("kind"),
                                               where + ".kind")
        kind_type, table = _COMPONENT_KINDS[kind]
        fields = config_checked(
            entry, {"kind": config_string, **table}, where + ".",
            lambda name: ModelError(f"component {index} ({kind}) lacks {name!r}"))
        del fields["kind"]
        components.append(kind_type(**fields))
    return tuple(components)


_MODEL = {"components": _components, "response": (_response_from_description, True)}


def model_from_description(description: dict) -> SpectralModel:
    """The model a description in model_description's form sets, checked
    against the model's tables; its key paths start at the description."""
    return SpectralModel(**{"components": (), **config_checked(description, _MODEL)})
