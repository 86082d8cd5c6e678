"""Forward modelling and Bayesian upper limits for low-background
underground X-ray spectra.

The package models a forbidden transition line slightly below the
normal copper complex, a 1/E spontaneous-emission continuum, Gaussian
detector response and polynomial backgrounds; fits them to binned
spectra; extracts posterior upper bounds on the violation probability
beta^2/2 and on collapse-rate parameters in both coupling variants;
and evaluates upgrade sensitivity budgets with exact rational
arithmetic.

The namespace is lazy: `import speclimit` loads no submodule, and each
public name imports its home module on first use, so a run pays only
for the modules it touches. numpy is the only numeric dependency.
"""

import importlib
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "constants": (
        "ALPHA_EM", "AVOGADRO_PER_MOL", "BETA2_OVER_2_BOUND_CCD_SEARCH",
        "CORRELATION_LENGTH_DEFAULT_M", "ELECTRON_MASS_KEV", "ELEMENTARY_CHARGE_C",
        "FWHM_PER_SIGMA", "HBAR_C_KEV_M", "HBAR_KEV_S", "LAMBDA_BOUND_80KGDAY_MASSPROP_PER_S",
        "LAMBDA_BOUND_80KGDAY_PER_S", "LAMBDA_BOUND_SLAB_CORRECTED_PER_S",
        "LAMBDA_BOUND_SLAB_PER_S", "LAMBDA_QMSL_REFERENCE_PER_S", "NUCLEON_MASS_KEV",
        "SECONDS_PER_DAY", "Exposure", "constants_table", "fwhm_to_sigma", "mass_ratio_squared",
    ),
    "csl": (
        "NONRELATIVISTIC_LIMIT_KEV", "CslParams", "TargetMaterial", "alpha_from_lambda",
        "csl_rate_density", "electron_second_exposure", "expected_csl_counts",
        "lambda_from_alpha", "rate_coefficient",
    ),
    "errors": (
        "ConfigError", "DegenerateMapError", "DomainError", "FitError", "ModelError",
        "ScanRangeError", "ShapeError", "SpectrumFormatError", "ToolkitError",
        "ValidityError",
    ),
    "fileio": (
        "canonical_config_hash", "format_number", "load_config", "load_residual",
        "load_spectrum", "load_spectrum_with_header", "write_report", "write_residual",
        "write_spectrum", "write_table",
    ),
    "limits": (
        "EnsembleResult", "FitProblem", "FitResult", "GaussianResidualProblem",
        "LimitResult", "bayesian_upper_limit", "fit_minimize", "parameter_uncertainties",
        "run_pseudo_experiments",
    ),
    "pep": (
        "PepRunConfig", "PepTransition", "forbidden_window", "pep_expected_counts",
        "pep_upper_limit",
    ),
    "projection": (
        "ImprovementBudget", "background_reduction", "budget_report_rows",
        "overall_improvement", "reference_budget", "total_linear_factor",
    ),
    "spectra": (
        "BinnedSpectrum", "DetectorResponse", "EnergyGrid", "GaussianLine",
        "OneOverEContinuum", "PolynomialBackground", "ResidualSpectrum",
        "SpectralModel", "component_bin_counts", "gaussian_line_density",
        "model_description", "model_from_description", "predict_counts",
        "simulate_spectrum", "subtract_spectra",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # resolved on every access and never stored in this module, so a
    # function replaced in its home module is what the package returns;
    # a home module already imported is read from sys.modules directly
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(home) or importlib.import_module(home), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
