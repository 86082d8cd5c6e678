"""Command line driver.

Subcommands cover the full workflow: simulate spectra, subtract
current-on from current-off data, fit spectral models, extract
Bayesian upper limits (forbidden-line and continuum analyses),
evaluate upgrade sensitivity budgets, and print the physical
constants in use.

Every run is driven by a JSON config whose resolved form (after the
simulate --seed and limit --cl overrides) is hashed into the report, so
identical configs produce byte-identical output files. The config is
checked against the table of its kind before any file is read, so a key
no table knows is refused; a setting it leaves out takes the default of
the library type it configures.

Each subcommand imports the modules it runs, and no others: importing
numpy costs most of a short run's time, and `constants` or `--help`
do not need it. numpy is the only numeric dependency.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, DegenerateMapError, FitError, ScanRangeError
from .errors import SpectrumFormatError, ToolkitError, config_checked, config_choice, config_int
from .errors import config_efficiency, config_fraction, config_keywords, config_list
from .errors import config_number, config_numbers, config_object, config_positive
from .errors import config_section, config_string

if TYPE_CHECKING:
    from .spectra import EnergyGrid

__all__ = ["main"]

_FLAT_PRIOR_NOTE = "flat in the signal amplitude, zero below zero"


def _grid(entry, key: str) -> EnergyGrid:
    from .spectra import EnergyGrid

    grid = config_checked(entry, _GRID, key + ".")
    if list(grid) == ["edges"]:
        return EnergyGrid(grid["edges"])
    if sorted(grid) != ["hi_kev", "lo_kev", "n_bins"]:
        raise ConfigError(f"grid takes 'edges' or lo_kev/hi_kev/n_bins, got {sorted(grid)}")
    return EnergyGrid.uniform(**grid)


# spectra's description readers and the choices numpy modules define, as
# table entries imported when a config is checked, so that only the
# commands that need numpy load it
def _statistic(value, key: str) -> str:
    from .limits import STATISTICS

    return config_choice(STATISTICS)(value, key)


def _tag(value, key: str) -> str:
    from .spectra import SPECTRUM_TAGS

    return config_choice(SPECTRUM_TAGS)(value, key)


def _model(value, key: str):
    from .spectra import model_from_description

    return model_from_description(config_object(value, key))


def _response(value, key: str):
    from .spectra import _response_from_description

    return _response_from_description(value, key)


def _parse_ref(entry, key: str) -> tuple:
    """Config form of a parameter reference under key: [component, attr]
    or [component, "coefficients", index]."""
    if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
        raise ConfigError(
            f"parameter reference must be [component, attr] or "
            f"[component, 'coefficients', index], got {entry!r}"
        )
    return (config_int(entry[0], key), config_string(entry[1], key),
            *(config_int(index, key) for index in entry[2:]))


def _free(entries, key: str) -> tuple:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"fit config {key!r} must list at least one parameter, got {entries!r}")
    return tuple(_parse_ref(entry, key) for entry in entries)


# One table per config kind (a limit's analysis picks its kind) and per
# nested section. A default the library owns stays out of them, so a
# handler passes only the keys a config sets. In fit and limit configs
# 'seed' selects nothing: it stays known while benchmark configs set it.
_GRID = {"edges": config_numbers, "lo_kev": config_number, "hi_kev": config_number,
         "n_bins": config_int}
_EXPOSURE = {"mass_kg": (config_positive, True), "live_time_days": (config_positive, True)}
# every run factor multiplies the unit yield, so none may be 0
_RUN = {"current_a": (config_positive, True), "duration_s": (config_positive, True),
        "geometric_acceptance": (config_efficiency, True),
        "detection_efficiency": (config_efficiency, True),
        "capture_cascade_factor": config_efficiency, "capture_opportunities": config_positive}
_TRANSITION = {"normal_energy_kev": config_number, "shift_kev": config_number}
_TARGET = {"element": config_string, "quasi_free_electrons": config_positive}
_BACKGROUND = {"coefficients": config_numbers}
_LIMIT = {"kind": config_string, "analysis": config_choice(("csl", "pep")), "seed": config_int,
          "confidence_level": config_fraction}
_TABLES = {
    "simulate": {"kind": config_string, "seed": config_int, "tag": _tag,
                 "grid": (_grid, True), "model": (_model, True),
                 "exposure": config_section(_EXPOSURE), "acquisition_days": config_positive},
    "fit": {"kind": config_string, "seed": config_int, "spectrum": (config_string, True),
            "model": (_model, True), "free": (_free, True), "signal": _parse_ref,
            "statistic": _statistic},
    "csl": {**_LIMIT, "spectrum": (config_string, True), "statistic": _statistic,
            "background": config_section(_BACKGROUND), "response": _response,
            "target": config_section(_TARGET), "correlation_length_m": config_positive,
            "detection_efficiency": config_efficiency, "grid_rtol": config_fraction},
    "pep": {**_LIMIT, "on": (config_string, True), "off": (config_string, True),
            "ratio": config_positive, "transition": config_section(_TRANSITION),
            "response": (_response, True), "run": (config_section(_RUN), True),
            "window_fwhm_multiple": config_positive},
    "project": {"kind": config_string, "linear_factors": (config_list, True),
                "background_factors": (config_list, True)},
}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cli_config(args, kind: str) -> tuple[dict, str, Path]:
    """The config args name, checked against the table of its kind; the
    hash of its resolved form, after the --seed and --cl overrides; and
    its directory, which relative paths in it start from."""
    from .fileio import canonical_config_hash, load_config

    path = Path(args.config)
    config = load_config(path)
    if config.get("kind") != kind:
        raise ConfigError(
            f"{path}: config kind {config.get('kind')!r} does not match command {kind!r}"
        )
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "cl", None) is not None:
        config["confidence_level"] = args.cl
    if kind == "limit":
        kind = _LIMIT["analysis"](config.get("analysis"), "analysis")
    checked = config_checked(config, _TABLES[kind])
    if kind == "simulate":  # the hash records the seed a simulation draws from
        config["seed"] = checked.setdefault("seed", 0)
    return checked, canonical_config_hash(config), path.parent


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    from .constants import Exposure
    from .fileio import write_report, write_spectrum
    from .spectra import simulate_spectrum

    config, config_hash, _ = _load_cli_config(args, "simulate")
    grid, seed = config["grid"], config["seed"]
    exposure = Exposure(**config.get("exposure", {"mass_kg": 1.0, "live_time_days": 1.0}))
    acquisition_days = config.get("acquisition_days", exposure.live_time_days)
    spectrum = simulate_spectrum(config["model"], grid, seed, exposure=exposure,
                                 acquisition_days=acquisition_days,
                                 **config_keywords(config, "tag"))
    out = _out_dir(args)
    spectrum_path = write_spectrum(out / "spectrum.txt", spectrum,
                                   extra_header={"config-hash": config_hash})
    write_report(out / "report.txt", [
        ("command", "simulate"),
        ("config-hash", config_hash),
        ("seed", seed),
        ("tag", spectrum.tag),
        ("bins", grid.n_bins),
        ("energy-lo-kev", grid.lo_kev),
        ("energy-hi-kev", grid.hi_kev),
        ("mass-kg", exposure.mass_kg),
        ("live-time-days", exposure.live_time_days),
        ("acquisition-days", acquisition_days),
        ("total-counts", int(spectrum.total_counts)),
        ("spectrum-file", spectrum_path.name),
    ])
    print(f"wrote {spectrum_path}")
    print(f"total counts: {int(spectrum.total_counts)}")
    return 0


def _cmd_subtract(args) -> int:
    from .fileio import canonical_config_hash, load_spectrum, write_report, write_residual
    from .spectra import subtract_spectra

    on = load_spectrum(Path(args.on))
    off = load_spectrum(Path(args.off))
    ratio = None if args.ratio is None else float(args.ratio)
    residual = subtract_spectra(on, off, ratio=ratio)
    config_hash = canonical_config_hash(
        {"kind": "subtract", "on": args.on, "off": args.off, "ratio": ratio}
    )
    out = _out_dir(args)
    residual_path = write_residual(out / "residual.txt", residual,
                                   extra_header={"config-hash": config_hash})
    write_report(out / "report.txt", [
        ("command", "subtract"),
        ("config-hash", config_hash),
        ("on-file", args.on),
        ("off-file", args.off),
        ("normalization-ratio", residual.normalization_ratio),
        ("bins", residual.grid.n_bins),
        ("residual-file", residual_path.name),
    ])
    print(f"wrote {residual_path}")
    return 0


def _cmd_fit(args) -> int:
    from .fileio import format_number, load_spectrum, write_report
    from .limits import FitProblem, fit_minimize, parameter_uncertainties
    from .spectra import model_description

    config, config_hash, base = _load_cli_config(args, "fit")
    free = config["free"]
    # without a signal key, the first free parameter that enters linearly
    signal = config["signal"] if "signal" in config else next(
        (ref for ref in free if ref[1] != "centroid_kev"), free[0])
    spectrum = load_spectrum(base / config["spectrum"])
    problem = FitProblem.from_spectrum(spectrum, config["model"], free=free, signal=signal,
                                       **config_keywords(config, "statistic"))
    statistic = problem.statistic
    result = fit_minimize(problem)
    rows = [
        ("command", "fit"),
        ("config-hash", config_hash),
        ("statistic", statistic),
        ("statistic-value", result.statistic),
        ("bins", spectrum.grid.n_bins),
        ("free-parameters", len(free)),
        ("evaluations", result.n_evaluations),
    ]
    for name, value in result.by_name(problem).items():
        rows.append((f"fit.{name}", value))
    try:
        uncertainties = parameter_uncertainties(problem, result.values)
    except FitError:
        rows.append(("uncertainties", "unavailable (degenerate curvature)"))
    else:
        for ref, value in zip(problem.free, uncertainties):
            rows.append((f"uncertainty.{problem.parameter_name(ref)}", value))
    out = _out_dir(args)
    write_report(out / "report.txt", rows)

    fitted = problem.with_values(result.values)
    (out / "fitted_model.json").write_text(
        json.dumps(model_description(fitted), sort_keys=True, indent=2) + "\n"
    )
    print(f"{statistic} = {format_number(result.statistic)} "
          f"over {spectrum.grid.n_bins} bins")
    return 0


def _one_efficiency(detection_efficiency: float, response) -> None:
    """Refuse a detection_efficiency and a response efficiency that both
    differ from 1: the fit already folds the response efficiency into the
    signal shape, so applying both would compound them."""
    folded = response.efficiency if isinstance(response.efficiency, tuple) else (
        response.efficiency,)
    if detection_efficiency != 1.0 and any(float(v) != 1.0 for v in folded):
        raise ConfigError("detection_efficiency and response efficiency both differ from 1; "
                          "the fit already applies the response efficiency, so set only one")


def _limit_csl(args, config: dict, config_hash: str, base: Path) -> int:
    from .constants import CORRELATION_LENGTH_DEFAULT_M
    from .csl import TargetMaterial, lambda_from_alpha
    from .fileio import format_number, load_spectrum, write_report, write_table
    from .limits import FitProblem, bayesian_upper_limit
    from .spectra import DetectorResponse, OneOverEContinuum, PolynomialBackground, SpectralModel

    cl = config.get("confidence_level", 0.95)
    # a count spectrum's statistic, unless the config asks for chi2
    statistic = config.get("statistic", "poisson_nll")
    coefficients = tuple(config.get("background", {}).get("coefficients", [0.0]))
    response = config["response"] if "response" in config else DetectorResponse(0.3)
    target = TargetMaterial.from_table(**{"element": "Ge", **config.get("target", {})})
    correlation_length_m = config.get("correlation_length_m", CORRELATION_LENGTH_DEFAULT_M)
    efficiency = config.get("detection_efficiency", 1.0)
    _one_efficiency(efficiency, response)

    spectrum = load_spectrum(base / config["spectrum"])
    model = SpectralModel(
        components=(OneOverEContinuum(alpha=1.0), PolynomialBackground(coefficients)),
        response=response,
    )
    free = ((0, "alpha"),) + tuple(
        (1, "coefficients", k) for k in range(len(coefficients))
    )
    problem = FitProblem.from_spectrum(spectrum, model, free=free,
                                       signal=(0, "alpha"), statistic=statistic)
    # grid_rtol is the Poisson scan's tolerance; the closed-form chi-square bound ignores it
    limit = bayesian_upper_limit(problem, cl, **config_keywords(config, "grid_rtol"))

    # the fitted amplitudes count only detected photons; undo the
    # detection efficiency before mapping back to a collapse rate
    alpha_bound = limit.upper_bound / efficiency
    # the collapse-rate map holds only in the non-relativistic window
    lam = lambda_from_alpha(alpha_bound, target, spectrum.exposure,
                            window_edges_kev=spectrum.grid.bin_edges,
                            correlation_length_m=correlation_length_m,
                            mass_proportional=False)
    lam_mass = lambda_from_alpha(alpha_bound, target, spectrum.exposure,
                                 window_edges_kev=spectrum.grid.bin_edges,
                                 correlation_length_m=correlation_length_m,
                                 mass_proportional=True)
    out = _out_dir(args)
    write_report(out / "report.txt", [
        ("command", "limit"),
        ("analysis", "csl"),
        ("config-hash", config_hash),
        ("confidence-level", cl),
        ("statistic", statistic),
        ("method", limit.method),
        ("prior", _FLAT_PRIOR_NOTE),
        ("target-element", target.element),
        ("quasi-free-electrons-per-atom", target.quasi_free_electrons_per_atom),
        ("exposure-kg-day", spectrum.exposure.product_kg_day),
        ("correlation-length-m", correlation_length_m),
        ("detection-efficiency", efficiency),
        ("continuum-amplitude-upper-bound", alpha_bound),
        ("best-fit-amplitude", limit.metadata["best_signal"] / efficiency),
        ("statistic-min", limit.metadata["statistic_min"]),
        ("lambda-upper-bound-per-s", lam),
        ("lambda-mass-proportional-upper-bound-per-s", lam_mass),
        ("mass-mode-ratio", lam_mass / lam),
        ("scan-points", limit.metadata["scan_points"]),
    ])
    # emitted amplitudes, like the report's rows
    write_table(out / "scan.dat", ("amplitude", "profiled_statistic"),
                (limit.scan[:, 0] / efficiency, limit.scan[:, 1]),
                header_lines=(f"config-hash: {config_hash}",))
    print(f"lambda upper bound at {format_number(cl)} CL: {format_number(lam)} 1/s")
    print(f"mass-proportional: {format_number(lam_mass)} 1/s")
    return 0


def _limit_pep(args, config: dict, config_hash: str, base: Path) -> int:
    from .fileio import format_number, load_spectrum, write_report, write_residual, write_table
    from .pep import PepRunConfig, PepTransition, pep_upper_limit
    from .spectra import subtract_spectra

    transition = PepTransition(**config.get("transition", {}))
    response = config["response"]
    _one_efficiency(config["run"]["detection_efficiency"], response)
    run = PepRunConfig(**config["run"])
    cl = config.get("confidence_level", 0.95)
    on = load_spectrum(base / config["on"])
    off = load_spectrum(base / config["off"])
    residual = subtract_spectra(on, off, **config_keywords(config, "ratio"))
    limit = pep_upper_limit(residual, transition, response, run, cl,
                            **config_keywords(config, "window_fwhm_multiple"))
    window_lo, window_hi = limit.metadata["window_kev"]
    out = _out_dir(args)
    write_residual(out / "residual.txt", residual,
                   extra_header={"config-hash": config_hash})
    write_report(out / "report.txt", [
        ("command", "limit"),
        ("analysis", "pep"),
        ("config-hash", config_hash),
        ("confidence-level", cl),
        ("method", limit.method),
        ("prior", _FLAT_PRIOR_NOTE),
        ("forbidden-energy-kev", transition.forbidden_energy_kev),
        ("window-lo-kev", window_lo),
        ("window-hi-kev", window_hi),
        ("window-bins", limit.metadata["window_bins"]),
        ("normalization-ratio", residual.normalization_ratio),
        ("new-electrons", run.new_electron_count),
        ("unit-yield-counts", limit.metadata["unit_yield_counts"]),
        ("excess-counts-upper-bound", limit.metadata["counts_upper_bound"]),
        ("beta2-over-2-upper-bound", limit.upper_bound),
        ("best-fit-beta2-over-2", limit.metadata["best_signal"]),
        ("scan-points", limit.metadata["scan_points"]),
    ])
    write_table(out / "scan.dat", ("beta2_over_2", "profiled_statistic"),
                (limit.scan[:, 0], limit.scan[:, 1]),
                header_lines=(f"config-hash: {config_hash}",))
    print(f"beta^2/2 upper bound at {format_number(cl)} CL: "
          f"{format_number(limit.upper_bound)}")
    return 0


def _cmd_limit(args) -> int:
    config, config_hash, base = _load_cli_config(args, "limit")
    handler = _limit_csl if config["analysis"] == "csl" else _limit_pep
    return handler(args, config, config_hash, base)


def _cmd_project(args) -> int:
    from .fileio import canonical_config_hash, write_report
    from .projection import ImprovementBudget, budget_report_rows, reference_budget

    if args.config is not None:
        config, config_hash, _ = _load_cli_config(args, "project")
        budget = ImprovementBudget.from_mapping(config)
    else:
        budget = reference_budget()
        config_hash = canonical_config_hash({"kind": "project", "budget": "reference"})

    rows = [("command", "project"), ("config-hash", config_hash)]
    for name, value in budget.linear_factors:
        rows.append((f"linear.{name}", str(value)))
    for name, (lo, hi) in budget.background_factors:
        rows.append((f"background.{name}", str(lo) if lo == hi else f"{lo} - {hi}"))
    headline = budget_report_rows(budget)
    rows.extend(tuple(line.split(": ", 1)) for line in headline)

    for line in headline:
        print(line)
    if args.out is not None:
        out = _out_dir(args)
        write_report(out / "report.txt", rows)
        print(f"wrote {out / 'report.txt'}")
    return 0


def _cmd_constants(args) -> int:
    from .constants import constants_table

    table = constants_table()
    print(table, end="")
    if args.out is not None:
        out = _out_dir(args)
        (out / "report.txt").write_text(table)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclimit",
        description="Forward modelling and upper-limit extraction for "
                    "low-background X-ray spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a Poisson spectrum from a model")
    p.add_argument("--config", required=True, help="JSON config with kind 'simulate'")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("subtract", help="subtract a current-off spectrum from a "
                                        "current-on spectrum")
    p.add_argument("--on", required=True, help="current-on spectrum file")
    p.add_argument("--off", required=True, help="current-off spectrum file")
    p.add_argument("--ratio", type=float, default=None,
                   help="normalization ratio; defaults to the acquisition-time ratio")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_subtract)

    p = sub.add_parser("fit", help="fit a spectral model to a spectrum file")
    p.add_argument("--config", required=True, help="JSON config with kind 'fit'")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("limit", help="Bayesian upper limit (csl or pep analysis)")
    p.add_argument("--config", required=True, help="JSON config with kind 'limit'")
    p.add_argument("--cl", type=float, default=None,
                   help="override the config confidence level")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("project", help="evaluate an upgrade sensitivity budget")
    p.add_argument("--config", default=None,
                   help="JSON config with kind 'project'; omit for the "
                        "built-in reference budget")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("constants", help="print the physical constants in use")
    p.add_argument("--out", default=None, help="optional output directory")
    p.set_defaults(func=_cmd_constants)

    return parser


def _stage_for(err: BaseException) -> str:
    if isinstance(err, ConfigError):
        return "config"
    if isinstance(err, (SpectrumFormatError, OSError)):
        return "io"
    if isinstance(err, FitError):
        return "fit"
    if isinstance(err, (ScanRangeError, DegenerateMapError)):
        return "limit"
    return "build"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as err:
        print(f"speclimit: error [{_stage_for(err)}]: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
