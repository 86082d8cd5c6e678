"""On-disk formats: spectra, residuals, reports, run configurations.

Spectrum files are plain text with a versioned header of `# key: value`
lines followed by one `bin_lo bin_hi counts` row per bin. Residual
files share the layout with `residual sigma` columns; they are a data
product, written and never read back. Floats are written with repr so
files and reports round trip bit for bit; every report carries the
sha256 hash of the resolved configuration that produced it.

Reports, tables and configs need no numpy: the spectrum types are
imported by the loader that builds them, so a run that only writes a
report (`speclimit project`) stays free of the numeric stack.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path
from typing import TYPE_CHECKING

from .constants import Exposure
from .errors import ConfigError, SpectrumFormatError

if TYPE_CHECKING:
    from .spectra import BinnedSpectrum, ResidualSpectrum

__all__ = [
    "write_spectrum",
    "load_spectrum",
    "write_residual",
    "load_config",
    "canonical_config_hash",
    "format_number",
    "write_report",
    "write_table",
]

SPECTRUM_FORMAT = "speclimit-spectrum/1"
RESIDUAL_FORMAT = "speclimit-residual/1"

_REQUIRED_SPECTRUM_KEYS = (
    "format", "units-energy", "units-counts", "tag",
    "mass-kg", "live-time-days", "acquisition-days",
)

# relative slack when checking that adjacent bins share an edge
_EDGE_MATCH_RTOL = 1e-9


def format_number(value) -> str:
    """Shortest exact decimal form; integers stay integers."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def write_spectrum(path, spectrum: BinnedSpectrum, *, extra_header: dict | None = None) -> Path:
    exposure, grid = spectrum.exposure, spectrum.grid
    header = [f"format: {SPECTRUM_FORMAT}", "units-energy: keV", "units-counts: counts",
              f"tag: {spectrum.tag}", f"mass-kg: {format_number(exposure.mass_kg)}",
              f"live-time-days: {format_number(exposure.live_time_days)}",
              f"acquisition-days: {format_number(spectrum.acquisition_days)}"]
    header += [f"{key}: {value}" for key, value in (extra_header or {}).items()]
    return write_table(path, ("bin_lo_kev", "bin_hi_kev", "counts"),
                       (grid.lower_edges, grid.upper_edges, spectrum.counts), header_lines=header)


def load_spectrum(path) -> BinnedSpectrum:
    from .spectra import SPECTRUM_TAGS, BinnedSpectrum, EnergyGrid

    path = Path(path)
    if not path.exists():
        raise SpectrumFormatError(f"{path}: no such file")
    header = {}
    rows = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
            continue
        rows.append((lineno, line))
    for key in _REQUIRED_SPECTRUM_KEYS:
        if key not in header:
            raise SpectrumFormatError(f"{path}: missing required header '{key}'")
    if header["format"] != SPECTRUM_FORMAT:
        raise SpectrumFormatError(
            f"{path}: unsupported format {header['format']!r}, expected {SPECTRUM_FORMAT!r}"
        )
    if header["units-energy"] != "keV":
        raise SpectrumFormatError(
            f"{path}: unsupported energy unit {header['units-energy']!r}, expected keV"
        )
    if header["units-counts"] != "counts":
        raise SpectrumFormatError(
            f"{path}: unsupported counts unit {header['units-counts']!r}"
        )
    if header["tag"] not in SPECTRUM_TAGS:
        raise SpectrumFormatError(f"{path}: unknown tag {header['tag']!r}")
    if not rows:
        raise SpectrumFormatError(f"{path}: no data rows")

    lower, upper, counts = [], [], []
    for row_index, (lineno, line) in enumerate(rows, start=1):
        tokens = line.split()
        if len(tokens) != 3:
            raise SpectrumFormatError(f"{path}:{lineno}: expected 3 columns, got {len(tokens)}")
        try:
            lo = float(tokens[0])
            hi = float(tokens[1])
        except ValueError as err:
            raise SpectrumFormatError(f"{path}:{lineno}: bad bin edge: {err}") from err
        if hi <= lo:
            raise SpectrumFormatError(
                f"{path}:{lineno}: row {row_index} has upper edge {hi} <= lower edge {lo}"
            )
        if lower:
            prev_hi = upper[-1]
            slack = _EDGE_MATCH_RTOL * max(1.0, abs(prev_hi))
            if lo < prev_hi - slack:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: row {row_index} overlaps the previous bin "
                    f"(starts at {lo}, previous ends at {prev_hi})"
                )
            if lo > prev_hi + slack:
                raise SpectrumFormatError(
                    f"{path}:{lineno}: row {row_index} leaves a gap after the previous bin "
                    f"(starts at {lo}, previous ends at {prev_hi})"
                )
        lower.append(lo)
        upper.append(hi)
        try:
            value = int(tokens[2])
        except ValueError as err:
            raise SpectrumFormatError(
                f"{path}:{lineno}: row {row_index} counts must be a plain integer, "
                f"got {tokens[2]!r}"
            ) from err
        if value < 0:
            raise SpectrumFormatError(
                f"{path}:{lineno}: row {row_index} has negative counts {value}"
            )
        counts.append(value)

    try:
        exposure = Exposure(mass_kg=float(header["mass-kg"]),
                            live_time_days=float(header["live-time-days"]))
        acquisition_days = float(header["acquisition-days"])
        return BinnedSpectrum(grid=EnergyGrid(lower + [upper[-1]]), counts=counts,
                              exposure=exposure, tag=header["tag"],
                              acquisition_days=acquisition_days)
    except ValueError as err:
        raise SpectrumFormatError(f"{path}: {err}") from err


def write_residual(path, residual: ResidualSpectrum, *, extra_header: dict | None = None) -> Path:
    grid = residual.grid
    header = [f"format: {RESIDUAL_FORMAT}", "units-energy: keV", "units-values: counts",
              f"normalization-ratio: {format_number(residual.normalization_ratio)}",
              f"on-days: {format_number(residual.on_days)}",
              f"off-days: {format_number(residual.off_days)}"]
    header += [f"{key}: {value}" for key, value in (extra_header or {}).items()]
    return write_table(path, ("bin_lo_kev", "bin_hi_kev", "residual", "sigma"),
                       (grid.lower_edges, grid.upper_edges, residual.values, residual.sigmas),
                       header_lines=header)


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config


def canonical_config_hash(config: dict) -> str:
    """sha256 over the canonical JSON form of the resolved config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_report(path, rows) -> Path:
    """Key/value report; rows is an iterable of (key, value) pairs."""
    path = Path(path)
    lines = []
    for key, value in rows:
        if isinstance(value, str):
            lines.append(f"{key}: {value}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key}: " + " ".join(format_number(v) for v in value))
        else:
            lines.append(f"{key}: {format_number(value)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_table(path, column_names, columns, *, header_lines=()) -> Path:
    """Whitespace-delimited numeric table for plotting."""
    path = Path(path)
    columns = list(columns)
    if any(len(col) != len(columns[0]) for col in columns):
        raise ValueError("all table columns must have equal length")
    lines = [f"# {line}" for line in header_lines]
    lines.append("# columns: " + " ".join(column_names))
    for row in zip(*columns):
        lines.append(" ".join(format_number(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path
