"""Exception taxonomy shared by all modules, the checked conversion of
config values, and the one checker that applies a config table."""

import math
import numbers

__all__ = [
    "ToolkitError",
    "DomainError",
    "ValidityError",
    "ShapeError",
    "ModelError",
    "FitError",
    "DegenerateMapError",
    "ScanRangeError",
    "SpectrumFormatError",
    "ConfigError",
]


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ToolkitError, ValueError):
    """Input outside the physical or mathematical domain of an operation."""


class ValidityError(DomainError):
    """Input inside the mathematical domain but outside the validity
    range of the approximation being evaluated."""


class ShapeError(ToolkitError, ValueError):
    """Mismatched grids or array lengths."""


class ModelError(ToolkitError, ValueError):
    """A spectral model cannot be evaluated as requested."""


class FitError(ToolkitError, RuntimeError):
    """Minimization failed or produced a degenerate solution."""


class DegenerateMapError(ToolkitError, ValueError):
    """A parameter map has no inverse for the given configuration."""


class ScanRangeError(ToolkitError, RuntimeError):
    """A posterior scan could not be normalized on any attempted range."""


class SpectrumFormatError(ToolkitError, ValueError):
    """A spectrum file violates the on-disk format."""


class ConfigError(ToolkitError, ValueError):
    """A run configuration file is malformed or inconsistent."""


def config_number(value, key: str, kind=float):
    """A config value as a finite float (or int), or a ConfigError naming
    its key. A JSON boolean or string is no number, an int setting takes
    no fractional number, and json reads NaN and Infinity, which no
    setting takes."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(number := kind(value)) and (kind is float or number == value):
                return number
        except (ValueError, OverflowError):
            pass
    wanted = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"config value {key!r} must be {wanted}, got {value!r}")


def config_fraction(value, key: str) -> float:
    """A config value as a float strictly between 0 and 1 (a confidence
    level, a relative tolerance), or a ConfigError naming its key."""
    if not 0.0 < (number := config_number(value, key)) < 1.0:
        raise ConfigError(f"config value {key!r} must lie strictly between 0 and 1, "
                          f"got {value!r}")
    return number


def config_positive(value, key: str) -> float:
    """A config value as a float above 0 (a current, a duration), or a
    ConfigError naming its key."""
    if not (number := config_number(value, key)) > 0.0:
        raise ConfigError(f"config value {key!r} must be positive, got {value!r}")
    return number


def config_efficiency(value, key: str) -> float:
    """A config value as a float in (0, 1] (an acceptance, an efficiency),
    or a ConfigError naming its key: a factor of 0 leaves no expected
    counts to bound."""
    if not 0.0 < (number := config_number(value, key)) <= 1.0:
        raise ConfigError(f"config value {key!r} must lie in (0, 1], got {value!r}")
    return number


def config_keywords(section: dict, *keys) -> dict:
    """The keyword arguments among keys that a checked config section
    sets. Keys the section leaves out are not passed, so the callee's
    default applies."""
    return {key: section[key] for key in keys if key in section}


def config_int(value, key: str) -> int:
    """A config value as an int, or a ConfigError naming its key."""
    return config_number(value, key, int)


def config_numbers(values, key: str) -> list:
    """A config list of numbers as floats, or a ConfigError naming its key."""
    return [config_number(value, key) for value in config_list(values, key)]


def config_list(values, key: str):
    """A config value that must be a JSON list, or a ConfigError naming its key."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"config value {key!r} must be a list, got {values!r}")
    return values


def config_string(value, key: str) -> str:
    """A config value that must be a JSON string, or a ConfigError naming its key."""
    if not isinstance(value, str):
        raise ConfigError(f"config value {key!r} must be a string, got {value!r}")
    return value


def config_object(value, key: str) -> dict:
    """A config value that must be a JSON object, or a ConfigError naming its key."""
    if not isinstance(value, dict):
        raise ConfigError(f"config value {key!r} must be an object, got {value!r}")
    return value


def _did_you_mean(word: str, known, prefix: str = "") -> str:
    """The hint naming the known word closest to word, or ''."""
    from difflib import get_close_matches  # only a refused config pays the import

    near = get_close_matches(word, known, n=1)
    return f", did you mean {prefix + near[0]!r}?" if near else ""


def config_choice(choices):
    """The converter of a setting that takes one of the strings choices;
    any other value is a ConfigError naming its key and the nearest choice."""
    def convert(value, key: str) -> str:
        if config_string(value, key) not in choices:
            raise ConfigError(f"config value {key!r} must be one of "
                              f"{', '.join(map(repr, choices))}, got {value!r}"
                              f"{_did_you_mean(value, choices)}")
        return value
    return convert


def config_checked(section, table: dict, prefix: str = "", lacks=None) -> dict:
    """A config object checked against its table, as a new dict of the
    keys it sets, each converted by convert(value, prefix + key).

    The table maps every key the object may set to its converter, or to
    (converter, True) where the object must set it. A key the table does
    not know fails, naming the closest known key; a required key left out
    raises lacks(key), a ConfigError naming its path by default."""
    section = config_object(section, prefix[:-1] or "config")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown config key {prefix + key!r}"
                              f"{_did_you_mean(key, table, prefix)}")
    entries = {key: entry if isinstance(entry, tuple) else (entry, False)
               for key, entry in table.items()}
    for key, (_, required) in entries.items():
        if required and key not in section:
            raise lacks(key) if lacks else ConfigError(f"config requires {prefix + key!r}")
    return {key: entries[key][0](value, prefix + key) for key, value in section.items()}


def config_section(table: dict):
    """The converter of a nested config object, checked against its table
    with its own key as the path of its keys."""
    return lambda value, key: config_checked(value, table, key + ".")
