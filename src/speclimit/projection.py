"""Sensitivity improvement budgets for detector upgrades.

Upgrade factors are kept as exact rationals so products are order
independent and survive config-file round trips. Factors that scale
the expected signal multiply linearly; factors that reduce background
enter through the counting-statistics rule

    overall gain = linear factor * sqrt(background reduction)

Background entries may be ranges (for example a shielding gain quoted
as 5 to 10), which propagate through as exact interval products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "ImprovementBudget",
    "total_linear_factor",
    "background_reduction",
    "overall_improvement",
    "reference_budget",
    "budget_report_rows",
]

FactorRange = tuple[Fraction, Fraction]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        result = value
    elif isinstance(value, str):
        try:
            result = Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise DomainError(f"cannot parse factor {value!r}: {err}") from err
    elif isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"improvement factors must be finite, got {value!r}")
        result = Fraction(value)  # exact binary value of the float
    else:
        raise DomainError(f"unsupported factor type {type(value).__name__}")
    if result <= 0:
        raise DomainError(f"improvement factors must be positive, got {value!r}")
    return result


def _as_range(value) -> FactorRange:
    if isinstance(value, (list, tuple)) and not isinstance(value, str):
        if len(value) != 2:
            raise DomainError(f"factor range needs exactly two entries, got {value!r}")
        lo, hi = _as_fraction(value[0]), _as_fraction(value[1])
        if hi < lo:
            raise DomainError(f"factor range {value!r} has upper bound below lower bound")
        return lo, hi
    single = _as_fraction(value)
    return single, single


@dataclass(frozen=True)
class ImprovementBudget:
    """Named linear and background factors for one upgrade."""

    linear_factors: tuple
    background_factors: tuple

    def __post_init__(self):
        linear = tuple((str(name), _as_fraction(value))
                       for name, value in self.linear_factors)
        background = tuple((str(name), _as_range(value))
                           for name, value in self.background_factors)
        object.__setattr__(self, "linear_factors", linear)
        object.__setattr__(self, "background_factors", background)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ImprovementBudget":
        try:
            linear = [(entry[0], entry[1]) for entry in mapping["linear_factors"]]
            background = [(entry[0], entry[1]) for entry in mapping["background_factors"]]
        except (KeyError, IndexError, TypeError) as err:
            raise DomainError(f"malformed improvement budget: {err}") from err
        return cls(linear_factors=tuple(linear), background_factors=tuple(background))


def total_linear_factor(budget: ImprovementBudget) -> Fraction:
    """Exact product of the linear signal factors."""
    if not budget.linear_factors:
        raise DomainError("budget has no linear factors")
    product = Fraction(1)
    for _, value in budget.linear_factors:
        product *= value
    return product


def background_reduction(budget: ImprovementBudget) -> FactorRange:
    """Exact interval product of the background factors."""
    if not budget.background_factors:
        raise DomainError("budget has no background factors")
    lo = Fraction(1)
    hi = Fraction(1)
    for _, (value_lo, value_hi) in budget.background_factors:
        lo *= value_lo
        hi *= value_hi
    return lo, hi


def overall_improvement(budget: ImprovementBudget) -> tuple[float, float]:
    """Interval of the overall gain, linear * sqrt(background)."""
    linear = total_linear_factor(budget)
    bg_lo, bg_hi = background_reduction(budget)
    return (float(linear) * math.sqrt(bg_lo), float(linear) * math.sqrt(bg_hi))


def reference_budget() -> ImprovementBudget:
    """Shipped upgrade budget of the planned forbidden-line run.

    Linear: target acceptance x12, current x2 (quoted as better than
    two), target length 1/3. Background: energy resolution x4, active
    area x20, shielding plus veto 5 to 10, detector efficiency 1/2.
    """
    return ImprovementBudget(
        linear_factors=(
            ("acceptance", 12),
            ("current", 2),
            ("target_length", Fraction(1, 3)),
        ),
        background_factors=(
            ("energy_resolution", 4),
            ("active_area", 20),
            ("shielding_veto", (5, 10)),
            ("detector_efficiency", Fraction(1, 2)),
        ),
    )


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    as_float = float(value)
    return f"{as_float:g}"


def budget_report_rows(budget: ImprovementBudget) -> list[str]:
    """The three headline report rows for a budget."""
    linear = total_linear_factor(budget)
    bg_lo, bg_hi = background_reduction(budget)
    overall_lo, overall_hi = overall_improvement(budget)
    return [
        f"total linear factor: {_format_fraction(linear)}",
        f"background reduction: {_format_fraction(bg_lo)} - {_format_fraction(bg_hi)}",
        f"overall improvement: {overall_lo:.2f} - {overall_hi:.2f}",
    ]
