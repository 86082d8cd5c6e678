"""Upgrade-budget arithmetic.

Every factor is exact rational bookkeeping, so most assertions are
equalities, not tolerances.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speclimit import (
    DomainError,
    ImprovementBudget,
    background_reduction,
    budget_report_rows,
    overall_improvement,
    reference_budget,
    total_linear_factor,
)


def test_reference_headline_numbers():
    budget = reference_budget()
    assert total_linear_factor(budget) == Fraction(8)
    assert background_reduction(budget) == (Fraction(200), Fraction(400))
    lo, hi = overall_improvement(budget)
    assert lo == 113.13708498984761  # 8 * sqrt(200)
    assert hi == 160.0


def test_reference_factor_inventory():
    budget = reference_budget()
    linear = dict(budget.linear_factors)
    assert linear["target_length"] == Fraction(1, 3)
    assert linear["current"] == Fraction(2)
    assert linear["acceptance"] == Fraction(12)
    background = dict(budget.background_factors)
    assert background["shielding_veto"] == (Fraction(5), Fraction(10))
    assert background["detector_efficiency"] == (Fraction(1, 2), Fraction(1, 2))


def test_overall_combines_sqrt_of_background():
    budget = ImprovementBudget(
        linear_factors=(("signal", 3),),
        background_factors=(("noise", (4, 9)),),
    )
    assert overall_improvement(budget) == (6.0, 9.0)


def test_factors_must_be_positive():
    with pytest.raises(DomainError):
        ImprovementBudget(linear_factors=(("bad", 0),), background_factors=())
    with pytest.raises(DomainError):
        ImprovementBudget(linear_factors=(("bad", -2),), background_factors=())
    with pytest.raises(DomainError):
        ImprovementBudget(linear_factors=(),
                          background_factors=(("bad", (3, 2)),))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_factors_must_be_finite(value):
    with pytest.raises(DomainError, match="finite"):
        ImprovementBudget(linear_factors=(("bad", value),), background_factors=())
    with pytest.raises(DomainError, match="finite"):
        ImprovementBudget(linear_factors=(), background_factors=(("bad", (1, value)),))


def test_range_needs_exactly_two_entries():
    with pytest.raises(DomainError):
        ImprovementBudget(linear_factors=(),
                          background_factors=(("bad", (1, 2, 3)),))


def test_single_background_value_becomes_degenerate_range():
    budget = ImprovementBudget(linear_factors=(("s", 1),),
                               background_factors=(("b", 16),))
    assert background_reduction(budget) == (Fraction(16), Fraction(16))


def test_empty_sections_are_rejected_at_totals():
    budget = ImprovementBudget(linear_factors=(), background_factors=())
    with pytest.raises(DomainError):
        total_linear_factor(budget)
    with pytest.raises(DomainError):
        background_reduction(budget)


@given(st.permutations(range(4)))
def test_totals_do_not_depend_on_factor_order(order):
    values = [Fraction(2), Fraction(1, 3), Fraction(12), Fraction(7, 2)]
    factors = tuple((f"f{i}", values[i]) for i in order)
    budget = ImprovementBudget(linear_factors=factors, background_factors=(("b", 1),))
    assert total_linear_factor(budget) == Fraction(28)


def test_fraction_strings_and_floats_parse_exactly():
    budget = ImprovementBudget(
        linear_factors=(("a", "1/3"), ("b", 0.5)),
        background_factors=(("c", ("5", 10)),),
    )
    assert total_linear_factor(budget) == Fraction(1, 6)
    assert background_reduction(budget) == (Fraction(5), Fraction(10))


def test_from_mapping_round_trips_the_config_shape():
    budget = ImprovementBudget.from_mapping({
        "linear_factors": [["acceptance", 12], ["current", 2],
                           ["target_length", "1/3"]],
        "background_factors": [["energy_resolution", 4], ["active_area", 20],
                               ["shielding_veto", [5, 10]],
                               ["detector_efficiency", "1/2"]],
    })
    assert total_linear_factor(budget) == Fraction(8)
    assert background_reduction(budget) == (Fraction(200), Fraction(400))


def test_from_mapping_rejects_malformed_entries():
    with pytest.raises(DomainError):
        ImprovementBudget.from_mapping({"linear_factors": [["x", 2]]})
    with pytest.raises(DomainError):
        ImprovementBudget.from_mapping({"linear_factors": [["x", "three"]],
                                        "background_factors": []})
    with pytest.raises(DomainError):
        ImprovementBudget.from_mapping({"linear_factors": 5,
                                        "background_factors": []})


def test_report_rows_match_headline_format():
    rows = budget_report_rows(reference_budget())
    assert rows == [
        "total linear factor: 8",
        "background reduction: 200 - 400",
        "overall improvement: 113.14 - 160.00",
    ]


def test_report_rows_format_fractional_totals():
    budget = ImprovementBudget(
        linear_factors=(("s", "1/2"),),
        background_factors=(("b", 16),),
    )
    rows = budget_report_rows(budget)
    assert rows[0] == "total linear factor: 0.5"
    assert rows[1] == "background reduction: 16 - 16"
    assert rows[2] == "overall improvement: 2.00 - 2.00"
