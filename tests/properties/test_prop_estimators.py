"""Property tests: estimator guarantees hold over every feasible world."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from properties.strategies import (
    improvement_scenarios,
    scenario_to_profiles,
)

from repro.core.estimators import estimate_curve
from repro.core.confidence import random_curve_deviation
from repro.core.incremental import compute_incremental_bounds


STRATEGIES = ("midpoint", "random", "pessimistic", "optimistic")


@settings(max_examples=120)
@given(improvement_scenarios(), st.sampled_from(STRATEGIES))
def test_estimate_error_guarantee_holds_for_any_adversary(scenario, strategy):
    increments, kept_sizes, kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    estimates = estimate_curve(bounds, strategy)
    actual_total = 0
    for estimate, correct in zip(estimates, kept_correct):
        actual_total += correct
        assert abs(Fraction(actual_total) - estimate.correct) <= estimate.max_error


@settings(max_examples=100)
@given(improvement_scenarios())
def test_midpoint_is_minimax(scenario):
    """No strategy has a smaller guaranteed error than the midpoint."""
    increments, kept_sizes, _kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    midpoint = estimate_curve(bounds, "midpoint")
    for strategy in ("random", "pessimistic", "optimistic"):
        other = estimate_curve(bounds, strategy)
        for m, o in zip(midpoint, other):
            assert m.max_error <= o.max_error


@settings(max_examples=100)
@given(improvement_scenarios())
def test_chebyshev_interval_contains_expectation(scenario):
    increments, kept_sizes, _kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    for deviation in random_curve_deviation(bounds, k=2.0):
        assert deviation.lower <= float(deviation.expected) <= deviation.upper
        assert deviation.variance >= 0
