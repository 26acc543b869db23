"""Property tests: band-comparison verdicts are sound.

Two improvements of the same original system, each with an arbitrary
feasible adversary.  Whenever the comparison declares one provably
better, the realised truths must agree — over every generated world.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from properties.strategies import (
    increment_lists,
    scenario_to_profiles,
)

from repro.core.comparison import Verdict, compare_bounds, dominates
from repro.core.incremental import compute_incremental_bounds


@st.composite
def paired_scenarios(draw):
    """One original + two independent feasible improvements of it."""
    increments = draw(increment_lists(max_increments=5))
    improvements = []
    for _ in range(2):
        kept_sizes = []
        kept_correct = []
        for answers, correct in increments:
            kept = draw(st.integers(min_value=0, max_value=answers))
            incorrect = answers - correct
            low = max(0, kept - incorrect)
            high = min(correct, kept)
            kept_sizes.append(kept)
            kept_correct.append(draw(st.integers(min_value=low, max_value=high)))
        improvements.append((kept_sizes, kept_correct))
    return increments, improvements


@settings(max_examples=150)
@given(paired_scenarios())
def test_verdicts_never_contradicted(scenario):
    increments, improvements = scenario
    original, first_sizes = scenario_to_profiles(
        increments, improvements[0][0], extra_relevant=5
    )
    _, second_sizes = scenario_to_profiles(
        increments, improvements[1][0], extra_relevant=5
    )
    first = compute_incremental_bounds(original, first_sizes)
    second = compute_incremental_bounds(original, second_sizes)
    comparisons = compare_bounds(first, second)

    first_total = 0
    second_total = 0
    for comparison, first_correct, second_correct in zip(
        comparisons, improvements[0][1], improvements[1][1]
    ):
        first_total += first_correct
        second_total += second_correct
        if comparison.correct_verdict is Verdict.FIRST_BETTER:
            assert first_total >= second_total
        elif comparison.correct_verdict is Verdict.SECOND_BETTER:
            assert second_total >= first_total


@settings(max_examples=100)
@given(paired_scenarios())
def test_dominance_implies_strictly_more_truth(scenario):
    increments, improvements = scenario
    original, first_sizes = scenario_to_profiles(
        increments, improvements[0][0], extra_relevant=5
    )
    _, second_sizes = scenario_to_profiles(
        increments, improvements[1][0], extra_relevant=5
    )
    first = compute_incremental_bounds(original, first_sizes)
    second = compute_incremental_bounds(original, second_sizes)
    if dominates(first, second):
        first_total = 0
        second_total = 0
        for first_correct, second_correct in zip(
            improvements[0][1], improvements[1][1]
        ):
            first_total += first_correct
            second_total += second_correct
            assert first_total > second_total


@settings(max_examples=80)
@given(paired_scenarios())
def test_comparison_antisymmetric(scenario):
    increments, improvements = scenario
    original, first_sizes = scenario_to_profiles(
        increments, improvements[0][0], extra_relevant=5
    )
    _, second_sizes = scenario_to_profiles(
        increments, improvements[1][0], extra_relevant=5
    )
    first = compute_incremental_bounds(original, first_sizes)
    second = compute_incremental_bounds(original, second_sizes)
    forward = compare_bounds(first, second)
    backward = compare_bounds(second, first)
    for f, b in zip(forward, backward):
        if f.correct_verdict is Verdict.UNDECIDED:
            assert b.correct_verdict is Verdict.UNDECIDED
