"""Property tests for the bound mathematics (the paper's core claims).

The decisive property is **soundness**: for every feasible behaviour of a
non-exhaustive improvement — any subset sizes, any adversarial placement
of the missed answers — the measured true-positive counts lie within the
incremental best/worst bounds at every threshold.  Hypothesis explores
that whole space.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from properties.strategies import (
    improvement_scenarios,
    scenario_to_profiles,
)

from repro.core.bounds import (
    best_case_correct,
    best_case_precision,
    best_case_recall,
    bound_counts,
    worst_case_correct,
    worst_case_precision,
    worst_case_recall,
)
from repro.core.incremental import (
    compute_incremental_bounds,
    compute_naive_bounds,
)
from repro.core.measures import Counts
from repro.core.random_baseline import expected_correct


counts_triples = st.tuples(
    st.integers(min_value=0, max_value=500),  # answers
    st.integers(min_value=0, max_value=500),  # correct (clamped below)
    st.integers(min_value=0, max_value=500),  # improved answers (clamped)
)


@given(counts_triples)
def test_count_bounds_ordered(triple):
    answers, correct_raw, improved_raw = triple
    correct = min(correct_raw, answers)
    improved = min(improved_raw, answers)
    worst = worst_case_correct(answers, correct, improved)
    best = best_case_correct(correct, improved)
    assert 0 <= worst <= best <= improved
    assert best <= correct


@given(counts_triples)
def test_ratio_formulas_agree_with_count_formulas(triple):
    answers, correct_raw, improved_raw = triple
    answers = max(1, answers)
    correct = min(correct_raw, answers)
    improved = min(improved_raw, answers)
    relevant = correct + 7
    original = Counts(answers, correct, relevant)
    bounds = bound_counts(original, improved)
    ratio = Fraction(improved, answers)
    p1 = original.precision
    r1 = original.recall
    if improved > 0:
        assert bounds.best.precision == best_case_precision(p1, ratio)
        assert bounds.worst.precision == worst_case_precision(p1, ratio)
    assert bounds.best.recall == best_case_recall(r1, p1, ratio)
    assert bounds.worst.recall == worst_case_recall(r1, p1, ratio)


@given(counts_triples)
def test_random_expectation_between_bounds(triple):
    answers, correct_raw, improved_raw = triple
    correct = min(correct_raw, answers)
    improved = min(improved_raw, answers)
    expected = expected_correct(answers, correct, improved)
    assert worst_case_correct(answers, correct, improved) <= expected
    assert expected <= best_case_correct(correct, improved)


@settings(max_examples=200)
@given(improvement_scenarios())
def test_soundness_actual_always_inside_incremental_bounds(scenario):
    """The headline theorem: no feasible world escapes the band."""
    increments, kept_sizes, kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    actual_total = 0
    for entry, correct in zip(bounds, kept_correct):
        actual_total += correct
        assert entry.worst.correct <= actual_total <= entry.best.correct


@settings(max_examples=150)
@given(improvement_scenarios())
def test_incremental_never_looser_than_naive(scenario):
    increments, kept_sizes, _kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    incremental = compute_incremental_bounds(original, improved)
    naive = compute_naive_bounds(original, improved)
    for i_entry, n_entry in zip(incremental, naive):
        assert i_entry.worst.correct >= n_entry.worst.correct
        assert i_entry.best.correct <= n_entry.best.correct


@settings(max_examples=150)
@given(improvement_scenarios())
def test_random_curve_inside_incremental_bounds(scenario):
    increments, kept_sizes, _kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    for entry in bounds:
        assert entry.worst.correct <= entry.random_correct
        assert entry.random_correct <= entry.best.correct


@settings(max_examples=100)
@given(improvement_scenarios())
def test_full_retention_collapses_bounds(scenario):
    """Â = 1 at every increment => best = worst = original (paper 3.3)."""
    increments, _kept, _correct, extra_relevant = scenario
    full_sizes = [a for a, _t in increments]
    original, improved = scenario_to_profiles(
        increments, full_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    for entry, counts in zip(bounds, original.counts):
        assert entry.best.correct == counts.correct
        assert entry.worst.correct == counts.correct


@settings(max_examples=100)
@given(improvement_scenarios())
def test_bounds_monotone_along_thresholds(scenario):
    """Cumulative bound counts never decrease with the threshold."""
    increments, kept_sizes, _correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    previous_best = previous_worst = 0
    for entry in bounds:
        assert entry.best.correct >= previous_best
        assert entry.worst.correct >= previous_worst
        previous_best = entry.best.correct
        previous_worst = entry.worst.correct
