"""Property tests for top-N bounds and |H|-free relative bounds.

Both are derived views over the incremental bounds; their soundness must
survive arbitrary ranked answer sets, arbitrary subsets, and arbitrary
ground truths.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from properties.strategies import (
    improvement_scenarios,
    scenario_to_profiles,
)

from repro.core.answers import AnswerSet
from repro.core.incremental import compute_incremental_bounds
from repro.core.relative import relative_bounds
from repro.core.topn import cutoffs_to_schedule, topn_bounds


@st.composite
def ranked_worlds(draw):
    """A ranked run, a subset of it, a ground truth, and cutoffs."""
    n = draw(st.integers(min_value=1, max_value=60))
    scores = sorted(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    items = [f"i{i:03d}" for i in range(n)]
    original = AnswerSet.from_pairs(zip(items, scores))
    keep_mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    improved = AnswerSet.from_pairs(
        (item, score)
        for (item, score), keep in zip(zip(items, scores), keep_mask)
        if keep
    )
    truth_mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    truth = frozenset(
        item for item, is_true in zip(items, truth_mask) if is_true
    )
    cutoffs = draw(
        st.lists(
            st.integers(min_value=1, max_value=n + 10),
            min_size=1,
            max_size=5,
        )
    )
    return original, improved, truth, cutoffs


@settings(max_examples=120)
@given(ranked_worlds())
def test_topn_bounds_bracket_truth_at_every_cutoff(world):
    original, improved, truth, cutoffs = world
    bounds = topn_bounds(original, improved, truth, cutoffs)
    for entry in bounds:
        actual = sum(
            1 for a in improved.at_threshold(entry.delta) if a.item in truth
        )
        assert entry.worst.correct <= actual <= entry.best.correct


@settings(max_examples=100)
@given(ranked_worlds())
def test_topn_schedule_sizes_cover_cutoffs(world):
    original, _improved, _truth, cutoffs = world
    schedule = cutoffs_to_schedule(original, cutoffs)
    for cutoff, delta in zip(sorted(set(cutoffs)), schedule):
        # ties may pull in extra answers but never fewer than the cutoff
        assert original.size_at(delta) >= min(cutoff, len(original))


@settings(max_examples=150)
@given(improvement_scenarios())
def test_relative_bounds_bracket_relative_truth(scenario):
    increments, kept_sizes, kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    bounds = compute_incremental_bounds(original, improved)
    entries = relative_bounds(bounds)
    actual_total = 0
    original_total = 0
    for entry, correct, (_a, t1) in zip(entries, kept_correct, increments):
        actual_total += correct
        original_total += t1
        if original_total == 0:
            assert entry.worst_relative_recall is None
            continue
        actual_relative = Fraction(actual_total, original_total)
        assert entry.worst_relative_recall <= actual_relative
        assert actual_relative <= entry.best_relative_recall


@settings(max_examples=100)
@given(improvement_scenarios())
def test_max_recall_loss_is_honest(scenario):
    increments, kept_sizes, kept_correct, extra_relevant = scenario
    original, improved = scenario_to_profiles(
        increments, kept_sizes, extra_relevant
    )
    entries = relative_bounds(compute_incremental_bounds(original, improved))
    actual_total = 0
    original_total = 0
    for entry, correct, (_a, t1) in zip(entries, kept_correct, increments):
        actual_total += correct
        original_total += t1
        if entry.max_recall_loss is None:
            continue
        true_loss = 1 - Fraction(actual_total, original_total)
        assert true_loss <= entry.max_recall_loss
