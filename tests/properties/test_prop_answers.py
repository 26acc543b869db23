"""Property tests for answer-set threshold structure (Figure 1).

The second half diffs the production pooling, slicing and one-pass
threshold counting against the code they replaced
(:mod:`helpers.oracles`).
"""

import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import oracles
from repro.core.answers import Answer, AnswerSet
from repro.core.incremental import SystemProfile
from repro.core.thresholds import ThresholdSchedule
from repro.errors import AnswerSetError

score_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=0,
    max_size=60,
)


def build(scores):
    return AnswerSet.from_pairs((f"item-{i}", s) for i, s in enumerate(scores))


@given(score_lists, st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_threshold_monotonicity(scores, d1, d2):
    """δ1 ≤ δ2 ⇒ A^δ1 ⊆ A^δ2 — the paper's Figure 1 property."""
    low, high = min(d1, d2), max(d1, d2)
    answers = build(scores)
    assert answers.at_threshold(low).is_subset_of(answers.at_threshold(high))
    assert answers.size_at(low) <= answers.size_at(high)


@given(score_lists, st.floats(min_value=0, max_value=1))
def test_size_at_matches_at_threshold(scores, delta):
    answers = build(scores)
    assert answers.size_at(delta) == len(answers.at_threshold(delta))


@given(score_lists, st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=6))
def test_increments_partition_answer_set(scores, raw_deltas):
    deltas = sorted(set(raw_deltas))
    answers = build(scores)
    pieces = []
    previous = None
    for delta in deltas:
        pieces.append(answers.increment(previous, delta))
        previous = delta
    total_items = set()
    for piece in pieces:
        assert not (total_items & set(piece.items()))
        total_items |= set(piece.items())
    assert total_items == set(answers.at_threshold(deltas[-1]).items())


@given(score_lists, st.integers(min_value=0, max_value=70))
def test_top_n_scores_are_the_n_smallest(scores, n):
    answers = build(scores)
    top = answers.top_n(n)
    assert len(top) == min(n, len(answers))
    assert top.scores() == sorted(scores)[: len(top)]


@given(score_lists)
def test_scores_sorted(scores):
    assert build(scores).scores() == sorted(scores)


@given(score_lists)
def test_union_with_self_is_identity(scores):
    answers = build(scores)
    union = answers.union(answers)
    assert union.items() == answers.items()
    assert union.scores() == answers.scores()


# -- replaced answer-set code as oracles (helpers.oracles) ------------------

#: few distinct scores, so most answers tie with others
tied_scores = st.lists(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75]), min_size=0, max_size=25
)


def canonical(answers):
    """Items, scores and order — stronger than the items set alone."""
    return [(answer.item, answer.score) for answer in answers.answers()]


def disjoint_sets(score_lists):
    return [
        AnswerSet.from_pairs((f"s{j}-{i}", s) for i, s in enumerate(scores))
        for j, scores in enumerate(score_lists)
    ]


@given(st.lists(tied_scores, min_size=1, max_size=6))
def test_disjoint_union_matches_fold(score_lists):
    sets = disjoint_sets(score_lists)
    pooled = AnswerSet.disjoint_union(sets)
    folded = oracles.fold_union(sets)
    assert canonical(pooled) == canonical(folded)
    assert pooled.items() == folded.items()
    assert pooled.scores() == folded.scores()


@given(
    st.lists(tied_scores, min_size=2, max_size=5),
    st.data(),
)
def test_disjoint_union_rejects_overlap(score_lists, data):
    sets = disjoint_sets(score_lists)
    donor = data.draw(st.integers(min_value=0, max_value=len(sets) - 1))
    assume(len(sets[donor]) > 0)
    shared = data.draw(st.sampled_from(sorted(sets[donor].items())))
    score = data.draw(st.sampled_from([0.0, 0.5, sets[donor].score_of(shared)]))
    others = [i for i in range(len(sets)) if i != donor]
    receiver = data.draw(st.sampled_from(others))
    sets[receiver] = AnswerSet(
        list(sets[receiver]) + [Answer(shared, score)]
    )
    with pytest.raises(AnswerSetError, match=re.escape(repr(shared))):
        AnswerSet.disjoint_union(sets)


def rebuilt(piece):
    return AnswerSet(list(piece))


@given(
    tied_scores,
    st.floats(min_value=-0.1, max_value=0.9),
    st.floats(min_value=-0.1, max_value=0.9),
    st.integers(min_value=0, max_value=30),
)
def test_slices_equal_rebuilt_sets(scores, d1, d2, n):
    answers = build(scores)
    low, high = min(d1, d2), max(d1, d2)
    for piece in (
        answers.at_threshold(high),
        answers.increment(low, high),
        answers.increment(None, low),
        answers.top_n(n),
    ):
        reference = rebuilt(piece)
        assert canonical(piece) == canonical(reference)
        assert piece.items() == reference.items()
        assert piece.scores() == reference.scores()
        assert all(answer.item in piece for answer in reference)


def threshold_candidates(scores):
    """Thresholds on, between and beyond the scores."""
    distinct = sorted(set(scores))
    between = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    return distinct + between + [-0.5, 0.05, 0.9, 2.0]


@given(tied_scores, st.data())
def test_one_pass_profile_matches_per_threshold_measure(scores, data):
    answers = build(scores)
    truth = {f"missed-{i}" for i in range(data.draw(st.integers(0, 4)))}
    if scores:
        hits = st.lists(st.sampled_from(sorted(answers.items())), unique=True)
        truth |= set(data.draw(hits))
    deltas = data.draw(
        st.lists(
            st.sampled_from(threshold_candidates(scores)),
            min_size=1, max_size=8, unique=True,
        )
    )
    schedule = ThresholdSchedule(sorted(deltas))
    profile = SystemProfile.from_answer_set(schedule, answers, truth)
    assert profile.counts == oracles.profile_by_threshold(schedule, answers, truth)
