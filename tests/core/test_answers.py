"""Unit tests for answer sets (paper section 2.1 semantics)."""

import pytest

from repro.core.answers import Answer, AnswerSet
from repro.errors import AnswerSetError, NotASubsetError


def make(pairs):
    return AnswerSet.from_pairs(pairs)


class TestConstruction:
    def test_sorted_by_score(self):
        answers = make([("b", 0.3), ("a", 0.1), ("c", 0.2)])
        assert [a.item for a in answers] == ["a", "c", "b"]

    def test_duplicate_items_rejected(self):
        with pytest.raises(AnswerSetError, match="duplicate"):
            make([("a", 0.1), ("a", 0.2)])

    def test_nan_score_rejected(self):
        with pytest.raises(AnswerSetError, match="NaN"):
            Answer("a", float("nan"))

    def test_empty(self):
        assert len(AnswerSet.empty()) == 0

    def test_ties_allowed(self):
        answers = make([("a", 0.5), ("b", 0.5)])
        assert len(answers) == 2

    def test_contains(self):
        answers = make([("a", 0.1)])
        assert "a" in answers
        assert "b" not in answers

    def test_score_of(self):
        assert make([("a", 0.25)]).score_of("a") == 0.25

    def test_score_of_missing(self):
        with pytest.raises(AnswerSetError):
            make([("a", 0.25)]).score_of("b")


class TestThresholding:
    @pytest.fixture()
    def answers(self):
        return make([(f"a{i}", i / 10) for i in range(10)])  # scores 0.0..0.9

    def test_size_at(self, answers):
        assert answers.size_at(0.45) == 5
        assert answers.size_at(-0.1) == 0
        assert answers.size_at(2.0) == 10

    def test_size_at_inclusive(self, answers):
        # A^delta includes scores == delta (paper: Delta(a) <= delta)
        assert answers.size_at(0.4) == 5

    def test_at_threshold_monotone(self, answers):
        # delta1 <= delta2 => A^d1 subset of A^d2 (Figure 1)
        low = answers.at_threshold(0.3)
        high = answers.at_threshold(0.7)
        assert low.is_subset_of(high)

    def test_increment_partition(self, answers):
        first = answers.increment(None, 0.4)
        second = answers.increment(0.4, 0.9)
        assert len(first) + len(second) == len(answers)
        assert not (first.items() & second.items())

    def test_increment_bounds_exclusive_inclusive(self, answers):
        increment = answers.increment(0.2, 0.5)
        scores = increment.scores()
        assert min(scores) > 0.2
        assert max(scores) <= 0.5

    def test_increment_reversed_rejected(self, answers):
        with pytest.raises(AnswerSetError, match="reversed"):
            answers.increment(0.5, 0.2)
        # no score lies between these bounds: still reversed
        with pytest.raises(AnswerSetError, match="reversed"):
            answers.increment(0.35, 0.32)

    def test_top_n(self, answers):
        top = answers.top_n(3)
        assert top.scores() == [0.0, 0.1, 0.2]

    def test_top_n_negative(self, answers):
        with pytest.raises(AnswerSetError):
            answers.top_n(-1)

    def test_min_max_score(self, answers):
        assert answers.min_score() == 0.0
        assert answers.max_score() == pytest.approx(0.9)

    def test_min_score_empty(self):
        with pytest.raises(AnswerSetError):
            AnswerSet.empty().min_score()


class TestSetRelations:
    def test_subset_check_passes(self):
        big = make([("a", 1.0), ("b", 2.0)])
        small = make([("a", 1.0)])
        small.check_subset_of(big)

    def test_subset_check_fails_with_message(self):
        big = make([("a", 1.0)])
        rogue = make([("z", 1.0)])
        with pytest.raises(NotASubsetError, match="objective function"):
            rogue.check_subset_of(big)

    def test_score_mismatch_detected(self):
        one = make([("a", 1.0)])
        other = make([("a", 2.0)])
        with pytest.raises(NotASubsetError, match="objective functions differ"):
            one.check_scores_match(other)

    def test_score_match_ignores_disjoint_items(self):
        one = make([("a", 1.0)])
        other = make([("b", 2.0)])
        one.check_scores_match(other)  # nothing shared, nothing to conflict

    def test_restrict_to(self):
        answers = make([("a", 0.1), ("b", 0.2), ("c", 0.3)])
        restricted = answers.restrict_to({"a", "c"})
        assert restricted.items() == frozenset({"a", "c"})
        assert restricted.score_of("c") == 0.3

    def test_union_disjoint(self):
        left = make([("a", 0.1)])
        right = make([("b", 0.2)])
        union = left.union(right)
        assert len(union) == 2

    def test_union_overlap_same_scores(self):
        left = make([("a", 0.1), ("b", 0.2)])
        right = make([("b", 0.2), ("c", 0.3)])
        assert len(left.union(right)) == 3

    def test_union_conflicting_scores_rejected(self):
        left = make([("a", 0.1)])
        right = make([("a", 0.9)])
        with pytest.raises(NotASubsetError):
            left.union(right)
