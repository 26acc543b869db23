"""The paper's edge conventions, one test each.

Each formula of the bounds technique has a degenerate input where the
paper's ratio is 0/0 or reads past the data: an empty answer set, an
empty ground truth, a one-threshold schedule.  The library picks a
convention at each; these tests state them, so a flipped convention
fails here (``tools/mutate.py`` keeps one mutant per convention).
"""

from fractions import Fraction

from repro.core.bounds import bound_counts
from repro.core.incremental import (
    BoundsAtThreshold,
    SizeProfile,
    SystemProfile,
    compute_incremental_bounds,
)
from repro.core.increments import (
    IncrementPR,
    combine_increment_pr,
    increments_of_profile,
)
from repro.core.measures import Counts
from repro.core.relative import relative_bounds
from repro.core.thresholds import ThresholdSchedule
from repro.core.topn import default_cutoffs


def entry(original, improved_answers, best=None, worst=None, random=0):
    return BoundsAtThreshold(
        delta=0.3,
        original=original,
        improved_answers=improved_answers,
        best=best or Counts(improved_answers, 0, original.relevant),
        worst=worst or Counts(improved_answers, 0, original.relevant),
        random_correct=Fraction(random),
    )


def test_random_point_without_s2_answers_keeps_s1_precision():
    """Eq. 9: the size-matched random system keeps S1's mix per increment.

    With no S2 answers the ratio t̂2/â2 is 0/0; the expected precision is
    S1's, not a vacuous 1 or 0.
    """
    point = entry(Counts(8, 2, 10), 0).random_point()
    assert point.precision == Fraction(1, 4)
    assert point.recall == 0


def test_recall_of_empty_ground_truth_is_one():
    """Section 2.2: with |H| = 0 every system is trivially complete."""
    point = entry(Counts(4, 0, 0), 2).best_point()
    assert point.recall == 1
    assert entry(Counts(4, 0, 0), 2).worst_point().recall == 1


def test_size_ratio_of_empty_s1_is_zero():
    """Section 3.3: Â = |A2| / |A1| reads 0 when S1 answered nothing."""
    assert entry(Counts(0, 0, 5), 0).size_ratio == 0
    assert bound_counts(Counts(0, 0, 5), 0).size_ratio == 0
    assert entry(Counts(6, 1, 5), 3).size_ratio == Fraction(1, 2)


def test_relative_best_precision_of_empty_answer_set_is_one():
    """Eqs. 1/4: an empty S2 has no incorrect answer, so its best precision is 1.

    ``relative_bounds`` needs no |H| (a library extension); at a
    threshold where S2 keeps nothing the worst precision is 0 and the
    best is vacuously 1.
    """
    schedule = ThresholdSchedule([0.1, 0.2])
    original = SystemProfile(schedule, (Counts(3, 1, 4), Counts(6, 2, 4)))
    improved = SizeProfile(schedule, (0, 2))
    first, second = relative_bounds(compute_incremental_bounds(original, improved))
    assert first.best_precision == 1
    assert first.worst_precision == 0
    assert second.best_precision == Fraction(1, 2)  # one hit per increment
    assert second.worst_precision == 0


def test_default_cutoffs_of_one_answer_keep_it():
    """Top-N (the paper's closing observation): a one-answer set's ladder is [1]."""
    assert default_cutoffs(1) == [1]
    assert default_cutoffs(0) == []
    assert default_cutoffs(30) == [10, 25, 30]


def test_increments_of_one_threshold_profile():
    """Section 3.2, step 2: the first increment is the paper's 0 − δ1.

    A one-threshold profile has that increment only; its |H| comes from
    the one count there is.
    """
    schedule = ThresholdSchedule([0.25])
    counts = [Counts(5, 2, 7)]
    assert increments_of_profile(schedule, counts) == counts


def test_combine_increment_into_empty_answer_set():
    """Eqs. 7/8: R2 = R1 + R̂ and R2/P2 = R1/P1 + R̂/P̂.

    When both terms are 0 (no answers before, an increment with R̂ = 0)
    the recombined set is empty, and its precision is the vacuous 1.
    """
    increment = IncrementPR(recall=Fraction(0), precision=Fraction(1, 2))
    assert combine_increment_pr(0, 0, increment) == (0, 1)
    assert combine_increment_pr(
        Fraction(1, 4), Fraction(1, 2), IncrementPR(Fraction(1, 4), Fraction(1, 2))
    ) == (Fraction(1, 2), Fraction(1, 2))
