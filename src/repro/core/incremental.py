"""The incremental bound algorithm (paper section 3.2) and its inputs.

The four steps of the paper:

1. fix the threshold schedule the original measurements were made at;
2. derive precision/recall of every *increment* of the original system S1;
3. apply the best/worst-case formulas (section 3.1) per increment;
4. recombine increments into bounds at every threshold.

Working increment-by-increment is strictly more accurate than applying
the section-3.1 formulas per threshold independently ("naive" here):
in Figure 8's example the naive worst-case precision at δ2 is 1/16 while
the incremental one is 7/48.  Both variants are implemented;
:func:`compute_naive_bounds` exists for that comparison and for the
tightness ablation.

All arithmetic is exact (integers and :class:`~fractions.Fraction`).
"""

from __future__ import annotations

import bisect
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.core.answers import AnswerSet
from repro.core.bounds import best_case_correct, worst_case_correct
from repro.core.measures import Counts
from repro.core.pr_curve import PRCurve, PRPoint
from repro.core.random_baseline import expected_correct
from repro.core.thresholds import ThresholdSchedule
from repro.errors import BoundsError

__all__ = [
    "SystemProfile",
    "SizeProfile",
    "BoundsAtThreshold",
    "IncrementalBounds",
    "compute_incremental_bounds",
    "compute_naive_bounds",
]


@dataclass(frozen=True)
class SystemProfile:
    """Per-threshold counts of a *judged* system run — the S1 input.

    Holds ``|A1^δ|`` and ``|T1^δ|`` for every threshold of the schedule
    (plus ``|H|``).  This is exactly the information a measured P/R curve
    carries (section 2.4); :meth:`from_pr_curve` converts one.
    """

    schedule: ThresholdSchedule
    counts: tuple[Counts, ...]

    def __post_init__(self) -> None:
        ThresholdSchedule.validate_alignment(self.schedule, self.counts, "counts")
        previous: Counts | None = None
        for delta, count in zip(self.schedule, self.counts):
            if previous is not None:
                if count.answers < previous.answers:
                    raise BoundsError(
                        "answer counts must be non-decreasing with δ; "
                        f"|A|={count.answers} at δ={delta} follows {previous.answers}"
                    )
                if count.correct < previous.correct:
                    raise BoundsError(
                        "correct counts must be non-decreasing with δ"
                    )
                if count.relevant != previous.relevant:
                    raise BoundsError("all thresholds must agree on |H|")
            previous = count

    @classmethod
    def from_answer_set(
        cls,
        schedule: ThresholdSchedule,
        answers: AnswerSet,
        ground_truth: Iterable[Hashable],
    ) -> "SystemProfile":
        """Judge an answer set at every threshold of the schedule.

        One pass: the correct answers' scores are sorted, so ``|T^δ|`` at
        each δ is a bisection, as ``|A^δ|`` is (the counts
        :func:`~repro.core.measures.measure` gives on each ``A^δ``).  A
        matcher's column answer set finds those scores by one group
        lookup per element of H, building no answer.
        """
        truth = frozenset(ground_truth)
        hit_scores = answers._hit_scores(truth)
        relevant = len(truth)
        counts = tuple(
            Counts(
                answers.size_at(delta),
                bisect.bisect_right(hit_scores, delta),
                relevant,
            )
            for delta in schedule
        )
        return cls(schedule, counts)

    @classmethod
    def from_pr_curve(cls, curve: PRCurve) -> "SystemProfile":
        """Recover the profile from a measured curve (points carry counts)."""
        return cls(curve.schedule(), tuple(curve.counts_profile()))

    @property
    def relevant(self) -> int | None:
        """``|H|`` (shared across thresholds)."""
        return self.counts[0].relevant

    def answer_sizes(self) -> list[int]:
        return [c.answers for c in self.counts]

    def correct_counts(self) -> list[int]:
        return [c.correct for c in self.counts]

    def increments(self) -> list[Counts]:
        """Counts per increment (first one is the paper's ``0 − δ1``)."""
        previous = Counts(0, 0, self.relevant)
        out = []
        for count in self.counts:
            out.append(count.subtract(previous))
            previous = count
        return out

    def pr_curve(self) -> PRCurve:
        """The measured P/R curve of this profile (requires known ``|H|``)."""
        return PRCurve.from_profile(self.schedule, list(self.counts))

    def final_counts(self) -> Counts:
        return self.counts[-1]


@dataclass(frozen=True)
class SizeProfile:
    """Per-threshold answer-set **sizes** of an unjudged system — the S2 input.

    This is everything the technique needs to know about the improved
    system: how many answers it returns at each threshold.
    """

    schedule: ThresholdSchedule
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        ThresholdSchedule.validate_alignment(self.schedule, self.sizes, "sizes")
        previous = 0
        for delta, size in zip(self.schedule, self.sizes):
            if size < 0:
                raise BoundsError(f"answer size at δ={delta} is negative")
            if size < previous:
                raise BoundsError(
                    "answer sizes must be non-decreasing with δ; "
                    f"{size} at δ={delta} follows {previous}"
                )
            previous = size

    @classmethod
    def from_answer_set(
        cls, schedule: ThresholdSchedule, answers: AnswerSet
    ) -> "SizeProfile":
        return cls(schedule, tuple(answers.size_at(delta) for delta in schedule))

    def increment_sizes(self) -> list[int]:
        previous = 0
        out = []
        for size in self.sizes:
            out.append(size - previous)
            previous = size
        return out


@dataclass(frozen=True)
class BoundsAtThreshold:
    """The bound triple at one threshold.

    ``best``/``worst`` are integral count bounds on S2; ``random_correct``
    is the exact expected number of correct answers of the size-matched
    random system (a rational, not an integer).
    """

    delta: float
    original: Counts
    improved_answers: int
    best: Counts
    worst: Counts
    random_correct: Fraction

    @property
    def size_ratio(self) -> Fraction:
        if self.original.answers == 0:
            return Fraction(0)
        return Fraction(self.improved_answers, self.original.answers)

    def _recall(self, correct: Fraction | int) -> Fraction:
        relevant = self.original.relevant
        if relevant is None:
            raise BoundsError("recall bounds require known |H| on the S1 profile")
        if relevant == 0:
            return Fraction(1)
        return Fraction(correct) / relevant

    def best_point(self) -> PRPoint:
        """Best-case P/R point (empty answer set ⇒ vacuous precision 1)."""
        return PRPoint(
            recall=self._recall(self.best.correct),
            precision=self.best.precision_or(Fraction(1)),
            threshold=self.delta,
            counts=self.best,
        )

    def worst_point(self) -> PRPoint:
        """Worst-case P/R point (empty answer set ⇒ precision 0)."""
        return PRPoint(
            recall=self._recall(self.worst.correct),
            precision=self.worst.precision_or(Fraction(0)),
            threshold=self.delta,
            counts=self.worst,
        )

    def random_point(self) -> PRPoint:
        """Expected P/R of the size-matched random system.

        With no answers kept, the expected precision is conventionally
        S1's (Eq. 9 carries S1's mix over increment by increment).
        """
        if self.improved_answers == 0:
            precision = self.original.precision_or(Fraction(1))
        else:
            precision = self.random_correct / self.improved_answers
        return PRPoint(
            recall=self._recall(self.random_correct),
            precision=precision,
            threshold=self.delta,
        )

    def original_point(self) -> PRPoint:
        return PRPoint(
            recall=self._recall(self.original.correct),
            precision=self.original.precision_or(Fraction(1)),
            threshold=self.delta,
            counts=self.original,
        )


class IncrementalBounds:
    """Result of a bound computation over a whole threshold schedule."""

    def __init__(
        self,
        original: SystemProfile,
        improved: SizeProfile,
        entries: Sequence[BoundsAtThreshold],
        method: str,
    ):
        self.original = original
        self.improved = improved
        self.entries: tuple[BoundsAtThreshold, ...] = tuple(entries)
        self.method = method

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> BoundsAtThreshold:
        return self.entries[index]

    def at_delta(self, delta: float) -> BoundsAtThreshold:
        """The entry at an exact schedule threshold."""
        for entry in self.entries:
            if entry.delta == delta:
                return entry
        raise BoundsError(f"no bounds computed at δ={delta!r}")

    def best_curve(self) -> PRCurve:
        return PRCurve(e.best_point() for e in self.entries)

    def worst_curve(self) -> PRCurve:
        return PRCurve(e.worst_point() for e in self.entries)

    def random_curve(self) -> PRCurve:
        return PRCurve(e.random_point() for e in self.entries)

    def original_curve(self) -> PRCurve:
        return PRCurve(e.original_point() for e in self.entries)

    def rows(self) -> list[tuple]:
        """Per-threshold report rows (precision needs no ``|H|``)."""
        out = []
        for e in self.entries:
            out.append(
                (
                    e.delta,
                    e.original.answers,
                    e.improved_answers,
                    float(e.size_ratio),
                    float(e.worst.precision_or(Fraction(0))),
                    float(e.best.precision_or(Fraction(1))),
                )
            )
        return out


def _validate_pair(original: SystemProfile, improved: SizeProfile) -> None:
    if original.schedule != improved.schedule:
        raise BoundsError(
            "original and improved systems must be sampled on the same "
            "threshold schedule"
        )
    for delta, count, size in zip(
        original.schedule, original.counts, improved.sizes
    ):
        if size > count.answers:
            raise BoundsError(
                f"|A2|={size} exceeds |A1|={count.answers} at δ={delta}; "
                "the subset property (shared objective function) is violated"
            )


def compute_incremental_bounds(
    original: SystemProfile, improved: SizeProfile
) -> IncrementalBounds:
    """The paper's four-step incremental algorithm, in count space.

    Per increment i:  best  t̂2 = min(t̂1, â2)          (Eq. 1)
                      worst t̂2 = max(0, â2 − (â1 − t̂1)) (Eq. 4)
                      random t̂2 = t̂1 · â2 / â1          (Eq. 9/10)
    then cumulative sums give the bounds at every threshold (step 4).
    """
    _validate_pair(original, improved)
    original_increments = original.increments()
    improved_increment_sizes = improved.increment_sizes()

    entries: list[BoundsAtThreshold] = []
    best_total = 0
    worst_total = 0
    random_total = Fraction(0)
    for delta, count, size, inc1, inc2_size in zip(
        original.schedule,
        original.counts,
        improved.sizes,
        original_increments,
        improved_increment_sizes,
    ):
        if inc2_size > inc1.answers:
            raise BoundsError(
                f"improved increment ending at δ={delta} holds {inc2_size} "
                f"answers but the original's holds only {inc1.answers}; "
                "per-increment subset property violated"
            )
        best_total += best_case_correct(inc1.correct, inc2_size)
        worst_total += worst_case_correct(inc1.answers, inc1.correct, inc2_size)
        random_total += expected_correct(inc1.answers, inc1.correct, inc2_size)
        entries.append(
            BoundsAtThreshold(
                delta=delta,
                original=count,
                improved_answers=size,
                best=Counts(size, best_total, count.relevant),
                worst=Counts(size, worst_total, count.relevant),
                random_correct=random_total,
            )
        )
    return IncrementalBounds(original, improved, entries, method="incremental")


def compute_naive_bounds(
    original: SystemProfile, improved: SizeProfile
) -> IncrementalBounds:
    """Section-3.1 bounds applied at each threshold independently.

    Never tighter than :func:`compute_incremental_bounds`; kept for the
    paper's Figure 8 comparison and the tightness ablation.
    """
    _validate_pair(original, improved)
    entries = []
    for delta, count, size in zip(
        original.schedule, original.counts, improved.sizes
    ):
        entries.append(
            BoundsAtThreshold(
                delta=delta,
                original=count,
                improved_answers=size,
                best=Counts(
                    size, best_case_correct(count.correct, size), count.relevant
                ),
                worst=Counts(
                    size,
                    worst_case_correct(count.answers, count.correct, size),
                    count.relevant,
                ),
                random_correct=expected_correct(
                    count.answers, count.correct, size
                ),
            )
        )
    return IncrementalBounds(original, improved, entries, method="naive")
