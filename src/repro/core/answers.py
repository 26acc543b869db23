"""Scored answer sets (paper section 2.1).

A schema matching system searches a space ``SS`` of possible mappings and
scores each with an objective function Δ (lower = better).  The *answer
set* at threshold δ is ``A^δ_S = {a ∈ SS | Δ(a) ≤ δ}`` — Figure 1 of the
paper.  :class:`AnswerSet` captures exactly that structure for arbitrary
hashable items (the paper notes elements of the search space "can in fact
be anything such as images, documents, etc."), with efficient threshold
slicing and the subset checks the bounds technique rests on.

Order.  Answers are kept in ascending score order; within a score tie
they keep *construction order* — the order the constructor's iterable
yielded them (a stable sort).  Threshold slices, increments and top-n
cuts are contiguous runs of that order.  :meth:`AnswerSet
.disjoint_union` keeps the rule across sets: ties order by argument
position first, then by each member's own order, exactly as a left fold
of :meth:`AnswerSet.union` over disjoint sets would.
"""

from __future__ import annotations

import bisect
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import TypeVar

from repro.errors import AnswerSetError, NotASubsetError

#: sort key of every answer ordering (attrgetter: one C call per element)
_BY_SCORE = attrgetter("score")
_ITEM = attrgetter("item")

__all__ = ["Answer", "AnswerSet"]

ItemT = TypeVar("ItemT", bound=Hashable)


@dataclass(frozen=True, slots=True)
class Answer:
    """One scored element of the search space."""

    item: Hashable
    score: float

    def __post_init__(self) -> None:
        if self.score != self.score:  # NaN
            raise AnswerSetError(f"answer score must not be NaN (item {self.item!r})")


class AnswerSet:
    """An immutable set of scored answers, ordered by ascending score.

    Ties in score are allowed (the paper explicitly keeps the system
    "indecisive" on ties); within a tie answers keep construction order.

    The class guarantees item uniqueness — a mapping appears at most once.
    """

    def __init__(self, answers: Iterable[Answer]):
        ordered = sorted(answers, key=_BY_SCORE)
        items = frozenset(map(_ITEM, ordered))
        if len(items) != len(ordered):
            _raise_duplicate(ordered)
        self._answers: tuple[Answer, ...] = tuple(ordered)
        self._scores: list[float] = list(map(_BY_SCORE, ordered))
        self._items: frozenset[Hashable] | None = items
        self._index: dict[Hashable, float] | None = None

    @classmethod
    def _run(
        cls,
        answers: tuple[Answer, ...],
        scores: list[float],
        items: frozenset[Hashable] | None = None,
    ) -> "AnswerSet":
        """A set over answers already in order and unique (a slice or merge).

        Skips the sort and the duplicate check; without ``items``,
        ``items()`` is built on first use.
        """
        run = object.__new__(cls)
        run._answers = answers
        run._scores = scores
        run._items = items
        run._index = None
        return run

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Hashable, float]]) -> "AnswerSet":
        """Build from ``(item, score)`` pairs."""
        return cls(Answer(item, score) for item, score in pairs)

    @classmethod
    def empty(cls) -> "AnswerSet":
        return cls(())

    @classmethod
    def disjoint_union(cls, sets: Iterable["AnswerSet"]) -> "AnswerSet":
        """Union of answer sets that share no item, in one sort.

        One stable sort over the members' answers concatenated in
        argument order, so score ties keep argument order, then each
        member's own order — the order a left fold of :meth:`union`
        gives on disjoint sets.  The item set is merged from the
        members' item sets, reusing their stored hashes.  A shared item
        raises :class:`AnswerSetError` naming it: this pools sets that
        are disjoint by construction (one per query), so an overlap is
        a bug, never something to deduplicate.
        """
        members = tuple(sets)
        ordered = sorted(
            [answer for member in members for answer in member._answers],
            key=_BY_SCORE,
        )
        items = frozenset().union(*(member.items() for member in members))
        if len(items) != len(ordered):
            _raise_duplicate(ordered)
        return cls._run(tuple(ordered), list(map(_BY_SCORE, ordered)), items)

    def __len__(self) -> int:
        return len(self._answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self._answers)

    def __contains__(self, item: Hashable) -> bool:
        return item in self.items()

    def answers(self) -> tuple[Answer, ...]:
        """All answers in score order."""
        return self._answers

    def items(self) -> frozenset:
        """The set of answer items (identity for subset comparisons)."""
        items = self._items
        if items is None:
            items = self._items = frozenset(map(_ITEM, self._answers))
        return items

    def scores(self) -> list[float]:
        """All scores in ascending order."""
        return list(self._scores)

    def _score_index(self) -> dict[Hashable, float]:
        """Item → score, built once on first use."""
        index = self._index
        if index is None:
            index = self._index = {a.item: a.score for a in self._answers}
        return index

    def score_of(self, item: Hashable) -> float:
        """Score of a specific item."""
        try:
            return self._score_index()[item]
        except KeyError:
            raise AnswerSetError(f"item {item!r} not in answer set") from None

    # -- threshold structure (Figure 1) ---------------------------------

    def size_at(self, delta: float) -> int:
        """``|A^δ|``: number of answers with score <= δ, in O(log n)."""
        return bisect.bisect_right(self._scores, delta)

    def _slice(self, start: int, end: int) -> "AnswerSet":
        return AnswerSet._run(self._answers[start:end], self._scores[start:end])

    def at_threshold(self, delta: float) -> "AnswerSet":
        """``A^δ``: the sub-answer-set with score <= δ."""
        return self._slice(0, self.size_at(delta))

    def increment(self, delta_low: float | None, delta_high: float) -> "AnswerSet":
        """Answers with ``δ_low < Δ(a) <= δ_high`` (paper section 3.2).

        ``delta_low=None`` means the increment starts below every score
        (the paper's ``0 − δ1`` increment; scores may be negative in other
        retrieval settings, hence ``None`` rather than literal 0).
        """
        if delta_low is not None and delta_low > delta_high:
            raise AnswerSetError(
                f"increment bounds are reversed: {delta_low!r} > {delta_high!r}"
            )
        start = 0 if delta_low is None else self.size_at(delta_low)
        return self._slice(start, self.size_at(delta_high))

    def top_n(self, n: int) -> "AnswerSet":
        """The n best-scoring answers (ties broken by construction order)."""
        if n < 0:
            raise AnswerSetError(f"n must be >= 0, got {n!r}")
        return self._slice(0, n)

    def min_score(self) -> float:
        if not self._answers:
            raise AnswerSetError("empty answer set has no min score")
        return self._scores[0]

    def max_score(self) -> float:
        if not self._answers:
            raise AnswerSetError("empty answer set has no max score")
        return self._scores[-1]

    # -- set relations ----------------------------------------------------

    def is_subset_of(self, other: "AnswerSet") -> bool:
        """True when every item here also appears in ``other``."""
        return self.items() <= other.items()

    def check_subset_of(self, other: "AnswerSet", label: str = "improved") -> None:
        """Raise :class:`NotASubsetError` when the subset property fails.

        The bounds technique requires ``A2^δ ⊆ A1^δ`` (paper section 2.3);
        this is the guard every analysis entry point runs.
        """
        extra = self.items() - other.items()
        if extra:
            sample = next(iter(extra))
            raise NotASubsetError(
                f"{label} system produced {len(extra)} answer(s) outside the "
                f"original answer set, e.g. {sample!r}; the effectiveness-bounds "
                "technique requires both systems to share the objective function"
            )

    def check_scores_match(self, other: "AnswerSet") -> None:
        """Verify shared items carry identical scores in both sets.

        Same objective function ⇒ same score for the same mapping; a
        mismatch means the 'improvement' re-ranked answers and the
        technique's assumptions are violated.  ``other``'s item → score
        index is built once and kept, so checking several improvements
        against one original indexes it once.
        """
        other_scores = other._score_index()
        for answer in self._answers:
            expected = other_scores.get(answer.item)
            if expected is not None and expected != answer.score:
                raise NotASubsetError(
                    f"item {answer.item!r} scored {answer.score!r} by one system "
                    f"but {expected!r} by the other; objective functions differ"
                )

    def restrict_to(self, items: Iterable[Hashable]) -> "AnswerSet":
        """Sub-answer-set containing only the given items (scores kept)."""
        wanted = set(items)
        return AnswerSet(a for a in self._answers if a.item in wanted)

    def union(self, other: "AnswerSet") -> "AnswerSet":
        """Union by item; scores must agree on overlap."""
        self.check_scores_match(other)
        merged = {a.item: a for a in self._answers}
        for answer in other._answers:
            merged.setdefault(answer.item, answer)
        return AnswerSet(merged.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._answers:
            return "AnswerSet(empty)"
        return (
            f"AnswerSet(n={len(self)}, scores {self._scores[0]:.4f}"
            f"..{self._scores[-1]:.4f})"
        )


def _raise_duplicate(ordered: Iterable[Answer]) -> None:
    """Name the first repeated item (walks the answers stepwise)."""
    seen: set[Hashable] = set()
    for answer in ordered:
        if answer.item in seen:
            raise AnswerSetError(
                f"duplicate answer item {answer.item!r} in answer set"
            )
        seen.add(answer.item)
