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

Column form.  A matcher's answer set (``Matcher.assemble``) is kept as
*groups* — one ``{member: score}`` dict per (query, repository schema)
pair — plus the ascending score list, and builds its :class:`Answer`
objects only when a caller reads them: :meth:`AnswerSet.answers`,
iteration, :meth:`AnswerSet.items`, :meth:`AnswerSet.restrict_to`, a
slice, or a point lookup (``in``, :meth:`AnswerSet.score_of`).
Counting (``len``, :meth:`AnswerSet.size_at`), the subset and score
checks, pooling by :meth:`AnswerSet.disjoint_union` and the judged
counts of ``SystemProfile.from_answer_set`` all work on the groups, so
the paper's bounds path never builds an item.  The order
rule is the same: materialising sorts the groups' answers, in
construction order, by score.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TypeVar

from repro.errors import AnswerSetError, NotASubsetError

#: sort key of every answer ordering (attrgetter: one C call per element)
_BY_SCORE = attrgetter("score")
_ITEM = attrgetter("item")

__all__ = ["Answer", "AnswerSet"]

ItemT = TypeVar("ItemT", bound=Hashable)

#: one group of a column set: ``(make, {member: score})``, where
#: ``make(member)`` builds the member's item
Group = tuple[Callable[[Hashable], Hashable], dict[Hashable, float]]
#: ``locate(item)``: the ``(group key, member)`` a column set files
#: ``item`` under, or ``None`` for an item no group can hold
Locate = Callable[[Hashable], "tuple[Hashable, Hashable] | None"]


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
        self._answers: tuple[Answer, ...] | None = tuple(ordered)
        self._scores: list[float] = list(map(_BY_SCORE, ordered))
        self._items: frozenset[Hashable] | None = items
        self._index: dict[Hashable, float] | None = None
        self._groups: dict[Hashable, Group] | None = None
        self._locate: Locate | None = None

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
        run._groups = None
        run._locate = None
        return run

    @classmethod
    def _grouped(
        cls, groups: dict[Hashable, Group], scores: list[float], locate: Locate
    ) -> "AnswerSet":
        """A column set over checked groups and their ascending scores."""
        grouped = cls._run(None, scores)  # type: ignore[arg-type]
        grouped._groups = groups
        grouped._locate = locate
        return grouped

    @classmethod
    def _columns(
        cls,
        runs: Iterable[tuple[Hashable, Callable[[Hashable], Hashable], list]],
        locate: Locate,
    ) -> "AnswerSet":
        """A column set from ``(group key, make, [(member, score), ...])`` runs.

        Runs come in construction order under distinct group keys.  Each
        becomes one ``dict(results)``, whose length is the duplicate
        check; no item is built unless a check fails or a caller reads
        the answers.  ``locate`` must invert ``make`` (see :data:`Locate`).
        """
        groups: dict[Hashable, Group] = {}
        for key, make, results in runs:
            members = dict(results)
            if len(members) != len(results):
                _raise_duplicate(Answer(make(m), score) for m, score in results)
            groups[key] = (make, members)
        scores = list(
            chain.from_iterable(members.values() for _, members in groups.values())
        )
        total = sum(scores)
        if total != total:  # a NaN or inf - inf: an Answer names a NaN's item
            for make, members in groups.values():
                for member, score in members.items():
                    Answer(make(member), score)
        scores.sort()
        return cls._grouped(groups, scores, locate)

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

        Column sets pool column-wise: their groups join in argument
        order and their sorted score lists merge, building no item.  A
        group key met twice raises :class:`AnswerSetError` naming it,
        whether or not the two groups share a member.
        """
        members = tuple(sets)
        locate = members[0]._locate if members else None
        if locate is not None and all(m._locate is locate for m in members):
            groups: dict[Hashable, Group] = {}
            for member in members:
                repeated = groups.keys() & member._groups.keys()  # type: ignore[union-attr]
                if repeated:
                    raise AnswerSetError(
                        f"group {next(iter(repeated))!r} occurs in two "
                        "pooled answer sets"
                    )
                groups.update(member._groups)  # type: ignore[arg-type]
            scores = list(chain.from_iterable(m._scores for m in members))
            scores.sort()
            return cls._grouped(groups, scores, locate)
        ordered = sorted(
            [answer for member in members for answer in member.answers()],
            key=_BY_SCORE,
        )
        items = frozenset().union(*(member.items() for member in members))
        if len(items) != len(ordered):
            _raise_duplicate(ordered)
        return cls._run(tuple(ordered), list(map(_BY_SCORE, ordered)), items)

    def __len__(self) -> int:
        return len(self._scores)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self.answers())

    def __contains__(self, item: Hashable) -> bool:
        return item in self.items()

    def answers(self) -> tuple[Answer, ...]:
        """All answers in score order (a column set builds them once)."""
        answers = self._answers
        if answers is None:
            built = [
                Answer(make(member), score)
                for make, members in self._groups.values()  # type: ignore[union-attr]
                for member, score in members.items()
            ]
            built.sort(key=_BY_SCORE)
            answers = self._answers = tuple(built)
        return answers

    def items(self) -> frozenset:
        """The set of answer items (identity for subset comparisons)."""
        items = self._items
        if items is None:
            items = self._items = frozenset(map(_ITEM, self.answers()))
        return items

    def scores(self) -> list[float]:
        """All scores in ascending order."""
        return list(self._scores)

    def _score_index(self) -> dict[Hashable, float]:
        """Item → score, built once on first use."""
        index = self._index
        if index is None:
            index = self._index = {a.item: a.score for a in self.answers()}
        return index

    def _column_score(self, item: Hashable) -> float | None:
        """A column set's score for ``item``, or ``None`` if it holds none."""
        where = self._locate(item)  # type: ignore[misc]
        if where is None:
            return None
        group = self._groups.get(where[0])  # type: ignore[union-attr]
        return None if group is None else group[1].get(where[1])

    def _hit_scores(self, items: Iterable[Hashable]) -> list[float]:
        """Scores of those of ``items`` this set holds, ascending.

        A column set looks each item up in its group; this is how the
        judged counts ``|T^δ|`` are read without building the answers.
        """
        if self._groups is not None:
            found = map(self._column_score, items)
            return sorted(score for score in found if score is not None)
        hits = self.items() & frozenset(items)
        return [a.score for a in self.answers() if a.item in hits] if hits else []

    def score_of(self, item: Hashable) -> float:
        """Score of a specific item."""
        score = self._score_index().get(item)
        if score is None:
            raise AnswerSetError(f"item {item!r} not in answer set")
        return score

    # -- threshold structure (Figure 1) ---------------------------------

    def size_at(self, delta: float) -> int:
        """``|A^δ|``: number of answers with score <= δ, in O(log n)."""
        return bisect.bisect_right(self._scores, delta)

    def _slice(self, start: int, end: int) -> "AnswerSet":
        return AnswerSet._run(self.answers()[start:end], self._scores[start:end])

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
        if not self._scores:
            raise AnswerSetError("empty answer set has no min score")
        return self._scores[0]

    def max_score(self) -> float:
        if not self._scores:
            raise AnswerSetError("empty answer set has no max score")
        return self._scores[-1]

    # -- set relations ----------------------------------------------------

    def _group_pairs(
        self, other: "AnswerSet"
    ) -> Iterator[tuple[dict, dict]] | None:
        """``(my members, other's members)`` for each of my groups.

        Where ``other`` lacks a group its members read ``{}``.  ``None``
        unless both are column sets filed by the same ``locate``.
        """
        if self._locate is None or self._locate is not other._locate:
            return None
        theirs = other._groups
        return (
            (members, theirs[key][1] if key in theirs else {})  # type: ignore[index, operator]
            for key, (_, members) in self._groups.items()  # type: ignore[union-attr]
        )

    def is_subset_of(self, other: "AnswerSet") -> bool:
        """True when every item here also appears in ``other``."""
        pairs = self._group_pairs(other)
        if pairs is None:
            return self.items() <= other.items()
        return all(mine.keys() <= theirs.keys() for mine, theirs in pairs)

    def check_subset_of(self, other: "AnswerSet", label: str = "improved") -> None:
        """Raise :class:`NotASubsetError` when the subset property fails.

        The bounds technique requires ``A2^δ ⊆ A1^δ`` (paper section 2.3);
        this is the guard every analysis entry point runs.  Column sets
        compare group by group (dict key views, in C); the items are
        built only to name an offending one.
        """
        if self.is_subset_of(other):
            return
        extra = self.items() - other.items()
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
        technique's assumptions are violated.  Column sets first compare
        group by group (dict item views, in C); only when a group is not
        contained with its scores does the item loop below run, to tell
        a re-scored item (raised, by name) from a mere extra one.
        ``other``'s item → score index is built once and kept, so
        checking several improvements against one original indexes it
        once.
        """
        pairs = self._group_pairs(other)
        if pairs is not None and all(
            mine.items() <= theirs.items() for mine, theirs in pairs
        ):
            return
        other_scores = other._score_index()
        for answer in self.answers():
            expected = other_scores.get(answer.item)
            if expected is not None and expected != answer.score:
                raise NotASubsetError(
                    f"item {answer.item!r} scored {answer.score!r} by one system "
                    f"but {expected!r} by the other; objective functions differ"
                )

    def restrict_to(self, items: Iterable[Hashable]) -> "AnswerSet":
        """Sub-answer-set containing only the given items (scores kept)."""
        wanted = set(items)
        return AnswerSet(a for a in self.answers() if a.item in wanted)

    def union(self, other: "AnswerSet") -> "AnswerSet":
        """Union by item; scores must agree on overlap."""
        self.check_scores_match(other)
        merged = {a.item: a for a in self.answers()}
        for answer in other.answers():
            merged.setdefault(answer.item, answer)
        return AnswerSet(merged.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._scores:
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
