"""Top-k candidate pruning (Theobald et al.'s probabilistic top-k spirit).

The paper's second section-2.3 example of a non-exhaustive improvement
that keeps the objective function is top-k query evaluation with
probabilistic guarantees (VLDB'04): candidate lists are cut off early on
the grounds that deep candidates are unlikely to matter.  Reproduction:
for each query element, only its ``k`` cheapest targets per repository
schema stay in the candidate lists; the exact search then runs on the
truncated lists.  Mappings needing a deeper candidate are lost, so the
system is non-exhaustive but still a subset of S1 at every threshold.
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.engine import SchemaSearch
from repro.matching.objective import ObjectiveFunction
from repro.schema.model import Schema

__all__ = ["TopKCandidateMatcher"]


class TopKCandidateMatcher(Matcher):
    """Non-exhaustive improvement: per-element candidate lists cut to k."""

    name = "topk"

    def __init__(
        self,
        objective: ObjectiveFunction,
        candidates_per_element: int = 5,
        max_answers: int = 500_000,
    ):
        super().__init__(objective, max_answers)
        if candidates_per_element < 1:
            raise MatchingError(
                "candidates_per_element must be >= 1, got "
                f"{candidates_per_element!r}"
            )
        self.candidates_per_element = candidates_per_element

    def _match_schema(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> list[tuple[tuple[int, ...], float]]:
        # the search cuts each (cost, id)-sorted candidate order to its
        # k cheapest targets, ties by id, once its early exit has passed
        search = SchemaSearch(
            query, schema, self.objective, cap=self.candidates_per_element
        )
        return search.exhaustive(delta_max)

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["candidates_per_element"] = self.candidates_per_element
        return description
