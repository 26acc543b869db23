"""Hybrid improvement: cluster restriction + beam search combined.

The paper evaluates improvements one technique at a time; an obvious
follow-up (its "quickly evaluating many ... algorithms" use case) is
composing them: restrict the candidate space to nominated clusters *and*
bound the frontier with a beam.  Both component techniques keep the
shared objective function, so their composition does too — the answer set
is a subset of each component's and hence of the exhaustive system's, and
the bounds technique applies unchanged.

The composition's answer-size-ratio curve is dominated by the stricter of
its components at every threshold, which the test suite asserts.
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.matching.clustering import ClusteringMatcher
from repro.matching.engine import SchemaSearch
from repro.matching.objective import ObjectiveFunction
from repro.schema.model import Schema

__all__ = ["HybridMatcher"]


class HybridMatcher(ClusteringMatcher):
    """Cluster-restricted beam search (composition of two improvements).

    Inherits the cluster nomination machinery; replaces the exact search
    within the nominated clusters by a beam of the given width.
    """

    name = "hybrid"

    def __init__(
        self,
        objective: ObjectiveFunction,
        clusters_per_element: int = 3,
        join_threshold: float = 0.55,
        beam_width: int = 8,
        max_answers: int = 500_000,
    ):
        super().__init__(
            objective,
            clusters_per_element=clusters_per_element,
            join_threshold=join_threshold,
            max_answers=max_answers,
        )
        if beam_width < 1:
            raise MatchingError(f"beam_width must be >= 1, got {beam_width!r}")
        self.beam_width = beam_width

    def _match_schema(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> list[tuple[tuple[int, ...], float]]:
        in_schema = self._nominated_ids(schema)
        if len(in_schema) < len(query):
            return []
        allowed = [in_schema] * len(query)
        search = SchemaSearch(query, schema, self.objective, allowed=allowed)
        return search.beam(delta_max, self.beam_width)

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["beam_width"] = self.beam_width
        return description
