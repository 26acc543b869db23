"""Beam-search improvement (iMAP-style; the paper's section 2.3 example).

iMAP controls its search space "using beam search, maintaining only the k
highest-scoring candidate matches at every step".  Our beam matcher keeps
the ``beam_width`` most promising partial mappings per query element and
scores final mappings with the shared objective function, so its answer
set is a subset of the exhaustive system's at every threshold — the
non-exhaustive-improvement contract.

A wide beam behaves almost exhaustively (size ratio near 1); narrowing it
trades answers for work, which is what produces the smoothly declining
ratio curves of the paper's S2-one.
"""

from __future__ import annotations

from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.engine import SchemaSearch
from repro.matching.objective import ObjectiveFunction
from repro.schema.model import Schema

__all__ = ["BeamMatcher"]


class BeamMatcher(Matcher):
    """Non-exhaustive improvement: per-level beam over partial mappings."""

    name = "beam"

    def __init__(
        self,
        objective: ObjectiveFunction,
        beam_width: int = 8,
        max_answers: int = 500_000,
    ):
        super().__init__(objective, max_answers)
        if beam_width < 1:
            raise MatchingError(f"beam_width must be >= 1, got {beam_width!r}")
        self.beam_width = beam_width

    def _match_schema(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> list[tuple[tuple[int, ...], float]]:
        search = SchemaSearch(query, schema, self.objective)
        return search.beam(delta_max, self.beam_width)

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["beam_width"] = self.beam_width
        return description
