"""The exhaustive matching system S1.

"A system S is called exhaustive if it returns all possible mappings for
a certain threshold" (section 2.1).  This matcher is exactly that: the
branch-and-bound engine with no candidate restriction enumerates every
injective assignment with Δ ≤ δ — pruning only via an admissible bound,
which never loses an in-threshold answer (property-tested against brute
force in the suite).  Searches read the shared similarity substrate
(precomputed score matrices, exact candidate trimming), which changes
wall-clock, never answers.
"""

from __future__ import annotations

from repro.matching.base import Matcher
from repro.matching.engine import SchemaSearch
from repro.schema.model import Schema

__all__ = ["ExhaustiveMatcher"]


class ExhaustiveMatcher(Matcher):
    """Complete enumeration up to the threshold (the original system)."""

    name = "exhaustive"

    def _match_schema(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> list[tuple[tuple[int, ...], float]]:
        return SchemaSearch(query, schema, self.objective).exhaustive(delta_max)
