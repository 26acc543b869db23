"""Matching scenarios: query + repository + known ground truth.

A :class:`MatchingScenario` is one matching problem Q of the paper —
a personal schema to be matched against the repository — bundled with its
oracle ground truth.  A :class:`ScenarioSuite` is a workload of several
such problems over one repository; system-level P/R is micro-averaged by
pooling all queries' answers and ground truths (mapping identity embeds
the query id, so the union is disjoint and exact).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.answers import AnswerSet
from repro.errors import GroundTruthError
from repro.evaluation.ground_truth import GroundTruth, enumerate_ground_truth
from repro.matching.base import Matcher
from repro.matching.executor import ShardExecutor
from repro.schema.model import Schema
from repro.schema.mutations import MutationConfig, extract_personal_schema
from repro.schema.repository import SchemaRepository
from repro.schema.vocabulary import get_domain
from repro.util import rng as rng_util

__all__ = ["MatchingScenario", "ScenarioSuite", "build_scenarios"]


@dataclass(frozen=True)
class MatchingScenario:
    """One matching problem with its oracle ground truth."""

    query: Schema
    ground_truth: GroundTruth
    source_schema_id: str

    @property
    def relevant_size(self) -> int:
        return len(self.ground_truth)


class ScenarioSuite:
    """A workload of matching problems over one repository."""

    def __init__(self, repository: SchemaRepository, scenarios: list[MatchingScenario]):
        if not scenarios:
            raise GroundTruthError("a scenario suite needs at least one scenario")
        ids = [s.query.schema_id for s in scenarios]
        if len(set(ids)) != len(ids):
            raise GroundTruthError("scenario query ids must be unique")
        self.repository = repository
        self.scenarios = list(scenarios)
        self.ground_truth = GroundTruth.union_all(
            [s.ground_truth for s in scenarios]
        )

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def relevant_size(self) -> int:
        """``|H|`` pooled over all queries."""
        return len(self.ground_truth)

    def run(
        self,
        matcher: Matcher,
        delta_max: float,
        *,
        workers: int | None = None,
        shards: int | None = None,
        executor: ShardExecutor | None = None,
    ) -> AnswerSet:
        """Pooled answer set of a system over the whole workload.

        Routed through the sharded matching pipeline
        (:meth:`~repro.matching.base.Matcher.batch_match`, which takes
        the same ``workers``/``shards``/``executor``): by default serial
        in this process, which reproduces per-query matching exactly.
        The per-query sets are disjoint (query ids are unique and part
        of every mapping's identity), so they pool in one
        :meth:`~repro.core.answers.AnswerSet.disjoint_union`; an overlap
        would raise.
        """
        per_query = matcher.batch_match(
            [scenario.query for scenario in self.scenarios],
            self.repository,
            delta_max,
            workers=workers,
            shards=shards,
            executor=executor,
        )
        return AnswerSet.disjoint_union(per_query)

    def rebase(self, repository: SchemaRepository) -> "ScenarioSuite":
        """The same queries over an evolved repository version.

        Ground truth is re-enumerated against ``repository`` (concept
        provenance survives deltas: id-preserving replacements keep
        element concepts, removals shrink H, additions grow it), so the
        rebased suite judges matchers against the repository they
        actually search.  A query whose sources were all removed keeps
        an empty H — its recall becomes meaningless, which mirrors the
        production reality of a query outliving its targets.
        """
        return ScenarioSuite(
            repository,
            [
                MatchingScenario(
                    query=scenario.query,
                    ground_truth=enumerate_ground_truth(
                        scenario.query, repository
                    ),
                    source_schema_id=scenario.source_schema_id,
                )
                for scenario in self.scenarios
            ],
        )


def build_scenarios(
    repository: SchemaRepository,
    num_queries: int,
    query_size: int = 4,
    seed: int = 23,
    mutation: MutationConfig | None = None,
    min_relevant: int = 1,
) -> ScenarioSuite:
    """Derive a workload of personal-schema queries from the repository.

    Each query is extracted from a different repository schema (round
    robin) and mutated; queries whose ground truth comes out smaller than
    ``min_relevant`` are re-drawn (a query with an empty H makes recall
    meaningless), up to a bounded number of attempts.
    """
    if num_queries < 1:
        raise GroundTruthError(f"num_queries must be >= 1, got {num_queries!r}")
    generator = rng_util.make_tagged(seed)
    schemas = repository.schemas()
    scenarios: list[MatchingScenario] = []
    attempts = 0
    max_attempts = num_queries * 20
    index = 0
    while len(scenarios) < num_queries:
        if attempts >= max_attempts:
            raise GroundTruthError(
                f"could not build {num_queries} scenarios with |H| >= "
                f"{min_relevant} after {attempts} attempts; loosen the workload"
            )
        attempts += 1
        source = schemas[index % len(schemas)]
        index += 1
        domain = source.schema_id.rsplit("-", 1)[0]
        try:
            vocabulary = get_domain(domain)
        except Exception:
            vocabulary = None
        child = rng_util.derive(generator, "query", attempts)
        query = extract_personal_schema(
            child,
            source,
            vocabulary,
            target_size=query_size,
            config=mutation or MutationConfig(),
            schema_id=f"query-{len(scenarios):02d}",
        )
        if any(element.concept is None for element in query):
            # the chosen subtree contained a noise element, which the
            # oracle cannot judge — redraw (rare; noise leaves are sparse)
            continue
        truth = enumerate_ground_truth(query, repository)
        if len(truth) < min_relevant:
            continue
        scenarios.append(
            MatchingScenario(
                query=query,
                ground_truth=truth,
                source_schema_id=source.schema_id,
            )
        )
    return ScenarioSuite(repository, scenarios)
