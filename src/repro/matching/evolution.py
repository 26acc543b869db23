"""Incremental re-matching over an evolving repository.

Real schema repositories are not fixed: schemas get registered, revised
and retired while queries keep arriving.  Before this module, any
repository change forced a full re-match of every query against every
schema.  The pieces that make incremental work sound already existed —

* per-pair search results are plain data, retained by the pipeline
  (:class:`~repro.matching.pipeline.PipelineResult.pair_results`);
* :class:`~repro.schema.delta.DeltaReport` names, in content digests,
  exactly which schemas a delta changed;
* the similarity substrate keys matrices by schema content, so
  untouched schemas' matrices survive evolution for free;
* the branch-and-bound's static admissible bound
  (:func:`~repro.matching.engine.threshold_unreachable`) proves many
  (query, new schema) searches empty without running them —

and :class:`EvolutionSession` ties them together.  A session holds one
matcher, one query set and one threshold; :meth:`EvolutionSession.match`
runs the cold baseline, :meth:`EvolutionSession.apply` evolves the
repository by a :class:`~repro.schema.delta.RepositoryDelta` and
re-matches **incrementally**: results are reused for unchanged schemas,
skipped where the bound proves emptiness, recomputed only where the
delta can actually matter.  The answer sets are byte-identical to a
cold re-match of the new repository — for every matcher (matchers with
repository-global state transparently fall back to a full, still
identical, recompute) and every delta kind, property-tested in
``tests/matching/test_evolution.py`` and benchmarked in
``benchmarks/bench_evolution.py`` (≥ 2× over cold at ≤ 10 % churn).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.answers import AnswerSet
from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.executor import ShardExecutor, matcher_fingerprint
from repro.matching.pipeline import (
    MatchingPipeline,
    PipelineResult,
    RematchStats,
)
from repro.schema.delta import DeltaReport, RepositoryDelta
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository

__all__ = ["EvolutionSession"]


class EvolutionSession:
    """Matcher + queries + threshold, tracked across repository versions.

    The session owns a :class:`~repro.matching.pipeline.MatchingPipeline`
    (over ``executor`` with ``shards`` partitions, as that class takes
    them) and remembers the
    last repository and result, so replaying a delta stream is::

        session = EvolutionSession(matcher, queries, delta_max=0.3)
        session.match(repository)          # cold baseline
        for delta in stream:
            result, report = session.apply(delta)   # incremental

    ``session.answer_sets`` always equals what a cold
    ``matcher.batch_match(queries, session.repository, delta_max)``
    would return — byte for byte.
    """

    def __init__(
        self,
        matcher: Matcher,
        queries: Sequence[Schema],
        delta_max: float,
        *,
        executor: ShardExecutor | None = None,
        shards: int | None = None,
    ):
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        self.matcher = matcher
        self.queries = list(queries)
        if not self.queries:
            raise MatchingError("an evolution session needs at least one query")
        self.delta_max = delta_max
        self._pipeline = MatchingPipeline(
            matcher, executor=executor, shards=shards
        )
        self._repository: SchemaRepository | None = None
        self._result: PipelineResult | None = None
        self.last_report: DeltaReport | None = None

    @classmethod
    def from_state(
        cls,
        matcher: Matcher,
        repository: SchemaRepository,
        result: PipelineResult,
        queries: Sequence[Schema],
        *,
        executor: ShardExecutor | None = None,
        shards: int | None = None,
    ) -> "EvolutionSession":
        """Resume a session from a previously computed result.

        The warm-start path: ``result`` (typically restored from a
        snapshot, see :mod:`repro.matching.similarity.persist`) must
        have been produced by the *same* matcher configuration for
        exactly ``queries`` against ``repository`` — all three are
        digest/fingerprint-checked here, so a resumed session can never
        silently carry state computed elsewhere.  The returned session
        behaves as if it had just run :meth:`match`.
        """
        if result.matcher_key != matcher_fingerprint(matcher):
            raise MatchingError(
                "cannot resume: result was computed by a differently "
                "configured matcher (fingerprints differ)"
            )
        if result.repository_digest != repository.content_digest():
            raise MatchingError(
                "cannot resume: result was computed against a different "
                "repository version (content digests differ)"
            )
        if result.query_digests != tuple(
            query.content_digest() for query in queries
        ):
            raise MatchingError(
                "cannot resume: result was computed for a different query "
                "list (content digests differ)"
            )
        if not result.pair_results:
            raise MatchingError(
                "cannot resume: result retains no pair_results (produced "
                "by MatchingPipeline.run / rematch)"
            )
        session = cls(
            matcher,
            queries,
            result.delta_max,
            executor=executor,
            shards=shards,
        )
        session._repository = repository
        session._result = result
        return session

    # -- state accessors -----------------------------------------------------

    @property
    def repository(self) -> SchemaRepository:
        """The current repository version (after :meth:`match`/:meth:`apply`)."""
        if self._repository is None:
            raise MatchingError("session has no repository yet; call match()")
        return self._repository

    @property
    def result(self) -> PipelineResult:
        """The latest matching result over the current repository."""
        if self._result is None:
            raise MatchingError("session has no result yet; call match()")
        return self._result

    @property
    def answer_sets(self) -> list[AnswerSet]:
        """Per-query answer sets over the current repository version."""
        return self.result.answer_sets

    @property
    def last_rematch(self) -> RematchStats | None:
        """Stats of the latest incremental step (``None`` after a cold run)."""
        return self.result.rematch

    # -- lifecycle -----------------------------------------------------------

    def match(self, repository: SchemaRepository) -> PipelineResult:
        """Cold full match; (re)bases the session on ``repository``."""
        self._result = self._pipeline.run(
            self.queries, repository, self.delta_max
        )
        self._repository = repository
        self.last_report = None
        return self._result

    def extend(self, queries: Sequence[Schema]) -> list[AnswerSet]:
        """Grow the session's query set; returns the new queries' answers.

        The serving path: a long-lived session accumulates queries as
        they arrive.  The new queries are matched against the *current*
        repository version through the session's pipeline and their
        pair results merged into the retained state, so later deltas
        re-match them incrementally alongside the original set.  Content
        digests already tracked by the session are rejected — callers
        (the :class:`~repro.matching.service.MatchingService`) dedupe
        and serve those from the retained answer sets instead.
        """
        new_queries = list(queries)
        if not new_queries:
            return []
        result = self.result  # raises before match()
        known = set(result.query_digests)
        fresh: set[str] = set()
        for query in new_queries:
            digest = query.content_digest()
            if digest in known or digest in fresh:
                raise MatchingError(
                    f"query {query.schema_id!r} (digest {digest}) is "
                    "already tracked by this session"
                )
            fresh.add(digest)
        addition = self._pipeline.run(
            new_queries, self.repository, self.delta_max
        )
        result.answer_sets.extend(addition.answer_sets)
        result.pair_results.extend(addition.pair_results)
        result.query_digests = result.query_digests + addition.query_digests
        self.queries.extend(new_queries)
        return addition.answer_sets

    def apply(
        self, delta: RepositoryDelta
    ) -> tuple[PipelineResult, DeltaReport]:
        """Evolve the repository by ``delta`` and re-match incrementally.

        Returns the new result and the application report; the session's
        ``repository``/``result`` advance to the new version.  The
        report is also kept as :attr:`last_report`.
        """
        new_repository, report = self.repository.apply(delta)
        return self.rebase(new_repository, report)

    def rebase(
        self, repository: SchemaRepository, report: DeltaReport
    ) -> tuple[PipelineResult, DeltaReport]:
        """Adopt an externally applied repository version incrementally.

        ``repository``/``report`` must come from ``apply()`` on the
        session's current repository (digest-checked by the pipeline);
        useful when one delta application is shared by several sessions
        (e.g. one per matcher under comparison).
        """
        self._result = self._pipeline.rematch(
            self.queries,
            repository,
            self.delta_max,
            previous=self.result,
            report=report,
        )
        self._repository = repository
        self.last_report = report
        return self._result, report
