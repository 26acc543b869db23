"""Matcher base class: a matching *system* in the paper's sense.

A matcher takes a matching problem (personal schema + repository +
threshold δ) and returns an :class:`~repro.core.answers.AnswerSet` of
scored :class:`~repro.matching.mapping.Mapping` objects.  All concrete
matchers score through the same :class:`ObjectiveFunction` instance they
are constructed with — sharing one objective across an original system
and its improvements is the precondition of the bounds technique, and
:func:`Matcher.check_compatible` enforces it.

Matching decomposes into three hooks so that one (query, repository
schema) pair is an addressable unit of work:

* :meth:`Matcher.prepare` — once per repository (e.g. clustering);
* :meth:`Matcher.begin_query` — once per query, after ``prepare`` (e.g.
  cluster nomination);
* :meth:`Matcher.match_pair` — the search over one repository schema.

:meth:`Matcher.match` drives the three in order; the sharded pipeline
(:mod:`repro.matching.pipeline`) drives the same hooks with ``prepare``
on the *full* repository and ``match_pair`` fanned out over shards, which
is why sharded results are identical to serial ones.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.answers import AnswerSet
from repro.errors import MatchingError
from repro.matching.mapping import Mapping
from repro.matching.objective import ObjectiveFunction
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository

if TYPE_CHECKING:  # pragma: no cover - pipeline imports this module
    from repro.matching.pipeline import PipelineResult
    from repro.schema.delta import DeltaReport

__all__ = ["Matcher"]


class Matcher(abc.ABC):
    """Abstract matching system."""

    #: short system name used in reports and the registry
    name: str = "abstract"

    #: True when :meth:`match_pair` results depend only on the (query,
    #: schema) pair, the configuration and the threshold — never on the
    #: rest of the repository.  Incremental re-matching after a
    #: repository delta (:mod:`repro.matching.evolution`) reuses stored
    #: pair results for content-unchanged schemas exactly when this
    #: holds; matchers with repository-global state (clustering builds
    #: clusters over the whole repository) must set it to False and get
    #: a full — still byte-identical — recompute instead.
    pair_local: bool = True

    def __init__(self, objective: ObjectiveFunction, max_answers: int = 500_000):
        self.objective = objective
        self.max_answers = max_answers

    @abc.abstractmethod
    def _match_schema(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> list[tuple[tuple[int, ...], float]]:
        """A new list of ``(target_ids, score)`` for one repository schema."""

    def prepare(self, repository: SchemaRepository) -> None:
        """Repository-level precomputation hook (e.g. clustering).

        Called once per repository before matching.  The default
        prepares the similarity substrate the objective shares with
        every matcher built on it — the repository cost kernel, and for
        corpus-sensitive backends (docs/backends.md) the frozen corpus
        statistics (idempotent, keyed by content digest); overriding
        matchers with repository-global state of their own should call
        ``super()``.
        """
        self.objective.substrate().prepare(repository)

    def begin_query(self, query: Schema) -> None:
        """Optional per-query setup hook, run after :meth:`prepare`.

        Called once before a query's :meth:`match_pair` calls (e.g. the
        clustering matcher nominates clusters here); the default does
        nothing.
        """

    def match_pair(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> list[tuple[tuple[int, ...], float]]:
        """Scored assignments ``(target_ids, score)`` for one repository schema.

        The unit of work the sharded pipeline fans out.
        Requires :meth:`prepare` and :meth:`begin_query` to have run;
        :meth:`match` and the pipeline both guarantee that.
        """
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        return self._match_schema(query, schema, delta_max)

    def check_capacity(self, count: int, delta_max: float) -> None:
        """Raise when an answer count exceeds ``max_answers``."""
        if count > self.max_answers:
            raise MatchingError(
                f"matcher {self.name!r} exceeded max_answers="
                f"{self.max_answers} at δ={delta_max}; lower the "
                "threshold or raise the limit"
            )

    def assemble(
        self,
        query: Schema,
        repository: SchemaRepository,
        pair_results: dict[str, list[tuple[tuple[int, ...], float]]],
        delta_max: float,
    ) -> AnswerSet:
        """Answer set from per-schema :meth:`match_pair` results.

        Files the non-empty pair results in repository order as the
        column groups of the answer set — one ``{target_ids: score}``
        group per (query id, schema id) — so any producer of complete
        ``{schema_id: pair result}`` maps (:meth:`match` and the sharded
        pipeline) yields the identical answer set.  No
        :class:`~repro.matching.mapping.Mapping` is built until a caller
        reads the answers (see :mod:`repro.core.answers`).
        """
        query_id = query.schema_id
        runs = []
        total = 0
        for schema in repository:
            results = pair_results[schema.schema_id]
            if results:
                runs.append((*Mapping._group(query_id, schema), results))
                total += len(results)
        self.check_capacity(total, delta_max)
        return AnswerSet._columns(runs, Mapping._locate)

    def match(
        self, query: Schema, repository: SchemaRepository, delta_max: float
    ) -> AnswerSet:
        """Answer set ``A^δmax`` for the query over the whole repository."""
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        self.prepare(repository)
        self.begin_query(query)
        pair_results: dict[str, list[tuple[tuple[int, ...], float]]] = {}
        count = 0
        for schema in repository:
            result = self.match_pair(query, schema, delta_max)
            count += len(result)
            self.check_capacity(count, delta_max)
            pair_results[schema.schema_id] = result
        return self.assemble(query, repository, pair_results, delta_max)

    def batch_match(
        self,
        queries: Sequence[Schema],
        repository: SchemaRepository,
        delta_max: float,
        *,
        workers: int | None = None,
        shards: int | None = None,
        executor: object | None = None,
        cache: object | None = None,
    ) -> list[AnswerSet]:
        """Answer sets for many queries via the sharded matching pipeline.

        ``workers`` worker processes fan the per-(query, shard) searches
        out (``None`` uses the module default set by
        :func:`repro.matching.pipeline.configure`; 1 is a deterministic
        serial fallback).  ``shards`` controls repository partitioning
        (default: one shard per worker) and ``executor`` the transport
        (see :class:`~repro.matching.pipeline.MatchingPipeline`).
        Results are identical to
        ``[self.match(q, repository, delta_max) ...]`` regardless of
        workers/shards/executor.  ``cache`` accepts only ``None`` or
        ``False`` (:func:`~repro.matching.pipeline.reject_cache`).
        """
        from repro.matching.pipeline import MatchingPipeline, reject_cache

        reject_cache(cache)
        pipeline = MatchingPipeline(
            self, workers=workers, shards=shards, executor=executor
        )
        return pipeline.run(queries, repository, delta_max).answer_sets

    def batch_rematch(
        self,
        queries: Sequence[Schema],
        repository: SchemaRepository,
        delta_max: float,
        *,
        previous: "PipelineResult",
        report: "DeltaReport",
        workers: int | None = None,
        shards: int | None = None,
        executor: object | None = None,
    ) -> list[AnswerSet]:
        """Incremental :meth:`batch_match` after a repository delta.

        ``previous`` is the :class:`~repro.matching.pipeline
        .PipelineResult` of the last run against the delta's old
        repository and ``report`` the
        :class:`~repro.schema.delta.DeltaReport` from
        :meth:`~repro.schema.repository.SchemaRepository.apply`; only
        searches the delta can affect re-run, and the answer sets are
        byte-identical to a cold ``batch_match`` against ``repository``.
        For a stateful wrapper that tracks the previous result and
        repository across a whole delta stream, use
        :class:`~repro.matching.evolution.EvolutionSession`.
        """
        from repro.matching.pipeline import MatchingPipeline

        pipeline = MatchingPipeline(
            self, workers=workers, shards=shards, executor=executor
        )
        return pipeline.rematch(
            queries, repository, delta_max, previous=previous, report=report
        ).answer_sets

    def check_compatible(self, other: "Matcher") -> None:
        """Verify this matcher shares the objective function with another."""
        self.objective.check_same_as(other.objective)

    def describe(self) -> dict[str, object]:
        """System description for experiment records."""
        return {"system": self.name, "objective": self.objective.fingerprint()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
