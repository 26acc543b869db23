"""Sharded, parallel repository matching.

The paper's cost driver is the per-schema mapping search: matching one
query against a repository is ``|repository|`` independent
:meth:`~repro.matching.base.Matcher.match_pair` calls.  This module
exploits that independence two ways:

* **Sharding** — :func:`shard_repository` partitions the repository
  deterministically (round robin) into sub-repositories.
* **Fan-out** — :class:`MatchingPipeline` hands each (query, shard)
  unit to the executor its caller passed; the default
  :class:`~repro.matching.executor.SerialExecutor` runs them in this
  process, with no multiprocessing involved.

Results are **identical to serial matching** by construction: the
matcher ``prepare()``s on the *full* repository before sharding (so
repository-global state such as clustering is unaffected), per-pair
results are reassembled in repository order, and mapping scores are
rounded by the shared objective, so process boundaries cannot introduce
drift.  Units complete in any order; the final :class:`PipelineResult`
is order-independent.

Two further mechanisms ride on the same per-pair decomposition:

* **Pluggable transports** — *where* units run is delegated to a
  :class:`~repro.matching.executor.ShardExecutor`: serial in-process,
  the shared persistent worker pool with one-shot state install
  (:mod:`repro.matching.executor`), or remote socket workers
  (:mod:`repro.matching.remote`).  Successive runs with the same
  matcher/repository/query identity — a threshold sweep, repeated
  experiments — reuse live workers and pickle nothing but indices and
  thresholds (:func:`~repro.matching.executor.shutdown_workers` tears
  the shared pool down).
* **Incremental re-matching** — :meth:`MatchingPipeline.rematch` takes
  a previous :class:`PipelineResult` plus a
  :class:`~repro.schema.delta.DeltaReport` and re-runs only the
  searches a repository delta can actually affect, with byte-identical
  output (see :mod:`repro.matching.evolution` for the stateful
  session API).

The pipeline holds no process-wide settings: its executor and shard
count are values its caller passes, defaulting to serial execution with
one shard per unit of the executor's width.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.answers import AnswerSet
from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.engine import threshold_unreachable
from repro.matching.executor import (
    ExecutionState,
    PairResult,
    SerialExecutor,
    ShardExecutor,
    WorkUnit,
    matcher_fingerprint,
)
from repro.schema.delta import DeltaReport
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository

__all__ = [
    "MatchingPipeline",
    "PipelineResult",
    "PipelineStats",
    "RematchStats",
    "reject_cache",
    "shard_repository",
]


def reject_cache(cache: object) -> None:
    """Refuse any ``cache`` argument but the off values ``None``/``False``.

    The per-pair candidate cache is gone; :meth:`Matcher.batch_match
    <repro.matching.base.Matcher.batch_match>`,
    :func:`~repro.evaluation.validation.run_system` and
    :func:`~repro.matching.registry.replica_group` still accept the
    argument so callers that switched the cache off keep working.
    """
    if cache is not None and cache is not False:
        raise MatchingError(
            "the candidate cache was removed; pass no cache argument "
            f"(got cache={cache!r})"
        )


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

def shard_repository(
    repository: SchemaRepository, num_shards: int
) -> list[SchemaRepository]:
    """Partition a repository into at most ``num_shards`` sub-repositories.

    Round-robin by repository order, so shard sizes differ by at most
    one schema and the partition is deterministic.  Shard ids are
    ``<repository_id>#<i>/<n>``; every schema appears in exactly one
    shard.
    """
    if num_shards < 1:
        raise MatchingError(f"num_shards must be >= 1, got {num_shards!r}")
    schemas = repository.schemas()
    num_shards = min(num_shards, len(schemas))
    return [
        SchemaRepository(
            f"{repository.repository_id}#{index}/{num_shards}",
            schemas[index::num_shards],
        )
        for index in range(num_shards)
    ]


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineStats:
    """Execution record of one pipeline run (``width``: the executor's)."""

    width: int
    shards: int
    queries: int
    pairs_total: int = 0
    wall_seconds: float = 0.0


@dataclass
class RematchStats:
    """Execution record of one incremental re-match (see ``rematch``).

    ``pairs_reused`` were carried over from the previous run unchanged,
    ``pairs_skipped`` are delta-changed pairs proven empty by the static
    admissible bound (no search ran), ``pairs_recomputed`` actually
    searched.  ``queries_touched`` counts queries for which at least one
    search re-ran.  ``full_recompute`` is set when the matcher carries
    repository-global state (``pair_local`` false) and the whole run had
    to be repeated.
    """

    queries: int
    pairs_total: int = 0
    pairs_reused: int = 0
    pairs_skipped: int = 0
    pairs_recomputed: int = 0
    queries_touched: int = 0
    #: previous AnswerSet objects adopted wholesale because the delta
    #: provably contributed no pair to them (changed and removed schemas
    #: all empty for that query, before and after)
    answer_sets_reused: int = 0
    full_recompute: bool = False
    wall_seconds: float = 0.0


@dataclass
class PipelineResult:
    """Per-query answer sets plus the run's execution statistics.

    ``pair_results`` retains every per-(query, schema) search result in
    plain ``(target_ids, score)`` form — the state incremental
    re-matching (:meth:`MatchingPipeline.rematch`,
    :class:`~repro.matching.evolution.EvolutionSession`) reuses after a
    repository delta.  ``repository_digest``/``query_digests``/
    ``delta_max`` identify what the results were computed against, so a
    re-match can refuse mismatched inputs.  ``rematch`` is set only on
    results produced incrementally.
    """

    answer_sets: list[AnswerSet]
    stats: PipelineStats
    pair_results: list[dict[str, PairResult]] = field(default_factory=list)
    repository_digest: str = ""
    query_digests: tuple[str, ...] = ()
    matcher_key: str = ""
    delta_max: float = 0.0
    rematch: RematchStats | None = None


class MatchingPipeline:
    """Shard → fan out → reassemble, for one matcher.

    ``executor`` is the transport units run on (``None`` =
    :class:`~repro.matching.executor.SerialExecutor`, in this process) —
    e.g. a :class:`~repro.matching.executor.ProcessPoolShardExecutor`,
    or a :class:`~repro.matching.remote.RemoteShardExecutor` that fans
    the same units out to socket workers on other nodes.  ``shards`` is
    the number of repository partitions (``None`` = one per unit of the
    executor's :attr:`~repro.matching.executor.ShardExecutor.width`,
    read at every run).
    """

    def __init__(
        self,
        matcher: Matcher,
        *,
        executor: ShardExecutor | None = None,
        shards: int | None = None,
    ):
        if shards is not None and shards < 1:
            raise MatchingError(f"shards must be >= 1, got {shards!r}")
        self.matcher = matcher
        self.executor = executor if executor is not None else SerialExecutor()
        self.shards = shards

    # -- execution ----------------------------------------------------------

    def run(
        self,
        queries: Sequence[Schema],
        repository: SchemaRepository,
        delta_max: float,
    ) -> PipelineResult:
        """Match every query against the repository; order-deterministic.

        Prepares the matcher on the full repository, hands one unit per
        (query, shard) to the executor and reassembles the per-pair
        results in repository order, so the answer sets are identical
        to serial :meth:`Matcher.match` output for any worker/shard
        count and any unit completion order.  The matcher is shipped
        *after* ``prepare()``, so repository-global state (e.g.
        clusters) rides along; stateful transports (the shared pool,
        remote workers) install that state one-shot and reuse it across
        runs while its state key matches.
        """
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        queries = list(queries)
        started = perf_counter()
        executor = self.executor
        width = executor.width
        stats = PipelineStats(
            width=width,
            shards=0,
            queries=len(queries),
            pairs_total=len(queries) * len(repository),
        )
        matcher = self.matcher
        collected: list[dict[str, PairResult]] = [{} for _ in queries]
        units: list[WorkUnit] = []
        if queries:
            matcher.prepare(repository)
            shards = shard_repository(
                repository, self.shards if self.shards is not None else width
            )
            stats.shards = len(shards)
            units = [
                WorkUnit(
                    query_index,
                    shard_index,
                    tuple(schema.schema_id for schema in shard),
                )
                for query_index in range(len(queries))
                for shard_index, shard in enumerate(shards)
            ]
        if units:
            state = ExecutionState.build(matcher, queries, repository)
            for unit, pairs in executor.execute(state, units, delta_max):
                collected[unit.query_index].update(pairs)
        answer_sets = [
            matcher.assemble(query, repository, by_schema, delta_max)
            for query, by_schema in zip(queries, collected)
        ]
        stats.wall_seconds = perf_counter() - started
        return PipelineResult(
            answer_sets=answer_sets,
            stats=stats,
            pair_results=collected,
            repository_digest=repository.content_digest(),
            query_digests=tuple(query.content_digest() for query in queries),
            matcher_key=matcher_fingerprint(matcher),
            delta_max=delta_max,
        )

    def rematch(
        self,
        queries: Sequence[Schema],
        repository: SchemaRepository,
        delta_max: float,
        *,
        previous: PipelineResult,
        report: DeltaReport,
    ) -> PipelineResult:
        """Incremental re-match after a repository delta; byte-identical.

        ``previous`` must be the :meth:`run` (or ``rematch``) result for
        the *same* matcher, queries and threshold against the delta's
        old repository; ``report`` the
        :class:`~repro.schema.delta.DeltaReport` of applying the delta.
        Per-(query, schema) results are then **reused** for every schema
        the report lists as content-unchanged, **skipped** for changed
        schemas the static admissible bound proves empty
        (:func:`~repro.matching.engine.threshold_unreachable` — the
        branch-and-bound's own first pruning step, so nothing an actual
        search would emit is ever skipped), and **recomputed** only for
        the rest.  The reassembled answer sets are byte-identical to a
        cold ``run()`` against the new repository — property-tested for
        every matcher and delta kind.

        Matchers whose per-pair results depend on repository-global
        state (``pair_local`` false: clustering and its hybrids — any
        delta can move cluster boundaries everywhere), and objectives
        whose *scores* do (corpus-sensitive similarity backends — a
        delta moves the corpus statistics under every pair), fall back
        to a full recompute, flagged in the returned ``rematch`` stats.
        Either way, the substrate first drops the cached matrices of the
        schema versions the delta removed or replaced.

        Recomputed pairs run serially in the coordinating process: the
        changed set is small by construction (that is the point of a
        delta), so process fan-out overheads would dominate the work.  At high
        churn rates, prefer a fresh :meth:`run`.
        """
        queries = list(queries)
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        if not previous.pair_results:
            raise MatchingError(
                "rematch needs a previous result with retained pair_results "
                "(produced by MatchingPipeline.run)"
            )
        if previous.delta_max != delta_max:
            raise MatchingError(
                f"rematch threshold {delta_max!r} differs from the previous "
                f"run's {previous.delta_max!r}"
            )
        if previous.matcher_key != matcher_fingerprint(self.matcher):
            raise MatchingError(
                "previous result was computed by a differently configured "
                "matcher (fingerprints differ); rematch can only extend a "
                "run of the same system"
            )
        if previous.repository_digest != report.old_digest:
            raise MatchingError(
                "previous result was not computed against the delta's old "
                "repository (content digests differ)"
            )
        if repository.content_digest() != report.new_digest:
            raise MatchingError(
                "repository does not match the delta report's new content "
                "digest"
            )
        query_digests = tuple(query.content_digest() for query in queries)
        if query_digests != previous.query_digests:
            raise MatchingError(
                "query set differs from the previous run's (content digests "
                "do not match)"
            )

        started = perf_counter()
        matcher = self.matcher
        # Matrices are keyed by schema content, so those of the versions
        # the delta displaced can never hit again; a content-identical
        # replace keeps its digest, and with it its matrices.
        displaced = {
            schema.content_digest()
            for schema in report.removed_schemas + report.replaced_old
        }
        displaced.difference_update(
            schema.content_digest() for schema in repository
        )
        if displaced:
            matcher.objective.substrate().drop_schemas(displaced)
        rematch_stats = RematchStats(
            queries=len(queries),
            pairs_total=len(queries) * len(repository),
        )
        if not matcher.pair_local or getattr(
            matcher.objective, "corpus_sensitive", False
        ):
            # Corpus-sensitive backends re-freeze their repository-wide
            # statistics against the evolved repository, which can move
            # *every* pair's score — stored pair results for unchanged
            # schemas are as stale as a clustering matcher's boundaries.
            result = self.run(queries, repository, delta_max)
            rematch_stats.full_recompute = True
            rematch_stats.pairs_recomputed = rematch_stats.pairs_total
            rematch_stats.queries_touched = len(queries)
            rematch_stats.wall_seconds = perf_counter() - started
            result.rematch = rematch_stats
            return result

        matcher.prepare(repository)
        changed = set(report.changed)
        objective = matcher.objective
        structure_weight = objective.weights.structure
        substrate = objective.substrate()
        collected: list[dict[str, PairResult]] = []
        answer_sets: list[AnswerSet] = []
        for query_index, query in enumerate(queries):
            prior = previous.pair_results[query_index]
            by_schema: dict[str, PairResult] = {}
            began_query = False
            touched = False
            # When every changed schema contributes no pair — new result
            # empty AND old result (for replaced ids) empty — and every
            # removed schema's old result was empty too, the previous
            # AnswerSet is provably what assemble() would rebuild
            # (unchanged schemas keep their relative repository order and
            # their pair results verbatim), so it is adopted wholesale.
            reusable_answers = all(
                not prior[removed_id] for removed_id in report.removed
            )
            for schema in repository:
                schema_id = schema.schema_id
                if schema_id not in changed:
                    by_schema[schema_id] = prior[schema_id]
                    rematch_stats.pairs_reused += 1
                    continue
                if prior.get(schema_id):
                    reusable_answers = False  # replaced away a non-empty pair
                if len(schema) < len(query):
                    by_schema[schema_id] = []  # injectivity impossible
                    rematch_stats.pairs_skipped += 1
                    continue
                if threshold_unreachable(
                    substrate.matrix(query, schema).min_rest[0],
                    len(query),
                    structure_weight,
                    delta_max,
                ):
                    by_schema[schema_id] = []
                    rematch_stats.pairs_skipped += 1
                    continue
                if not began_query:
                    matcher.begin_query(query)
                    began_query = True
                result = matcher.match_pair(query, schema, delta_max)
                by_schema[schema_id] = result
                rematch_stats.pairs_recomputed += 1
                touched = True
                if result:
                    reusable_answers = False
            if touched:
                rematch_stats.queries_touched += 1
            collected.append(by_schema)
            if reusable_answers:
                answer_sets.append(previous.answer_sets[query_index])
                rematch_stats.answer_sets_reused += 1
            else:
                answer_sets.append(
                    matcher.assemble(query, repository, by_schema, delta_max)
                )
        rematch_stats.wall_seconds = perf_counter() - started
        return PipelineResult(
            answer_sets=answer_sets,
            stats=PipelineStats(
                width=1,
                shards=1,
                queries=len(queries),
                pairs_total=rematch_stats.pairs_total,
                wall_seconds=rematch_stats.wall_seconds,
            ),
            pair_results=collected,
            repository_digest=repository.content_digest(),
            query_digests=query_digests,
            matcher_key=previous.matcher_key,
            delta_max=delta_max,
            rematch=rematch_stats,
        )
