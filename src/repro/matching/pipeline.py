"""Sharded, parallel repository matching with per-pair memoisation.

The paper's cost driver is the per-schema mapping search: matching one
query against a repository is ``|repository|`` independent
:meth:`~repro.matching.base.Matcher.match_pair` calls.  This module
exploits that independence three ways:

* **Sharding** — :func:`shard_repository` partitions the repository
  deterministically (round robin) into sub-repositories.
* **Parallel fan-out** — :class:`MatchingPipeline` runs each
  (query, shard) unit in a pool of worker processes; ``workers=1`` is a
  deterministic serial fallback with no multiprocessing involved.
* **Memoisation** — a :class:`CandidateCache` (LRU) keyed by matcher
  configuration, repository content, query content and threshold stores
  every pair's ``(target_ids, score)`` list, so repeated workloads
  (top-n sweeps, threshold sweeps, the figure experiments) stop
  recomputing identical searches.

Results are **identical to serial matching** by construction: the
matcher ``prepare()``s on the *full* repository before sharding (so
repository-global state such as clustering is unaffected), per-pair
results are reassembled in repository order, and mapping scores are
rounded by the shared objective, so process boundaries cannot introduce
drift.  Per-shard results stream back as :class:`MatchIncrement` values
in completion order; the final :class:`PipelineResult` is
order-independent.

Two further mechanisms ride on the same per-pair decomposition:

* **Pluggable transports** — *where* units run is delegated to a
  :class:`~repro.matching.executor.ShardExecutor`: serial in-process,
  the shared persistent worker pool with one-shot state install
  (:mod:`repro.matching.executor`), or remote socket workers
  (:mod:`repro.matching.remote`).  Successive runs with the same
  matcher/repository/query identity — a threshold sweep, repeated
  experiments — reuse live workers and pickle nothing but indices and
  thresholds (:func:`shutdown_workers` tears the shared pool down).
* **Incremental re-matching** — :meth:`MatchingPipeline.rematch` takes
  a previous :class:`PipelineResult` plus a
  :class:`~repro.schema.delta.DeltaReport` and re-runs only the
  searches a repository delta can actually affect, with byte-identical
  output (see :mod:`repro.matching.evolution` for the stateful
  session API).

Module-level defaults (used when ``workers``/``shards``/``cache`` are
not given explicitly) are set with :func:`configure`; the CLI's
``--workers``/``--shards`` flags call it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.answers import AnswerSet
from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.engine import threshold_unreachable
from repro.matching.executor import (
    ExecutionState,
    ProcessPoolShardExecutor,
    SerialExecutor,
    ShardExecutor,
    WorkUnit,
    matcher_fingerprint,
    shutdown_workers,
)
from repro.schema.delta import DeltaReport
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository

__all__ = [
    "CacheStats",
    "CandidateCache",
    "MatchIncrement",
    "MatchingPipeline",
    "PipelineResult",
    "PipelineStats",
    "RematchStats",
    "configure",
    "default_cache",
    "matcher_fingerprint",
    "pipeline_defaults",
    "schema_digest",
    "shard_repository",
    "shutdown_workers",
]

#: one pair's search result: the ``(target_ids, score)`` list of
#: :meth:`~repro.matching.base.Matcher.match_pair`
PairResult = list[tuple[tuple[int, ...], float]]


# ---------------------------------------------------------------------------
# Fingerprints (cache identity)
# ---------------------------------------------------------------------------

def schema_digest(schema: Schema) -> str:
    """Content hash of everything matching can observe about a schema.

    Alias for :meth:`~repro.schema.model.Schema.content_digest` — names,
    datatypes and parent/child structure; ``concept`` provenance is
    deliberately excluded (only the oracle judge reads it).  The
    repository-level counterpart,
    :meth:`~repro.schema.repository.SchemaRepository.content_digest`,
    enters every cache key because per-pair results of repository-global
    matchers (clustering) depend on all schemas, not just the pair's.
    """
    return schema.content_digest()


# ---------------------------------------------------------------------------
# Candidate cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`CandidateCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


_MISS = object()


class CandidateCache:
    """LRU memo of per-(matcher, repository, query, schema, δ) results.

    Values are the ``(target_ids, score)`` lists of
    :meth:`~repro.matching.base.Matcher.match_pair` — plain tuples, so
    entries are independent of live ``Schema`` objects and survive
    workload rebuilds (keys are content hashes, not object identities).

    ``maxsize`` counts entries (pairs), not bytes.  The cache is not
    thread-safe; the pipeline only touches it from the coordinating
    process.
    """

    def __init__(self, maxsize: int = 8192):
        if maxsize < 0:
            raise MatchingError(f"cache maxsize must be >= 0, got {maxsize!r}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, PairResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> PairResult | None:
        """The cached pair result, or ``None`` on a miss."""
        entry = self._entries.get(key, _MISS)
        if entry is _MISS:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry  # type: ignore[return-value]

    def put(self, key: Hashable, value: PairResult) -> None:
        """Store one pair result, evicting least-recently-used entries."""
        if self.maxsize == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters keep running)."""
        self._entries.clear()


# ---------------------------------------------------------------------------
# Module defaults
# ---------------------------------------------------------------------------

@dataclass
class PipelineDefaults:
    """Module-wide execution defaults (see :func:`configure`)."""

    workers: int = 1
    shards: int | None = None  # None = one shard per worker
    cache_size: int = 8192


_DEFAULTS = PipelineDefaults()
_DEFAULT_CACHE = CandidateCache(_DEFAULTS.cache_size)
_UNSET = object()


def configure(
    *,
    workers: int | None = None,
    shards: int | None | object = _UNSET,
    cache_size: int | None = None,
) -> PipelineDefaults:
    """Set process-wide pipeline defaults; omitted values are kept.

    ``workers`` is the default process count (1 = serial), ``shards``
    the default shard count (``None`` = one per worker) and
    ``cache_size`` resizes the shared default cache (entries; 0 disables
    it).  Validation is atomic: any invalid argument raises before
    *anything* is mutated, so a failed call never leaves the process
    half-configured.  Returns the resulting defaults.
    """
    global _DEFAULT_CACHE
    if workers is not None and workers < 1:
        raise MatchingError(f"workers must be >= 1, got {workers!r}")
    if shards is not _UNSET and shards is not None and shards < 1:  # type: ignore[operator]
        raise MatchingError(f"shards must be >= 1, got {shards!r}")
    new_cache = None
    if cache_size is not None:
        new_cache = CandidateCache(cache_size)  # validates maxsize
    if workers is not None:
        _DEFAULTS.workers = workers
    if shards is not _UNSET:
        _DEFAULTS.shards = shards  # type: ignore[assignment]
    if new_cache is not None:
        _DEFAULT_CACHE = new_cache
        _DEFAULTS.cache_size = cache_size
    return _DEFAULTS


def pipeline_defaults() -> PipelineDefaults:
    """The current module-wide defaults (live object)."""
    return _DEFAULTS


def default_cache() -> CandidateCache:
    """The shared candidate cache used when ``cache`` is not given."""
    return _DEFAULT_CACHE


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

@dataclass(frozen=True)
class MatchIncrement:
    """Results of one (query, shard) unit, streamed as it completes.

    ``pair_results`` holds ``(schema_id, match_pair result)`` for every
    schema of the shard; ``from_cache`` is true when no search ran at
    all because every pair was memoised.
    """

    query_index: int
    shard_index: int
    pair_results: tuple[tuple[str, PairResult], ...]
    from_cache: bool


@dataclass
class PipelineStats:
    """Execution record of one pipeline run."""

    workers: int
    shards: int
    queries: int
    pairs_total: int = 0
    pairs_from_cache: int = 0
    increments: int = 0
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
    """Shard → fan out → stream → reassemble, for one matcher.

    Parameters mirror :meth:`Matcher.batch_match`: ``workers`` processes
    (``None`` = module default; 1 = serial in-process), ``shards``
    partitions (``None`` = one per worker), ``cache`` a
    :class:`CandidateCache` (``None`` = shared default, ``False`` =
    disabled).  ``executor`` overrides the transport units run on
    (``None`` = serial for ``workers=1``, the shared process pool
    otherwise) — e.g. a
    :class:`~repro.matching.remote.RemoteShardExecutor` fans the same
    units out to socket workers on other nodes.
    """

    def __init__(
        self,
        matcher: Matcher,
        *,
        workers: int | None = None,
        shards: int | None = None,
        cache: CandidateCache | bool | None = None,
        executor: ShardExecutor | None = None,
    ):
        defaults = pipeline_defaults()
        self.matcher = matcher
        self.workers = workers if workers is not None else defaults.workers
        if self.workers < 1:
            raise MatchingError(f"workers must be >= 1, got {self.workers!r}")
        self.shards = shards if shards is not None else defaults.shards
        if self.shards is not None and self.shards < 1:
            raise MatchingError(f"shards must be >= 1, got {self.shards!r}")
        if cache is None:
            self.cache: CandidateCache | None = default_cache()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache  # type: ignore[assignment]
        self.executor = executor
        self.last_stats: PipelineStats | None = None

    # -- execution ----------------------------------------------------------

    def run(
        self,
        queries: Sequence[Schema],
        repository: SchemaRepository,
        delta_max: float,
    ) -> PipelineResult:
        """Match every query against the repository; order-deterministic.

        Consumes the increment stream and reassembles per-pair results
        in repository order, so the resulting answer sets are identical
        to serial :meth:`Matcher.match` output for any worker/shard
        count.
        """
        queries = list(queries)
        started = perf_counter()
        collected: list[dict[str, PairResult]] = [{} for _ in queries]
        for increment in self.stream(queries, repository, delta_max):
            collected[increment.query_index].update(increment.pair_results)
        answer_sets = [
            self.matcher.assemble(query, repository, by_schema, delta_max)
            for query, by_schema in zip(queries, collected)
        ]
        stats = self.last_stats
        assert stats is not None
        stats.wall_seconds = perf_counter() - started
        return PipelineResult(
            answer_sets=answer_sets,
            stats=stats,
            pair_results=collected,
            repository_digest=repository.content_digest(),
            query_digests=tuple(schema_digest(query) for query in queries),
            matcher_key=matcher_fingerprint(self.matcher),
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

        Recomputed pairs run serially in the coordinating process and
        bypass the candidate cache: the changed set is small by
        construction (that is the point of a delta), so process fan-out
        and memoisation overheads would dominate the work.  At high
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
        query_digests = tuple(schema_digest(query) for query in queries)
        if query_digests != previous.query_digests:
            raise MatchingError(
                "query set differs from the previous run's (content digests "
                "do not match)"
            )

        started = perf_counter()
        matcher = self.matcher
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
        stats = PipelineStats(
            workers=1,
            shards=1,
            queries=len(queries),
            pairs_total=rematch_stats.pairs_total,
            increments=0,
        )
        rematch_stats.wall_seconds = perf_counter() - started
        stats.wall_seconds = rematch_stats.wall_seconds
        self.last_stats = stats
        return PipelineResult(
            answer_sets=answer_sets,
            stats=stats,
            pair_results=collected,
            repository_digest=repository.content_digest(),
            query_digests=query_digests,
            matcher_key=previous.matcher_key,
            delta_max=delta_max,
            rematch=rematch_stats,
        )

    def stream(
        self,
        queries: Sequence[Schema],
        repository: SchemaRepository,
        delta_max: float,
    ) -> Iterator[MatchIncrement]:
        """Yield per-(query, shard) increments as they complete.

        Fully-cached units are yielded first (no search runs); the rest
        arrive in completion order — deterministic serially, arbitrary
        with workers.  Callers needing a stable order should consume the
        whole stream and sort (:meth:`run` does).
        """
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        queries = list(queries)
        stats = PipelineStats(
            workers=self.workers,
            shards=0,
            queries=len(queries),
        )
        self.last_stats = stats
        if not queries:
            return
        matcher = self.matcher
        matcher.prepare(repository)
        shards = shard_repository(
            repository, self.shards if self.shards is not None else self.workers
        )
        stats.shards = len(shards)

        cache = self.cache
        if cache is not None:  # keys are only needed when memoising
            repo_digest = repository.content_digest()
            matcher_key = matcher_fingerprint(matcher)
            query_digests = [schema_digest(query) for query in queries]

        def pair_key(query_index: int, schema_id: str) -> tuple:
            return (
                matcher_key,
                repo_digest,
                query_digests[query_index],
                schema_id,
                delta_max,
            )

        # Split every (query, shard) unit into cached and missing pairs.
        pending: list[tuple[int, int, list[tuple[str, PairResult]], list[str]]] = []
        for query_index in range(len(queries)):
            for shard_index, shard in enumerate(shards):
                cached: list[tuple[str, PairResult]] = []
                missing: list[str] = []
                for schema in shard:
                    hit = (
                        cache.get(pair_key(query_index, schema.schema_id))
                        if cache is not None
                        else None
                    )
                    if hit is not None:
                        cached.append((schema.schema_id, hit))
                    else:
                        missing.append(schema.schema_id)
                stats.pairs_total += len(shard)
                stats.pairs_from_cache += len(cached)
                if missing:
                    pending.append((query_index, shard_index, cached, missing))
                else:
                    stats.increments += 1
                    yield MatchIncrement(
                        query_index, shard_index, tuple(cached), from_cache=True
                    )

        if not pending:
            return

        def record(
            query_index: int,
            shard_index: int,
            cached: list[tuple[str, PairResult]],
            computed: list[tuple[str, PairResult]],
        ) -> MatchIncrement:
            if cache is not None:
                for schema_id, result in computed:
                    cache.put(pair_key(query_index, schema_id), result)
            stats.increments += 1
            return MatchIncrement(
                query_index,
                shard_index,
                tuple(cached) + tuple(computed),
                from_cache=False,
            )

        # Hand the missing units to a transport.  The matcher is shipped
        # *after* prepare(), so repository-global state (e.g. clusters)
        # rides along; the repository's full schema table is one copy
        # shared by all shards.  Stateful transports (the shared pool,
        # remote workers) install this bundle one-shot and reuse it
        # across runs while the state key matches.
        state = ExecutionState.build(matcher, queries, repository)
        units = [
            WorkUnit(query_index, shard_index, tuple(missing))
            for query_index, shard_index, _, missing in pending
        ]
        cached_by_unit = {
            (query_index, shard_index): cached
            for query_index, shard_index, cached, _ in pending
        }
        executor = self.executor
        if executor is None:
            executor = (
                SerialExecutor()
                if self.workers == 1
                else ProcessPoolShardExecutor(self.workers)
            )
        for unit, computed in executor.execute(state, units, delta_max):
            yield record(
                unit.query_index,
                unit.shard_index,
                cached_by_unit[(unit.query_index, unit.shard_index)],
                computed,
            )
