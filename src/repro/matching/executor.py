"""Shard executors: pluggable fan-out transports for the matching pipeline.

The sharded pipeline (:mod:`repro.matching.pipeline`) decomposes a
batch-matching run into (query, shard) **work units** — each unit is a
handful of :meth:`~repro.matching.base.Matcher.match_pair` calls, fully
described by a query index, a tuple of schema ids and the threshold.
*Where* those units run is a transport decision, not a matching one, so
it lives behind the :class:`ShardExecutor` interface:

* :class:`SerialExecutor` — units run in the calling process, in order;
  the deterministic fallback with no pickling involved.
* :class:`ProcessPoolShardExecutor` — the default fan-out: a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers hold
  the run's state (matcher, queries, the repository's schema table)
  installed **one-shot** through the pool initializer and reuse it
  while the :attr:`ExecutionState.state_key` stays the same.
* :class:`~repro.matching.remote.RemoteShardExecutor` — the same unit
  protocol over length-prefixed, digest-framed sockets, so shards run
  on remote nodes (see :mod:`repro.matching.remote`).

Every executor receives the same :class:`ExecutionState` and must hand
back, for each unit, the exact ``(schema_id, match_pair result)`` list
the serial path would produce — transports move bytes, never answers,
so the pipeline's byte-identity contract holds for any executor.

The pool's module-level lifecycle (:func:`shutdown_workers`) and the
state-key recipe (:meth:`ExecutionState.build`, over
:func:`matcher_fingerprint`) live here; :mod:`repro.matching.pipeline`
re-exports both functions for backwards compatibility.  Workers mirror
no process-wide settings: every process runs the same code paths
(numpy availability may differ, which by the vector layer's contract
changes no answer), so the installed state is all a worker holds.
"""

from __future__ import annotations

import abc
import atexit
import pickle
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.matching.base import Matcher
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository

__all__ = [
    "ExecutionState",
    "ProcessPoolShardExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "WorkUnit",
    "clone_worker_state",
    "matcher_fingerprint",
    "shutdown_workers",
]

#: one pair's search result, as in :mod:`repro.matching.pipeline`
PairResult = list[tuple[tuple[int, ...], float]]


def matcher_fingerprint(matcher: Matcher) -> str:
    """Configuration identity of a matcher, for cache and state keys.

    :meth:`Matcher.describe` covers the system name, its parameters and
    the objective fingerprint — which itself folds in the thesaurus
    content digest (:meth:`NameSimilarity.fingerprint`), so same-size,
    different-content thesauri cannot collide here.
    """
    description = sorted(
        (key, repr(value)) for key, value in matcher.describe().items()
    )
    return repr(description)


@dataclass(frozen=True)
class WorkUnit:
    """One (query, shard) unit of fan-out work.

    ``schema_ids`` are the shard's schemas still to search (the pipeline
    strips cached pairs before building units), referencing the
    installed schema table so a unit submission carries only scalars.
    """

    query_index: int
    shard_index: int
    schema_ids: tuple[str, ...]


@dataclass
class ExecutionState:
    """Everything a worker must hold before units can run.

    ``matcher`` arrives already ``prepare()``d on ``repository`` (so
    repository-global state such as clusters rides along), ``queries``
    and ``schema_table`` are the shared lookup tables units index into,
    and ``state_key`` identifies the whole bundle — executors that keep
    live workers (pool, remote) reinstall state only when it changes.
    Build it with :meth:`build`, the one owner of the key recipe.
    """

    matcher: Matcher
    queries: list[Schema]
    repository: SchemaRepository
    schema_table: dict[str, Schema]
    state_key: tuple

    @classmethod
    def build(
        cls,
        matcher: Matcher,
        queries: list[Schema],
        repository: SchemaRepository,
    ) -> "ExecutionState":
        """The state of one run, keyed by everything a worker observes.

        ``state_key`` is (matcher fingerprint, repository content
        digest, query content digests): two runs with equal keys hold
        interchangeable state, so a live worker may keep serving units
        from its installed copy.
        """
        return cls(
            matcher=matcher,
            queries=queries,
            repository=repository,
            schema_table={schema.schema_id: schema for schema in repository},
            state_key=(
                matcher_fingerprint(matcher),
                repository.content_digest(),
                tuple(query.content_digest() for query in queries),
            ),
        )


def run_unit_with(
    state: dict[str, object],
    query_index: int,
    schema_ids: Sequence[str],
    delta_max: float,
) -> list[tuple[str, PairResult]]:
    """Execute one unit against an installed worker-state dict.

    The shared worker-side inner loop of every transport: ``state`` maps
    ``matcher``/``queries``/``schemas`` (+ mutable ``active_query``
    bookkeeping) exactly as the pool initializer installs them.
    ``begin_query`` runs once per query per worker — not per shard.
    """
    matcher: Matcher = state["matcher"]  # type: ignore[assignment]
    queries: list[Schema] = state["queries"]  # type: ignore[assignment]
    schemas: dict[str, Schema] = state["schemas"]  # type: ignore[assignment]
    query = queries[query_index]
    if state.get("active_query") != query_index:
        matcher.begin_query(query)
        state["active_query"] = query_index
    return [
        (schema_id, matcher.match_pair(query, schemas[schema_id], delta_max))
        for schema_id in schema_ids
    ]


def clone_worker_state(state: dict[str, object]) -> dict[str, object]:
    """A private deep copy of one installed worker-state dict.

    Worker-side unit parallelism needs one state per concurrently
    running unit: matchers mutate per-query internals (``begin_query``
    bookkeeping, substrate caches), so two live units must never share
    a matcher.  A pickle round-trip of the install payload gives each
    slot exactly the state a fresh install would have shipped — the
    same bytes a pool worker or socket worker receives — so answers
    stay byte-identical whichever slot a unit lands on.  Mutable
    bookkeeping keys (``active_query``) are deliberately not copied:
    a clone starts as a freshly installed worker does.
    """
    payload = {key: state[key] for key in ("matcher", "queries", "schemas")}
    return pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class ShardExecutor(abc.ABC):
    """Transport contract: run work units, stream their results back.

    :meth:`execute` yields ``(unit, pair_results)`` in any order —
    deterministic serially, completion order with fan-out; the pipeline
    reassembles order-independently.  It must be *loud*: a unit that
    cannot be completed (worker crash with no healthy peer, tampered
    transport frames) raises — typically
    :class:`~repro.errors.TransportError` — never yields partial or
    unverified results.  An abandoned or failed iteration must leave no
    orphaned busy workers behind.
    """

    #: short transport name for stats/debugging
    name: str = "abstract"

    @abc.abstractmethod
    def execute(
        self,
        state: ExecutionState,
        units: Sequence[WorkUnit],
        delta_max: float,
    ) -> Iterator[tuple[WorkUnit, list[tuple[str, PairResult]]]]:
        """Run every unit; yield each with its per-schema pair results."""

    def shutdown(self) -> None:
        """Release held resources (idempotent); default holds none."""

    def status(self) -> str:
        """One operator status line for this transport.

        In-process transports have no health to report; the remote
        executor overrides this with per-worker breaker states and its
        deadline/breaker counters (see
        :meth:`repro.matching.remote.RemoteShardExecutor.status`).
        """
        return f"executor {self.name}: ok"


class SerialExecutor(ShardExecutor):
    """Run units in the calling process, in submission order.

    Uses the state's live matcher directly — no pickling, shared
    repository-global state, deterministic unit order.  This is the
    ``workers=1`` path the parallel transports are differential-tested
    against.
    """

    name = "serial"

    def execute(self, state, units, delta_max):
        # plain dict mirror of the pool's worker state; ``active_query``
        # tracking gives one begin_query per query (units arrive grouped)
        local = {
            "matcher": state.matcher,
            "queries": state.queries,
            "schemas": state.schema_table,
        }
        for unit in units:
            yield unit, run_unit_with(
                local, unit.query_index, unit.schema_ids, delta_max
            )


# ---------------------------------------------------------------------------
# The default process-pool transport
# ---------------------------------------------------------------------------

# Initialised once per worker process; tasks then reference queries and
# schemas by index/id so each task submission pickles only a few scalars.
_WORKER_STATE: dict[str, object] | None = None


def _init_worker(
    matcher: Matcher,
    queries: list[Schema],
    schemas: dict[str, Schema],
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {"matcher": matcher, "queries": queries, "schemas": schemas}


def _run_unit(
    query_index: int, schema_ids: tuple[str, ...], delta_max: float
) -> list[tuple[str, PairResult]]:
    """Execute one (query, shard) unit inside a pool worker process."""
    assert _WORKER_STATE is not None, "worker initializer did not run"
    return run_unit_with(_WORKER_STATE, query_index, schema_ids, delta_max)


@dataclass
class _WorkerPool:
    """A live executor plus the identity of the state its workers hold."""

    executor: ProcessPoolExecutor
    max_workers: int
    state_key: tuple


_POOL: _WorkerPool | None = None


def shutdown_workers() -> None:
    """Tear down the shared worker pool (idempotent; re-created on demand).

    Registered via :mod:`atexit`; tests that must not leak processes can
    call it directly.
    """
    global _POOL
    if _POOL is not None:
        _POOL.executor.shutdown()
        _POOL = None


atexit.register(shutdown_workers)


def _acquire_pool(max_workers: int, state: ExecutionState) -> ProcessPoolExecutor:
    """The shared worker pool, (re)initialised only when the state changed.

    The matcher, the query list and the repository's schema table are
    installed **one-shot per worker process** through the pool
    initializer; while ``state.state_key`` — matcher fingerprint,
    repository and query content digests — stays the same, later
    pipeline runs (a threshold sweep, repeated experiments)
    reuse the live processes and re-pickle *nothing*: tasks carry only
    indices, schema ids and the threshold.  Before this, every run
    spawned a fresh pool and re-shipped the full repository and matcher
    state, which dominated wall-clock on large repositories.
    """
    global _POOL
    if (
        _POOL is not None
        and _POOL.max_workers == max_workers
        and _POOL.state_key == state.state_key
    ):
        return _POOL.executor
    shutdown_workers()
    executor = ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_init_worker,
        initargs=(state.matcher, state.queries, state.schema_table),
    )
    _POOL = _WorkerPool(executor, max_workers, state.state_key)
    return executor


class ProcessPoolShardExecutor(ShardExecutor):
    """Fan units out over the shared persistent worker-process pool.

    The default parallel transport (``workers > 1``).  All instances
    share one module-level pool — reuse across runs is keyed purely by
    ``state_key``, so two pipelines over the same state never respawn
    processes.
    """

    name = "pool"

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def execute(self, state, units, delta_max):
        def submit_all(pool: ProcessPoolExecutor) -> dict:
            return {
                pool.submit(
                    _run_unit, unit.query_index, unit.schema_ids, delta_max
                ): unit
                for unit in units
            }

        pool = _acquire_pool(self.max_workers, state)
        try:
            futures = submit_all(pool)
        except (BrokenProcessPool, RuntimeError):
            # A worker died (or the pool was shut down) since the last
            # run; rebuild once and retry.
            shutdown_workers()
            pool = _acquire_pool(self.max_workers, state)
            futures = submit_all(pool)
        try:
            for future in as_completed(futures):
                yield futures[future], future.result()
        except GeneratorExit:
            # The consumer abandoned the stream: cancel what has not
            # started so the pool goes idle (and stays warm) instead of
            # grinding through orphaned units.
            for future in futures:
                future.cancel()
            raise
        except BaseException:
            # A coordinator-side exception mid-sweep (typically a unit
            # raising inside a worker).  Cancel the rest *and* retire
            # the pool: its workers may hold poisoned state, and pooled
            # processes left busy behind an exception leak across tests
            # as pure CI slowdown.
            for future in futures:
                future.cancel()
            shutdown_workers()
            raise

    def shutdown(self) -> None:
        shutdown_workers()
