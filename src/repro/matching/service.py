"""Persistent matching service: async single-query serving over asyncio.

Everything below this layer is batch-shaped: the pipeline wants many
queries at once, the evolution session wants a fixed query set, and a
process restart forgets all of it.  Production traffic is the opposite —
single-query requests arriving concurrently against a repository that
keeps evolving, from a process that must come back fast after a restart.
:class:`MatchingService` is the adapter:

* **Micro-batching** — concurrent :meth:`MatchingService.match` calls
  park on futures; a dispatcher coalesces everything pending (optionally
  waiting ``max_delay`` seconds for stragglers), dedupes identical
  queries by content digest, and dispatches the distinct ones in chunks
  of ``max_batch`` through the session's
  :class:`~repro.matching.pipeline.MatchingPipeline` — the exact engine
  behind :meth:`~repro.matching.base.Matcher.batch_match`, on whichever
  executor the service was given.
* **Retained-state serving** — every answered query's pair results stay
  in the session, so a repeated query is answered from memory without
  any search, and repository deltas re-match all retained queries
  incrementally (:meth:`MatchingService.apply_delta` →
  :meth:`EvolutionSession.apply`, the ``batch_rematch`` path).
* **Snapshot lifecycle** — given a snapshot store, :meth:`start`
  warm-starts from disk in O(load) (repository, substrate, retained
  results — all integrity- and fingerprint-checked, failing loudly on
  any mismatch), and :meth:`checkpoint` / ``checkpoint_every`` write the
  current state back, so the next process restart skips the cold start.

The contract the serving tests enforce for all five matchers: **every
answer the service returns — before and after live deltas — is
byte-identical to the offline** ``batch_match`` / ``batch_rematch``
**path.**  The service adds scheduling, never arithmetic: state
transitions (micro-batch matching, delta application, checkpointing)
serialize on one lock, so each answer reflects exactly one repository
version, computed by the same pipeline code the offline path runs.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path

from repro.core.answers import AnswerSet
from repro.errors import MatchingError, SnapshotError
from repro.matching.base import Matcher
from repro.matching.evolution import EvolutionSession
from repro.matching.executor import ShardExecutor
from repro.matching.similarity.persist import load_snapshot, save_snapshot
from repro.schema.delta import DeltaReport, RepositoryDelta
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository
from repro.schema.store import SnapshotStore

__all__ = ["MatchingService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Execution counters of one :class:`MatchingService`."""

    #: requests accepted by :meth:`MatchingService.match`
    requests: int = 0
    #: requests answered from retained state (no search ran)
    served_from_state: int = 0
    #: requests merged into an in-flight duplicate of the same content
    coalesced: int = 0
    #: micro-batches dispatched through the pipeline
    batches: int = 0
    #: distinct queries matched across all micro-batches
    batched_queries: int = 0
    #: largest single micro-batch dispatched
    max_batched: int = 0
    #: repository deltas applied live
    deltas_applied: int = 0
    #: snapshots written by checkpointing
    checkpoints_written: int = 0
    #: true when :meth:`start` restored state from a snapshot
    warm_start: bool = False


class MatchingService:
    """Async front-end over one matcher, one threshold, one repository.

    Parameters
    ----------
    matcher, delta_max:
        The system and threshold every request is answered under.
    store:
        Optional snapshot location (path or
        :class:`~repro.schema.store.SnapshotStore`).  :meth:`start`
        warm-starts from it when it holds a snapshot; :meth:`checkpoint`
        writes back to it.
    max_batch:
        Most distinct queries dispatched in one pipeline run.
    max_delay:
        Seconds the dispatcher waits for more requests before
        dispatching a non-full micro-batch (0 = dispatch whatever one
        event-loop tick accumulated).
    executor, shards:
        Forwarded to the underlying
        :class:`~repro.matching.pipeline.MatchingPipeline`: the shard
        transport (default serial; e.g. a
        :class:`~repro.matching.remote.RemoteShardExecutor`) and the
        partition count (default one per unit of its width).
    checkpoint_every:
        Write a snapshot automatically after every N applied deltas
        (``None`` = only on explicit :meth:`checkpoint`).
    """

    def __init__(
        self,
        matcher: Matcher,
        delta_max: float,
        *,
        store: SnapshotStore | str | Path | None = None,
        max_batch: int = 32,
        max_delay: float = 0.0,
        executor: ShardExecutor | None = None,
        shards: int | None = None,
        checkpoint_every: int | None = None,
    ):
        if delta_max < 0:
            raise MatchingError(f"delta_max must be >= 0, got {delta_max!r}")
        if max_batch < 1:
            raise MatchingError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_delay < 0:
            raise MatchingError(f"max_delay must be >= 0, got {max_delay!r}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise MatchingError(
                f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
            )
        self.matcher = matcher
        self.delta_max = delta_max
        self.store = (
            store
            if store is None or isinstance(store, SnapshotStore)
            else SnapshotStore(store)
        )
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.checkpoint_every = checkpoint_every
        self.stats = ServiceStats()
        self._pipeline_options = {"executor": executor, "shards": shards}
        self._session: EvolutionSession | None = None
        self._repository: SchemaRepository | None = None
        self._by_digest: dict[str, int] = {}
        self._pending: list[tuple[Schema, asyncio.Future]] = []
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._lock: asyncio.Lock | None = None
        self._stopping = False

    # -- state accessors -----------------------------------------------------

    @property
    def repository(self) -> SchemaRepository:
        """The repository version requests are currently answered against."""
        if self._repository is None:
            raise MatchingError("service has no repository yet; call start()")
        return self._repository

    @property
    def retained_queries(self) -> list[Schema]:
        """Every distinct query the service has answered (serving state)."""
        return list(self._session.queries) if self._session else []

    @property
    def started(self) -> bool:
        return self._task is not None

    def status(self) -> str:
        """One operator status line: service state + the executor's.

        The single-service face of the graceful-degradation surface
        (``repro-bounds serve --status``); :meth:`ReplicaGroup.status
        <repro.matching.replication.ReplicaGroup.status>` is the
        replicated one.
        """
        if not self.started:
            line = "service: stopped"
        else:
            line = (
                f"service: up, {self.stats.requests} requests, "
                f"{self.stats.deltas_applied} deltas, "
                f"{len(self._pending)} pending"
            )
        executor = self._pipeline_options.get("executor")
        if executor is not None:
            line += " | " + executor.status()
        return line

    # -- lifecycle -----------------------------------------------------------

    async def start(self, repository: SchemaRepository | None = None) -> None:
        """Bring the service up: warm from the store, or cold on ``repository``.

        When the store holds a snapshot, the repository, substrate and
        retained results are restored from it — any corruption, format
        drift or fingerprint mismatch raises
        :class:`~repro.errors.SnapshotError` (never a silent cold
        start), and a ``repository`` argument, if also given, must be
        content-identical to the snapshot's.  Without a snapshot,
        ``repository`` is required and the service cold-starts (one
        ``prepare`` pass, no matching until requests arrive).

        Starting after a :meth:`stop` begins a **fresh run**: retained
        serving state and the stats counters reset, so a restart onto a
        different repository can never serve answers computed against
        the previous one (state that should survive restarts is exactly
        what the snapshot store persists).
        """
        if self._task is not None:
            raise MatchingError("service is already started")
        self._session = None
        self._repository = None
        self._by_digest = {}
        self.stats = ServiceStats()
        loop = asyncio.get_running_loop()
        if self.store is not None and self.store.exists():
            # load off the event loop, like checkpoint/apply_delta — a
            # large snapshot must not stall co-hosted coroutines
            snapshot = await loop.run_in_executor(  # may raise, loudly
                None, load_snapshot, self.store, self.matcher
            )
            if (
                snapshot.result is not None
                and snapshot.result.delta_max != self.delta_max
            ):
                raise SnapshotError(
                    "snapshot retains results at "
                    f"δmax={snapshot.result.delta_max!r}; this service "
                    f"serves δmax={self.delta_max!r}"
                )
            if (
                repository is not None
                and repository.content_digest()
                != snapshot.repository.content_digest()
            ):
                raise SnapshotError(
                    "start() was given a repository that differs from the "
                    "snapshot's (content digests differ); drop one of the "
                    "two sources of truth"
                )
            self._repository = snapshot.repository
            if snapshot.result is not None:
                self._session = EvolutionSession.from_state(
                    self.matcher,
                    snapshot.repository,
                    snapshot.result,
                    snapshot.queries,
                    **self._pipeline_options,
                )
                self._by_digest = {
                    digest: index
                    for index, digest in enumerate(
                        snapshot.result.query_digests
                    )
                }
            self.stats.warm_start = True
        elif repository is not None:
            self._repository = repository
            await loop.run_in_executor(None, self.matcher.prepare, repository)
        else:
            raise MatchingError(
                "cold start needs a repository (the store holds no snapshot)"
            )
        self._stopping = False
        self._wake = asyncio.Event()
        self._lock = asyncio.Lock()
        self._task = loop.create_task(self._dispatch())

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the dispatcher (idempotent); by default, drain first.

        With ``drain`` (the default), one event-loop tick of grace lets
        requests that were already scheduled (e.g. via
        ``ensure_future``) enqueue before the accept-gate closes;
        everything pending at that point is answered before the
        dispatcher exits — no request future is ever dropped.

        With ``drain=False`` — a replica leaving its group, an
        emergency teardown — nothing more is answered: every queued
        request future fails with
        :class:`~repro.errors.MatchingError` immediately.  Futures
        still fail loudly rather than hang; they are just not served.
        """
        if self._task is None:
            return
        if drain:
            await asyncio.sleep(0)  # grace tick for already-scheduled match()es
        else:
            pending, self._pending = self._pending, []
            for _query, future in pending:
                if not future.done():
                    future.set_exception(
                        MatchingError("service stopped without draining")
                    )
        self._stopping = True
        self._wake.set()
        await self._task
        self._task = None

    # -- serving -------------------------------------------------------------

    async def match(self, query: Schema) -> AnswerSet:
        """The answer set ``A^δmax`` for one query — the serving entry point.

        Requests arriving concurrently are micro-batched; identical
        queries (by content digest) are answered once and shared.  The
        returned answer set is byte-identical to
        ``matcher.batch_match([query], service.repository, δmax)``.
        """
        if self._task is None or self._stopping:
            raise MatchingError("service is not accepting requests")
        future = asyncio.get_running_loop().create_future()
        self._pending.append((query, future))
        self.stats.requests += 1
        self._wake.set()
        return await future

    async def _dispatch(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if (
                self.max_delay > 0
                and not self._stopping
                and len(self._pending) < self.max_batch
            ):
                await asyncio.sleep(self.max_delay)  # coalescing window
            batch, self._pending = self._pending, []
            if batch:
                try:
                    await self._process(batch)
                except Exception as exc:  # noqa: BLE001 - keep dispatching
                    # the dispatcher must survive anything one batch
                    # throws: fail that batch's futures, serve the next
                    for _query, future in batch:
                        if not future.done():
                            future.set_exception(exc)
            if self._stopping and not self._pending:
                return

    async def _process(
        self, batch: list[tuple[Schema, asyncio.Future]]
    ) -> None:
        async with self._lock:
            fresh: dict[str, Schema] = {}
            waiting: dict[str, list[asyncio.Future]] = {}
            for query, future in batch:
                if future.done():
                    continue
                try:
                    digest = query.content_digest()
                except Exception as exc:  # noqa: BLE001 - bad request
                    # a malformed request fails its own future; it must
                    # never take the dispatcher (and every later
                    # request) down with it
                    future.set_exception(exc)
                    continue
                index = self._by_digest.get(digest)
                if index is not None:
                    future.set_result(self._session.answer_sets[index])
                    self.stats.served_from_state += 1
                    continue
                if digest in fresh:
                    self.stats.coalesced += 1
                else:
                    fresh[digest] = query
                waiting.setdefault(digest, []).append(future)
            digests = list(fresh)
            for chunk_start in range(0, len(digests), self.max_batch):
                chunk = digests[chunk_start:chunk_start + self.max_batch]
                queries = [fresh[digest] for digest in chunk]
                try:
                    answers = await asyncio.get_running_loop().run_in_executor(
                        None, self._match_new, queries
                    )
                except Exception as exc:  # noqa: BLE001 - fail the waiters
                    for digest in chunk:
                        for future in waiting[digest]:
                            if not future.done():
                                future.set_exception(exc)
                    continue
                self.stats.batches += 1
                self.stats.batched_queries += len(queries)
                self.stats.max_batched = max(
                    self.stats.max_batched, len(queries)
                )
                for digest, answer in zip(chunk, answers):
                    for future in waiting[digest]:
                        if not future.done():
                            future.set_result(answer)

    def _match_new(self, queries: list[Schema]) -> list[AnswerSet]:
        """Match a chunk of unseen queries; extends the retained session."""
        if self._session is None:
            # adopt the session only once its baseline match succeeded —
            # a failed first batch must leave the service fresh, not
            # wedged on a session that has no result
            session = EvolutionSession(
                self.matcher, queries, self.delta_max,
                **self._pipeline_options,
            )
            answers = session.match(self._repository).answer_sets
            self._session = session
        else:
            answers = self._session.extend(queries)
        base = len(self._by_digest)
        for offset, query in enumerate(queries):
            self._by_digest[query.content_digest()] = base + offset
        return answers

    # -- evolution -----------------------------------------------------------

    async def apply_delta(self, delta: RepositoryDelta) -> DeltaReport:
        """Evolve the repository live; retained queries re-match incrementally.

        Serialized against in-flight micro-batches, so no request is
        ever answered half against the old and half against the new
        version.  Retained answers advance through
        :meth:`EvolutionSession.apply` (the ``batch_rematch`` path —
        byte-identical to a cold re-match); when ``checkpoint_every`` is
        set, every Nth delta also writes a snapshot.
        """
        if self._task is None:
            raise MatchingError("service is not started")
        async with self._lock:
            loop = asyncio.get_running_loop()
            if self._session is None:
                repository, report = self.repository.apply(delta)
                await loop.run_in_executor(
                    None, self.matcher.prepare, repository
                )
                self._repository = repository
            else:
                _result, report = await loop.run_in_executor(
                    None, self._session.apply, delta
                )
                self._repository = self._session.repository
            self.stats.deltas_applied += 1
            if (
                self.checkpoint_every is not None
                and self.store is not None
                and self.stats.deltas_applied % self.checkpoint_every == 0
            ):
                await loop.run_in_executor(None, self._write_snapshot)
            return report

    # -- snapshots -----------------------------------------------------------

    async def checkpoint(self) -> SnapshotStore:
        """Write the current state to the snapshot store."""
        if self.store is None:
            raise MatchingError("service was built without a snapshot store")
        if self._repository is None:
            raise MatchingError("service has no state to snapshot; call start()")
        async with self._lock:
            await asyncio.get_running_loop().run_in_executor(
                None, self._write_snapshot
            )
        return self.store

    def _write_snapshot(self) -> None:
        save_snapshot(
            self.store,
            self._repository,
            queries=self._session.queries if self._session else [],
            result=self._session.result if self._session else None,
            substrate=self.matcher.objective.substrate(),
        )
        self.stats.checkpoints_written += 1
