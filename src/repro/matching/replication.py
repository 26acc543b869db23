"""Replicated serving: N matching services behind one replicated delta log.

A :class:`ReplicaGroup` runs N :class:`~repro.matching.service
.MatchingService` replicas — warm-started from one shared
:class:`~repro.schema.store.SnapshotStore` or cold from one repository —
behind a round-robin front-end, and keeps them consistent through a
**sequence-numbered replicated delta log**:

* :meth:`apply_delta` applies the delta to the group's *authoritative*
  repository first, appends a :class:`DeltaRecord` (1-based, contiguous
  sequence numbers) with the resulting repository content digest, then
  delivers the record to every replica **in-line** — all deliveries
  started at once and awaited together — so when it returns, every
  replica whose delivery succeeded has applied the record;
* a delivery that raises is re-raised **once**, from that
  ``apply_delta``, after every other delivery has finished.  The failed
  replica's applied position did not advance, so it is *stale* by the
  log's own count: later records buffer behind the gap, and
  :meth:`catch_up` replays them and returns it to serving;
* :meth:`receive` is each replica's delivery endpoint, with full
  gap/duplicate discipline: a record already applied (``sequence <=
  applied``) is **ignored** (delivery may duplicate), a record from the
  future (``sequence > applied + 1``) is **buffered** (delivery may
  reorder or delay) and the replica is *stale* until the gap closes —
  buffered records drain automatically the moment the missing sequence
  arrives;
* a **stale replica refuses to serve** (:meth:`match_on` raises
  :class:`~repro.errors.ReplicationError`; the round-robin front-end
  simply skips it) because serving from an old repository version
  would break the group's acceptance property — *byte-identity of
  served answers across replicas and with the single-node offline
  path*;
* after every replica-side apply, the replica's repository digest is
  compared to the log's authoritative digest for that sequence.  A
  replica that fails the check (a corrupted delivery, a
  non-deterministic apply) is marked **diverged** and the apply raises
  :class:`~repro.errors.ReplicationError`: a diverged replica never
  serves again, takes no further records, and :meth:`catch_up` refuses
  it — :meth:`leave` it and :meth:`join` a fresh replica.

Delivery is injectable (``delivery=``) precisely so the fault-injection
harness (``tests/helpers/faults.py``) can drop, duplicate, reorder and
delay records; the default delivers immediately and in order.

Each replica needs its **own** matcher built over its **own** objective
(config-equal — fingerprints are checked — but distinct objects):
services run their pipelines on executor threads, and sharing one
similarity substrate across replicas would race.

The replicas share one event loop in one process, so the group buys
consistency checks and runtime membership, not throughput or
availability: a hung shard executor stalls every replica's re-match
alike, and its :class:`~repro.matching.remote.DeadlineBudget` — not the
group — bounds the wait.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable, Sequence

from repro.core.answers import AnswerSet
from repro.errors import MatchingError, ReplicationError
from repro.matching.base import Matcher
from repro.matching.executor import ShardExecutor, matcher_fingerprint
from repro.matching.service import MatchingService
from repro.schema.delta import DeltaReport, RepositoryDelta
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository
from repro.schema.store import SnapshotStore


__all__ = ["DeltaRecord", "ReplicaGroup", "ReplicaGroupStats"]

#: delivery hook: ``(group, replica_index, record)`` → awaitable.  The
#: default awaits ``group.receive(replica_index, record)`` immediately.
DeliveryHook = Callable[["ReplicaGroup", int, "DeltaRecord"], Awaitable[None]]


@dataclass(frozen=True)
class DeltaRecord:
    """One replicated log entry: a delta under its 1-based sequence number."""

    sequence: int
    delta: RepositoryDelta

    def __post_init__(self) -> None:
        if self.sequence < 1:
            raise ReplicationError(
                f"delta log sequences are 1-based, got {self.sequence!r}"
            )


@dataclass
class ReplicaGroupStats:
    """Counters of one group's lifetime."""

    served: int = 0
    deltas_logged: int = 0
    duplicates_ignored: int = 0
    gaps_buffered: int = 0
    catch_ups: int = 0
    digest_checks: int = 0
    #: replicas added at runtime (:meth:`ReplicaGroup.join`)
    joins: int = 0
    #: replicas removed at runtime (:meth:`ReplicaGroup.leave`)
    leaves: int = 0
    #: delivery-hook invocations that raised
    delivery_failures: int = 0


@dataclass
class _ReplicaState:
    """Everything the group tracks per replica, in one object.

    An apply in flight holds the *object*, never an index: replica
    indices shift on :meth:`ReplicaGroup.leave`, so it resolves its
    current index (via ``list.index``) only at the moment it needs one.
    """

    service: MatchingService
    #: highest contiguously applied log sequence
    applied: int = 0
    #: out-of-order future records, keyed by sequence
    buffer: dict[int, DeltaRecord] = field(default_factory=dict)
    #: the sequence whose digest check failed (0: never diverged)
    diverged: int = 0
    #: serializes applies onto this replica (delivery vs. catch_up races)
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class ReplicaGroup:
    """N warm-started service replicas + replicated delta log + front-end.

    ``matchers`` are the per-replica matchers — one each, config-equal
    (fingerprint-checked) but distinct objects over distinct objectives.
    ``store`` warm-starts every replica from the same snapshot when it
    holds one; ``delivery`` overrides how log records reach replicas
    (fault injection).  The remaining options are forwarded to each
    :class:`~repro.matching.service.MatchingService`.

    Usage::

        group = ReplicaGroup([make() for _ in range(2)], delta_max=0.3)
        await group.start(repository)
        answers = await group.match(query)       # round-robin
        await group.apply_delta(delta)           # logged + replicated
        await group.stop()
    """

    def __init__(
        self,
        matchers: Sequence[Matcher],
        delta_max: float,
        *,
        store: SnapshotStore | str | Path | None = None,
        max_batch: int = 32,
        max_delay: float = 0.0,
        executor: ShardExecutor | None = None,
        shards: int | None = None,
        delivery: DeliveryHook | None = None,
    ):
        matchers = list(matchers)
        if not matchers:
            raise ReplicationError("a replica group needs >= 1 matcher")
        fingerprints = {matcher_fingerprint(m) for m in matchers}
        if len(fingerprints) != 1:
            raise ReplicationError(
                "replica matchers are configured differently (fingerprints "
                "differ); replicas must be config-identical or their answers "
                "cannot be byte-identical"
            )
        if len({id(m.objective) for m in matchers}) != len(matchers):
            raise ReplicationError(
                "replica matchers share an objective object; each replica "
                "needs its own (similarity substrates are not shared safely "
                "across concurrently serving replicas)"
            )
        self.store = (
            store
            if store is None or isinstance(store, SnapshotStore)
            else SnapshotStore(store)
        )
        # kept for replicas built later: join() constructs its service
        # with exactly the founding replicas' pipeline options
        self._service_options = {
            "max_batch": max_batch,
            "max_delay": max_delay,
            "executor": executor,
            "shards": shards,
        }
        self._states = [
            _ReplicaState(
                MatchingService(
                    matcher,
                    delta_max,
                    store=self.store,
                    **self._service_options,
                )
            )
            for matcher in matchers
        ]
        self.delta_max = delta_max
        self.log: list[DeltaRecord] = []
        self.stats = ReplicaGroupStats()
        self._digests: list[str] = []
        self._repository: SchemaRepository | None = None
        self._base_repository: SchemaRepository | None = None
        self._next_replica = 0
        self._delivery = delivery if delivery is not None else _deliver_direct

    def __len__(self) -> int:
        return len(self._states)

    @property
    def services(self) -> list[MatchingService]:
        """The live replica services, in index order."""
        return [state.service for state in self._states]

    # -- lifecycle -----------------------------------------------------------

    async def start(self, repository: SchemaRepository | None = None) -> None:
        """Start every replica (warm from the shared store when it holds one).

        All replicas must come up on the *same* repository version —
        digest-checked here, so a half-written store or a mismatched
        cold repository cannot produce a group that is forked from the
        first request on.
        """
        warm = self.store is not None and self.store.exists()
        for state in self._states:
            await state.service.start(None if warm else repository)
        digests = {
            state.service.repository.content_digest()
            for state in self._states
        }
        if len(digests) != 1:
            await self.stop()
            raise ReplicationError(
                f"replicas started on {len(digests)} distinct repository "
                "versions; a group must start converged"
            )
        self._repository = self._states[0].service.repository
        # The log is empty at start, so the started version is the base
        # every later join() cold-starts from before replaying the log.
        self._base_repository = self._repository

    async def stop(self) -> None:
        """Stop every replica (idempotent per service)."""
        for state in self._states:
            if state.service.started:
                await state.service.stop()

    async def checkpoint(self) -> SnapshotStore:
        """Write one snapshot from the lowest-index current replica.

        Current replicas have applied the whole log and passed every
        digest check, so they are identical and any one of them holds
        the log head.  A stale replica would persist an older version
        and a diverged one its fork, so neither is written from; with no
        current replica the checkpoint raises
        :class:`~repro.errors.ReplicationError` and leaves the store as
        it was.
        """
        if self.store is None:
            raise MatchingError("replica group has no snapshot store")
        current = self.current_replicas()
        if not current:
            raise ReplicationError(
                "no replica is current with the delta log (applied: "
                f"{[state.applied for state in self._states]} of "
                f"{len(self.log)}); call catch_up() before checkpointing"
            )
        return await self._states[current[0]].service.checkpoint()

    # -- runtime membership ---------------------------------------------------

    async def join(self, matcher: Matcher) -> int:
        """Add a replica at runtime; returns its index.

        The joiner cold-starts on the group's **base** repository (the
        version every founding replica started on) and then replays the
        whole replicated log through :meth:`catch_up` — every record
        digest-checked against the authoritative digests — so it ends
        byte-identical to the founding replicas without the group ever
        pausing: no drain, no handoff, the round-robin keeps serving
        from the existing replicas while the joiner catches up.  The
        same config discipline as construction applies: the matcher
        must be fingerprint-equal to the group's and must not share an
        objective object with a live replica.
        """
        if self._base_repository is None:
            raise MatchingError("replica group not started; call start()")
        if matcher_fingerprint(matcher) != matcher_fingerprint(
            self._states[0].service.matcher
        ):
            raise ReplicationError(
                "joining matcher is configured differently from the group's "
                "(fingerprints differ); replicas must be config-identical or "
                "their answers cannot be byte-identical"
            )
        if any(
            matcher.objective is state.service.matcher.objective
            for state in self._states
        ):
            raise ReplicationError(
                "joining matcher shares an objective object with a live "
                "replica; each replica needs its own (similarity substrates "
                "are not shared safely across concurrently serving replicas)"
            )
        service = MatchingService(
            matcher,
            self.delta_max,
            store=None,  # the log replay, not a snapshot, is its truth
            **self._service_options,
        )
        await service.start(self._base_repository)
        state = _ReplicaState(service)
        self._states.append(state)
        self.stats.joins += 1
        index = len(self._states) - 1
        await self.catch_up(index)
        return index

    async def leave(self, index: int) -> MatchingService:
        """Remove replica ``index`` at runtime, without draining.

        The slot disappears from routing, delivery and bookkeeping
        immediately, then the service is stopped **without drain**:
        requests still queued on it fail with
        :class:`~repro.errors.MatchingError` rather than being
        answered — a replica leaving mid-request refuses loudly, it
        never serves on the way out.  Replica indices above ``index``
        shift down by one (delivery hooks that script faults by index
        address the current membership).  The returned (stopped)
        service is handed back for inspection.
        """
        if not 0 <= index < len(self._states):
            raise ReplicationError(
                f"no replica at index {index} "
                f"(group has {len(self._states)})"
            )
        if len(self._states) == 1:
            raise ReplicationError(
                "cannot remove the last replica; stop() the group instead"
            )
        state = self._states.pop(index)
        self._next_replica %= len(self._states)
        self.stats.leaves += 1
        if state.service.started:
            await state.service.stop(drain=False)
        return state.service

    # -- authoritative state -------------------------------------------------

    @property
    def repository(self) -> SchemaRepository:
        """The authoritative repository (head of the delta log)."""
        if self._repository is None:
            raise MatchingError("replica group not started; call start()")
        return self._repository

    def applied(self, index: int) -> int:
        """How many log records replica ``index`` has applied."""
        return self._states[index].applied

    def current(self, index: int) -> bool:
        """Is replica ``index`` caught up with the whole log (and serving)?"""
        state = self._states[index]
        return (
            not state.diverged
            and state.applied == len(self.log)
            and not state.buffer
        )

    def current_replicas(self) -> list[int]:
        """Indices of replicas that may serve right now."""
        return [i for i in range(len(self._states)) if self.current(i)]

    def status(self) -> str:
        """One operator line: per-replica serving state + the executor's.

        The graceful-degradation surface: what an operator (or
        ``repro-bounds serve --status``) reads to see which replicas
        serve (``current``), which wait on the log (``stale``), which
        are forked for good (``diverged``), and how the shard
        transport's breakers stand.
        """
        parts = []
        for index, state in enumerate(self._states):
            if state.diverged:
                phase = "diverged"
            elif self.current(index):
                phase = "current"
            else:
                phase = "stale"
            parts.append(
                f"r{index}={phase} applied {state.applied}/{len(self.log)}"
            )
        line = (
            f"group: {len(self._states)} replicas "
            f"({len(self.current_replicas())} serving) [{', '.join(parts)}]"
        )
        executor = self._service_options.get("executor")
        if executor is not None:
            line += " | " + executor.status()
        return line

    # -- the replicated delta log --------------------------------------------

    async def apply_delta(self, delta: RepositoryDelta) -> DeltaReport:
        """Log a delta authoritatively, then deliver it to every replica.

        The authoritative repository advances first — the log entry
        records the digest every replica must reach at this sequence —
        then the record is handed to the delivery hook once per replica,
        all at once, and this call waits for every delivery.  When it
        returns, every replica whose delivery succeeded has applied (and
        digest-checked) the record.  A failed delivery is counted and
        the first one re-raised here, once: the log still holds the
        record, and the failed replica is stale — :meth:`catch_up`
        replays what it missed.
        """
        new_repository, report = self.repository.apply(delta)
        self._repository = new_repository
        record = DeltaRecord(len(self.log) + 1, delta)
        self.log.append(record)
        self._digests.append(new_repository.content_digest())
        self.stats.deltas_logged += 1
        outcomes = await asyncio.gather(
            *(
                self._delivery(self, index, record)
                for index in range(len(self._states))
            ),
            return_exceptions=True,
        )
        failures = [o for o in outcomes if isinstance(o, BaseException)]
        if failures:
            self.stats.delivery_failures += len(failures)
            raise failures[0]
        return report

    async def receive(self, index: int, record: DeltaRecord) -> None:
        """Deliver one log record to replica ``index`` (gap/dup discipline).

        Duplicates (sequence already applied) are counted and ignored;
        future records (a gap) are counted and buffered — the replica is
        stale, and :meth:`match_on` refuses it, until the missing
        records arrive and the buffer drains in sequence order.  A
        diverged replica takes no records at all.
        """
        if not 0 <= index < len(self._states):
            raise ReplicationError(
                f"delivery addressed replica {index}, but the group has "
                f"{len(self._states)} (did the membership change under a "
                "held delivery?)"
            )
        state = self._states[index]
        if state.diverged:
            raise self._diverged_error(state)
        if record.sequence <= state.applied:
            self.stats.duplicates_ignored += 1
            return
        if record.sequence > state.applied + 1:
            state.buffer[record.sequence] = record
            self.stats.gaps_buffered += 1
            return
        await self._apply_record(state, record)
        while state.applied + 1 in state.buffer:
            await self._apply_record(
                state, state.buffer.pop(state.applied + 1)
            )

    async def _apply_record(
        self, state: _ReplicaState, record: DeltaRecord
    ) -> None:
        """Apply one record, then digest-check it against the log.

        Every path — delivery, a buffered record's late drain,
        :meth:`catch_up` — goes through here, so this is where a replica
        whose repository no longer matches the log is marked diverged.
        """
        async with state.lock:
            if state.diverged:
                raise self._diverged_error(state)
            if record.sequence <= state.applied:
                # raced with a concurrent path (a delivery vs. a
                # catch_up replay of the same record): the second apply
                # is the duplicate-delivery case and is ignored
                self.stats.duplicates_ignored += 1
                return
            await state.service.apply_delta(record.delta)
            self.stats.digest_checks += 1
            expected = self._digests[record.sequence - 1]
            actual = state.service.repository.content_digest()
            if actual != expected:
                state.diverged = record.sequence
                raise ReplicationError(
                    f"replica {self._index_of(state)} diverged at sequence "
                    f"{record.sequence}: repository digest {actual} != "
                    f"authoritative {expected}"
                )
            state.applied = record.sequence

    def _index_of(self, state: _ReplicaState) -> int:
        """``state``'s current replica index, or -1 once it has left."""
        try:
            return self._states.index(state)
        except ValueError:
            return -1

    def _diverged_error(self, state: _ReplicaState) -> ReplicationError:
        return ReplicationError(
            f"replica {self._index_of(state)} diverged from the delta log "
            f"at sequence {state.diverged} and takes no further records; "
            "leave() it and join() a fresh replica"
        )

    async def catch_up(self, index: int) -> int:
        """Replay missed log records into replica ``index``; returns count.

        The recovery path after dropped or failed deliveries: everything
        past the replica's applied position is re-delivered from the
        authoritative log in order (which also drains its buffer), and
        the replica returns to serving.  A diverged replica is refused
        — its applied position stops before the record that failed the
        digest check, so the replay reaches that record and raises: its
        repository is forked, and no replay repairs that.
        """
        state = self._states[index]
        replayed = 0
        while state.applied < len(self.log):
            record = self.log[state.applied]
            state.buffer.pop(record.sequence, None)
            await self._apply_record(state, record)
            replayed += 1
        state.buffer.clear()
        if replayed:
            self.stats.catch_ups += 1
        return replayed

    # -- serving front-end ---------------------------------------------------

    async def match(self, query: Schema) -> AnswerSet:
        """Serve one query from the next current replica (round-robin).

        Stale and diverged replicas are skipped — they would serve
        answers computed against another repository version.  When
        *every* replica is behind the log, the group refuses loudly
        rather than serve a stale answer.
        """
        count = len(self._states)
        for offset in range(count):
            index = (self._next_replica + offset) % count
            if self.current(index):
                self._next_replica = (index + 1) % count
                self.stats.served += 1
                return await self._states[index].service.match(query)
        raise ReplicationError(
            f"every replica is behind the delta log (log at "
            f"{len(self.log)}, applied: "
            f"{[state.applied for state in self._states]}); deliver the "
            "missing records or call catch_up()"
        )

    async def match_on(self, index: int, query: Schema) -> AnswerSet:
        """Serve from one specific replica; refuses a stale/diverged one."""
        if not self.current(index):
            state = self._states[index]
            if state.diverged:
                raise self._diverged_error(state)
            raise ReplicationError(
                f"replica {index} is behind the delta log (applied "
                f"{state.applied} of {len(self.log)}, "
                f"{len(state.buffer)} buffered); serving would break "
                "byte-identity — call catch_up() first"
            )
        self.stats.served += 1
        return await self._states[index].service.match(query)

    async def match_all(self, query: Schema) -> list[AnswerSet]:
        """One answer set per replica — the byte-identity verification hook.

        Every replica must be current; the caller compares the answer
        sets (canonically encoded) for identity.
        """
        return [
            await self.match_on(index, query)
            for index in range(len(self._states))
        ]


async def _deliver_direct(
    group: ReplicaGroup, index: int, record: DeltaRecord
) -> None:
    await group.receive(index, record)
