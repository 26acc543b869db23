"""replica-serve: reads, searches, churn and checkpoints on two replicas.

This is ``repro-bounds serve --replicas 2`` driven by one client: a
2-replica :class:`~repro.matching.replication.ReplicaGroup` (exhaustive
matcher, δ = 0.3, candidate cache off, snapshot store) on the default
40-schema workload.  The client is a closed loop of rounds; one round

* sends a one-schema churn delta (``ReplicaGroup.apply_delta``) and,
  while it is delivered, one read — the group refuses it (every replica
  is behind the log) and the client re-sends it when the write
  completes (it awaits the write, it never polls);
* then sends ``STATE_READS`` reads one after another, drawn with Zipf
  popularity from the ``HEAD`` queries both replicas retained at
  set-up, so each is served from retained state;
* every ``SEARCH_EVERY``-th round, reads a query no replica has seen,
  which searches and misses the similarity substrate;
* every ``CHECKPOINT_EVERY``-th round, writes a checkpoint
  (``ReplicaGroup.checkpoint``; replica 0 holds its lock meanwhile).

Every search grows the state each later delta re-matches, so the rounds
come in epochs of ``ROUNDS`` on a fresh group: every epoch does the same
work, and a run is as many whole epochs as fit in its seconds.  Between
epochs (untimed) the group is checked, stopped and rebuilt, and the
host probe runs as the idle guard.

The first attempt at this workload was open loop (Poisson reads at
150/s beside a delta every 250 ms).  On a shared 2-vCPU host its read
p95 spread 0.28-0.34 (IQR/median) over ten runs: the p95 sat among
reads refused during a delta, and how many reads a delta refused moved
with the host's speed, so no scaling of the times could hold it.  In a
closed loop each class of request is timed on its own.

Every op is read at reference speed by the in-op ticks of
:class:`harness.SpeedSampler` (asyncio's clock is the ticks' clock).
The query pool (``POOL_SEED``) and the delta script (``DELTA_SEED``) are
fixed, so every run retains the same queries and applies the same
deltas; the seed draws the popularity of the state reads and the order
of the searches.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import shutil
import statistics
from itertools import accumulate
from time import monotonic

from repro.errors import ReplicationError, SchemaError
from repro.evaluation import build_workload
from repro.matching import ExhaustiveMatcher, canonical_answers, replica_group
from repro.schema import SnapshotStore, churn_delta
from repro.schema.mutations import MutationConfig, extract_personal_schema
from repro.schema.vocabulary import get_domain

from harness import (
    GAP_PROBES,
    BenchmarkError,
    HostProbe,
    SpeedSampler,
    one_cpu,
    peak_rss_mb,
    timed_setups,
)
from tracing import current_op

DELTA_MAX = 0.3
HEAD = 10  # queries both replicas retain at set-up
ZIPF_S = 1.1  # popularity skew over the head
ROUNDS = 40  # rounds per epoch
STATE_READS = 8  # reads from retained state per round
SEARCH_EVERY = 4  # rounds
CHECKPOINT_EVERY = 10  # rounds
CHURN = 0.025  # one of the 40 schemas, replaced by a partial rename
DELTA_SEED = 4242
POOL_SEED = 2323
SETUPS = 5
CLASSES = ("state", "search", "write")


def query_pool(repository, size: int, rng: random.Random) -> list:
    """``size`` distinct personal-schema queries drawn from the repository."""
    schemas = repository.schemas()
    seen: set[str] = set()
    pool: list = []
    while len(pool) < size:
        source = schemas[rng.randrange(len(schemas))]
        try:
            vocabulary = get_domain(source.schema_id.rsplit("-", 1)[0])
        except SchemaError:
            vocabulary = None
        query = extract_personal_schema(
            rng, source, vocabulary, target_size=4,
            config=MutationConfig(), schema_id=f"read-{len(pool):04d}",
        )
        digest = query.content_digest()
        if digest not in seen:
            seen.add(digest)
            pool.append(query)
    return pool


class Setup:
    """Workload, query pool, delta script and a started, warmed group."""

    def __init__(self, workdir):
        self.workload = build_workload()
        self.pool = query_pool(
            self.workload.repository, HEAD + ROUNDS // SEARCH_EVERY,
            random.Random(POOL_SEED),
        )
        self.head = self.pool[:HEAD]
        self.fresh = self.pool[HEAD:]
        self.deltas = []
        repository = self.workload.repository
        for index in range(ROUNDS):
            delta = churn_delta(
                repository, CHURN, seed=DELTA_SEED + index,
                replace_weight=1.0, add_weight=0.0, remove_weight=0.0,
            )
            repository, _report = repository.apply(delta)
            self.deltas.append(delta)
        self.store_dir = workdir / "replica-store"
        self.loop = asyncio.new_event_loop()
        self.group = None
        self.restart()

    def restart(self) -> None:
        """Stop the current group (if any) and start a fresh, warmed one."""
        if self.group is not None:
            self.loop.run_until_complete(self.group.stop())
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.group = replica_group(
            "exhaustive", self.workload.objective, 2, DELTA_MAX,
            store=SnapshotStore(self.store_dir), cache=False,
        )
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        await self.group.start(self.workload.repository)
        for index in range(len(self.group)):
            await asyncio.gather(
                *(self.group.match_on(index, query) for query in self.head)
            )

    def close(self) -> None:
        self.loop.run_until_complete(self.group.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class Client:
    """The closed-loop client and every op record it keeps."""

    def __init__(self, setup: Setup, seed: int):
        self.setup = setup
        self.rng = random.Random(f"{seed}:traffic")
        self.cum_weights = list(
            accumulate(1 / (rank + 1) ** ZIPF_S for rank in range(HEAD))
        )
        self.reads: list[dict] = []
        self.deltas: list[dict] = []
        self.checkpoints: list[dict] = []
        self.refused = 0
        self.failed: list[str] = []
        self.write_idle = asyncio.Event()
        self.write_idle.set()

    def _record(self, kind: str, epoch: int, records: list) -> dict:
        record = {
            "op": f"e{epoch}-{kind}-{len(records)}", "epoch": epoch,
            "sent": None, "done": None, "failed": False,
        }
        records.append(record)
        return record

    async def _timed(self, record: dict, coroutine) -> None:
        current_op.set(record["op"])
        loop = asyncio.get_running_loop()
        record["sent"] = loop.time()
        try:
            await coroutine
        except Exception as exc:  # counted, reported, fails the run
            record["failed"] = True
            self.failed.append(f"{record['op']}: {type(exc).__name__}: {exc}")
        record["done"] = loop.time()

    async def _read(self, record: dict, query) -> None:
        while True:
            try:
                await self.setup.group.match(query)
                return
            except ReplicationError:
                # every replica is behind the log: a delta is in flight
                if self.write_idle.is_set():
                    raise
                self.refused += 1
                record["refused"] += 1
                await self.write_idle.wait()

    async def _delta(self, delta) -> None:
        self.write_idle.clear()
        try:
            await self.setup.group.apply_delta(delta)
        finally:
            self.write_idle.set()

    def read(self, epoch: int, cls: str, query):
        record = self._record(cls, epoch, self.reads)
        record.update(cls=cls, refused=0)
        return self._timed(record, self._read(record, query))

    def popular(self):
        rank = bisect.bisect_left(
            self.cum_weights, self.rng.random() * self.cum_weights[-1]
        )
        return self.setup.head[rank]

    async def epoch(self, epoch: int) -> None:
        """``ROUNDS`` rounds on the current group."""
        fresh = list(self.setup.fresh)
        self.rng.shuffle(fresh)
        for index, delta in enumerate(self.setup.deltas):
            record = self._record("delta", epoch, self.deltas)
            write = asyncio.ensure_future(
                self._timed(record, self._delta(delta))
            )
            await asyncio.sleep(0)  # the delta is in flight
            await self.read(epoch, "write", self.popular())
            await write
            for _ in range(STATE_READS):
                await self.read(epoch, "state", self.popular())
            if index % SEARCH_EVERY == 0:
                await self.read(epoch, "search", fresh.pop())
            if index % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                record = self._record("checkpoint", epoch, self.checkpoints)
                await self._timed(record, self.setup.group.checkpoint())


def verify(setup: Setup) -> None:
    """Every replica's retained answers == offline batch_match; digests agree."""
    group = setup.group
    head = group.repository.content_digest()
    for index, service in enumerate(group.services):
        if service.repository.content_digest() != head:
            raise BenchmarkError(
                f"replica {index} repository digest differs from the log's"
            )
    offline = ExhaustiveMatcher(setup.workload.objective)

    async def served(index, queries):
        return [await group.match_on(index, query) for query in queries]

    for index, service in enumerate(group.services):
        queries = service.retained_queries
        answers = setup.loop.run_until_complete(served(index, queries))
        expected = offline.batch_match(
            queries, group.repository, DELTA_MAX, cache=False
        )
        if canonical_answers(answers) != canonical_answers(expected):
            raise BenchmarkError(
                f"replica {index} answers differ from offline batch_match"
            )


def run(seed: int, seconds: float, tracer=None, workdir=None) -> dict:
    with one_cpu():
        return _run(seed, seconds, tracer, workdir)


def _run(seed: int, seconds: float, tracer, workdir) -> dict:
    probe = HostProbe()
    sampler = SpeedSampler(walk=True)  # the re-match runs numpy
    setup_seconds, setup = timed_setups(
        sampler, lambda: Setup(workdir), SETUPS, Setup.close
    )
    try:
        return _measure(
            setup, probe, sampler, setup_seconds, seed, seconds, tracer
        )
    finally:
        setup.close()


def _service_counters(setup: Setup) -> tuple[int, int, int, int, int]:
    services = setup.group.services
    return (
        sum(s.stats.served_from_state for s in services),
        sum(s.stats.requests for s in services),
        sum(s.stats.batched_queries for s in services),
        sum(s.stats.batches for s in services),
        setup.group.stats.digest_checks,
    )


def _measure(
    setup, probe, sampler, setup_seconds, seed, seconds, tracer
) -> dict:
    client = Client(setup, seed)
    stats: list[tuple[int, ...]] = []
    errors: list[str] = []
    deadline = monotonic() + seconds
    epochs = 2 if tracer is not None else 1  # at least
    epoch = 0
    while monotonic() < deadline or epoch < epochs:
        if epoch:
            setup.restart()
        probe.reading(GAP_PROBES)  # idle guard
        traced = tracer is not None and epoch % 2 == 1
        if traced:
            tracer.install()
        opened = _service_counters(setup)
        with sampler:
            setup.loop.run_until_complete(client.epoch(epoch))
        if traced:
            tracer.uninstall()
            closed = _service_counters(setup)
            stats.append(tuple(b - a for a, b in zip(opened, closed)))
        for record in client.reads + client.deltas + client.checkpoints:
            if record["epoch"] == epoch and not record["failed"]:
                record["ms"] = sampler.adjusted_ms(
                    record["sent"], record["done"]
                )
        try:
            verify(setup)
        except BenchmarkError as exc:
            errors.append(f"epoch {epoch}: {exc}")
        epoch += 1
    errors.extend(client.failed)

    by_class = {
        cls: [
            r["ms"] for r in client.reads
            if r["cls"] == cls and not r["failed"]
        ]
        for cls in CLASSES
    }
    delta_ms = [r["ms"] for r in client.deltas if not r["failed"]]
    checkpoint_ms = [r["ms"] for r in client.checkpoints if not r["failed"]]
    if not all(by_class.values()) or not delta_ms:
        raise BenchmarkError(f"a request class completed no op: {errors}")

    def raw(records) -> float:
        return statistics.median(
            (r["done"] - r["sent"]) * 1e3 for r in records if not r["failed"]
        )

    ops = client.reads + client.deltas + client.checkpoints
    result = {
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r["failed"]),
        "errors": errors,
        "e2e": {
            "setup_s": (
                statistics.median(setup_seconds), "s", len(setup_seconds)
            ),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "read_p50_ms": (
                statistics.median(by_class["state"]), "ms",
                len(by_class["state"]),
            ),
            "search_p50_ms": (
                statistics.median(by_class["search"]), "ms",
                len(by_class["search"]),
            ),
            "delta_p50_ms": (
                statistics.median(delta_ms), "ms", len(delta_ms)
            ),
        },
        "raw": {
            "read_p50_ms": raw(r for r in client.reads if r["cls"] == "state"),
            "search_p50_ms": raw(
                r for r in client.reads if r["cls"] == "search"
            ),
            "delta_p50_ms": raw(client.deltas),
            "probe_ms": statistics.median(probe.samples),
            "tick_ms": sampler.tick_ms(),
            "setup_s": setup_seconds,
            "epochs": epoch,
            "refused": client.refused,
            "write_wait_p50_ms": statistics.median(by_class["write"]),
            "checkpoint_p50_ms": (
                statistics.median(checkpoint_ms) if checkpoint_ms else 0.0
            ),
        },
        "probe": probe,
        "client": client,
        "epoch_stats": stats,
    }
    if tracer is not None:
        # mean read latency of the traced (odd) and untraced epochs
        result["overhead"] = tuple(
            [statistics.fmean(
                r["ms"] for r in client.reads
                if r["epoch"] % 2 == parity and not r["failed"]
            )]
            for parity in (1, 0)
        )
    return result
