"""The chaos soak harness: seeded random fault schedules, end to end.

One *schedule* is a deterministic function of its integer ``seed``: a
tiny generated workload, a :class:`~repro.matching.replication
.ReplicaGroup` whose replica pipelines fan out through a shared
:class:`~repro.matching.remote.RemoteShardExecutor` over live
:class:`~repro.matching.remote.WorkerServer` processes-in-threads, and
``waves`` rounds of randomly interleaved operations drawn from the full
fault surface of :mod:`helpers.faults`:

* **queries** round-robined through the group (answers checked against
  a single-node :class:`~repro.matching.evolution.EvolutionSession`
  replay the moment they arrive);
* **deltas** through the replicated log, optionally with scripted
  delivery faults (:class:`helpers.faults.DeltaLogFaults` drops,
  duplicates, holds);
* **worker kills and restarts** mid-schedule (the executor's address
  list mutates live);
* **frame tampering** (:class:`helpers.faults.TamperProxy` with byte
  flips and stream cuts spliced in front of one worker for one query);
* **latency and partitions** (:class:`helpers.faults.DelayProxy` slows
  a worker's wire; a ``stall_after`` relay hangs it silently — no EOF —
  so only the executor's :class:`~repro.matching.remote.DeadlineBudget`
  deadlines can unblock the sweep);
* **slow replica delivery** (scripted :attr:`DeltaLogFaults.delay`:
  ``apply_delta`` waits it out in-line, and the replica serves again
  the moment its apply lands);
* **membership changes** (replicas ``join()`` via log replay and
  ``leave()`` without draining, mid-stream);
* **catch-ups** at random moments.

After every wave, a **barrier** heals the cluster (held deliveries
released, a worker restarted if none is live, every replica caught up)
and audits both halves of the contract.  *Safety*: every live replica
is byte-identical to the single-node replay, and every fault surfaced
as :class:`~repro.errors.TransportError`/:class:`~repro.errors
.ReplicationError` — never a wrong answer.  *Recovery*: once faults
clear, every live worker passes a health probe and its circuit breaker
closes, every stale replica catches up to serving, and the whole
wave — ops plus barrier — lands inside a wall-clock bound, which is
what proves no remote op ever blocked past its deadline.

Determinism and replay: wave *w* draws from ``random.Random(f"{seed}:
{w}")``, and everything that feeds later draws (the delta log, the
membership count, the worker roster) evolves deterministically even
when faults fire, so a schedule of fewer waves is an exact prefix.
:func:`run_with_shrink` exploits that to report the minimal failing
wave count; every :class:`SoakFailure` message carries the one-command
repro (``--soak-seed``/``--soak-waves``).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from helpers.differential import canonical, make_workload
from helpers.faults import (
    DelayProxy,
    DeltaLogFaults,
    TamperProxy,
    cut_after,
    flip_byte,
)
from repro.errors import ReplicationError, TransportError
from repro.matching import (
    DeadlineBudget,
    EvolutionSession,
    RemoteShardExecutor,
    WorkerServer,
    make_matcher,
    replica_group,
)
from repro.schema.delta import churn_delta

__all__ = [
    "SoakFailure",
    "SoakReport",
    "repro_command",
    "run_schedule",
    "run_with_shrink",
]

#: the faults the stack is *required* to surface; anything else
#: escaping a schedule fails it with a printed repro
LOUD = (TransportError, ReplicationError)

#: replicas a schedule may grow to via join()
MAX_REPLICAS = 4

#: the threshold every schedule serves under
DELTA_MAX = 0.3

#: fresh queries held back for tamper/latency/stall ops (each
#: guarantees remote traffic)
PROBE_QUERIES = 6

#: weighted operation palette (queries and deltas dominate, as in life)
OPS = (
    "query", "query", "query",
    "delta", "delta_fault",
    "tamper", "latency", "stall",
    "kill", "restart",
    "join", "leave", "catch_up",
)

#: per-op deadlines every schedule's executor runs under — small enough
#: that a stalled (hung, not crashed) worker costs seconds, not a hang
DEADLINES = DeadlineBudget(connect=2.0, hello=1.0, install=5.0, run=5.0)

#: scripted delivery delays (seconds), each waited out in-line by
#: ``apply_delta``.  Keep the tuple's length: ``rng.choice`` over it
#: feeds every later draw of a wave, so another length reshuffles the
#: schedule of every seed
DELIVERY_DELAYS = (0.05, 0.5)

#: the per-wave wall-clock bound (ops + barrier).  Generous against the
#: op deadlines above, impossible if anything blocks without one: a
#: single un-deadlined stalled socket used to hang a sweep forever.
WAVE_DEADLINE = 60.0


class SoakFailure(AssertionError):
    """A schedule broke an invariant; the message carries the repro."""


def repro_command(seed: int, waves: int) -> str:
    return (
        "PYTHONPATH=src python -m pytest tests/soak -q "
        f"--soak-seed {seed} --soak-waves {waves}"
    )


@dataclass
class SoakReport:
    """What one completed schedule did (the smoke asserts on these)."""

    seed: int
    waves: int
    ops: int = 0
    queries_served: int = 0
    deltas_applied: int = 0
    faults_surfaced: int = 0
    joins: int = 0
    leaves: int = 0
    events: list[str] = field(default_factory=list)


class _Schedule:
    """One seeded schedule run; see the module docstring for the model."""

    def __init__(
        self,
        seed: int,
        waves: int,
        matcher: str,
        params: dict,
        log: Callable[[str], None] | None,
    ):
        self.seed = seed
        self.waves = waves
        self.matcher_name = matcher
        self.params = params
        self.log = log
        self.report = SoakReport(seed=seed, waves=waves)
        self.live: list[WorkerServer] = []
        self.dead: list[WorkerServer] = []
        self.group = None
        self.reference: EvolutionSession | None = None

    # -- bookkeeping ---------------------------------------------------------

    def note(self, message: str) -> None:
        self.report.events.append(message)
        if self.log is not None:
            self.log(message)

    def fail(self, wave: int, message: str) -> None:
        tail = "\n".join(self.report.events[-12:])
        raise SoakFailure(
            f"soak schedule seed={self.seed} broke at wave "
            f"{wave + 1}/{self.waves}: {message}\n"
            f"replay: {repro_command(self.seed, self.waves)}\n"
            f"recent events:\n{tail}"
        )

    def expected(self) -> list[bytes]:
        """Per-query canonical answers of the single-node replay head."""
        return [canonical(answers) for answers in self.reference.answer_sets]

    def sync_addresses(self) -> None:
        if self.live:
            self.executor.addresses = [s.address for s in self.live]
        else:
            # keep one dead address: the next sweep must fail loudly on
            # connect, never crash on an empty address list
            self.executor.addresses = [self.dead[-1].address]

    def settle_delivery_faults(self) -> None:
        # scripted faults address replicas *by index*; drop them before
        # anything shifts the membership under them
        self.faults.drop.clear()
        self.faults.hold.clear()
        self.faults.duplicate.clear()
        self.faults.delay.clear()

    async def release_held(self, wave: int) -> None:
        try:
            await self.faults.release()
        except LOUD as exc:
            # a held record can need a remote rematch to apply; with the
            # right workers dead that refuses loudly — the log still
            # holds the record and catch_up() will heal the replica
            self.report.faults_surfaced += 1
            self.note(
                f"w{wave} release: refused loudly ({type(exc).__name__})"
            )

    # -- lifecycle -----------------------------------------------------------

    async def setup(self) -> None:
        # 2 standing queries + a pool of probe queries the tamper op
        # spends one at a time: a probe is *new* to every replica, so
        # serving it is guaranteed remote traffic (repeat queries are
        # answered from the service's digest cache, and within-bounds
        # delta rematches are local — the paper's point — so neither
        # reliably crosses a tampered wire)
        self.workload = make_workload(
            repo_seed=self.seed * 3 + 1,
            num_schemas=3,
            query_seed=self.seed * 5 + 2,
            num_queries=2 + PROBE_QUERIES,
        )
        self.queries = list(self.workload.queries)
        self.active = 2
        self.next_probe = 2
        self.reference = EvolutionSession(
            make_matcher(
                self.matcher_name, self.workload.objective(), **self.params
            ),
            self.queries,
            DELTA_MAX,
        )
        self.reference.match(self.workload.repository)
        self.live = [WorkerServer().start() for _ in range(2)]
        self.executor = RemoteShardExecutor(
            [server.address for server in self.live],
            deadlines=DEADLINES,
            # fast breakers: a schedule's dead workers cool down in
            # fractions of a second, and the jitter draw is seeded so
            # every replay opens and re-admits at the same moments
            breaker_backoff=0.05,
            breaker_backoff_cap=0.5,
            breaker_jitter=0.25,
            rng=random.Random(self.seed),
        )
        self.faults = DeltaLogFaults()
        self.group = replica_group(
            self.matcher_name,
            self.workload.objective(),
            2,
            DELTA_MAX,
            params=self.params,
            shards=2,
            executor=self.executor,
            delivery=self.faults,
        )
        await self.group.start(self.workload.repository)

    async def teardown(self) -> None:
        if self.group is not None:
            try:
                await self.group.stop()
            except Exception:  # noqa: BLE001 - teardown must not mask the run
                pass
        for server in self.live + self.dead:
            try:
                server.stop()
            except Exception:  # noqa: BLE001
                pass

    async def run(self) -> SoakReport:
        await self.setup()
        try:
            for wave in range(self.waves):
                rng = random.Random(f"{self.seed}:{wave}")
                wave_started = time.monotonic()
                for _ in range(rng.randint(2, 4)):
                    await self.step(rng, wave)
                    self.report.ops += 1
                await self.barrier(wave)
                elapsed = time.monotonic() - wave_started
                if elapsed > WAVE_DEADLINE:
                    # the liveness half of the contract: every remote op
                    # is deadline-bounded and every delivery delay is
                    # short, so a wave that blows this bound means
                    # something blocked past its deadline
                    self.fail(
                        wave,
                        f"wave took {elapsed:.1f}s, past the "
                        f"{WAVE_DEADLINE:.0f}s wall-clock bound — "
                        "some op blocked past its deadline",
                    )
        except SoakFailure:
            raise
        except Exception as exc:
            # an unexpected escape is itself a failed schedule — the
            # stack's contract is "loud TransportError/ReplicationError
            # or a correct answer", nothing else
            raise SoakFailure(
                f"soak schedule seed={self.seed} crashed: "
                f"{type(exc).__name__}: {exc}\n"
                f"replay: {repro_command(self.seed, self.waves)}"
            ) from exc
        finally:
            await self.teardown()
        return self.report

    # -- operations ----------------------------------------------------------

    async def step(self, rng: random.Random, wave: int) -> None:
        op = rng.choice(OPS)
        if op == "query":
            await self.op_query(rng, wave)
        elif op == "delta":
            await self.op_delta(rng, wave, faulty=False)
        elif op == "delta_fault":
            await self.op_delta(rng, wave, faulty=True)
        elif op == "tamper":
            await self.op_tamper(rng, wave)
        elif op == "latency":
            await self.op_latency(rng, wave)
        elif op == "stall":
            await self.op_stall(rng, wave)
        elif op == "kill":
            self.op_kill(rng, wave)
        elif op == "restart":
            self.op_restart(wave)
        elif op == "join":
            await self.op_join(rng, wave)
        elif op == "leave":
            await self.op_leave(rng, wave)
        else:
            await self.op_catch_up(rng, wave)

    async def op_query(self, rng: random.Random, wave: int) -> None:
        index = rng.randrange(self.active)
        try:
            answers = await self.group.match(self.queries[index])
        except LOUD as exc:
            self.report.faults_surfaced += 1
            self.note(
                f"w{wave} query q{index}: refused loudly "
                f"({type(exc).__name__})"
            )
            return
        if canonical(answers) != self.expected()[index]:
            self.fail(
                wave,
                f"query q{index} was served an answer that differs from "
                "the single-node replay (a silently wrong answer)",
            )
        self.report.queries_served += 1
        self.note(f"w{wave} query q{index}: ok")

    async def op_delta(
        self, rng: random.Random, wave: int, *, faulty: bool
    ) -> None:
        delta = churn_delta(
            self.group.repository,
            rng.choice((0.2, 0.3)),
            seed=rng.randrange(1_000_000),
        )
        sequence = len(self.group.log) + 1
        label = ""
        if faulty and len(self.group.services) > 1:
            victim = rng.randrange(len(self.group.services))
            kind = rng.choice(("drop", "hold", "duplicate", "delay"))
            if kind == "delay":
                pause = rng.choice(DELIVERY_DELAYS)
                self.faults.delay[(victim, sequence)] = pause
                label = f" [delay r{victim} {pause}s]"
            else:
                getattr(self.faults, kind).add((victim, sequence))
                label = f" [{kind} r{victim}]"
        logged = len(self.group.log)
        try:
            await self.group.apply_delta(delta)
            outcome = "applied"
        except LOUD as exc:
            self.report.faults_surfaced += 1
            outcome = f"refused loudly ({type(exc).__name__})"
        if len(self.group.log) > logged:
            # The authoritative log holds the record even when a
            # replica's delivery failed mid-loop; the single-node
            # replay must advance with the log, not with the replicas.
            self.reference.apply(delta)
            self.report.deltas_applied += 1
        self.note(f"w{wave} delta seq {sequence}{label}: {outcome}")

    async def op_tamper(self, rng: random.Random, wave: int) -> None:
        if not self.live:
            self.note(f"w{wave} tamper: no live workers")
            return
        victim = self.live[rng.randrange(len(self.live))]
        fault = (
            flip_byte(rng.randrange(8, 200))
            if rng.random() < 0.5
            else cut_after(rng.randrange(4, 120))
        )
        direction = "upstream" if rng.random() < 0.5 else "downstream"
        # "solo" routes *every* unit through the tampered relay — no
        # healthy peer to retry on, so a firing fault must surface
        # loudly; otherwise the healthy workers absorb the damage and
        # the answer must still be correct.  op_query asserts both arms.
        solo = rng.random() < 0.4
        self.note(
            f"w{wave} tamper {direction} {type(fault).__name__} "
            f"on :{victim.address[1]}{' [solo]' if solo else ''}"
        )
        proxy = TamperProxy(victim.address, **{direction: fault})
        await self.query_through(proxy, victim, solo, rng, wave)

    async def op_latency(self, rng: random.Random, wave: int) -> None:
        """A slow wire in front of one worker: late bytes, same bytes.

        Latency never corrupts, so whichever worker serves, the answer
        must stay byte-identical — the per-chunk delay is far inside
        the op deadlines, exercising that deadlines do not misfire on a
        merely slow (healthy) peer.
        """
        if not self.live:
            self.note(f"w{wave} latency: no live workers")
            return
        victim = self.live[rng.randrange(len(self.live))]
        delay_ms = rng.choice((20, 40, 60))
        solo = rng.random() < 0.4
        self.note(
            f"w{wave} latency {delay_ms}ms on :{victim.address[1]}"
            f"{' [solo]' if solo else ''}"
        )
        proxy = DelayProxy(victim.address, delay_ms=delay_ms)
        await self.query_through(proxy, victim, solo, rng, wave)

    async def op_stall(self, rng: random.Random, wave: int) -> None:
        """A one-way partition: the connection hangs open, silently.

        No EOF ever arrives, so only the executor's op deadlines can
        unblock the sweep.  Solo, the deadline must fire and surface
        loudly; with a healthy peer, the units land there and the
        answer must stay byte-identical.  Either way the stalled op is
        bounded — the wave's wall-clock bound is the proof.
        """
        if not self.live:
            self.note(f"w{wave} stall: no live workers")
            return
        victim = self.live[rng.randrange(len(self.live))]
        stall_after = rng.randrange(0, 300)
        solo = rng.random() < 0.4
        self.note(
            f"w{wave} stall after {stall_after}B on :{victim.address[1]}"
            f"{' [solo]' if solo else ''}"
        )
        proxy = TamperProxy(victim.address, stall_after=stall_after)
        await self.query_through(proxy, victim, solo, rng, wave)

    async def query_through(
        self,
        proxy: TamperProxy,
        victim: WorkerServer,
        solo: bool,
        rng: random.Random,
        wave: int,
    ) -> None:
        """Route one fresh query through ``proxy`` in front of ``victim``."""
        proxy.start()
        if solo:
            self.executor.addresses = [proxy.address]
        else:
            self.executor.addresses = [
                proxy.address if server is victim else server.address
                for server in self.live
            ]
        try:
            # Spend a probe query: new to every replica, so serving it
            # is a fresh remote sweep across the faulted wire.  With a
            # healthy peer the faulted worker is abandoned and the
            # units retried there (the answer must still be
            # byte-identical to the replay); solo, a firing fault must
            # refuse loudly.  Probes exhausted → a plain query (which
            # may be served from cache without touching the network).
            if self.next_probe < len(self.queries):
                probe = self.next_probe
                self.next_probe += 1
                self.active = self.next_probe
                await self.probe_query(probe, wave)
            else:
                await self.op_query(rng, wave)
        finally:
            proxy.stop()
            self.sync_addresses()

    async def probe_query(self, index: int, wave: int) -> None:
        try:
            answers = await self.group.match(self.queries[index])
        except LOUD as exc:
            self.report.faults_surfaced += 1
            self.note(
                f"w{wave} probe q{index}: refused loudly "
                f"({type(exc).__name__})"
            )
            return
        if canonical(answers) != self.expected()[index]:
            self.fail(
                wave,
                f"probe query q{index} was served an answer that differs "
                "from the single-node replay (a silently wrong answer)",
            )
        self.report.queries_served += 1
        self.note(f"w{wave} probe q{index}: ok")

    def op_kill(self, rng: random.Random, wave: int) -> None:
        if not self.live:
            self.note(f"w{wave} kill: no live workers")
            return
        victim = self.live.pop(rng.randrange(len(self.live)))
        victim.kill()
        self.dead.append(victim)
        self.sync_addresses()
        self.note(
            f"w{wave} kill worker :{victim.address[1]} "
            f"({len(self.live)} live)"
        )

    def op_restart(self, wave: int) -> None:
        server = WorkerServer().start()
        self.live.append(server)
        self.sync_addresses()
        self.note(
            f"w{wave} restart worker :{server.address[1]} "
            f"({len(self.live)} live)"
        )

    async def op_join(self, rng: random.Random, wave: int) -> None:
        if len(self.group.services) >= MAX_REPLICAS:
            self.note(f"w{wave} join: at replica cap")
            return
        matcher = make_matcher(
            self.matcher_name, self.workload.objective(), **self.params
        )
        try:
            index = await self.group.join(matcher)
        except LOUD as exc:
            # join() replays the log through the remote executor; with
            # every worker dead the catch-up refuses loudly and the
            # joiner sits stale until the barrier heals it
            self.report.faults_surfaced += 1
            self.note(
                f"w{wave} join: refused loudly ({type(exc).__name__})"
            )
            return
        self.report.joins += 1
        self.note(
            f"w{wave} join: replica {index} caught up to seq "
            f"{len(self.group.log)}"
        )

    async def op_leave(self, rng: random.Random, wave: int) -> None:
        if len(self.group.services) <= 1:
            self.note(f"w{wave} leave: last replica stays")
            return
        await self.release_held(wave)
        self.settle_delivery_faults()
        index = rng.randrange(len(self.group.services))
        await self.group.leave(index)
        self.report.leaves += 1
        self.note(
            f"w{wave} leave: replica {index} gone "
            f"({len(self.group.services)} remain)"
        )

    async def op_catch_up(self, rng: random.Random, wave: int) -> None:
        index = rng.randrange(len(self.group.services))
        try:
            replayed = await self.group.catch_up(index)
        except LOUD as exc:
            self.report.faults_surfaced += 1
            self.note(
                f"w{wave} catch_up r{index}: refused loudly "
                f"({type(exc).__name__})"
            )
            return
        self.note(f"w{wave} catch_up r{index}: replayed {replayed}")

    # -- the wave barrier ----------------------------------------------------

    async def barrier(self, wave: int) -> None:
        """Heal the cluster, then audit recovery + byte-identity.

        Recovery first: every live worker must pass an explicit health
        probe (closing its breaker — a worker that is up but perma-open
        would silently shrink the fleet), and every stale replica must
        return to serving through catch_up().
        """
        if not self.live:
            self.op_restart(wave)
        for server in self.live:
            if not self.executor.probe(server.address):
                self.fail(
                    wave,
                    f"live worker :{server.address[1]} failed its health "
                    "probe after the faults cleared",
                )
            health = self.executor.worker_health(server.address)
            if health.state != "closed":
                self.fail(
                    wave,
                    f"worker :{server.address[1]} answered its probe but "
                    f"its breaker is {health.state}, not closed",
                )
        await self.release_held(wave)
        self.settle_delivery_faults()
        for index in range(len(self.group.services)):
            await self.group.catch_up(index)
            if not self.group.current(index):
                self.fail(
                    wave, f"replica {index} still stale after catch_up"
                )
        if (
            self.group.repository.content_digest()
            != self.reference.repository.content_digest()
        ):
            self.fail(
                wave,
                "authoritative repository diverged from the single-node "
                "replay (the log and the reference disagree)",
            )
        answers = self.expected()
        for index in range(len(self.group.services)):
            for qi, query in enumerate(self.queries[: self.active]):
                observed = canonical(await self.group.match_on(index, query))
                if observed != answers[qi]:
                    self.fail(
                        wave,
                        f"replica {index} answers query q{qi} differently "
                        "from the single-node replay after healing",
                    )
                self.report.queries_served += 1
        self.note(
            f"w{wave} barrier: {len(self.group.services)} replicas "
            "byte-identical to the replay"
        )


def run_schedule(
    seed: int,
    waves: int,
    *,
    matcher: str = "exhaustive",
    params: dict | None = None,
    log: Callable[[str], None] | None = None,
) -> SoakReport:
    """Run one seeded schedule; raises :class:`SoakFailure` with a repro."""
    schedule = _Schedule(seed, waves, matcher, dict(params or {}), log)
    return asyncio.run(schedule.run())


def run_with_shrink(
    seed: int,
    waves: int,
    **kwargs: object,
) -> SoakReport:
    """:func:`run_schedule`, plus prefix shrinking on failure.

    Wave *w* draws from ``Random(f"{seed}:{w}")`` and all cross-wave
    state evolves deterministically, so a shorter schedule is an exact
    prefix of a longer one — rerunning with fewer waves finds the
    minimal failing length, which the re-raised failure names.
    """
    try:
        return run_schedule(seed, waves, **kwargs)
    except SoakFailure as failure:
        minimal = waves
        for fewer in range(1, waves):
            try:
                run_schedule(seed, fewer, **kwargs)
            except SoakFailure:
                minimal = fewer
                break
        if minimal < waves:
            raise SoakFailure(
                f"{failure}\nshrunk: already fails at {minimal} wave(s) — "
                f"{repro_command(seed, minimal)}"
            ) from failure
        raise
