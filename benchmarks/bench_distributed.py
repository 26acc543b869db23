"""Benchmarks of the distributed layer: socket workers and replica groups.

What ``BENCH_distributed.json`` tracks across commits:

* ``test_bench_serial_sweep`` — the single-process baseline the remote
  numbers are read against;
* ``test_bench_remote_sweep_warm`` — the same sweep fanned out to two
  in-process socket workers with state already installed: the steady-
  state cost of the wire (framing, pickling units and results) once
  the one-shot install has been paid;
* ``test_bench_remote_install`` — that one-shot cost: fresh workers,
  full inline state install, then the sweep;
* ``test_bench_remote_recovery`` — the same cold sweep with one worker
  crashing on its first unit: the coordinator detects the loss, opens
  the breaker, re-enqueues the dropped unit, and the survivor absorbs
  the sweep.  Read against ``test_bench_remote_install``: the gap is
  the price of recovering from a mid-sweep worker death;
* ``test_bench_replica_delta_apply`` — a 2-replica group applying one
  churn delta through the replicated log (two service applies plus two
  digest checks per record).

As everywhere: byte-identity against the serial path is asserted
unconditionally inside every benchmark body;
``test_distributed_byte_identity_and_overhead`` adds the acceptance
check, whose wall-clock half is skipped when
``BENCH_TIMING_ASSERTS=0`` (CI's setting).
"""

import asyncio
import os
import socket
import threading
from time import perf_counter

from repro.errors import TransportError
from repro.evaluation import build_workload, small_config
from repro.matching import (
    ExhaustiveMatcher,
    RemoteShardExecutor,
    SerialExecutor,
    WorkerServer,
    canonical_answers,
    replica_group,
)
from repro.schema import churn_delta

_DELTA_MAX = 0.3
_SHARDS = 4


def _setup():
    workload = build_workload(small_config())
    queries = [scenario.query for scenario in workload.suite.scenarios]
    return workload, queries


def _sweep(workload, queries, executor):
    matcher = ExhaustiveMatcher(workload.objective)
    return matcher.batch_match(
        queries,
        workload.repository,
        _DELTA_MAX,
        shards=_SHARDS,
        executor=executor,
    )


def _serial_reference(workload, queries):
    return canonical_answers(_sweep(workload, queries, SerialExecutor()))


def test_bench_serial_sweep(benchmark):
    workload, queries = _setup()
    expected = _serial_reference(workload, queries)

    def serial():
        answers = _sweep(workload, queries, SerialExecutor())
        assert canonical_answers(answers) == expected

    benchmark.pedantic(serial, rounds=3, iterations=1)


def test_bench_remote_sweep_warm(benchmark):
    """Steady state: installed workers, only units and results on the wire."""
    workload, queries = _setup()
    expected = _serial_reference(workload, queries)
    workers = [WorkerServer().start() for _ in range(2)]
    try:
        executor = RemoteShardExecutor([w.address for w in workers])
        _sweep(workload, queries, executor)  # pay the install once

        def remote():
            answers = _sweep(workload, queries, executor)
            assert canonical_answers(answers) == expected

        benchmark.pedantic(remote, rounds=3, iterations=1)
        assert all(w.stats.installs == 1 for w in workers)
    finally:
        for worker in workers:
            worker.stop()


def test_bench_remote_install(benchmark):
    """Cold path: fresh workers, one-shot inline install, then the sweep."""
    workload, queries = _setup()
    expected = _serial_reference(workload, queries)

    def setup():
        return ([WorkerServer().start() for _ in range(2)],), {}

    def install_and_sweep(workers):
        try:
            executor = RemoteShardExecutor([w.address for w in workers])
            answers = _sweep(workload, queries, executor)
            assert canonical_answers(answers) == expected
        finally:
            for worker in workers:
                worker.stop()

    benchmark.pedantic(install_and_sweep, setup=setup, rounds=3, iterations=1)


#: how long a survivor holds its units waiting for the crasher to take one
_CRASH_WAIT = 10.0


class _CrashOnFirstUnitWorker(WorkerServer):
    """Dies abruptly — listener and every connection — on its first unit.

    The coordinator sent the unit and never hears back: the connection
    drops mid-conversation, exactly like ``kill -9`` on a remote worker
    between request and reply.  ``took_unit`` is set the moment the
    unit arrives.
    """

    def __init__(self, took_unit: threading.Event):
        super().__init__()
        self.took_unit = took_unit

    def _run(self, message):
        self.took_unit.set()
        self._stopping.set()
        self._close_listener()
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        raise TransportError("injected crash mid-sweep")


class _SurvivorWorker(WorkerServer):
    """Holds each unit until the crasher has taken one (bounded wait).

    Without the hold, the survivor can finish every unit before the
    crasher asks for one: no crash, and the crasher's breaker stays
    closed.  With it, the crasher gets its first unit whatever the
    scheduling.
    """

    def __init__(self, took_unit: threading.Event):
        super().__init__()
        self.took_unit = took_unit

    def _run(self, message):
        self.took_unit.wait(_CRASH_WAIT)
        return super()._run(message)


def _crash_pair():
    """A started (crasher, survivor) pair sharing one ``took_unit`` event."""
    took_unit = threading.Event()
    return (
        _CrashOnFirstUnitWorker(took_unit).start(),
        _SurvivorWorker(took_unit).start(),
    )


def test_bench_remote_recovery(benchmark):
    """Mid-sweep worker death: detect, open the breaker, re-run, finish.

    One of the two workers crashes on its first unit; the sweep must
    still complete byte-identically on the survivor.  The number to
    watch is this benchmark minus ``test_bench_remote_install`` — the
    recovery-time overhead of a mid-sweep worker loss.
    """
    workload, queries = _setup()
    expected = _serial_reference(workload, queries)

    def setup():
        crasher, survivor = _crash_pair()
        executor = RemoteShardExecutor([crasher.address, survivor.address])
        return (crasher, survivor, executor), {}

    def recover(crasher, survivor, executor):
        try:
            answers = _sweep(workload, queries, executor)
            assert canonical_answers(answers) == expected
            assert executor.worker_health(crasher.address).state == "open"
        finally:
            crasher.stop()
            survivor.stop()

    benchmark.pedantic(recover, setup=setup, rounds=3, iterations=1)


def test_bench_replica_delta_apply(benchmark):
    """A 2-replica round: start, retain the queries, replicate one delta.

    One coroutine per round — the services' asyncio primitives bind to
    the loop they first run on, so every step shares one ``asyncio.run``.
    The delta apply is the interesting part: two service re-matches of
    the retained queries plus two digest checks through the log.
    """
    workload, queries = _setup()

    def replica_round():
        async def scenario():
            group = replica_group(
                "exhaustive", workload.objective, 2, _DELTA_MAX
            )
            await group.start(workload.repository)
            for query in queries:
                await group.match(query)  # retain, so the apply re-matches
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            assert group.current_replicas() == [0, 1]
            await group.stop()

        asyncio.run(scenario())

    benchmark.pedantic(replica_round, rounds=3, iterations=1)


def test_distributed_byte_identity_and_overhead():
    """Acceptance: remote and replicated answers are byte-identical to
    serial; a warm remote sweep stays within an order-of-magnitude
    envelope of the serial baseline.

    Byte-identity runs unconditionally — across two socket workers
    (warm and cold install), across a sweep that loses a worker to a
    mid-sweep crash, and across both replicas of a group before and
    after a delta.  The wall-clock envelopes (warm remote ≤ 25× the
    serial sweep; crash recovery ≤ 10× the healthy cold sweep — both
    generous: the wire costs framing and pickling, not matching) are
    skipped when ``BENCH_TIMING_ASSERTS=0``.
    """
    workload, queries = _setup()
    expected = _serial_reference(workload, queries)

    workers = [WorkerServer().start() for _ in range(2)]
    try:
        executor = RemoteShardExecutor([w.address for w in workers])
        started = perf_counter()
        assert canonical_answers(_sweep(workload, queries, executor)) == expected
        cold_seconds = perf_counter() - started
        started = perf_counter()
        warm = _sweep(workload, queries, executor)
        remote_seconds = perf_counter() - started
        assert canonical_answers(warm) == expected
    finally:
        for worker in workers:
            worker.stop()

    # Recovery: one worker crashes on its first unit; the sweep still
    # completes byte-identically on the survivor and the dead address's
    # breaker ends the sweep open.
    crasher, survivor = _crash_pair()
    try:
        executor = RemoteShardExecutor([crasher.address, survivor.address])
        started = perf_counter()
        recovered = _sweep(workload, queries, executor)
        recovery_seconds = perf_counter() - started
        assert canonical_answers(recovered) == expected
        assert executor.worker_health(crasher.address).state == "open"
        assert executor.stats.breaker_opens >= 1
    finally:
        crasher.stop()
        survivor.stop()

    started = perf_counter()
    serial = _sweep(workload, queries, SerialExecutor())
    serial_seconds = perf_counter() - started
    assert canonical_answers(serial) == expected

    async def replicated():
        group = replica_group(
            "exhaustive", workload.objective, 2, _DELTA_MAX
        )
        await group.start(workload.repository)
        waves = [[await group.match_all(q) for q in queries]]
        await group.apply_delta(churn_delta(group.repository, 0.25, seed=0))
        waves.append([await group.match_all(q) for q in queries])
        repositories = [workload.repository, group.repository]
        await group.stop()
        return waves, repositories

    waves, repositories = asyncio.run(replicated())
    matcher = ExhaustiveMatcher(workload.objective)
    for wave, repository in zip(waves, repositories):
        offline = canonical_answers(
            matcher.batch_match(queries, repository, _DELTA_MAX)
        )
        for replica in range(2):
            served = canonical_answers([a[replica] for a in wave])
            assert served == offline

    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        assert remote_seconds <= 25.0 * max(serial_seconds, 0.01), (
            f"warm remote sweep ({remote_seconds:.3f}s) is far outside the "
            f"expected envelope of serial ({serial_seconds:.3f}s)"
        )
        # A crash is an EOF, detected immediately — recovery costs one
        # re-run unit plus breaker bookkeeping, not a timeout wait.
        assert recovery_seconds <= 10.0 * max(cold_seconds, 0.05), (
            f"crash-recovery sweep ({recovery_seconds:.3f}s) is far outside "
            f"the expected envelope of the healthy cold sweep "
            f"({cold_seconds:.3f}s) — recovery is stalling, not re-running"
        )
