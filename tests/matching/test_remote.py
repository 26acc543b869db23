"""Socket-worker conformance: framing, byte-identity, fault injection.

Three layers of the remote transport, bottom up:

* **Framing** — every way a frame can be damaged (truncation, foreign
  magic, oversized length, payload bytes that do not hash to the header
  digest) raises :class:`~repro.errors.TransportError` loudly; a clean
  close between frames is the one tolerated end.
* **Byte-identity** — answers computed through
  :class:`~repro.matching.remote.RemoteShardExecutor` over live
  :class:`~repro.matching.remote.WorkerServer` instances, in both
  ``inline`` and ``store`` install modes, are byte-identical to the
  serial in-process path, and installed state is reused across sweeps.
* **Key-first install** — a warm sweep sends no state upstream, cold
  workers share one state frame built once per sweep, a restarted
  worker is re-shipped the state, a warm store-mode sweep never touches
  the store, and a ``run`` under a stale key is refused.
* **Fault injection** — a worker crashing mid-shard gets its unit
  retried on a healthy worker with identical answers; a tampered or
  truncated stream (through :class:`helpers.faults.TamperProxy`) fails
  the run with :class:`~repro.errors.TransportError`, never a silently
  wrong answer; when every worker is gone, the executor refuses.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

import pytest

from helpers.faults import (
    ByteCounter,
    TamperProxy,
    cut_after,
    flip_byte,
    rewrite_frame,
)
from repro.errors import SnapshotError, TransportError
from repro.matching import RemoteShardExecutor, WorkerServer, make_matcher
from repro.matching import remote as remote_module
from repro.matching.executor import (
    ExecutionState,
    WorkUnit,
    current_switches,
)
from repro.matching.pipeline import matcher_fingerprint, schema_digest
from repro.matching.remote import (
    CLOSED,
    MAGIC,
    PROTOCOL_VERSION,
    DeadlineBudget,
    parse_address,
    recv_message,
    send_message,
)
from repro.schema.store import SnapshotStore

pytestmark = pytest.mark.network


@pytest.fixture(scope="module")
def queries(small_workload):
    return [scenario.query for scenario in small_workload.suite.scenarios]


def _canonical(answer_sets) -> bytes:
    return repr(
        [
            [(answer.item.key, answer.score) for answer in answers.answers()]
            for answers in answer_sets
        ]
    ).encode()


def _serial_answers(small_workload, queries, name="exhaustive", params=None):
    matcher = make_matcher(name, small_workload.objective, **(params or {}))
    return matcher.batch_match(
        queries, small_workload.repository, 0.3, cache=False
    )


def _remote_answers(
    small_workload, queries, executor, name="exhaustive", params=None
):
    matcher = make_matcher(name, small_workload.objective, **(params or {}))
    return matcher.batch_match(
        queries,
        small_workload.repository,
        0.3,
        cache=False,
        shards=3,
        executor=executor,
    )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        send_message(a, {"op": "hello", "version": PROTOCOL_VERSION})
        assert recv_message(b) == {"op": "hello", "version": PROTOCOL_VERSION}

    def test_clean_eof_between_frames(self, pair):
        a, b = pair
        a.close()
        assert recv_message(b, eof_ok=True) is CLOSED
        with pytest.raises(TransportError, match="closed before a frame"):
            recv_message(b)

    def test_truncated_frame_raises(self, pair):
        a, b = pair
        payload = pickle.dumps({"op": "run"})
        frame = remote_module._HEADER.pack(
            MAGIC, len(payload), remote_module._digest(payload)
        ) + payload
        a.sendall(frame[:-3])  # drop the frame's last bytes
        a.close()
        with pytest.raises(TransportError, match="mid-frame"):
            recv_message(b, eof_ok=True)  # eof_ok covers *between* frames only

    def test_foreign_magic_raises(self, pair):
        a, b = pair
        a.sendall(b"HTTP" + b"\x00" * 20)
        with pytest.raises(TransportError, match="foreign frame magic"):
            recv_message(b)

    def test_oversized_length_raises(self, pair):
        a, b = pair
        a.sendall(
            remote_module._HEADER.pack(
                MAGIC, remote_module.MAX_FRAME + 1, b"\x00" * 16
            )
        )
        with pytest.raises(TransportError, match="MAX_FRAME"):
            recv_message(b)

    def test_tampered_payload_raises(self, pair):
        a, b = pair
        payload = pickle.dumps({"op": "result", "pairs": []})
        frame = remote_module._HEADER.pack(
            MAGIC, len(payload), remote_module._digest(payload)
        ) + payload
        tampered = bytearray(frame)
        tampered[-1] ^= 0xFF  # one flipped payload byte
        a.sendall(bytes(tampered))
        with pytest.raises(TransportError, match="does not hash"):
            recv_message(b)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address(("localhost", "8080")) == ("localhost", 8080)
        with pytest.raises(TransportError, match="host:port"):
            parse_address("9000")
        with pytest.raises(TransportError, match="non-numeric"):
            parse_address("host:http")

    def test_parse_address_tuple_errors(self):
        """Tuple-form addresses fail as loudly as string-form ones."""
        with pytest.raises(TransportError, match="non-numeric"):
            parse_address(("localhost", "http"))
        with pytest.raises(TransportError, match="non-numeric"):
            parse_address(("localhost", None))
        with pytest.raises(TransportError, match=r"\(host, port\) pair"):
            parse_address(("localhost", 1, 2))
        with pytest.raises(TransportError, match=r"\(host, port\) pair"):
            parse_address(("localhost",))

    def test_valid_digest_garbage_payload_raises(self, pair):
        """Payload bytes that hash correctly but do not decode.

        The digest proves transit integrity, not well-formedness: a
        peer that frames garbage correctly must still be refused at the
        protocol layer, not crash the receiver with a decode error.
        """
        a, b = pair
        payload = b"these bytes are not a pickled message"
        a.sendall(
            remote_module._HEADER.pack(
                MAGIC, len(payload), remote_module._digest(payload)
            )
            + payload
        )
        with pytest.raises(TransportError, match="not a valid message"):
            recv_message(b)


def _frame(message: object) -> bytes:
    """The exact frame bytes :func:`send_message` would put on the wire."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        remote_module._HEADER.pack(
            MAGIC, len(payload), remote_module._digest(payload)
        )
        + payload
    )


class TestFrameEdges:
    """The frame-size and protocol-skew edges of the wire format."""

    def test_send_refuses_oversize_frame(self, pair, monkeypatch):
        """An oversize payload is refused before a byte hits the wire."""
        a, _b = pair
        monkeypatch.setattr(remote_module, "MAX_FRAME", 64)
        with pytest.raises(TransportError, match="refusing to send"):
            send_message(a, {"op": "install", "blob": b"x" * 256})

    def test_worker_closes_on_announced_oversize(self):
        """A header announcing > MAX_FRAME: the worker drops the stream.

        No error reply — a peer announcing a gigabyte-plus frame is a
        desynchronised or hostile stream, and nothing later on it can
        be trusted; the connection closes and the client observes EOF.
        """
        worker = WorkerServer().start()
        try:
            sock = socket.create_connection(worker.address, timeout=5)
            sock.sendall(
                remote_module._HEADER.pack(
                    MAGIC, remote_module.MAX_FRAME + 1, b"\x00" * 16
                )
            )
            with pytest.raises(TransportError, match="closed"):
                recv_message(sock)
            sock.close()
        finally:
            worker.stop()
        assert worker.stats.units == 0

    def test_hello_version_skew_refused(self, small_workload, queries):
        """A relay rewriting hello to a future protocol version.

        :func:`helpers.faults.rewrite_frame` substitutes a complete,
        correctly digest-framed hello — so the fault passes the framing
        layer and must be refused by the worker's *protocol* logic.
        The worker never installs state and never runs a unit.
        """
        worker = WorkerServer().start()
        skew = rewrite_frame(
            _frame({"op": "hello", "version": PROTOCOL_VERSION}),
            _frame({"op": "hello", "version": 999}),
        )
        with TamperProxy(worker.address, upstream=skew) as proxy:
            try:
                executor = RemoteShardExecutor([proxy.address])
                with pytest.raises(TransportError, match="version mismatch"):
                    _remote_answers(small_workload, queries, executor)
            finally:
                worker.stop()
        assert worker.stats.installs == 0
        assert worker.stats.units == 0


# ---------------------------------------------------------------------------
# Byte-identity over live workers
# ---------------------------------------------------------------------------

class TestRemoteByteIdentity:
    @pytest.mark.parametrize(
        "name,params",
        [("exhaustive", {}), ("clustering", {"clusters_per_element": 2})],
    )
    def test_inline_matches_serial(self, small_workload, queries, name, params):
        workers = [WorkerServer().start() for _ in range(2)]
        try:
            executor = RemoteShardExecutor([w.address for w in workers])
            remote = _remote_answers(
                small_workload, queries, executor, name, params
            )
        finally:
            for worker in workers:
                worker.stop()
        serial = _serial_answers(small_workload, queries, name, params)
        assert _canonical(remote) == _canonical(serial)
        assert sum(w.stats.units for w in workers) == len(queries) * 3

    def test_store_mode_matches_serial(self, small_workload, queries, tmp_path):
        worker = WorkerServer().start()
        try:
            executor = RemoteShardExecutor(
                [worker.address], store=tmp_path / "snap"
            )
            remote = _remote_answers(small_workload, queries, executor)
        finally:
            worker.stop()
        assert _canonical(remote) == _canonical(
            _serial_answers(small_workload, queries)
        )
        # The worker pulled state from the store the coordinator wrote.
        assert (tmp_path / "snap").exists()
        assert worker.stats.installs == 1

    def test_state_reused_across_sweeps(self, small_workload, queries):
        worker = WorkerServer().start()
        try:
            executor = RemoteShardExecutor([worker.address])
            first = _remote_answers(small_workload, queries, executor)
            second = _remote_answers(small_workload, queries, executor)
        finally:
            worker.stop()
        assert _canonical(first) == _canonical(second)
        assert worker.stats.installs == 1
        assert worker.stats.installs_reused >= 1


# ---------------------------------------------------------------------------
# Key-first install: state crosses the wire only when a worker asks
# ---------------------------------------------------------------------------

def _inline_install_bytes(small_workload, queries) -> int:
    """Size of one pickled inline install payload (matcher, queries, table)."""
    matcher = make_matcher("exhaustive", small_workload.objective)
    matcher.prepare(small_workload.repository)
    return len(pickle.dumps(
        {
            "matcher": matcher,
            "queries": queries,
            "schema_table": {
                schema.schema_id: schema
                for schema in small_workload.repository
            },
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    ))


def _run_message(state_key: tuple) -> dict:
    return {
        "op": "run",
        "state_key": state_key,
        "query_index": 0,
        "schema_ids": (),
        "delta_max": 0.3,
    }


@pytest.fixture()
def state_builds(monkeypatch):
    """Records the ``state_key`` of every state frame the coordinator builds."""
    builds: list[tuple] = []
    build = RemoteShardExecutor._state_payload

    def counting(executor, state):
        builds.append(state.state_key)
        return build(executor, state)

    monkeypatch.setattr(RemoteShardExecutor, "_state_payload", counting)
    return builds


class TestKeyFirstInstall:
    def test_warm_sweep_ships_no_state(self, small_workload, queries):
        """The second sweep's coordinator→worker bytes carry no install.

        A worker counting a same-key install as a reuse is not enough:
        the bytes must not cross the wire either.  Only hello, the
        key-only install and the work units go upstream.
        """
        worker = WorkerServer().start()
        upstream = ByteCounter()
        with TamperProxy(worker.address, upstream=upstream) as proxy:
            try:
                executor = RemoteShardExecutor([proxy.address])
                first = _remote_answers(small_workload, queries, executor)
                cold = upstream.total
                second = _remote_answers(small_workload, queries, executor)
                warm = upstream.total - cold
            finally:
                worker.stop()
        install = _inline_install_bytes(small_workload, queries)
        assert cold > install, "the first sweep never shipped the state"
        assert warm < install, (
            f"a warm sweep sent {warm} bytes upstream, more than one "
            f"{install}-byte install payload"
        )
        assert _canonical(first) == _canonical(second)
        assert worker.stats.installs == 1
        assert worker.stats.installs_reused == 1

    def test_cold_workers_share_one_state_frame(
        self, small_workload, queries, state_builds
    ):
        """Two cold workers ask; the state is built and pickled once."""
        workers = [WorkerServer().start() for _ in range(2)]
        try:
            executor = RemoteShardExecutor([w.address for w in workers])
            cold = _remote_answers(small_workload, queries, executor)
            assert len(state_builds) == 1
            warm = _remote_answers(small_workload, queries, executor)
        finally:
            for worker in workers:
                worker.stop()
        assert len(state_builds) == 1, "a warm sweep rebuilt the state"
        assert [w.stats.installs for w in workers] == [1, 1]
        serial = _canonical(_serial_answers(small_workload, queries))
        assert _canonical(cold) == serial
        assert _canonical(warm) == serial

    def test_restarted_worker_gets_state_again(
        self, small_workload, queries, state_builds
    ):
        """A worker back with empty state asks for, and gets, the state."""
        worker = WorkerServer().start()
        address = worker.address
        executor = RemoteShardExecutor([address])
        try:
            _remote_answers(small_workload, queries, executor)
        finally:
            worker.stop()
        revived = WorkerServer(address[0], address[1]).start()
        try:
            remote = _remote_answers(small_workload, queries, executor)
        finally:
            revived.stop()
        assert len(state_builds) == 2
        assert revived.stats.installs == 1
        assert revived.stats.installs_reused == 0
        assert _canonical(remote) == _canonical(
            _serial_answers(small_workload, queries)
        )

    def test_warm_store_sweep_never_touches_store(
        self, small_workload, queries, tmp_path, monkeypatch
    ):
        """Store mode: a warm sweep neither reads nor writes the snapshot."""
        worker = WorkerServer().start()
        try:
            executor = RemoteShardExecutor(
                [worker.address], store=tmp_path / "snap"
            )
            _remote_answers(small_workload, queries, executor)

            def untouchable(*args, **kwargs):
                raise SnapshotError("a warm sweep touched the snapshot store")

            monkeypatch.setattr(SnapshotStore, "manifest", untouchable)
            monkeypatch.setattr(remote_module, "save_snapshot", untouchable)
            remote = _remote_answers(small_workload, queries, executor)
        finally:
            worker.stop()
        assert _canonical(remote) == _canonical(
            _serial_answers(small_workload, queries)
        )
        assert worker.stats.installs == 1
        assert worker.stats.installs_reused == 1

    def test_state_build_failure_fails_sweep(
        self, small_workload, queries, tmp_path, monkeypatch
    ):
        """A coordinator that cannot write its snapshot fails loudly.

        The error is the coordinator's own, so it surfaces as itself —
        not as a dead worker — and the worker's breaker stays closed.
        """
        worker = WorkerServer().start()

        def unwritable(*args, **kwargs):
            raise SnapshotError("snapshot store is read-only")

        monkeypatch.setattr(remote_module, "save_snapshot", unwritable)
        try:
            executor = RemoteShardExecutor(
                [worker.address], store=tmp_path / "snap"
            )
            with pytest.raises(SnapshotError, match="read-only"):
                _remote_answers(small_workload, queries, executor)
        finally:
            worker.stop()
        assert executor.worker_health(worker.address).state == "closed"
        assert worker.stats.installs == 0
        assert worker.stats.units == 0

    def test_run_under_stale_key_refused(self, small_workload, queries):
        """Asking by key installs nothing; a replaced key is refused."""
        worker = WorkerServer().start()
        try:
            executor = RemoteShardExecutor([worker.address])
            _remote_answers(small_workload, queries, executor)
            matcher = make_matcher("exhaustive", small_workload.objective)
            matcher.prepare(small_workload.repository)
            live = _execution_state(small_workload, queries, matcher)
            unknown = _execution_state(small_workload, queries[:1], matcher)
            sock = socket.create_connection(worker.address, timeout=5)
            send_message(sock, {"op": "install", "state_key": unknown.state_key})
            asked = recv_message(sock)
            send_message(sock, _run_message(unknown.state_key))
            never_installed = recv_message(sock)
            # a sweep over one query replaces the live state
            _remote_answers(small_workload, queries[:1], executor)
            send_message(sock, _run_message(live.state_key))
            stale = recv_message(sock)
            sock.close()
        finally:
            worker.stop()
        assert asked == {"op": "need_state"}
        for reply in (never_installed, stale):
            assert reply["op"] == "error"
            assert "no state installed" in reply["error"]
        assert worker.stats.installs == 2


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class _CrashingWorker(WorkerServer):
    """Dies abruptly — listener and every connection — on its first unit.

    The coordinator sent the unit and will never hear back: the
    connection drops mid-conversation, exactly like ``kill -9`` on a
    remote worker process between request and reply.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.crashed = False

    def _run(self, message):
        self.crashed = True
        self._stopping.set()
        self._close_listener()
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        raise TransportError("injected crash mid-shard")


class _SlowFirstUnitWorker(WorkerServer):
    """Stalls its first unit so a peer is guaranteed to pick one up too."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._stalled = False

    def _run(self, message):
        if not self._stalled:
            self._stalled = True
            time.sleep(0.3)
        return super()._run(message)


class TestFaultInjection:
    def test_worker_crash_mid_shard_is_retried(self, small_workload, queries):
        """The headline scenario: crash mid-shard, identical answers."""
        crasher = _CrashingWorker().start()
        healthy = _SlowFirstUnitWorker().start()
        try:
            executor = RemoteShardExecutor([crasher.address, healthy.address])
            remote = _remote_answers(small_workload, queries, executor)
        finally:
            crasher.stop()
            healthy.stop()
        assert crasher.crashed, "the fault never fired"
        # Every unit — including the one the crasher dropped — completed
        # on the healthy worker, and the answers are byte-identical.
        assert healthy.stats.units == len(queries) * 3
        assert _canonical(remote) == _canonical(
            _serial_answers(small_workload, queries)
        )

    def test_all_workers_gone_raises(self, small_workload, queries):
        crasher = _CrashingWorker().start()
        try:
            executor = RemoteShardExecutor([crasher.address])
            with pytest.raises(TransportError, match="remote workers are gone"):
                _remote_answers(small_workload, queries, executor)
        finally:
            crasher.stop()

    def test_tampered_stream_raises(self, small_workload, queries):
        """A flipped byte inside a reply frame: loud TransportError."""
        worker = WorkerServer().start()
        # Offset 30 lands inside the first reply's payload (24-byte
        # header + pickled {"op": "ready", ...}).
        with TamperProxy(worker.address, downstream=flip_byte(30)) as proxy:
            try:
                executor = RemoteShardExecutor([proxy.address])
                with pytest.raises(TransportError):
                    _remote_answers(small_workload, queries, executor)
            finally:
                worker.stop()

    def test_truncated_stream_raises(self, small_workload, queries):
        """A connection cut mid-header: loud TransportError."""
        worker = WorkerServer().start()
        with TamperProxy(worker.address, downstream=cut_after(10)) as proxy:
            try:
                executor = RemoteShardExecutor([proxy.address])
                with pytest.raises(TransportError):
                    _remote_answers(small_workload, queries, executor)
            finally:
                worker.stop()

    def test_upstream_tamper_never_executes(self, small_workload, queries):
        """Damage on the coordinator→worker leg: the worker refuses too."""
        worker = WorkerServer().start()
        with TamperProxy(worker.address, upstream=flip_byte(40)) as proxy:
            try:
                executor = RemoteShardExecutor([proxy.address])
                with pytest.raises(TransportError):
                    _remote_answers(small_workload, queries, executor)
            finally:
                worker.stop()
        assert worker.stats.units == 0


class TestVersionAndState:
    def test_version_mismatch_refused(self):
        """Any other version is refused at hello — v1 peers included."""
        worker = WorkerServer().start()
        replies = []
        try:
            for version in (1, 999):
                sock = socket.create_connection(worker.address, timeout=5)
                send_message(sock, {"op": "hello", "version": version})
                replies.append(recv_message(sock))
                sock.close()
        finally:
            worker.stop()
        for reply in replies:
            assert reply["op"] == "error"
            assert "version mismatch" in reply["error"]

    def test_run_without_install_refused(self):
        worker = WorkerServer().start()
        try:
            sock = socket.create_connection(worker.address, timeout=5)
            send_message(sock, _run_message(("nope",)))
            reply = recv_message(sock)
            sock.close()
        finally:
            worker.stop()
        assert reply["op"] == "error"
        assert "no state installed" in reply["error"]

    def test_parallel_units_must_be_positive(self):
        with pytest.raises(TransportError, match="parallel_units"):
            WorkerServer(parallel_units=0)


# ---------------------------------------------------------------------------
# Coordinator shutdown hygiene
# ---------------------------------------------------------------------------

def _fanout_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-remote")
    ]


def _no_fanout_threads(timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _fanout_threads():
            return True
        time.sleep(0.05)
    return False


def _execution_state(small_workload, queries, matcher):
    switches = current_switches()
    return ExecutionState(
        matcher=matcher,
        queries=queries,
        repository=small_workload.repository,
        schema_table={
            schema.schema_id: schema for schema in small_workload.repository
        },
        switches=switches,
        state_key=(
            matcher_fingerprint(matcher),
            small_workload.repository.content_digest(),
            tuple(schema_digest(query) for query in queries),
            *switches,
        ),
    )


class TestCoordinatorShutdown:
    """``execute`` leaves nothing behind, however the sweep ends."""

    def test_no_leaked_threads_after_worker_death(
        self, small_workload, queries
    ):
        """Every worker dying mid-sweep: the fan-out thread still exits."""
        crasher = _CrashingWorker().start()
        try:
            executor = RemoteShardExecutor([crasher.address])
            with pytest.raises(TransportError):
                _remote_answers(small_workload, queries, executor)
        finally:
            crasher.stop()
        assert _no_fanout_threads(), (
            "fan-out thread leaked after a failed sweep: "
            f"{_fanout_threads()}"
        )

    def test_no_leaked_threads_after_abandoned_stream(
        self, small_workload, queries
    ):
        """A consumer walking away mid-stream: the fan-out loop bails.

        The pipeline consumes ``execute`` generators to completion, but
        the generator protocol allows any consumer to ``close()`` early
        — and an abandoned sweep must not keep a live event loop
        talking to workers behind the caller's back.
        """
        worker = _SlowFirstUnitWorker().start()
        try:
            matcher = make_matcher("exhaustive", small_workload.objective)
            matcher.prepare(small_workload.repository)
            state = _execution_state(small_workload, queries, matcher)
            schema_ids = tuple(
                schema.schema_id for schema in small_workload.repository
            )
            units = [
                WorkUnit(index, 0, schema_ids)
                for index in range(len(queries))
            ]
            executor = RemoteShardExecutor([worker.address])
            stream = executor.execute(state, units, 0.3)
            next(stream)  # first unit completes, the rest never asked for
            stream.close()
        finally:
            worker.stop()
        assert _no_fanout_threads(), (
            "fan-out thread leaked after an abandoned sweep: "
            f"{_fanout_threads()}"
        )


# ---------------------------------------------------------------------------
# Worker-side parallelism
# ---------------------------------------------------------------------------

class TestParallelUnits:
    def test_concurrent_coordinators_byte_identical(
        self, small_workload, queries
    ):
        """Two coordinators race one ``parallel_units=2`` worker.

        Both sweeps must come back byte-identical to the serial path
        (whichever state slot each unit lands on), the state installs
        exactly once (the coordinators share a ``state_key``), and
        every unit of both sweeps executes.
        """
        worker = WorkerServer(parallel_units=2).start()
        results: dict[int, bytes] = {}
        errors: list[BaseException] = []

        def sweep(label: int) -> None:
            try:
                # a private objective per coordinator: similarity
                # substrates are not shared safely across concurrently
                # executing matchers
                objective = pickle.loads(
                    pickle.dumps(small_workload.objective)
                )
                matcher = make_matcher("exhaustive", objective)
                executor = RemoteShardExecutor([worker.address])
                results[label] = _canonical(matcher.batch_match(
                    queries,
                    small_workload.repository,
                    0.3,
                    cache=False,
                    shards=3,
                    executor=executor,
                ))
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(label,)) for label in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        worker.stop()
        assert not errors, errors
        serial = _canonical(_serial_answers(small_workload, queries))
        assert results[0] == serial
        assert results[1] == serial
        assert worker.stats.units == len(queries) * 3 * 2
        assert worker.stats.installs == 1
        assert worker.stats.installs_reused >= 1


# ---------------------------------------------------------------------------
# Deadlines: hung peers are crashes, not hangs
# ---------------------------------------------------------------------------

def _dead_address() -> tuple[str, int]:
    """An address nothing listens on (a just-released ephemeral port)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    address = sock.getsockname()[:2]
    sock.close()
    return address


class TestDeadlines:
    def test_budget_validation(self):
        with pytest.raises(TransportError, match="must be positive"):
            DeadlineBudget(run=0)
        with pytest.raises(TransportError, match="must be positive"):
            DeadlineBudget(hello=-1.0)

    def test_op_timeout_validation(self):
        with pytest.raises(TransportError, match="op_timeout"):
            WorkerServer(op_timeout=0)

    def test_stalled_worker_deadline_expires(self, small_workload, queries):
        """A hung (not crashed) worker: silence, no EOF, no reset.

        Without deadlines the coordinator coroutine would block forever
        — the liveness hole this layer closes.  The hello deadline
        converts the stall into a loud failure, the worker's breaker
        opens, and the sweep fails like an ordinary all-workers-gone.
        """
        worker = WorkerServer().start()
        with TamperProxy(worker.address, stall_after=0) as proxy:
            executor = RemoteShardExecutor(
                [proxy.address],
                deadlines=DeadlineBudget(
                    connect=5.0, hello=0.3, install=30.0, run=30.0
                ),
            )
            with pytest.raises(
                TransportError, match="remote workers are gone"
            ):
                _remote_answers(small_workload, queries, executor)
        worker.stop()
        assert executor.stats.deadline_expiries >= 1
        assert executor.worker_health(proxy.address).state == "open"
        assert worker.stats.units == 0

    def test_deadline_unit_retried_on_healthy_peer(
        self, small_workload, queries
    ):
        """A stalled worker's units complete elsewhere, byte-identical.

        The re-enqueue contract: an expired deadline is handled exactly
        like a crash, so the healthy peer absorbs the whole sweep.
        """
        hung = WorkerServer().start()
        # slow first unit: the sweep outlives the hello deadline, so the
        # stalled peer demonstrably *expires* rather than being
        # cancelled as a straggler when the sweep drains without it
        healthy = _SlowFirstUnitWorker().start()
        with TamperProxy(hung.address, stall_after=0) as proxy:
            executor = RemoteShardExecutor(
                [proxy.address, healthy.address],
                deadlines=DeadlineBudget(
                    connect=5.0, hello=0.05, install=60.0, run=60.0
                ),
            )
            remote = _remote_answers(small_workload, queries, executor)
        hung.stop()
        healthy.stop()
        assert executor.stats.deadline_expiries >= 1
        assert healthy.stats.units == len(queries) * 3
        assert _canonical(remote) == _canonical(
            _serial_answers(small_workload, queries)
        )


class TestHungPeerServer:
    """op_timeout: the worker side of the liveness story."""

    def test_hung_peer_cannot_block_stop(self):
        """Half a frame, then silence: stop() must still return.

        Without the mid-frame timeout the connection thread sits in
        ``recv`` forever and ``stop()`` hangs on the join — the exact
        regression this guards.
        """
        worker = WorkerServer(op_timeout=0.2).start()
        sock = socket.create_connection(worker.address, timeout=5)
        sock.sendall(MAGIC)  # a frame has started; the rest never comes
        time.sleep(0.05)
        started = time.monotonic()
        worker.stop()
        elapsed = time.monotonic() - started
        sock.close()
        assert elapsed < 3.0, f"stop() took {elapsed:.1f}s with a hung peer"

    def test_op_timeout_drops_hung_peer(self):
        """The worker itself drops a peer that stalls mid-frame."""
        worker = WorkerServer(op_timeout=0.2).start()
        try:
            sock = socket.create_connection(worker.address, timeout=5)
            sock.sendall(MAGIC + b"\x00")  # mid-frame, then silence
            sock.settimeout(5)
            try:
                while sock.recv(4096):
                    pass  # reaching EOF here proves the worker dropped us
            except ConnectionError:
                pass  # a reset is an equally loud drop
            sock.close()
        finally:
            worker.stop()

    def test_idle_peer_is_not_dropped(self):
        """The timeout is mid-frame only: idle between frames is healthy."""
        worker = WorkerServer(op_timeout=0.2).start()
        try:
            sock = socket.create_connection(worker.address, timeout=5)
            time.sleep(0.4)  # idle well past op_timeout, no frame started
            send_message(sock, {"op": "hello", "version": PROTOCOL_VERSION})
            reply = recv_message(sock)
            sock.close()
        finally:
            worker.stop()
        assert reply["op"] == "ready"


# ---------------------------------------------------------------------------
# Worker health: circuit breakers on the coordinator
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_breaker_param_validation(self):
        with pytest.raises(TransportError, match="breaker_backoff"):
            RemoteShardExecutor(["h:1"], breaker_backoff=0)
        with pytest.raises(TransportError, match="breaker_backoff_cap"):
            RemoteShardExecutor(
                ["h:1"], breaker_backoff=2.0, breaker_backoff_cap=1.0
            )
        with pytest.raises(TransportError, match="breaker_jitter"):
            RemoteShardExecutor(["h:1"], breaker_jitter=-0.1)

    def test_dead_address_not_redialed(self, small_workload, queries):
        """The satellite regression: one dial, then the breaker skips.

        Before the breaker, ``execute`` re-dialed a known-dead address
        on every sweep; now the first failure opens the breaker and the
        second sweep never touches the address (``dials`` stays 1).
        """
        dead = _dead_address()
        worker = WorkerServer().start()
        try:
            executor = RemoteShardExecutor(
                [dead, worker.address], breaker_backoff=60.0, breaker_backoff_cap=60.0
            )
            first = _remote_answers(small_workload, queries, executor)
            second = _remote_answers(small_workload, queries, executor)
        finally:
            worker.stop()
        serial = _canonical(_serial_answers(small_workload, queries))
        assert _canonical(first) == serial
        assert _canonical(second) == serial
        health = executor.worker_health(dead)
        assert health.state == "open"
        assert health.dials == 1
        assert executor.stats.breaker_skips >= 1
        assert executor.worker_health(worker.address).state == "closed"

    def test_all_breakers_open_refuses(self, small_workload, queries):
        """Every address cooling down: the sweep refuses loudly."""
        dead = _dead_address()
        executor = RemoteShardExecutor(
            [dead], breaker_backoff=60.0, breaker_backoff_cap=60.0
        )
        with pytest.raises(TransportError, match="remote workers are gone"):
            _remote_answers(small_workload, queries, executor)
        with pytest.raises(TransportError, match="breaker"):
            _remote_answers(small_workload, queries, executor)
        assert executor.stats.all_open_refusals == 1

    def test_half_open_probe_readmits_and_closes(
        self, small_workload, queries
    ):
        """A worker that comes back: cooldown, half-open probe, closed."""
        worker = WorkerServer().start()
        address = worker.address
        executor = RemoteShardExecutor(
            [address],
            breaker_backoff=0.05,
            breaker_backoff_cap=0.1,
            breaker_jitter=0.0,
        )
        worker.stop()
        with pytest.raises(TransportError, match="remote workers are gone"):
            _remote_answers(small_workload, queries, executor)
        assert executor.worker_health(address).state == "open"
        revived = WorkerServer(address[0], address[1]).start()
        try:
            time.sleep(0.15)  # past the cooldown: the next sweep probes
            remote = _remote_answers(small_workload, queries, executor)
        finally:
            revived.stop()
        assert executor.stats.half_open_probes >= 1
        assert executor.stats.breaker_closes >= 1
        assert executor.worker_health(address).state == "closed"
        assert _canonical(remote) == _canonical(
            _serial_answers(small_workload, queries)
        )

    def test_probe_closes_breaker_without_cooldown(self):
        """probe(): the operator's explicit health check."""
        dead = _dead_address()
        executor = RemoteShardExecutor(
            [dead], breaker_backoff=3600.0, breaker_backoff_cap=3600.0
        )
        assert executor.probe(dead) is False
        assert executor.worker_health(dead).state == "open"
        revived = WorkerServer(dead[0], dead[1]).start()
        try:
            assert executor.probe(dead) is True
        finally:
            revived.stop()
        # no cooldown wait: the successful probe closed the breaker
        assert executor.worker_health(dead).state == "closed"
        assert executor.stats.probes == 2
        assert executor.stats.breaker_closes == 1

    def test_status_line(self):
        dead = _dead_address()
        executor = RemoteShardExecutor(
            [dead], breaker_backoff=3600.0, breaker_backoff_cap=3600.0
        )
        assert executor.probe(dead) is False
        line = executor.status()
        assert line.startswith("executor remote:")
        assert f"{dead[0]}:{dead[1]}=open" in line
        assert "breaker opens" in line
