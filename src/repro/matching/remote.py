"""Socket shard workers: the pipeline's fan-out over remote nodes.

This module extends the :class:`~repro.matching.executor.ShardExecutor`
seam across machine boundaries.  A :class:`WorkerServer` (started by the
``repro worker`` CLI subcommand, or in-process for tests) holds exactly
the state a pooled worker process holds — matcher, queries, the
repository's schema table — installed **one-shot** and reused while the
coordinator's ``state_key`` matches; a
:class:`RemoteShardExecutor` on the coordinator fans the same
``(query_index, schema_ids, delta_max)`` work units out to N workers and
streams their results back in completion order.

Wire format
-----------
Every message is one **frame**::

    b"RPW1" | uint32 BE payload length | 16-byte blake2b digest | payload

The digest covers the payload bytes; :func:`recv_message` re-hashes what
it read and refuses mismatches, so truncation, tampering, bit rot and
desynchronised streams all surface as a loud
:class:`~repro.errors.TransportError` — **never** as a silently wrong
answer.  Payloads are pickled dicts with an ``"op"`` key; pickle is an
explicit trust statement: this protocol connects nodes of *one* cluster
under one operator, it is not an internet-facing surface.  A
connection opens with a ``hello`` naming :data:`PROTOCOL_VERSION`
(currently 4); a worker refuses any other version.

State install is **key-first**: the ``install`` op
carries only the coordinator's ``state_key``.  A worker already holding
that key answers ``installed`` and the sweep goes straight to its work
units; a worker that does not answers ``need_state``, and only then does
the coordinator send one ``state`` frame.  That frame is built and
pickled at most once per sweep and shared by every worker that asked.
Its content depends on the install mode:

* ``inline`` — matcher, queries and schema table, exactly the pool
  initializer's payload.  Nothing else: a worker mirrors no
  process-wide settings of the coordinator.
* ``store`` — only the matcher configuration plus the path of a shared
  :class:`~repro.schema.store.SnapshotStore` and the expected content
  digests; the worker **pulls** the repository, queries and the
  persisted substrate/kernel payload by digest from the store (every
  read byte-digest-verified) and refuses digests that do not match the
  coordinator's.  This is how heavy substrate/kernel payloads reach many
  workers without N copies crossing one socket.  The coordinator checks
  (and if needed writes) the snapshot only when building this frame, so
  a sweep over warm workers never touches the store.

Failure semantics on the coordinator: a worker that dies mid-unit gets
its unit re-enqueued and picked up by a healthy worker (answers are
byte-identical by the executor contract, so a retry is invisible in the
output); when *every* worker is gone with units still outstanding,
``execute`` raises :class:`~repro.errors.TransportError`.

Concurrency model: the coordinator fans out on **asyncio** — one
event loop on one background thread, one coroutine per worker, with
:func:`async_send_message`/:func:`async_recv_message` as the stream
twins of the blocking framing helpers — so N workers cost one thread,
not N.  A worker holds **one** installed state and runs one unit at a
time on it: connections are served on a thread each, but a unit holds
the state lock from its key check to its last pair, so a reinstall
waits for the running unit and a ``run`` of a replaced key is refused.
Threads of one interpreter share the GIL, so a second state on the
same worker would buy no throughput — parallelism comes from more
workers.

Liveness: every remote op runs under a per-op deadline from the
coordinator's :class:`DeadlineBudget` — a hung socket can delay a sweep
by at most one deadline, never hang it — and the coordinator keeps a
per-address :class:`WorkerHealth` circuit breaker: a failing worker's
breaker **opens** (the fan-out skips the address instead of re-dialing
it every sweep), cools down under exponential backoff with jitter,
**half-opens** to probe once the cooldown elapses, and closes again on
success.  When every configured address sits behind an open breaker,
:meth:`RemoteShardExecutor.execute` refuses loudly rather than dialing
into a known-dead cluster.  None of this touches the byte-identity
contract: an expired deadline is handled exactly like a crashed worker
(the unit is re-enqueued for a healthy peer, or the sweep raises
:class:`~repro.errors.TransportError`).
"""

from __future__ import annotations

import asyncio
import hashlib
import pickle
import random
import socket
import struct
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from queue import Queue

from repro.errors import SnapshotError, TransportError
from repro.matching.executor import (
    ExecutionState,
    ShardExecutor,
    run_unit_with,
)
from repro.matching.similarity.persist import (
    restore_substrate,
    save_snapshot,
)
from repro.schema.store import SnapshotStore

__all__ = [
    "MAGIC",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "DeadlineBudget",
    "ExecutorStats",
    "RemoteShardExecutor",
    "WorkerHealth",
    "WorkerServer",
    "WorkerStats",
    "async_recv_message",
    "async_send_message",
    "parse_address",
    "recv_message",
    "send_message",
]

MAGIC = b"RPW1"
#: 2 = key-first install (``install`` names the key; ``state`` ships it
#: on demand); 3 = the ``state`` frame carries no ``switches`` field;
#: 4 = the pickled substrate holds no token index.  Peers speaking any
#: other version are refused at ``hello``, before any state unpickles
PROTOCOL_VERSION = 4
#: frame size cap — far above any real install payload, far below
#: anything that could be a desynchronised stream read as a length
MAX_FRAME = 1 << 30

_HEADER = struct.Struct("!4sI16s")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def _dumps(message: object) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def _frame_header(payload: bytes) -> bytes:
    """The magic/length/digest header of ``payload``; refuses oversize."""
    if len(payload) > MAX_FRAME:
        raise TransportError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(MAX_FRAME is {MAX_FRAME})"
        )
    return _HEADER.pack(MAGIC, len(payload), _digest(payload))


def send_message(sock: socket.socket, message: object) -> None:
    """Pickle ``message`` and send it as one digest-framed frame."""
    payload = _dumps(message)
    header = _frame_header(payload)
    try:
        sock.sendall(header)
        sock.sendall(payload)
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if not chunk:
            got = size - remaining
            raise TransportError(
                f"connection closed mid-frame ({got}/{size} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


#: sentinel returned by :func:`recv_message` on a clean end-of-stream
CLOSED = object()


def recv_message(
    sock: socket.socket,
    *,
    eof_ok: bool = False,
    mid_frame_timeout: float | None = None,
) -> object:
    """Receive one frame; verify its digest; unpickle the payload.

    A connection that closes cleanly *between* frames returns
    :data:`CLOSED` when ``eof_ok`` is set (the server's idle-peer case)
    and raises :class:`TransportError` otherwise (a coordinator mid-
    conversation).  *Any* other irregularity — EOF mid-frame, foreign
    magic, oversized length, payload bytes that do not hash to the
    header digest, a digest-valid payload that does not unpickle —
    raises :class:`TransportError`.

    ``mid_frame_timeout`` bounds how long a peer may stall **inside** a
    frame: the wait for a frame's *first* byte stays unbounded (an idle
    coordinator between sweeps is healthy), but once a frame has
    started, every further byte must arrive within the timeout or the
    peer is treated as hung and the read fails loudly.
    """
    try:
        if mid_frame_timeout is not None:
            sock.settimeout(None)  # idle between frames may wait forever
        first = sock.recv(1)
    except OSError as exc:
        raise TransportError(f"receive failed: {exc}") from exc
    if not first:
        if eof_ok:
            return CLOSED
        raise TransportError("connection closed before a frame arrived")
    if mid_frame_timeout is not None:
        # a started frame must keep flowing: a peer that goes silent
        # mid-frame must not pin this reader (or block a server's
        # stop()) forever
        try:
            sock.settimeout(mid_frame_timeout)
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
    header = first + _recv_exact(sock, _HEADER.size - 1)
    magic, length, digest = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TransportError(
            f"foreign frame magic {magic!r} (desynchronised or non-RPW peer)"
        )
    if length > MAX_FRAME:
        raise TransportError(
            f"frame announces {length} bytes (MAX_FRAME is {MAX_FRAME})"
        )
    payload = _recv_exact(sock, length)
    if _digest(payload) != digest:
        raise TransportError(
            "frame payload does not hash to its header digest "
            "(tampered, corrupted, or desynchronised stream)"
        )
    return _loads(payload)


def _loads(payload: bytes) -> object:
    """Unpickle a digest-verified payload; refuse garbage loudly.

    A digest only proves the bytes arrived as sent — a peer can still
    *send* bytes that are not a pickle at all, and that must surface as
    a :class:`TransportError`, not as an :class:`pickle.UnpicklingError`
    escaping the protocol layer.
    """
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise TransportError(
            "frame payload passed its digest check but is not a valid "
            f"message ({type(exc).__name__}: {exc})"
        ) from exc


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` → ``(host, port)``."""
    if isinstance(address, tuple):
        if len(address) != 2:
            raise TransportError(
                f"worker address {address!r} is not a (host, port) pair"
            )
        host, port = address
        try:
            return host, int(port)
        except (TypeError, ValueError) as exc:
            raise TransportError(
                f"worker address {address!r} has a non-numeric port"
            ) from exc
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise TransportError(
            f"worker address {address!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise TransportError(
            f"worker address {address!r} has a non-numeric port"
        ) from exc


async def async_send_message(
    writer: asyncio.StreamWriter, message: object
) -> None:
    """:func:`send_message` over an asyncio stream — same frame, same checks."""
    await _async_send_frame(writer, _dumps(message))


async def _async_send_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Send already-pickled ``payload`` as one frame.

    Same framing and checks as :func:`async_send_message`: the state
    frame is pickled once per sweep and sent as-is to every worker that
    asks for it.
    """
    header = _frame_header(payload)
    writer.write(header)
    writer.write(payload)
    try:
        await writer.drain()
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


async def async_recv_message(reader: asyncio.StreamReader) -> object:
    """:func:`recv_message` over an asyncio stream — same frame, same checks.

    The coordinator is always mid-conversation when it reads, so there
    is no ``eof_ok`` mode here: *any* EOF raises
    :class:`~repro.errors.TransportError`.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise TransportError(
                "connection closed before a frame arrived"
            ) from exc
        raise TransportError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{_HEADER.size} bytes read)"
        ) from exc
    except OSError as exc:
        raise TransportError(f"receive failed: {exc}") from exc
    magic, length, digest = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TransportError(
            f"foreign frame magic {magic!r} (desynchronised or non-RPW peer)"
        )
    if length > MAX_FRAME:
        raise TransportError(
            f"frame announces {length} bytes (MAX_FRAME is {MAX_FRAME})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{length} bytes read)"
        ) from exc
    except OSError as exc:
        raise TransportError(f"receive failed: {exc}") from exc
    if _digest(payload) != digest:
        raise TransportError(
            "frame payload does not hash to its header digest "
            "(tampered, corrupted, or desynchronised stream)"
        )
    return _loads(payload)


# ---------------------------------------------------------------------------
# Worker server
# ---------------------------------------------------------------------------

@dataclass
class WorkerStats:
    """Counters of one :class:`WorkerServer`'s lifetime."""

    connections: int = 0
    installs: int = 0
    installs_reused: int = 0
    units: int = 0
    errors: int = 0


class WorkerServer:
    """One shard worker: holds installed state, executes units over sockets.

    The socket twin of a pooled worker process.  Connections are served
    concurrently (one thread each — a coordinator opens one per
    fan-out coroutine).  Install is one-shot server-wide and key-first:
    an ``install`` op names only the coordinator's ``state_key``, and
    the worker answers ``installed`` when it already holds that key or
    ``need_state`` when it does not — only then does the coordinator ship
    the ``state`` frame.  A second connection installing the same key
    reuses the live state and re-ships nothing.  The ``state`` frame is
    the install payload alone (protocol version 3), and a ``hello``
    naming any other version is refused before install.

    The worker holds one installed state.  One lock guards it: the key
    check, the install, and each unit from its key check to its last
    pair, so units from concurrent coordinators run one at a time and
    a reinstall (different ``state_key``) waits for the running unit;
    later ``run`` ops of the old key are refused loudly.  Replies are
    sent outside that lock, and the connection list has its own, so
    :meth:`stop` and :meth:`kill` never wait behind a running unit.

    ``op_timeout`` bounds how long one peer may stall the connection
    **mid-conversation**: a frame that started must finish arriving —
    and a reply must be accepted — within that many seconds, or the
    connection is dropped as hung.  Idle coordinators waiting *between*
    frames are never timed out, so the default ``None`` and any finite
    value are both safe for long-lived coordinator connections; a
    finite value additionally guarantees a peer that sends half a frame
    and goes silent cannot pin a handler thread.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  :meth:`start` serves on a background thread (tests),
    :meth:`serve_forever` blocks (the ``repro worker`` CLI);
    :meth:`stop` shuts down cleanly, :meth:`kill` abandons every open
    connection mid-frame — the fault harness's worker crash.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        op_timeout: float | None = None,
    ):
        if op_timeout is not None and op_timeout <= 0:
            raise TransportError(
                f"op_timeout must be positive (or None), got {op_timeout!r}"
            )
        self.op_timeout = op_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self.stats = WorkerStats()
        #: the installed state and its key, guarded by ``_state_lock``
        self._state: dict[str, object] | None = None
        self._state_key: tuple | None = None
        self._state_lock = threading.Lock()
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._connections: list[socket.socket] = []
        self._connections_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerServer":
        """Serve on a daemon background thread; returns self."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="repro-worker-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (or :meth:`kill`)."""
        while not self._stopping.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()/kill()
            # Request/reply framing with small frames: Nagle + delayed
            # ACK would add ~40ms per unit on loopback.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.stats.connections += 1
            with self._connections_lock:
                self._connections.append(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-worker-conn",
                daemon=True,
            )
            # prune finished handlers — a long-lived worker must not
            # grow a thread list one entry per connection it ever served
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
            thread.start()

    def _close_listener(self) -> None:
        # shutdown() before close(): closing a listening socket does
        # not wake a thread blocked in accept() on Linux — shutdown
        # does, immediately, with an OSError the accept loop treats as
        # its stop signal.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()

    def stop(self) -> None:
        """Stop accepting, close every connection, join handlers."""
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
        for thread in self._threads:
            thread.join(timeout=5)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def kill(self) -> None:
        """Die abruptly: every peer sees its connection drop mid-protocol.

        The fault-injection twin of ``kill -9`` on a remote worker
        process — coordinators must recover by retrying outstanding
        units elsewhere.
        """
        self.stop()

    # -- protocol ------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                # the mid-frame timeout is left armed on the socket for
                # the reply send below: a peer that stops *reading* is
                # as hung as one that stops writing
                message = recv_message(
                    conn, eof_ok=True, mid_frame_timeout=self.op_timeout
                )
                if message is CLOSED:
                    return
                try:
                    reply = self._dispatch(message)
                except TransportError:
                    raise
                except Exception as exc:  # loud per-op error reply
                    self.stats.errors += 1
                    reply = {"op": "error", "error": f"{type(exc).__name__}: {exc}"}
                send_message(conn, reply)
        except TransportError:
            # Damaged frame or dropped peer: nothing to answer on a
            # stream that can no longer be trusted — close it.
            return
        finally:
            conn.close()
            with self._connections_lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    def _dispatch(self, message: object) -> dict:
        if not isinstance(message, dict) or "op" not in message:
            raise TransportError(f"malformed message: {message!r}")
        op = message["op"]
        if op == "hello":
            version = message.get("version")
            if version != PROTOCOL_VERSION:
                return {
                    "op": "error",
                    "error": (
                        f"protocol version mismatch: coordinator speaks "
                        f"{version!r}, worker speaks {PROTOCOL_VERSION}"
                    ),
                }
            return {"op": "ready", "version": PROTOCOL_VERSION}
        if op == "install":
            return self._install_key(message["state_key"])
        if op == "state":
            return self._install(message)
        if op == "run":
            return self._run(message)
        if op == "shutdown":
            self._stopping.set()
            self._close_listener()
            return {"op": "bye"}
        return {"op": "error", "error": f"unknown op {op!r}"}

    def _install_key(self, state_key: tuple) -> dict:
        """Key-first install: reuse the live state, or ask for it."""
        with self._state_lock:
            if self._state_key == state_key:
                self.stats.installs_reused += 1
                return {"op": "installed", "reused": True}
        return {"op": "need_state"}

    def _install(self, message: dict) -> dict:
        state_key = message["state_key"]
        with self._state_lock:
            # another coordinator may have installed this key since
            # this one was told ``need_state``
            if self._state_key == state_key:
                self.stats.installs_reused += 1
                return {"op": "installed", "reused": True}
            mode = message.get("mode", "inline")
            if mode == "inline":
                state = {
                    "matcher": message["matcher"],
                    "queries": message["queries"],
                    "schemas": message["schema_table"],
                }
            elif mode == "store":
                state = self._install_from_store(message)
            else:
                raise TransportError(f"unknown install mode {mode!r}")
            self._state = state
            self._state_key = state_key
            self.stats.installs += 1
        return {"op": "installed", "reused": False}

    def _install_from_store(self, message: dict) -> dict[str, object]:
        """Pull repository/queries/substrate by digest from a shared store.

        The coordinator sent only digests and the matcher configuration
        (without its substrate); every payload read here is
        byte-digest-verified by the store, and the loaded content
        digests are compared to the coordinator's — a store holding any
        other repository version is refused, so a worker can never
        serve against drifted state.
        """
        store = SnapshotStore(message["store_path"])
        manifest = store.manifest()
        repository = store.load_repository(manifest)
        if repository.content_digest() != message["repository_digest"]:
            raise SnapshotError(
                "snapshot store holds repository digest "
                f"{repository.content_digest()}, coordinator expects "
                f"{message['repository_digest']}"
            )
        queries = store.load_queries(manifest)
        digests = tuple(query.content_digest() for query in queries)
        if digests != tuple(message["query_digests"]):
            raise SnapshotError(
                "snapshot store holds a different query list than the "
                "coordinator expects (content digests differ)"
            )
        matcher = message["matcher"]
        substrate_section = manifest.get("substrate_section")
        if substrate_section is not None:
            restore_substrate(
                matcher.objective.substrate(),
                store.read_section(substrate_section, manifest),
                repository,
            )
        # Deterministic rebuild of repository-global matcher state
        # (cost kernel, clusters) — cold runs derive it the same way.
        matcher.prepare(repository)
        return {
            "matcher": matcher,
            "queries": queries,
            "schemas": {s.schema_id: s for s in repository},
        }

    def _run(self, message: dict) -> dict:
        # the key check and the unit under one lock hold: no reinstall
        # can swap the state between them
        with self._state_lock:
            if self._state is None or self._state_key != message["state_key"]:
                return {
                    "op": "error",
                    "error": "no state installed for this state_key",
                }
            pairs = run_unit_with(
                self._state,
                message["query_index"],
                message["schema_ids"],
                message["delta_max"],
            )
            self.stats.units += 1
        return {"op": "result", "pairs": pairs}


# ---------------------------------------------------------------------------
# Coordinator-side executor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeadlineBudget:
    """Per-op timeouts (seconds) for every remote operation of a sweep.

    Each field bounds one protocol op end to end (request sent, reply
    received).  ``None`` disables that bound; a positive float makes a
    hung socket indistinguishable from a crashed worker after that many
    seconds — the op raises :class:`~repro.errors.TransportError`, the
    unit is re-enqueued for a healthy peer, and the byte-identity
    contract is untouched.  The defaults are far above any healthy op's
    latency, so they never fire in normal operation but still bound
    every sweep.
    """

    #: establishing the TCP connection
    connect: float | None = 10.0
    #: the hello/ready version handshake
    hello: float | None = 10.0
    #: each state-install round trip: the key check, and the ``state``
    #: frame when the worker asks for it (may ship or pull a large
    #: payload)
    install: float | None = 120.0
    #: one work unit (request sent → result received)
    run: float | None = 120.0

    def __post_init__(self) -> None:
        for op in ("connect", "hello", "install", "run"):
            value = getattr(self, op)
            if value is not None and value <= 0:
                raise TransportError(
                    f"deadline for {op!r} must be positive (or None), "
                    f"got {value!r}"
                )


@dataclass
class WorkerHealth:
    """One worker address's circuit-breaker record on the coordinator.

    ``state`` is the classic three-state breaker: ``"closed"`` (dialed
    normally), ``"open"`` (skipped by the fan-out until ``open_until``),
    ``"half-open"`` (cooldown elapsed; the next sweep admits the address
    once as a probe — success closes the breaker, failure re-opens it
    with a doubled cooldown).  ``dials`` counts actual connection
    attempts, so a test can assert a dead address is *not* re-dialed
    while its breaker is open.
    """

    address: tuple[str, int]
    state: str = "closed"
    consecutive_failures: int = 0
    dials: int = 0
    successes: int = 0
    failures: int = 0
    #: ``time.monotonic()`` of the most recent recorded failure
    last_failure: float | None = None
    #: ``time.monotonic()`` until which an open breaker skips dials
    open_until: float = 0.0


@dataclass
class ExecutorStats:
    """Counters of one :class:`RemoteShardExecutor`'s lifetime."""

    #: sweeps started by :meth:`RemoteShardExecutor.execute`
    sweeps: int = 0
    #: work units completed across all sweeps
    units: int = 0
    #: remote ops that exceeded their :class:`DeadlineBudget` deadline
    deadline_expiries: int = 0
    #: breaker transitions closed/half-open → open
    breaker_opens: int = 0
    #: breaker transitions open/half-open → closed
    breaker_closes: int = 0
    #: addresses skipped by a sweep because their breaker was open
    breaker_skips: int = 0
    #: open breakers re-admitted half-open after their cooldown
    half_open_probes: int = 0
    #: sweeps refused outright because every breaker was open
    all_open_refusals: int = 0
    #: explicit :meth:`RemoteShardExecutor.probe` health checks
    probes: int = 0


class RemoteShardExecutor(ShardExecutor):
    """Fan work units out to socket workers; retry on healthy peers.

    ``addresses`` name the workers (``"host:port"`` strings or
    ``(host, port)`` tuples).  With ``store`` set, state reaches the
    workers in ``store`` mode: the snapshot is written once (if the
    store does not already hold this repository version) and each worker
    pulls repository/queries/substrate **by digest**; otherwise the full
    state ships inline, exactly like the pool initializer's payload.
    Either way a worker gets state only when it answers the key-only
    ``install`` with ``need_state``: a sweep over warm workers ships
    nothing but work units and never touches the store.

    The fan-out is one asyncio event loop on one background thread —
    one coroutine per worker, N workers cost one thread — pulling units
    from a shared queue, so a worker that dies mid-unit simply stops
    consuming: its re-enqueued unit is picked up by a surviving
    coroutine and the answers are byte-identical by the executor
    contract.  Only when every worker is gone with units outstanding
    does :meth:`execute` raise
    :class:`~repro.errors.TransportError`.  ``addresses`` is re-read
    at every :meth:`execute`, so membership can change between sweeps
    (workers killed, restarted, or added) without rebuilding the
    executor.

    Every remote op runs under a per-op deadline from ``deadlines`` (a
    :class:`DeadlineBudget`, default ``DeadlineBudget()``), so a hung
    peer is reclassified as a crashed one after at most one deadline.  The
    executor also keeps a per-address :class:`WorkerHealth` circuit
    breaker: a failure opens the address's breaker for
    ``breaker_backoff * 2**(consecutive failures - 1)`` seconds (capped
    at ``breaker_backoff_cap``, stretched by up to ``breaker_jitter``
    of random jitter so a fleet of coordinators does not re-dial in
    lockstep), sweeps skip open breakers instead of re-dialing the dead
    address, an elapsed cooldown admits the address half-open as a
    probe, and a success closes the breaker.  A sweep finding *every*
    address behind an open breaker raises
    :class:`~repro.errors.TransportError` immediately; :meth:`probe` is
    the operator's (and the soak barrier's) explicit blocking health
    check that can close a breaker without waiting out its cooldown.
    Health state and counters are exposed as :meth:`worker_health`,
    :attr:`stats` (an :class:`ExecutorStats`) and the one-line
    :meth:`status`.
    """

    name = "remote"

    def __init__(
        self,
        addresses: Sequence["str | tuple[str, int]"],
        *,
        store: SnapshotStore | str | Path | None = None,
        deadlines: DeadlineBudget | None = None,
        breaker_backoff: float = 0.5,
        breaker_backoff_cap: float = 30.0,
        breaker_jitter: float = 0.25,
        rng: random.Random | None = None,
    ):
        if not addresses:
            raise TransportError("RemoteShardExecutor needs >= 1 worker address")
        if breaker_backoff <= 0:
            raise TransportError(
                f"breaker_backoff must be positive, got {breaker_backoff!r}"
            )
        if breaker_backoff_cap < breaker_backoff:
            raise TransportError(
                f"breaker_backoff_cap ({breaker_backoff_cap!r}) must be >= "
                f"breaker_backoff ({breaker_backoff!r})"
            )
        if breaker_jitter < 0:
            raise TransportError(
                f"breaker_jitter must be >= 0, got {breaker_jitter!r}"
            )
        self.addresses = [parse_address(address) for address in addresses]
        self.store = (
            store
            if store is None or isinstance(store, SnapshotStore)
            else SnapshotStore(store)
        )
        self.deadlines = (
            deadlines if deadlines is not None else DeadlineBudget()
        )
        self.breaker_backoff = breaker_backoff
        self.breaker_backoff_cap = breaker_backoff_cap
        self.breaker_jitter = breaker_jitter
        self.stats = ExecutorStats()
        self._rng = rng if rng is not None else random.Random()
        # one executor may be shared across replica services sweeping
        # concurrently on different fan-out threads — health and stats
        # mutations stay behind one lock
        self._health_lock = threading.Lock()
        self._health: dict[tuple[str, int], WorkerHealth] = {}

    # -- worker health / circuit breakers ------------------------------------

    def worker_health(self, address: "str | tuple[str, int]") -> WorkerHealth:
        """The (live, mutable) health record for one worker address."""
        parsed = parse_address(address)
        with self._health_lock:
            return self._health_for(parsed)

    def _health_for(self, address: tuple[str, int]) -> WorkerHealth:
        # callers hold self._health_lock
        health = self._health.get(address)
        if health is None:
            health = self._health[address] = WorkerHealth(address)
        return health

    def _admit(
        self, addresses: list[tuple[str, int]]
    ) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
        """Partition a sweep's addresses into (dialable, breaker-skipped).

        Open breakers whose cooldown has elapsed transition to
        half-open and are admitted as probes; open breakers still
        cooling down are skipped — the sweep never re-dials them.
        """
        usable: list[tuple[str, int]] = []
        skipped: list[tuple[str, int]] = []
        now = time.monotonic()
        with self._health_lock:
            for address in addresses:
                health = self._health_for(address)
                if health.state == "open":
                    if now < health.open_until:
                        skipped.append(address)
                        self.stats.breaker_skips += 1
                        continue
                    health.state = "half-open"
                    self.stats.half_open_probes += 1
                usable.append(address)
        return usable, skipped

    def _record_failure(self, address: tuple[str, int]) -> None:
        with self._health_lock:
            health = self._health_for(address)
            health.consecutive_failures += 1
            health.failures += 1
            health.last_failure = time.monotonic()
            if health.state != "open":
                self.stats.breaker_opens += 1
            cooldown = min(
                self.breaker_backoff_cap,
                self.breaker_backoff
                * (2 ** (health.consecutive_failures - 1)),
            )
            cooldown *= 1.0 + self.breaker_jitter * self._rng.random()
            health.state = "open"
            health.open_until = health.last_failure + cooldown

    def _record_success(self, address: tuple[str, int]) -> None:
        with self._health_lock:
            health = self._health_for(address)
            if health.state != "closed":
                self.stats.breaker_closes += 1
            health.state = "closed"
            health.consecutive_failures = 0
            health.successes += 1
            health.open_until = 0.0

    def probe(self, address: "str | tuple[str, int]") -> bool:
        """One blocking hello round trip, recorded in the breaker.

        The explicit health check: a success closes the address's
        breaker immediately (no cooldown wait), a failure (re-)opens
        it.  Returns whether the worker answered the handshake.
        """
        parsed = parse_address(address)
        with self._health_lock:
            self.stats.probes += 1
            self._health_for(parsed).dials += 1
        try:
            sock = socket.create_connection(
                parsed, timeout=self.deadlines.connect
            )
        except OSError:
            self._record_failure(parsed)
            return False
        try:
            sock.settimeout(self.deadlines.hello)
            send_message(sock, {"op": "hello", "version": PROTOCOL_VERSION})
            self._check_reply(parsed, recv_message(sock), "ready")
        except (TransportError, OSError):
            self._record_failure(parsed)
            return False
        finally:
            sock.close()
        self._record_success(parsed)
        return True

    def status(self) -> str:
        """One operator line: per-address breaker states + counters."""
        with self._health_lock:
            states = ", ".join(
                f"{address[0]}:{address[1]}="
                f"{self._health_for(address).state}"
                for address in self.addresses
            )
            s = self.stats
            return (
                f"executor remote: workers [{states}] | "
                f"{s.sweeps} sweeps, {s.units} units, "
                f"{s.deadline_expiries} deadline expiries, "
                f"{s.breaker_opens} breaker opens, "
                f"{s.breaker_skips} skips, "
                f"{s.all_open_refusals} all-open refusals"
            )

    # -- install payloads ----------------------------------------------------

    def _state_payload(self, state: ExecutionState) -> bytes:
        """The pickled ``state`` frame a ``need_state`` worker is sent.

        Built only when a worker asks, and at most once per sweep: the
        fan-out shares these bytes among every worker that asked.  It
        runs on the fan-out thread: the pipeline's consumer
        (:meth:`MatchingPipeline.run`) does not touch the matcher until
        the sweep drains, so pickling it there races nothing.
        """
        message = {
            "op": "state",
            "state_key": state.state_key,
            "matcher": state.matcher,
        }
        if self.store is None:
            message.update(
                mode="inline",
                queries=state.queries,
                schema_table=state.schema_table,
            )
            return _dumps(message)
        repository_digest = state.repository.content_digest()
        query_digests = tuple(q.content_digest() for q in state.queries)
        self._ensure_snapshot(state, repository_digest, query_digests)
        message.update(
            mode="store",
            store_path=str(self.store.root),
            repository_digest=repository_digest,
            query_digests=query_digests,
        )
        # The matcher configuration ships *without* its substrate — the
        # whole point of store mode is that workers pull the heavy
        # similarity payloads by digest instead of N copies crossing
        # this socket.  Detach, pickle, reattach.
        objective = state.matcher.objective
        substrate = objective._substrate
        objective._substrate = None
        try:
            return _dumps(message)
        finally:
            objective._substrate = substrate

    def _ensure_snapshot(
        self,
        state: ExecutionState,
        repository_digest: str,
        query_digests: tuple[str, ...],
    ) -> None:
        """Write the shared snapshot unless the store already holds it."""
        try:
            manifest = self.store.manifest()
            current = (manifest.get("repository") or {}).get("repository_digest")
            recorded = tuple(
                digest for _schema_id, digest in manifest.get("queries") or []
            )
            if current == repository_digest and recorded == query_digests:
                return
        except SnapshotError:
            pass  # empty or unreadable-yet store: write fresh below
        save_snapshot(
            self.store,
            state.repository,
            queries=state.queries,
            substrate=state.matcher.objective.substrate(),
        )

    # -- execution -----------------------------------------------------------

    def execute(self, state, units, delta_max):
        units = list(units)
        if not units:
            return
        addresses, skipped = self._admit(list(self.addresses))
        if not addresses:
            with self._health_lock:
                self.stats.all_open_refusals += 1
            raise TransportError(
                f"all {len(skipped)} worker breaker(s) are open "
                f"({', '.join(f'{h}:{p}' for h, p in skipped)}); every "
                "configured worker failed recently — wait out the "
                "cooldown, probe() a recovered worker, or fix the "
                "addresses"
            )
        with self._health_lock:
            self.stats.sweeps += 1
        events: Queue = Queue()
        abandoned = threading.Event()
        thread = threading.Thread(
            target=self._fanout_thread,
            args=(addresses, state, units, delta_max, events, abandoned),
            name="repro-remote-fanout",
            daemon=True,
        )
        thread.start()
        completed = 0
        try:
            while completed < len(units):
                kind, *payload = events.get()
                if kind == "ok":
                    unit, pairs = payload
                    completed += 1
                    with self._health_lock:
                        self.stats.units += 1
                    yield unit, pairs
                else:
                    raise payload[0]
        finally:
            # Whether the sweep finished, failed, or was abandoned by
            # the consumer: tell the loop to bail, then wait for it —
            # no orphaned coroutines, sockets, or threads stay behind.
            abandoned.set()
            thread.join(timeout=10)

    def _fanout_thread(
        self, addresses, state, units, delta_max, events, abandoned,
    ) -> None:
        try:
            asyncio.run(self._fanout(
                addresses, state, units, delta_max, events, abandoned,
            ))
        except BaseException as exc:  # pragma: no cover - loop-level safety net
            events.put(("fatal", TransportError(f"fan-out loop failed: {exc}")))

    async def _op(self, coroutine, timeout, address, op):
        """Await one remote op under its deadline; expiry = crashed peer."""
        if timeout is None:
            return await coroutine
        try:
            return await asyncio.wait_for(coroutine, timeout)
        except asyncio.TimeoutError:
            with self._health_lock:
                self.stats.deadline_expiries += 1
            raise TransportError(
                f"{op} to worker {address[0]}:{address[1]} exceeded its "
                f"{timeout}s deadline (hung peer treated as crashed)"
            ) from None

    async def _fanout(
        self, addresses, state, units, delta_max, events, abandoned,
    ) -> None:
        """One coroutine per worker, all on this (background) event loop.

        A dying worker re-enqueues its in-flight unit and drops out; the
        loop ends when every unit completed, every worker is gone, or
        the consumer abandoned the sweep.  Exactly one terminal event
        reaches the consumer: per-unit ``("ok", ...)`` results and, if
        units remain with no workers left (or the state frame could not
        be built), one ``("fatal", ...)``.  Idle coroutines block on the
        unit queue — a dying peer's re-enqueued unit wakes one, and the
        last completed unit releases them all.  Every remote op runs
        under its :class:`DeadlineBudget` bound, and abandonment cancels
        the worker coroutines outright, so the loop's lifetime is
        bounded even against hung peers.
        """
        unit_queue: asyncio.Queue = asyncio.Queue()
        for unit in units:
            unit_queue.put_nowait(unit)
        progress = {"remaining": len(units), "failed": False}
        errors: list[Exception] = []
        budget = self.deadlines
        state_key = state.state_key
        built: list[bytes] = []

        def state_frame() -> bytes:
            # built on the first ``need_state``, then shared by every
            # worker that asks during this sweep
            if not built:
                built.append(self._state_payload(state))
            return built[0]

        async def handshake(reader, writer, address):
            await async_send_message(
                writer, {"op": "hello", "version": PROTOCOL_VERSION}
            )
            self._check_reply(
                address, await async_recv_message(reader), "ready"
            )

        async def needs_state(reader, writer, address) -> bool:
            await async_send_message(
                writer, {"op": "install", "state_key": state_key}
            )
            reply = self._check_reply(
                address, await async_recv_message(reader),
                "installed", "need_state",
            )
            return reply["op"] == "need_state"

        async def ship_state(reader, writer, address, payload):
            await _async_send_frame(writer, payload)
            self._check_reply(
                address, await async_recv_message(reader), "installed"
            )

        async def run_unit(reader, writer, address, unit):
            await async_send_message(writer, {
                "op": "run",
                "state_key": state_key,
                "query_index": unit.query_index,
                "schema_ids": unit.schema_ids,
                "delta_max": delta_max,
            })
            return self._check_reply(
                address, await async_recv_message(reader), "result"
            )

        async def run_worker(address: tuple[str, int]) -> None:
            with self._health_lock:
                self._health_for(address).dials += 1
            try:
                reader, writer = await self._op(
                    asyncio.open_connection(address[0], address[1]),
                    budget.connect, address, "connect",
                )
            except (TransportError, OSError) as exc:
                self._record_failure(address)
                errors.append(TransportError(
                    f"cannot connect to worker {address[0]}:{address[1]}: "
                    f"{exc}"
                ))
                return
            sock = writer.get_extra_info("socket")
            if sock is not None:
                # Request/reply framing with small frames: Nagle +
                # delayed ACK would add ~40ms per unit on loopback.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            unit = None
            try:
                await self._op(
                    handshake(reader, writer, address),
                    budget.hello, address, "hello",
                )
                if await self._op(
                    needs_state(reader, writer, address),
                    budget.install, address, "install",
                ):
                    if progress["failed"]:
                        return  # the state frame already failed to build
                    try:
                        payload = state_frame()
                    except Exception as exc:
                        # The coordinator cannot build its own state
                        # (store write, unpicklable matcher): the sweep
                        # fails with that error; the worker is not at
                        # fault, so its breaker is left alone.
                        progress["failed"] = True
                        events.put(("fatal", exc))
                        return
                    await self._op(
                        ship_state(reader, writer, address, payload),
                        budget.install, address, "install",
                    )
                # connect + handshake + install round-tripped: the
                # worker is provably healthy — close a half-open breaker
                self._record_success(address)
                while progress["remaining"] and not abandoned.is_set():
                    # stay subscribed: a dying peer may re-enqueue
                    unit = await unit_queue.get()
                    if unit is None:
                        break  # released: the last unit completed
                    reply = await self._op(
                        run_unit(reader, writer, address, unit),
                        budget.run, address, "run",
                    )
                    progress["remaining"] -= 1
                    events.put(("ok", unit, reply["pairs"]))
                    unit = None
                    if not progress["remaining"]:
                        for _ in addresses:
                            unit_queue.put_nowait(None)
            except (TransportError, OSError) as exc:
                # This worker is gone mid-unit: give the unit back for
                # a healthy peer, record the death, bow out.
                if unit is not None:
                    unit_queue.put_nowait(unit)
                self._record_failure(address)
                errors.append(exc)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

        tasks = [
            asyncio.ensure_future(run_worker(address))
            for address in addresses
        ]

        async def watchdog() -> None:
            # an abandoned sweep must not keep coroutines talking to
            # workers behind the consumer's back — even coroutines
            # currently awaiting a (deadline-bounded) op
            while not all(task.done() for task in tasks):
                if abandoned.is_set():
                    for task in tasks:
                        task.cancel()
                    return
                await asyncio.sleep(0.05)

        watch = asyncio.ensure_future(watchdog())
        await asyncio.gather(*tasks, return_exceptions=True)
        watch.cancel()
        try:
            await watch
        except asyncio.CancelledError:
            pass
        if (
            progress["remaining"]
            and not progress["failed"]
            and not abandoned.is_set()
        ):
            events.put(("fatal", TransportError(
                f"all {len(addresses)} remote workers are gone with "
                f"{progress['remaining']} unit(s) outstanding "
                f"(last error: {errors[-1] if errors else None})"
            )))

    @staticmethod
    def _check_reply(
        address: tuple[str, int], reply: object, *ops: str
    ) -> dict:
        if not isinstance(reply, dict) or "op" not in reply:
            raise TransportError(
                f"malformed reply from {address}: {reply!r}"
            )
        if reply["op"] == "error":
            raise TransportError(
                f"worker {address[0]}:{address[1]} refused: "
                f"{reply.get('error')}"
            )
        if reply["op"] not in ops:
            raise TransportError(
                f"expected {' or '.join(map(repr, ops))} from {address}, "
                f"got {reply['op']!r}"
            )
        return reply
