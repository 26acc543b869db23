"""The fault-injection harness behind the distributed conformance suite.

Two fault surfaces, one helper each:

* :class:`TamperProxy` sits between a coordinator and a
  :class:`~repro.matching.remote.WorkerServer` as a byte-level TCP
  relay and damages the stream on command — :func:`cut_after` closes
  both sides once N bytes have crossed (a worker dying mid-frame, a
  truncated frame), :func:`flip_byte` inverts one byte at a stream
  offset (bit rot, tampering).  Faults are per-direction: ``downstream``
  damages worker→coordinator bytes, ``upstream`` coordinator→worker.
  The relay also injects *liveness* faults: ``delay_ms`` sleeps before
  forwarding every chunk (a slow link — :class:`DelayProxy` is the
  latency-only spelling), and ``stall_after`` swallows every byte past
  that per-direction offset while keeping the connection **open** (a
  hung peer / one-way partition — the fault deadlines must convert
  into a loud timeout, since no EOF ever arrives).  The digest framing
  of :mod:`repro.matching.remote` must turn every damage fault into a
  loud :class:`~repro.errors.TransportError` — never a silently wrong
  answer.  :class:`ByteCounter` is the pass-through "fault": it damages
  nothing and counts every byte it forwards, so a test can assert what
  crossed the wire.

* :class:`DeltaLogFaults` is a scriptable
  :class:`~repro.matching.replication.ReplicaGroup` delivery hook that
  drops, duplicates, holds, or delays specific ``(replica, sequence)``
  deliveries.  Dropping record *k* and delivering *k+1* manufactures a
  log gap (the replica must buffer and refuse to serve); duplicating
  exercises the idempotence discipline; :meth:`release` delivers held
  records late — in any order the test scripts — exercising reorder and
  delayed delivery; :attr:`delay` sleeps a delivery in place, which
  past the group's ``settle_timeout`` exercises backpressure (the
  replica lags and must be caught up, not waited on).

Both are deterministic: faults fire at exact byte offsets or exact
sequence numbers, so a failing test names the precise damage that
produced it.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.matching.replication import DeltaRecord, ReplicaGroup

__all__ = [
    "ByteCounter",
    "ByteFault",
    "DelayProxy",
    "DeltaLogFaults",
    "TamperProxy",
    "cut_after",
    "flip_byte",
    "rewrite_frame",
]


# ---------------------------------------------------------------------------
# Byte-stream faults
# ---------------------------------------------------------------------------

@dataclass
class ByteFault:
    """One scripted fault on a byte stream, keyed by absolute offset.

    ``transform`` receives each forwarded chunk with its starting
    stream offset and returns ``(bytes to forward, keep connection)``.
    """

    def transform(self, chunk: bytes, offset: int) -> tuple[bytes, bool]:
        return chunk, True


@dataclass
class ByteCounter(ByteFault):
    """Forwards every byte untouched; :attr:`total` counts them.

    The count spans every connection the proxy relays in this
    direction, so a test reads it between sweeps to get one sweep's
    bytes.
    """

    total: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def transform(self, chunk: bytes, offset: int) -> tuple[bytes, bool]:
        with self._lock:
            self.total += len(chunk)
        return chunk, True


@dataclass
class _CutAfter(ByteFault):
    at: int

    def transform(self, chunk: bytes, offset: int) -> tuple[bytes, bool]:
        if offset + len(chunk) <= self.at:
            return chunk, True
        return chunk[: max(0, self.at - offset)], False


@dataclass
class _FlipByte(ByteFault):
    at: int

    def transform(self, chunk: bytes, offset: int) -> tuple[bytes, bool]:
        if offset <= self.at < offset + len(chunk):
            index = self.at - offset
            chunk = chunk[:index] + bytes([chunk[index] ^ 0xFF]) + chunk[index + 1:]
        return chunk, True


@dataclass
class _RewriteOnce(ByteFault):
    old: bytes
    new: bytes
    _buffer: bytes = b""
    _done: bool = False

    def transform(self, chunk: bytes, offset: int) -> tuple[bytes, bool]:
        if self._done:
            return chunk, True
        self._buffer += chunk
        found = self._buffer.find(self.old)
        if found != -1:
            out = (
                self._buffer[:found]
                + self.new
                + self._buffer[found + len(self.old):]
            )
            self._done = True
            self._buffer = b""
            return out, True
        # Hold back only the bytes that could still be a prefix of
        # ``old`` spanning into the next chunk; forward the rest so the
        # stream keeps flowing while we watch for the pattern.
        keep = len(self.old) - 1
        if keep <= 0 or len(self._buffer) <= keep:
            if keep <= 0:
                out, self._buffer = self._buffer, b""
                return out, True
            return b"", True
        out = self._buffer[:-keep]
        self._buffer = self._buffer[-keep:]
        return out, True


def cut_after(at: int) -> ByteFault:
    """Forward ``at`` bytes, then drop the connection — truncation."""
    return _CutAfter(at)


def flip_byte(at: int) -> ByteFault:
    """Invert the byte at stream offset ``at`` — tampering / bit rot."""
    return _FlipByte(at)


def rewrite_frame(old: bytes, new: bytes) -> ByteFault:
    """Replace the first occurrence of ``old`` in the stream with ``new``.

    Unlike :func:`flip_byte`, the replacement can be a complete,
    correctly framed message — the tool for protocol-level faults
    (version skew, substituted ops) that must pass the digest check and
    be *refused by the peer's protocol logic*, not by the framing
    layer.  Bytes are buffered only while they could still be a prefix
    of ``old``; once replaced (or proven absent chunk by chunk) the
    relay is transparent.
    """
    return _RewriteOnce(old, new)


class TamperProxy:
    """A byte-level TCP relay that damages the stream on command.

    Listens on an ephemeral local port (read :attr:`address`) and
    relays every accepted connection to ``target``.  ``upstream``
    faults apply to client→target bytes, ``downstream`` to
    target→client bytes; offsets are absolute per connection per
    direction.  A fault that cuts the stream closes *both* sides of
    that relay, so each peer observes the mid-conversation drop.

    Liveness faults ride alongside the byte faults: ``delay_ms`` sleeps
    that long before forwarding every chunk in either direction (a slow
    link), and ``stall_after`` forwards that many bytes per direction
    and then silently swallows the rest **without closing anything** —
    the hung-peer fault: no EOF, no reset, just a connection that goes
    quiet mid-conversation.  Byte-fault offsets keep counting the
    source stream, so scripted damage stays at its exact offset even
    under stall truncation.
    """

    def __init__(
        self,
        target: tuple[str, int],
        *,
        upstream: ByteFault | None = None,
        downstream: ByteFault | None = None,
        delay_ms: float = 0.0,
        stall_after: int | None = None,
    ):
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms!r}")
        if stall_after is not None and stall_after < 0:
            raise ValueError(
                f"stall_after must be >= 0, got {stall_after!r}"
            )
        self.target = target
        self.upstream = upstream or ByteFault()
        self.downstream = downstream or ByteFault()
        self.delay_ms = delay_ms
        self.stall_after = stall_after
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._sockets: list[socket.socket] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "TamperProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> "TamperProxy":
        accept = threading.Thread(
            target=self._accept_loop, name="tamper-proxy-accept", daemon=True
        )
        self._threads.append(accept)
        accept.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        # shutdown() wakes a thread blocked in accept(); close() alone
        # does not on Linux.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._lock:
            sockets = list(self._sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for thread in self._threads:
            thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            try:
                server = socket.create_connection(self.target, timeout=10)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._sockets += [client, server]
            for source, sink, fault, label in (
                (client, server, self.upstream, "up"),
                (server, client, self.downstream, "down"),
            ):
                pump = threading.Thread(
                    target=self._pump,
                    args=(source, sink, fault),
                    name=f"tamper-proxy-{label}",
                    daemon=True,
                )
                self._threads.append(pump)
                pump.start()

    def _pump(self, source: socket.socket, sink: socket.socket, fault: ByteFault) -> None:
        offset = 0
        try:
            while True:
                chunk = source.recv(65536)
                if not chunk:
                    break
                if self.delay_ms:
                    time.sleep(self.delay_ms / 1000.0)
                raw = len(chunk)
                if self.stall_after is not None:
                    if offset >= self.stall_after:
                        # the stall: swallow, keep the connection open —
                        # the peer sees silence, never an EOF
                        offset += raw
                        continue
                    if offset + raw > self.stall_after:
                        chunk = chunk[: self.stall_after - offset]
                out, keep = fault.transform(chunk, offset)
                offset += raw
                if out:
                    sink.sendall(out)
                if not keep:
                    break
        except OSError:
            pass
        finally:
            # Drop both sides: half-relayed streams are not a thing a
            # real crashed peer leaves behind.
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()


class DelayProxy(TamperProxy):
    """A :class:`TamperProxy` that only adds latency.

    Every chunk in both directions is forwarded ``delay_ms`` late and
    otherwise untouched — the slow-worker fault.  Byte-identity is
    unaffected; only deadlines and wall-clock bounds feel it.
    """

    def __init__(self, target: tuple[str, int], *, delay_ms: float = 20.0):
        super().__init__(target, delay_ms=delay_ms)


# ---------------------------------------------------------------------------
# Delta-log delivery faults
# ---------------------------------------------------------------------------

@dataclass
class DeltaLogFaults:
    """A scriptable :class:`ReplicaGroup` delivery hook.

    Script faults by ``(replica index, sequence number)`` **before**
    the corresponding ``apply_delta`` call:

    * :attr:`drop` — the delivery never happens (later records then
      arrive as a gap and the replica must refuse to serve);
    * :attr:`duplicate` — delivered twice back to back;
    * :attr:`hold` — parked until :meth:`release`, which delivers the
      held records late (delay / reorder);
    * :attr:`delay` — delivered after sleeping that many **seconds** in
      place (a slow replica; a delay past the group's
      ``settle_timeout`` forces the replica to lag instead of stalling
      ``apply_delta``).

    :attr:`delivered` records every delivery that actually reached
    :meth:`ReplicaGroup.receive`, in order, for assertions.
    """

    drop: set[tuple[int, int]] = field(default_factory=set)
    duplicate: set[tuple[int, int]] = field(default_factory=set)
    hold: set[tuple[int, int]] = field(default_factory=set)
    delay: dict[tuple[int, int], float] = field(default_factory=dict)
    delivered: list[tuple[int, int]] = field(default_factory=list)
    _held: list[tuple[ReplicaGroup, int, DeltaRecord]] = field(
        default_factory=list
    )

    async def __call__(
        self, group: ReplicaGroup, index: int, record: DeltaRecord
    ) -> None:
        key = (index, record.sequence)
        if key in self.drop:
            return
        if key in self.hold:
            self._held.append((group, index, record))
            return
        pause = self.delay.get(key)
        if pause:
            await asyncio.sleep(pause)
        await self._deliver(group, index, record)
        if key in self.duplicate:
            await self._deliver(group, index, record)

    async def _deliver(
        self, group: ReplicaGroup, index: int, record: DeltaRecord
    ) -> None:
        self.delivered.append((index, record.sequence))
        await group.receive(index, record)

    async def release(self) -> int:
        """Deliver every held record (in hold order); returns the count."""
        held, self._held = self._held, []
        for group, index, record in held:
            await self._deliver(group, index, record)
        return len(held)
