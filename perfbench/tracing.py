"""Runtime span tracing around the program's public entry points.

:class:`Tracer` replaces public methods and functions of the matching
stack with timing wrappers while it is installed, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing in the program knows
about it.  Every span is one row kept in memory —
``[name, start, end, parent, op, thread, value]`` — and
:meth:`Tracer.dump` writes them all when the run ends.

* ``parent`` is the enclosing span in the same execution context
  (thread, or asyncio task), tracked with a :mod:`contextvars` variable.
* ``op`` is the benchmark op that caused the span: the op of the
  current context if the workload set one, else the tracer-wide current
  op of a closed-loop workload, else ``None`` (background work such as
  a replica's drain task).
* ``value`` is a per-span count (mappings assembled, bytes framed,
  units executed, matrices built), or ``None``.

A layer's self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
from pathlib import Path
from time import perf_counter

from repro.core.answers import AnswerSet
from repro.core.incremental import SystemProfile
from repro.evaluation import validation
from repro.matching import remote
from repro.matching.base import Matcher
from repro.matching.clustering import ClusteringMatcher
from repro.matching.evolution import EvolutionSession
from repro.matching.executor import ProcessPoolShardExecutor, SerialExecutor
from repro.matching.pipeline import MatchingPipeline
from repro.matching.replication import ReplicaGroup
from repro.matching.service import MatchingService
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.matrix import SimilaritySubstrate
from repro.schema.repository import SchemaRepository

NAME, START, END, PARENT, OP, THREAD, VALUE = range(7)

_current_span: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: op id of the current context (set by open-loop workloads per request)
current_op: contextvars.ContextVar[object] = contextvars.ContextVar(
    "perfbench_op", default=None
)


class Tracer:
    """In-memory span recorder with install/uninstall of timing wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: op of closed-loop workloads (one op in flight at a time)
        self.op: object = None
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        op = current_op.get()
        row = [
            name, perf_counter(), None, _current_span.get(),
            self.op if op is None else op, threading.get_ident(), None,
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        return index, _current_span.set(index)

    def _close(self, index: int, token: contextvars.Token, value=None) -> None:
        row = self.spans[index]
        row[END] = perf_counter()
        row[VALUE] = value
        _current_span.reset(token)

    # -- wrappers ----------------------------------------------------------------

    def _sync(self, name, fn, value=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, token = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(
                    index, token,
                    value(args, result) if value is not None else None,
                )

        return wrapper

    def _async(self, name, fn, value=None):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            index, token = tracer._open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(
                    index, token, value(args) if value is not None else None
                )

        return wrapper

    def _generator(self, name, fn):
        """One span per resumption of a generator (time spent inside it)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            units = len(args[2]) if len(args) > 2 else None
            while True:
                index, token = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(index, token, units)
                    return
                except BaseException:
                    tracer._close(index, token, units)
                    raise
                tracer._close(index, token, units)
                units = None  # counted once, on the first resumption
                try:
                    yield item
                except GeneratorExit:
                    inner.close()
                    raise

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per install/uninstall)."""
        if self._saved:
            return
        tracer = self
        self._patch(
            Matcher, "match_pair",
            self._sync("engine", Matcher.match_pair,
                       lambda args, result: len(result or ())),
        )
        self._patch(
            Matcher, "assemble",
            self._sync("matcher", Matcher.assemble,
                       lambda args, result: len(result) if result else 0),
        )
        original_profile = SystemProfile.__dict__["from_answer_set"].__func__
        self._patch(
            SystemProfile, "from_answer_set",
            classmethod(self._sync("core.profile", original_profile)),
        )
        self._patch(
            validation, "validate_improvement",
            self._sync("core.bounds", validation.validate_improvement),
        )
        self._patch(AnswerSet, "union", self._sync("core.union", AnswerSet.union))
        self._patch(
            ClusteringMatcher, "prepare",
            self._sync("clustering.prepare", ClusteringMatcher.prepare),
        )

        original_matrix = SimilaritySubstrate.matrix

        @functools.wraps(original_matrix)
        def matrix(substrate, query, schema):
            index, token = tracer._open("similarity.matrix")
            built = substrate.stats.matrices_built
            try:
                return original_matrix(substrate, query, schema)
            finally:
                tracer._close(
                    index, token, substrate.stats.matrices_built - built
                )

        self._patch(SimilaritySubstrate, "matrix", matrix)
        self._patch(
            CostKernel, "gather",
            self._sync("similarity.gather", CostKernel.gather),
        )
        self._patch(
            MatchingService, "match",
            self._async("service.match", MatchingService.match,
                        lambda args: id(args[0])),
        )
        self._patch(
            ReplicaGroup, "receive",
            self._async("replication.receive", ReplicaGroup.receive),
        )
        self._patch(
            ReplicaGroup, "checkpoint",
            self._async("store.checkpoint", ReplicaGroup.checkpoint),
        )

        def rematch_value(args, result):
            stats = result[0].rematch if result else None
            if stats is None:
                return None
            return (
                stats.pairs_recomputed, stats.pairs_skipped, stats.pairs_reused
            )

        self._patch(
            EvolutionSession, "apply",
            self._sync("evolution.rematch", EvolutionSession.apply,
                       rematch_value),
        )
        self._patch(
            SchemaRepository, "apply",
            self._sync("schema.apply", SchemaRepository.apply),
        )
        self._patch(
            MatchingPipeline, "run",
            self._sync("pipeline", MatchingPipeline.run),
        )
        self._patch(
            SerialExecutor, "execute",
            self._generator("executor.serial", SerialExecutor.execute),
        )
        self._patch(
            ProcessPoolShardExecutor, "execute",
            self._generator("executor.pool", ProcessPoolShardExecutor.execute),
        )
        self._patch(
            remote.RemoteShardExecutor, "execute",
            self._generator("executor.remote",
                            remote.RemoteShardExecutor.execute),
        )
        self._patch(remote, "async_send_message",
                    self._framed_send(remote.async_send_message))
        self._patch(remote, "async_recv_message",
                    self._framed_recv(remote.async_recv_message))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- framing: bytes, frames, codec vs. wire time -----------------------------

    def _framed_send(self, fn):
        """Send wrapper: frame bytes, and time not spent awaiting ``drain``."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(writer, message):
            counter = _CountingWriter(writer)
            index, token = tracer._open("remote.send")
            try:
                return await fn(counter, message)
            finally:
                tracer._close(index, token, (counter.bytes, counter.wait))

        return wrapper

    def _framed_recv(self, fn):
        """Receive wrapper: frame bytes, and time not spent awaiting reads."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(reader):
            counter = _CountingReader(reader)
            index, token = tracer._open("remote.recv")
            try:
                return await fn(counter)
            finally:
                tracer._close(index, token, (counter.bytes, counter.wait))

        return wrapper

    # -- output ----------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, ...)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for row in self.spans:
                handle.write(json.dumps(row, default=str) + "\n")


class _CountingWriter:
    """StreamWriter proxy counting written bytes and time awaiting drain."""

    def __init__(self, writer):
        self._writer = writer
        self.bytes = 0
        self.wait = 0.0

    def write(self, data) -> None:
        self.bytes += len(data)
        self._writer.write(data)

    async def drain(self) -> None:
        started = perf_counter()
        try:
            await self._writer.drain()
        finally:
            self.wait += perf_counter() - started


class _CountingReader:
    """StreamReader proxy counting read bytes and time awaiting the peer."""

    def __init__(self, reader):
        self._reader = reader
        self.bytes = 0
        self.wait = 0.0

    async def readexactly(self, size: int) -> bytes:
        started = perf_counter()
        try:
            data = await self._reader.readexactly(size)
        finally:
            self.wait += perf_counter() - started
        self.bytes += len(data)
        return data


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time (s): duration minus its direct children's."""
    own = [
        (row[END] - row[START]) if row[END] is not None else 0.0
        for row in spans
    ]
    for row in spans:
        parent = row[PARENT]
        if parent is not None and row[END] is not None:
            own[parent] -= row[END] - row[START]
    return own
