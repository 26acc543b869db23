"""Shared measurement machinery: host speed, the idle guard, statistics.

Host speed.  The host's speed swings by a third within a second (a
fixed pure-Python loop reads 72-119 ms back to back on a shared 2-vCPU
Xeon VM), so a probe timed just before an op does not know the speed
the op ran at: thirty-two 1-s S1 runs scaled by the probes bracketing
them still spread 0.22 (IQR/median).  :class:`SpeedSampler` reads the
speed *during* the timed work instead: while it is active, ``SIGALRM``
every ``TICK_INTERVAL_S`` runs a tick — the probe loop for
``TICK_ITERATIONS``, about 0.4 ms — on the main thread and records its
thread CPU time.  The work of a window is its wall time minus the ticks
inside it, reported at the reference speed: scaled by
``TICK_REFERENCE_MS`` over the harmonic mean of the tick times in and
around the window.  Twenty-six S1 runs in one process spread 0.32 raw
and 0.05 adjusted; the medians of eight processes spread 0.27 raw and
0.10 adjusted.  Ticks that also walked an 8 MB or a 64 MB array, or ran
a dict/object/sort kernel, tracked the program no better across
processes (0.07-0.21, against 0.06-0.10 for the loop alone).

replica-serve's work is different: its re-match and gathers run numpy
over arrays, and there a tick that also walks an 8 MB array
(``walk=True``) tracked it where the loop alone drifted (ten-run sets:
search p50 spread 0.06-0.08 in three sets with the walk and 0.18 in one
without, delta p50 0.05-0.07 against 0.12).  A tick is timed by thread
CPU time, so a thread that holds the GIL or a process that takes the
CPU cannot stretch it; the ticks cost about 2 % of the wall time (3 %
with the walk), which is taken out again.

The host probe is the same loop run for ``PROBE_ITERATIONS`` (about
12 ms) while the program is idle: before every closed-loop op and
between replica-serve epochs (fanout-sweep still scales each arm by the
median of its own probes).  While it runs, :class:`HostProbe`
reads the CPU time of every *other* thread of this process and of every
child process from ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds).
More than a sliver of work there means the program was not idle: a
thread or worker left busy would slow the probe and make the program
look faster than it is, so the run fails instead.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import threading
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from pathlib import Path
from time import monotonic, perf_counter, thread_time

NOTES = json.loads(
    (Path(__file__).resolve().parent / "metrics.json").read_text()
)

#: probe time (ms) the e2e times are scaled to; see metrics.json
PROBE_REFERENCE_MS: float = NOTES["probe_reference_ms"]

#: loop trip count of the probe (about 12 ms on a 2-vCPU Xeon VM)
PROBE_ITERATIONS = 120_000

#: probes per closed-loop op, and per quiet gap (median taken)
OP_PROBES = 3
GAP_PROBES = 5

#: loop trip count of one in-op tick, and the time between ticks (s)
TICK_ITERATIONS = 5_000
TICK_INTERVAL_S = 0.02
#: a tick's time at the reference speed (ms)
TICK_REFERENCE_MS = PROBE_REFERENCE_MS * TICK_ITERATIONS / PROBE_ITERATIONS
#: a walking tick's extra steps through an array of WALK_SLOTS int64
#: (8 MB, beyond the per-core caches), and their reference time (ms)
WALK_STEPS = 2_000
WALK_SLOTS = 1 << 20
WALK_REFERENCE_MS = 0.45
#: ticks either side of a window that also count for its speed
TICK_MARGIN = 2

#: other-thread/child CPU (ns) tolerated while one probe runs
IDLE_SLIVER_NS = 2_000_000


class BenchmarkError(Exception):
    """A run that cannot produce a valid result (guard tripped, bad output)."""


def _probe_loop(iterations: int) -> int:
    x = 0
    for i in range(iterations):
        x = (x * 31 + i) & 0xFFFF
    return x


def _schedstat_ns(path: str) -> int:
    try:
        with open(path) as handle:
            return int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0  # the thread/process ended between listing and reading


def child_pids() -> list[int]:
    """Direct children of every thread of this process."""
    pids: list[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def _process_cpu_ns(pid: int) -> int:
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    return sum(_schedstat_ns(f"/proc/{pid}/task/{tid}/schedstat") for tid in tids)


def other_cpu_ns() -> dict[str, int]:
    """CPU ns of this process's other threads and of each child process."""
    me = str(threading.get_native_id())
    usage = {
        "threads": sum(
            _schedstat_ns(f"/proc/self/task/{tid}/schedstat")
            for tid in os.listdir("/proc/self/task")
            if tid != me
        )
    }
    for pid in child_pids():
        usage[f"pid{pid}"] = _process_cpu_ns(pid)
    return usage


class HostProbe:
    """Runs the probe, records its time, and enforces the idle guard."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.worst_busy_ns = 0

    def run(self) -> float:
        """One probe; returns its wall time in ms."""
        before = other_cpu_ns()
        started = perf_counter()
        _probe_loop(PROBE_ITERATIONS)
        elapsed_ms = (perf_counter() - started) * 1e3
        after = other_cpu_ns()
        busy = sum(
            max(0, value - before.get(key, value)) for key, value in after.items()
        )
        self.worst_busy_ns = max(self.worst_busy_ns, busy)
        if busy > IDLE_SLIVER_NS:
            raise BenchmarkError(
                f"idle guard: other threads/children used {busy / 1e6:.2f} ms "
                f"of CPU during a {elapsed_ms:.2f} ms probe (limit "
                f"{IDLE_SLIVER_NS / 1e6:.1f} ms); the program is not idle "
                "between ops"
            )
        self.samples.append(elapsed_ms)
        return elapsed_ms

    def reading(self, count: int) -> float:
        """Median of ``count`` back-to-back probes (ms).

        One probe is easily stretched by a single preemption; the median
        of a few is the host speed the next op will see.
        """
        return statistics.median(self.run() for _ in range(count))

    @staticmethod
    def scale(probe_ms: float) -> float:
        """Factor mapping a time measured beside ``probe_ms`` to the reference."""
        return PROBE_REFERENCE_MS / probe_ms


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (pct in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process (MB)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchmarkError(f"no VmHWM for pid {pid}")


class SpeedSampler:
    """Host speed sampled by ticks on the main thread during timed work.

    ``with sampler:`` arms the ticks; windows are then measured with
    :func:`time.monotonic` (the clock of the ticks and of asyncio) and
    read back with :meth:`adjusted_ms`.  Ticks accumulate across uses.
    """

    def __init__(self, walk: bool = False) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: thread CPU seconds of each tick
        self.costs: list[float] = []
        self._previous = None
        self.reference_ms = TICK_REFERENCE_MS
        self._next = None
        if walk:
            # one cycle through every slot, i -> 5 i + 1 mod 2^20 (full
            # period), so the next slot is never a fixed stride away
            self._next = array(
                "q",
                ((5 * i + 1) & (WALK_SLOTS - 1) for i in range(WALK_SLOTS)),
            )
            self._slot = 0
            self.reference_ms += WALK_REFERENCE_MS

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        started = monotonic()
        cpu = thread_time()
        _probe_loop(TICK_ITERATIONS)
        if self._next is not None:
            walk = self._next
            slot = self._slot
            for _ in range(WALK_STEPS):
                slot = walk[slot]
            self._slot = slot
        self.costs.append(thread_time() - cpu)
        self.starts.append(started)
        self.ends.append(monotonic())

    def adjusted_ms(self, start: float, end: float) -> float:
        """Work between two :func:`time.monotonic` stamps, at reference speed (ms)."""
        lo = bisect_left(self.ends, start)
        hi = bisect_right(self.starts, end)
        ticked = sum(
            max(0.0, min(end, tick_end) - max(start, tick_start))
            for tick_start, tick_end in zip(self.starts[lo:hi], self.ends[lo:hi])
        )
        costs = self.costs[max(0, lo - TICK_MARGIN):hi + TICK_MARGIN]
        if not costs:
            raise BenchmarkError("no host-speed tick near a timed window")
        tick_ms = statistics.harmonic_mean(costs) * 1e3
        return (end - start - ticked) * 1e3 * self.reference_ms / tick_ms

    def tick_ms(self) -> float:
        """Median tick time of the run so far (ms)."""
        return statistics.median(self.costs) * 1e3 if self.costs else 0.0


@contextmanager
def one_cpu():
    """Run this thread, and the threads it starts, on one allowed CPU.

    The ticks run on the main thread; pinned, they sample the CPU that
    every thread of the program runs on (on two vCPUs shared with other
    tenants the two CPUs' speeds differ).  The threads share one GIL, so
    pinning takes little parallelism from them.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_setups(sampler: SpeedSampler, build, count: int, teardown=None):
    """Run ``build()`` ``count`` times; returns (adjusted seconds, last result).

    Each set-up is read at reference speed by ``sampler``.  Every result
    but the last is torn down (untimed) and dropped before the next
    build starts, so each build starts cold.
    """
    seconds: list[float] = []
    result = None
    for _ in range(count):
        if result is not None and teardown is not None:
            teardown(result)
        result = None
        with sampler:
            started = monotonic()
            result = build()
            finished = monotonic()
        seconds.append(sampler.adjusted_ms(started, finished) / 1e3)
    return seconds, result
