"""fanout-sweep: one batch through the three shard transports, closed loop.

One op is one batch — the 10 queries of the 260-schema config against
its 260 schemas, exhaustive at δ = 0.35, ``shards=4``, candidate cache
off — run in turn through three arms: serial, ``workers=2`` (the shared
process pool) and a :class:`~repro.matching.remote.RemoteShardExecutor`
over two socket workers.  Each arm sweep is timed on its own, right
after its own host probe, so the three arms see the same host.  (The
in-op ticks of :class:`harness.SpeedSampler` run on the coordinator;
while the pool or the socket workers compute they would sample a third
runnable thread on two vCPUs, and in trials they tracked the pool and
remote arms worse than the probe.  Set-ups are read by the ticks.)

The socket workers are child processes started by ``worker.py``; socket
worker threads inside this process would share the coordinator's GIL.
Set-up installs every transport's state: the serial reference answers,
a warm pool sweep (the pool forks, and it must fork before any remote
fan-out thread exists), both workers' install and one warm remote sweep.

The seed permutes the order of the batch's queries, which leaves the
work of a sweep unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from repro.errors import TransportError
from repro.evaluation import build_workload
from repro.matching import ExhaustiveMatcher, canonical_answers
from repro.matching.executor import shutdown_workers
from repro.matching.remote import RemoteShardExecutor, recv_message, send_message

from bounds_sweep import CONFIG
from harness import (
    OP_PROBES,
    BenchmarkError,
    HostProbe,
    SpeedSampler,
    child_pids,
    peak_rss_mb,
    process_peak_rss_mb,
    timed_setups,
)

DELTA_MAX = 0.35
SHARDS = 4
WORKERS = 2
ARMS = ("serial", "pool", "remote")
SETUPS = 3
LAUNCHER = Path(__file__).resolve().parent / "worker.py"


def digest(answer_sets) -> str:
    return hashlib.blake2b(
        repr(canonical_answers(answer_sets)).encode(), digest_size=16
    ).hexdigest()


class Setup:
    """Workload, matcher, warm pool, two live socket workers."""

    def __init__(self, seed: int, trace: bool):
        workload = build_workload(CONFIG)
        queries = [scenario.query for scenario in workload.suite.scenarios]
        random.Random(seed).shuffle(queries)
        self.queries = queries
        self.repository = workload.repository
        self.matcher = ExhaustiveMatcher(workload.objective)
        self.workers: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []
        self.reports: list[dict] = []
        self.errors: list[str] = []
        try:
            self.reference = digest(self.sweep("serial"))
            self._expect("pool", self.sweep("pool"))
            for _ in range(WORKERS):
                self._launch(trace)
            self.remote = RemoteShardExecutor(self.addresses)
            self._expect("remote", self.sweep("remote"))
        except BaseException:
            self.close()
            raise

    def _launch(self, trace: bool) -> None:
        process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.workers.append(process)
        port = process.stdout.readline().strip()
        if not port.isdigit():
            raise BenchmarkError(f"socket worker failed to start: {port!r}")
        self.addresses.append(("127.0.0.1", int(port)))

    def _expect(self, arm: str, answers) -> None:
        if digest(answers) != self.reference:
            raise BenchmarkError(f"{arm} arm answers differ from serial")

    def sweep(self, arm: str):
        options = {"shards": SHARDS, "cache": False}
        if arm == "serial":
            options["workers"] = 1
        elif arm == "pool":
            options["workers"] = WORKERS
        else:
            options["executor"] = self.remote
        return self.matcher.batch_match(
            self.queries, self.repository, DELTA_MAX, **options
        )

    def worker_peak_rss_mb(self) -> float:
        return max(process_peak_rss_mb(pid) for pid in child_pids())

    def close(self) -> None:
        """Shut the socket workers down (collecting reports) and the pool."""
        for (host, port), process in zip(self.addresses, self.workers):
            try:
                with socket.create_connection(
                    (host, port), timeout=10
                ) as sock:
                    send_message(sock, {"op": "shutdown"})
                    try:
                        recv_message(sock)
                    except TransportError:
                        pass  # the stopping server may close before "bye"
                out, _err = process.communicate(timeout=30)
                self.reports.append(json.loads(out.strip().splitlines()[-1]))
            except (OSError, ValueError, IndexError, TransportError,
                    subprocess.TimeoutExpired) as exc:
                self.errors.append(f"worker {port} shutdown: {exc!r}")
        for process in self.workers:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)
            if process.stdout is not None:
                process.stdout.close()
        self.workers = []
        self.addresses = []
        shutdown_workers()


def run(seed: int, seconds: float, tracer=None) -> dict:
    probe = HostProbe()
    trace = tracer is not None
    setup_seconds, setup = timed_setups(
        SpeedSampler(), lambda: Setup(seed, trace), SETUPS, Setup.close
    )
    samples: dict[str, list[float]] = {arm: [] for arm in ARMS}
    raw: dict[str, list[float]] = {arm: [] for arm in ARMS}
    traced_ops: list[tuple[str, float]] = []
    remote_windows: list[tuple[float, float]] = []
    batches = {True: [], False: []}
    errors: list[str] = []
    attempted = failed = 0
    try:
        deadline = perf_counter() + seconds
        op = 0
        while (
            perf_counter() < deadline or not samples["remote"]
        ) and failed <= 3:
            op += 1
            traced = trace and op % 2 == 0
            op_id = f"op{op}"
            batch_wall = 0.0
            batch_scaled = 0.0
            for arm in ARMS:
                scale = probe.scale(probe.reading(OP_PROBES))
                attempted += 1
                if traced:
                    tracer.install()
                    tracer.op = op_id
                mono = time.monotonic()
                try:
                    started = perf_counter()
                    answers = setup.sweep(arm)
                    wall = perf_counter() - started
                except Exception as exc:
                    failed += 1
                    errors.append(f"{arm}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if traced:
                        tracer.op = None
                        tracer.uninstall()
                if traced and arm == "remote":
                    remote_windows.append((mono, time.monotonic()))
                if digest(answers) != setup.reference:
                    errors.append(f"{arm} arm answers differ from serial")
                samples[arm].append(wall * 1e3 * scale)
                raw[arm].append(wall * 1e3)
                batch_wall += wall
                batch_scaled += wall * 1e3 * scale
            if trace:
                batches[traced].append(batch_scaled)
            if traced:
                traced_ops.append((op_id, batch_wall))
        worker_rss = setup.worker_peak_rss_mb()
    finally:
        setup.close()
    errors.extend(setup.errors)
    worker_ms = sum(
        duration
        for report in setup.reports
        for started, duration in report["timed_units"]
        if any(lo <= started <= hi for lo, hi in remote_windows)
    ) * 1e3
    if not all(samples.values()):
        raise BenchmarkError(f"an arm completed no sweep: {errors}")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "e2e": {
            "setup_s": (
                statistics.median(setup_seconds), "s", len(setup_seconds)
            ),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            **{
                f"{arm}_ms": (statistics.median(values), "ms", len(values))
                for arm, values in samples.items()
            },
        },
        "raw": {
            **{f"{arm}_ms": statistics.median(raw[arm]) for arm in ARMS},
            "probe_ms": statistics.median(probe.samples),
            "setup_s": setup_seconds,
            "worker_peak_rss_mb": worker_rss,
        },
        "probe": probe,
        "traced_ops": traced_ops,
        "worker_ms": worker_ms,
        "overhead": (batches[True], batches[False]),
    }
