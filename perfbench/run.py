"""The repository benchmark: three workloads, host-adjusted timings, traces.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bounds-sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

``--workload`` is ``bounds-sweep``, ``replica-serve``, ``fanout-sweep``
or ``all`` (each workload in turn, one result line each; ``peak_rss_mb``
is then the peak of the process so far).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics.  The lines above it name every metric the way the
workloads define it (``eval_ms``, ``search_p50_ms``, ``remote_ms``, ...)
with unit, sample count and the raw wall-clock value.  The benchmark
drives the program through its public APIs only, from ``src/`` of the
checkout; it writes only under ``.perfbench/`` in the checkout.

Workloads (why each exists: ``perfbench/metrics.json``):

* ``bounds-sweep`` — the paper's evaluation, closed loop
  (:mod:`bounds_sweep`);
* ``replica-serve`` — ``serve --replicas 2`` under reads, searches,
  churn and checkpoints from one closed-loop client
  (:mod:`replica_serve`);
* ``fanout-sweep`` — one batch through serial, pool and socket
  transports, closed loop (:mod:`fanout_sweep`).

End-to-end metrics.  ``BENCHMARK.json`` holds one list of metrics for
all workloads, so every workload reports the same five names and
``lat1_ms``..``lat3_ms`` carry each workload's own three latencies:

=============  ==============  ===============  ============
metric         bounds-sweep    replica-serve    fanout-sweep
=============  ==============  ===============  ============
lat1_ms        eval_ms         read_p50_ms      serial_ms
lat2_ms        s1_ms           search_p50_ms    pool_ms
lat3_ms        s2_ms           delta_p50_ms     remote_ms
setup_s        setup_s         setup_s          setup_s
peak_rss_mb    peak_rss_mb     peak_rss_mb      peak_rss_mb
=============  ==============  ===============  ============

``s1_ms`` is the S1 ``run_system`` inside an evaluation and ``s2_ms``
the three S2 runs plus their ``validate_improvement``; together they
make ``eval_ms``.  On replica-serve each latency is one request class:
reads served from retained state, reads that search, deltas.

How time is read on a shared 2-vCPU host
----------------------------------------
The first attempt at this benchmark was rejected as too noisy: on
identical code its medians moved 4.5 % (evolve-serve ``op_ms`` 97.1 →
101.5) and 3.8 % (remote-serve 345.6 → 332.3).  The host explains it:
2 vCPUs shared with other tenants, where the 5-second medians of a
fixed pure-Python loop wander between 23 and 38 ms, and sixteen
identical 20-second batch runs split into odd and even halves whose raw
medians are 12 % apart.

The second attempt paired every timed op with a fixed pure-Python
probe (:mod:`harness`), timed just before the op while the program was
idle, and scaled every end-to-end time to a reference probe time.  It
steadied short ops (eight 8-second runs of a 260-schema exhaustive
batch: raw medians 166-243 ms, IQR/median 0.25; adjusted 212-234 ms,
0.07) but not long ones: over ten runs the 2-3 s bounds-sweep
evaluation still spread 0.19-0.25 and its S1 part 0.20-0.26, and the
open-loop replica-serve read p95 0.28-0.34.  The host's speed swings
within an op, and the open loop's tail moved with the speed through
its queue.

So time is now read *during* the op: :class:`harness.SpeedSampler`
interrupts the main thread every 20 ms with a ~0.4 ms tick of the probe
loop and reports each op's wall time, less the ticks, at the tick's
reference speed (the probe reference in ``metrics.json``); raw
wall-clock stays in the report lines as a diagnostic.  replica-serve
runs pinned to one CPU, so the ticks sample the CPU its executor threads
run on; its ticks also walk an 8 MB array (its re-match runs numpy); and
it is a closed loop, each request class timed on its own.
bounds-sweep evaluates over 100 schemas (about 1 s per op, so a run
holds some twenty ops).  fanout-sweep keeps the probe before each arm
(its pool and socket workers compute on both vCPUs while the
coordinator waits).  Five-seed trials on a shared 2-vCPU Xeon VM,
IQR/median with ticks: the bounds-sweep evaluation and its S1 part
spread 0.18 and 0.28 at 260 schemas, 0.08 and 0.11 at 100 schemas;
replica-serve's open-loop read p95 spread 0.17, the closed loop's
search p50 0.08 and delta p50 0.07.  While the probe runs, the idle
guard reads the CPU time of the other threads and the child processes
from ``/proc`` and fails the run if they did more than a sliver of
work.  All load comes from
this one process, with at most two threads of its own and two
connections.

Tracing (``--trace 1``)
-----------------------
The traced run alternates ops (epochs on replica-serve) between
untraced and traced.  While traced,
:class:`tracing.Tracer` wraps the public entry points of every layer;
spans stay in memory and are written to ``.perfbench/`` when the run
ends.  Per-layer metrics come from the traced ops, ``trace.untraced_ms``
is each traced op's wall time minus the self time of its spans on the
op's own thread, and ``trace.overhead_pct`` compares traced with
untraced ops of the same run.  End-to-end metrics come from untraced
runs only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import threading
from collections import defaultdict
from pathlib import Path

from harness import NOTES, PROBE_REFERENCE_MS, BenchmarkError, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
#: per-layer metric name -> unit, in BENCHMARK.json order
LAYER_UNITS = {entry["name"]: entry["unit"] for entry in NOTES["per_layer"]}

WORKLOADS = ("bounds-sweep", "replica-serve", "fanout-sweep")
SLOTS = {
    "bounds-sweep": ("eval_ms", "s1_ms", "s2_ms"),
    "replica-serve": ("read_p50_ms", "search_p50_ms", "delta_p50_ms"),
    "fanout-sweep": ("serial_ms", "pool_ms", "remote_ms"),
}


def _require_source() -> None:
    """Fail (without a result) unless the program's source is present."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout\n"
        )
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


def e2e_metrics(workload: str, e2e: dict) -> dict:
    slots = dict(zip(("lat1_ms", "lat2_ms", "lat3_ms"), SLOTS[workload]))
    metrics = {
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    for slot, name in slots.items():
        metrics[slot] = e2e[name]
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _count) in metrics.items()
    }


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(workload: str, result: dict, tracer) -> dict[str, float]:
    """Every per-layer metric from the traced ops of one run (0 if unused)."""
    from tracing import END, NAME, OP, START, THREAD, VALUE, self_times

    spans = tracer.spans
    own = self_times(spans)
    main = threading.main_thread().ident
    self_ms: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    value: dict[str, float] = defaultdict(float)
    build_ms = setup_prepare_ms = 0.0
    op_self: dict[object, float] = defaultdict(float)
    for row, seconds in zip(spans, own):
        if row[END] is None:
            continue
        name = row[NAME]
        if row[OP] == "setup":
            if name == "clustering.prepare":
                setup_prepare_ms += seconds * 1e3
            continue
        self_ms[name] += seconds * 1e3
        count[name] += 1
        if name == "similarity.matrix" and row[VALUE]:
            build_ms += seconds * 1e3
        if name in ("matcher", "similarity.matrix") or name.startswith(
            "executor."
        ):
            value[name] += row[VALUE] or 0
        if name in ("remote.send", "remote.recv"):
            frame_bytes, wait = row[VALUE]
            value[name] += frame_bytes
            value["codec_ms"] += (row[END] - row[START] - wait) * 1e3
        elif name == "evolution.rematch" and row[VALUE]:
            for key, number in zip(
                ("recomputed", "skipped", "reused"), row[VALUE]
            ):
                value[f"pairs_{key}"] += number
        if row[THREAD] == main and row[OP] is not None:
            op_self[row[OP]] += seconds * 1e3

    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    extra: dict[str, float] = {}
    if workload == "replica-serve":
        client = result["client"]
        traced = [
            r for r in client.reads + client.deltas + client.checkpoints
            if r["epoch"] % 2 == 1 and not r["failed"]
        ]
        ops = len(traced)
        walls = [((r["done"] - r["sent"]) * 1e3, r["op"]) for r in traced]
        deltas = sum(1 for r in client.deltas if r["epoch"] % 2 == 1)
        checkpoints = sum(
            1 for r in client.checkpoints if r["epoch"] % 2 == 1
        )
        state_ops = {
            r["op"] for r in client.reads
            if r["epoch"] % 2 == 1 and r["cls"] == "state"
        }
        state_spans = [
            (row[END] - row[START]) * 1e3 for row in spans
            if row[NAME] == "service.match" and row[OP] in state_ops
            and row[END] is not None
        ]
        served, requests, batched, batches, digests = (
            sum(column) for column in zip(*result["epoch_stats"])
        )
        extra = {
            "service.state_read_ms": _per(sum(state_spans), len(state_spans)),
            "service.from_state_ratio": _per(served, requests),
            "service.batch_size": _per(batched, batches),
            "replication.deliver_ms": _per(
                self_ms["replication.receive"], deltas
            ),
            "replication.refused": _per(
                sum(r["refused"] for r in client.reads
                    if r["epoch"] % 2 == 1),
                deltas,
            ),
            "replication.digest_checks": _per(digests, deltas),
            "evolution.rematch_ms": _per(self_ms["evolution.rematch"], deltas),
            "evolution.pairs_recomputed": _per(
                value["pairs_recomputed"], deltas
            ),
            "evolution.pairs_skipped": _per(value["pairs_skipped"], deltas),
            "evolution.pairs_reused": _per(value["pairs_reused"], deltas),
            "schema.apply_ms": _per(self_ms["schema.apply"], deltas),
            "store.checkpoint_ms": _per(
                self_ms["store.checkpoint"], checkpoints
            ),
        }
    else:
        walls = [(wall * 1e3, op) for op, wall in result["traced_ops"]]
        ops = len(walls)
        if workload == "fanout-sweep":
            extra["remote.worker_ms"] = _per(result["worker_ms"], ops)
        if workload == "bounds-sweep":
            extra["clustering.prepare_ms"] = _per(
                setup_prepare_ms, len(result["raw"]["setup_s"])
            )
    builds = value["similarity.matrix"]
    traced_times, untraced_times = result["overhead"]
    metrics.update({
        "engine.search_ms": _per(self_ms["engine"], ops),
        "engine.pairs": _per(count["engine"], ops),
        "matcher.assemble_ms": _per(self_ms["matcher"], ops),
        "matcher.mappings": _per(value["matcher"], ops),
        "core.profile_ms": _per(self_ms["core.profile"], ops),
        "core.bounds_ms": _per(self_ms["core.bounds"], ops),
        "core.union_ms": _per(self_ms["core.union"], ops),
        "similarity.matrix_builds": _per(builds, ops),
        "similarity.matrix_hits": _per(
            count["similarity.matrix"] - builds, ops
        ),
        "similarity.build_ms": _per(build_ms, ops),
        "similarity.gather_ms": _per(self_ms["similarity.gather"], ops),
        "pipeline.self_ms": _per(self_ms["pipeline"], ops),
        "pipeline.units": _per(
            sum(value[f"executor.{arm}"] for arm in ("serial", "pool", "remote")),
            ops,
        ),
        "executor.serial.execute_ms": _per(self_ms["executor.serial"], ops),
        "executor.pool.execute_ms": _per(self_ms["executor.pool"], ops),
        "executor.remote.execute_ms": _per(self_ms["executor.remote"], ops),
        "remote.frames": _per(
            count["remote.send"] + count["remote.recv"], ops
        ),
        "remote.bytes": _per(
            value["remote.send"] + value["remote.recv"], ops
        ),
        "remote.codec_ms": _per(value["codec_ms"], ops),
        "host.probe_ms": _median(result["probe"].samples),
        "trace.untraced_ms": _per(
            sum(wall - op_self[op] for wall, op in walls), ops
        ),
        "trace.overhead_pct": 100 * (
            _median(traced_times) / _median(untraced_times) - 1
        ),
    })
    metrics.update(extra)
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def class_report(result: dict) -> list[str]:
    """Read latency by request class; each read e2e metric is one class."""
    reads = [r for r in result["client"].reads if not r["failed"]]
    lines = ["  read latency by request class:"]
    for cls, metric in (
        ("state", "read_p50_ms"), ("search", "search_p50_ms"),
        ("write", "refused during a delta, re-sent after it"),
    ):
        values = sorted(r["ms"] for r in reads if r["cls"] == cls)
        lines.append(
            f"    {cls:<7} n={len(values):<5} "
            f"share {len(values) / len(reads):6.1%}  "
            f"p50 {_median(values):8.3f} ms  "
            f"p95 {percentile(values, 95):8.3f} ms  "
            f"max {values[-1]:8.3f} ms  ({metric})"
        )
    return lines


def report(workload: str, args, result: dict, tracer) -> tuple[dict, list[str]]:
    lines = [
        f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    ]
    raw = result["raw"]
    for name, (value, unit, samples) in result["e2e"].items():
        raw_value = raw.get(name)
        if isinstance(raw_value, list):
            raw_text = "each " + ", ".join(f"{v:.3f}" for v in raw_value)
        elif raw_value is not None:
            raw_text = f"raw {raw_value:.3f}"
        else:
            raw_text = ""
        lines.append(
            f"  {name:<14} {value:12.3f} {unit:<3} (n={samples}) {raw_text}"
        )
    lines.append(
        f"  ops attempted {result['attempted']}, failed {result['failed']}; "
        f"probe median {raw['probe_ms']:.2f} ms "
        f"(reference {PROBE_REFERENCE_MS} ms); idle guard worst "
        f"{result['probe'].worst_busy_ns / 1e6:.2f} ms"
    )
    for key in (
        "tick_ms", "worker_peak_rss_mb", "epochs", "refused",
        "write_wait_p50_ms", "checkpoint_p50_ms",
    ):
        if key in raw:
            lines.append(f"  {key}: {raw[key]}")
    for error in result["errors"]:
        lines.append(f"  ERROR {error}")
    if workload == "replica-serve" and args.trace:
        lines.extend(class_report(result))
    if args.trace:
        metrics = layer_metrics(workload, result, tracer)
        for name, unit in LAYER_UNITS.items():
            lines.append(f"  {name:<28} {metrics[name]:14.4f} {unit}")
        out = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        out = e2e_metrics(workload, result["e2e"])
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _require_source()
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORKDIR / "tmp")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        module = importlib.import_module(workload.replace("-", "_"))
        kwargs = {"workdir": WORKDIR} if workload == "replica-serve" else {}
        try:
            result = module.run(args.seed, args.seconds, tracer, **kwargs)
        except BenchmarkError as exc:
            sys.stderr.write(f"perfbench {workload}: invalid run: {exc}\n")
            return 1
        metrics, lines = report(workload, args, result, tracer)
        if tracer is not None:
            tracer.dump(WORKDIR / f"trace-{workload}-{args.seed}.jsonl")
        correct = not result["errors"]
        print("\n".join(lines), flush=True)
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }), flush=True)
        if not correct:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
