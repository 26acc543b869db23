"""A persistent matching service: snapshot → restart → warm-start → evolve.

A long-lived matching process should not pay cold-start costs — substrate
builds, full repository sweeps — every time it restarts, and should keep
serving (identical!) answers while its repository evolves.  This example
walks the serving subsystem end to end:

1. start a :class:`MatchingService` cold, serve the workload's queries
   as concurrent async requests (micro-batched under the hood),
2. checkpoint the full state — repository, the substrate's cost
   kernel, retained pair results — to a snapshot directory,
3. "restart": build a fresh objective/matcher (as a new process would)
   and warm-start a second service from the snapshot alone,
4. verify the warm service answers every retained query from state,
   without running a single search, byte-identically to the cold run,
5. apply a live churn delta to the running service and verify the
   re-served answers against an offline cold re-match.

Run:  python examples/serving_snapshot.py
"""

import asyncio
import tempfile
from time import perf_counter

from repro.evaluation import build_workload
from repro.evaluation.workloads import small_config
from repro.matching import ExhaustiveMatcher, MatchingService, canonical_answers
from repro.schema import churn_delta

#: δmax for every request; 0.3 keeps the demo quick
DELTA_MAX = 0.3

#: the one shared definition of "byte-identical answers"
canonical = canonical_answers


async def demo(snapshot_dir: str) -> None:
    # 1. Cold service: first requests pay for the matching.
    workload = build_workload(small_config())
    queries = [scenario.query for scenario in workload.suite.scenarios]
    service = MatchingService(
        ExhaustiveMatcher(workload.objective), DELTA_MAX, store=snapshot_dir
    )
    started = perf_counter()
    await service.start(workload.repository)
    baseline = await asyncio.gather(*[service.match(q) for q in queries])
    cold_seconds = perf_counter() - started
    print(
        f"cold start + first wave: {cold_seconds:.3f}s "
        f"({service.stats.batched_queries} queries matched in "
        f"{service.stats.batches} micro-batches)"
    )

    # 2. Checkpoint everything to disk.
    await service.checkpoint()
    await service.stop()
    print(f"checkpoint written to {snapshot_dir}")

    # 3. "Restart": a fresh universe, warm-started from the snapshot.
    fresh = build_workload(small_config())  # deterministic ⇒ same objective
    restarted = MatchingService(
        ExhaustiveMatcher(fresh.objective), DELTA_MAX, store=snapshot_dir
    )
    started = perf_counter()
    await restarted.start()          # no repository argument: all from disk
    warm = await asyncio.gather(*[restarted.match(q) for q in queries])
    warm_seconds = perf_counter() - started
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")

    # 4. Warm answers come from retained state — zero searches — and are
    #    byte-identical to the cold run's.
    stats = restarted.stats
    kernel = restarted.matcher.objective.substrate().kernel()
    assert stats.warm_start and stats.served_from_state == len(queries)
    assert stats.batched_queries == 0, "warm start must not re-match!"
    assert canonical(warm) == canonical(baseline), "warm answers diverged!"
    print(
        f"warm start + same wave: {warm_seconds:.3f}s (~{speedup:.0f}x; "
        f"{kernel.rows_migrated} kernel rows restored, "
        f"{stats.served_from_state}/{len(queries)} answers from state)"
    )

    # 5. Evolve the repository live; serving continues, still identical
    #    to the offline path.
    delta = churn_delta(restarted.repository, churn=0.25, seed=11)
    report = await restarted.apply_delta(delta)
    evolved = await asyncio.gather(*[restarted.match(q) for q in queries])
    offline = restarted.matcher.batch_match(
        queries, restarted.repository, DELTA_MAX
    )
    assert canonical(evolved) == canonical(offline), "served ≠ offline!"
    await restarted.stop()
    print(
        f"live delta ({report.summary()}): served answers verified "
        "byte-identical to the offline batch_match path"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(demo(f"{tmp}/snapshot"))


if __name__ == "__main__":
    main()
