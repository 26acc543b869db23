#!/usr/bin/env python
"""Profile the standard matcher × threshold repository sweep.

Runs the same sweep shape the perf contracts time (every matcher ×
threshold × query over a workload repository) under :mod:`cProfile` and
prints the top functions by cumulative time — the quickest way to see
where the scoring wall-clock goes before and after touching a hot path.

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_hotpath.py
    PYTHONPATH=src python tools/profile_hotpath.py --limit 30 --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --schemas 260  # repo scale
    REPRO_NO_NUMPY=1 PYTHONPATH=src python tools/profile_hotpath.py  # python gather

The kernel's python gather runs whenever numpy is absent, so
``REPRO_NO_NUMPY=1`` profiles it.  The other replaced code
paths (the pre-kernel scoring, the recursive search) are test oracles
in ``tests/helpers/oracles.py``, not production modes, so this tool
does not profile them.

``--warm`` first replays the sweep once un-timed so the name-similarity
memo is hot and the profile shows steady-state scoring instead of
cold-universe similarity computation (the contract benches warm the
same way).

``--deltas N`` profiles served repository churn instead of the sweep:
the churn script of perfbench's replica-serve workload (one-schema
partial renames, ``churn=0.025`` replace-only deltas) on the default
40-schema workload, re-matched by
:meth:`~repro.matching.evolution.EvolutionSession.apply` with the
exhaustive matcher at δ = 0.3 over the workload's queries.  The cold
baseline match runs un-profiled; the N applies run on the calling
thread under the profiler.  A served re-match runs on an executor
thread, so profiling ``serve`` or perfbench from the main thread shows
only the event loop's wait::

    PYTHONPATH=src python tools/profile_hotpath.py --deltas 40 --sort tottime
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def _sweep(workload, thresholds):
    from repro.matching import (
        BeamMatcher,
        ClusteringMatcher,
        ExhaustiveMatcher,
        HybridMatcher,
        TopKCandidateMatcher,
    )

    matchers = [
        ExhaustiveMatcher(workload.objective),
        BeamMatcher(workload.objective, beam_width=8),
        ClusteringMatcher(workload.objective, clusters_per_element=2),
        TopKCandidateMatcher(workload.objective, candidates_per_element=4),
        HybridMatcher(workload.objective, clusters_per_element=3, beam_width=8),
    ]
    results = []
    for matcher in matchers:
        for delta in thresholds:
            for scenario in workload.suite.scenarios:
                results.append(
                    matcher.match(scenario.query, workload.repository, delta)
                )
    return results


#: replica-serve's churn script: each delta replaces one schema of the
#: 40 by a partial rename, seeded ``DELTA_SEED + index``
CHURN = 0.025
DELTA_SEED = 4242
DELTA_MAX = 0.3


def _churn(workload, count):
    """A session matched cold on ``workload`` plus ``count`` churn deltas."""
    from repro.matching import ExhaustiveMatcher
    from repro.matching.evolution import EvolutionSession
    from repro.schema import churn_delta

    session = EvolutionSession(
        ExhaustiveMatcher(workload.objective),
        [scenario.query for scenario in workload.suite.scenarios],
        DELTA_MAX,
    )
    session.match(workload.repository)
    deltas = []
    repository = workload.repository
    for index in range(count):
        delta = churn_delta(
            repository, CHURN, seed=DELTA_SEED + index,
            replace_weight=1.0, add_weight=0.0, remove_weight=0.0,
        )
        repository, _report = repository.apply(delta)
        deltas.append(delta)
    return session, deltas


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--limit", type=int, default=20, help="rows to print (default 20)"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort order (default cumulative)",
    )
    parser.add_argument(
        "--schemas",
        type=int,
        default=None,
        help="repository size (default: the standard workload's)",
    )
    parser.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=[0.2, 0.3, 0.4],
        help="threshold grid of the sweep (default 0.2 0.3 0.4)",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="replay the sweep once un-timed first (hot name memo)",
    )
    parser.add_argument(
        "--deltas",
        type=int,
        default=None,
        metavar="N",
        help="profile N churn-delta re-matches instead of the sweep",
    )
    args = parser.parse_args(argv)
    if args.deltas is not None and args.deltas < 1:
        parser.error("--deltas must be >= 1")

    from repro.evaluation import build_workload
    from repro.evaluation.workloads import WorkloadConfig

    config = None
    if args.schemas is not None:
        config = WorkloadConfig(
            num_schemas=args.schemas,
            min_schema_size=10,
            max_schema_size=24,
            num_queries=10,
            query_size=5,
        )
    workload = build_workload(config)
    profiler = cProfile.Profile()
    if args.deltas is not None:
        session, deltas = _churn(workload, args.deltas)
        profiler.enable()
        for delta in deltas:
            session.apply(delta)
        profiler.disable()
    else:
        if args.warm:
            _sweep(workload, args.thresholds[:1])
        profiler.enable()
        _sweep(workload, args.thresholds)
        profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
