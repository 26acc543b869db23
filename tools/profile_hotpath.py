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
    REPRO_NO_NUMPY=1 PYTHONPATH=src python tools/profile_hotpath.py  # python loops

The pure-python loops behind the numpy path run whenever numpy is
absent, so ``REPRO_NO_NUMPY=1`` profiles them.  The other replaced code
paths (the pre-kernel scoring, the recursive search) are test oracles
in ``tests/helpers/oracles.py``, not production modes, so this tool
does not profile them.

``--warm`` first replays the sweep once un-timed so the name-similarity
memo is hot and the profile shows steady-state scoring instead of
cold-universe similarity computation (the contract benches warm the
same way).
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
    args = parser.parse_args(argv)

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
    if args.warm:
        _sweep(workload, args.thresholds[:1])

    profiler = cProfile.Profile()
    profiler.enable()
    _sweep(workload, args.thresholds)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
