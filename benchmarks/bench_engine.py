"""The search engine on one evaluation of the paper's bounds.

One bounds-sweep-shaped evaluation (S1 exhaustive plus the harness's
three S2s — beam 40, clustering 3, top-k 6 — over 100 schemas and ten
5-element queries at the schedule's final δ) matches 4,000 (query,
schema) pairs.  The fixture runs it once, untimed, and records every
search the matchers hand to :class:`~repro.matching.engine.SchemaSearch`:
query, schema, allowed lists, top-k cap, strategy, δ and beam width.
That is 3,052 searches: clustering builds none for a pair whose schema
holds fewer nominated elements than the query has (top-k hands the
engine those 9 pairs too small for the query, which it settles before
reading a matrix).  Both replays find every score matrix in the
substrate's cache, so they time the searches alone:

* **engine** — :meth:`SchemaSearch.exhaustive` and
  :meth:`SchemaSearch.beam`: the early exit on the matrix's minima,
  candidate orders cut by the cap and filtered through allowed sets,
  the query shape's generated loop nest and the sorted beam;
* **oracles** — the generator specs of ``tests/helpers/oracles.py``:
  :func:`~helpers.oracles.recursive_exhaustive` and
  :func:`~helpers.oracles.nsmallest_beam`, both on
  :func:`~helpers.oracles.sorted_prepare`.

The contract asserts identical result sequences (scores by
``float.hex``) always and, under ``BENCH_TIMING_ASSERTS`` (see
README.md), the engine ≥1.2× faster.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter
from unittest import mock

import pytest

from helpers.oracles import nsmallest_beam, recursive_exhaustive
from repro.evaluation import build_workload
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import (
    S2_EXTRA_TOPK,
    S2_ONE_BEAM_WIDTH,
    S2_TWO_CLUSTERS_PER_ELEMENT,
)
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    MatchingPipeline,
    SchemaSearch,
    TopKCandidateMatcher,
)

#: the evaluation perfbench's bounds-sweep runs as one op
CONFIG = WorkloadConfig(
    num_schemas=100,
    min_schema_size=10,
    max_schema_size=24,
    num_queries=10,
    query_size=5,
)
ROUNDS = 5


def record_searches(run) -> list[tuple]:
    """Every search ``run()`` makes: (query, schema, allowed, cap, δ, width).

    ``width`` is ``None`` for an exhaustive search.
    """
    searches: list[tuple] = []
    exhaustive, beam = SchemaSearch.exhaustive, SchemaSearch.beam

    def recorded(search, delta_max, width):
        return (
            search.query, search.schema, search.allowed, search.cap,
            delta_max, width,
        )

    def record_exhaustive(search, delta_max):
        searches.append(recorded(search, delta_max, None))
        return exhaustive(search, delta_max)

    def record_beam(search, delta_max, beam_width):
        searches.append(recorded(search, delta_max, beam_width))
        return beam(search, delta_max, beam_width)

    with (
        mock.patch.object(SchemaSearch, "exhaustive", record_exhaustive),
        mock.patch.object(SchemaSearch, "beam", record_beam),
    ):
        run()
    return searches


@pytest.fixture(scope="module")
def evaluation():
    """(objective, recorded searches) of one evaluation, matrices warm."""
    workload = build_workload(CONFIG)
    objective = workload.objective
    systems = [
        ExhaustiveMatcher(objective),
        BeamMatcher(objective, beam_width=S2_ONE_BEAM_WIDTH),
        ClusteringMatcher(
            objective, clusters_per_element=S2_TWO_CLUSTERS_PER_ELEMENT
        ),
        TopKCandidateMatcher(objective, candidates_per_element=S2_EXTRA_TOPK),
    ]
    queries = [scenario.query for scenario in workload.suite.scenarios]

    def run():
        for matcher in systems:
            MatchingPipeline(matcher).run(
                queries, workload.repository, workload.schedule.final
            )

    run()  # cold set-up: clusters, kernel rows, score matrices
    return objective, record_searches(run)


def engine(objective, searches):
    """Every recorded search through the engine."""
    return [
        SchemaSearch(query, schema, objective, allowed, cap).exhaustive(delta)
        if width is None
        else SchemaSearch(query, schema, objective, allowed, cap).beam(
            delta, width
        )
        for query, schema, allowed, cap, delta, width in searches
    ]


def oracles(objective, searches):
    """Every recorded search through the generator specs."""
    return [
        list(
            recursive_exhaustive(
                SchemaSearch(query, schema, objective, allowed, cap), delta
            )
        )
        if width is None
        else list(
            nsmallest_beam(
                SchemaSearch(query, schema, objective, allowed, cap),
                delta,
                width,
            )
        )
        for query, schema, allowed, cap, delta, width in searches
    ]


def hexed(results):
    """Search results with every score as its exact ``float.hex``."""
    return [[(ids, score.hex()) for ids, score in found] for found in results]


def timed(objective, searches) -> tuple[float, float]:
    """Median seconds of ``ROUNDS`` engine and oracle replays.

    The two alternate round by round, each from a clean heap, so a
    slow stretch of a shared host lands on both.
    """
    seconds: dict[object, list[float]] = {engine: [], oracles: []}
    for _ in range(ROUNDS):
        for replay, samples in seconds.items():
            gc.collect()
            started = perf_counter()
            replay(objective, searches)
            samples.append(perf_counter() - started)
    return (
        statistics.median(seconds[engine]),
        statistics.median(seconds[oracles]),
    )


def test_bench_search_engine(benchmark, evaluation):
    benchmark.pedantic(engine, args=evaluation, rounds=3, iterations=1)


def test_bench_search_oracles(benchmark, evaluation):
    benchmark.pedantic(oracles, args=evaluation, rounds=3, iterations=1)


def test_engine_replay_speedup_and_identical(evaluation):
    """The contract: same sequences and floats, the engine ≥1.2× faster.

    Measured on a 2-vCPU VM: engine 86-125 ms, oracles 195-281 ms per
    replay (2.1-2.3×).
    """
    objective, searches = evaluation
    widths = {width for *_rest, width in searches}
    assert widths == {None, S2_ONE_BEAM_WIDTH}  # both strategies replayed
    assert any(allowed is not None for _q, _s, allowed, *_rest in searches)
    assert {cap for _q, _s, _a, cap, _d, _w in searches} == {None, S2_EXTRA_TOPK}
    listed = engine(objective, searches)
    assert all(type(found) is list for found in listed)
    assert hexed(listed) == hexed(oracles(objective, searches))
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        engine_seconds, oracle_seconds = timed(objective, searches)
        assert oracle_seconds >= 1.2 * engine_seconds, (
            f"engine replay ({engine_seconds * 1e3:.1f} ms) is not ≥1.2× "
            f"faster than the oracles ({oracle_seconds * 1e3:.1f} ms)"
        )
