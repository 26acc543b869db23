"""Column answer sets vs eager assembly on one evaluation of the paper.

The bounds technique reads only per-threshold counts and the
containment ``A2^δ ⊆ A1^δ`` (section 3.2), so the evaluation path —
assemble each query's answer set, pool the suite, profile it, validate
each improvement — never needs a mapping object.  This bench feeds the
pair results of one bounds-sweep-shaped evaluation (S1 exhaustive plus
the harness's three S2s over 100 schemas and ten 5-element queries)
through both paths:

* **eager** — :func:`helpers.oracles.eager_assemble`, one ``Mapping``
  and one ``Answer`` per search result, pooled, profiled and validated
  through the eager answer-set code;
* **columns** — :meth:`Matcher.assemble`'s column answer sets, pooled
  by groups, profiled by group lookups and validated with dict views.

Both see the same pair results, so the searches are not timed.  The
contract asserts identical canonical answers and bound entries always,
and — under ``BENCH_TIMING_ASSERTS`` (see README.md) — the column path
≥3× faster.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter

import pytest

from helpers.oracles import eager_assemble
from repro.core.answers import AnswerSet
from repro.core.incremental import SizeProfile, SystemProfile
from repro.evaluation import build_workload, validation
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
    TopKCandidateMatcher,
    canonical_answers,
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


@pytest.fixture(scope="module")
def evaluation():
    """(workload, [(matcher, per-query pair results)]), S1 first."""
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
    runs = [
        (
            matcher,
            MatchingPipeline(matcher)
            .run(queries, workload.repository, workload.schedule.final)
            .pair_results,
        )
        for matcher in systems
    ]
    return workload, runs


def evaluate(workload, runs, assemble):
    """Assemble, pool, profile and validate: (pooled sets, validations)."""
    schedule = workload.schedule
    truth = workload.suite.ground_truth.mappings
    queries = [scenario.query for scenario in workload.suite.scenarios]
    system_runs = []
    for matcher, pair_results in runs:
        pooled = AnswerSet.disjoint_union(
            assemble(matcher, query, workload.repository, by_schema, schedule.final)
            for query, by_schema in zip(queries, pair_results)
        )
        system_runs.append(
            validation.SystemRun(
                name=matcher.name,
                answers=pooled,
                profile=SystemProfile.from_answer_set(schedule, pooled, truth),
                sizes=SizeProfile.from_answer_set(schedule, pooled),
            )
        )
    original, *improved = system_runs
    checks = [validation.validate_improvement(original, run) for run in improved]
    return [run.answers for run in system_runs], checks


def columns(matcher, query, repository, pair_results, delta_max):
    return matcher.assemble(query, repository, pair_results, delta_max)


def timed(workload, runs, assemble) -> float:
    """Median seconds of ``ROUNDS`` evaluations, each from a clean heap."""
    seconds = []
    for _ in range(ROUNDS):
        gc.collect()
        started = perf_counter()
        evaluate(workload, runs, assemble)
        seconds.append(perf_counter() - started)
    return statistics.median(seconds)


def test_bench_evaluation_eager(benchmark, evaluation):
    benchmark.pedantic(
        evaluate, args=(*evaluation, eager_assemble), rounds=3, iterations=1
    )


def test_bench_evaluation_columns(benchmark, evaluation):
    benchmark.pedantic(
        evaluate, args=(*evaluation, columns), rounds=3, iterations=1
    )


def test_column_evaluation_speedup_and_identical(evaluation):
    """The contract: same answers and bounds, ≥3× faster (measured ~9×).

    Measured on a 2-vCPU VM: eager 230-243 ms, columns 24-28 ms per
    evaluation, each from a collected heap.
    """
    eager_sets, eager_checks = evaluate(*evaluation, eager_assemble)
    column_sets, column_checks = evaluate(*evaluation, columns)
    assert all(s._answers is None for s in column_sets)  # nothing built
    assert canonical_answers(column_sets) == canonical_answers(eager_sets)
    assert [c.bounds.entries for c in column_checks] == [
        c.bounds.entries for c in eager_checks
    ]
    assert all(c.sound for c in column_checks)
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        eager_seconds = timed(*evaluation, eager_assemble)
        column_seconds = timed(*evaluation, columns)
        assert eager_seconds >= 3 * column_seconds, (
            f"column evaluation ({column_seconds * 1e3:.1f} ms) is not ≥3× "
            f"faster than the eager one ({eager_seconds * 1e3:.1f} ms)"
        )
