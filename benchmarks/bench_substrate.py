"""Microbenchmarks of the substrate layers.

Not paper figures — these quantify where the wall-clock goes (the paper's
premise: matching is the expensive part, the bound math is free) and
guard against performance regressions in the hot paths.  The similarity
substrate's headline claim — a repository sweep across matchers and
thresholds runs ≥ 1.5× faster with byte-identical answers — is asserted
here (``test_substrate_sweep_speedup_and_identical``), not assumed.
"""

import os
from time import perf_counter

from helpers.oracles import substrate_off
from repro.core.incremental import (
    SizeProfile,
    SystemProfile,
    compute_incremental_bounds,
)
from repro.core.measures import Counts
from repro.core.thresholds import ThresholdSchedule
from repro.evaluation import build_workload
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    HybridMatcher,
    ScoreMatrix,
    TopKCandidateMatcher,
)
from repro.util import rng as rng_util
from repro.util.text import jaro_winkler, levenshtein, ngram_similarity


def test_bench_levenshtein(benchmark):
    benchmark(levenshtein, "tracking-number", "traking_numbre")


def test_bench_jaro_winkler(benchmark):
    benchmark(jaro_winkler, "tracking-number", "traking_numbre")


def test_bench_ngram_similarity(benchmark):
    benchmark(ngram_similarity, "tracking-number", "traking_numbre")


def test_bench_name_similarity_memoised(benchmark, warmed_bundle):
    similarity = warmed_bundle.workload.objective.name_similarity

    def run_pairs():
        total = 0.0
        for a in ("author", "writer", "policyNumber", "qty"):
            for b in ("creator", "price", "policy_number", "quantity"):
                total += similarity.similarity(a, b)
        return total

    benchmark(run_pairs)


def test_bench_exhaustive_single_query(benchmark, warmed_bundle):
    workload = warmed_bundle.workload
    matcher = ExhaustiveMatcher(workload.objective)
    query = workload.suite.scenarios[0].query
    benchmark(matcher.match, query, workload.repository, 0.3)


def test_bench_beam_single_query(benchmark, warmed_bundle):
    workload = warmed_bundle.workload
    matcher = BeamMatcher(workload.objective, beam_width=40)
    query = workload.suite.scenarios[0].query
    benchmark(matcher.match, query, workload.repository, 0.3)


def test_bench_clustering_single_query(benchmark, warmed_bundle):
    workload = warmed_bundle.workload
    matcher = ClusteringMatcher(workload.objective, clusters_per_element=3)
    matcher.prepare(workload.repository)  # clustering cost paid once
    query = workload.suite.scenarios[0].query
    benchmark(matcher.match, query, workload.repository, 0.3)


def _synthetic_profiles(thresholds: int):
    generator = rng_util.make_tagged(rng_util.seed_from(17, thresholds))
    schedule = ThresholdSchedule.linear(0.01, 1.0, thresholds)
    answers = correct = improved = 0
    counts = []
    sizes = []
    for _ in range(thresholds):
        grow = generator.randint(1, 40)
        good = generator.randint(0, grow)
        answers += grow
        correct += good
        improved += generator.randint(0, grow)
        counts.append((answers, correct))
        sizes.append(improved)
    relevant = 2 * correct
    profile = SystemProfile(
        schedule, tuple(Counts(a, t, relevant) for a, t in counts)
    )
    return profile, SizeProfile(schedule, tuple(sizes))


def test_bench_incremental_bounds_1000_thresholds(benchmark):
    profile, sizes = _synthetic_profiles(1000)
    benchmark(compute_incremental_bounds, profile, sizes)


def test_bench_judging_profile(benchmark, warmed_bundle):
    workload = warmed_bundle.workload
    answers = warmed_bundle.original.answers
    truth = workload.suite.ground_truth.mappings
    benchmark(
        SystemProfile.from_answer_set, workload.schedule, answers, truth
    )


# -- similarity substrate ----------------------------------------------------

def test_bench_score_matrix_build(benchmark, warmed_bundle):
    """Cold matrix construction for one (query, schema) pair."""
    workload = warmed_bundle.workload
    query = workload.suite.scenarios[0].query
    schema = workload.repository.schemas()[0]
    benchmark(ScoreMatrix.build, workload.objective, query, schema)


def test_bench_substrate_matrix_cached(benchmark, warmed_bundle):
    """Warm matrix lookup — the per-search cost the substrate leaves."""
    workload = warmed_bundle.workload
    substrate = workload.objective.substrate()
    query = workload.suite.scenarios[0].query
    schema = workload.repository.schemas()[0]
    substrate.matrix(query, schema)  # ensure it is cached
    benchmark(substrate.matrix, query, schema)


def _sweep_matchers(objective):
    return [
        ExhaustiveMatcher(objective),
        BeamMatcher(objective, beam_width=8),
        ClusteringMatcher(objective, clusters_per_element=2),
        TopKCandidateMatcher(objective, candidates_per_element=4),
        HybridMatcher(objective, clusters_per_element=3, beam_width=8),
    ]


_SWEEP_THRESHOLDS = (0.1, 0.15, 0.2, 0.25, 0.3)


def _repository_sweep(workload):
    """Every matcher × threshold × query over the repository — the
    workload shape of ``compare`` runs and the figure experiments."""
    results = []
    for matcher in _sweep_matchers(workload.objective):
        for delta in _SWEEP_THRESHOLDS:
            for scenario in workload.suite.scenarios:
                results.append(
                    matcher.match(scenario.query, workload.repository, delta)
                )
    return results


def _canonical_sets(answer_sets) -> bytes:
    return repr(
        [
            [(answer.item.key, answer.score) for answer in a.answers()]
            for a in answer_sets
        ]
    ).encode()


def test_bench_repository_sweep_direct(benchmark, warmed_bundle):
    workload = warmed_bundle.workload

    def direct():
        with substrate_off():
            return _repository_sweep(workload)

    benchmark.pedantic(direct, rounds=2, iterations=1)


def test_bench_repository_sweep_substrate(benchmark, warmed_bundle):
    workload = warmed_bundle.workload
    benchmark.pedantic(
        _repository_sweep, args=(workload,), rounds=2, iterations=1
    )


def test_substrate_sweep_speedup_and_identical():
    """The acceptance check: ≥ 1.5× on the repository sweep, same bytes.

    A fresh full workload (fresh objective, cold substrate) so the
    comparison is honest: one warm-up sweep runs on the substrate-less
    direct path (the substrate oracle) to heat the name-similarity memo
    both paths share, then the direct path and the substrate path are
    timed on identical work.  Measured
    headroom is ~3× on a laptop-class core; 1.5 is the floor we assert.

    Byte-identity is always asserted; the wall-clock comparison is
    skipped when ``BENCH_TIMING_ASSERTS=0`` (set in CI, where shared
    runners make single-shot timing comparisons flaky).
    """
    workload = build_workload(None)
    with substrate_off():
        _repository_sweep(workload)  # warm the shared similarity memo

        started = perf_counter()
        direct = _repository_sweep(workload)
        direct_seconds = perf_counter() - started

    started = perf_counter()
    substrate = _repository_sweep(workload)
    substrate_seconds = perf_counter() - started

    assert _canonical_sets(direct) == _canonical_sets(substrate)
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        assert direct_seconds >= 1.5 * substrate_seconds, (
            f"substrate sweep ({substrate_seconds:.3f}s) is not ≥1.5× faster "
            f"than the direct sweep ({direct_seconds:.3f}s)"
        )
