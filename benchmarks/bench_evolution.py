"""Benchmarks of the repository-evolution subsystem.

The headline contract of incremental re-matching
(:mod:`repro.matching.evolution`): after a repository delta, the
re-match is **byte-identical** to a cold full re-match — always — and at
low churn it is much cheaper, because per-pair results (and whole
answer sets) are reused for untouched schemas and the static admissible
bound skips provably empty searches against new ones.
``test_evolution_incremental_speedup_and_identical`` asserts ≥ 2× over
cold re-match at ≤ 10 % churn (measured ~3×; byte-identity is asserted
unconditionally, the wall-clock half is skipped when
``BENCH_TIMING_ASSERTS=0`` — CI's setting, where shared runners make
single-shot timings flaky).

The micro benches time the delta primitives themselves (churn-delta
derivation + application), and the
``test_bench_rematch_*`` pair replays the contract's 5 %-churn stream
incrementally vs cold, so their relative means in
``BENCH_evolution.json`` track the same ≥2× contract across commits.
"""

import os
from time import perf_counter

from repro.evaluation import build_workload
from repro.matching import (
    EvolutionSession,
    ExhaustiveMatcher,
    MatchingPipeline,
    canonical_answers,
)
from repro.schema import churn_delta

_DELTA_MAX = 0.35
#: the benchmark churn point — 5 % of schemas touched per step, i.e. the
#: "≤ 10 % churn" regime where the incremental contract is asserted
_CHURN = 0.05


def _canonical(answer_sets) -> list:
    return canonical_answers(answer_sets)  # the one shared definition


# -- delta primitives --------------------------------------------------------

def test_bench_churn_delta_derivation(benchmark, warmed_bundle):
    repository = warmed_bundle.workload.repository
    benchmark(churn_delta, repository, _CHURN, 7)


def test_bench_delta_apply(benchmark, warmed_bundle):
    repository = warmed_bundle.workload.repository
    delta = churn_delta(repository, _CHURN, 7)
    benchmark(lambda: repository.apply(delta))


# -- incremental re-matching -------------------------------------------------

def _fresh_setup():
    """A fresh full workload with a cold objective/substrate."""
    workload = build_workload(None)
    queries = [scenario.query for scenario in workload.suite.scenarios]
    return workload, queries


_STREAM_STEPS = 6


def _stream_deltas(repository):
    """The benchmark churn stream: 6 deltas at 5 % over evolving versions."""
    deltas = []
    for step in range(_STREAM_STEPS):
        delta = churn_delta(repository, _CHURN, seed=step)
        repository, _ = repository.apply(delta)
        deltas.append(delta)
    return deltas


def test_bench_rematch_incremental(benchmark):
    """Replay the churn stream through an EvolutionSession (single-shot).

    Fresh universes per round (pedantic setup), because a delta arrives
    once in production: each step pays its own matrix builds for changed
    schemas, exactly like the cold counterpart below — the two means'
    ratio in ``BENCH_evolution.json`` is the incremental contract.
    """

    def setup():
        workload, queries = _fresh_setup()
        session = EvolutionSession(
            ExhaustiveMatcher(workload.objective), queries, _DELTA_MAX,
        )
        session.match(workload.repository)
        return (session, _stream_deltas(workload.repository)), {}

    def replay(session, deltas):
        for delta in deltas:
            session.apply(delta)

    benchmark.pedantic(replay, setup=setup, rounds=2, iterations=1)


def test_bench_rematch_cold(benchmark):
    """The same churn stream, re-matched cold at every step."""

    def setup():
        workload, queries = _fresh_setup()
        pipeline = MatchingPipeline(
            ExhaustiveMatcher(workload.objective)
        )
        pipeline.run(queries, workload.repository, _DELTA_MAX)
        versions = []
        repository = workload.repository
        for delta in _stream_deltas(workload.repository):
            repository, _ = repository.apply(delta)
            versions.append(repository)
        return (pipeline, queries, versions), {}

    def replay(pipeline, queries, versions):
        for repository in versions:
            pipeline.run(queries, repository, _DELTA_MAX)

    benchmark.pedantic(replay, setup=setup, rounds=2, iterations=1)


def _stream_trial(churn: float, steps: int, delta_max: float):
    """One full replay: two content-identical universes, one churn stream.

    Universe A replays the stream through an :class:`EvolutionSession`
    (incremental); universe B re-runs a cold pipeline on every evolved
    version.  Separate workloads (hence separate objectives/substrates)
    keep the comparison honest: each universe pays its own score-matrix
    builds for delta-changed schemas, and both are substrate-warm from
    their own baseline.  Byte-identity is asserted per step;
    returns the two aggregate wall-clock totals.
    """
    workload_a, queries_a = _fresh_setup()
    session = EvolutionSession(
        ExhaustiveMatcher(workload_a.objective), queries_a, delta_max,
    )
    session.match(workload_a.repository)
    workload_b, queries_b = _fresh_setup()
    cold_pipeline = MatchingPipeline(
        ExhaustiveMatcher(workload_b.objective)
    )
    cold_pipeline.run(queries_b, workload_b.repository, delta_max)
    repository_b = workload_b.repository

    incremental_seconds = cold_seconds = 0.0
    reused = recomputed = 0
    for step in range(steps):
        delta = churn_delta(session.repository, churn, seed=step)
        started = perf_counter()
        result, _report = session.apply(delta)
        incremental_seconds += perf_counter() - started
        assert result.rematch is not None and not result.rematch.full_recompute
        reused += result.rematch.pairs_reused
        recomputed += result.rematch.pairs_recomputed

        repository_b, _ = repository_b.apply(delta)
        started = perf_counter()
        cold = cold_pipeline.run(queries_b, repository_b, delta_max)
        cold_seconds += perf_counter() - started

        assert _canonical(result.answer_sets) == _canonical(cold.answer_sets), (
            f"step {step}: incremental answers differ from cold re-match"
        )
    assert reused > recomputed  # at low churn, reuse must dominate
    return incremental_seconds, cold_seconds


def test_evolution_incremental_speedup_and_identical():
    """The acceptance check: byte-identity always, ≥ 2× at ≤ 10 % churn.

    A six-step churn stream at 5 % (≤ 10 %) over the full default
    workload, at δ = 0.35 where the per-schema search — the paper's cost
    driver — dominates.  The whole trial runs twice and each side takes
    its best total (standard noise reduction for single-shot wall
    clocks); measured headroom is ~3× on a quiet core, 2 is the floor we
    assert.  Byte-identity is asserted per step in every round,
    unconditionally; the wall-clock comparison is skipped when
    ``BENCH_TIMING_ASSERTS=0`` (set in CI, where shared runners make
    single-shot timing comparisons flaky).
    """
    trials = [_stream_trial(churn=0.05, steps=6, delta_max=0.35)
              for _ in range(2)]
    incremental_seconds = min(trial[0] for trial in trials)
    cold_seconds = min(trial[1] for trial in trials)
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        assert cold_seconds >= 2.0 * incremental_seconds, (
            f"incremental re-match ({incremental_seconds:.3f}s over 6 steps) "
            f"is not ≥2x faster than cold re-match ({cold_seconds:.3f}s) "
            "at 5% churn"
        )
