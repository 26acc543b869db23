"""Benchmarks of the serving layer: warm-start vs cold-start.

The snapshot store's reason to exist: a restarted process should come
back in **O(load)** — parse the persisted repository, adopt the
substrate, reassemble retained answer sets — instead of **O(rematch)**
— re-prepare the substrate and re-run every retained query against the
whole repository.  ``test_serving_warm_start_speedup_and_identical``
asserts the warm path is ≥ 3× faster than the cold path on the standard
(full default workload) repository sweep, with byte-identical answer
sets; as everywhere, byte-identity is asserted unconditionally and the
wall-clock half is skipped when ``BENCH_TIMING_ASSERTS=0`` (CI).

A snapshot holds the cost kernel, not the score matrices gathered from
it, so after every timed warm load the restored process re-runs the
retained sweep (untimed) and asserts, unconditionally, that its answers
are byte-identical and that the restored kernel scored no row
(``rows_built == 0``): every matrix is a gather again.

The ``test_bench_*`` trio feeds ``BENCH_serving.json``:
``test_bench_warm_start`` / ``test_bench_cold_start`` time the two
restart paths (their means' ratio tracks the ≥ 3× contract across
commits), and ``test_bench_snapshot_write`` times producing a snapshot
from live state (the checkpointing cost a serving process pays) and
records the substrate section's size as ``extra_info["substrate_bytes"]``.
"""

import os
from time import perf_counter

import pytest

from repro.evaluation import build_workload
from repro.matching import (
    ExhaustiveMatcher,
    MatchingPipeline,
    canonical_answers,
    load_snapshot,
    save_snapshot,
)

_DELTA_MAX = 0.35


def _canonical(answer_sets) -> list:
    return canonical_answers(answer_sets)  # the one shared definition


def _fresh_setup():
    """A fresh full workload: the state a restarted process begins from."""
    workload = build_workload(None)
    queries = [scenario.query for scenario in workload.suite.scenarios]
    return workload, queries


def _write_snapshot(root):
    """Run the standard sweep once and persist it; returns expected answers."""
    workload, queries = _fresh_setup()
    matcher = ExhaustiveMatcher(workload.objective)
    result = MatchingPipeline(matcher).run(
        queries, workload.repository, _DELTA_MAX
    )
    save_snapshot(
        root,
        workload.repository,
        queries=queries,
        result=result,
        substrate=workload.objective.substrate(),
    )
    return _canonical(result.answer_sets)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("serving") / "snap"
    expected = _write_snapshot(root)
    return root, expected


def _warm_start(root, workload):
    """The warm restart path: load + verify + reassemble, no matching."""
    matcher = ExhaustiveMatcher(workload.objective)
    snapshot = load_snapshot(root, matcher)
    assert snapshot.result is not None
    return snapshot.result.answer_sets


def _check_warm_sweep(workload, queries, expected):
    """Re-run the retained sweep on a warm-loaded process (untimed).

    The snapshot held only the kernel, so the sweep gathers every score
    matrix again; it must answer byte-identically and score no kernel
    row.
    """
    matcher = ExhaustiveMatcher(workload.objective)
    result = MatchingPipeline(matcher).run(
        queries, workload.repository, _DELTA_MAX
    )
    assert _canonical(result.answer_sets) == expected
    assert workload.objective.substrate().kernel().rows_built == 0


def _cold_start(workload, queries):
    """The cold restart path: prepare + full repository sweep."""
    matcher = ExhaustiveMatcher(workload.objective)
    result = MatchingPipeline(matcher).run(
        queries, workload.repository, _DELTA_MAX
    )
    return result.answer_sets


def test_bench_warm_start(benchmark, snapshot):
    root, expected = snapshot

    def setup():
        return (_fresh_setup(),), {}

    def warm(fresh):
        workload, queries = fresh
        matcher = ExhaustiveMatcher(workload.objective)
        loaded = load_snapshot(root, matcher)
        assert _canonical(loaded.result.answer_sets) == expected
        return workload, queries

    workload, queries = benchmark.pedantic(
        warm, setup=setup, rounds=3, iterations=1
    )
    _check_warm_sweep(workload, queries, expected)


def test_bench_cold_start(benchmark, snapshot):
    _root, expected = snapshot

    def setup():
        return (_fresh_setup(),), {}

    def cold(fresh):
        workload, queries = fresh
        matcher = ExhaustiveMatcher(workload.objective)
        result = MatchingPipeline(matcher).run(
            queries, workload.repository, _DELTA_MAX
        )
        assert _canonical(result.answer_sets) == expected
        return result

    benchmark.pedantic(cold, setup=setup, rounds=2, iterations=1)


def test_bench_snapshot_write(benchmark, tmp_path):
    """Checkpointing cost: serialize live state to a snapshot directory.

    The substrate section's size rides along in ``extra_info``, so
    ``BENCH_serving.json`` tracks what a checkpoint writes, too.
    """
    workload, queries = _fresh_setup()
    matcher = ExhaustiveMatcher(workload.objective)
    result = MatchingPipeline(matcher).run(
        queries, workload.repository, _DELTA_MAX
    )
    store = benchmark(
        save_snapshot,
        tmp_path / "snap",
        workload.repository,
        queries=queries,
        result=result,
        substrate=workload.objective.substrate(),
    )
    section = store.manifest()["substrate_section"]
    benchmark.extra_info["substrate_bytes"] = (
        (store.root / section).stat().st_size
    )


def test_serving_warm_start_speedup_and_identical(snapshot):
    """The acceptance check: byte-identity always, warm ≥ 3× over cold.

    Both sides simulate a restarted process on the standard repository
    sweep (full default workload at δ = 0.35): each builds its own fresh
    objective/substrate, then either loads the snapshot (warm) or
    re-matches everything (cold).  Two trials per side, best total taken
    (standard single-shot noise reduction); measured headroom is well
    above 10×, 3 is the floor we assert.  Byte-identity of the restored
    answer sets against both the snapshot's recorded answers and the
    cold re-match runs unconditionally; the wall-clock comparison is
    skipped when ``BENCH_TIMING_ASSERTS=0`` (CI's setting).
    """
    root, expected = snapshot
    warm_seconds = []
    cold_seconds = []
    for _trial in range(2):
        # workload construction (the process's own configuration) is
        # excluded from both windows: only the restart work is timed
        warm_workload, warm_queries = _fresh_setup()
        started = perf_counter()
        warm_answers = _warm_start(root, warm_workload)
        warm_seconds.append(perf_counter() - started)
        _check_warm_sweep(warm_workload, warm_queries, expected)
        cold_workload, cold_queries = _fresh_setup()
        started = perf_counter()
        cold_answers = _cold_start(cold_workload, cold_queries)
        cold_seconds.append(perf_counter() - started)
        assert _canonical(warm_answers) == expected
        assert _canonical(cold_answers) == expected
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        warm = min(warm_seconds)
        cold = min(cold_seconds)
        assert cold >= 3.0 * warm, (
            f"warm start ({warm:.3f}s) is not ≥3x faster than cold start "
            f"({cold:.3f}s) on the standard repository sweep"
        )
