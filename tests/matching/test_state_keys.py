"""Worker state is keyed on the class that runs, not on its name alone.

``matcher_fingerprint`` keys a warm pool's installed state, a socket
worker's reuse (``installs_reused``), a snapshot's retained results and
``rematch``'s baseline check.  ``Matcher.describe()`` names the system
and its parameters; a subclass that keeps its parent's ``name`` used to
share every one of those keys, so a pool warmed by one class answered
for the other: a matcher that finds nothing ran first, and a plain
exhaustive matcher on the same objective then returned [0, 0, 0]
answers where serial returns [59, 416, 9].
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SnapshotError
from repro.evaluation import build_workload
from repro.evaluation.workloads import WorkloadConfig
from repro.matching import (
    ExhaustiveMatcher,
    MatchingPipeline,
    RemoteShardExecutor,
    WorkerServer,
    load_snapshot,
    save_snapshot,
)
from repro.matching.executor import matcher_fingerprint, shutdown_workers

DELTA = 0.3


class FindsNothing(ExhaustiveMatcher):
    """An exhaustive matcher in name only: every search comes back empty."""

    def _match_schema(self, query, schema, delta_max):
        return iter(())


@pytest.fixture(scope="module")
def workload():
    return build_workload(WorkloadConfig())


@pytest.fixture(scope="module")
def queries(workload):
    return [scenario.query for scenario in workload.suite.scenarios][:3]


@pytest.fixture(scope="module")
def serial_sizes(workload, queries):
    answers = ExhaustiveMatcher(workload.objective).batch_match(
        queries, workload.repository, DELTA, workers=1
    )
    return [len(a) for a in answers]


def test_fingerprint_names_the_class(workload):
    plain = ExhaustiveMatcher(workload.objective)
    lookalike = FindsNothing(workload.objective)
    assert plain.describe() == lookalike.describe()
    assert matcher_fingerprint(plain) != matcher_fingerprint(lookalike)
    assert "test_state_keys:FindsNothing" in matcher_fingerprint(lookalike)


def test_warm_pool_does_not_answer_for_another_class(
    workload, queries, serial_sizes
):
    shutdown_workers()
    try:
        FindsNothing(workload.objective).batch_match(
            queries, workload.repository, DELTA, workers=2
        )
        answers = ExhaustiveMatcher(workload.objective).batch_match(
            queries, workload.repository, DELTA, workers=2
        )
    finally:
        shutdown_workers()
    assert serial_sizes == [59, 416, 9]
    assert [len(a) for a in answers] == serial_sizes


@pytest.mark.network
def test_socket_workers_do_not_answer_for_another_class(
    workload, queries, serial_sizes
):
    workers = [WorkerServer().start() for _ in range(2)]
    executor = RemoteShardExecutor([w.address for w in workers])
    try:
        FindsNothing(workload.objective).batch_match(
            queries, workload.repository, DELTA, shards=2, executor=executor
        )
        answers = ExhaustiveMatcher(workload.objective).batch_match(
            queries, workload.repository, DELTA, shards=2, executor=executor
        )
    finally:
        executor.shutdown()
        for worker in workers:
            worker.stop()
    assert [len(a) for a in answers] == serial_sizes
    assert sum(w.stats.installs_reused for w in workers) == 0


def test_snapshot_keyed_without_the_class_is_refused(
    workload, queries, tmp_path
):
    """A snapshot written under the class-less key must not warm-start."""
    matcher = ExhaustiveMatcher(workload.objective)
    result = MatchingPipeline(matcher).run(queries, workload.repository, DELTA)
    classless = repr(
        sorted((key, repr(value)) for key, value in matcher.describe().items())
    )
    save_snapshot(
        tmp_path / "snap",
        workload.repository,
        queries=queries,
        result=dataclasses.replace(result, matcher_key=classless),
    )
    with pytest.raises(SnapshotError, match="differently configured"):
        load_snapshot(tmp_path / "snap", ExhaustiveMatcher(workload.objective))
