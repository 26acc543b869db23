"""Tests of the sharded matching pipeline.

The decisive invariants: sharded/parallel output is identical to serial
``Matcher.match`` output for every matcher, every (query, schema) pair
is searched exactly once, and sharding partitions the repository
exactly.
"""

import pytest

from repro.errors import MatchingError
from repro.evaluation.validation import run_system
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    MatchingPipeline,
    ProcessPoolShardExecutor,
    SerialExecutor,
    TopKCandidateMatcher,
    replica_group,
    shard_repository,
)
from repro.matching import batch_match as registry_batch_match
from repro.matching.executor import (
    ExecutionState,
    WorkUnit,
    executor_for,
    matcher_fingerprint,
    shutdown_workers,
)
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.model import Datatype, Schema, SchemaElement
from repro.schema.mutations import extract_personal_schema
from repro.schema.vocabulary import builtin_domains
from repro.util import rng

DELTA = 0.3


@pytest.fixture(scope="module")
def setup():
    repo = generate_repository(
        GeneratorConfig(num_schemas=6, min_size=6, max_size=12, seed=11)
    )
    thesaurus = Thesaurus.from_vocabularies(
        builtin_domains().values(), coverage=0.7, seed=5
    )
    objective = ObjectiveFunction(NameSimilarity(thesaurus))
    queries = [
        extract_personal_schema(
            rng.make_tagged(40 + i),
            repo.schemas()[i],
            None,
            target_size=3,
            schema_id=f"pq-{i}",
        )
        for i in range(3)
    ]
    return repo, objective, queries


def flatten(answer_set):
    return [(a.item, a.score) for a in answer_set.answers()]


class _RecordingExecutor(SerialExecutor):
    """The serial transport, recording every unit handed to it."""

    def __init__(self):
        self.units = []

    def execute(self, state, units, delta_max):
        self.units.extend(units)
        return super().execute(state, units, delta_max)


class _ExplodingMatcher(ExhaustiveMatcher):
    """Raises on every pair search; module-level so workers can unpickle it."""

    def match_pair(self, query, schema, delta_max):
        raise ValueError("injected worker failure")


MATCHERS = [
    ("exhaustive", lambda obj: ExhaustiveMatcher(obj)),
    ("beam", lambda obj: BeamMatcher(obj, beam_width=5)),
    ("clustering", lambda obj: ClusteringMatcher(obj, clusters_per_element=2)),
    ("topk", lambda obj: TopKCandidateMatcher(obj, candidates_per_element=4)),
]


class TestShardRepository:
    def test_exact_partition(self, setup):
        repo, _, _ = setup
        for num_shards in (1, 2, 3, len(repo), len(repo) + 5):
            shards = shard_repository(repo, num_shards)
            ids = [s.schema_id for shard in shards for s in shard]
            assert sorted(ids) == sorted(s.schema_id for s in repo)
            assert len(ids) == len(set(ids))
            assert len(shards) == min(num_shards, len(repo))

    def test_round_robin_is_deterministic(self, setup):
        repo, _, _ = setup
        first = shard_repository(repo, 3)
        second = shard_repository(repo, 3)
        assert [s.schema_id for shard in first for s in shard] == [
            s.schema_id for shard in second for s in shard
        ]

    def test_balanced_sizes(self, setup):
        repo, _, _ = setup
        sizes = [len(shard) for shard in shard_repository(repo, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_shard_count(self, setup):
        repo, _, _ = setup
        with pytest.raises(MatchingError):
            shard_repository(repo, 0)


class TestSerialPipeline:
    @pytest.mark.parametrize("name,factory", MATCHERS)
    def test_identical_to_per_query_match(self, setup, name, factory):
        repo, objective, queries = setup
        serial = [
            factory(objective).match(query, repo, DELTA) for query in queries
        ]
        batched = factory(objective).batch_match(
            queries, repo, DELTA, workers=1, shards=3
        )
        assert [flatten(a) for a in serial] == [flatten(a) for a in batched]

    def test_stream_covers_every_unit(self, setup):
        """The executor's unit stream covers each (query, shard) once."""
        repo, objective, queries = setup
        spy = _RecordingExecutor()
        pipeline = MatchingPipeline(
            ExhaustiveMatcher(objective), shards=2, executor=spy
        )
        result = pipeline.run(queries, repo, DELTA)
        units = {(unit.query_index, unit.shard_index) for unit in spy.units}
        assert units == {(q, s) for q in range(len(queries)) for s in range(2)}
        assert len(spy.units) == len(units)
        schema_ids = [s.schema_id for s in repo]
        assert [sorted(by_schema) for by_schema in result.pair_results] == [
            sorted(schema_ids) for _ in queries
        ]
        assert result.stats.shards == 2
        assert result.stats.pairs_total == len(queries) * len(repo)

    def test_empty_queries(self, setup):
        repo, objective, _ = setup
        assert (
            ExhaustiveMatcher(objective).batch_match([], repo, DELTA, workers=1)
            == []
        )

    def test_negative_delta_rejected(self, setup):
        repo, objective, queries = setup
        with pytest.raises(MatchingError):
            ExhaustiveMatcher(objective).batch_match(
                queries, repo, -0.1, workers=1
            )

    def test_registry_batch_match(self, setup):
        repo, objective, queries = setup
        by_name = registry_batch_match(
            "beam",
            objective,
            queries,
            repo,
            DELTA,
            params={"beam_width": 5},
            workers=1,
        )
        direct = BeamMatcher(objective, beam_width=5).batch_match(
            queries, repo, DELTA, workers=1
        )
        assert [flatten(a) for a in by_name] == [flatten(a) for a in direct]


class TestShardedPipeline:
    @pytest.mark.parametrize(
        "name,factory",
        [MATCHERS[0], MATCHERS[2]],  # exhaustive + the repo-global clustering
    )
    def test_workers_identical_to_serial(self, setup, name, factory):
        repo, objective, queries = setup
        serial = factory(objective).batch_match(
            queries, repo, DELTA, workers=1, shards=1
        )
        sharded = factory(objective).batch_match(
            queries, repo, DELTA, workers=2, shards=3
        )
        assert [flatten(a) for a in serial] == [flatten(a) for a in sharded]


class TestExecutionValue:
    """Where units run is a value the caller passes, never a process
    default: serial unless given, one shard per unit of width."""

    def test_default_is_serial_with_one_shard(self, setup):
        repo, objective, queries = setup
        pipeline = MatchingPipeline(ExhaustiveMatcher(objective))
        assert isinstance(pipeline.executor, SerialExecutor)
        result = pipeline.run(queries, repo, DELTA)
        assert (result.stats.width, result.stats.shards) == (1, 1)

    def test_shards_follow_the_width_at_every_run(self, setup):
        repo, objective, queries = setup
        spy = _RecordingExecutor()
        pipeline = MatchingPipeline(ExhaustiveMatcher(objective), executor=spy)
        spy.width = 3
        assert pipeline.run(queries, repo, DELTA).stats.shards == 3
        spy.width = 2
        assert pipeline.run(queries, repo, DELTA).stats.shards == 2
        assert {unit.shard_index for unit in spy.units} == {0, 1, 2}

    def test_pool_cuts_one_shard_per_worker(self, setup):
        repo, objective, queries = setup
        executor = ProcessPoolShardExecutor(3)
        try:
            result = MatchingPipeline(
                ExhaustiveMatcher(objective), executor=executor
            ).run(queries, repo, DELTA)
        finally:
            shutdown_workers()
        assert executor.width == 3
        assert (result.stats.width, result.stats.shards) == (3, 3)
        serial = ExhaustiveMatcher(objective).batch_match(queries, repo, DELTA)
        assert [flatten(a) for a in result.answer_sets] == [
            flatten(a) for a in serial
        ]

    def test_workers_resolve_in_one_place(self, setup):
        repo, objective, queries = setup
        assert executor_for(None) is None
        given = SerialExecutor()
        assert executor_for(None, given) is given
        assert isinstance(executor_for(1), SerialExecutor)
        pool = executor_for(2)
        assert isinstance(pool, ProcessPoolShardExecutor)
        assert pool.width == 2
        with pytest.raises(MatchingError, match="workers must be >= 1"):
            executor_for(0)
        with pytest.raises(MatchingError, match="not both"):
            executor_for(2, given)
        with pytest.raises(MatchingError, match="not both"):
            ExhaustiveMatcher(objective).batch_match(
                queries, repo, DELTA, workers=1, executor=given
            )

    def test_invalid_shards_refused(self, setup):
        _, objective, _ = setup
        with pytest.raises(MatchingError, match="shards must be >= 1"):
            MatchingPipeline(ExhaustiveMatcher(objective), shards=0)


class TestRepositoryContentChanges:
    def test_stale_clustering_state_cannot_poison_shared_cache(self, setup):
        """Same repository_id, different content: prepare must re-run.

        The synthetic generator reuses one repository_id across seeds; a
        matcher prepared on one seed's content and reused on another
        must recluster, or it would return the old content's answers —
        and a fresh matcher on the same objective (whose similarity
        substrate both share) must still answer for the new content.
        """
        _, objective, _ = setup
        repo_a = generate_repository(
            GeneratorConfig(num_schemas=4, min_size=6, max_size=10, seed=1)
        )
        repo_b = generate_repository(
            GeneratorConfig(num_schemas=4, min_size=6, max_size=10, seed=2)
        )
        assert repo_a.repository_id == repo_b.repository_id
        assert repo_a.content_digest() != repo_b.content_digest()
        query = extract_personal_schema(
            rng.make_tagged(7),
            repo_b.schemas()[0],
            None,
            target_size=3,
            schema_id="poison-query",
        )
        expected = ClusteringMatcher(objective, clusters_per_element=2).match(
            query, repo_b, DELTA
        )

        stale = ClusteringMatcher(objective, clusters_per_element=2)
        stale.prepare(repo_a)  # now holds repo_a's clusters
        via_stale = stale.batch_match([query], repo_b, DELTA, workers=1)[0]
        assert flatten(via_stale) == flatten(expected)

        fresh = ClusteringMatcher(objective, clusters_per_element=2)
        via_fresh = fresh.batch_match([query], repo_b, DELTA, workers=1)[0]
        assert flatten(via_fresh) == flatten(expected)


def _tiny_schema(child_name: str = "author", concept: str | None = None):
    root = SchemaElement("book", Datatype.COMPLEX)
    root.add_child(SchemaElement(child_name, Datatype.STRING, concept=concept))
    return Schema("tiny", root)


class TestFingerprints:
    def test_schema_digest_ignores_concepts(self):
        assert (
            _tiny_schema(concept=None).content_digest()
            == _tiny_schema(concept="bib:author").content_digest()
        )

    def test_schema_digest_sees_names(self):
        assert (
            _tiny_schema("author").content_digest()
            != _tiny_schema("title").content_digest()
        )

    def test_matcher_fingerprint_separates_configurations(self, setup):
        _, objective, _ = setup
        assert matcher_fingerprint(
            BeamMatcher(objective, beam_width=2)
        ) != matcher_fingerprint(BeamMatcher(objective, beam_width=3))
        assert matcher_fingerprint(
            ExhaustiveMatcher(objective)
        ) != matcher_fingerprint(BeamMatcher(objective, beam_width=2))


class TestWorkerPoolReuse:
    """Worker state is installed one-shot per process and reused.

    Successive parallel runs with the same matcher/repository/query
    identity must keep the same live pool (nothing re-pickled, no
    process respawn); changing the repository must rotate it.
    """

    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        shutdown_workers()
        yield
        shutdown_workers()

    def test_pool_survives_repeated_runs(self, setup):
        from repro.matching import executor as executor_module

        repo, objective, queries = setup
        matcher = ExhaustiveMatcher(objective)
        runner = MatchingPipeline(
            matcher, executor=ProcessPoolShardExecutor(2)
        )
        first = runner.run(queries, repo, DELTA)
        pool = executor_module._POOL
        assert pool is not None
        second = runner.run(queries, repo, DELTA)
        assert executor_module._POOL is pool  # same executor, no respawn
        assert [flatten(a) for a in first.answer_sets] == [
            flatten(a) for a in second.answer_sets
        ]

    def test_pool_survives_threshold_sweep(self, setup):
        from repro.matching import executor as executor_module

        repo, objective, queries = setup
        matcher = ExhaustiveMatcher(objective)
        runner = MatchingPipeline(
            matcher, executor=ProcessPoolShardExecutor(2)
        )
        runner.run(queries, repo, 0.15)
        pool = executor_module._POOL
        runner.run(queries, repo, DELTA)  # only the threshold changed
        assert executor_module._POOL is pool

    def test_pool_rotates_when_repository_changes(self, setup):
        from repro.matching import executor as executor_module

        repo, objective, queries = setup
        other = generate_repository(
            GeneratorConfig(num_schemas=4, min_size=6, max_size=10, seed=99)
        )
        matcher = ExhaustiveMatcher(objective)
        runner = MatchingPipeline(
            matcher, executor=ProcessPoolShardExecutor(2)
        )
        runner.run(queries, repo, DELTA)
        pool = executor_module._POOL
        runner.run(queries, other, DELTA)
        assert executor_module._POOL is not pool

    def test_parallel_output_identical_across_pool_reuse(self, setup):
        repo, objective, queries = setup
        matcher = BeamMatcher(objective, beam_width=4)
        serial = matcher.batch_match(
            queries, repo, DELTA, workers=1
        )
        parallel_first = matcher.batch_match(
            queries, repo, DELTA, workers=2
        )
        parallel_again = matcher.batch_match(
            queries, repo, DELTA, workers=2
        )
        for a, b, c in zip(serial, parallel_first, parallel_again):
            assert flatten(a) == flatten(b) == flatten(c)

    def test_shutdown_workers_is_idempotent(self):
        shutdown_workers()
        shutdown_workers()

    def test_worker_exception_mid_sweep_retires_pool(self, setup):
        # A unit raising inside a worker must not leave the shared pool
        # alive with orphaned busy processes (leaks across tests as CI
        # slowdown): the executor cancels outstanding futures and shuts
        # the pool down before re-raising.
        from repro.matching import executor as executor_module

        repo, objective, queries = setup
        runner = MatchingPipeline(
            _ExplodingMatcher(objective), executor=ProcessPoolShardExecutor(2)
        )
        with pytest.raises(ValueError, match="injected worker failure"):
            runner.run(queries, repo, DELTA)
        assert executor_module._POOL is None

    def test_abandoned_stream_keeps_pool_warm(self, setup):
        # Abandoning the pool's result stream (GeneratorExit) is not a
        # failure: pending units are cancelled but the warm pool stays
        # for the next run.
        from repro.matching import executor as executor_module

        repo, objective, queries = setup
        matcher = ExhaustiveMatcher(objective)
        matcher.prepare(repo)
        state = ExecutionState.build(matcher, queries, repo)
        schema_ids = tuple(schema.schema_id for schema in repo)
        units = [WorkUnit(index, 0, schema_ids) for index in range(len(queries))]
        stream = ProcessPoolShardExecutor(2).execute(state, units, DELTA)
        next(stream)
        stream.close()
        assert executor_module._POOL is not None


class TestRetiredCacheArgument:
    """Three entry points still take ``cache``, but only switched off."""

    @pytest.mark.parametrize("value", [None, False, True])
    def test_only_off_values_accepted(self, setup, small_workload, value):
        repo, objective, queries = setup
        workload = small_workload
        calls = (
            lambda: ExhaustiveMatcher(objective).batch_match(
                queries, repo, DELTA, cache=value
            ),
            lambda: run_system(
                ExhaustiveMatcher(workload.objective),
                workload.suite,
                workload.schedule,
                cache=value,
            ),
            lambda: replica_group(
                "exhaustive", workload.objective, 1, DELTA, cache=value
            ),
        )
        for call in calls:
            if value is True:
                with pytest.raises(MatchingError, match="cache was removed"):
                    call()
            else:
                call()
