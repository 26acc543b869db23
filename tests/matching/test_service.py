"""The async matching service: scheduling on top, byte-identity throughout.

The acceptance property: for **all five matchers**, every answer the
service returns — micro-batched, coalesced, served from retained state,
before and after live repository deltas, warm-started from a snapshot —
is byte-identical to the offline ``batch_match``/``batch_rematch``
path.  Plus the lifecycle contract: a present-but-bad snapshot fails
loudly at ``start()``; the service never silently cold-starts over
wrong state.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError, SnapshotError
from repro.evaluation import build_workload, small_config
from repro.matching import (
    EvolutionSession,
    ExhaustiveMatcher,
    MatchingService,
    make_matcher,
    matching_service,
)
from repro.schema import churn_delta

_MATCHERS = [
    ("exhaustive", {}),
    ("beam", {"beam_width": 4}),
    ("clustering", {"clusters_per_element": 2}),
    ("topk", {"candidates_per_element": 3}),
    ("hybrid", {"clusters_per_element": 2, "beam_width": 4}),
]


@pytest.fixture(scope="module")
def workload():
    return build_workload(small_config())


@pytest.fixture(scope="module")
def queries(workload):
    return [scenario.query for scenario in workload.suite.scenarios]


def _canonical(answer_sets) -> bytes:
    return repr(
        [
            [(answer.item.key, answer.score) for answer in answers.answers()]
            for answers in answer_sets
        ]
    ).encode()


def _run(coroutine):
    return asyncio.run(coroutine)


async def _serve_all(service, queries):
    return list(await asyncio.gather(*[service.match(q) for q in queries]))


class TestByteIdentityProperty:
    @pytest.mark.parametrize("name,params", _MATCHERS)
    def test_service_equals_offline_with_live_deltas(
        self, workload, queries, name, params
    ):
        """The acceptance property, per matcher: serve, evolve, serve."""
        matcher = make_matcher(name, workload.objective, **params)

        async def scenario():
            service = MatchingService(matcher, 0.3)
            await service.start(workload.repository)
            waves = [await _serve_all(service, queries)]
            repositories = [service.repository]
            for step in range(2):
                delta = churn_delta(service.repository, churn=0.25, seed=step)
                await service.apply_delta(delta)
                waves.append(await _serve_all(service, queries))
                repositories.append(service.repository)
            await service.stop()
            return waves, repositories

        waves, repositories = _run(scenario())
        for wave, repository in zip(waves, repositories):
            offline = matcher.batch_match(queries, repository, 0.3)
            assert _canonical(wave) == _canonical(offline), name

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        churn=st.sampled_from((0.1, 0.3, 0.6)),
        delta_max=st.sampled_from((0.1, 0.3)),
    )
    def test_identity_property(self, seed, churn, delta_max):
        workload = build_workload(small_config())
        queries = [s.query for s in workload.suite.scenarios]
        matcher = make_matcher(
            "topk", workload.objective, candidates_per_element=3
        )

        async def scenario():
            service = MatchingService(matcher, delta_max)
            await service.start(workload.repository)
            await _serve_all(service, queries)  # retain the baseline
            await service.apply_delta(
                churn_delta(workload.repository, churn=churn, seed=seed)
            )
            answers = await _serve_all(service, queries)
            repository = service.repository
            await service.stop()
            return answers, repository

        answers, repository = _run(scenario())
        offline = matcher.batch_match(
            queries, repository, delta_max
        )
        assert _canonical(answers) == _canonical(offline)


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(
                matcher, 0.3, max_batch=2
            )
            await service.start(workload.repository)
            # every query requested twice, concurrently
            answers = await asyncio.gather(
                *[service.match(q) for q in queries for _ in range(2)]
            )
            stats = service.stats
            await service.stop()
            return list(answers), stats

        answers, stats = _run(scenario())
        offline = matcher.batch_match(queries, workload.repository, 0.3)
        expected = [answers_ for answers_ in offline for _ in range(2)]
        assert _canonical(answers) == _canonical(expected)
        assert stats.requests == 2 * len(queries)
        # duplicates never matched twice: coalesced into the in-flight
        # computation or served from retained state
        assert stats.batched_queries == len(queries)
        assert stats.coalesced + stats.served_from_state == len(queries)
        # max_batch=2 forces multiple micro-batches
        assert stats.batches >= 2
        assert stats.max_batched <= 2

    def test_repeats_are_served_from_state(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(matcher, 0.3)
            await service.start(workload.repository)
            first = await _serve_all(service, queries)
            second = await _serve_all(service, queries)
            stats = service.stats
            retained = service.retained_queries
            await service.stop()
            return first, second, stats, retained

        first, second, stats, retained = _run(scenario())
        assert _canonical(first) == _canonical(second)
        assert stats.served_from_state == len(queries)
        assert stats.batched_queries == len(queries)
        assert [q.content_digest() for q in retained] == [
            q.content_digest() for q in queries
        ]

    def test_coalescing_window(self, workload, queries):
        """A non-zero max_delay still answers correctly (and batches)."""
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(
                matcher, 0.3, max_delay=0.005, max_batch=64
            )
            await service.start(workload.repository)
            answers = await _serve_all(service, queries)
            stats = service.stats
            await service.stop()
            return answers, stats

        answers, stats = _run(scenario())
        offline = matcher.batch_match(queries, workload.repository, 0.3)
        assert _canonical(answers) == _canonical(offline)
        assert stats.batches == 1  # the window gathered them all


class TestSnapshotLifecycle:
    def _snapshot(self, tmp_path, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(
                matcher, 0.3, store=tmp_path / "snap"
            )
            await service.start(workload.repository)
            answers = await _serve_all(service, queries)
            await service.checkpoint()
            await service.stop()
            return answers

        return _run(scenario())

    def test_warm_start_serves_identically_without_matching(
        self, tmp_path, workload, queries
    ):
        baseline = self._snapshot(tmp_path, workload, queries)
        fresh = build_workload(small_config())  # the "restarted process"
        matcher = ExhaustiveMatcher(fresh.objective)
        fresh_queries = [s.query for s in fresh.suite.scenarios]

        async def scenario():
            service = MatchingService(
                matcher, 0.3, store=tmp_path / "snap"
            )
            await service.start()  # no repository: from snapshot alone
            answers = await _serve_all(service, fresh_queries)
            stats = service.stats
            kernel = fresh.objective.substrate().kernel()
            await service.stop()
            return answers, stats, kernel

        answers, stats, kernel = _run(scenario())
        assert stats.warm_start
        assert kernel.rows_migrated > 0  # the saved rows were adopted
        assert stats.served_from_state == len(queries)  # zero searches ran
        assert stats.batched_queries == 0
        assert kernel.rows_built == 0
        assert _canonical(answers) == _canonical(baseline)

    def test_checkpoint_every_writes_snapshots(
        self, tmp_path, workload, queries
    ):
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(
                matcher, 0.3, store=tmp_path / "auto", checkpoint_every=2,
            )
            await service.start(workload.repository)
            await _serve_all(service, queries)
            for step in range(4):
                await service.apply_delta(
                    churn_delta(service.repository, churn=0.2, seed=step)
                )
            stats = service.stats
            await service.stop()
            return stats

        stats = _run(scenario())
        assert stats.deltas_applied == 4
        assert stats.checkpoints_written == 2  # after deltas 2 and 4
        assert (tmp_path / "auto" / "manifest.json").is_file()

    def test_corrupt_snapshot_fails_start_loudly(
        self, tmp_path, workload, queries
    ):
        self._snapshot(tmp_path, workload, queries)
        results = next((tmp_path / "snap").glob("results-*.json"))
        results.write_bytes(results.read_bytes()[:-25])  # truncate

        async def scenario():
            service = MatchingService(
                ExhaustiveMatcher(workload.objective), 0.3,
                store=tmp_path / "snap",
            )
            await service.start(workload.repository)  # repo offered, but...

        with pytest.raises(SnapshotError, match="corrupt"):
            _run(scenario())  # ...a bad snapshot must never cold-start

    def test_mismatched_matcher_fails_start_loudly(
        self, tmp_path, workload, queries
    ):
        self._snapshot(tmp_path, workload, queries)

        async def scenario():
            service = MatchingService(
                make_matcher("beam", workload.objective, beam_width=4),
                0.3, store=tmp_path / "snap",
            )
            await service.start()

        with pytest.raises(SnapshotError, match="differently configured"):
            _run(scenario())

    def test_mismatched_threshold_fails_start_loudly(
        self, tmp_path, workload, queries
    ):
        self._snapshot(tmp_path, workload, queries)

        async def scenario():
            service = MatchingService(
                ExhaustiveMatcher(workload.objective), 0.2,
                store=tmp_path / "snap",
            )
            await service.start()

        with pytest.raises(SnapshotError, match="δmax"):
            _run(scenario())

    def test_mismatched_repository_fails_start_loudly(
        self, tmp_path, workload, queries
    ):
        self._snapshot(tmp_path, workload, queries)
        evolved, _ = workload.repository.apply(
            churn_delta(workload.repository, churn=0.3, seed=4)
        )

        async def scenario():
            service = MatchingService(
                ExhaustiveMatcher(workload.objective), 0.3,
                store=tmp_path / "snap",
            )
            await service.start(evolved)

        with pytest.raises(SnapshotError, match="differs from the snapshot"):
            _run(scenario())


class TestServiceApi:
    def test_constructor_validation(self, workload):
        matcher = ExhaustiveMatcher(workload.objective)
        with pytest.raises(MatchingError, match="delta_max"):
            MatchingService(matcher, -0.1)
        with pytest.raises(MatchingError, match="max_batch"):
            MatchingService(matcher, 0.3, max_batch=0)
        with pytest.raises(MatchingError, match="max_delay"):
            MatchingService(matcher, 0.3, max_delay=-1)
        with pytest.raises(MatchingError, match="checkpoint_every"):
            MatchingService(matcher, 0.3, checkpoint_every=0)

    def test_lifecycle_guards(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(matcher, 0.3)
            with pytest.raises(MatchingError, match="no repository"):
                _ = service.repository
            with pytest.raises(MatchingError, match="not accepting"):
                await service.match(queries[0])
            with pytest.raises(MatchingError, match="cold start needs"):
                await service.start()
            await service.start(workload.repository)
            with pytest.raises(MatchingError, match="already started"):
                await service.start(workload.repository)
            with pytest.raises(MatchingError, match="without a snapshot store"):
                await service.checkpoint()
            await service.stop()
            await service.stop()  # idempotent

        _run(scenario())

    def test_bad_request_fails_alone_not_the_dispatcher(
        self, workload, queries
    ):
        """One malformed request must fail its own future; every other
        request — concurrent and subsequent — keeps being served."""
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(matcher, 0.3)
            await service.start(workload.repository)
            bad = asyncio.ensure_future(service.match(object()))  # no digest
            good = asyncio.ensure_future(service.match(queries[0]))
            with pytest.raises(AttributeError):
                await bad
            first = await good
            later = await service.match(queries[1])  # dispatcher survived
            await service.stop()
            return first, later

        first, later = _run(scenario())
        offline = matcher.batch_match(
            queries[:2], workload.repository, 0.3
        )
        assert _canonical([first, later]) == _canonical(offline)

    def test_stop_drains_pending_requests(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            service = MatchingService(matcher, 0.3)
            await service.start(workload.repository)
            futures = [
                asyncio.ensure_future(service.match(q)) for q in queries
            ]
            await service.stop()  # must resolve, not orphan, the futures
            return await asyncio.gather(*futures)

        answers = _run(scenario())
        offline = ExhaustiveMatcher(workload.objective).batch_match(
            queries, workload.repository, 0.3
        )
        assert _canonical(answers) == _canonical(offline)

    def test_stop_without_draining_fails_pending_loudly(
        self, workload, queries
    ):
        """stop(drain=False): queued requests refuse, none are answered.

        The replica-leave path — a service going away mid-request must
        fail its queue loudly (every future resolves with
        ``MatchingError``) rather than serve on the way out or leave a
        caller hanging; later requests are refused the same way.
        """
        matcher = ExhaustiveMatcher(workload.objective)

        async def scenario():
            # a wide coalescing window parks the requests in the pending
            # queue: they are enqueued but unserved when stop() lands
            service = MatchingService(
                matcher, 0.3, max_delay=5.0
            )
            await service.start(workload.repository)
            futures = [
                asyncio.ensure_future(service.match(q)) for q in queries
            ]
            await asyncio.sleep(0)  # let the requests reach the queue
            await service.stop(drain=False)
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            with pytest.raises(MatchingError, match="not accepting"):
                await service.match(queries[0])
            return outcomes

        outcomes = _run(scenario())
        assert len(outcomes) == len(queries)
        for outcome in outcomes:
            assert isinstance(outcome, MatchingError)
            assert "without draining" in str(outcome)

    def test_restart_on_new_repository_serves_fresh_state(
        self, workload, queries
    ):
        """start() after stop() is a fresh run: nothing retained for the
        old repository may leak into answers for the new one."""
        matcher = ExhaustiveMatcher(workload.objective)
        evolved, _ = workload.repository.apply(
            churn_delta(workload.repository, churn=0.5, seed=21)
        )

        async def scenario():
            service = MatchingService(matcher, 0.3)
            await service.start(workload.repository)
            await _serve_all(service, queries)
            await service.stop()
            await service.start(evolved)  # no store: must reset, not reuse
            answers = await _serve_all(service, queries)
            stats = service.stats
            await service.stop()
            return answers, stats

        answers, stats = _run(scenario())
        offline = matcher.batch_match(queries, evolved, 0.3)
        assert _canonical(answers) == _canonical(offline)
        assert stats.served_from_state == 0  # per-run counters, fresh state
        assert stats.batched_queries == len(queries)

    def test_registry_factory(self, workload, queries):
        async def scenario():
            service = matching_service(
                "beam", workload.objective, 0.3,
                params={"beam_width": 4},
            )
            await service.start(workload.repository)
            answers = await _serve_all(service, queries)
            matcher = service.matcher
            repository = service.repository
            await service.stop()
            return answers, matcher, repository

        answers, matcher, repository = _run(scenario())
        offline = matcher.batch_match(queries, repository, 0.3)
        assert _canonical(answers) == _canonical(offline)


class TestSessionExtend:
    def test_extend_matches_then_evolves_together(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)
        session = EvolutionSession(matcher, queries[:2], 0.3)
        session.match(workload.repository)
        added = session.extend(queries[2:])
        offline = matcher.batch_match(
            queries, workload.repository, 0.3
        )
        assert _canonical(session.answer_sets) == _canonical(offline)
        assert _canonical(added) == _canonical(offline[2:])
        # extended queries ride later deltas incrementally
        result, _ = session.apply(
            churn_delta(workload.repository, churn=0.25, seed=6)
        )
        cold = matcher.batch_match(
            queries, session.repository, 0.3
        )
        assert _canonical(result.answer_sets) == _canonical(cold)

    def test_extend_rejects_duplicates(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)
        session = EvolutionSession(matcher, queries[:2], 0.3)
        session.match(workload.repository)
        with pytest.raises(MatchingError, match="already tracked"):
            session.extend([queries[0]])
        with pytest.raises(MatchingError, match="already tracked"):
            session.extend([queries[2], queries[2]])

    def test_extend_before_match_raises(self, workload, queries):
        session = EvolutionSession(
            ExhaustiveMatcher(workload.objective), queries[:1], 0.3
        )
        with pytest.raises(MatchingError, match="call match"):
            session.extend(queries[1:2])
