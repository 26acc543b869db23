"""Replica-group conformance: the delta log under hostile delivery.

The acceptance property: answers served by a
:class:`~repro.matching.replication.ReplicaGroup` are byte-identical
across replicas and to the single-node offline path — and stay that way
under every delivery fault :class:`helpers.faults.DeltaLogFaults` can
script.  Duplicated records are ignored; a dropped record leaves a gap
and the affected replica **refuses to serve** until :meth:`catch_up`
(or late delivery) closes it; reordered records buffer and drain in
sequence; a replica whose repository digest diverges from the log's
authoritative digest is refused loudly instead of answering from a
fork.
"""

from __future__ import annotations

import asyncio

import pytest

from helpers.faults import DeltaLogFaults
from repro.errors import MatchingError, ReplicationError
from repro.matching import make_matcher, replica_group
from repro.matching.replication import DeltaRecord, ReplicaGroup
from repro.schema import churn_delta


@pytest.fixture(scope="module")
def queries(small_workload):
    return [scenario.query for scenario in small_workload.suite.scenarios]


def _canonical(answer_sets) -> bytes:
    return repr(
        [
            [(answer.item.key, answer.score) for answer in answers.answers()]
            for answers in answer_sets
        ]
    ).encode()


def _run(coroutine):
    return asyncio.run(coroutine)


def _group(small_workload, replicas=2, *, delivery=None, **options):
    return replica_group(
        "exhaustive",
        small_workload.objective,
        replicas,
        0.3,
        delivery=delivery,
        **options,
    )


def _offline(small_workload, queries, repository):
    matcher = make_matcher("exhaustive", small_workload.objective)
    return matcher.batch_match(queries, repository, 0.3)


class TestReplicaGroupIdentity:
    def test_replicas_identical_to_offline_across_deltas(
        self, small_workload, queries
    ):
        """The acceptance property over a clean log."""

        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            waves, repositories = [], []
            for step in range(3):
                if step:
                    await group.apply_delta(
                        churn_delta(group.repository, churn=0.25, seed=step)
                    )
                waves.append(
                    [await group.match_all(query) for query in queries]
                )
                repositories.append(group.repository)
            await group.stop()
            return waves, repositories

        waves, repositories = _run(scenario())
        for wave, repository in zip(waves, repositories):
            offline = _canonical(_offline(small_workload, queries, repository))
            for replica in range(2):
                served = _canonical([answers[replica] for answers in wave])
                assert served == offline

    def test_round_robin_spreads_requests(self, small_workload, queries):
        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            answers = [await group.match(query) for query in queries * 2]
            await group.stop()
            return group, answers

        group, answers = _run(scenario())
        assert group.stats.served == len(queries) * 2
        assert _canonical(answers) == _canonical(
            _offline(small_workload, queries * 2, small_workload.repository)
        )


class TestDeliveryFaults:
    def test_duplicate_delivery_ignored(self, small_workload, queries):
        faults = DeltaLogFaults(duplicate={(1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            answers = [await group.match_all(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, answers, repository

        group, answers, repository = _run(scenario())
        assert group.stats.duplicates_ignored == 1
        assert group.current_replicas() == [0, 1]
        offline = _canonical(_offline(small_workload, queries, repository))
        for replica in range(2):
            assert _canonical([a[replica] for a in answers]) == offline

    def test_gap_refuses_service_until_caught_up(self, small_workload, queries):
        """Drop record 1 to replica 1: it buffers record 2 and refuses."""
        faults = DeltaLogFaults(drop={(1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=1)
            )
            assert group.current(0) and not group.current(1)
            # The stale replica refuses; the round-robin skips it.
            with pytest.raises(ReplicationError, match="behind the delta log"):
                await group.match_on(1, queries[0])
            routed = [await group.match(query) for query in queries]
            # Recovery: replay the missed records from the log.
            replayed = await group.catch_up(1)
            answers = [await group.match_all(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, routed, replayed, answers, repository

        group, routed, replayed, answers, repository = _run(scenario())
        assert group.stats.gaps_buffered == 1
        assert replayed == 2  # the dropped record 1 + buffered record 2
        assert group.stats.catch_ups == 1
        assert group.current_replicas() == [0, 1]
        offline = _canonical(_offline(small_workload, queries, repository))
        assert _canonical(routed) == offline  # served by replica 0 alone
        for replica in range(2):
            assert _canonical([a[replica] for a in answers]) == offline

    def test_reordered_delivery_drains_in_sequence(
        self, small_workload, queries
    ):
        """Hold record 1, deliver record 2 first, release: buffer drains."""
        faults = DeltaLogFaults(hold={(1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=1)
            )
            assert not group.current(1)  # record 2 buffered behind the hold
            released = await faults.release()
            assert group.current(1)  # record 1 applied, buffer drained
            answers = [await group.match_all(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, released, answers, repository

        group, released, answers, repository = _run(scenario())
        assert released == 1
        assert group.stats.gaps_buffered == 1
        assert group.applied(1) == 2
        offline = _canonical(_offline(small_workload, queries, repository))
        for replica in range(2):
            assert _canonical([a[replica] for a in answers]) == offline

    def test_every_replica_stale_refuses_loudly(self, small_workload, queries):
        faults = DeltaLogFaults(drop={(0, 1), (1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            with pytest.raises(ReplicationError, match="every replica"):
                await group.match(queries[0])
            await group.stop()

        _run(scenario())

    def test_divergent_replica_refused(self, small_workload):
        """A replica applying the *wrong* delta at a sequence is caught."""
        faults = DeltaLogFaults(drop={(1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            tampered = DeltaRecord(
                1, churn_delta(small_workload.repository, churn=0.25, seed=99)
            )
            with pytest.raises(ReplicationError, match="diverged"):
                await group.receive(1, tampered)
            await group.stop()

        _run(scenario())


class TestConstructionGuards:
    def test_config_mismatched_replicas_refused(self, small_workload):
        matchers = [
            make_matcher("beam", small_workload.objective, beam_width=4),
            make_matcher("beam", small_workload.objective, beam_width=8),
        ]
        with pytest.raises(ReplicationError, match="configured differently"):
            ReplicaGroup(matchers, 0.3)

    def test_shared_objective_refused(self, small_workload):
        matchers = [
            make_matcher("exhaustive", small_workload.objective)
            for _ in range(2)
        ]
        with pytest.raises(ReplicationError, match="share an objective"):
            ReplicaGroup(matchers, 0.3)

    def test_zero_replicas_refused(self, small_workload):
        with pytest.raises(MatchingError, match="replicas must be >= 1"):
            replica_group("exhaustive", small_workload.objective, 0, 0.3)

    def test_log_sequences_are_one_based(self, small_workload):
        with pytest.raises(ReplicationError, match="1-based"):
            DeltaRecord(0, churn_delta(small_workload.repository, 0.1, seed=0))


class TestMembership:
    """Runtime membership: join() via log replay, leave() without drain."""

    def test_join_catches_up_and_serves_identically(
        self, small_workload, queries
    ):
        """A replica joining after deltas ends byte-identical to founders."""

        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            for seed in range(2):
                await group.apply_delta(
                    churn_delta(group.repository, churn=0.25, seed=seed)
                )
            joiner = make_matcher("exhaustive", small_workload.objective)
            index = await group.join(joiner)
            answers = [await group.match_all(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, index, answers, repository

        group, index, answers, repository = _run(scenario())
        assert index == 2
        assert group.stats.joins == 1
        assert group.applied(2) == 2  # the joiner replayed the whole log
        assert group.current_replicas() == [0, 1, 2]
        offline = _canonical(_offline(small_workload, queries, repository))
        for replica in range(3):
            assert _canonical([a[replica] for a in answers]) == offline

    def test_join_refuses_config_mismatch(self, small_workload):
        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            try:
                with pytest.raises(
                    ReplicationError, match="configured differently"
                ):
                    await group.join(
                        make_matcher(
                            "beam", small_workload.objective, beam_width=4
                        )
                    )
            finally:
                await group.stop()

        _run(scenario())

    def test_join_refuses_shared_objective(self, small_workload):
        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            try:
                shared = group.services[0].matcher.objective
                with pytest.raises(
                    ReplicationError, match="shares an objective"
                ):
                    await group.join(make_matcher("exhaustive", shared))
            finally:
                await group.stop()

        _run(scenario())

    def test_join_before_start_refused(self, small_workload):
        async def scenario():
            group = _group(small_workload)
            with pytest.raises(MatchingError, match="not started"):
                await group.join(
                    make_matcher("exhaustive", small_workload.objective)
                )

        _run(scenario())

    def test_leave_without_draining(self, small_workload, queries):
        """A replica leaves mid-life; the survivors keep serving."""

        async def scenario():
            group = _group(small_workload, replicas=3)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            gone = await group.leave(1)
            answers = [await group.match(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, gone, answers, repository

        group, gone, answers, repository = _run(scenario())
        assert group.stats.leaves == 1
        assert len(group.services) == 2
        assert not gone.started  # handed back stopped
        assert group.current_replicas() == [0, 1]
        offline = _canonical(_offline(small_workload, queries, repository))
        assert _canonical(answers) == offline

    def test_leave_last_replica_refused(self, small_workload):
        async def scenario():
            group = _group(small_workload, replicas=1)
            await group.start(small_workload.repository)
            try:
                with pytest.raises(
                    ReplicationError, match="cannot remove the last replica"
                ):
                    await group.leave(0)
            finally:
                await group.stop()

        _run(scenario())

    def test_leave_bounds_checked(self, small_workload):
        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            try:
                with pytest.raises(ReplicationError, match="no replica at"):
                    await group.leave(5)
            finally:
                await group.stop()

        _run(scenario())

    def test_delivery_to_departed_replica_refused(self, small_workload):
        """A held delivery outliving a membership change is caught.

        Delivery hooks address replicas by index; after a leave() the
        index space shifts, so a record released against the old
        membership must refuse loudly rather than apply to whichever
        replica now wears that index — or run off the end of the group.
        """

        async def scenario():
            group = _group(small_workload)
            await group.start(small_workload.repository)
            record = DeltaRecord(
                1, churn_delta(group.repository, churn=0.25, seed=0)
            )
            try:
                with pytest.raises(
                    ReplicationError, match="membership change"
                ):
                    await group.receive(7, record)
            finally:
                await group.stop()

        _run(scenario())


class _FailingDelivery:
    """Raises on one scripted (replica, sequence); delivers the rest."""

    def __init__(self, replica: int, sequence: int):
        self.key = (replica, sequence)
        self.failures = 0

    async def __call__(self, group, index, record):
        if (index, record.sequence) == self.key:
            self.failures += 1
            raise RuntimeError("injected delivery failure")
        await group.receive(index, record)


class TestBackpressure:
    """In-line delivery: apply_delta waits for every replica's apply.

    A failed delivery is raised once and leaves its replica stale by
    the log's own count; a read sent while a record is delivered is
    refused, because no replica has applied it yet.
    """

    def test_delivery_failure_lags_and_raises_once(
        self, small_workload, queries
    ):
        """A delivery that raises: loud once, the replica stale, recoverable."""
        faults = _FailingDelivery(replica=1, sequence=1)

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            with pytest.raises(RuntimeError, match="injected delivery"):
                await group.apply_delta(
                    churn_delta(group.repository, churn=0.25, seed=0)
                )
            # the log holds the record: replica 0 applied it, replica 1
            # did not and is stale by the log's own count
            assert group.current_replicas() == [0]
            assert group.applied(1) == 0
            # raised exactly once: the next append must not re-raise it,
            # and its record buffers behind replica 1's gap
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=1)
            )
            assert group.current(0) and not group.current(1)
            replayed = await group.catch_up(1)
            assert group.current_replicas() == [0, 1]
            answers = [await group.match_all(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, replayed, answers, repository

        group, replayed, answers, repository = _run(scenario())
        assert faults.failures == 1
        assert group.stats.delivery_failures == 1
        assert group.stats.gaps_buffered == 1
        assert replayed == 2
        offline = _canonical(_offline(small_workload, queries, repository))
        for replica in range(2):
            assert _canonical([a[replica] for a in answers]) == offline

    def test_status_line_names_stale_replicas(self, small_workload, queries):
        """Mid-delivery no replica serves; a dropped record leaves one stale."""
        faults = DeltaLogFaults(drop={(1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            write = asyncio.ensure_future(
                group.apply_delta(
                    churn_delta(group.repository, churn=0.25, seed=0)
                )
            )
            await asyncio.sleep(0)  # logged; its deliveries in flight
            in_flight = group.status()
            with pytest.raises(ReplicationError, match="every replica"):
                await group.match(queries[0])
            await write
            degraded = group.status()
            await group.catch_up(1)
            healed = group.status()
            await group.stop()
            return in_flight, degraded, healed

        in_flight, degraded, healed = _run(scenario())
        assert "2 replicas (0 serving)" in in_flight
        assert "2 replicas (1 serving)" in degraded
        assert "r0=current applied 1/1" in degraded
        assert "r1=stale applied 0/1" in degraded
        assert "2 replicas (2 serving)" in healed
        assert "r1=current applied 1/1" in healed


class _TamperingDelivery:
    """Hands one replica another delta at one scripted sequence."""

    def __init__(self, replica: int, sequence: int, delta):
        self.key = (replica, sequence)
        self.delta = delta

    async def __call__(self, group, index, record):
        if (index, record.sequence) == self.key:
            record = DeltaRecord(record.sequence, self.delta)
        await group.receive(index, record)


class TestForkedReplica:
    """A replica that fails its digest check never serves again.

    Both paths into a fork — a direct ``receive`` and an in-line
    delivery — must leave the replica diverged: out of the round-robin,
    refusing reads, records and ``catch_up``, until it is replaced.
    """

    def test_forked_receive_never_serves(self, small_workload, queries):
        faults = DeltaLogFaults(drop={(1, 1)})

        async def scenario():
            group = _group(small_workload, delivery=faults)
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(group.repository, churn=0.25, seed=0)
            )
            tampered = DeltaRecord(
                1, churn_delta(small_workload.repository, churn=0.25, seed=99)
            )
            with pytest.raises(ReplicationError, match="diverged"):
                await group.receive(1, tampered)
            assert not group.current(1)
            assert group.current_replicas() == [0]
            with pytest.raises(ReplicationError, match="diverged"):
                await group.match_on(1, queries[0])
            # no further records, not even the honest one
            with pytest.raises(ReplicationError, match="no further records"):
                await group.receive(1, group.log[0])
            with pytest.raises(ReplicationError, match="diverged"):
                await group.catch_up(1)
            routed = [await group.match(query) for query in queries]
            status = group.status()
            repository = group.repository
            await group.stop()
            return routed, status, repository

        routed, status, repository = _run(scenario())
        assert "2 replicas (1 serving)" in status
        assert "r1=diverged" in status
        offline = _canonical(_offline(small_workload, queries, repository))
        assert _canonical(routed) == offline  # served by replica 0 alone

    def test_forked_delivery_refuses_catch_up(self, small_workload, queries):
        delivery = _TamperingDelivery(
            replica=1,
            sequence=1,
            delta=churn_delta(small_workload.repository, churn=0.25, seed=99),
        )

        async def scenario():
            group = _group(small_workload, delivery=delivery)
            await group.start(small_workload.repository)
            with pytest.raises(ReplicationError, match="diverged at sequence 1"):
                await group.apply_delta(
                    churn_delta(group.repository, churn=0.25, seed=0)
                )
            assert group.current_replicas() == [0]
            with pytest.raises(
                ReplicationError, match=r"leave\(\) it and join\(\)"
            ):
                await group.catch_up(1)
            assert group.current_replicas() == [0]
            # the next record reaches replica 0; the fork refuses it
            with pytest.raises(ReplicationError, match="no further records"):
                await group.apply_delta(
                    churn_delta(group.repository, churn=0.25, seed=1)
                )
            assert group.current_replicas() == [0]
            # replace the fork: a joiner replays the log from the base
            await group.leave(1)
            await group.join(
                make_matcher("exhaustive", small_workload.objective)
            )
            answers = [await group.match_all(query) for query in queries]
            repository = group.repository
            await group.stop()
            return group, answers, repository

        group, answers, repository = _run(scenario())
        assert group.stats.delivery_failures == 2
        assert group.current_replicas() == [0, 1]
        offline = _canonical(_offline(small_workload, queries, repository))
        for replica in range(2):
            assert _canonical([a[replica] for a in answers]) == offline


class TestWarmStart:
    def test_group_warm_starts_from_checkpoint(
        self, small_workload, queries, tmp_path
    ):
        async def scenario():
            group = _group(small_workload, store=tmp_path / "snap")
            await group.start(small_workload.repository)
            baseline = [await group.match(query) for query in queries]
            await group.checkpoint()
            await group.stop()

            warm = _group(small_workload, store=tmp_path / "snap")
            await warm.start()
            assert all(s.stats.warm_start for s in warm.services)
            warmed = [await warm.match(query) for query in queries]
            await warm.stop()
            return baseline, warmed

        baseline, warmed = _run(scenario())
        assert _canonical(baseline) == _canonical(warmed)

    @staticmethod
    async def _warm_digest(small_workload, store):
        warm = _group(small_workload, store=store)
        await warm.start()
        digest = warm.repository.content_digest()
        await warm.stop()
        return digest

    def test_checkpoint_skips_stale_replica(self, small_workload, tmp_path):
        """Replica 0 missed the record: the checkpoint holds the log head."""
        faults = DeltaLogFaults(drop={(0, 1)})

        async def scenario():
            group = _group(
                small_workload, delivery=faults, store=tmp_path / "snap"
            )
            await group.start(small_workload.repository)
            await group.apply_delta(
                churn_delta(small_workload.repository, 0.3, seed=5)
            )
            status = group.status()
            await group.checkpoint()
            head = group.repository.content_digest()
            written = [s.stats.checkpoints_written for s in group.services]
            await group.stop()
            warm = await self._warm_digest(small_workload, tmp_path / "snap")
            return status, written, head, warm

        status, written, head, warm = _run(scenario())
        assert "r0=stale applied 0/1" in status
        assert "r1=current applied 1/1" in status
        assert head != small_workload.repository.content_digest()
        assert warm == head  # the logged delta survives the restart
        assert written == [0, 1]

    def test_checkpoint_skips_diverged_replica(self, small_workload, tmp_path):
        """Replica 0 forked: the checkpoint is written from replica 1."""
        delivery = _TamperingDelivery(
            replica=0,
            sequence=1,
            delta=churn_delta(small_workload.repository, churn=0.25, seed=99),
        )

        async def scenario():
            group = _group(
                small_workload, delivery=delivery, store=tmp_path / "snap"
            )
            await group.start(small_workload.repository)
            with pytest.raises(ReplicationError, match="diverged"):
                await group.apply_delta(
                    churn_delta(group.repository, churn=0.25, seed=0)
                )
            await group.checkpoint()
            head = group.repository.content_digest()
            written = [s.stats.checkpoints_written for s in group.services]
            await group.stop()
            warm = await self._warm_digest(small_workload, tmp_path / "snap")
            return written, head, warm

        written, head, warm = _run(scenario())
        assert warm == head
        assert written == [0, 1]

    def test_checkpoint_refused_without_current_replica(
        self, small_workload, tmp_path
    ):
        """Every replica stale: the checkpoint raises and writes nothing."""
        faults = DeltaLogFaults(drop={(0, 1), (1, 1)})
        root = tmp_path / "snap"

        def files():
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        async def scenario():
            group = _group(small_workload, delivery=faults, store=root)
            await group.start(small_workload.repository)
            await group.checkpoint()
            before = files()
            await group.apply_delta(
                churn_delta(small_workload.repository, 0.3, seed=5)
            )
            with pytest.raises(ReplicationError, match=r"catch_up\(\)"):
                await group.checkpoint()
            after = files()
            written = [s.stats.checkpoints_written for s in group.services]
            await group.stop()
            return before, after, written

        before, after, written = _run(scenario())
        assert before and after == before
        assert written == [1, 0]
