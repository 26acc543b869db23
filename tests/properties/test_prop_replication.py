"""Property test: replicated serving equals single-node replay, always.

For every matcher family, over seeded workloads and interleaved
query/delta streams, a 2-replica :class:`ReplicaGroup` must serve —
from **every** replica, at **every** repository version — answers
byte-identical to a single-node :class:`EvolutionSession` replaying the
same delta sequence.  The group's round-robin front-end must be
invisible: which replica happens to answer can never change a byte.

This is the distributed twin of the service identity property
(``test_service.py``): the replicated delta log, the per-replica digest
checks and the stale-replica refusal exist precisely so this property
cannot fail silently.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.differential import MATCHERS, canonical, make_workload
from repro.matching import EvolutionSession, make_matcher, replica_group
from repro.schema import churn_delta


def _run(coroutine):
    return asyncio.run(coroutine)


@st.composite
def replication_cases(draw):
    repo_seed = draw(st.integers(min_value=0, max_value=20))
    query_seed = draw(st.integers(min_value=0, max_value=20))
    num_queries = draw(st.integers(min_value=1, max_value=2))
    delta_max = draw(st.sampled_from((0.15, 0.3)))
    churn = draw(st.sampled_from((0.2, 0.4)))
    delta_seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=50), min_size=1, max_size=2
        )
    )
    return repo_seed, query_seed, num_queries, delta_max, churn, delta_seeds


@pytest.mark.parametrize("name,params", MATCHERS)
@settings(max_examples=5, deadline=None)
@given(case=replication_cases())
def test_replicas_equal_single_node_replay(name, params, case):
    repo_seed, query_seed, num_queries, delta_max, churn, delta_seeds = case
    workload = make_workload(
        repo_seed, num_schemas=3, query_seed=query_seed,
        num_queries=num_queries,
    )
    queries = list(workload.queries)

    # Single-node reference: one matcher replaying the delta stream.
    session = EvolutionSession(
        make_matcher(name, workload.objective(), **params),
        queries,
        delta_max,
    )
    session.match(workload.repository)
    reference = [[canonical(a) for a in session.answer_sets]]
    deltas = []
    for seed in delta_seeds:
        delta = churn_delta(session.repository, churn=churn, seed=seed)
        deltas.append(delta)
        session.apply(delta)
        reference.append([canonical(a) for a in session.answer_sets])

    # Replicated run: same stream, queries interleaved between deltas.
    async def scenario():
        group = replica_group(
            name, workload.objective(), 2, delta_max,
            params=params,
        )
        await group.start(workload.repository)
        waves = []
        for step in range(len(deltas) + 1):
            if step:
                await group.apply_delta(deltas[step - 1])
            per_replica = [await group.match_all(q) for q in queries]
            routed = [await group.match(q) for q in queries]
            waves.append((per_replica, routed))
        await group.stop()
        return group, waves

    group, waves = _run(scenario())
    assert group.current_replicas() == [0, 1]
    for (per_replica, routed), expected in zip(waves, reference):
        for query_index in range(len(queries)):
            for replica in range(2):
                observed = canonical(per_replica[query_index][replica])
                assert observed == expected[query_index], (
                    name, query_index, {"replica": replica}
                )
            assert canonical(routed[query_index]) == expected[query_index], (
                name, query_index, "round-robin"
            )


@pytest.mark.parametrize("name,params", MATCHERS)
@settings(max_examples=3, deadline=None)
@given(case=replication_cases())
def test_joining_replica_equals_founders(name, params, case):
    """Runtime membership cannot change a byte.

    A replica joining mid-stream — cold-started on the base repository
    and caught up purely from the replicated log — must end
    byte-identical to the founding replicas *and* to the single-node
    replay, for every matcher family.
    """
    repo_seed, query_seed, num_queries, delta_max, churn, delta_seeds = case
    workload = make_workload(
        repo_seed, num_schemas=3, query_seed=query_seed,
        num_queries=num_queries,
    )
    queries = list(workload.queries)

    session = EvolutionSession(
        make_matcher(name, workload.objective(), **params),
        queries,
        delta_max,
    )
    session.match(workload.repository)
    deltas = []
    for seed in delta_seeds:
        delta = churn_delta(session.repository, churn=churn, seed=seed)
        deltas.append(delta)
        session.apply(delta)
    expected = [canonical(a) for a in session.answer_sets]

    async def scenario():
        group = replica_group(
            name, workload.objective(), 2, delta_max,
            params=params,
        )
        await group.start(workload.repository)
        # the joiner arrives after the first delta: its truth is the
        # base repository plus the log, never a snapshot
        await group.apply_delta(deltas[0])
        joined = await group.join(
            make_matcher(name, workload.objective(), **params)
        )
        for delta in deltas[1:]:
            await group.apply_delta(delta)
        per_replica = [await group.match_all(q) for q in queries]
        await group.stop()
        return group, joined, per_replica

    group, joined, per_replica = _run(scenario())
    assert joined == 2
    assert group.current_replicas() == [0, 1, 2]
    for query_index in range(len(queries)):
        for replica in range(3):
            observed = canonical(per_replica[query_index][replica])
            assert observed == expected[query_index], (
                name, query_index, {"replica": replica}
            )
