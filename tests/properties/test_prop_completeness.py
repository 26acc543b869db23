"""Property test: a restricted S2 loses exactly what its restriction drops.

``validate_improvement`` checks that an improved system's answers are a
subset of the exhaustive system's with equal scores.  A smaller subset
passes that check too, so it cannot see an S2 that loses answers it
should have found.  The paper's premise gives the missing property: an
improvement keeps the objective Δ and restricts the search space.  For
the candidate-restricted exact searches — clustering and top-k — that
pins the answer down completely:

    S2's pair result at δ  ==  S1's pair result at any δ' ≥ δ, filtered
    to ``score <= δ + 1e-9`` and to assignments whose every target is
    allowed, in the same order.

Top-k's allowed sets are derived here from
:meth:`~repro.matching.objective.ObjectiveFunction.cost_matrix` with
the spec ``(cost, id)`` sort — not from the matcher's own score matrix,
so a wrong cut in the matcher cannot hide behind its own definition.
Clustering's allowed set is its nomination: every element of the schema
in the clusters the query nominates.
"""

from helpers.differential import make_workload
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    ClusteringMatcher,
    ExhaustiveMatcher,
    TopKCandidateMatcher,
)

_EPSILON = 1e-9


def s1_view(s1_pairs, delta, allowed):
    """S1's pair result cut to ``score <= δ + ε`` and to allowed targets."""
    return [
        (ids, score)
        for ids, score in s1_pairs
        if score <= delta + _EPSILON
        and all(j in allowed[i] for i, j in enumerate(ids))
    ]


def spec_topk_allowed(objective, query, schema, k):
    """Each query element's k cheapest targets by the spec sort."""
    costs = objective.cost_matrix(query, schema)
    return [
        set(sorted(range(len(schema)), key=lambda j: (row[j], j))[:k])
        for row in costs
    ]


@st.composite
def view_cases(draw):
    return {
        "repo_seed": draw(st.integers(min_value=0, max_value=40)),
        "num_schemas": draw(st.integers(min_value=2, max_value=4)),
        "query_seed": draw(st.integers(min_value=0, max_value=40)),
        "query_size": draw(st.integers(min_value=2, max_value=4)),
        "with_thesaurus": draw(st.booleans()),
        "delta": draw(st.sampled_from((0.1, 0.2, 0.3, 0.45))),
        # δ' = δ + slack: S1 may run at any threshold at or above S2's
        "slack": draw(st.sampled_from((0.0, 0.05, 0.3))),
    }


def _workload(case):
    return make_workload(
        case["repo_seed"],
        num_schemas=case["num_schemas"],
        query_seed=case["query_seed"],
        min_size=4,
        max_size=8,
        query_size=case["query_size"],
        with_thesaurus=case["with_thesaurus"],
    )


def _s1_pairs(objective, query, repository, delta):
    s1 = ExhaustiveMatcher(objective)
    s1.prepare(repository)
    s1.begin_query(query)
    return {
        schema.schema_id: s1.match_pair(query, schema, delta)
        for schema in repository
    }


@settings(max_examples=40, deadline=None)
@given(view_cases(), st.integers(min_value=1, max_value=4))
def test_topk_is_the_s1_view(case, k):
    workload = _workload(case)
    objective = workload.objective()
    delta = case["delta"]
    for query in workload.queries:
        s1 = _s1_pairs(
            objective, query, workload.repository, delta + case["slack"]
        )
        topk = TopKCandidateMatcher(objective, candidates_per_element=k)
        topk.prepare(workload.repository)
        topk.begin_query(query)
        for schema in workload.repository:
            allowed = spec_topk_allowed(objective, query, schema, k)
            expected = s1_view(s1[schema.schema_id], delta, allowed)
            observed = topk.match_pair(query, schema, delta)
            assert observed == expected, (schema.schema_id, k)


@settings(max_examples=40, deadline=None)
@given(view_cases(), st.integers(min_value=1, max_value=3))
def test_clustering_is_the_s1_view(case, clusters_per_element):
    workload = _workload(case)
    objective = workload.objective()
    delta = case["delta"]
    for query in workload.queries:
        s1 = _s1_pairs(
            objective, query, workload.repository, delta + case["slack"]
        )
        clustering = ClusteringMatcher(
            objective, clusters_per_element=clusters_per_element
        )
        clustering.prepare(workload.repository)
        clustering.begin_query(query)
        nominated = clustering.allowed_element_keys(query)
        for schema in workload.repository:
            in_clusters = {
                j for j in range(len(schema))
                if (schema.schema_id, j) in nominated
            }
            allowed = [in_clusters] * len(query)
            expected = s1_view(s1[schema.schema_id], delta, allowed)
            observed = clustering.match_pair(query, schema, delta)
            assert observed == expected, schema.schema_id
