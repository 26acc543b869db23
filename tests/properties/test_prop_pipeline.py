"""Property test: sharded matching is exactly serial matching.

For random repositories, queries and shard counts, ``batch_match`` over
the full repository must equal the union of per-shard matches — and both
must equal plain per-query ``match``.  This is the pipeline's licence to
fan work out: partitioning the repository can never add, lose or rescore
an answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import ExhaustiveMatcher, TopKCandidateMatcher, shard_repository
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.util import rng


@st.composite
def pipeline_cases(draw):
    repo_seed = draw(st.integers(min_value=0, max_value=30))
    num_schemas = draw(st.integers(min_value=2, max_value=6))
    num_shards = draw(st.integers(min_value=1, max_value=8))
    query_seed = draw(st.integers(min_value=0, max_value=30))
    delta = draw(st.sampled_from([0.15, 0.3, 0.45]))
    topk = draw(st.booleans())
    return repo_seed, num_schemas, num_shards, query_seed, delta, topk


@settings(max_examples=20, deadline=None)
@given(pipeline_cases())
def test_batch_match_equals_union_of_shard_matches(case):
    repo_seed, num_schemas, num_shards, query_seed, delta, topk = case
    repo = generate_repository(
        GeneratorConfig(
            num_schemas=num_schemas, min_size=5, max_size=9, seed=repo_seed
        )
    )
    objective = ObjectiveFunction(NameSimilarity())
    query = extract_personal_schema(
        rng.make_tagged(query_seed),
        repo.schemas()[query_seed % num_schemas],
        None,
        target_size=3,
        schema_id="prop-query",
    )
    matcher = (
        TopKCandidateMatcher(objective, candidates_per_element=3)
        if topk
        else ExhaustiveMatcher(objective)
    )

    whole = matcher.match(query, repo, delta)
    batched = matcher.batch_match(
        [query], repo, delta, workers=1, shards=num_shards
    )[0]

    union = None
    for shard in shard_repository(repo, num_shards):
        part = matcher.match(query, shard, delta)
        union = part if union is None else union.union(part)

    whole_pairs = sorted((a.item.key, a.score) for a in whole)
    assert sorted((a.item.key, a.score) for a in batched) == whole_pairs
    assert sorted((a.item.key, a.score) for a in union) == whole_pairs
