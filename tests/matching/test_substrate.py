"""Unit tests of the similarity substrate (matrix, index, cache).

The substrate's contract is speed without semantic change: matrix
entries are bit-identical to the direct objective computation, candidate
orders match the engine's sort, the token index groups and indexes
exactly the repository's labels, and the per-objective cache reuses both
across matchers.  Answer-set identity under the substrate is covered by
``tests/properties/test_prop_substrate.py``.
"""

import pytest

from helpers.oracles import substrate_off
from repro.errors import MatchingError
from repro.matching import ExhaustiveMatcher, SchemaSearch
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.matrix import (
    ScoreMatrix,
    SimilaritySubstrate,
    TokenIndex,
)
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.model import Datatype, Schema, SchemaElement
from repro.schema.mutations import extract_personal_schema
from repro.schema.repository import SchemaRepository
from repro.schema.vocabulary import builtin_domains
from repro.util import rng


@pytest.fixture(scope="module")
def setup():
    repo = generate_repository(
        GeneratorConfig(num_schemas=5, min_size=6, max_size=11, seed=23)
    )
    thesaurus = Thesaurus.from_vocabularies(
        builtin_domains().values(), coverage=0.7, seed=9
    )
    objective = ObjectiveFunction(NameSimilarity(thesaurus))
    query = extract_personal_schema(
        rng.make_tagged(77),
        repo.schemas()[0],
        None,
        target_size=3,
        schema_id="substrate-query",
    )
    return repo, objective, query


def _handmade_repository():
    root = SchemaElement("order", Datatype.COMPLEX)
    root.add_child(SchemaElement("orderNumber", Datatype.IDENTIFIER))
    root.add_child(SchemaElement("shipDate", Datatype.DATE))
    root.add_child(SchemaElement("shipDate", Datatype.DATE))  # duplicate label
    other = SchemaElement("customer", Datatype.COMPLEX)
    other.add_child(SchemaElement("customerName", Datatype.STRING))
    return SchemaRepository(
        "handmade", [Schema("orders", root), Schema("customers", other)]
    )


class TestTokenIndex:
    def test_postings_cover_all_label_tokens(self):
        repo = _handmade_repository()
        index = TokenIndex(repo)
        assert index.elements_with_token("order") == frozenset(
            {("orders", 0), ("orders", 1)}
        )
        assert index.elements_with_token("ship") == frozenset(
            {("orders", 2), ("orders", 3)}
        )
        assert index.elements_with_token("nope") == frozenset()

    def test_candidate_keys_union_over_tokens(self):
        index = TokenIndex(_handmade_repository())
        keys = index.candidate_keys("customer order")
        assert ("customers", 0) in keys and ("orders", 0) in keys

    def test_column_groups_merge_identical_labels(self):
        repo = _handmade_repository()
        index = TokenIndex(repo)
        groups = dict(index.column_groups(repo.schema("orders")))
        assert groups[2] == (2, 3)  # the two shipDate leaves share a group

    def test_column_groups_guarded_by_content_digest(self):
        repo = _handmade_repository()
        index = TokenIndex(repo)
        impostor = Schema("orders", SchemaElement("different", Datatype.COMPLEX))
        assert index.column_groups(impostor) is None

    def test_distinct_labels_counted(self):
        index = TokenIndex(_handmade_repository())
        assert index.distinct_labels == 5  # 6 elements, one duplicated label
        assert "order" in index.tokens()


class TestScoreMatrix:
    def test_costs_bit_identical_to_objective(self, setup):
        repo, objective, query = setup
        for schema in repo:
            matrix = ScoreMatrix.build(objective, query, schema)
            direct = objective.cost_matrix(query, schema)
            assert [list(row) for row in matrix.costs] == direct

    def test_candidate_order_matches_engine_sort(self, setup):
        repo, objective, query = setup
        schema = repo.schemas()[1]
        matrix = ScoreMatrix.build(objective, query, schema)
        costs = objective.cost_matrix(query, schema)
        for i in range(len(query)):
            expected = sorted(
                range(len(schema)), key=lambda j: (costs[i][j], j)
            )
            assert list(matrix.candidate_order[i]) == expected

    def test_minima_and_suffix_sums(self, setup):
        repo, objective, query = setup
        schema = repo.schemas()[2]
        matrix = ScoreMatrix.build(objective, query, schema)
        assert matrix.row_min == tuple(min(row) for row in matrix.costs)
        assert matrix.min_rest[-1] == 0.0
        for i in range(matrix.query_size):
            assert matrix.min_rest[i] == pytest.approx(
                sum(matrix.row_min[i:])
            )
        assert matrix.schema_size == len(schema)

    def test_column_groups_do_not_change_entries(self, setup):
        _, objective, query = setup
        repo = _handmade_repository()
        index = TokenIndex(repo)
        schema = repo.schema("orders")
        grouped = ScoreMatrix.build(
            objective, query, schema, column_groups=index.column_groups(schema)
        )
        plain = ScoreMatrix.build(objective, query, schema)
        assert grouped.costs == plain.costs
        assert grouped.candidate_order == plain.candidate_order


class TestSimilaritySubstrate:
    def test_matrix_cached_by_content(self, setup):
        repo, objective, query = setup
        substrate = SimilaritySubstrate(objective)
        schema = repo.schemas()[0]
        first = substrate.matrix(query, schema)
        assert substrate.matrix(query, schema) is first
        assert substrate.matrix(query, schema.copy()) is first  # same content
        assert substrate.stats.matrices_built == 1
        assert substrate.stats.matrix_hits == 2
        assert 0 < substrate.stats.hit_rate < 1

    def test_prepare_idempotent_per_content(self, setup):
        repo, objective, _ = setup
        substrate = SimilaritySubstrate(objective)
        index = substrate.prepare(repo)
        assert substrate.prepare(repo) is index
        assert substrate.token_index() is index
        assert substrate.stats.index_builds == 1
        other = _handmade_repository()
        assert substrate.prepare(other) is not index
        assert substrate.stats.index_builds == 2

    def test_lru_eviction_bounded(self, setup):
        repo, objective, query = setup
        substrate = SimilaritySubstrate(objective, max_matrices=2)
        for schema in repo.schemas()[:4]:
            substrate.matrix(query, schema)
        assert len(substrate) == 2
        assert substrate.stats.matrix_evictions == 2
        substrate.clear()
        assert len(substrate) == 0 and substrate.token_index() is None

    def test_invalid_capacity_rejected(self, setup):
        _, objective, _ = setup
        with pytest.raises(MatchingError):
            SimilaritySubstrate(objective, max_matrices=0)

    def test_objective_owns_one_substrate(self, setup):
        _, objective, _ = setup
        assert objective.substrate() is objective.substrate()

    def test_matcher_skips_substrate_when_disabled(self, setup):
        """The substrate oracle reaches every caller's direct branch."""
        repo, objective, _ = setup
        matcher = ExhaustiveMatcher(objective)
        with substrate_off():
            assert matcher._substrate() is None
        assert matcher._substrate() is objective.substrate()


class TestEnginePruning:
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.5, 1.0])
    def test_trimming_preserves_exhaustive_output(self, setup, delta):
        repo, objective, query = setup
        for schema in repo:
            pruned = SchemaSearch(
                query, schema, objective,
                substrate=objective.substrate(),
            )
            plain = SchemaSearch(query, schema, objective, prune=False)
            assert list(pruned.exhaustive(delta)) == list(plain.exhaustive(delta))

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_trimming_preserves_beam_output(self, setup, delta):
        repo, objective, query = setup
        for schema in repo:
            pruned = SchemaSearch(
                query, schema, objective, substrate=objective.substrate()
            )
            plain = SchemaSearch(query, schema, objective, prune=False)
            assert list(pruned.beam(delta, 6)) == list(plain.beam(delta, 6))

    def test_trimming_actually_drops_candidates(self, setup):
        repo, objective, query = setup
        schema = max(repo, key=len)
        search = SchemaSearch(
            query, schema, objective, substrate=objective.substrate()
        )
        ctx = search._context
        trimmed = search._trimmed_candidates(ctx, cutoff=0.05 + 1e-9)
        full = sum(len(ids) for ids in ctx.candidates)
        if trimmed is None:
            kept = 0
        else:
            kept = sum(len(ids) for ids in trimmed)
        assert kept < full  # a tight threshold must shrink the lists
