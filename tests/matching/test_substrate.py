"""Unit tests of the similarity substrate (matrix, kernel, cache).

The substrate's contract is speed without semantic change: matrix
entries are bit-identical to the direct objective computation, candidate
orders match the engine's sort, the kernel is prepared once per
repository version, and the per-objective cache reuses matrices across
matchers.  Answer-set identity under the substrate is covered by
``tests/properties/test_prop_substrate.py``.
"""

import pytest

from helpers.oracles import substrate_off
from repro.errors import MatchingError
from repro.matching import SchemaSearch
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.matrix import ScoreMatrix, SimilaritySubstrate
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
        kernel = substrate.prepare(repo)
        assert substrate.prepare(repo) is kernel
        assert substrate.kernel() is kernel
        assert substrate.stats.kernel_builds == 1
        other = _handmade_repository()
        assert substrate.prepare(other) is not kernel
        assert substrate.stats.kernel_builds == 2

    def test_lru_eviction_bounded(self, setup):
        repo, objective, query = setup
        substrate = SimilaritySubstrate(objective, max_matrices=2)
        for schema in repo.schemas()[:4]:
            substrate.matrix(query, schema)
        assert len(substrate) == 2
        assert substrate.stats.matrix_evictions == 2
        substrate.clear()
        assert len(substrate) == 0 and substrate.kernel() is None

    def test_schema_index_follows_the_cache(self, setup):
        """The drop index equals the cached keys grouped by schema
        digest after every build, eviction, drop and clear."""
        repo, objective, query = setup
        second = extract_personal_schema(
            rng.make_tagged(78),
            repo.schemas()[1],
            None,
            target_size=3,
            schema_id="substrate-query-2",
        )
        schemas = repo.schemas()
        substrate = SimilaritySubstrate(objective, max_matrices=4)

        def check() -> None:
            grouped: dict[str, set[str]] = {}
            for query_digest, schema_digest in substrate._matrices:
                grouped.setdefault(schema_digest, set()).add(query_digest)
            assert substrate._by_schema == grouped

        for schema in schemas[:2]:
            for q in (query, second):
                substrate.matrix(q, schema)
                check()
        substrate.matrix(query, schemas[2])  # evicts (query, schema 0)
        check()
        substrate.matrix(second, schemas[2])  # evicts (second, schema 0)
        check()
        assert substrate.stats.matrix_evictions == 2
        assert schemas[0].content_digest() not in substrate._by_schema
        substrate.drop_schemas(
            {schemas[1].content_digest(), schemas[0].content_digest()}
        )
        check()
        assert len(substrate) == 2
        substrate.matrix(query, schemas[3])
        check()
        substrate.clear()
        check()
        assert substrate._by_schema == {}

    def test_invalid_capacity_rejected(self, setup):
        _, objective, _ = setup
        with pytest.raises(MatchingError):
            SimilaritySubstrate(objective, max_matrices=0)

    def test_objective_owns_one_substrate(self, setup):
        _, objective, _ = setup
        assert objective.substrate() is objective.substrate()


class TestEnginePruning:
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.5, 1.0])
    def test_trimming_preserves_exhaustive_output(self, setup, delta):
        repo, objective, query = setup
        for schema in repo:
            pruned = SchemaSearch(query, schema, objective)
            with substrate_off():
                plain = SchemaSearch(query, schema, objective)
                untrimmed = list(plain.exhaustive(delta))
            assert list(pruned.exhaustive(delta)) == untrimmed

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_trimming_preserves_beam_output(self, setup, delta):
        repo, objective, query = setup
        for schema in repo:
            pruned = SchemaSearch(query, schema, objective)
            with substrate_off():
                plain = SchemaSearch(query, schema, objective)
                untrimmed = list(plain.beam(delta, 6))
            assert list(pruned.beam(delta, 6)) == untrimmed

    def test_trimming_actually_drops_candidates(self, setup):
        repo, objective, query = setup
        schema = max(repo, key=len)
        search = SchemaSearch(query, schema, objective)
        ctx = search._context(1.0)  # a loose δ: no early exit
        trimmed = search._trimmed_candidates(ctx, cutoff=0.05 + 1e-9)
        full = sum(len(ids) for ids in ctx.candidates)
        if trimmed is None:
            kept = 0
        else:
            kept = sum(len(ids) for ids in trimmed)
        assert kept < full  # a tight threshold must shrink the lists
