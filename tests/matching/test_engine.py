"""Unit tests for the search engine: B&B exactness and beam subsetting.

The exhaustiveness claim ("returns ALL mappings with Δ ≤ δ") is checked
against a brute-force enumerator on small schemas — the single most
important test of the matching substrate, since the whole bounds
technique assumes S1 truly is exhaustive.
"""

import itertools

import pytest

from repro.errors import MatchingError
from repro.matching.engine import SchemaSearch, count_assignments
from repro.matching.mapping import Mapping
from repro.matching.objective import ObjectiveFunction, ObjectiveWeights
from repro.matching.similarity.name import NameSimilarity
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.model import Schema, SchemaElement
from repro.schema.mutations import extract_personal_schema
from repro.schema.repository import ElementHandle
from repro.util import rng


def brute_force(query, schema, objective, delta_max):
    """Reference enumeration of all injective assignments."""
    out = {}
    ids = range(len(schema))
    for combo in itertools.permutations(ids, len(query)):
        handles = tuple(ElementHandle(schema, j) for j in combo)
        mapping = Mapping(query.schema_id, handles)
        score = objective.mapping_cost(query, mapping)
        if score <= delta_max:
            out[combo] = score
    return out


def small_objective() -> ObjectiveFunction:
    return ObjectiveFunction(NameSimilarity())


class TestCountAssignments:
    def test_falling_factorial(self):
        assert count_assignments(2, 4) == 12
        assert count_assignments(3, 3) == 6

    def test_query_larger_than_schema(self):
        assert count_assignments(4, 3) == 0

    def test_zero_query(self):
        assert count_assignments(0, 5) == 1

    def test_negative_rejected(self):
        with pytest.raises(MatchingError):
            count_assignments(-1, 3)


class TestExhaustiveAgainstBruteForce:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("delta_max", [0.15, 0.3, 0.5])
    def test_exhaustive_equals_brute_force(self, seed, delta_max):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=5, max_size=8, seed=seed)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(seed + 100), repo.schemas()[1], None, target_size=3
        )
        objective = small_objective()
        expected = brute_force(query, schema, objective, delta_max)
        got = dict(SchemaSearch(query, schema, objective).exhaustive(delta_max))
        assert got == expected

    def test_exhaustive_with_structure_heavy_weights(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=5, max_size=7, seed=9)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(77), repo.schemas()[1], None, target_size=3
        )
        objective = ObjectiveFunction(
            NameSimilarity(), ObjectiveWeights(structure=0.6)
        )
        expected = brute_force(query, schema, objective, 0.45)
        got = dict(SchemaSearch(query, schema, objective).exhaustive(0.45))
        assert got == expected


class TestEngineEdgeCases:
    def test_schema_smaller_than_query_yields_nothing(self):
        query_root = SchemaElement("a")
        query_root.add_child(SchemaElement("b"))
        query = Schema("q", query_root)
        schema = Schema("s", SchemaElement("only"))
        search = SchemaSearch(query, schema, small_objective())
        assert list(search.exhaustive(1.0)) == []

    def test_empty_candidate_list_yields_nothing(self):
        query = Schema("q", SchemaElement("a"))
        root = SchemaElement("r")
        root.add_child(SchemaElement("x"))
        schema = Schema("s", root)
        search = SchemaSearch(query, schema, small_objective(), allowed=[[]])
        assert list(search.exhaustive(1.0)) == []

    def test_allowed_restricts_targets(self):
        query = Schema("q", SchemaElement("a"))
        root = SchemaElement("a")
        root.add_child(SchemaElement("a2"))
        schema = Schema("s", root)
        search = SchemaSearch(query, schema, small_objective(), allowed=[[1]])
        results = list(search.exhaustive(1.0))
        assert [target_ids for target_ids, _ in results] == [(1,)]

    def test_restricted_is_subset_of_unrestricted(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=6, max_size=9, seed=6)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(55), repo.schemas()[1], None, target_size=3
        )
        objective = small_objective()
        full = dict(SchemaSearch(query, schema, objective).exhaustive(0.5))
        allowed = [list(range(0, len(schema), 2))] * len(query)
        restricted = dict(
            SchemaSearch(query, schema, objective, allowed=allowed).exhaustive(0.5)
        )
        assert set(restricted) <= set(full)
        for key, score in restricted.items():
            assert score == full[key]

    def test_scores_never_exceed_threshold(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=1, min_size=8, max_size=10, seed=8)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(11), schema, None, target_size=3
        )
        for _ids, score in SchemaSearch(query, schema, small_objective()).exhaustive(
            0.3
        ):
            assert score <= 0.3 + 1e-9

    def test_injectivity_of_results(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=1, min_size=8, max_size=10, seed=12)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(13), schema, None, target_size=3
        )
        for ids, _score in SchemaSearch(query, schema, small_objective()).exhaustive(
            0.5
        ):
            assert len(set(ids)) == len(ids)


class TestBeam:
    def test_beam_is_subset_with_same_scores(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=6, max_size=10, seed=14)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(15), repo.schemas()[1], None, target_size=3
        )
        objective = small_objective()
        search = SchemaSearch(query, schema, objective)
        full = dict(search.exhaustive(0.5))
        beam = dict(search.beam(0.5, beam_width=4))
        assert set(beam) <= set(full)
        for key, score in beam.items():
            assert score == full[key]

    def test_wide_beam_equals_exhaustive(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=5, max_size=7, seed=16)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(17), repo.schemas()[1], None, target_size=2
        )
        objective = small_objective()
        search = SchemaSearch(query, schema, objective)
        full = dict(search.exhaustive(0.4))
        beam = dict(search.beam(0.4, beam_width=10_000))
        assert beam == full

    def test_beam_width_monotone(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=6, max_size=9, seed=18)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(19), repo.schemas()[1], None, target_size=3
        )
        objective = small_objective()
        search = SchemaSearch(query, schema, objective)
        sizes = [
            len(list(search.beam(0.5, beam_width=w))) for w in (1, 4, 16, 64)
        ]
        assert sizes == sorted(sizes)

    def test_beam_emits_at_most_beam_width(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=6, max_size=9, seed=18)
        )
        schema = repo.schemas()[0]
        query = extract_personal_schema(
            rng.make_tagged(19), repo.schemas()[1], None, target_size=3
        )
        search = SchemaSearch(query, schema, small_objective())
        full = dict(search.exhaustive(1.0))
        assert len(full) > 8
        for width in (1, 2, 4, 8, 16):
            emitted = list(search.beam(1.0, beam_width=width))
            # the last level keeps the ``width`` best states, and at
            # δ = 1 every one of them is emitted
            assert len(emitted) == min(width, len(full))
            assert set(dict(emitted)) <= set(full)

    def test_invalid_beam_width(self):
        query = Schema("q", SchemaElement("a"))
        schema = Schema("s", SchemaElement("b"))
        search = SchemaSearch(query, schema, small_objective())
        with pytest.raises(MatchingError):
            list(search.beam(0.5, beam_width=0))
