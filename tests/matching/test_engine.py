"""Unit tests for the search engine: B&B exactness and beam subsetting.

The exhaustiveness claim ("returns ALL mappings with Δ ≤ δ") is checked
against a brute-force enumerator on small schemas — the single most
important test of the matching substrate, since the whole bounds
technique assumes S1 truly is exhaustive.
"""

import gc
import itertools
import sys
import threading
from unittest import mock

import pytest

from helpers.oracles import recursive_exhaustive
from repro.errors import MatchingError
from repro.matching import engine as engine_module
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


class TestThresholdIsInclusive:
    """``Δ ≤ δ``: a mapping scored exactly δ is in ``A^δ`` (section 2.1).

    Also when it is the cheapest mapping of the pair, where the search's
    early exit on the matrix's minima decides before any expansion.
    """

    def test_identical_schema_found_at_zero(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=3, min_size=5, max_size=8, seed=21)
        )
        objective = small_objective()
        for schema in repo:
            query = schema.copy(schema_id="identical-query")
            search = SchemaSearch(query, schema, objective)
            identity = (tuple(range(len(schema))), 0.0)
            assert identity in search.exhaustive(0.0)
            assert identity in search.beam(0.0, beam_width=1)

    def test_cheapest_mappings_kept_at_their_score(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=3, min_size=5, max_size=8, seed=22)
        )
        objective = small_objective()
        for index, schema in enumerate(repo):
            query = extract_personal_schema(
                rng.make_tagged(23 + index), schema, None, target_size=3
            )
            search = SchemaSearch(query, schema, objective)
            full = search.exhaustive(1.0)
            best = min(score for _ids, score in full)
            def cheapest(results):
                return [(ids, score) for ids, score in results if score == best]

            assert cheapest(search.exhaustive(best)) == cheapest(full)


class TestNoCyclicGarbage:
    """A search frees what it allocates by reference counting alone.

    A reference cycle per search is work for the cyclic collector: a
    recursive closure that kept itself alive cost one bounds-sweep
    evaluation eight extra generation-0 collections and 12,601
    collected objects.
    """

    def test_searches_leave_nothing_for_the_collector(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=6, max_size=10, seed=24)
        )
        schema = repo.schemas()[0]
        objective = small_objective()
        queries = [
            extract_personal_schema(
                rng.make_tagged(31), schema, None, target_size=size
            )
            for size in (1, 2, 3, 4)
        ]
        assert [len(query) for query in queries] == [1, 2, 3, 4]
        every_target = list(range(len(schema)))
        searches = [
            SchemaSearch(query, schema, objective, allowed=allowed)
            for query in queries
            for allowed in (None, [every_target] * len(query))
        ]

        def run():
            for search in searches:
                assert search.exhaustive(0.5)  # every search expands
                search.beam(0.5, beam_width=4)

        run()  # warm the score matrices
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _pruned(schema: Schema, size: int, schema_id: str) -> Schema:
    """``schema`` without its last pre-order elements, ``size`` kept.

    The last element in pre-order is always a leaf, so each cut leaves
    a tree whose ids, parents and labels are the source's own.
    """
    root = schema.root.copy()
    elements = list(root.walk())
    while len(elements) > size:
        last = elements.pop()
        parent = next(e for e in elements if last in e.children)
        parent.children.remove(last)
    return Schema(schema_id, root)


def _hexed(results):
    return [(ids, score.hex()) for ids, score in results]


class TestGeneratedNests:
    """The exhaustive search runs one compiled loop nest per query shape."""

    def test_query_deeper_than_a_chunk_matches_reference(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=1, min_size=26, max_size=30, seed=0)
        )
        schema = _pruned(repo.schemas()[0], 26, "deep-schema")
        query = _pruned(schema, 24, "deep-query")
        assert (len(query), len(schema)) == (24, 26)
        assert len(query) > engine_module._CHUNK_DEPTHS  # chunks chain
        search = SchemaSearch(query, schema, small_objective())
        found = search.exhaustive(0.05)
        assert len(found) > 1
        assert _hexed(found) == _hexed(recursive_exhaustive(search, 0.05))

    def test_cache_stays_at_its_bound(self):
        shapes = [(None,) + (0,) * size for size in range(12)]
        with (
            mock.patch.object(engine_module, "_NESTS", {}),
            mock.patch.object(engine_module, "_NEST_LIMIT", 5),
        ):
            for shape in shapes:
                nest = engine_module._nest(shape)
                assert engine_module._nest(shape) is nest  # served from cache
                assert len(engine_module._NESTS) <= 5
            assert list(engine_module._NESTS) == shapes[-5:]

    def test_shape_must_be_pre_ordered(self):
        for shape in ((), (None, 1), (None, -1), (None, True), (None, "0")):
            with pytest.raises(MatchingError):
                engine_module._compile_nest(shape)

    def test_threads_share_the_cache(self):
        """Threads compiling and evicting shapes at once stay correct.

        A cache of two nests and six shapes makes every thread insert
        and evict while the others read; a lost update or a torn
        eviction would raise or overfill the cache.
        """
        repo = generate_repository(
            GeneratorConfig(num_schemas=3, min_size=8, max_size=12, seed=5)
        )
        objective = small_objective()
        searches = [
            SchemaSearch(
                extract_personal_schema(
                    rng.make_tagged(40 + size), schema, None, target_size=size
                ),
                schema,
                objective,
            )
            for schema in repo
            for size in (1, 2, 3, 4)
        ]
        expected = [_hexed(recursive_exhaustive(s, 0.5)) for s in searches]
        assert len({s.query.parent_ids() for s in searches}) > 2
        failures: list[BaseException] = []

        def work():
            try:
                for _ in range(15):
                    for search, reference in zip(searches, expected):
                        assert _hexed(search.exhaustive(0.5)) == reference
                        assert len(engine_module._NESTS) <= 2
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        with (
            mock.patch.object(engine_module, "_NESTS", {}),
            mock.patch.object(engine_module, "_NEST_LIMIT", 2),
        ):
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_cap_keeps_each_elements_cheapest_targets(self):
        repo = generate_repository(
            GeneratorConfig(num_schemas=2, min_size=6, max_size=10, seed=8)
        )
        objective = small_objective()
        for index, schema in enumerate(repo):
            query = extract_personal_schema(
                rng.make_tagged(9 + index), schema, None, target_size=3
            )
            order = objective.substrate().matrix(query, schema).candidate_order
            for cap in (1, 2, 4):
                cut = [row[:cap] for row in order]
                capped = SchemaSearch(query, schema, objective, cap=cap)
                restricted = SchemaSearch(query, schema, objective, allowed=cut)
                assert _hexed(capped.exhaustive(0.6)) == _hexed(
                    restricted.exhaustive(0.6)
                )
        with pytest.raises(MatchingError):
            SchemaSearch(query, schema, objective, cap=0)


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
            search.beam(0.5, beam_width=0)  # on the call, not on iteration
