"""Unit tests for the shared objective function Δ."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError, ObjectiveMismatchError
from repro.matching.mapping import Mapping
from repro.matching.objective import (
    SCORE_DECIMALS,
    ObjectiveFunction,
    ObjectiveWeights,
    round_score,
)
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema.model import Datatype, Schema, SchemaElement
from repro.schema.repository import SchemaRepository


def query() -> Schema:
    root = SchemaElement("author", Datatype.COMPLEX)
    root.add_child(SchemaElement("last-name"))
    root.add_child(SchemaElement("first-name"))
    return Schema("q", root)


def repository() -> SchemaRepository:
    root = SchemaElement("writer", Datatype.COMPLEX)
    root.add_child(SchemaElement("last-name"))
    root.add_child(SchemaElement("first-name"))
    root.add_child(SchemaElement("price", Datatype.DECIMAL))
    return SchemaRepository("r", [Schema("s", root)])


def objective() -> ObjectiveFunction:
    return ObjectiveFunction(NameSimilarity())


class TestWeights:
    def test_defaults_valid(self):
        ObjectiveWeights()

    def test_negative_rejected(self):
        with pytest.raises(MatchingError):
            ObjectiveWeights(name=-1)

    def test_zero_sum_rejected(self):
        with pytest.raises(MatchingError):
            ObjectiveWeights(name=0, datatype=0)

    def test_structure_below_one(self):
        with pytest.raises(MatchingError):
            ObjectiveWeights(structure=1.0)


class TestElementCost:
    def test_identical_name_and_type_is_free(self):
        repo = repository()
        cost = objective().element_cost(
            query().element(1), repo.handle("s", 1)
        )
        assert cost == 0.0

    def test_type_mismatch_costs(self):
        repo = repository()
        cost = objective().element_cost(query().element(1), repo.handle("s", 3))
        assert cost > 0.0

    def test_cost_in_unit_interval(self):
        repo = repository()
        obj = objective()
        for i in range(3):
            for j in range(4):
                assert 0.0 <= obj.element_cost(
                    query().element(i), repo.handle("s", j)
                ) <= 1.0

    def test_cost_matrix_shape(self):
        matrix = objective().cost_matrix(query(), repository().schema("s"))
        assert len(matrix) == 3
        assert all(len(row) == 4 for row in matrix)


class TestMappingCost:
    def test_structure_preserving_cheaper(self):
        repo = repository()
        obj = objective()
        good = Mapping(
            "q", (repo.handle("s", 0), repo.handle("s", 1), repo.handle("s", 2))
        )
        # map 'author' to a leaf and children to unrelated places
        bad = Mapping(
            "q", (repo.handle("s", 3), repo.handle("s", 1), repo.handle("s", 2))
        )
        assert obj.mapping_cost(query(), good) < obj.mapping_cost(query(), bad)

    def test_perfect_mapping_near_zero_with_thesaurus(self):
        repo = repository()
        thesaurus_objective = ObjectiveFunction(
            NameSimilarity(Thesaurus([("author", "writer")]))
        )
        mapping = Mapping(
            "q", (repo.handle("s", 0), repo.handle("s", 1), repo.handle("s", 2))
        )
        cost = thesaurus_objective.mapping_cost(query(), mapping)
        assert cost < 0.05  # thesaurus covers the author/writer gap

    def test_synonym_without_thesaurus_is_expensive(self):
        # the ramp zeroes weak lexical similarity: unsupported synonyms
        # cost nearly the full name weight — the realism knob of the setup
        repo = repository()
        mapping = Mapping(
            "q", (repo.handle("s", 0), repo.handle("s", 1), repo.handle("s", 2))
        )
        assert objective().mapping_cost(query(), mapping) > 0.15

    def test_arity_checked(self):
        repo = repository()
        mapping = Mapping("q", (repo.handle("s", 0),))
        with pytest.raises(MatchingError, match="targets for a query"):
            objective().mapping_cost(query(), mapping)

    def test_structure_cost_full_assignment_required(self):
        with pytest.raises(MatchingError):
            objective().structure_cost(query(), repository().schema("s"), [0, None, 2])

    def test_single_element_query_no_structure_term(self):
        repo = repository()
        single = Schema("q1", SchemaElement("price", Datatype.DECIMAL))
        mapping = Mapping("q1", (repo.handle("s", 3),))
        assert objective().mapping_cost(single, mapping) == 0.0

    def test_combine_rounds_for_cross_matcher_equality(self):
        obj = objective()
        a = obj.combine(0.1 + 0.2, 3, 0.0)  # float noise in the sum
        b = obj.combine(0.3, 3, 0.0)
        assert a == b


class TestFingerprint:
    def test_same_config_same_fingerprint(self):
        sim = NameSimilarity()
        assert (
            ObjectiveFunction(sim).fingerprint()
            == ObjectiveFunction(sim).fingerprint()
        )

    def test_weight_changes_fingerprint(self):
        sim = NameSimilarity()
        a = ObjectiveFunction(sim)
        b = ObjectiveFunction(sim, ObjectiveWeights(structure=0.4))
        assert a.fingerprint() != b.fingerprint()

    def test_check_same_as_raises_on_mismatch(self):
        sim = NameSimilarity()
        a = ObjectiveFunction(sim)
        b = ObjectiveFunction(sim, ObjectiveWeights(structure=0.4))
        with pytest.raises(ObjectiveMismatchError):
            a.check_same_as(b)

    def test_check_same_as_passes(self):
        sim = NameSimilarity()
        ObjectiveFunction(sim).check_same_as(ObjectiveFunction(sim))


#: ``x`` whose scaled ``x · 10^9`` lies within 1e-6 of a half
near_halves = st.builds(
    lambda n, offset: (n + 0.5 + offset) / 1e9,
    st.integers(min_value=0, max_value=2 * 10**9),
    st.floats(min_value=-1e-6, max_value=1e-6),
)
#: odd multiples of 2**-10: ``x · 10^9`` is an exact tie, e.g. 976562.5
exact_ties = st.builds(
    lambda odd: (2 * odd + 1) * 2.0**-10, st.integers(min_value=0, max_value=2**20)
)


class TestRoundScore:
    """``round_score`` is ``round(x, SCORE_DECIMALS)``, float for float."""

    @settings(max_examples=2000, deadline=None)
    @given(
        st.floats(allow_nan=True, allow_infinity=True)
        | st.floats(min_value=0.0, max_value=1.0)
        | st.floats(min_value=1.07, max_value=1e6)
        | near_halves
        | exact_ties
    )
    @example(0.0)
    @example(-0.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(0.0009765625)  # x · 10^9 = 976562.5 exactly
    @example(0.3972363295)  # x · 10^9 rounds to a half the exact value is not
    @example(0.0141390175)
    @example(2.0**30 / 1e9)
    def test_equals_round_by_float_hex(self, x):
        assert round_score(x).hex() == round(x, SCORE_DECIMALS).hex()

    def test_combine_rounds_through_it(self):
        obj = objective()
        sw = obj.weights.structure
        for cost_sum, size, structure in ((0.1 + 0.2, 3, 0.0), (1.7, 4, 0.5)):
            average = cost_sum / size
            assert obj.combine(cost_sum, size, structure) == round_score(
                (1.0 - sw) * average + sw * structure
            )
