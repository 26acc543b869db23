"""Property test: branch-and-bound is exhaustive w.r.t. the threshold.

Random small schemas + random thresholds; the engine must return exactly
the brute-force answer set with identical scores.  This property is what
entitles the rest of the reproduction to call S1 "exhaustive".  The same
holds for a candidate-restricted search (``allowed=…``, what clustering
and top-k run): it must return exactly the brute-force assignments whose
every target is allowed — no fewer.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.engine import SchemaSearch
from repro.matching.mapping import Mapping
from repro.matching.objective import ObjectiveFunction, ObjectiveWeights
from repro.matching.similarity.name import NameSimilarity
from repro.schema.model import Datatype, Schema, SchemaElement
from repro.schema.repository import ElementHandle

NAMES = ["author", "title", "price", "year", "name", "code", "writer", "cost"]
TYPES = [Datatype.STRING, Datatype.INTEGER, Datatype.COMPLEX]


@st.composite
def random_schema(draw, schema_id: str, min_nodes: int, max_nodes: int):
    """A random small tree with random names/types."""
    size = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    nodes = [
        SchemaElement(
            draw(st.sampled_from(NAMES)), draw(st.sampled_from(TYPES))
        )
        for _ in range(size)
    ]
    for i in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        nodes[parent].add_child(nodes[i])
    return Schema(schema_id, nodes[0])


@st.composite
def engine_cases(draw):
    query = draw(random_schema("q", 1, 3))
    schema = draw(random_schema("s", 3, 6))
    delta = draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 1.0]))
    structure = draw(st.sampled_from([0.0, 0.25, 0.5]))
    return query, schema, delta, structure


def brute_force(query, schema, objective, delta_max, allowed=None):
    """Every injective assignment within δ, restricted to ``allowed``.

    ``allowed[i]`` (when given and not ``None``) lists query element
    ``i``'s permitted targets, as :class:`SchemaSearch` takes them.
    """
    out = {}
    for combo in itertools.permutations(range(len(schema)), len(query)):
        if allowed is not None and any(
            allowed[i] is not None and j not in allowed[i]
            for i, j in enumerate(combo)
        ):
            continue
        mapping = Mapping(
            query.schema_id,
            tuple(ElementHandle(schema, j) for j in combo),
        )
        score = objective.mapping_cost(query, mapping)
        if score <= delta_max:
            out[combo] = score
    return out


@settings(max_examples=60, deadline=None)
@given(engine_cases())
def test_branch_and_bound_equals_brute_force(case):
    query, schema, delta, structure = case
    objective = ObjectiveFunction(
        NameSimilarity(), ObjectiveWeights(structure=structure)
    )
    engine = dict(SchemaSearch(query, schema, objective).exhaustive(delta))
    reference = brute_force(query, schema, objective, delta)
    assert engine == reference


@settings(max_examples=40, deadline=None)
@given(engine_cases(), st.integers(min_value=1, max_value=12))
def test_beam_subset_of_exhaustive(case, beam_width):
    query, schema, delta, structure = case
    objective = ObjectiveFunction(
        NameSimilarity(), ObjectiveWeights(structure=structure)
    )
    search = SchemaSearch(query, schema, objective)
    full = dict(search.exhaustive(delta))
    beam = dict(search.beam(delta, beam_width))
    assert set(beam) <= set(full)
    for key, score in beam.items():
        assert score == full[key]


@st.composite
def restricted_cases(draw):
    """An engine case plus per-element allowed lists.

    Each list is ``None`` (unrestricted) or ids in shuffled order,
    possibly empty, possibly repeating an id (one candidate all the
    same), possibly naming ids outside the schema — the search must
    ignore those.
    """
    query, schema, delta, structure = draw(engine_cases())
    allowed = [
        draw(
            st.none()
            | st.lists(
                st.integers(min_value=-2, max_value=len(schema) + 1),
                max_size=len(schema) + 2,
            )
        )
        for _ in range(len(query))
    ]
    return query, schema, delta, structure, allowed


@settings(max_examples=80, deadline=None)
@given(restricted_cases())
def test_restricted_search_equals_restricted_brute_force(case):
    query, schema, delta, structure, allowed = case
    objective = ObjectiveFunction(
        NameSimilarity(), ObjectiveWeights(structure=structure)
    )
    search = SchemaSearch(query, schema, objective, allowed=allowed)
    emitted = list(search.exhaustive(delta))
    reference = brute_force(query, schema, objective, delta, allowed)
    # the list, not only a dict of it: a dict would hide a duplicate
    assert sorted(emitted) == sorted(reference.items())
    assert dict(emitted) == reference
