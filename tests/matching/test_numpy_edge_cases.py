"""Edge cases of the kernel's batched gather (and its python twin).

The batched gather's byte-identity proof leans on structural facts —
stable sorts break ties by position, costs are finite, padding sorts
last — that degenerate inputs stress hardest.  This module pins the
degenerate corners: empty repositories, single-element schemas,
all-identical labels (maximal ties), the threshold extremes 0.0 and
1.0, and the finiteness regression the batched sort order depends on
(NaN orders differently under numpy's sort than python's, so a NaN in
a kernel row would be the first byte-identity break).
"""

import math

import pytest

from helpers.differential import (
    DifferentialWorkload,
    assert_combinations_identical,
    match_canonical,
)
from helpers.oracles import numpy_off
from repro.errors import SchemaError
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.model import Datatype, Schema, SchemaElement
from repro.schema.mutations import extract_personal_schema
from repro.schema.repository import SchemaRepository
from repro.schema.vocabulary import builtin_domains
from repro.util import rng

_MATCHER_GRID = [
    ("exhaustive", {}),
    ("topk", {"candidates_per_element": 2}),
    ("hybrid", {"clusters_per_element": 2, "beam_width": 3}),
]


def _schema(schema_id: str, root_name: str, children) -> Schema:
    root = SchemaElement(root_name, Datatype.COMPLEX)
    for name, datatype in children:
        root.add_child(SchemaElement(name, datatype))
    return Schema(schema_id, root)


def _query(name: str = "query") -> Schema:
    return _schema(
        name,
        "person",
        [("name", Datatype.STRING), ("birth date", Datatype.DATE)],
    )


def _workload(repository, queries) -> DifferentialWorkload:
    return DifferentialWorkload(repository, tuple(queries), NameSimilarity())


class TestDegenerateWorkloads:
    def test_empty_repository_is_rejected(self):
        """The model forbids empty repositories — pin the invariant."""
        with pytest.raises(SchemaError):
            SchemaRepository("empty", [])

    def test_no_schema_large_enough(self):
        """Every schema smaller than the query: nothing matches, anywhere.

        The nearest legal degenerate to an empty repository — every
        per-schema search is skipped before any scoring work, on every
        toggle combination, and the canonical answer is the empty list.
        """
        repository = SchemaRepository(
            "undersized",
            [Schema("tiny", SchemaElement("name", Datatype.STRING))],
        )
        workload = _workload(repository, [_query()])
        for name, params in _MATCHER_GRID:
            assert_combinations_identical(name, params, workload)
            empty = match_canonical(name, params, workload, 0.45)
            assert empty == (repr([]).encode(),)

    def test_single_element_schemas(self):
        """One-element schemas and a one-element query still agree."""
        repository = SchemaRepository(
            "singletons",
            [
                Schema("lone-a", SchemaElement("name", Datatype.STRING)),
                Schema("lone-b", SchemaElement("title", Datatype.STRING)),
            ],
        )
        query = Schema("lone-q", SchemaElement("name", Datatype.STRING))
        workload = _workload(repository, [query])
        for name, params in _MATCHER_GRID:
            assert_combinations_identical(name, params, workload)

    def test_all_identical_labels(self):
        """Maximal ties: every candidate order is pure tie-breaking."""
        children = [("amount", Datatype.DECIMAL)] * 6
        repository = SchemaRepository(
            "identical",
            [
                _schema("dup-a", "amounts", children),
                _schema("dup-b", "amounts", children + children[:2]),
            ],
        )
        query = _schema(
            "dup-q",
            "amounts",
            [("amount", Datatype.DECIMAL), ("amount", Datatype.DECIMAL)],
        )
        workload = _workload(repository, [query])
        for name, params in _MATCHER_GRID:
            assert_combinations_identical(name, params, workload)

    def test_threshold_extremes(self):
        """δ = 0.0 (exact only) and δ = 1.0 (everything) agree byte for byte."""
        repo = generate_repository(
            GeneratorConfig(num_schemas=3, min_size=4, max_size=7, seed=13)
        )
        query = extract_personal_schema(
            rng.make_tagged(5),
            repo.schemas()[0],
            None,
            target_size=3,
            schema_id="edge-threshold-query",
        )
        workload = _workload(repo, [query])
        for name, params in _MATCHER_GRID:
            assert_combinations_identical(
                name, params, workload, thresholds=(0.0, 1.0)
            )


class TestKernelRowFiniteness:
    def test_kernel_rows_never_contain_nan_or_inf(self):
        """The regression the batched sort order depends on.

        Objective costs live in [0, 1]; a NaN or inf entering a kernel
        row would sort differently under numpy than under python's
        tuple sort and silently break byte-identity — so finiteness is
        pinned here, over a thesaurus-bearing objective (the richest
        cost surface) and every distinct label in the universe.
        """
        repo = generate_repository(
            GeneratorConfig(num_schemas=5, min_size=5, max_size=10, seed=23)
        )
        thesaurus = Thesaurus.from_vocabularies(
            builtin_domains().values(), coverage=0.8, seed=23
        )
        kernel = CostKernel(ObjectiveFunction(NameSimilarity(thesaurus)), repo)
        for label, datatype in list(kernel._labels):
            row = kernel.row(label, datatype)
            assert len(row) == kernel.distinct_labels
            for value in row:
                assert math.isfinite(value), (label, datatype, value)
                assert 0.0 <= value <= 1.0, (label, datatype, value)

    def test_gathers_finite_and_consistent_across_modes(self):
        """Gathered matrix rows stay finite on both execution paths."""
        repo = generate_repository(
            GeneratorConfig(num_schemas=4, min_size=4, max_size=9, seed=29)
        )
        objective = ObjectiveFunction(NameSimilarity())
        kernel = CostKernel(objective, repo)
        spec_kernel = CostKernel(objective, repo)
        query = extract_personal_schema(
            rng.make_tagged(3),
            repo.schemas()[2],
            None,
            target_size=3,
            schema_id="edge-gather-query",
        )
        for element in query.elements():
            for schema in repo:
                gathered = kernel.gather(
                    element.name, element.datatype, schema
                )
                with numpy_off():
                    spec = spec_kernel.gather(
                        element.name, element.datatype, schema
                    )
                assert gathered == spec
                costs, order = gathered
                assert sorted(order) == list(range(len(schema)))
                for value in costs:
                    assert math.isfinite(value)
