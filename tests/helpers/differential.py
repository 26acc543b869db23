"""The differential-testing harness behind the byte-identity suite.

Each optimised layer of the matching stack has one production path,
and the code it replaced lives on as a test oracle
(:mod:`helpers.oracles` tabulates them).  The four toggles here —
substrate, kernel, flat-search, numpy — each name the oracle context
that swaps one spec in for the duration of a run.

The byte-identity contract says any *combination* of these toggles
must produce byte-identical answer sets — same mappings, same score
floats, same order.  This module is the one place that contract is
mechanised: a seeded workload generator, the canonical answer encoding,
a runner that matches under any set of disabled toggles, and the
all-combinations assertion the property tests call.  One more
equality lives here for the same reason: a cost kernel derived across
a repository delta must equal a cold build of the new version
(:func:`assert_kernel_equals_cold`).

Runs happen under
:func:`~repro.matching.similarity.vectors.vector_thresholds` forced to
zero, so the vector forms actually execute on hypothesis-sized
workloads instead of ducking under their adaptive dispatch floors.

Each run builds a **fresh** :class:`ObjectiveFunction` (the workload's
memoised :class:`NameSimilarity` is shared — it is a pure value cache
both paths consume), so no run can serve another's cached matrices and
blunt the comparison.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from itertools import combinations

from helpers import oracles

from repro.matching import make_matcher
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.matching.similarity.vectors import vector_thresholds
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.schema.vocabulary import builtin_domains
from repro.util import rng

__all__ = [
    "ALL_TOGGLES",
    "DifferentialWorkload",
    "MATCHERS",
    "THRESHOLDS",
    "assert_combinations_identical",
    "assert_kernel_equals_cold",
    "canonical",
    "make_workload",
    "match_canonical",
    "toggle_subsets",
    "warm_kernel",
]

#: the named toggles, each mapping to its "run the spec" context
TOGGLE_CONTEXTS = {
    "substrate": oracles.substrate_off,
    "kernel": oracles.kernel_off,
    "flat-search": oracles.flat_search_off,
    "numpy": oracles.numpy_off,
}
ALL_TOGGLES = tuple(TOGGLE_CONTEXTS)

#: the matcher grid of the differential property tests — every system
#: of the reproduction, with small non-default parameters
MATCHERS = [
    ("exhaustive", {}),
    ("beam", {"beam_width": 4}),
    ("clustering", {"clusters_per_element": 2}),
    ("topk", {"candidates_per_element": 3}),
    ("hybrid", {"clusters_per_element": 2, "beam_width": 4}),
]

#: the threshold sweep: below, inside and above the interesting regime
THRESHOLDS = (0.05, 0.15, 0.3, 0.45)


@dataclass(frozen=True)
class DifferentialWorkload:
    """A seeded repository, its query set, and the shared name metric."""

    repository: object
    queries: tuple
    name_similarity: NameSimilarity

    def objective(self) -> ObjectiveFunction:
        """A fresh objective (cold substrate) over the shared metric."""
        return ObjectiveFunction(self.name_similarity)


def make_workload(
    repo_seed: int,
    num_schemas: int = 3,
    query_seed: int = 0,
    num_queries: int = 1,
    min_size: int = 5,
    max_size: int = 9,
    query_size: int = 3,
    with_thesaurus: bool = False,
) -> DifferentialWorkload:
    """A deterministic differential workload from two seeds.

    Mirrors the construction the substrate/kernel property tests always
    used: a generated repository, personal-schema queries extracted from
    its own schemas (so matches exist), optionally a thesaurus over the
    builtin domain vocabularies.
    """
    repository = generate_repository(
        GeneratorConfig(
            num_schemas=num_schemas,
            min_size=min_size,
            max_size=max_size,
            seed=repo_seed,
        )
    )
    thesaurus = (
        Thesaurus.from_vocabularies(
            builtin_domains().values(), coverage=0.6, seed=repo_seed
        )
        if with_thesaurus
        else None
    )
    queries = tuple(
        extract_personal_schema(
            rng.make_tagged(query_seed + index),
            repository.schemas()[(query_seed + index) % num_schemas],
            None,
            target_size=query_size,
            schema_id=f"prop-differential-query-{index}",
        )
        for index in range(num_queries)
    )
    return DifferentialWorkload(repository, queries, NameSimilarity(thesaurus))


def canonical(answer_set) -> bytes:
    """The canonical byte encoding of one answer set.

    ``repr`` of the ordered ``(item key, score)`` pairs — float bits
    count (``repr`` round-trips doubles exactly), answer order counts.
    """
    return repr(
        [(answer.item.key, answer.score) for answer in answer_set.answers()]
    ).encode()


def match_canonical(
    matcher_name: str,
    params: dict,
    workload: DifferentialWorkload,
    delta: float,
    disabled: tuple[str, ...] = (),
) -> tuple[bytes, ...]:
    """Match every workload query under the given disabled toggles.

    A fresh matcher over a fresh objective per call; returns one
    canonical encoding per query.  Unknown toggle names raise
    ``KeyError`` — a misspelled toggle must not silently test nothing.
    """
    matcher = make_matcher(matcher_name, workload.objective(), **params)
    with ExitStack() as stack:
        stack.enter_context(vector_thresholds(0, 0))
        for toggle in disabled:
            stack.enter_context(TOGGLE_CONTEXTS[toggle]())
        return tuple(
            canonical(matcher.match(query, workload.repository, delta))
            for query in workload.queries
        )


def toggle_subsets(toggles: tuple[str, ...] = ALL_TOGGLES):
    """Every subset of ``toggles``, smallest first (all-on ... all-off)."""
    for size in range(len(toggles) + 1):
        yield from combinations(toggles, size)


def assert_combinations_identical(
    matcher_name: str,
    params: dict,
    workload: DifferentialWorkload,
    thresholds: tuple[float, ...] = THRESHOLDS,
    toggles: tuple[str, ...] = ALL_TOGGLES,
) -> None:
    """The contract: every toggle combination, byte-identical answers.

    The reference run disables **all** the given toggles (the full
    pure-python specification); every other subset — including the
    empty one, all optimisations on — must reproduce it byte for byte
    at every threshold.  Failure messages carry (matcher, threshold,
    disabled subset) so a shrunk hypothesis example names the exact
    combination that diverged.
    """
    for delta in thresholds:
        reference = match_canonical(
            matcher_name, params, workload, delta, disabled=toggles
        )
        for subset in toggle_subsets(toggles):
            if subset == toggles:
                continue
            observed = match_canonical(
                matcher_name, params, workload, delta, disabled=subset
            )
            assert observed == reference, (
                matcher_name,
                delta,
                {"disabled": subset},
            )


def warm_kernel(kernel, elements, schemas):
    """Gather every ``(name, datatype)`` of ``elements`` against ``schemas``.

    Leaves ``kernel`` holding the rows and gathers a serving replica's
    kernel holds for those query labels; returns it.
    """
    for name, datatype in elements:
        for schema in schemas:
            kernel.gather(name, datatype, schema)
    return kernel


def assert_kernel_equals_cold(derived, repository, elements):
    """A derived kernel equals ``CostKernel(objective, repository)``.

    Compares everything a caller can observe: the universe order, every
    schema's label-id map, every carried cost row bit for bit against
    the cold kernel's :meth:`~CostKernel.row`, every gather of the
    ``(name, datatype)`` query ``elements`` against every schema
    (``repr``, so float bits and candidate order count), and the label
    list :meth:`~CostKernel.export_state` persists.  Carried rows are
    compared before any gather runs, so none of them is rebuilt first.
    Returns the cold kernel.
    """
    cold = CostKernel(derived.objective, repository)
    assert derived._labels == cold._labels
    for schema in repository:
        assert derived.schema_label_ids(schema) == cold.schema_label_ids(
            schema
        ), schema.schema_id
    for (label, datatype), row in list(derived._rows.items()):
        assert row.tobytes() == cold.row(label, datatype).tobytes(), label
    for name, datatype in elements:
        for schema in repository:
            assert repr(derived.gather(name, datatype, schema)) == repr(
                cold.gather(name, datatype, schema)
            ), (name, schema.schema_id)
    assert derived.export_state()["labels"] == cold.export_state()["labels"]
    return cold
