"""Test oracles: the specifications the production paths replaced.

Every optimised layer of the matching stack has one production path.
The code it replaced stays alive here, as the executable specification
the byte-identity suite diffs against:

=========== ========================================= =========================================
toggle      production path                           spec the context swaps in
=========== ========================================= =========================================
substrate   precomputed score matrices + exact        direct per-search scoring: each caller's
            candidate pruning                         substrate-less branch (``_substrate()``
                                                      answers ``None``)
kernel      interned label-universe cost rows +       per-matrix distinct-label build
            matrix gathers; the shared interned       (``ScoreMatrix.build`` without a kernel)
            cluster build                             and :func:`cluster_scan`
flat-search flattened explicit-stack branch-and-bound :func:`recursive_exhaustive`
numpy       vectorised gathers / sorts / bounds /     the python loops (``vectors._np`` is
            top-k cuts                                ``None``, as when numpy is absent)
=========== ========================================= =========================================

Each context manager patches attributes in-process only (one per
toggle, two for the kernel, which has two consumers) and restores them
on exit, also when the block raises.  Nothing here is visible to pool
or socket workers — differential runs are serial.

Two answer-set specs are plain functions, diffed against their
replacements by ``tests/properties/test_prop_answers.py``:

* :func:`fold_union` — the left fold of :meth:`AnswerSet.union` that
  pooled a suite's per-query sets (``AnswerSet.disjoint_union`` now);
* :func:`profile_by_threshold` — :func:`~repro.core.measures.measure`
  on one ``A^δ`` per threshold (``SystemProfile.from_answer_set``'s
  one-pass count now).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from contextlib import contextmanager
from unittest import mock

from repro.core.answers import AnswerSet
from repro.core.measures import Counts, measure
from repro.core.thresholds import ThresholdSchedule
from repro.matching.base import Matcher
from repro.matching.clustering import ElementCluster, ElementClusterer
from repro.matching.engine import _EPSILON, SchemaSearch
from repro.matching.similarity import vectors
from repro.matching.similarity.matrix import SimilaritySubstrate
from repro.schema.repository import SchemaRepository

__all__ = [
    "cluster_scan",
    "flat_search_off",
    "fold_union",
    "kernel_off",
    "numpy_off",
    "profile_by_threshold",
    "recursive_exhaustive",
    "substrate_off",
]


def recursive_exhaustive(
    search: SchemaSearch, delta_max: float
) -> Iterator[tuple[tuple[int, ...], float]]:
    """The recursive branch-and-bound: :meth:`SchemaSearch.exhaustive`'s spec.

    This is the PR-4 engine, kept verbatim as the executable
    specification the flattened loop is property-tested against and
    as the baseline half of ``benchmarks/bench_kernel.py``.  Both
    searches evaluate the same bound expressions on the same floats
    in the same order; only the control flow differs.
    """
    ctx = search._context
    if ctx is None:
        return
    cutoff = delta_max + _EPSILON
    candidates = search._trimmed_candidates(ctx, cutoff)
    if candidates is None:
        return
    k = len(ctx.query)
    assignment: list[int | None] = [None] * k
    used: set[int] = set()

    def recurse(
        depth: int, cost_sum: float, violations: int
    ) -> Iterator[tuple[tuple[int, ...], float]]:
        if depth == k:
            score = search.objective.combine(
                cost_sum,
                k,
                (violations / ctx.num_edges) if ctx.num_edges else 0.0,
            )
            if score <= delta_max + _EPSILON:
                yield tuple(assignment), score  # type: ignore[arg-type]
            return
        parent = ctx.parents[depth]
        parent_target = assignment[parent] if parent is not None else None
        structure_so_far = ctx.structure_share * violations
        for target in candidates[depth]:
            if target in used:
                continue
            cost = ctx.costs[depth][target]
            base_bound = (
                ctx.element_share
                * (cost_sum + cost + ctx.min_rest[depth + 1])
                + structure_so_far
            )
            if base_bound > cutoff:
                break  # candidates are cost-sorted; the rest only worse
            new_violations = violations
            if parent_target is not None and not ctx.schema.is_ancestor(
                parent_target, target
            ):
                new_violations += 1
                if base_bound + ctx.structure_share > cutoff:
                    continue  # violation pushed this one out; others may fit
            assignment[depth] = target
            used.add(target)
            yield from recurse(depth + 1, cost_sum + cost, new_violations)
            used.discard(target)
            assignment[depth] = None

    yield from recurse(0, 0.0, 0)


def cluster_scan(
    clusterer: ElementClusterer, repository: SchemaRepository
) -> list[ElementCluster]:
    """The reference greedy scan: every element against every cluster."""
    clusters: list[ElementCluster] = []
    for handle in repository.all_elements():
        best_cluster: ElementCluster | None = None
        best_score = clusterer.join_threshold
        for cluster in clusters:
            score = clusterer.name_similarity.similarity(
                cluster.leader_name, handle.name
            )
            if score >= best_score:
                best_cluster, best_score = cluster, score
        if best_cluster is None:
            best_cluster = ElementCluster(leader_name=handle.name)
            clusters.append(best_cluster)
        best_cluster.members.add(handle.key)
    return clusters


def fold_union(sets: Iterable[AnswerSet]) -> AnswerSet:
    """Pool answer sets by a left fold of :meth:`AnswerSet.union`.

    ``ScenarioSuite.run``'s pooling before ``AnswerSet.disjoint_union``:
    each step re-indexes and re-sorts the growing pool (quadratic in
    the number of sets) and silently keeps one copy of a shared item.
    """
    combined: AnswerSet | None = None
    for answers in sets:
        combined = answers if combined is None else combined.union(answers)
    assert combined is not None
    return combined


def profile_by_threshold(
    schedule: ThresholdSchedule, answers: AnswerSet, truth: Iterable[Hashable]
) -> tuple[Counts, ...]:
    """``measure(A^δ, H)`` at every δ: one answer set judged per threshold."""
    truth = frozenset(truth)
    return tuple(measure(answers.at_threshold(delta), truth) for delta in schedule)


def _no_substrate(matcher: Matcher) -> None:
    return None


def _no_kernel(
    substrate: SimilaritySubstrate, repository: SchemaRepository | None = None
) -> None:
    return None


@contextmanager
def substrate_off() -> Iterator[None]:
    """Match without the substrate: every caller's direct branch runs."""
    with mock.patch.object(Matcher, "_substrate", _no_substrate):
        yield


@contextmanager
def kernel_off() -> Iterator[None]:
    """The pre-kernel scoring path.

    Substrates build no :class:`~repro.matching.similarity.kernel
    .CostKernel` and see none, so every matrix takes the kernel-less
    build; clusterers run :func:`cluster_scan` per matcher instead of
    the shared interned build.
    """
    with (
        mock.patch.object(SimilaritySubstrate, "kernel", _no_kernel),
        mock.patch.object(ElementClusterer, "cluster", cluster_scan),
    ):
        yield


@contextmanager
def flat_search_off() -> Iterator[None]:
    """Exhaustive searches run :func:`recursive_exhaustive`."""
    with mock.patch.object(SchemaSearch, "exhaustive", recursive_exhaustive):
        yield


@contextmanager
def numpy_off() -> Iterator[None]:
    """Hide numpy from the vector layer: the python loops run."""
    with mock.patch.object(vectors, "_np", None):
        yield
