"""Test oracles: the specifications the production paths replaced.

Every optimised layer of the matching stack has one production path.
The code it replaced stays alive here, as the executable specification
the byte-identity suite diffs against:

=========== ========================================= =========================================
toggle      production path                           spec the context swaps in
=========== ========================================= =========================================
substrate   cached score matrices + exact static      direct per-search scoring
            candidate trim                            (:func:`direct_matrix`: one
                                                      ``cost_matrix`` call, the ``(cost, id)``
                                                      tuple sort) and no trim
kernel      interned label-universe cost rows +       per-matrix distinct-label build
            matrix gathers; the shared interned       (``ScoreMatrix.build`` without a kernel)
            cluster build                             and :func:`cluster_scan`
flat-search flattened explicit-stack branch-and-bound :func:`recursive_exhaustive`
numpy       the kernel's batched whole-repository     the one-schema python gather
            gather                                    (``kernel._np`` is ``None``, as when
                                                      numpy is absent)
=========== ========================================= =========================================

Each context manager patches attributes in-process only (one per
toggle, two for the substrate and the kernel, which each replace two
mechanisms) and restores them on exit, also when the block raises.
Nothing here is visible to pool or socket workers — differential runs
are serial.

Three answer-set specs are plain functions, diffed against their
replacements by ``tests/properties/test_prop_answers.py`` and
``tests/properties/test_prop_columns.py``:

* :func:`eager_assemble` — :meth:`Matcher.assemble` building one
  :class:`~repro.matching.mapping.Mapping` and one
  :class:`~repro.core.answers.Answer` per search result (the column
  answer set, which builds them on first read, now);
* :func:`fold_union` — the left fold of :meth:`AnswerSet.union` that
  pooled a suite's per-query sets (``AnswerSet.disjoint_union`` now);
* :func:`profile_by_threshold` — :func:`~repro.core.measures.measure`
  on one ``A^δ`` per threshold (``SystemProfile.from_answer_set``'s
  one-pass count now).

The name-similarity specs are plain functions too, diffed float for
float (``float.hex``) by ``tests/properties/test_prop_text.py`` and
replayed against the production code by
``benchmarks/bench_name_similarity.py``:

* :func:`scan_jaro` — :func:`~repro.util.text.jaro` testing every
  window position character by character (the position-indexed scan
  now), and :func:`scan_jaro_winkler` on top of it;
* :func:`counter_dice` — :func:`~repro.util.text.dice_coefficient`
  intersecting the profiles with ``Counter &`` (an integer loop over
  the shared grams now), and :func:`counter_ngram_similarity`;
* :func:`pairwise_compute` — :meth:`NameSimilarity._compute
  <repro.matching.similarity.name.NameSimilarity._compute>` deriving
  both labels' profiles and token sets for every pair (read from the
  per-label feature table now).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator
from contextlib import contextmanager
from unittest import mock

from repro.core.answers import Answer, AnswerSet
from repro.core.measures import Counts, measure
from repro.core.thresholds import ThresholdSchedule
from repro.matching.base import Matcher
from repro.matching.clustering import ElementCluster, ElementClusterer
from repro.matching.engine import _EPSILON, SchemaSearch
from repro.matching.mapping import Mapping
from repro.matching.similarity import kernel as kernel_module
from repro.matching.similarity.matrix import ScoreMatrix, SimilaritySubstrate
from repro.matching.similarity.name import NameSimilarity
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository
from repro.util.text import jaccard, longest_common_prefix, ngram_profile

__all__ = [
    "cluster_scan",
    "counter_dice",
    "counter_ngram_similarity",
    "direct_matrix",
    "eager_assemble",
    "flat_search_off",
    "fold_union",
    "kernel_off",
    "numpy_off",
    "pairwise_compute",
    "profile_by_threshold",
    "recursive_exhaustive",
    "scan_jaro",
    "scan_jaro_winkler",
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


def eager_assemble(
    matcher: Matcher,
    query: Schema,
    repository: SchemaRepository,
    pair_results: dict[str, list[tuple[tuple[int, ...], float]]],
    delta_max: float,
) -> AnswerSet:
    """:meth:`Matcher.assemble`'s spec: one mapping and answer per result.

    Builds mappings in repository order, checking ``max_answers`` after
    each schema, and sorts them in the eager :class:`AnswerSet`
    constructor.
    """
    answers: list[Answer] = []
    append = answers.append
    from_search = Mapping._from_search
    query_id = query.schema_id
    for schema in repository:
        results = pair_results[schema.schema_id]
        if not results:
            continue
        for target_ids, score in results:
            append(Answer(from_search(query_id, schema, target_ids), score))
        matcher.check_capacity(len(answers), delta_max)
    return AnswerSet(answers)


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


def scan_jaro(a: str, b: str) -> float:
    """Jaro similarity by a scan of every window position: ``jaro``'s spec."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)

    match_a = [False] * len_a
    match_b = [False] * len_b
    matches = 0
    for i, char_a in enumerate(a):
        lo = max(0, i - window)
        hi = min(len_b, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == char_a:
                match_a[i] = True
                match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i in range(len_a):
        if match_a[i]:
            while not match_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def scan_jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """``jaro_winkler``'s spec: :func:`scan_jaro` boosted by the prefix."""
    base = scan_jaro(a, b)
    prefix = min(longest_common_prefix(a, b), 4)
    return base + prefix * prefix_scale * (1.0 - base)


def counter_dice(profile_a: Counter, profile_b: Counter) -> float:
    """Dice of two multisets through ``Counter &``: ``dice_coefficient``'s spec."""
    size_a = sum(profile_a.values())
    size_b = sum(profile_b.values())
    if size_a == 0 and size_b == 0:
        return 1.0
    if size_a == 0 or size_b == 0:
        return 0.0
    overlap = sum((profile_a & profile_b).values())
    return 2.0 * overlap / (size_a + size_b)


def counter_ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """``ngram_similarity``'s spec: :func:`counter_dice` of fresh profiles."""
    return counter_dice(ngram_profile(a, n=n), ngram_profile(b, n=n))


def pairwise_compute(similarity: NameSimilarity, na: str, nb: str) -> float:
    """:meth:`NameSimilarity._compute`'s spec: every feature derived per pair.

    Builds both labels' trigram profiles and token sets for each call
    and scores Jaro by :func:`scan_jaro`; the blend, ramp and thesaurus
    floor are the ones ``_compute`` applies to its cached features.
    """
    if not na or not nb:
        return 0.0
    if na == nb:
        return 1.0
    blend = (
        similarity.jaro_weight * scan_jaro_winkler(na, nb)
        + similarity.ngram_weight * counter_ngram_similarity(na, nb)
        + similarity.token_weight * jaccard(na.split(), nb.split())
    )
    lexical = max(0.0, blend - similarity.ramp_low) / (1.0 - similarity.ramp_low)
    if similarity.thesaurus is not None and (
        similarity.thesaurus.synonymous_normalised(na, nb)
    ):
        return max(lexical, similarity.thesaurus_score)
    return lexical


def _no_kernel(
    substrate: SimilaritySubstrate, repository: SchemaRepository | None = None
) -> None:
    return None


def direct_matrix(
    substrate: SimilaritySubstrate, query: Schema, schema: Schema
) -> ScoreMatrix:
    """One pair's matrix, scored the way a search did before the substrate.

    :meth:`SimilaritySubstrate.matrix`'s spec: one
    :meth:`~repro.matching.objective.ObjectiveFunction.cost_matrix` call,
    candidate orders by the ``(cost, id)`` tuple sort, no cache and no
    kernel.
    """
    costs = tuple(
        tuple(row) for row in substrate.objective.cost_matrix(query, schema)
    )
    orders = tuple(
        tuple(j for _, j in sorted(zip(row, range(len(row))))) for row in costs
    )
    return ScoreMatrix(
        query.content_digest(), schema.content_digest(), costs, orders
    )


def _untrimmed(search: SchemaSearch, ctx, cutoff: float):
    return ctx.candidates


@contextmanager
def substrate_off() -> Iterator[None]:
    """Match without the substrate: direct costs, untrimmed searches.

    Every search scores its pair through :func:`direct_matrix` and
    expands its full cost-sorted candidate lists; the cache, the kernel
    gathers and the static trim never run.
    """
    with (
        mock.patch.object(SimilaritySubstrate, "matrix", direct_matrix),
        mock.patch.object(SchemaSearch, "_trimmed_candidates", _untrimmed),
    ):
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
    """Hide numpy from the cost kernel: the python gather runs."""
    with mock.patch.object(kernel_module, "_np", None):
        yield
