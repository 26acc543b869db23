"""Test oracles: the specifications the production paths replaced.

Every optimised layer of the matching stack has one production path.
The code it replaced stays alive here, as the executable specification
the byte-identity suite diffs against:

=========== ========================================= =========================================
toggle      production path                           spec the context swaps in
=========== ========================================= =========================================
substrate   cached score matrices, the early exit     direct per-search scoring
            on ``min_rest[0]`` and the exact static   (:func:`direct_matrix`: one
            candidate trim                            ``cost_matrix`` call, the ``(cost, id)``
                                                      tuple sort), no early exit, no trim
kernel      interned label-universe cost rows +       per-matrix distinct-label build
            matrix gathers; the shared interned       (``ScoreMatrix.build`` without a kernel)
            cluster build                             and :func:`cluster_scan`
flat-search list-filling searches: one generated      the generator searches
            loop nest per query shape scoring leaves  :func:`recursive_exhaustive` and
            in line, a sorted and sliced beam, the    :func:`nsmallest_beam`, both on
            matrix's candidate orders cut by a cap    :func:`sorted_prepare`, scored
            and filtered through allowed sets         through ``combine``
numpy       the kernel's batched whole-repository     the one-schema python gather
            gather                                    (``kernel._np`` is ``None``, as when
                                                      numpy is absent)
=========== ========================================= =========================================

Each context manager patches attributes in-process only (three for
the substrate, which replaces three mechanisms, two for the kernel and
the searches, one for numpy) and restores them on exit, also when the
block raises.  Nothing here is visible to pool or socket workers —
differential runs are serial.

One more context swaps a spec into kernel derivation:
:func:`picked_migration` makes :meth:`CostKernel._carry_rows
<repro.matching.similarity.kernel.CostKernel._carry_rows>` copy each
carried cost row entry by entry through one ``itemgetter``
(:func:`picked_rows`) instead of one slice per run of consecutive label
ids; ``tests/matching/test_kernel.py`` and
``benchmarks/bench_kernel.py`` diff the rows of both by ``tobytes()``.

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

import heapq
from array import array
from collections import Counter
from collections.abc import Hashable, Iterable, Iterator
from contextlib import contextmanager
from operator import itemgetter
from unittest import mock

from repro.core.answers import Answer, AnswerSet
from repro.core.measures import Counts, measure
from repro.core.thresholds import ThresholdSchedule
from repro.errors import MatchingError
from repro.matching import engine as engine_module
from repro.matching.base import Matcher
from repro.matching.clustering import ElementCluster, ElementClusterer
from repro.matching.engine import _EPSILON, SchemaSearch, _SearchContext
from repro.matching.mapping import Mapping
from repro.matching.similarity import kernel as kernel_module
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.matrix import (
    ScoreMatrix,
    SimilaritySubstrate,
    suffix_cost_sums,
)
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
    "nsmallest_beam",
    "numpy_off",
    "pairwise_compute",
    "picked_migration",
    "picked_rows",
    "profile_by_threshold",
    "recursive_exhaustive",
    "scan_jaro",
    "scan_jaro_winkler",
    "sorted_prepare",
    "substrate_off",
]


def sorted_prepare(search: SchemaSearch) -> _SearchContext | None:
    """:meth:`SchemaSearch._context`'s spec: eager, with no early exit.

    Builds the whole search context up front, and gives a restricted
    or capped element the ids of its allowed list that fall inside the
    schema (and, under a cap, among its ``cap`` cheapest targets, as
    top-k cut them), deduplicated and sorted by ``(cost, id)`` tuples,
    where production cuts and filters the matrix's candidate order.
    """
    query, schema = search.query, search.schema
    k, m = len(query), len(schema)
    if m < k:
        return None  # injectivity impossible; no mappings exist
    matrix = search.objective.substrate().matrix(query, schema)
    costs = matrix.costs
    allowed, cap = search.allowed, search.cap
    if allowed is None and cap is None:
        candidates = list(matrix.candidate_order)
        min_rest = matrix.min_rest
    else:
        candidates = []
        row_best: list[float] = []
        for i in range(k):
            ids = None if allowed is None else allowed[i]
            if ids is None and cap is None:
                candidates.append(matrix.candidate_order[i])
                row_best.append(matrix.row_min[i])
                continue
            valid = set(range(m)) if ids is None else {j for j in ids if 0 <= j < m}
            if cap is not None:
                valid &= set(matrix.candidate_order[i][:cap])
            if not valid:
                return None  # some element has no candidate at all
            pairs = sorted((costs[i][j], j) for j in valid)
            candidates.append([j for _, j in pairs])
            row_best.append(pairs[0][0])  # cost-sorted: first is min
        min_rest = suffix_cost_sums(row_best)
    parents = query.parent_ids()
    num_edges = sum(1 for p in parents if p is not None)
    sw = search.objective.weights.structure
    return _SearchContext(
        query=query,
        schema=schema,
        costs=costs,
        candidates=candidates,
        min_rest=min_rest,
        parents=parents,
        num_edges=num_edges,
        element_share=(1.0 - sw) / k,
        structure_share=(sw / num_edges) if num_edges else 0.0,
    )


def recursive_exhaustive(
    search: SchemaSearch, delta_max: float
) -> Iterator[tuple[tuple[int, ...], float]]:
    """The recursive branch-and-bound: :meth:`SchemaSearch.exhaustive`'s spec.

    This is the PR-4 engine, kept verbatim as the executable
    specification the generated loop nests are property-tested against
    and as the baseline half of ``benchmarks/bench_kernel.py`` and
    ``benchmarks/bench_engine.py``.  It reads its context from
    :func:`sorted_prepare` and scores each complete assignment through
    :meth:`~repro.matching.objective.ObjectiveFunction.combine`.  Both
    searches evaluate the same bound expressions on the same floats
    in the same order; only the control flow differs.
    """
    ctx = sorted_prepare(search)
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


def nsmallest_beam(
    search: SchemaSearch, delta_max: float, beam_width: int
) -> Iterator[tuple[tuple[int, ...], float]]:
    """The generator beam: :meth:`SchemaSearch.beam`'s spec.

    The beam as it was before the list-filling search, verbatim: each
    level's states are picked by :func:`heapq.nsmallest` on the bound,
    the context comes from :func:`sorted_prepare`, final scores from
    :meth:`~repro.matching.objective.ObjectiveFunction.combine`, and a
    width below 1 raises only once the generator is first iterated.
    """
    if beam_width < 1:
        raise MatchingError(f"beam width must be >= 1, got {beam_width}")
    ctx = sorted_prepare(search)
    if ctx is None:
        return
    cutoff = delta_max + _EPSILON
    candidates = search._trimmed_candidates(ctx, cutoff)
    if candidates is None:
        return
    k = len(ctx.query)
    ancestor_masks = ctx.schema.ancestor_masks()
    # state: (bound, assignment tuple, used bitmask, cost_sum, violations)
    # — the bitmask is internal bookkeeping; selection sorts on the
    # bound alone, so the emitted beam is unchanged
    states: list[tuple[float, tuple[int, ...], int, float, int]] = [
        (ctx.element_share * ctx.min_rest[0], (), 0, 0.0, 0)
    ]
    for depth in range(k):
        expansions: list[
            tuple[float, tuple[int, ...], int, float, int]
        ] = []
        parent = ctx.parents[depth]
        for bound, assignment, used, cost_sum, violations in states:
            parent_target = assignment[parent] if parent is not None else None
            structure_so_far = ctx.structure_share * violations
            for target in candidates[depth]:
                if (used >> target) & 1:
                    continue
                cost = ctx.costs[depth][target]
                base_bound = (
                    ctx.element_share
                    * (cost_sum + cost + ctx.min_rest[depth + 1])
                    + structure_so_far
                )
                if base_bound > cutoff:
                    break
                new_violations = violations
                new_bound = base_bound
                if parent_target is not None and not (
                    (ancestor_masks[target] >> parent_target) & 1
                ):
                    new_violations += 1
                    new_bound += ctx.structure_share
                    if new_bound > cutoff:
                        continue
                expansions.append(
                    (
                        new_bound,
                        assignment + (target,),
                        used | (1 << target),
                        cost_sum + cost,
                        new_violations,
                    )
                )
        if not expansions:
            return
        states = heapq.nsmallest(beam_width, expansions, key=lambda s: s[0])
    for _bound, assignment, _used, cost_sum, violations in states:
        score = search.objective.combine(
            cost_sum, k, (violations / ctx.num_edges) if ctx.num_edges else 0.0
        )
        if score <= delta_max + _EPSILON:
            yield assignment, score


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


def _never_unreachable(*args) -> bool:
    return False


@contextmanager
def substrate_off() -> Iterator[None]:
    """Match without the substrate: direct costs, unpruned searches.

    Every search scores its pair through :func:`direct_matrix`, skips
    the early exit on the matrix's ``min_rest[0]`` and expands its full
    cost-sorted candidate lists; the cache, the kernel gathers, the
    early exit and the static trim never run.  The incremental
    re-match skip keeps its own reference to ``threshold_unreachable``.
    """
    with (
        mock.patch.object(SimilaritySubstrate, "matrix", direct_matrix),
        mock.patch.object(
            engine_module, "threshold_unreachable", _never_unreachable
        ),
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


def _listed_exhaustive(search: SchemaSearch, delta_max: float):
    return list(recursive_exhaustive(search, delta_max))


def _listed_beam(search: SchemaSearch, delta_max: float, beam_width: int):
    return list(nsmallest_beam(search, delta_max, beam_width))


@contextmanager
def flat_search_off() -> Iterator[None]:
    """Searches run the generator specs, drained into lists.

    :meth:`SchemaSearch.exhaustive` runs :func:`recursive_exhaustive`
    and :meth:`SchemaSearch.beam` runs :func:`nsmallest_beam`; each
    result is a list, as :meth:`Matcher.match_pair` returns it.
    """
    with (
        mock.patch.object(SchemaSearch, "exhaustive", _listed_exhaustive),
        mock.patch.object(SchemaSearch, "beam", _listed_beam),
    ):
        yield


def _picker(indices: list[int]):
    """``row -> tuple(row[i] for i in indices)`` as one C-level call.

    ``itemgetter`` returns a bare value for a single index, so that size
    is wrapped; callers never pass an empty list.
    """
    if len(indices) == 1:
        (index,) = indices
        return lambda row: (row[index],)
    return itemgetter(*indices)


def picked_rows(
    kernel: CostKernel, previous: CostKernel, remap: list[int]
) -> None:
    """:meth:`CostKernel._carry_rows` copying each row entry by entry.

    The spec the run copy replaced: the old→new map inverted into one
    old lid per new lid (placeholder 0 for a label new to the
    universe), every carried row gathered through it by one
    ``itemgetter`` call into a tuple of floats and back into an
    ``array('d')``, then every new label scored through
    :meth:`~repro.matching.objective.ObjectiveFunction.label_cost`.
    """
    labels = kernel._labels
    inverse = [-1] * len(labels)
    for old_lid, lid in enumerate(remap):
        if lid >= 0:
            inverse[lid] = old_lid
    fresh = [lid for lid, old_lid in enumerate(inverse) if old_lid < 0]
    if len(fresh) == len(labels):  # no label survived: score them all
        pick = None
    else:
        for lid in fresh:  # placeholder lanes, overwritten below
            inverse[lid] = 0
        pick = _picker(inverse)
    fresh_labels = [(lid, labels[lid]) for lid in fresh]
    label_cost = kernel.objective.label_cost
    for key, old_row in list(previous._rows.items())[-kernel.MAX_ROWS:]:
        query_label, query_datatype = key
        if pick is None:
            new_row = array("d", bytes(8 * len(labels)))
        else:
            new_row = array("d", pick(old_row))
        for lid, (target_label, target_datatype) in fresh_labels:
            new_row[lid] = label_cost(
                query_label, query_datatype, target_label, target_datatype
            )
        kernel._rows[key] = new_row
        kernel.rows_migrated += 1


@contextmanager
def picked_migration() -> Iterator[None]:
    """Derived kernels carry their cost rows through :func:`picked_rows`."""
    with mock.patch.object(CostKernel, "_carry_rows", picked_rows):
        yield


@contextmanager
def numpy_off() -> Iterator[None]:
    """Hide numpy from the cost kernel: the python gather runs."""
    with mock.patch.object(kernel_module, "_np", None):
        yield
