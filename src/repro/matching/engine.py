"""Per-schema mapping search: exact branch-and-bound and beam search.

All matchers funnel through this engine so that every system scores a
given mapping identically — the paper's single assumption.  The engine
enumerates injective assignments of query elements (in pre-order, so a
parent is always assigned before its children) to elements of one
repository schema.

Branch-and-bound is **exact with respect to the threshold**: the lower
bound is admissible (see below), so every mapping with Δ ≤ δmax is
emitted.  The exhaustive system S1 is this engine with no candidate
restriction; the non-exhaustive improvements restrict candidates
(clustering, top-k) or the frontier (beam) and thereby become subsets.

Admissible bound: with structure weight ``sw``, query size ``k`` and
``p`` query edges,

    Δ = (1−sw)·(Σ element costs)/k + sw·(violations)/p

For a partial assignment, replacing unassigned elements' costs by their
per-element minimum over the still-allowed candidates and counting only
already-decided edge violations can never overestimate the final score.

Similarity substrate + exact candidate pruning
----------------------------------------------
Every search reads its costs from the objective's similarity substrate
(:meth:`~repro.matching.objective.ObjectiveFunction.substrate`): the
precomputed :class:`~repro.matching.similarity.matrix.ScoreMatrix`
supplies the cost matrix, the cost-sorted candidate orders and the
per-element minima.  Before building any per-search state, a search
tests the matrix's ``min_rest[0]`` with :func:`threshold_unreachable`,
which is exact for every strategy and settles most searches of a
low-threshold sweep outright.  A surviving search *trims* each
element's candidate list to the targets whose static admissible bound

    (1−sw)/k · (cost[i][j] + Σ_{i'≠i} min-cost[i'])

fits under the threshold cutoff.  That static bound never exceeds the
dynamic bound the search computes at expansion time (the actual prefix
cost is at least the prefix of minima, and structure violations only
add), so every trimmed candidate is one branch-and-bound provably never
expands: the emitted mapping set is identical, candidate for candidate,
to the untrimmed search.  The tests keep the direct per-search scoring
and the search without the early exit or the trim as the executable
specification (``substrate_off`` in ``tests/helpers/oracles.py``).

List-filling search
-------------------
Each strategy fills and returns one list; no generator frame sits
between a found mapping and the caller.  :meth:`SchemaSearch.exhaustive`
runs one ``for`` loop per depth over the cost-sorted candidate rows,
with ``used`` as an integer bitmask and ancestry read as one shift
against the schema's precomputed per-target ancestor bitsets
(:meth:`~repro.schema.model.Schema.ancestor_masks`).  The last depth is
a leaf-only loop that scores each surviving target in line from the
two constants of :meth:`~repro.matching.objective.ObjectiveFunction
.combine_terms`.  :meth:`SchemaSearch.beam` keeps each level's best
states with one stable sort on the bound and a slice.  A restricted
search filters the matrix's ``(cost, id)``-sorted candidate orders
through its allowed sets.  Bound and score arithmetic is expression for
expression that of the code these loops replaced, which the tests keep
as the executable specification (``recursive_exhaustive``,
``nsmallest_beam`` and ``sorted_prepare`` in
``tests/helpers/oracles.py``), so every emitted sequence is
byte-identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import MatchingError
from repro.matching.objective import SCORE_DECIMALS, ObjectiveFunction
from repro.matching.similarity.matrix import suffix_cost_sums
from repro.schema.model import Schema

__all__ = [
    "SchemaSearch",
    "count_assignments",
    "threshold_unreachable",
]

_EPSILON = 1e-9
# Extra slack on the static pruning bound so float non-associativity can
# only ever keep a candidate the dynamic bound would also have kept.
_TRIM_SLACK = 1e-12

#: one search's results: ``(target_ids, score)`` in emission order
SearchResults = list[tuple[tuple[int, ...], float]]


def count_assignments(query_size: int, schema_size: int) -> int:
    """Number of injective assignments: the falling factorial m!/(m−k)!.

    The size of the per-schema search space; the paper's "exhaustive
    search of schema mappings needs exponential time" in concrete form.
    """
    if query_size < 0 or schema_size < 0:
        raise MatchingError("sizes must be non-negative")
    total = 1
    for i in range(query_size):
        total *= max(0, schema_size - i)
    return total


def threshold_unreachable(
    total_min_cost: float,
    query_size: int,
    structure_weight: float,
    delta_max: float,
) -> bool:
    """True when the static admissible bound proves the search empty.

    ``total_min_cost`` is the sum of per-query-element minimum costs over
    *all* targets of the schema, accumulated through
    :func:`~repro.matching.similarity.matrix.suffix_cost_sums` — the one
    definition of the float order that :class:`ScoreMatrix`, the search
    context and every caller of this test share, so
    ``matrix.min_rest[0]`` can be passed straight in.  The test
    reproduces the branch-and-bound's very
    first expansion check bit-for-bit: at depth 0 the cheapest candidate's
    bound is ``(1−sw)/k · (row_min[0] + min_rest[1]) = (1−sw)/k ·
    min_rest[0]`` (float addition is commutative), candidates are
    cost-sorted, and structure violations only add — so when this
    returns ``True``, *every* engine strategy (exhaustive, beam, and any
    candidate-restricted variant, whose per-row minima can only be
    larger) provably emits nothing at ``delta_max``.  Every search runs
    it first, before any per-search state is built, and incremental
    re-matching uses it to skip whole searches against delta-added
    schemas without risking byte-identity.
    """
    if query_size < 1:
        raise MatchingError(f"query_size must be >= 1, got {query_size!r}")
    share = (1.0 - structure_weight) / query_size
    return share * total_min_cost > delta_max + _EPSILON


@dataclass
class _SearchContext:
    """Precomputed per-(query, schema) state shared by both strategies."""

    query: Schema
    schema: Schema
    costs: Sequence[Sequence[float]]  # element cost matrix, query x target
    candidates: Sequence[Sequence[int]]  # per query element, target ids sorted by cost
    min_rest: Sequence[float]  # min_rest[i] = sum of per-element min costs for i..k-1
    parents: Sequence[int | None]
    num_edges: int
    element_share: float  # (1 - sw) / k
    structure_share: float  # sw / p  (0 when p == 0)


class SchemaSearch:
    """Mapping search over one repository schema for one query."""

    def __init__(
        self,
        query: Schema,
        schema: Schema,
        objective: ObjectiveFunction,
        allowed: Sequence[Sequence[int] | None] | None = None,
    ):
        """``allowed[i]``, when given, restricts query element i's targets.

        ``None`` (or a ``None`` entry) means all elements of the schema
        are candidates.  An allowed list counts as a set: repeated ids
        are one candidate, and ids outside the schema are ignored.
        Costs come from the objective's similarity substrate, which
        builds the pair's
        :class:`~repro.matching.similarity.matrix.ScoreMatrix` on first
        use and serves it from cache afterwards.  Nothing is read until
        a search runs.
        """
        self.query = query
        self.schema = schema
        self.objective = objective
        self.allowed = allowed

    def _context(self, delta_max: float) -> _SearchContext | None:
        """The search's state, or ``None`` when it provably emits nothing.

        Cheapest proof first: a schema smaller than the query hosts no
        injective mapping, and :func:`threshold_unreachable` on the
        cached matrix's ``min_rest[0]`` settles the search before any
        per-search state exists.  A restricted search then filters each
        of the matrix's ``(cost, id)``-sorted candidate orders through
        its allowed set, which keeps that order, and sums its own
        minima.
        """
        query, schema = self.query, self.schema
        k = len(query)
        if len(schema) < k:
            return None  # injectivity impossible; no mappings exist
        matrix = self.objective.substrate().matrix(query, schema)
        sw = self.objective.weights.structure
        if threshold_unreachable(matrix.min_rest[0], k, sw, delta_max):
            return None
        allowed = self.allowed
        candidates: Sequence[Sequence[int]]
        if allowed is None:
            # Unrestricted search: the context aliases the matrix's
            # candidate orders and suffix sums outright — ``min_rest``
            # *is* suffix_cost_sums(row_min), the shared accumulation, so
            # no per-search float work runs here.
            candidates = matrix.candidate_order
            min_rest = matrix.min_rest
        else:
            candidates = []
            row_best: list[float] = []
            for i in range(k):
                order = matrix.candidate_order[i]
                if allowed[i] is None:
                    candidates.append(order)
                    row_best.append(matrix.row_min[i])
                    continue
                members = set(allowed[i])
                kept = [j for j in order if j in members]
                if not kept:
                    return None  # some element has no candidate at all
                candidates.append(kept)
                row_best.append(matrix.costs[i][kept[0]])  # cost-sorted
            min_rest = suffix_cost_sums(row_best)
        parents = query.parent_ids()
        num_edges = len(parents) - parents.count(None)
        return _SearchContext(
            query=query,
            schema=schema,
            costs=matrix.costs,
            candidates=candidates,
            min_rest=min_rest,
            parents=parents,
            num_edges=num_edges,
            element_share=(1.0 - sw) / k,
            structure_share=(sw / num_edges) if num_edges else 0.0,
        )

    # -- exact candidate pruning --------------------------------------------

    def _trimmed_candidates(
        self, ctx: _SearchContext, cutoff: float
    ) -> list[Sequence[int]] | None:
        """Candidate lists cut to the targets that can still fit ``cutoff``.

        Drops target ``j`` from element ``i``'s (cost-sorted) list when
        the static bound ``element_share · (cost[i][j] + Σ other
        elements' minima)`` provably exceeds the cutoff — every such
        candidate would be refused by the dynamic bound at each of its
        expansions, so the emitted set is unchanged (module docstring).
        Returns ``None`` when some element keeps no candidate at all,
        which means the whole search is provably empty.
        """
        limit = cutoff + _TRIM_SLACK
        total_min = ctx.min_rest[0]
        share = ctx.element_share
        trimmed: list[Sequence[int]] = []
        for i, ids in enumerate(ctx.candidates):
            rest = total_min - (ctx.min_rest[i] - ctx.min_rest[i + 1])
            row = ctx.costs[i]
            keep = len(ids)
            for position, j in enumerate(ids):  # ids are cost-sorted
                if share * (row[j] + rest) > limit:
                    keep = position
                    break
            if keep == 0:
                return None
            trimmed.append(ids if keep == len(ids) else ids[:keep])
        return trimmed

    # -- exact enumeration --------------------------------------------------

    def exhaustive(self, delta_max: float) -> SearchResults:
        """All injective assignments with Δ ≤ δmax, via branch-and-bound.

        One ``for`` loop per depth over the trimmed, cost-sorted
        candidate rows; the last depth scores each surviving target in
        line (module docstring).  The returned sequence is
        candidate-for-candidate identical to the recursive generator
        kept as the executable specification in the tests — same
        assignments, same floats, same order — property-tested in
        ``tests/properties/test_prop_kernel.py``.
        """
        found: SearchResults = []
        ctx = self._context(delta_max)
        if ctx is None:
            return found
        cutoff = delta_max + _EPSILON
        candidates = self._trimmed_candidates(ctx, cutoff)
        if candidates is None:
            return found
        k = len(candidates)
        last = k - 1
        costs = ctx.costs
        min_rest = ctx.min_rest
        parents = ctx.parents
        element_share = ctx.element_share
        structure_share = ctx.structure_share
        ancestor_masks = ctx.schema.ancestor_masks()
        weight, structure_terms = self.objective.combine_terms(ctx.num_edges)
        emit = found.append
        leaf_row = candidates[last]
        leaf_costs = costs[last]
        leaf_tail = min_rest[k]
        leaf_parent = parents[last]

        def leaves(
            prefix: tuple[int, ...],
            prefix_cost: float,
            prefix_violations: int,
            used: int,
        ) -> None:
            # depth k−1: complete each prefix, score in line and emit
            structure_so_far = structure_share * prefix_violations
            parent_target = prefix[leaf_parent] if leaf_parent is not None else -1
            for target in leaf_row:
                if (used >> target) & 1:
                    continue
                cost = leaf_costs[target]
                base_bound = (
                    element_share * (prefix_cost + cost + leaf_tail)
                    + structure_so_far
                )
                if base_bound > cutoff:
                    break  # candidates are cost-sorted; the rest only worse
                violations = prefix_violations
                if parent_target >= 0 and not (
                    (ancestor_masks[target] >> parent_target) & 1
                ):
                    if base_bound + structure_share > cutoff:
                        continue  # violation pushed this one out; others may fit
                    violations += 1
                score = round(
                    weight * ((prefix_cost + cost) / k)
                    + structure_terms[violations],
                    SCORE_DECIMALS,
                )
                if score <= cutoff:
                    emit((prefix + (target,), score))

        def expand(
            depth: int,
            prefix: tuple[int, ...],
            prefix_cost: float,
            prefix_violations: int,
            used: int,
        ) -> None:
            # depths 0..k−2: extend the prefix by every target that fits
            row = candidates[depth]
            cost_row = costs[depth]
            tail_min = min_rest[depth + 1]
            structure_so_far = structure_share * prefix_violations
            parent = parents[depth]
            parent_target = prefix[parent] if parent is not None else -1
            at_leaves = depth + 1 == last
            for target in row:
                if (used >> target) & 1:
                    continue
                cost = cost_row[target]
                base_bound = (
                    element_share * (prefix_cost + cost + tail_min)
                    + structure_so_far
                )
                if base_bound > cutoff:
                    break  # candidates are cost-sorted; the rest only worse
                violations = prefix_violations
                if parent_target >= 0 and not (
                    (ancestor_masks[target] >> parent_target) & 1
                ):
                    if base_bound + structure_share > cutoff:
                        continue  # violation pushed this one out; others may fit
                    violations += 1
                if at_leaves:
                    leaves(
                        prefix + (target,), prefix_cost + cost, violations,
                        used | (1 << target),
                    )
                else:
                    expand(
                        depth + 1, prefix + (target,), prefix_cost + cost,
                        violations, used | (1 << target),
                    )

        if last == 0:
            leaves((), 0.0, 0, 0)
        else:
            expand(0, (), 0.0, 0, 0)
        # ``expand`` holds itself through its closure; emptying the cell
        # frees it now instead of leaving a cycle to the collector
        del expand
        return found

    # -- beam search ---------------------------------------------------------

    def beam(self, delta_max: float, beam_width: int) -> SearchResults:
        """iMAP-style beam search: keep the ``beam_width`` most promising
        partial assignments per query element.

        Each level's expansions are ordered by one stable sort on their
        bound and cut to the width, so ties keep expansion order.
        Returned mappings score with the shared objective, so the result
        is always a subset of :meth:`exhaustive` at the same threshold.
        """
        if beam_width < 1:
            raise MatchingError(f"beam width must be >= 1, got {beam_width}")
        found: SearchResults = []
        ctx = self._context(delta_max)
        if ctx is None:
            return found
        cutoff = delta_max + _EPSILON
        candidates = self._trimmed_candidates(ctx, cutoff)
        if candidates is None:
            return found
        k = len(candidates)
        costs = ctx.costs
        min_rest = ctx.min_rest
        element_share = ctx.element_share
        structure_share = ctx.structure_share
        ancestor_masks = ctx.schema.ancestor_masks()
        by_bound = itemgetter(0)
        # state: (bound, assignment tuple, used bitmask, cost_sum, violations)
        # — the bitmask is internal bookkeeping; selection sorts on the
        # bound alone, so the kept beam is the same
        states: list[tuple[float, tuple[int, ...], int, float, int]] = [
            (element_share * min_rest[0], (), 0, 0.0, 0)
        ]
        for depth in range(k):
            expansions: list[tuple[float, tuple[int, ...], int, float, int]] = []
            append = expansions.append
            row = candidates[depth]
            cost_row = costs[depth]
            tail_min = min_rest[depth + 1]
            parent = ctx.parents[depth]
            for _bound, assignment, used, cost_sum, violations in states:
                parent_target = assignment[parent] if parent is not None else -1
                structure_so_far = structure_share * violations
                for target in row:
                    if (used >> target) & 1:
                        continue
                    cost = cost_row[target]
                    base_bound = (
                        element_share * (cost_sum + cost + tail_min)
                        + structure_so_far
                    )
                    if base_bound > cutoff:
                        break
                    new_violations = violations
                    new_bound = base_bound
                    if parent_target >= 0 and not (
                        (ancestor_masks[target] >> parent_target) & 1
                    ):
                        new_violations += 1
                        new_bound += structure_share
                        if new_bound > cutoff:
                            continue
                    append((
                        new_bound,
                        assignment + (target,),
                        used | (1 << target),
                        cost_sum + cost,
                        new_violations,
                    ))
            if not expansions:
                return found
            expansions.sort(key=by_bound)
            states = expansions[:beam_width]
        weight, structure_terms = self.objective.combine_terms(ctx.num_edges)
        for _bound, assignment, _used, cost_sum, violations in states:
            score = round(
                weight * (cost_sum / k) + structure_terms[violations],
                SCORE_DECIMALS,
            )
            if score <= cutoff:
                found.append((assignment, score))
        return found
