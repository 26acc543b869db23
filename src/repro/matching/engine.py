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
per-element minima, and the search *trims* each element's candidate
list to the targets whose static admissible bound

    (1−sw)/k · (cost[i][j] + Σ_{i'≠i} min-cost[i'])

fits under the threshold cutoff.  That static bound never exceeds the
dynamic bound the search computes at expansion time (the actual prefix
cost is at least the prefix of minima, and structure violations only
add), so every trimmed candidate is one branch-and-bound provably never
expands: the emitted mapping set is identical, candidate for candidate,
to the untrimmed search.  The tests keep the direct per-search scoring
and the untrimmed search as the executable specification
(``substrate_off`` in ``tests/helpers/oracles.py``).

Flattened search
----------------
:meth:`SchemaSearch.exhaustive` runs as an explicit-stack loop over
preallocated per-depth arrays: the ``used`` set is an integer bitmask,
ancestry checks are one shift against the schema's precomputed
per-target ancestor bitsets
(:meth:`~repro.schema.model.Schema.ancestor_masks`), and candidate rows
are flat tuples.  The bound arithmetic is expression-for-expression that
of the recursive generator it replaced, which the tests keep as the
executable specification (``recursive_exhaustive`` in
``tests/helpers/oracles.py``), so the emitted sequence is byte-identical.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.errors import MatchingError
from repro.matching.objective import ObjectiveFunction
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
    larger) provably emits nothing at ``delta_max``.  Incremental
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
    candidates: list[Sequence[int]]  # per query element, target ids sorted by cost
    min_rest: list[float]  # min_rest[i] = sum of per-element min costs for i..k-1
    parents: list[int | None]
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
        allowed: Sequence[Sequence[int]] | None = None,
    ):
        """``allowed[i]``, when given, restricts query element i's targets.

        ``None`` (or a ``None`` entry) means all elements of the schema
        are candidates.  An allowed list counts as a set: repeated ids
        are one candidate, and ids outside the schema are ignored.
        Costs come from the objective's similarity substrate, which
        builds the pair's
        :class:`~repro.matching.similarity.matrix.ScoreMatrix` on first
        use and serves it from cache afterwards.
        """
        self.query = query
        self.schema = schema
        self.objective = objective
        self._context = self._prepare(allowed)

    def _prepare(
        self, allowed: Sequence[Sequence[int]] | None
    ) -> _SearchContext | None:
        query, schema = self.query, self.schema
        k, m = len(query), len(schema)
        if m < k:
            return None  # injectivity impossible; no mappings exist
        matrix = self.objective.substrate().matrix(query, schema)
        costs = matrix.costs
        if allowed is None:
            # Unrestricted search: the context aliases the matrix's
            # candidate orders and suffix sums outright — ``min_rest``
            # *is* suffix_cost_sums(row_min), the shared accumulation, so
            # no per-search float work runs here.
            candidates: list[Sequence[int]] = list(matrix.candidate_order)
            min_rest: Sequence[float] = matrix.min_rest
        else:
            candidates = []
            row_best: list[float] = []
            for i in range(k):
                if allowed[i] is None:
                    candidates.append(matrix.candidate_order[i])
                    row_best.append(matrix.row_min[i])
                    continue
                valid = {j for j in allowed[i] if 0 <= j < m}
                if not valid:
                    return None  # some element has no candidate at all
                pairs = sorted((costs[i][j], j) for j in valid)
                candidates.append([j for _, j in pairs])
                row_best.append(pairs[0][0])  # cost-sorted: first is min
            min_rest = suffix_cost_sums(row_best)
        parents = query.parent_ids()
        num_edges = sum(1 for p in parents if p is not None)
        sw = self.objective.weights.structure
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

    def exhaustive(self, delta_max: float) -> Iterator[tuple[tuple[int, ...], float]]:
        """All injective assignments with Δ ≤ δmax, via branch-and-bound.

        Runs the flattened explicit-stack loop — an iterative DFS over
        preallocated arrays with ``used`` as an integer bitmask and
        ancestry read from the schema's precomputed
        :meth:`~repro.schema.model.Schema.ancestor_masks` — with bound
        arithmetic identical, expression for expression, to the recursive
        generator this loop replaced (kept as the executable
        specification in the tests).  The emitted mapping sequence is
        candidate-for-candidate identical to the reference — same
        assignments, same floats, same order — property-tested in
        ``tests/properties/test_prop_kernel.py``.
        """
        ctx = self._context
        if ctx is None:
            return
        cutoff = delta_max + _EPSILON
        candidates = self._trimmed_candidates(ctx, cutoff)
        if candidates is None:
            return
        k = len(ctx.query)
        # Flat per-depth frames, filled on descent and read on resume:
        # candidate rows as flat sequences with resume cursors, prefix
        # cost sums / violation counts (index d = state *before*
        # assigning depth d), the resolved parent target and the
        # already-multiplied structure term, the running assignment, and
        # `used` as a target-id bitmask.  Ancestry is one shift-and-test
        # against the schema's precomputed per-target ancestor bitsets.
        costs = ctx.costs
        min_rest = ctx.min_rest
        parents = ctx.parents
        element_share = ctx.element_share
        structure_share = ctx.structure_share
        num_edges = ctx.num_edges
        ancestor_masks = ctx.schema.ancestor_masks()
        combine = self.objective.combine
        assignment = [0] * k
        positions = [0] * k
        cost_sums = [0.0] * (k + 1)
        violations = [0] * (k + 1)
        parent_targets = [-1] * k  # parents[0] is the root's None
        structure_terms = [0.0] * k  # structure_share * violations[depth]
        used = 0
        depth = 0
        while depth >= 0:
            row = candidates[depth]
            cost_row = costs[depth]
            index = positions[depth]
            length = len(row)
            prefix_cost = cost_sums[depth]
            prefix_violations = violations[depth]
            structure_so_far = structure_terms[depth]
            tail_min = min_rest[depth + 1]
            parent_target = parent_targets[depth]
            chosen = -1
            while index < length:
                target = row[index]
                index += 1
                if (used >> target) & 1:
                    continue
                cost = cost_row[target]
                base_bound = (
                    element_share * (prefix_cost + cost + tail_min)
                    + structure_so_far
                )
                if base_bound > cutoff:
                    index = length  # candidates are cost-sorted; rest only worse
                    break
                new_violations = prefix_violations
                if parent_target >= 0 and not (
                    (ancestor_masks[target] >> parent_target) & 1
                ):
                    new_violations += 1
                    if base_bound + structure_share > cutoff:
                        continue  # violation pushed this one out; others may fit
                chosen = target
                chosen_cost = cost
                chosen_violations = new_violations
                break
            positions[depth] = index
            if chosen < 0:  # depth exhausted: backtrack, resume the parent
                depth -= 1
                if depth >= 0:
                    used ^= 1 << assignment[depth]
                continue
            assignment[depth] = chosen
            next_depth = depth + 1
            if next_depth == k:  # complete assignment: score and emit
                score = combine(
                    prefix_cost + chosen_cost,
                    k,
                    (chosen_violations / num_edges) if num_edges else 0.0,
                )
                if score <= cutoff:
                    yield tuple(assignment), score
                continue  # same depth; cursor already points at the next candidate
            used |= 1 << chosen
            cost_sums[next_depth] = prefix_cost + chosen_cost
            violations[next_depth] = chosen_violations
            structure_terms[next_depth] = structure_share * chosen_violations
            parent = parents[next_depth]
            parent_targets[next_depth] = (
                assignment[parent] if parent is not None else -1
            )
            positions[next_depth] = 0
            depth = next_depth

    # -- beam search ---------------------------------------------------------

    def beam(
        self, delta_max: float, beam_width: int
    ) -> Iterator[tuple[tuple[int, ...], float]]:
        """iMAP-style beam search: keep the ``beam_width`` most promising
        partial assignments per query element.

        Returned mappings score with the shared objective, so the result
        is always a subset of :meth:`exhaustive` at the same threshold.
        """
        if beam_width < 1:
            raise MatchingError(f"beam width must be >= 1, got {beam_width}")
        ctx = self._context
        if ctx is None:
            return
        cutoff = delta_max + _EPSILON
        candidates = self._trimmed_candidates(ctx, cutoff)
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
            score = self.objective.combine(
                cost_sum, k, (violations / ctx.num_edges) if ctx.num_edges else 0.0
            )
            if score <= delta_max + _EPSILON:
                yield assignment, score
