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
runs one plain function per query shape (the memoised
:meth:`~repro.schema.model.Schema.parent_ids` tuple): ``k`` nested
``for`` loops over the cost-sorted candidate rows, generated from one
source template (:func:`_chunk_source`) and compiled once into a
bounded cache that every thread shares.  The function reads each
depth's row, cost row and tail once per search and keeps the prefix in
locals: its targets (a target the prefix holds is skipped by
comparison), cost sum and violation count, with ancestry read as one
shift against the schema's per-target ancestor bitsets
(:meth:`~repro.schema.model.Schema.ancestor_masks`).  The last depth
scores each surviving target in line from the two constants of
:meth:`~repro.matching.objective.ObjectiveFunction.combine_terms`,
rounds it by the inlined text of
:data:`~repro.matching.objective.SCORE_ROUNDING`, and builds one
``(t0, …, tk-1)`` tuple per emitted mapping.  CPython refuses more than
20 statically nested blocks, so a query deeper than
:data:`_CHUNK_DEPTHS` chains generated chunks, the innermost loop of
one calling the next.  The generated source is built only from
integers — the depth count and the parent indices, checked to be
pre-ordered — never from labels or any other input.

:meth:`SchemaSearch.beam` keeps each level's best expansions with one
stable sort on the bound and a slice; an expansion is a ``(bound,
state index, target, extra violation)`` tuple, and only the survivors
are built into states.  A capped search (top-k) cuts the matrix's
``(cost, id)``-sorted candidate orders, and a restricted search filters
them through its allowed sets.  Bound and score arithmetic is
expression for expression that of the code these loops replaced, which
the tests keep as the executable specification
(``recursive_exhaustive``, ``nsmallest_beam`` and ``sorted_prepare`` in
``tests/helpers/oracles.py``), so every emitted sequence is
byte-identical.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import MatchingError
from repro.matching.objective import (
    SCORE_ROUNDING,
    ObjectiveFunction,
    round_score,
)
from repro.matching.similarity.matrix import suffix_cost_sums
from repro.schema.model import Schema
from repro.util.caching import fifo_put

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

#: depths one generated function nests: CPython refuses more than 20
#: statically nested blocks, so a deeper query chains functions
_CHUNK_DEPTHS = 16
#: compiled loop nests kept, one per query shape
_NEST_LIMIT = 256
#: query shape (``Schema.parent_ids()``) -> its compiled loop nest;
#: shared by every thread, so inserts and evictions hold the lock
_NESTS: dict[tuple[int | None, ...], Callable[..., None]] = {}
_NESTS_LOCK = threading.Lock()
_NEST_PARAMETERS = "rows, cost_rows, tails, masks, es, ss, cutoff, weight, terms, emit"


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


def _names(letter: str, depths: range) -> str:
    """``"t0, t1, "``: one generated local per depth, as a tuple body."""
    return "".join(f"{letter}{depth}, " for depth in depths)


def _chunk_source(parents: tuple[int | None, ...], start: int, stop: int) -> str:
    """Source of ``chunk``: the search loops of depths ``start..stop-1``.

    ``parents`` is the query shape; the text is built from its length
    and its parent indices alone.  ``chunk`` takes the search's rows,
    cost rows, tails and constants plus the prefix before ``start``:
    its targets, cost sum ``S`` and violation count ``V``.  Depth ``d``
    binds target ``t<d>`` and cost sum ``S<d>`` and, below a parent,
    violation count ``V<d>``.  The last depth scores in line and emits;
    a chunk that stops short of it hands each surviving prefix to the
    next chunk, ``nxt``.  Bound, violation and score expressions are
    those of the executable specification, on the same floats (module
    docstring).
    """
    k = len(parents)
    depths = range(start, stop)
    lines = [
        f"def chunk({_NEST_PARAMETERS}, prefix, S, V):",
        f"    ({_names('t', range(start))}) = prefix",
        f"    {_names('R', depths)}= rows[{start}:{stop}]",
        f"    {_names('C', depths)}= cost_rows[{start}:{stop}]",
        f"    {_names('M', range(start + 1, stop + 1))}= tails[{start + 1}:{stop + 1}]",
        "    G = ss * V",
    ]
    # names holding the prefix's cost sum, violations and structure term
    cost, violations, structure = "S", "V", "G"
    for depth in depths:
        pad = "    " * (1 + depth - start)
        body = pad + "    "
        lines.append(f"{pad}for t{depth} in R{depth}:")
        if depth:  # injective: skip the targets the prefix holds
            taken = " or ".join(f"t{depth} == t{j}" for j in range(depth))
            lines.append(f"{body}if {taken}: continue")
        lines.append(f"{body}S{depth} = {cost} + C{depth}[t{depth}]")
        lines.append(f"{body}B = es * (S{depth} + M{depth + 1}) + {structure}")
        lines.append(f"{body}if B > cutoff: break  # rows are cost-sorted")
        parent = parents[depth]
        if parent is not None:
            lines.append(f"{body}V{depth} = {violations}")
            lines.append(f"{body}if not (masks[t{depth}] >> t{parent}) & 1:")
            lines.append(f"{body}    if B + ss > cutoff: continue  # later targets may fit")
            lines.append(f"{body}    V{depth} += 1")
            violations = f"V{depth}"
        if depth == k - 1:
            lines.append(f"{body}x = weight * (S{depth} / {k}) + terms[{violations}]")
            lines.extend(body + line for line in SCORE_ROUNDING.splitlines())
            lines.append(f"{body}if x <= cutoff: emit((({_names('t', range(k))}), x))")
        elif depth == stop - 1:
            lines.append(
                f"{body}nxt({_NEST_PARAMETERS}, ({_names('t', range(stop))}), "
                f"S{depth}, {violations})"
            )
        elif parent is not None:
            lines.append(f"{body}G{depth} = ss * {violations}")
            structure = f"G{depth}"
        cost = f"S{depth}"
    return "\n".join(lines) + "\n"


def _compile_nest(parents: tuple[int | None, ...]) -> Callable[..., None]:
    """The exhaustive search for one query shape, as one function.

    Chunks of :data:`_CHUNK_DEPTHS` depths are compiled from the last
    to the first, each calling the next from its innermost loop.  The
    shape must be pre-ordered parent indices, so the generated text
    holds only integers and names of its own.
    """
    if not parents or any(
        parent is not None and not (type(parent) is int and 0 <= parent < depth)
        for depth, parent in enumerate(parents)
    ):
        raise MatchingError(f"not a pre-ordered query shape: {parents!r}")
    following = None
    for start in reversed(range(0, len(parents), _CHUNK_DEPTHS)):
        stop = min(start + _CHUNK_DEPTHS, len(parents))
        namespace = {"nxt": following}
        code = compile(
            _chunk_source(parents, start, stop),
            f"<search nest {start}-{stop - 1} of {len(parents)}>",
            "exec",
        )
        exec(code, namespace)
        # popped, so the namespace the function keeps does not hold it
        following = namespace.pop("chunk")
    return following


def _nest(parents: tuple[int | None, ...]) -> Callable[..., None]:
    """The compiled loop nest of one query shape, from the shared cache."""
    nest = _NESTS.get(parents)
    if nest is None:
        with _NESTS_LOCK:
            nest = _NESTS.get(parents)
            if nest is None:
                nest = _compile_nest(parents)
                fifo_put(_NESTS, parents, nest, _NEST_LIMIT)
    return nest


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
        cap: int | None = None,
    ):
        """``allowed[i]``, when given, restricts query element i's targets.

        ``None`` (or a ``None`` entry) means all elements of the schema
        are candidates.  An allowed list counts as a set: repeated ids
        are one candidate, and ids outside the schema are ignored.
        ``cap``, when given, keeps only each element's ``cap`` cheapest
        targets (ties by id) before any allowed set filters them.
        Costs come from the objective's similarity substrate, which
        builds the pair's
        :class:`~repro.matching.similarity.matrix.ScoreMatrix` on first
        use and serves it from cache afterwards.  Nothing is read until
        a search runs.
        """
        if cap is not None and cap < 1:
            raise MatchingError(f"cap must be >= 1, got {cap!r}")
        self.query = query
        self.schema = schema
        self.objective = objective
        self.allowed = allowed
        self.cap = cap

    def _context(self, delta_max: float) -> _SearchContext | None:
        """The search's state, or ``None`` when it provably emits nothing.

        Cheapest proof first: a schema smaller than the query hosts no
        injective mapping, and :func:`threshold_unreachable` on the
        cached matrix's ``min_rest[0]`` settles the search before any
        per-search state exists.  A capped search then cuts each of the
        matrix's ``(cost, id)``-sorted candidate orders to its first
        ``cap`` targets: the cheapest target is inside every cut, so the
        matrix's minima stay the search's.  A restricted search filters
        each order through its allowed set, which keeps that order, and
        sums its own minima.
        """
        query, schema = self.query, self.schema
        k = len(query)
        if len(schema) < k:
            return None  # injectivity impossible; no mappings exist
        matrix = self.objective.substrate().matrix(query, schema)
        sw = self.objective.weights.structure
        if threshold_unreachable(matrix.min_rest[0], k, sw, delta_max):
            return None
        allowed, cap = self.allowed, self.cap
        orders: Sequence[Sequence[int]] = matrix.candidate_order
        if cap is not None:
            orders = [order[:cap] for order in orders]
        candidates: Sequence[Sequence[int]]
        if allowed is None:
            # Unrestricted search: the context aliases the matrix's
            # candidate orders (or their cuts) and suffix sums outright —
            # ``min_rest`` *is* suffix_cost_sums(row_min), the shared
            # accumulation, so no per-search float work runs here.
            candidates = orders
            min_rest = matrix.min_rest
        else:
            candidates = []
            row_best: list[float] = []
            for i in range(k):
                order = orders[i]
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

        Runs the query shape's compiled loop nest over the trimmed,
        cost-sorted candidate rows (module docstring).  The returned
        sequence is candidate-for-candidate identical to the recursive
        generator kept as the executable specification in the tests —
        same assignments, same floats, same order — property-tested in
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
        weight, structure_terms = self.objective.combine_terms(ctx.num_edges)
        _nest(ctx.parents)(
            candidates, ctx.costs, ctx.min_rest, ctx.schema.ancestor_masks(),
            ctx.element_share, ctx.structure_share, cutoff, weight,
            structure_terms, found.append, (), 0.0, 0,
        )
        return found

    # -- beam search ---------------------------------------------------------

    def beam(self, delta_max: float, beam_width: int) -> SearchResults:
        """iMAP-style beam search: keep the ``beam_width`` most promising
        partial assignments per query element.

        Each level's expansions are ordered by one stable sort on their
        bound and cut to the width, so ties keep expansion order; only
        the survivors are built into states.  Returned mappings score
        with the shared objective, so the result is always a subset of
        :meth:`exhaustive` at the same threshold.
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
        # state: (assignment tuple, used bitmask, cost_sum, violations)
        states: list[tuple[tuple[int, ...], int, float, int]] = [((), 0, 0.0, 0)]
        for depth in range(k):
            # expansion: (bound, state index, target, extra violation)
            expansions: list[tuple[float, int, int, int]] = []
            append = expansions.append
            row = candidates[depth]
            cost_row = costs[depth]
            tail_min = min_rest[depth + 1]
            parent = ctx.parents[depth]
            for index, (assignment, used, cost_sum, violations) in enumerate(
                states
            ):
                parent_target = assignment[parent] if parent is not None else -1
                structure_so_far = structure_share * violations
                for target in row:
                    if (used >> target) & 1:
                        continue
                    base_bound = (
                        element_share * (cost_sum + cost_row[target] + tail_min)
                        + structure_so_far
                    )
                    if base_bound > cutoff:
                        break
                    if parent_target >= 0 and not (
                        (ancestor_masks[target] >> parent_target) & 1
                    ):
                        new_bound = base_bound + structure_share
                        if new_bound > cutoff:
                            continue
                        append((new_bound, index, target, 1))
                    else:
                        append((base_bound, index, target, 0))
            if not expansions:
                return found
            expansions.sort(key=by_bound)
            survivors = []
            for _bound, index, target, extra in expansions[:beam_width]:
                assignment, used, cost_sum, violations = states[index]
                survivors.append((
                    assignment + (target,),
                    used | (1 << target),
                    cost_sum + cost_row[target],
                    violations + extra,
                ))
            states = survivors
        weight, structure_terms = self.objective.combine_terms(ctx.num_edges)
        for assignment, _used, cost_sum, violations in states:
            score = round_score(
                weight * (cost_sum / k) + structure_terms[violations]
            )
            if score <= cutoff:
                found.append((assignment, score))
        return found
