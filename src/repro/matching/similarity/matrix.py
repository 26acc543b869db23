"""The similarity substrate: precomputed score matrices.

The paper's premise is that matching is the expensive part ("exhaustive
search of schema mappings needs exponential time") while the bounds math
is free — yet recomputing the per-element cost of every (query element,
target element) pair on every search construction multiplies that
expense across matchers, thresholds and pipeline shards.  This module
materialises the pairwise similarity work **once** and shares it:

* :class:`ScoreMatrix` — for one (query, schema) pair under one
  :class:`~repro.matching.objective.ObjectiveFunction`, the full exact
  per-element cost matrix, each row's cost-sorted candidate order, and
  the per-element minima / suffix sums the branch-and-bound admissible
  bound reads directly.
* :class:`SimilaritySubstrate` — the per-objective matrix cache, keyed
  by schema *content* digests (like the pipeline's candidate cache), so
  workload rebuilds and repository shards share entries instead of
  recomputing them.  It also owns the repository scoring kernel
  (:class:`~repro.matching.similarity.kernel.CostKernel`), the one
  per-repository label structure: it interns each distinct (normalised
  label, datatype) pair of the repository, follows repository deltas
  by derivation, and turns :meth:`ScoreMatrix.build` into a gather over
  interned cost rows.  A schema the kernel does not cover builds its
  matrix directly, one cost per distinct (label, datatype) pair of that
  (query, schema) pair.

Every search takes its costs from here
(:class:`~repro.matching.engine.SchemaSearch` reads
``objective.substrate().matrix(query, schema)``); there is no second
scoring path in production.

Exactness
---------
The substrate never changes an answer set.  Matrix entries are produced
by the very same :meth:`ObjectiveFunction.label_cost` expression the
per-pair definition (:meth:`ObjectiveFunction.cost_matrix`) evaluates,
so they are bit-identical floats; candidate orders use the same
``(cost, target_id)`` sort key as the engine.  The threshold-driven
candidate pruning the engine layers on top
(:meth:`~repro.matching.engine.SchemaSearch`) only drops a pair
``(i, j)`` when the certified lower bound of *any* complete mapping
assigning query element ``i`` to target ``j`` —

    (1 − sw)/k · (cost[i][j] + Σ_{i' ≠ i} min_j' cost[i'][j'])

(structure violations can only add to it) — already exceeds the
threshold cutoff, i.e. exactly the pairs the branch-and-bound's own
admissible bound would refuse to expand.  The property suite
(``tests/properties/test_prop_substrate.py``) asserts byte-identical
answer sets against the direct path for every matcher across a
threshold sweep: the ``substrate_off`` oracle in
``tests/helpers/oracles.py`` scores each search with one
``cost_matrix`` call and the ``(cost, id)`` tuple sort, and runs it
untrimmed.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import MatchingError
from repro.matching.similarity.kernel import CostKernel
from repro.schema.model import Schema
from repro.schema.repository import ElementHandle, SchemaRepository

__all__ = [
    "ScoreMatrix",
    "SimilaritySubstrate",
    "SubstrateStats",
    "suffix_cost_sums",
]

#: (label, datatype) groups: representative element id -> all ids sharing
#: the representative's exact label and datatype, in pre-order
LabelGroups = tuple[tuple[int, tuple[int, ...]], ...]

def suffix_cost_sums(row_minima) -> tuple[float, ...]:
    """``out[i] = Σ row_minima[i:]``, accumulated last row to first.

    The admissible bound's "optimistic completion" term.  This is the
    *single* definition of the accumulation order: :class:`ScoreMatrix`,
    the engine's search context and the incremental re-match skip bound
    all sum through here, so their floats are bit-identical by
    construction — byte-identity of pruning decisions depends on it.
    Returns length ``len(row_minima) + 1`` (the trailing 0.0 included).
    """
    out = [0.0] * (len(row_minima) + 1)
    for i in range(len(row_minima) - 1, -1, -1):
        out[i] = out[i + 1] + row_minima[i]
    return tuple(out)


def _candidate_order(row) -> tuple[int, ...]:
    """Target ids of one cost row, sorted by the engine's ``(cost, id)``.

    The candidate-order sort of the direct (kernel-less) build and the
    snapshot restore path.
    """
    return tuple(j for _, j in sorted(zip(row, range(len(row)))))


def _label_groups(schema: Schema) -> LabelGroups:
    """Element ids grouped by exact (label, datatype), pre-order within."""
    groups: dict[tuple[str, object], list[int]] = {}
    for element_id, element in enumerate(schema.elements()):
        groups.setdefault((element.name, element.datatype), []).append(element_id)
    return tuple(
        (members[0], tuple(members)) for members in groups.values()
    )


class ScoreMatrix:
    """Exact per-element cost matrix of one (query, schema) pair.

    ``costs[i][j]`` is precisely
    :meth:`ObjectiveFunction.element_cost(query.element(i),
    ElementHandle(schema, j))` — same calls, bit-identical floats.
    Derived fields feed the engine's admissible bound without per-search
    rework:

    * ``candidate_order[i]`` — target ids sorted by ``(cost, id)``, the
      engine's expansion order;
    * ``row_min[i]`` — cheapest cost of query element ``i``;
    * ``min_rest[i]`` — ``Σ row_min[i:]`` (suffix sums, length k+1), the
      bound's "optimistic completion" term.
    """

    __slots__ = ("query_digest", "schema_digest", "costs", "candidate_order",
                 "row_min", "min_rest")

    def __init__(
        self,
        query_digest: str,
        schema_digest: str,
        costs: tuple[tuple[float, ...], ...],
        candidate_order: tuple[tuple[int, ...], ...],
    ):
        self.query_digest = query_digest
        self.schema_digest = schema_digest
        self.costs = costs
        self.candidate_order = candidate_order
        self.row_min = tuple(min(row) for row in costs)
        self.min_rest = suffix_cost_sums(self.row_min)

    def __getstate__(self):
        # pickle only the defining fields: derived minima/suffix sums
        # recompute identically in microseconds
        return (
            self.query_digest,
            self.schema_digest,
            self.costs,
            self.candidate_order,
        )

    def __setstate__(self, state):
        self.__init__(*state)

    @property
    def query_size(self) -> int:
        return len(self.costs)

    @property
    def schema_size(self) -> int:
        return len(self.costs[0]) if self.costs else 0

    @classmethod
    def build(
        cls,
        objective,
        query: Schema,
        schema: Schema,
        kernel: CostKernel | None = None,
    ) -> "ScoreMatrix":
        """Compute the matrix, one cost per distinct (label, datatype) pair.

        With a ``kernel``
        (:class:`~repro.matching.similarity.kernel.CostKernel`) that
        knows the schema's content, the matrix is a pure **gather**: each
        distinct query row indexes the kernel's precomputed cost row with
        the schema's interned label ids and evaluates no similarity at
        all — the costs are the bit-identical floats of the per-pair
        definition, because kernel entries come from the same
        :meth:`~repro.matching.objective.ObjectiveFunction.label_cost`
        expression.

        Without one, the schema's elements are grouped by exact (label,
        datatype) and one cost is computed per distinct pair of this
        (query, schema) pair.  Either way, candidate orders sort
        ``(cost, id)`` pairs directly (no per-id key calls), duplicate
        rows/columns alias the same tuples, and repetitive repositories
        cost proportionally to their *distinct* label surface.
        """
        row_groups = _label_groups(query)
        size = len(schema)
        rows: list[tuple[float, ...] | None] = [None] * len(query)
        orders: list[tuple[int, ...] | None] = [None] * len(query)
        use_kernel = (
            kernel is not None and kernel.schema_label_ids(schema) is not None
        )
        columns = None if use_kernel else _label_groups(schema)
        for representative, members in row_groups:
            element = query.element(representative)
            if use_kernel:
                frozen, order = kernel.gather(
                    element.name, element.datatype, schema
                )
            else:
                row = [0.0] * size
                for column_rep, column_members in columns:
                    cost = objective.element_cost(
                        element, ElementHandle(schema, column_rep)
                    )
                    for j in column_members:
                        row[j] = cost
                frozen = tuple(row)
                order = _candidate_order(frozen)
            for i in members:
                rows[i] = frozen
                orders[i] = order
        return cls(
            query.content_digest(),
            schema.content_digest(),
            tuple(rows),  # type: ignore[arg-type]
            tuple(orders),  # type: ignore[arg-type]
        )

    @classmethod
    def restore(
        cls,
        query_digest: str,
        schema_digest: str,
        costs,
    ) -> "ScoreMatrix":
        """Rebuild a matrix from persisted costs alone.

        Candidate orders, row minima and suffix sums are *derived* from
        the costs with the same ``(cost, id)`` sort key and the shared
        :func:`suffix_cost_sums` accumulation :meth:`build` uses, so a
        restored matrix is indistinguishable from a freshly built one as
        long as the persisted floats round-tripped exactly (JSON via
        ``repr`` does).  Duplicate rows alias one tuple/order pair, like
        :meth:`build`'s label grouping: restore cost stays proportional
        to the *distinct* row surface.
        """
        frozen_rows: dict[tuple[float, ...], tuple[float, ...]] = {}
        orders_by_row: dict[tuple[float, ...], tuple[int, ...]] = {}
        rows = []
        orders = []
        for row in costs:
            key = tuple(row)
            shared = frozen_rows.get(key)
            if shared is None:
                shared = key
                frozen_rows[key] = shared
                orders_by_row[key] = _candidate_order(key)
            rows.append(shared)
            orders.append(orders_by_row[key])
        return cls(query_digest, schema_digest, tuple(rows), tuple(orders))


@dataclass
class SubstrateStats:
    """Hit/build counters of one :class:`SimilaritySubstrate`."""

    matrices_built: int = 0
    matrix_hits: int = 0
    matrix_evictions: int = 0
    #: repository cost-kernel (re)builds (see
    #: :class:`~repro.matching.similarity.kernel.CostKernel`)
    kernel_builds: int = 0
    #: kernel rows carried across repository versions by migration
    kernel_rows_migrated: int = 0

    @property
    def matrix_lookups(self) -> int:
        return self.matrices_built + self.matrix_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of matrix lookups served from cache (0 when unused)."""
        return self.matrix_hits / self.matrix_lookups if self.matrix_lookups else 0.0


class SimilaritySubstrate:
    """Per-objective cache of :class:`ScoreMatrix` plus the cost kernel.

    One substrate hangs off each :class:`ObjectiveFunction`
    (:meth:`~repro.matching.objective.ObjectiveFunction.substrate`), so
    every matcher built against a shared objective — the bounds
    technique's precondition — also shares the precomputed similarity
    work, across matchers, thresholds, repeated sweeps and pipeline
    shards.  Keys are schema *content* digests: rebuilding an identical
    workload from the same seeds hits, changing one element name misses.

    ``max_matrices`` bounds the matrix cache (LRU, entries).  The
    substrate is not thread-safe; like the candidate cache it is only
    touched from one process at a time (workers each carry their own
    pickled copy, pre-warmed with whatever the coordinator had built).
    """

    def __init__(self, objective, max_matrices: int = 16384):
        if max_matrices < 1:
            raise MatchingError(
                f"max_matrices must be >= 1, got {max_matrices!r}"
            )
        self.objective = objective
        self.max_matrices = max_matrices
        self.stats = SubstrateStats()
        self._matrices: OrderedDict[tuple[str, str], ScoreMatrix] = OrderedDict()
        self._kernel: CostKernel | None = None

    def __len__(self) -> int:
        return len(self._matrices)

    def prepare(self, repository: SchemaRepository) -> CostKernel | None:
        """Build (or derive) the repository's cost kernel; idempotent.

        Matchers call this from their
        :meth:`~repro.matching.base.Matcher.prepare` hook — once per
        repository, before any query runs, and in the pipeline before
        sharding, so shards never rebuild it.  When the repository
        evolved, the kernel is derived from the previous version's
        (:meth:`kernel`), at a cost that follows the delta.  Score
        matrices need no such treatment: they are keyed by schema
        content digests already, so matrices of untouched schemas keep
        hitting across versions.  Returns the kernel.
        """
        objective = self.objective
        if getattr(objective, "corpus_sensitive", False):
            # Corpus-sensitive backends (docs/backends.md) score through
            # repository-wide statistics; freeze them against this
            # repository (idempotent per content digest) and drop every
            # cached score computed under the previous statistics — the
            # matrix cache is keyed by schema content digests alone, so
            # it cannot tell two corpora apart by itself.
            before = objective.corpus_token()
            objective.prepare_corpus(repository)
            if objective.corpus_token() != before:
                self._matrices.clear()
                self._kernel = None
        return self.kernel(repository)

    def kernel(
        self, repository: SchemaRepository | None = None
    ) -> CostKernel | None:
        """The repository cost kernel, or ``None`` before ``prepare``.

        Given a ``repository`` (as :meth:`prepare` passes it), first
        (re)builds the kernel when that repository version is not the
        one the kernel was built for, migrating the previous version's
        rows.  :meth:`matrix` and the snapshot payload read the kernel
        through here too, so this one method decides whether a
        substrate gathers; the tests' kernel oracle replaces it to get
        the kernel-less build everywhere.
        """
        if repository is not None:
            kernel = self._kernel
            if (
                kernel is None
                or kernel.repository_digest != repository.content_digest()
            ):
                self._kernel = CostKernel(
                    self.objective, repository, previous=kernel
                )
                self.stats.kernel_builds += 1
                self.stats.kernel_rows_migrated += self._kernel.rows_migrated
        return self._kernel

    def cached_matrices(self) -> list[ScoreMatrix]:
        """All cached matrices, least recently used first (for snapshots)."""
        return list(self._matrices.values())

    def adopt(
        self,
        matrices: Iterable[ScoreMatrix] = (),
        kernel: CostKernel | None = None,
    ) -> None:
        """Install restored state — the warm-start path of a snapshot load.

        ``kernel`` (if given) replaces the repository cost kernel;
        ``matrices`` are inserted under their own digest keys, evicting
        LRU entries past ``max_matrices`` exactly like :meth:`matrix`
        does.  Counters keep running; adopted entries are not counted as
        builds.
        """
        if kernel is not None:
            self._kernel = kernel
        for matrix in matrices:
            key = (matrix.query_digest, matrix.schema_digest)
            self._matrices[key] = matrix
            self._matrices.move_to_end(key)
            while len(self._matrices) > self.max_matrices:
                self._matrices.popitem(last=False)
                self.stats.matrix_evictions += 1

    def matrix(self, query: Schema, schema: Schema) -> ScoreMatrix:
        """The (query, schema) score matrix, built on first use."""
        key = (query.content_digest(), schema.content_digest())
        cached = self._matrices.get(key)
        if cached is not None:
            self._matrices.move_to_end(key)
            self.stats.matrix_hits += 1
            return cached
        built = ScoreMatrix.build(
            self.objective, query, schema, kernel=self.kernel()
        )
        self._matrices[key] = built
        self.stats.matrices_built += 1
        while len(self._matrices) > self.max_matrices:
            self._matrices.popitem(last=False)
            self.stats.matrix_evictions += 1
        return built

    def clear(self) -> None:
        """Drop matrices and the kernel (counters keep running)."""
        self._matrices.clear()
        self._kernel = None
