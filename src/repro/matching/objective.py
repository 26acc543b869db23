"""The objective function Δ (paper section 2.1).

Δ "computes how different two schemas are": lower is better, and the
answer set at threshold δ is everything scoring at most δ.  The cost of a
mapping combines

* per-element cost — name dissimilarity blended with a datatype penalty,
  averaged over the query elements, and
* structure cost — the fraction of query parent/child edges whose
  ancestry the mapping does not preserve,

yielding a score in [0, 1].  Everything the bounds technique assumes
hangs on S1 and S2 sharing this function, so :class:`ObjectiveFunction`
carries a configuration fingerprint and an equality check that matchers
use to refuse mixed-objective analyses
(:class:`~repro.errors.ObjectiveMismatchError`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import MatchingError, ObjectiveMismatchError
from repro.matching.mapping import Mapping
from repro.matching.similarity.backends import LexicalBackend, SimilarityBackend
from repro.matching.similarity.datatype import datatype_penalty
from repro.matching.similarity.name import NameSimilarity
from repro.matching.similarity.structure import ancestry_violations, query_edges
from repro.schema.model import Schema, SchemaElement
from repro.schema.repository import ElementHandle, SchemaRepository

__all__ = ["ObjectiveWeights", "ObjectiveFunction"]

# Scores are rounded so that algebraically identical costs computed along
# different code paths (exhaustive vs beam vs clustering) compare equal.
_SCORE_DECIMALS = 9


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative weights of the objective's components.

    ``name`` and ``datatype`` weigh the two parts of the per-element
    cost (normalised internally); ``structure`` in [0, 1) is the share of
    the total cost charged to ancestry violations.
    """

    name: float = 0.8
    datatype: float = 0.2
    structure: float = 0.25

    def __post_init__(self) -> None:
        if self.name < 0 or self.datatype < 0:
            raise MatchingError("component weights must be non-negative")
        if self.name + self.datatype <= 0:
            raise MatchingError("name + datatype weight must be positive")
        if not 0 <= self.structure < 1:
            raise MatchingError(
                f"structure weight must be in [0, 1), got {self.structure!r}"
            )


class ObjectiveFunction:
    """Δ: mapping -> [0, 1]; shared by the original system and improvements."""

    def __init__(
        self,
        name_similarity: NameSimilarity,
        weights: ObjectiveWeights | None = None,
        backend: SimilarityBackend | None = None,
    ):
        self.name_similarity = name_similarity
        self.weights = weights or ObjectiveWeights()
        # The name-score plane is pluggable (docs/backends.md); the
        # default wraps ``name_similarity`` itself, fingerprint and all,
        # so an objective built without an explicit backend is the
        # pre-backend objective, byte for byte.
        self.backend = backend if backend is not None else LexicalBackend(
            name_similarity
        )
        total = self.weights.name + self.weights.datatype
        self._name_share = self.weights.name / total
        self._datatype_share = self.weights.datatype / total
        self._substrate = None

    def with_backend(self, backend: SimilarityBackend) -> "ObjectiveFunction":
        """A new objective scoring names through ``backend``.

        Shares the name similarity (clustering and the hybrid matcher
        nominate through it regardless of backend) and the weights, but
        nothing cached: the derived objective gets its own substrate,
        because matrices and kernel rows scored under one backend must
        never be served to another.
        """
        return ObjectiveFunction(
            self.name_similarity, self.weights, backend=backend
        )

    def substrate(self):
        """The similarity substrate shared by every matcher on this Δ.

        Lazily created
        :class:`~repro.matching.similarity.matrix.SimilaritySubstrate`;
        every search takes its costs from it.  Hanging it off the
        objective makes sharing automatic: matchers must already share
        one objective instance (the bounds precondition), so they get
        one matrix cache and one cost kernel for free.
        """
        if self._substrate is None:
            from repro.matching.similarity.matrix import SimilaritySubstrate

            self._substrate = SimilaritySubstrate(self)
        return self._substrate

    def fingerprint(self) -> str:
        """Configuration identity string.

        Two matchers share an objective function exactly when their
        fingerprints are equal; the bounds pipeline enforces this, and
        worker state and snapshots are keyed on it.  Weights are
        rendered at full ``repr`` precision — rounding here would let
        two objectives that *score differently* share installed state.  The name plane's
        identity is the backend's fingerprint: for the default
        :class:`~repro.matching.similarity.backends.LexicalBackend` that
        is the wrapped name similarity's fingerprint verbatim, so
        default-configured objectives fingerprint exactly as they did
        before backends existed (pre-backend snapshots keep loading).
        """
        return (
            f"delta(name={self._name_share!r},dt={self._datatype_share!r},"
            f"struct={self.weights.structure!r};"
            f"{self.backend.fingerprint()})"
        )

    # -- corpus hooks (corpus-sensitive backends only) -----------------------

    @property
    def corpus_sensitive(self) -> bool:
        """Whether name scores depend on repository-wide statistics."""
        return self.backend.corpus_sensitive

    def corpus_token(self) -> str:
        """The backend's frozen-corpus digest (``""`` when corpus-free)."""
        return self.backend.corpus_token()

    def prepare_corpus(self, repository: SchemaRepository) -> None:
        """Freeze the backend's corpus statistics for ``repository``.

        Idempotent per repository content digest; the substrate calls
        this from :meth:`~repro.matching.similarity.matrix
        .SimilaritySubstrate.prepare` and drops cached matrices and
        kernel rows when the corpus token moved.  A no-op for
        corpus-insensitive backends.
        """
        self.backend.prepare(repository)

    def check_same_as(self, other: "ObjectiveFunction") -> None:
        """Raise :class:`ObjectiveMismatchError` unless configured identically."""
        if self.fingerprint() != other.fingerprint():
            raise ObjectiveMismatchError(
                "systems do not share an objective function:\n"
                f"  {self.fingerprint()}\n  {other.fingerprint()}"
            )

    # -- element level -----------------------------------------------------

    def element_cost(self, query_element: SchemaElement, target: ElementHandle) -> float:
        """Cost in [0, 1] of mapping one query element onto one target."""
        return self.label_cost(
            query_element.name,
            query_element.datatype,
            target.name,
            target.datatype,
        )

    def label_cost(
        self,
        query_name: str,
        query_datatype,
        target_name: str,
        target_datatype,
    ) -> float:
        """Element cost from labels and datatypes alone.

        The *single* definition of the per-element cost expression:
        :meth:`element_cost` and the repository scoring kernel
        (:class:`~repro.matching.similarity.kernel.CostKernel`) both
        evaluate through here, so a kernel row entry is the bit-identical
        float the direct per-pair path would produce.  Name similarity
        depends only on the *normalised* labels (and is memoised on
        them), which is what licenses the kernel to compute one cost per
        distinct (normalised label, datatype) pair per repository.
        """
        name_cost = 1.0 - self.backend.similarity(query_name, target_name)
        type_cost = datatype_penalty(query_datatype, target_datatype)
        return self._name_share * name_cost + self._datatype_share * type_cost

    def label_cost_row(
        self,
        query_name: str,
        query_datatype,
        targets,
    ) -> list[float]:
        """One query label's costs against many ``(label, datatype)`` targets.

        The row-materialisation primitive of the repository scoring
        kernel: every entry evaluates through :meth:`label_cost`, so the
        row holds the bit-identical floats of the per-pair path.  This
        stays a python loop even on the numpy execution path — name
        similarity is memoised string work, not arithmetic — which is
        why the kernel's ``array('d')`` rows remain the spec storage the
        vector views are built over, never the other way around.
        """
        label_cost = self.label_cost
        return [
            label_cost(query_name, query_datatype, target_name, target_datatype)
            for target_name, target_datatype in targets
        ]

    def cost_matrix(self, query: Schema, target_schema: Schema) -> list[list[float]]:
        """``matrix[i][j]`` = element cost of query element i on target j."""
        elements = query.elements()
        targets = [
            ElementHandle(target_schema, j) for j in range(len(target_schema))
        ]
        return [
            [self.element_cost(element, target) for target in targets]
            for element in elements
        ]

    # -- mapping level -------------------------------------------------------

    def structure_cost(
        self, query: Schema, target_schema: Schema, target_ids: Sequence[int]
    ) -> float:
        """Fraction of query edges violated by a full assignment."""
        edges = query_edges(query)
        if not edges:
            return 0.0
        violations, decided = ancestry_violations(query, target_schema, target_ids)
        if decided != len(edges):
            raise MatchingError("structure cost of a full mapping needs all targets")
        return violations / len(edges)

    def combine(
        self, element_cost_sum: float, query_size: int, structure_cost: float
    ) -> float:
        """Total Δ from the two aggregated components (shared by all matchers)."""
        sw = self.weights.structure
        average = element_cost_sum / query_size
        return round((1.0 - sw) * average + sw * structure_cost, _SCORE_DECIMALS)

    def mapping_cost(self, query: Schema, mapping: Mapping) -> float:
        """Δ of a complete mapping (the canonical scoring entry point)."""
        if len(mapping.targets) != len(query):
            raise MatchingError(
                f"mapping has {len(mapping.targets)} targets for a query of "
                f"size {len(query)}"
            )
        element_sum = sum(
            self.element_cost(query.element(i), mapping.targets[i])
            for i in range(len(query))
        )
        structure = self.structure_cost(
            query, mapping.target_schema, mapping.target_ids
        )
        return self.combine(element_sum, len(query), structure)
