"""Clustering-based improvement (the authors' own WIRI'06 technique).

"By employing clustering techniques, we attempt to quickly locate parts
of schemas in a large repository that are likely to contain a match for a
given small personal schema and then focus our search on these parts.
The approach is non-exhaustive, because mappings located (partially)
outside a cluster or spanning clusters are not considered anymore."

Reproduction: repository elements are clustered by name similarity
(deterministic greedy leader clustering).  For a query, each query
element nominates the ``clusters_per_element`` clusters whose leaders it
resembles most; the search is then restricted to the union of the
nominated clusters' members.  Mappings using any element outside that
union are lost — aggressively so for small nomination counts, which is
what produces the "rigorous" ratio curves of the paper's S2-two while the
best-scoring answers (whose names resemble the query, hence fall in
nominated clusters) are mostly retained.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.engine import SchemaSearch
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository
from repro.util.caching import fifo_put
from repro.util.text import normalise_label

__all__ = ["ElementCluster", "ElementClusterer", "ClusteringMatcher"]


#: clusters shared across matcher instances per NameSimilarity (the
#: dependency clustering output is a pure function of, together with the
#: join threshold and repository content) — keyed weakly so a retired
#: objective's universe is collectable.
_SHARED_CLUSTERS: "weakref.WeakKeyDictionary[NameSimilarity, dict]" = (
    weakref.WeakKeyDictionary()
)
_SHARED_CLUSTERS_PER_SIMILARITY = 8


@dataclass
class ElementCluster:
    """One cluster of repository elements, led by its first member's name."""

    leader_name: str
    members: set[tuple[str, int]] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.members)


class ElementClusterer:
    """Deterministic greedy leader clustering by element-name similarity.

    Elements are visited in repository order; each joins the best
    existing cluster whose leader's name is at least ``join_threshold``
    similar, otherwise it founds a new cluster.  No randomness — the same
    repository always clusters identically.
    """

    def __init__(self, name_similarity: NameSimilarity, join_threshold: float = 0.55):
        if not 0.0 < join_threshold <= 1.0:
            raise MatchingError(
                f"join_threshold must be in (0, 1], got {join_threshold!r}"
            )
        self.name_similarity = name_similarity
        self.join_threshold = join_threshold

    def cluster(self, repository: SchemaRepository) -> list[ElementCluster]:
        """Greedy leader clustering of every repository element.

        Runs the interned distinct-label path (the repository's repeated
        labels scan clusters once per *distinct* normalised label, not
        once per element) and shares the result across every matcher
        built on the same name similarity — clustering is a pure
        function of (similarity configuration, join threshold,
        repository content), so the clustering and hybrid matchers of
        one universe cluster a repository once between them.  The
        clusters are identical to the per-element full scan the tests
        keep as the specification (``cluster_scan`` in
        ``tests/helpers/oracles.py``).  Every call returns its own
        cluster objects (cache hits copy leader and members), so a
        caller mutating its result cannot corrupt other matchers.
        """
        cache = _SHARED_CLUSTERS.setdefault(self.name_similarity, {})
        key = (self.join_threshold, repository.content_digest())
        clusters = cache.get(key)
        if clusters is None:
            clusters = self._cluster_interned(repository)
            fifo_put(cache, key, clusters, _SHARED_CLUSTERS_PER_SIMILARITY)
        return [
            ElementCluster(cluster.leader_name, set(cluster.members))
            for cluster in clusters
        ]

    def _cluster_interned(
        self, repository: SchemaRepository
    ) -> list[ElementCluster]:
        """Distinct-label compaction of the full greedy scan, exactly.

        Name similarity is a pure function of the *normalised* labels,
        so two elements with the same normalised label score identically
        against every cluster.  Per distinct label the scan keeps
        ``(best cluster index, best score, clusters seen)``; a repeat
        label resumes scanning at the first unseen cluster, replacing
        the cached best on ``score >= best`` — the same
        last-maximum-wins comparison the full scan applies, replayed
        only over the suffix, so the chosen cluster (and the founded
        cluster set) is identical element for element.  A label that
        founded a cluster is cached as that cluster at similarity 1.0 —
        the exact value the scan would compute against its own leader,
        and unbeatable because duplicate-normalised leaders cannot arise
        (the second occurrence always joins the first at 1.0 ≥ the join
        threshold).
        """
        clusters: list[ElementCluster] = []
        similarity = self.name_similarity.similarity
        threshold = self.join_threshold
        #: normalised label -> (best cluster index or -1, best score, seen)
        best_by_label: dict[str, tuple[int, float, int]] = {}
        for handle in repository.all_elements():
            name = handle.name
            label = normalise_label(name)
            if not label:
                # Empty normalisations score 0.0 against *everything* —
                # even an identically-normalised leader — so they never
                # join and cannot be compacted; replay the full scan.
                best_index, best_score, seen = -1, threshold, 0
            else:
                entry = best_by_label.get(label)
                if entry is None:
                    best_index, best_score, seen = -1, threshold, 0
                else:
                    best_index, best_score, seen = entry
            for index in range(seen, len(clusters)):
                score = similarity(clusters[index].leader_name, name)
                if score >= best_score:
                    best_index, best_score = index, score
            if best_index < 0:
                best_index = len(clusters)
                clusters.append(ElementCluster(leader_name=name))
                best_score = 1.0  # what the scan scores a leader vs itself
            if label:
                best_by_label[label] = (best_index, best_score, len(clusters))
            clusters[best_index].members.add(handle.key)
        return clusters


class ClusteringMatcher(Matcher):
    """Non-exhaustive improvement: search restricted to nominated clusters."""

    name = "clustering"

    # Per-pair results depend on clusters built over the *whole*
    # repository: any delta can move cluster boundaries (and hence
    # nominations) for schemas the delta never touched, so incremental
    # re-matching must not reuse stored pair results.
    pair_local = False

    def __init__(
        self,
        objective: ObjectiveFunction,
        clusters_per_element: int = 2,
        join_threshold: float = 0.55,
        max_answers: int = 500_000,
    ):
        super().__init__(objective, max_answers)
        if clusters_per_element < 1:
            raise MatchingError(
                f"clusters_per_element must be >= 1, got {clusters_per_element!r}"
            )
        self.clusters_per_element = clusters_per_element
        self.clusterer = ElementClusterer(
            objective.name_similarity, join_threshold=join_threshold
        )
        self._clusters: list[ElementCluster] | None = None
        self._repository_digest: str | None = None
        self._current_allowed: set[tuple[str, int]] | None = None
        # query content digest -> nominated keys; nomination is a
        # deterministic function of (clusters, query content,
        # clusters_per_element), so re-ranking every cluster on every
        # begin_query (once per threshold per query in a sweep) is pure
        # rework.  Invalidated with the clusters, bounded FIFO.
        self._nominations: dict[str, set[tuple[str, int]]] = {}

    def prepare(self, repository: SchemaRepository) -> None:
        """Cluster the repository once (cached per repository *content*).

        Keyed on the content digest, not ``repository_id`` — synthetic
        workloads reuse the same id for different contents, and stale
        clusters would silently change every subsequent match.  Also prepares the similarity
        substrate's cost kernel (the ``super()`` default).
        """
        super().prepare(repository)
        digest = repository.content_digest()
        if self._repository_digest == digest and self._clusters:
            return
        self._clusters = self.clusterer.cluster(repository)
        self._repository_digest = digest
        self._nominations.clear()

    def allowed_element_keys(self, query: Schema) -> set[tuple[str, int]]:
        """Union of the clusters nominated by the query's elements."""
        if self._clusters is None:
            raise MatchingError("prepare() must run before cluster nomination")
        allowed: set[tuple[str, int]] = set()
        for element in query:
            ranked = sorted(
                self._clusters,
                key=lambda c: -self.objective.name_similarity.similarity(
                    element.name, c.leader_name
                ),
            )
            for cluster in ranked[: self.clusters_per_element]:
                allowed |= cluster.members
        return allowed

    def begin_query(self, query: Schema) -> None:
        """Nominate clusters once per query; searches then filter on them.

        Runs after :meth:`prepare`, so the nomination always works on the
        *full* repository's clusters — also under the sharded pipeline,
        which prepares on the whole repository before fanning shards out.
        Nominations are memoised per query *content* against the current
        clusters, so a threshold sweep re-ranks nothing.
        """
        digest = query.content_digest()
        allowed = self._nominations.get(digest)
        if allowed is None:
            allowed = self.allowed_element_keys(query)
            fifo_put(self._nominations, digest, allowed, 4096)
        self._current_allowed = allowed

    def _match_schema(
        self, query: Schema, schema: Schema, delta_max: float
    ) -> Iterable[tuple[tuple[int, ...], float]]:
        allowed_keys = self._current_allowed
        if allowed_keys is None:
            raise MatchingError("internal error: cluster nomination missing")
        in_schema = [
            element_id
            for element_id in range(len(schema))
            if (schema.schema_id, element_id) in allowed_keys
        ]
        if len(in_schema) < len(query):
            return  # cannot host an injective mapping within the clusters
        allowed = [in_schema] * len(query)
        search = SchemaSearch(query, schema, self.objective, allowed=allowed)
        yield from search.exhaustive(delta_max)

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["clusters_per_element"] = self.clusters_per_element
        description["join_threshold"] = self.clusterer.join_threshold
        return description
