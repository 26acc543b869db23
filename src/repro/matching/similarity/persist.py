"""Persist matching state: substrate + retained results → snapshot store.

The schema layer's :class:`~repro.schema.store.SnapshotStore` knows how
to keep schemas on disk with integrity checks; this module layers the
matching-side state on top so that a restarted process **warm-starts in
O(load)** instead of re-matching:

* the similarity substrate's repository scoring kernel
  (:class:`~repro.matching.similarity.kernel.CostKernel`: interned label
  universe + per-query-label cost rows), so a warm start scores no
  similarity.  Score matrices are not persisted: each is a gather from
  the kernel's rows, made again the first time a search reads it;
* the retained :class:`~repro.matching.pipeline.PipelineResult` — the
  per-(query, schema) pair results incremental re-matching feeds on,
  plus the identifying digests and the matcher fingerprint.

Validity is fingerprint-gated, mirroring the pipeline's state-key
discipline: the substrate payload records the **objective fingerprint**
and the results payload the **matcher fingerprint** (which folds the
objective's in), so a snapshot saved under any other configuration —
different weights, thesaurus content, beam width — refuses to load with
a :class:`~repro.errors.SnapshotError` rather than silently serving
answers computed by a different system.  Restored answer sets are
rebuilt through :meth:`~repro.matching.base.Matcher.assemble` from the
persisted pair results, so they are byte-identical to what the offline
pipeline produced — the property the serving tests assert.

Floats survive the round trip exactly: scores and costs are serialized
by :mod:`json`, whose float formatting is ``repr``-based and
round-trip-exact for Python floats.

Payloads are **numpy-agnostic**: kernel rows export from their
``array('d')`` buffers, so a snapshot saved with the kernel's numpy
gather on restores (and serves byte-identically) in a process without
numpy, and vice versa.  The numpy property suite pins both diagonals.

A section that does not parse into the shape its writer gives it raises
:class:`~repro.errors.SnapshotError` like every other refusal.
"""

from __future__ import annotations

import json
from pathlib import Path
from dataclasses import dataclass

from repro.errors import SnapshotError
from repro.matching.base import Matcher
from repro.matching.executor import PairResult, matcher_fingerprint
from repro.matching.pipeline import PipelineResult, PipelineStats
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.matrix import SimilaritySubstrate
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository
from repro.schema.store import SnapshotStore, payload_digest

__all__ = [
    "Snapshot",
    "load_snapshot",
    "restore_results",
    "restore_substrate",
    "results_payload",
    "save_snapshot",
    "substrate_payload",
]

# Mutable payloads (results change on every delta, the substrate on
# every new matrix) are stored under digest-suffixed section names and
# looked up through these manifest keys.  A checkpoint over an existing
# snapshot therefore never overwrites a file the previous manifest
# references — the store's crash-safety guarantee rests on it.
_SUBSTRATE_KEY = "substrate_section"
_RESULTS_KEY = "results_section"


def _digest_named(stem: str, payload: str) -> str:
    return f"{stem}-{payload_digest(payload.encode('utf-8'))[:16]}.json"


def _parse(payload: str, section: str) -> dict:
    """One section's JSON object, or a :class:`SnapshotError`."""
    try:
        state = json.loads(payload)
    except ValueError:  # json.JSONDecodeError is a ValueError
        state = None
    if not isinstance(state, dict):
        raise SnapshotError(f"{section} snapshot section is not a JSON object")
    return state


# ---------------------------------------------------------------------------
# Substrate payloads
# ---------------------------------------------------------------------------

def substrate_payload(substrate: SimilaritySubstrate) -> str:
    """Serialize a substrate's cost kernel to a JSON section.

    Only the objective fingerprint and the kernel are written.  A
    substrate saved before its first ``prepare`` writes ``"kernel":
    null``, and payloads written before the kernel existed lack the key;
    :func:`restore_substrate` treats both as "rebuild on first
    ``prepare``".
    """
    kernel = substrate.kernel()
    return json.dumps(
        {
            "objective_fingerprint": substrate.objective.fingerprint(),
            "kernel": None if kernel is None else kernel.export_state(),
        },
        sort_keys=True,
    )


def restore_substrate(
    substrate: SimilaritySubstrate,
    payload: str,
    repository: SchemaRepository,
) -> None:
    """Adopt the kernel of a persisted substrate payload.

    The payload must have been saved under an identically configured
    objective (fingerprints compared, not trusted); the kernel's
    universe and label-id maps are re-derived from the *live*
    repository, so state saved for other content cannot corrupt
    candidate generation.  Payloads written by earlier versions also
    carry a ``"matrices"`` section (score matrices, which are now
    gathered again from the kernel) and an ``"index"`` section (a token
    index the substrate no longer keeps); both are ignored.
    """
    state = _parse(payload, "substrate")
    recorded = state.get("objective_fingerprint")
    live = substrate.objective.fingerprint()
    if recorded != live:
        raise SnapshotError(
            "substrate snapshot was saved under a different objective "
            f"configuration:\n  saved  {recorded}\n  loaded {live}"
        )
    if getattr(substrate.objective, "corpus_sensitive", False):
        # Freeze the backend's corpus statistics against the restored
        # repository *before* touching the kernel: the kernel's
        # migration gate compares corpus tokens, so an unprepared
        # objective (token "") would refuse every persisted row and
        # silently cold-start the similarity plane.
        substrate.objective.prepare_corpus(repository)
    kernel = state.get("kernel")
    if kernel is not None:  # else rebuilt on first prepare()
        substrate.adopt(
            CostKernel.from_state(substrate.objective, repository, kernel)
        )


# ---------------------------------------------------------------------------
# Retained-result payloads
# ---------------------------------------------------------------------------

def results_payload(result: PipelineResult) -> str:
    """Serialize a pipeline result's retained pair data to a JSON section."""
    if not result.pair_results:
        raise SnapshotError(
            "cannot persist a result without retained pair_results "
            "(produced by MatchingPipeline.run / rematch)"
        )
    return json.dumps(
        {
            "matcher_fingerprint": result.matcher_key,
            "repository_digest": result.repository_digest,
            "query_digests": list(result.query_digests),
            "delta_max": result.delta_max,
            "pair_results": [
                {
                    schema_id: [[list(ids), score] for ids, score in pairs]
                    for schema_id, pairs in by_schema.items()
                }
                for by_schema in result.pair_results
            ],
        },
        sort_keys=True,
    )


def restore_results(
    matcher: Matcher,
    queries: list[Schema],
    repository: SchemaRepository,
    payload: str,
) -> PipelineResult:
    """Rebuild a :class:`PipelineResult` from a persisted payload.

    Refuses (loudly) when the payload was computed by a differently
    configured matcher, against a different repository version, or for
    a different query list — the same checks ``rematch`` runs, applied
    at load time so stale state can never masquerade as warm state.
    Answer sets are reassembled via :meth:`Matcher.assemble` from the
    restored pair results, each checked for shape first: byte-identical
    to the original run.
    """
    state = _parse(payload, "results")
    recorded = state.get("matcher_fingerprint")
    live = matcher_fingerprint(matcher)
    if recorded != live:
        raise SnapshotError(
            "results snapshot was computed by a differently configured "
            f"matcher:\n  saved  {recorded}\n  loaded {live}"
        )
    if state.get("repository_digest") != repository.content_digest():
        raise SnapshotError(
            "results snapshot was computed against a different repository "
            "version (content digests differ)"
        )
    query_digests = tuple(query.content_digest() for query in queries)
    if state.get("query_digests") != list(query_digests):
        raise SnapshotError(
            "results snapshot was computed for a different query list "
            "(content digests differ)"
        )
    delta_max = state.get("delta_max")
    if type(delta_max) not in (int, float):
        raise SnapshotError(
            f"results snapshot records no numeric delta_max ({delta_max!r})"
        )
    saved = state.get("pair_results")
    if not isinstance(saved, list) or len(saved) != len(queries):
        raise SnapshotError(
            "results snapshot does not retain one pair-result map for each "
            f"of its {len(queries)} recorded queries"
        )
    sizes = {schema.schema_id: len(schema) for schema in repository}
    pair_results = [
        _saved_pair_results(query, sizes, by_schema)
        for query, by_schema in zip(queries, saved)
    ]
    answer_sets = [
        matcher.assemble(query, repository, by_schema, delta_max)
        for query, by_schema in zip(queries, pair_results)
    ]
    stats = PipelineStats(width=0, shards=0, queries=len(queries))
    return PipelineResult(
        answer_sets=answer_sets,
        stats=stats,
        pair_results=pair_results,
        repository_digest=repository.content_digest(),
        query_digests=query_digests,
        matcher_key=recorded,
        delta_max=delta_max,
    )


def _saved_pair_results(
    query: Schema, sizes: dict[str, int], by_schema
) -> dict[str, PairResult]:
    """One query's persisted ``{schema id: pair result}`` map, checked.

    It must name exactly the repository's schemas (``sizes``: schema id
    -> element count), each with a list of ``[target ids, score]``
    entries: one in-range integer id per query element and a float
    score — what :meth:`Matcher.assemble` reads.
    """
    if not isinstance(by_schema, dict) or by_schema.keys() != sizes.keys():
        raise SnapshotError(
            f"results snapshot pair results for query {query.schema_id!r} "
            "do not name exactly the repository's schemas"
        )
    restored: dict[str, PairResult] = {}
    for schema_id, size in sizes.items():
        pairs = _saved_pairs(by_schema[schema_id], len(query), size)
        if pairs is None:
            raise SnapshotError(
                f"results snapshot holds malformed pair results for query "
                f"{query.schema_id!r} on schema {schema_id!r}"
            )
        restored[schema_id] = pairs
    return restored


def _saved_pairs(pairs, width: int, size: int) -> PairResult | None:
    """``[[target ids, score], ...]`` as a pair result; None if malformed."""
    if type(pairs) is not list:
        return None
    restored = []
    for entry in pairs:
        if type(entry) is not list or len(entry) != 2:
            return None
        ids, score = entry
        if type(ids) is not list or len(ids) != width:
            return None
        if type(score) is not float:
            return None
        for j in ids:
            if type(j) is not int or not 0 <= j < size:
                return None
        restored.append((tuple(ids), score))
    return restored


# ---------------------------------------------------------------------------
# Whole snapshots
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    """Everything a warm start restores from one snapshot directory."""

    repository: SchemaRepository
    queries: list[Schema]
    result: PipelineResult | None


def save_snapshot(
    store: SnapshotStore | str | Path,
    repository: SchemaRepository,
    *,
    queries: list[Schema] | None = None,
    result: PipelineResult | None = None,
    substrate: SimilaritySubstrate | None = None,
) -> SnapshotStore:
    """Write one complete snapshot: repository, queries, state sections.

    ``result`` (with its retained pair results) and ``substrate`` are
    optional — a repository-only snapshot is a valid warm start for the
    schemas alone.  When a result is given its identifying digests must
    match ``repository``/``queries``, so a snapshot can never pair a
    repository version with results computed against another.
    """
    if not isinstance(store, SnapshotStore):
        store = SnapshotStore(store)
    queries = list(queries or [])
    meta: dict = {
        "repository": SnapshotStore.repository_meta(repository),
        "queries": SnapshotStore.query_meta(queries),
    }
    sections = SnapshotStore.schema_sections(repository.schemas() + queries)
    if result is not None:
        if result.repository_digest != repository.content_digest():
            raise SnapshotError(
                "result to snapshot was not computed against the given "
                "repository (content digests differ)"
            )
        if result.query_digests != tuple(
            query.content_digest() for query in queries
        ):
            raise SnapshotError(
                "result to snapshot was not computed for the given query "
                "list (content digests differ)"
            )
        meta["matcher_fingerprint"] = result.matcher_key
        meta["delta_max"] = result.delta_max
        payload = results_payload(result)
        meta[_RESULTS_KEY] = _digest_named("results", payload)
        sections[meta[_RESULTS_KEY]] = payload
    if substrate is not None:
        meta["objective_fingerprint"] = substrate.objective.fingerprint()
        payload = substrate_payload(substrate)
        meta[_SUBSTRATE_KEY] = _digest_named("substrate", payload)
        sections[meta[_SUBSTRATE_KEY]] = payload
    store.save(meta, sections)
    return store


def load_snapshot(
    store: SnapshotStore | str | Path,
    matcher: Matcher,
) -> Snapshot:
    """Warm-start state from a snapshot directory, fully verified.

    Loads the repository and retained queries (digest-addressed,
    integrity-checked), adopts the persisted substrate into
    ``matcher.objective.substrate()`` when present, and rebuilds the
    retained :class:`PipelineResult` when present.  Every mismatch —
    corruption, format drift, foreign payloads, stale objective/matcher
    fingerprints — raises :class:`~repro.errors.SnapshotError`; there is
    no silent fallback to a cold start.
    """
    if not isinstance(store, SnapshotStore):
        store = SnapshotStore(store)
    manifest = store.manifest()
    repository = store.load_repository(manifest)
    queries = store.load_queries(manifest)
    substrate_section = manifest.get(_SUBSTRATE_KEY)
    if substrate_section is not None:
        restore_substrate(
            matcher.objective.substrate(),
            store.read_section(substrate_section, manifest),
            repository,
        )
    result = None
    results_section = manifest.get(_RESULTS_KEY)
    if results_section is not None:
        result = restore_results(
            matcher,
            queries,
            repository,
            store.read_section(results_section, manifest),
        )
    return Snapshot(repository=repository, queries=queries, result=result)
