"""Schema matching systems: the exhaustive original and its
non-exhaustive improvements.

* :class:`~repro.matching.exhaustive.ExhaustiveMatcher` — S1, complete up
  to the threshold (exact branch-and-bound).
* :class:`~repro.matching.beam.BeamMatcher` — iMAP-style beam search.
* :class:`~repro.matching.clustering.ClusteringMatcher` — the authors'
  element-clustering search-space restriction.
* :class:`~repro.matching.topk.TopKCandidateMatcher` — candidate-list
  truncation in the spirit of probabilistic top-k evaluation.
* :class:`~repro.matching.hybrid.HybridMatcher` — cluster restriction
  and beam search composed.

All systems score with a shared :class:`~repro.matching.objective
.ObjectiveFunction`, so each improvement's answer set is a subset of the
exhaustive system's at every threshold — the paper's single assumption,
enforced and tested throughout.

The objective's *name plane* is pluggable
(:mod:`repro.matching.similarity.backends`): the registry additionally
carries the backend variants ``bm25``, ``dense`` and ``ensemble``,
which run the exhaustive search over a derived objective scoring names
through a BM25 sparse scorer, a hashed dense-vector scorer, or a
weighted ensemble of backends.  Each variant fingerprints as its own
matcher family, compared by the bounds technique within the family —
never across backends, whose scores are not comparable.

Batch workloads go through :mod:`repro.matching.pipeline`: repository
sharding and optional worker processes behind
:meth:`~repro.matching.base.Matcher.batch_match`, with output identical
to serial matching.

All searches draw on the **similarity substrate**
(:mod:`repro.matching.similarity.matrix`): per-(query, schema) score
matrices, precomputed once per objective function and shared across
matchers, thresholds, sweeps and shards — with exact threshold-driven
candidate pruning that provably never changes an answer set.
Underneath sits the **repository scoring kernel**
(:mod:`repro.matching.similarity.kernel`): every distinct
(normalised label, datatype) cost is computed once per repository into
interned flat rows, matrices gather from them, clustering runs over the
same interned surface, and every search fills one list after an early
exit on the matrix's minima — the exhaustive one from a loop nest
generated and compiled once per query shape.  When
numpy is installed
(:func:`numpy_available`), the kernel gathers each query label's costs
and candidate orders for the whole repository in one batch, with the
python gather as the path when it is not.
Each layer has one production path; the code it replaced (direct
per-pair scoring, the per-matrix build, the generator searches, the
per-element cluster scan, the python gather) serves as a test oracle in
``tests/helpers/oracles.py``, and the tests assert byte-identical
answers against every combination of them.

Evolving repositories go through :mod:`repro.matching.evolution`: an
:class:`~repro.matching.evolution.EvolutionSession` replays
:class:`~repro.schema.delta.RepositoryDelta` streams and re-matches
incrementally — reusing per-pair results for content-unchanged schemas
and skipping provably empty searches — with answer sets byte-identical
to a cold full re-match.

Long-lived processes go through :mod:`repro.matching.service`: a
:class:`~repro.matching.service.MatchingService` serves single-query
requests over asyncio (micro-batched through the pipeline, coalesced by
content digest, deltas applied live), and the snapshot store
(:mod:`repro.schema.store` + :mod:`repro.matching.similarity.persist`)
persists repository, substrate and retained results so a restarted
process warm-starts in O(load) — every answer byte-identical to the
offline ``batch_match``/``batch_rematch`` path.

Distribution rides on the executor seam (:mod:`repro.matching
.executor`): *where* the pipeline's (query, shard) units run is a
pluggable :class:`~repro.matching.executor.ShardExecutor` — serial,
the shared persistent process pool, or socket workers on remote nodes
(:mod:`repro.matching.remote`, length-prefixed digest-verified frames,
state pulled by digest from the snapshot store, every remote op
deadline-budgeted and every worker address behind a circuit breaker).
Replicated serving (:mod:`repro.matching.replication`) runs N services
behind a sequence-numbered replicated delta log with gap/duplicate
detection, in-line digest-checked delivery and a round-robin front-end
— served answers byte-identical across replicas and with the
single-node path, under fault injection (see ``docs/distributed.md``).
"""

from repro.matching.base import Matcher
from repro.matching.beam import BeamMatcher
from repro.matching.clustering import ClusteringMatcher, ElementClusterer
from repro.matching.engine import (
    SchemaSearch,
    count_assignments,
    threshold_unreachable,
)
from repro.matching.evolution import EvolutionSession
from repro.matching.executor import (
    ExecutionState,
    ProcessPoolShardExecutor,
    SerialExecutor,
    ShardExecutor,
    WorkUnit,
)
from repro.matching.exhaustive import ExhaustiveMatcher
from repro.matching.hybrid import HybridMatcher
from repro.matching.mapping import Mapping, canonical_answers
from repro.matching.objective import ObjectiveFunction, ObjectiveWeights
from repro.matching.pipeline import (
    MatchingPipeline,
    PipelineResult,
    RematchStats,
    shard_repository,
    shutdown_workers,
)
from repro.matching.random_matcher import (
    best_case_subset,
    random_subset_like,
    worst_case_subset,
)
from repro.matching.registry import (
    available_matchers,
    batch_match,
    evolution_session,
    make_matcher,
    matching_service,
    replica_group,
)
from repro.matching.remote import (
    DeadlineBudget,
    ExecutorStats,
    RemoteShardExecutor,
    WorkerHealth,
    WorkerServer,
)
from repro.matching.replication import (
    DeltaRecord,
    ReplicaGroup,
    ReplicaGroupStats,
)
from repro.matching.service import MatchingService, ServiceStats
from repro.matching.similarity import (
    CostKernel,
    EnsembleBackend,
    HashedVectorBackend,
    LexicalBackend,
    NameSimilarity,
    ScoreMatrix,
    SimilarityBackend,
    SimilaritySubstrate,
    SparseBM25Backend,
    Thesaurus,
    ancestry_violations,
    datatype_penalty,
    numpy_available,
)
from repro.matching.similarity.persist import (
    Snapshot,
    load_snapshot,
    save_snapshot,
)
from repro.matching.topk import TopKCandidateMatcher

__all__ = [
    "BeamMatcher",
    "ClusteringMatcher",
    "CostKernel",
    "DeadlineBudget",
    "DeltaRecord",
    "ElementClusterer",
    "EnsembleBackend",
    "EvolutionSession",
    "ExecutionState",
    "ExecutorStats",
    "ExhaustiveMatcher",
    "HashedVectorBackend",
    "HybridMatcher",
    "LexicalBackend",
    "Mapping",
    "Matcher",
    "MatchingPipeline",
    "MatchingService",
    "NameSimilarity",
    "ObjectiveFunction",
    "ObjectiveWeights",
    "PipelineResult",
    "ProcessPoolShardExecutor",
    "RematchStats",
    "RemoteShardExecutor",
    "ReplicaGroup",
    "ReplicaGroupStats",
    "SchemaSearch",
    "ScoreMatrix",
    "SerialExecutor",
    "ServiceStats",
    "ShardExecutor",
    "SimilarityBackend",
    "SimilaritySubstrate",
    "Snapshot",
    "SparseBM25Backend",
    "Thesaurus",
    "TopKCandidateMatcher",
    "WorkUnit",
    "WorkerHealth",
    "WorkerServer",
    "ancestry_violations",
    "available_matchers",
    "batch_match",
    "best_case_subset",
    "canonical_answers",
    "count_assignments",
    "datatype_penalty",
    "evolution_session",
    "load_snapshot",
    "make_matcher",
    "matching_service",
    "numpy_available",
    "random_subset_like",
    "replica_group",
    "save_snapshot",
    "shard_repository",
    "shutdown_workers",
    "threshold_unreachable",
    "worst_case_subset",
]
