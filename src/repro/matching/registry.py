"""Matcher registry: build systems by name.

Central place mapping system names to constructors, used by the CLI and
the experiment configs so that a run is fully described by plain data
(name + parameter dict).  :func:`batch_match` is the one-call entry
point from plain data to the sharded matching pipeline.

Beyond the paper's five search systems, the registry carries the
**backend variants** — ``bm25``, ``dense`` and ``ensemble`` — which run
the exhaustive search over a *derived* objective whose name plane is a
different :mod:`similarity backend
<repro.matching.similarity.backends>`.  A variant's objective
fingerprints differently from the base objective (the backend is part
of the identity), so variants form their own matcher families: the
bounds technique compares systems *within* one family — e.g. a beam
search against the exhaustive baseline on the same BM25 objective —
never across backends, whose answer scores are not comparable.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.core.answers import AnswerSet
from repro.errors import MatchingError
from repro.matching.base import Matcher
from repro.matching.beam import BeamMatcher
from repro.matching.clustering import ClusteringMatcher
from repro.matching.exhaustive import ExhaustiveMatcher
from repro.matching.hybrid import HybridMatcher
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.backends import (
    EnsembleBackend,
    HashedVectorBackend,
    LexicalBackend,
    SparseBM25Backend,
)
from repro.matching.topk import TopKCandidateMatcher
from repro.schema.model import Schema
from repro.schema.repository import SchemaRepository

__all__ = [
    "available_matchers",
    "batch_match",
    "evolution_session",
    "make_matcher",
    "matching_service",
    "replica_group",
]


def _variant(name: str, objective: ObjectiveFunction, backend) -> Matcher:
    """An exhaustive matcher over ``objective`` rebased onto ``backend``.

    The derived objective shares the base's name similarity and weights
    but scores names through ``backend`` — and gets its own substrate,
    so no matrix or kernel row crosses backends.  The instance ``name``
    carries the variant name into reports and matcher fingerprints.
    """
    matcher = ExhaustiveMatcher(objective.with_backend(backend))
    matcher.name = name
    return matcher


def _bm25_matcher(
    objective: ObjectiveFunction, k1: float = 1.5, b: float = 0.75
) -> Matcher:
    return _variant("bm25", objective, SparseBM25Backend(k1=k1, b=b))


def _dense_matcher(
    objective: ObjectiveFunction, dim: int = 256, n: int = 3
) -> Matcher:
    return _variant("dense", objective, HashedVectorBackend(dim=int(dim), n=int(n)))


def _ensemble_matcher(
    objective: ObjectiveFunction,
    lexical: float = 0.5,
    bm25: float = 0.25,
    dense: float = 0.25,
    k1: float = 1.5,
    b: float = 0.75,
    dim: int = 256,
    n: int = 3,
) -> Matcher:
    backend = EnsembleBackend(
        [
            LexicalBackend(objective.name_similarity),
            SparseBM25Backend(k1=k1, b=b),
            HashedVectorBackend(dim=int(dim), n=int(n)),
        ],
        [lexical, bm25, dense],
    )
    return _variant("ensemble", objective, backend)


_FACTORIES: dict[str, Callable[..., Matcher]] = {
    "exhaustive": ExhaustiveMatcher,
    "beam": BeamMatcher,
    "clustering": ClusteringMatcher,
    "topk": TopKCandidateMatcher,
    "hybrid": HybridMatcher,
    "bm25": _bm25_matcher,
    "dense": _dense_matcher,
    "ensemble": _ensemble_matcher,
}


def available_matchers() -> list[str]:
    """Names accepted by :func:`make_matcher`."""
    return sorted(_FACTORIES)


def make_matcher(
    name: str, objective: ObjectiveFunction, **params: object
) -> Matcher:
    """Instantiate a matcher by name with keyword parameters.

    All matchers built against the *same* ``objective`` instance satisfy
    the shared-objective precondition by construction.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise MatchingError(
            f"unknown matcher {name!r}; available: {', '.join(available_matchers())}"
        ) from None
    return factory(objective, **params)


def batch_match(
    name: str,
    objective: ObjectiveFunction,
    queries: Sequence[Schema],
    repository: SchemaRepository,
    delta_max: float,
    *,
    params: Mapping[str, object] | None = None,
    workers: int | None = None,
    shards: int | None = None,
    executor: object | None = None,
) -> list[AnswerSet]:
    """Run many queries through the sharded pipeline, by matcher name.

    Convenience wrapper: ``make_matcher(name, objective, **params)``
    followed by :meth:`~repro.matching.base.Matcher.batch_match`, which
    takes the same ``workers``/``shards``/``executor``.  The run is
    fully described by plain data plus the objective, which is what the
    CLI and experiment configs need.
    """
    matcher = make_matcher(name, objective, **(params or {}))
    return matcher.batch_match(
        queries, repository, delta_max, workers=workers, shards=shards,
        executor=executor,
    )


def evolution_session(
    name: str,
    objective: ObjectiveFunction,
    queries: Sequence[Schema],
    delta_max: float,
    *,
    params: Mapping[str, object] | None = None,
    executor: object | None = None,
    shards: int | None = None,
):
    """An :class:`~repro.matching.evolution.EvolutionSession` by matcher name.

    The evolving-repository counterpart of :func:`batch_match`: the
    session is fully described by plain data plus the objective.  Call
    ``session.match(repository)`` for the cold baseline, then
    ``session.apply(delta)`` per evolution step.
    """
    from repro.matching.evolution import EvolutionSession

    matcher = make_matcher(name, objective, **(params or {}))
    return EvolutionSession(
        matcher, queries, delta_max, executor=executor, shards=shards
    )


def matching_service(
    name: str,
    objective: ObjectiveFunction,
    delta_max: float,
    *,
    params: Mapping[str, object] | None = None,
    **options: object,
):
    """A :class:`~repro.matching.service.MatchingService` by matcher name.

    The serving counterpart of :func:`batch_match`: the service is fully
    described by plain data plus the objective.  ``options`` are
    forwarded to the service constructor (``store``, ``max_batch``,
    ``max_delay``, ``executor``, ``shards``, ``checkpoint_every``); call
    ``await service.start(repository)`` (or just ``start()`` over a
    snapshot store) before submitting requests.
    """
    from repro.matching.service import MatchingService

    matcher = make_matcher(name, objective, **(params or {}))
    return MatchingService(matcher, delta_max, **options)


def replica_group(
    name: str,
    objective: ObjectiveFunction,
    replicas: int,
    delta_max: float,
    *,
    params: Mapping[str, object] | None = None,
    **options: object,
):
    """A :class:`~repro.matching.replication.ReplicaGroup` by matcher name.

    Builds ``replicas`` config-equal matchers, each over its **own**
    clone of ``objective`` (same name similarity and weights — the value
    caches are shareable, the similarity substrates must not be), which
    is the replica group's distinct-objective requirement.  Backend
    variants (``bm25``/``dense``/``ensemble``) derive their backends
    inside the factory, so clones stay config-identical there too.
    ``options`` are forwarded to the group constructor (``store``,
    ``max_batch``, ``max_delay``, ``executor``, ``shards``,
    ``delivery``); a ``cache`` option accepts only ``None`` or ``False``
    (:func:`~repro.matching.pipeline.reject_cache`).
    """
    from repro.matching.pipeline import reject_cache
    from repro.matching.replication import ReplicaGroup

    reject_cache(options.pop("cache", None))
    if replicas < 1:
        raise MatchingError(f"replicas must be >= 1, got {replicas!r}")
    matchers = [
        make_matcher(
            name,
            ObjectiveFunction(objective.name_similarity, objective.weights),
            **(params or {}),
        )
        for _ in range(replicas)
    ]
    return ReplicaGroup(matchers, delta_max, **options)
