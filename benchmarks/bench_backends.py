"""Benchmarks of the pluggable similarity backends.

What does each backend cost per pair, and per corpus?  The micro
benches time each backend's cold ``similarity`` over the same label
pairs, BM25's corpus preparation, and one registry-variant match per
family — their relative means in ``BENCH_backends.json`` track how the
alternative name planes price against the lexical default.
"""

import pytest

from repro.matching import (
    EnsembleBackend,
    HashedVectorBackend,
    LexicalBackend,
    SparseBM25Backend,
    make_matcher,
)


def _label_pairs(workload, limit: int = 400):
    """(query label, repository label) pairs, the backends' unit of work."""
    query_labels = [
        element.name
        for scenario in workload.suite.scenarios
        for element in scenario.query.elements()
    ]
    repo_labels = [
        element.name
        for schema in workload.repository.schemas()[:8]
        for element in schema.elements()
    ]
    pairs = [(a, b) for a in query_labels for b in repo_labels]
    return pairs[:limit]


# -- per-pair scoring --------------------------------------------------------

def test_bench_lexical_pairs(benchmark, warmed_bundle):
    """The default backend: the established NameSimilarity blend."""
    workload = warmed_bundle.workload
    backend = LexicalBackend(workload.objective.name_similarity)
    pairs = _label_pairs(workload)
    benchmark(lambda: [backend.similarity(a, b) for a, b in pairs])


def test_bench_bm25_pairs(benchmark, warmed_bundle):
    """Cold BM25-weighted token overlap (memo cleared every round)."""
    workload = warmed_bundle.workload
    backend = SparseBM25Backend()
    backend.prepare(workload.repository)
    pairs = _label_pairs(workload)

    def cold():
        backend._memo.clear()
        return [backend.similarity(a, b) for a, b in pairs]

    benchmark(cold)


def test_bench_dense_pairs(benchmark, warmed_bundle):
    """Cold hashed character-n-gram cosine (memo cleared every round)."""
    workload = warmed_bundle.workload
    backend = HashedVectorBackend()
    pairs = _label_pairs(workload)

    def cold():
        backend._memo.clear()
        return [backend.similarity(a, b) for a, b in pairs]

    benchmark(cold)


def test_bench_ensemble_pairs(benchmark, warmed_bundle):
    """The weighted blend: every component scores every pair."""
    workload = warmed_bundle.workload
    bm25 = SparseBM25Backend()
    bm25.prepare(workload.repository)
    backend = EnsembleBackend(
        [
            LexicalBackend(workload.objective.name_similarity),
            bm25,
            HashedVectorBackend(),
        ],
        weights=[2.0, 1.0, 1.0],
    )
    pairs = _label_pairs(workload)
    benchmark(lambda: [backend.similarity(a, b) for a, b in pairs])


def test_bench_bm25_prepare(benchmark, warmed_bundle):
    """Freezing the corpus statistics (a full repository token scan)."""
    workload = warmed_bundle.workload
    benchmark(lambda: SparseBM25Backend().prepare(workload.repository))


# -- one match per registry variant ------------------------------------------

@pytest.mark.parametrize("family", ["exhaustive", "bm25", "dense", "ensemble"])
def test_bench_variant_match(benchmark, warmed_bundle, family):
    """One query matched under each backend family (fresh substrate).

    The relative means track what swapping the name plane costs at the
    matcher level — the dense backend pays hashing per distinct gram,
    BM25 pays its profile builds, the ensemble pays all components.
    """
    workload = warmed_bundle.workload
    query = workload.suite.scenarios[0].query

    def run():
        matcher = make_matcher(family, workload.objective)
        return matcher.match(query, workload.repository, 0.3)

    benchmark(run)
