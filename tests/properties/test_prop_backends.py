"""Property tests: the similarity-backend seam never changes an answer.

Four families, mirroring the kernel/numpy byte-identity suites:

* **The seam under the optimisation layers** — a default objective,
  whose names score through the :class:`~repro.matching.similarity
  .backends.LexicalBackend` (which delegates to the pre-backend
  :class:`~repro.matching.similarity.name.NameSimilarity` call), must
  produce byte-identical answer sets across the substrate and kernel
  oracles, because the seam sits under both optimisation layers.
* **Backend variants under the oracles** — the ``bm25``, ``dense`` and
  ``ensemble`` registry variants must be byte-identical with the
  substrate and kernel layers or their oracles: the backend defines the
  scores, the layers above must merely reproduce them.
* **Evolving streams** — a corpus-sensitive backend (BM25) re-freezes
  its statistics after every repository delta; an incremental
  :class:`~repro.matching.evolution.EvolutionSession` over it must stay
  byte-identical to cold full re-matches of every version (the
  corpus-token invalidation path of the substrate and kernel).
* **Snapshot compatibility** — a substrate payload written before
  backends existed (no ``corpus_token`` key in the kernel section)
  still restores, adopts its kernel rows, and serves byte-identically.
"""

from helpers.differential import (
    assert_combinations_identical,
    canonical as _canonical,
    make_workload,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    ExhaustiveMatcher,
    MatchingPipeline,
    canonical_answers,
    make_matcher,
)
from repro.matching.evolution import EvolutionSession
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity
from repro.schema import churn_delta
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.util import rng

#: the backend matcher variants of the registry, default parameters
BACKEND_VARIANTS = [("bm25", {}), ("dense", {}), ("ensemble", {})]


@settings(max_examples=8, deadline=None)
@given(
    repo_seed=st.integers(min_value=0, max_value=12),
    query_seed=st.integers(min_value=0, max_value=12),
)
def test_backend_seam_composes_with_kernel_and_substrate(
    repo_seed, query_seed
):
    """All subsets of {substrate, kernel}: one answer set."""
    workload = make_workload(repo_seed, query_seed=query_seed)
    assert_combinations_identical(
        "exhaustive",
        {},
        workload,
        toggles=("substrate", "kernel"),
    )


@st.composite
def variant_cases(draw):
    repo_seed = draw(st.integers(min_value=0, max_value=20))
    num_schemas = draw(st.integers(min_value=2, max_value=4))
    query_seed = draw(st.integers(min_value=0, max_value=20))
    variant = draw(st.sampled_from(BACKEND_VARIANTS))
    return repo_seed, num_schemas, query_seed, variant


@settings(max_examples=15, deadline=None)
@given(variant_cases())
def test_backend_variants_identical_across_toggles(case):
    """bm25/dense/ensemble: optimisation layers reproduce backend scores."""
    repo_seed, num_schemas, query_seed, (name, params) = case
    workload = make_workload(
        repo_seed, num_schemas=num_schemas, query_seed=query_seed
    )
    assert_combinations_identical(
        name,
        params,
        workload,
        thresholds=(0.15, 0.3),
        toggles=("substrate", "kernel"),
    )


@settings(max_examples=8, deadline=None)
@given(
    repo_seed=st.integers(min_value=0, max_value=10),
    variant=st.sampled_from(BACKEND_VARIANTS),
    steps=st.integers(min_value=1, max_value=3),
)
def test_corpus_sensitive_rematch_identical_across_deltas(
    repo_seed, variant, steps
):
    """Evolving repository: BM25-family sessions equal cold re-matches.

    Each delta moves the corpus statistics, so the session must take
    the full-recompute path (corpus-sensitive objectives cannot reuse
    stored pair scores) and still land byte-identical to a cold run
    against the evolved repository.
    """
    name, params = variant
    repo = generate_repository(
        GeneratorConfig(num_schemas=4, min_size=5, max_size=8, seed=repo_seed)
    )
    objective = ObjectiveFunction(NameSimilarity())
    queries = [
        extract_personal_schema(
            rng.make_tagged(repo_seed + index),
            repo.schemas()[index % 4],
            None,
            target_size=3,
            schema_id=f"prop-backend-evolve-query-{index}",
        )
        for index in range(2)
    ]
    session = EvolutionSession(
        make_matcher(name, objective, **params), queries, 0.3
    )
    session.match(repo)
    for step in range(steps):
        delta = churn_delta(session.repository, churn=0.4, seed=step)
        result, _report = session.apply(delta)
        if session.matcher.objective.corpus_sensitive:
            assert result.rematch is not None
            assert result.rematch.full_recompute
        cold = MatchingPipeline(
            make_matcher(name, objective, **params)
        ).run(queries, session.repository, 0.3)
        assert canonical_answers(result.answer_sets) == canonical_answers(
            cold.answer_sets
        ), (name, step)


def test_pre_backend_snapshot_restores_and_serves(tmp_path):
    """Format compatibility: a payload without ``corpus_token`` loads.

    Simulates a snapshot written before similarity backends existed by
    stripping the ``corpus_token`` key out of the persisted kernel
    state, then asserts the snapshot restores — kernel rows adopted,
    not refused — and serves byte-identically to the original run.
    """
    import json

    from repro.matching.similarity import persist
    from repro.schema.store import SnapshotStore

    repo = generate_repository(
        GeneratorConfig(num_schemas=4, min_size=5, max_size=9, seed=7)
    )
    objective = ObjectiveFunction(NameSimilarity())
    queries = [
        extract_personal_schema(
            rng.make_tagged(11),
            repo.schemas()[0],
            None,
            target_size=3,
            schema_id="pre-backend-query",
        )
    ]
    matcher = ExhaustiveMatcher(objective)
    result = MatchingPipeline(matcher).run(queries, repo, 0.3)

    payload = json.loads(persist.substrate_payload(objective.substrate()))
    assert payload["kernel"] is not None
    assert "corpus_token" in payload["kernel"]
    del payload["kernel"]["corpus_token"]  # the pre-backend payload format
    pre_backend_payload = json.dumps(payload, sort_keys=True)

    store = SnapshotStore(tmp_path / "snap")
    meta = {
        "repository": SnapshotStore.repository_meta(repo),
        "queries": SnapshotStore.query_meta(queries),
        "matcher_fingerprint": result.matcher_key,
        "delta_max": result.delta_max,
    }
    sections = SnapshotStore.schema_sections(repo.schemas() + queries)
    results_payload = persist.results_payload(result)
    meta["results_section"] = persist._digest_named("results", results_payload)
    sections[meta["results_section"]] = results_payload
    meta["substrate_section"] = persist._digest_named(
        "substrate", pre_backend_payload
    )
    sections[meta["substrate_section"]] = pre_backend_payload
    store.save(meta, sections)

    fresh_objective = ObjectiveFunction(NameSimilarity())
    fresh_matcher = ExhaustiveMatcher(fresh_objective)
    snapshot = persist.load_snapshot(store, fresh_matcher)
    assert snapshot.result is not None
    kernel = fresh_objective.substrate().kernel()
    assert kernel is not None
    assert kernel.rows_migrated > 0  # the saved rows were adopted, not refused
    assert canonical_answers(snapshot.result.answer_sets) == canonical_answers(
        result.answer_sets
    )
    live = fresh_matcher.match(snapshot.queries[0], snapshot.repository, 0.3)
    assert _canonical(live) == _canonical(result.answer_sets[0])


def test_backend_snapshot_round_trip(tmp_path):
    """A BM25-variant snapshot round-trips: fingerprint-gated, byte-true.

    The derived objective's fingerprint embeds the backend, so the
    restore must (a) succeed under an identically configured variant and
    (b) adopt the kernel rows — the corpus token is re-derived from the
    restored repository before the kernel migration gate compares it.
    """
    from repro.errors import SnapshotError
    from repro.matching.similarity import persist

    repo = generate_repository(
        GeneratorConfig(num_schemas=4, min_size=5, max_size=9, seed=5)
    )
    queries = [
        extract_personal_schema(
            rng.make_tagged(13),
            repo.schemas()[1],
            None,
            target_size=3,
            schema_id="backend-snapshot-query",
        )
    ]
    matcher = make_matcher("bm25", ObjectiveFunction(NameSimilarity()))
    result = MatchingPipeline(matcher).run(queries, repo, 0.3)
    persist.save_snapshot(
        tmp_path / "snap",
        repo,
        queries=queries,
        result=result,
        substrate=matcher.objective.substrate(),
    )

    fresh = make_matcher("bm25", ObjectiveFunction(NameSimilarity()))
    snapshot = persist.load_snapshot(tmp_path / "snap", fresh)
    assert snapshot.result is not None
    kernel = fresh.objective.substrate().kernel()
    assert kernel is not None and kernel.rows_migrated > 0
    live = fresh.match(snapshot.queries[0], snapshot.repository, 0.3)
    assert _canonical(live) == _canonical(result.answer_sets[0])

    # a differently configured variant must refuse the payload loudly
    foreign = make_matcher(
        "bm25", ObjectiveFunction(NameSimilarity()), k1=1.2
    )
    try:
        persist.load_snapshot(tmp_path / "snap", foreign)
    except SnapshotError:
        pass
    else:  # pragma: no cover - the assertion is the refusal itself
        raise AssertionError("foreign backend configuration was accepted")
