"""Matching-state persistence: warm starts that cannot lie.

Round-trip fidelity (restored substrate matrices and reassembled answer
sets are byte-identical to the originals) plus the fingerprint gates: a
snapshot saved under any other objective/matcher configuration, against
any other repository version or query list, refuses to load with a
:class:`~repro.errors.SnapshotError` — never a silent cold start.
"""

import pytest

from repro.errors import SnapshotError
from repro.evaluation import build_workload, small_config
from repro.matching import (
    EvolutionSession,
    ExhaustiveMatcher,
    MatchingPipeline,
    NameSimilarity,
    ObjectiveFunction,
    ObjectiveWeights,
    load_snapshot,
    make_matcher,
    save_snapshot,
)
from repro.matching.similarity.persist import (
    restore_results,
    restore_substrate,
    results_payload,
    substrate_payload,
)
from repro.schema import SnapshotStore, churn_delta
from repro.util.text import tokenize_label


@pytest.fixture(scope="module")
def workload():
    return build_workload(small_config())


@pytest.fixture(scope="module")
def queries(workload):
    return [scenario.query for scenario in workload.suite.scenarios]


@pytest.fixture(scope="module")
def result(workload, queries):
    matcher = ExhaustiveMatcher(workload.objective)
    return MatchingPipeline(matcher).run(
        queries, workload.repository, 0.3
    )


def _canonical(answer_sets) -> bytes:
    return repr(
        [
            [(answer.item.key, answer.score) for answer in answers.answers()]
            for answers in answer_sets
        ]
    ).encode()


def _index_entry(schema) -> dict:
    """One schema's entry of the ``"index"`` section older payloads carry.

    The shape the retired token index exported per schema: element ids
    grouped by exact (label, datatype), and token postings of
    ``[schema_id, element_id]`` keys.
    """
    groups: dict = {}
    for element_id, element in enumerate(schema.elements()):
        groups.setdefault((element.name, element.datatype), []).append(
            element_id
        )
    postings: dict = {}
    for members in groups.values():
        for token in tokenize_label(schema.element(members[0]).name):
            postings.setdefault(token, []).extend(
                [schema.schema_id, member] for member in members
            )
    return {
        "schema_id": schema.schema_id,
        "digest": schema.content_digest(),
        "groups": [[members[0], members] for members in groups.values()],
        "postings": [[token, keys] for token, keys in postings.items()],
    }


def _fresh_universe():
    """A content-identical workload with its own objective/substrate.

    Deterministic generation means the same config yields digest-equal
    schemas — the stand-in for a restarted process.
    """
    return build_workload(small_config())


class TestSubstrateRoundTrip:
    def test_matrices_and_index_survive(self, workload, queries, result):
        payload = substrate_payload(workload.objective.substrate())
        fresh = _fresh_universe()
        substrate = fresh.objective.substrate()
        restored = restore_substrate(substrate, payload, fresh.repository)
        assert restored == len(workload.objective.substrate().cached_matrices())
        # restored matrices are bit-identical to freshly built ones
        for matrix in workload.objective.substrate().cached_matrices():
            twin = next(
                m for m in substrate.cached_matrices()
                if (m.query_digest, m.schema_digest)
                == (matrix.query_digest, matrix.schema_digest)
            )
            assert twin.costs == matrix.costs
            assert twin.candidate_order == matrix.candidate_order
            assert twin.min_rest == matrix.min_rest
        # the kernel's label universe and cost rows carried over
        kernel = substrate.kernel()
        saved = workload.objective.substrate().kernel()
        assert kernel is not None
        assert kernel.export_state() == saved.export_state()
        assert kernel.rows_migrated == saved.rows_cached > 0

    def test_warm_substrate_builds_nothing(self, workload, queries, result):
        payload = substrate_payload(workload.objective.substrate())
        fresh = _fresh_universe()
        substrate = fresh.objective.substrate()
        restore_substrate(substrate, payload, fresh.repository)
        matcher = ExhaustiveMatcher(fresh.objective)
        fresh_queries = [s.query for s in fresh.suite.scenarios]
        run = MatchingPipeline(matcher).run(
            fresh_queries, fresh.repository, 0.3
        )
        assert substrate.stats.matrices_built == 0  # warm start: O(load)
        assert _canonical(run.answer_sets) == _canonical(result.answer_sets)

    def test_restore_aliases_duplicate_rows(self):
        """Like ``build``, ``restore`` shares one tuple/order pair across
        identical rows — warm-start cost stays O(distinct labels)."""
        from repro.matching import ScoreMatrix

        duplicate = [0.5, 0.1, 0.3]
        matrix = ScoreMatrix.restore(
            "q", "s", [duplicate, [0.2, 0.9, 0.0], duplicate]
        )
        assert matrix.costs[0] is matrix.costs[2]
        assert matrix.candidate_order[0] is matrix.candidate_order[2]
        assert matrix.candidate_order[0] == (1, 2, 0)
        assert matrix.candidate_order[1] == (2, 0, 1)

    def test_objective_mismatch_is_loud(self, workload):
        payload = substrate_payload(workload.objective.substrate())
        other = ObjectiveFunction(
            NameSimilarity(workload.objective.name_similarity.thesaurus),
            ObjectiveWeights(structure=0.5),
        )
        with pytest.raises(SnapshotError, match="different objective"):
            restore_substrate(other.substrate(), payload, workload.repository)


class TestResultsRoundTrip:
    def test_answer_sets_reassemble_byte_identically(
        self, workload, queries, result
    ):
        payload = results_payload(result)
        fresh = _fresh_universe()
        matcher = ExhaustiveMatcher(fresh.objective)
        fresh_queries = [s.query for s in fresh.suite.scenarios]
        restored = restore_results(
            matcher, fresh_queries, fresh.repository, payload
        )
        assert _canonical(restored.answer_sets) == _canonical(result.answer_sets)
        assert restored.pair_results == result.pair_results
        assert restored.query_digests == result.query_digests
        assert restored.delta_max == result.delta_max

    def test_matcher_mismatch_is_loud(self, workload, queries, result):
        payload = results_payload(result)
        beam = make_matcher("beam", workload.objective, beam_width=4)
        with pytest.raises(SnapshotError, match="differently configured"):
            restore_results(beam, queries, workload.repository, payload)

    def test_repository_mismatch_is_loud(self, workload, queries, result):
        payload = results_payload(result)
        evolved, _ = workload.repository.apply(
            churn_delta(workload.repository, churn=0.3, seed=1)
        )
        matcher = ExhaustiveMatcher(workload.objective)
        with pytest.raises(SnapshotError, match="different repository"):
            restore_results(matcher, queries, evolved, payload)

    def test_query_mismatch_is_loud(self, workload, queries, result):
        payload = results_payload(result)
        matcher = ExhaustiveMatcher(workload.objective)
        with pytest.raises(SnapshotError, match="different query list"):
            restore_results(
                matcher, queries[:-1], workload.repository, payload
            )


class TestWholeSnapshots:
    def test_round_trip(self, tmp_path, workload, queries, result):
        store = save_snapshot(
            tmp_path / "snap",
            workload.repository,
            queries=queries,
            result=result,
            substrate=workload.objective.substrate(),
        )
        fresh = _fresh_universe()
        snapshot = load_snapshot(store, ExhaustiveMatcher(fresh.objective))
        assert snapshot.repository.content_digest() == (
            workload.repository.content_digest()
        )
        assert [q.content_digest() for q in snapshot.queries] == [
            q.content_digest() for q in queries
        ]
        assert snapshot.matrices_restored > 0
        assert _canonical(snapshot.result.answer_sets) == _canonical(
            result.answer_sets
        )

    def test_index_section_restores_and_serves(
        self, tmp_path, workload, queries, result
    ):
        """Format compatibility: a substrate section with an ``"index"`` key.

        Substrate payloads written while the substrate kept a token index
        carry an ``"index"`` section beside the kernel and the matrices.
        The snapshot format version did not change, so such a snapshot
        must restore (the section is ignored) and serve byte-identically.
        """
        import json

        from repro.matching.similarity import persist

        saved = workload.objective.substrate()
        payload = json.loads(substrate_payload(saved))
        assert "index" not in payload  # no longer written
        payload["index"] = {
            "repository_digest": workload.repository.content_digest(),
            "entries": [_index_entry(schema) for schema in workload.repository],
        }
        indexed_payload = json.dumps(payload, sort_keys=True)

        store = SnapshotStore(tmp_path / "snap")
        meta = {
            "repository": SnapshotStore.repository_meta(workload.repository),
            "queries": SnapshotStore.query_meta(queries),
            "matcher_fingerprint": result.matcher_key,
            "delta_max": result.delta_max,
            "objective_fingerprint": saved.objective.fingerprint(),
        }
        sections = SnapshotStore.schema_sections(
            workload.repository.schemas() + queries
        )
        results = results_payload(result)
        meta["results_section"] = persist._digest_named("results", results)
        sections[meta["results_section"]] = results
        meta["substrate_section"] = persist._digest_named(
            "substrate", indexed_payload
        )
        sections[meta["substrate_section"]] = indexed_payload
        store.save(meta, sections)

        fresh = _fresh_universe()
        matcher = ExhaustiveMatcher(fresh.objective)
        snapshot = load_snapshot(store, matcher)
        substrate = fresh.objective.substrate()
        assert snapshot.matrices_restored == len(payload["matrices"]) > 0
        assert substrate.kernel().export_state() == (
            saved.kernel().export_state()
        )
        assert _canonical(snapshot.result.answer_sets) == _canonical(
            result.answer_sets
        )
        live = MatchingPipeline(matcher).run(
            snapshot.queries, snapshot.repository, 0.3
        )
        assert _canonical(live.answer_sets) == _canonical(result.answer_sets)
        assert substrate.stats.matrices_built == 0  # served warm

    def test_repository_only_snapshot(self, tmp_path, workload):
        store = save_snapshot(tmp_path / "bare", workload.repository)
        snapshot = load_snapshot(
            store, ExhaustiveMatcher(_fresh_universe().objective)
        )
        assert snapshot.result is None
        assert snapshot.queries == []
        assert snapshot.matrices_restored == 0

    def test_save_refuses_mismatched_result(
        self, tmp_path, workload, queries, result
    ):
        evolved, _ = workload.repository.apply(
            churn_delta(workload.repository, churn=0.3, seed=2)
        )
        with pytest.raises(SnapshotError, match="not computed against"):
            save_snapshot(
                tmp_path / "bad", evolved, queries=queries, result=result
            )
        with pytest.raises(SnapshotError, match="not computed for"):
            save_snapshot(
                tmp_path / "bad",
                workload.repository,
                queries=queries[:-1],
                result=result,
            )

    def test_results_without_pair_results_refused(self, workload, result):
        import dataclasses

        hollow = dataclasses.replace(result, pair_results=[])
        with pytest.raises(SnapshotError, match="pair_results"):
            results_payload(hollow)

    def test_truncated_results_section_is_loud(
        self, tmp_path, workload, queries, result
    ):
        store = save_snapshot(
            tmp_path / "snap",
            workload.repository,
            queries=queries,
            result=result,
        )
        path = next(store.root.glob("results-*.json"))
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SnapshotError, match="corrupt"):
            load_snapshot(store, ExhaustiveMatcher(workload.objective))

    def test_load_with_wrong_matcher_is_loud(
        self, tmp_path, workload, queries, result
    ):
        store = save_snapshot(
            tmp_path / "snap",
            workload.repository,
            queries=queries,
            result=result,
        )
        beam = make_matcher("beam", workload.objective, beam_width=4)
        with pytest.raises(SnapshotError, match="differently configured"):
            load_snapshot(store, beam)

    def test_checkpoint_over_snapshot_is_incremental_and_pruned(
        self, tmp_path, workload, queries, result
    ):
        """Re-saves skip identical payloads, never overwrite referenced
        ones in place (mutable sections are digest-named), and prune
        what the new manifest no longer references."""
        store = save_snapshot(
            tmp_path / "snap",
            workload.repository,
            queries=queries,
            result=result,
        )
        first_results = next(store.root.glob("results-*.json"))
        schema_file = next(store.root.glob("schemas/*.schema"))
        before = schema_file.stat().st_mtime_ns

        # checkpoint the evolved state over the same directory
        matcher = ExhaustiveMatcher(workload.objective)
        session = EvolutionSession.from_state(
            matcher, workload.repository, result, queries
        )
        evolved_result, report = session.apply(
            churn_delta(workload.repository, churn=0.2, seed=12)
        )
        save_snapshot(
            store,
            session.repository,
            queries=queries,
            result=evolved_result,
        )
        second_results = next(store.root.glob("results-*.json"))
        # different content ⇒ different section file; the old one is
        # pruned only after the new manifest landed
        assert second_results.name != first_results.name
        assert not first_results.exists()
        # unchanged schema payloads were not rewritten
        if schema_file.exists():  # schema survived the churn delta
            assert schema_file.stat().st_mtime_ns == before
        # replaced schemas' payloads do not accumulate: every payload on
        # disk is referenced by the manifest
        manifest = store.manifest()
        on_disk = {
            path.relative_to(store.root).as_posix()
            for path in store.root.rglob("*") if path.is_file()
        }
        assert on_disk == set(manifest["sections"]) | {
            "manifest.json", ".snapshot-store"
        }
        # and the checkpoint still loads cleanly
        loaded = load_snapshot(store, ExhaustiveMatcher(workload.objective))
        assert _canonical(loaded.result.answer_sets) == _canonical(
            evolved_result.answer_sets
        )
        assert report.new_digest == loaded.repository.content_digest()

    def test_store_path_coercion(self, tmp_path, workload):
        store = save_snapshot(str(tmp_path / "s"), workload.repository)
        assert isinstance(store, SnapshotStore)
        assert load_snapshot(
            str(tmp_path / "s"), ExhaustiveMatcher(workload.objective)
        ).repository.content_digest() == workload.repository.content_digest()


class TestSessionResume:
    def test_from_state_then_delta_matches_cold(
        self, tmp_path, workload, queries, result
    ):
        """The full warm-start story: resume, evolve, stay byte-identical."""
        store = save_snapshot(
            tmp_path / "snap",
            workload.repository,
            queries=queries,
            result=result,
            substrate=workload.objective.substrate(),
        )
        fresh = _fresh_universe()
        matcher = ExhaustiveMatcher(fresh.objective)
        snapshot = load_snapshot(store, matcher)
        session = EvolutionSession.from_state(
            matcher,
            snapshot.repository,
            snapshot.result,
            snapshot.queries,
        )
        delta = churn_delta(snapshot.repository, churn=0.25, seed=9)
        incremental, _report = session.apply(delta)
        cold = MatchingPipeline(matcher).run(
            snapshot.queries, session.repository, 0.3
        )
        assert _canonical(incremental.answer_sets) == _canonical(
            cold.answer_sets
        )

    def test_from_state_validations(self, workload, queries, result):
        matcher = ExhaustiveMatcher(workload.objective)
        beam = make_matcher("beam", workload.objective, beam_width=4)
        from repro.errors import MatchingError

        with pytest.raises(MatchingError, match="differently configured"):
            EvolutionSession.from_state(
                beam, workload.repository, result, queries
            )
        evolved, _ = workload.repository.apply(
            churn_delta(workload.repository, churn=0.3, seed=3)
        )
        with pytest.raises(MatchingError, match="different repository"):
            EvolutionSession.from_state(matcher, evolved, result, queries)
        with pytest.raises(MatchingError, match="different query list"):
            EvolutionSession.from_state(
                matcher, workload.repository, result, queries[:-1]
            )
