"""Matching-state persistence: warm starts that cannot lie.

Round-trip fidelity (the restored kernel scores no row, matrices
gathered again from it and reassembled answer sets are byte-identical
to the originals) plus the fingerprint gates: a snapshot saved under
any other objective/matcher configuration, against any other repository
version or query list, refuses to load with a
:class:`~repro.errors.SnapshotError` — never a silent cold start.  So
does a section that does not parse into the shape its writer gives it.
"""

import json

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


def _matrices_entry(matrix) -> dict:
    """One entry of the ``"matrices"`` section older payloads carry."""
    return {
        "query": matrix.query_digest,
        "schema": matrix.schema_digest,
        "costs": [list(row) for row in matrix.costs],
    }


def _by_key(substrate) -> dict:
    return {
        (matrix.query_digest, matrix.schema_digest): matrix
        for matrix in substrate.cached_matrices()
    }


def _regathered(substrate, saved: dict, universe) -> int:
    """Gather ``saved``'s matrices again from ``substrate``; compare them.

    Only matrices of ``universe``'s queries and repository are compared
    (a shared substrate may also hold other versions'); returns how many.
    """
    queries = {
        s.query.content_digest(): s.query for s in universe.suite.scenarios
    }
    schemas = {s.content_digest(): s for s in universe.repository}
    compared = 0
    for (query_digest, schema_digest), matrix in saved.items():
        if query_digest in queries and schema_digest in schemas:
            twin = substrate.matrix(
                queries[query_digest], schemas[schema_digest]
            )
            assert twin.costs == matrix.costs
            assert twin.candidate_order == matrix.candidate_order
            assert twin.min_rest == matrix.min_rest
            compared += 1
    return compared


def _fresh_universe():
    """A content-identical workload with its own objective/substrate.

    Deterministic generation means the same config yields digest-equal
    schemas — the stand-in for a restarted process.
    """
    return build_workload(small_config())


class TestSubstrateRoundTrip:
    def test_matrices_and_index_survive(self, workload, queries, result):
        """Only the kernel is written; matrices gathered again from the
        restored kernel equal the saved ones, and no row is scored."""
        saved = workload.objective.substrate()
        payload = substrate_payload(saved)
        assert sorted(json.loads(payload)) == [
            "kernel", "objective_fingerprint"
        ]
        fresh = _fresh_universe()
        substrate = fresh.objective.substrate()
        restore_substrate(substrate, payload, fresh.repository)
        assert len(substrate) == 0  # no matrix is read back
        # the kernel's label universe and cost rows carried over
        kernel = substrate.kernel()
        assert kernel is not None
        assert kernel.export_state() == saved.kernel().export_state()
        assert kernel.rows_migrated == saved.kernel().rows_cached > 0
        assert _regathered(substrate, _by_key(saved), fresh) > 0
        assert kernel.rows_built == 0

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
        # warm start: every matrix is a gather, no kernel row is scored
        assert substrate.kernel().rows_built == 0
        assert _canonical(run.answer_sets) == _canonical(result.answer_sets)

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
        # the kernel's rows were adopted; no matrix was read back
        substrate = fresh.objective.substrate()
        assert substrate.kernel().rows_migrated > 0
        assert len(substrate) == 0
        assert _canonical(snapshot.result.answer_sets) == _canonical(
            result.answer_sets
        )

    def _legacy_store(self, root, workload, queries, result, extra: dict):
        """A snapshot whose substrate section also holds ``extra`` keys."""
        from repro.matching.similarity import persist

        saved = workload.objective.substrate()
        payload = json.loads(substrate_payload(saved))
        assert not set(extra) & set(payload)  # no longer written
        payload.update(extra)
        legacy_payload = json.dumps(payload, sort_keys=True)

        store = SnapshotStore(root)
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
            "substrate", legacy_payload
        )
        sections[meta["substrate_section"]] = legacy_payload
        store.save(meta, sections)
        return store

    def _assert_serves_warm(self, store, workload, result):
        """Warm-start from ``store``; it must serve byte-identically."""
        fresh = _fresh_universe()
        matcher = ExhaustiveMatcher(fresh.objective)
        snapshot = load_snapshot(store, matcher)
        substrate = fresh.objective.substrate()
        assert len(substrate) == 0  # legacy sections are ignored
        assert substrate.kernel().export_state() == (
            workload.objective.substrate().kernel().export_state()
        )
        assert _canonical(snapshot.result.answer_sets) == _canonical(
            result.answer_sets
        )
        live = MatchingPipeline(matcher).run(
            snapshot.queries, snapshot.repository, 0.3
        )
        assert _canonical(live.answer_sets) == _canonical(result.answer_sets)
        assert substrate.kernel().rows_built == 0  # served warm
        return substrate

    def test_index_section_restores_and_serves(
        self, tmp_path, workload, queries, result
    ):
        """Format compatibility: a substrate section with an ``"index"`` key.

        Substrate payloads written while the substrate kept a token index
        carry an ``"index"`` section beside the kernel and the matrices.
        The snapshot format version did not change, so such a snapshot
        must restore (both sections are ignored) and serve
        byte-identically.
        """
        saved = workload.objective.substrate()
        store = self._legacy_store(
            tmp_path / "snap", workload, queries, result,
            {
                "index": {
                    "repository_digest": workload.repository.content_digest(),
                    "entries": [
                        _index_entry(schema) for schema in workload.repository
                    ],
                },
                "matrices": [
                    _matrices_entry(m) for m in saved.cached_matrices()
                ],
            },
        )
        self._assert_serves_warm(store, workload, result)

    def test_matrices_section_restores_and_serves(
        self, tmp_path, workload, queries, result
    ):
        """Format compatibility: a substrate section with ``"matrices"``.

        Every snapshot written while matrices were persisted holds them
        beside the kernel.  The section is ignored: the warm start serves
        byte-identically, scores no kernel row, and the matrices it
        gathers again equal the ones the section holds.
        """
        saved = workload.objective.substrate()
        entries = [_matrices_entry(m) for m in saved.cached_matrices()]
        store = self._legacy_store(
            tmp_path / "snap", workload, queries, result,
            {"matrices": entries},
        )
        substrate = self._assert_serves_warm(store, workload, result)
        regathered = _by_key(substrate)
        compared = 0
        for entry in entries:
            twin = regathered.get((entry["query"], entry["schema"]))
            if twin is not None:
                assert [list(row) for row in twin.costs] == entry["costs"]
                compared += 1
        assert compared > 0

    def test_repository_only_snapshot(self, tmp_path, workload):
        store = save_snapshot(tmp_path / "bare", workload.repository)
        fresh = _fresh_universe()
        snapshot = load_snapshot(store, ExhaustiveMatcher(fresh.objective))
        assert snapshot.result is None
        assert snapshot.queries == []
        assert fresh.objective.substrate().kernel() is None  # nothing adopted

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


def _first_pairs(state) -> tuple[int, str]:
    """(query index, schema id) of the first non-empty pair result."""
    return next(
        (index, schema_id)
        for index, by_schema in enumerate(state["pair_results"])
        for schema_id, pairs in sorted(by_schema.items())
        if pairs
    )


def _edit_pairs(edit):
    """A results mutation applied to the first non-empty pair result."""
    def mutate(state):
        index, schema_id = _first_pairs(state)
        edit(state["pair_results"][index], schema_id)
    return mutate


def _set_entry(position, value):
    def edit(by_schema, schema_id):
        by_schema[schema_id][0][position] = value
    return edit


def _set_id(value):
    def edit(by_schema, schema_id):
        by_schema[schema_id][0][0][0] = value
    return edit


_SUBSTRATE_MUTATIONS = {
    "list-section": lambda state: [],
    "kernel-list": lambda state: state.update(kernel=[]),
    "labels-not-list": lambda state: state["kernel"].update(labels=5),
    "label-arity": lambda state: state["kernel"]["labels"].__setitem__(
        0, ["x"]
    ),
    "label-not-string": lambda state: state["kernel"]["labels"][0].__setitem__(
        0, 7
    ),
    "row-arity": lambda state: state["kernel"]["rows"].__setitem__(
        0, state["kernel"]["rows"][0][:2]
    ),
    "costs-not-list": lambda state: state["kernel"]["rows"][0].__setitem__(
        2, 1.5
    ),
}

_RESULTS_MUTATIONS = {
    "list-section": lambda state: [],
    "no-delta-max": lambda state: state.pop("delta_max"),
    "text-delta-max": lambda state: state.update(delta_max="0.3"),
    "query-digests-not-list": lambda state: state.update(query_digests=5),
    "pair-results-map": lambda state: state.update(pair_results={}),
    "pair-results-short": lambda state: state["pair_results"].pop(),
    "by-schema-list": lambda state: state["pair_results"].__setitem__(0, []),
    "schema-missing": _edit_pairs(lambda by_schema, sid: by_schema.pop(sid)),
    "schema-foreign": _edit_pairs(
        lambda by_schema, sid: by_schema.update(ghost=[])
    ),
    "pairs-map": _edit_pairs(
        lambda by_schema, sid: by_schema.update({sid: {}})
    ),
    "entry-arity": _edit_pairs(
        lambda by_schema, sid: by_schema[sid].__setitem__(0, [[0]])
    ),
    "ids-not-list": _edit_pairs(_set_entry(0, 5)),
    "ids-too-long": _edit_pairs(
        lambda by_schema, sid: by_schema[sid][0][0].append(0)
    ),
    "id-negative": _edit_pairs(_set_id(-1)),
    "id-past-schema": _edit_pairs(_set_id(10_000)),
    "id-not-int": _edit_pairs(_set_id(0.0)),
    "score-text": _edit_pairs(_set_entry(1, "0.1")),
}


class TestMalformedSections:
    """Every malformed section raises ``SnapshotError`` and nothing else."""

    @staticmethod
    def _mutated(payload: str, mutate) -> str:
        state = json.loads(payload)
        replaced = mutate(state)
        return json.dumps(replaced if isinstance(replaced, list) else state)

    @pytest.mark.parametrize("name", ["not-json", *_SUBSTRATE_MUTATIONS])
    def test_substrate_section_refused(self, workload, result, name):
        payload = substrate_payload(workload.objective.substrate())
        if name == "not-json":
            payload = payload[:-1]
        else:
            payload = self._mutated(payload, _SUBSTRATE_MUTATIONS[name])
        fresh = _fresh_universe()
        with pytest.raises(SnapshotError):
            restore_substrate(
                fresh.objective.substrate(), payload, fresh.repository
            )

    @pytest.mark.parametrize("name", ["not-json", *_RESULTS_MUTATIONS])
    def test_results_section_refused(self, workload, queries, result, name):
        payload = results_payload(result)
        if name == "not-json":
            payload = payload[:-1]
        else:
            payload = self._mutated(payload, _RESULTS_MUTATIONS[name])
        matcher = ExhaustiveMatcher(workload.objective)
        with pytest.raises(SnapshotError):
            restore_results(matcher, queries, workload.repository, payload)
