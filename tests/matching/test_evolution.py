"""Incremental re-matching over evolving repositories.

The headline property: after ANY delta, the incremental re-match is
**byte-identical** to a cold full re-match of the new repository — for
every matcher (pair-local ones reuse/skip/recompute, repository-global
ones fall back to a full recompute) and every delta kind (add, remove,
replace, mixed, no-op).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.oracles import substrate_off
from repro.errors import MatchingError
from repro.evaluation import (
    EvolutionConfig,
    build_evolution,
    build_workload,
    small_config,
)
from repro.matching import (
    EvolutionSession,
    ExhaustiveMatcher,
    MatchingPipeline,
    evolution_session,
    make_matcher,
)
from repro.schema import RepositoryDelta, churn_delta

_MATCHERS = [
    ("exhaustive", {}),
    ("beam", {"beam_width": 4}),
    ("clustering", {"clusters_per_element": 2}),
    ("topk", {"candidates_per_element": 3}),
    ("hybrid", {"clusters_per_element": 2, "beam_width": 4}),
]

_PAIR_LOCAL = {"exhaustive": True, "beam": True, "topk": True,
               "clustering": False, "hybrid": False}


@pytest.fixture(scope="module")
def workload():
    return build_workload(small_config())


@pytest.fixture(scope="module")
def queries(workload):
    return [scenario.query for scenario in workload.suite.scenarios]


def _canonical(answer_sets) -> bytes:
    return repr(
        [
            [(answer.item.key, answer.score) for answer in answers.answers()]
            for answers in answer_sets
        ]
    ).encode()


def _cold(matcher, queries, repository, delta_max):
    return MatchingPipeline(matcher, cache=False).run(
        queries, repository, delta_max
    )


class TestByteIdentity:
    @pytest.mark.parametrize("name,params", _MATCHERS)
    def test_identical_over_delta_stream(self, workload, queries, name, params):
        matcher = make_matcher(name, workload.objective, **params)
        session = EvolutionSession(matcher, queries, 0.3, cache=False)
        session.match(workload.repository)
        repository = workload.repository
        for step in range(3):
            delta = churn_delta(repository, churn=0.25, seed=step)
            result, report = session.apply(delta)
            repository = session.repository
            cold = _cold(matcher, queries, repository, 0.3)
            assert _canonical(result.answer_sets) == _canonical(
                cold.answer_sets
            ), (name, step)
            assert result.rematch is not None
            assert result.rematch.full_recompute is not _PAIR_LOCAL[name]

    @pytest.mark.parametrize(
        "delta_kind", ["add", "remove", "replace", "noop"]
    )
    def test_identical_per_delta_kind(self, workload, queries, delta_kind):
        matcher = ExhaustiveMatcher(workload.objective)
        session = EvolutionSession(matcher, queries, 0.3, cache=False)
        session.match(workload.repository)
        repository = workload.repository
        if delta_kind == "noop":
            delta = RepositoryDelta()
        else:
            weights = {
                "add": (0.0, 1.0, 0.0),
                "remove": (0.0, 0.0, 1.0),
                "replace": (1.0, 0.0, 0.0),
            }[delta_kind]
            delta = churn_delta(
                repository, churn=0.3, seed=5,
                replace_weight=weights[0],
                add_weight=weights[1],
                remove_weight=weights[2],
            )
        result, _report = session.apply(delta)
        cold = _cold(matcher, queries, session.repository, 0.3)
        assert _canonical(result.answer_sets) == _canonical(cold.answer_sets)

    def test_identical_without_substrate(self, workload, queries):
        with substrate_off():
            matcher = ExhaustiveMatcher(workload.objective)
            session = EvolutionSession(matcher, queries, 0.3, cache=False)
            session.match(workload.repository)
            delta = churn_delta(workload.repository, churn=0.3, seed=2)
            result, _ = session.apply(delta)
            cold = _cold(matcher, queries, session.repository, 0.3)
            assert _canonical(result.answer_sets) == _canonical(
                cold.answer_sets
            )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        churn=st.sampled_from((0.1, 0.3, 0.6)),
        delta_max=st.sampled_from((0.1, 0.3)),
    )
    def test_identity_property(self, seed, churn, delta_max):
        workload = build_workload(small_config())
        queries = [scenario.query for scenario in workload.suite.scenarios]
        matcher = make_matcher("topk", workload.objective,
                               candidates_per_element=3)
        session = EvolutionSession(matcher, queries, delta_max, cache=False)
        session.match(workload.repository)
        delta = churn_delta(workload.repository, churn=churn, seed=seed)
        result, _ = session.apply(delta)
        cold = _cold(matcher, queries, session.repository, delta_max)
        assert _canonical(result.answer_sets) == _canonical(cold.answer_sets)


class TestRematchAccounting:
    def test_unchanged_schemas_are_reused(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)
        session = EvolutionSession(matcher, queries, 0.3, cache=False)
        session.match(workload.repository)
        delta = churn_delta(workload.repository, churn=0.2, seed=1)
        result, report = session.apply(delta)
        stats = result.rematch
        assert stats is not None and not stats.full_recompute
        assert stats.pairs_reused == len(queries) * len(report.unchanged)
        assert (
            stats.pairs_reused + stats.pairs_skipped + stats.pairs_recomputed
            == stats.pairs_total
            == len(queries) * len(session.repository)
        )
        assert stats.queries_touched <= len(queries)

    def test_noop_delta_recomputes_nothing(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)
        session = EvolutionSession(matcher, queries, 0.3, cache=False)
        session.match(workload.repository)
        result, report = session.apply(RepositoryDelta())
        assert report.is_noop
        assert result.rematch.pairs_recomputed == 0
        assert result.rematch.pairs_reused == result.rematch.pairs_total

    def test_full_recompute_flag_for_repository_global_matchers(
        self, workload, queries
    ):
        matcher = make_matcher(
            "clustering", workload.objective, clusters_per_element=2
        )
        assert not matcher.pair_local
        session = EvolutionSession(matcher, queries, 0.3, cache=False)
        session.match(workload.repository)
        result, _ = session.apply(churn_delta(workload.repository, 0.2, 1))
        assert result.rematch.full_recompute
        assert result.rematch.pairs_recomputed == result.rematch.pairs_total


class TestSessionApi:
    def test_accessors_require_match(self, workload, queries):
        session = EvolutionSession(
            ExhaustiveMatcher(workload.objective), queries, 0.3
        )
        with pytest.raises(MatchingError, match="call match"):
            _ = session.repository
        with pytest.raises(MatchingError, match="call match"):
            _ = session.answer_sets
        with pytest.raises(MatchingError, match="call match"):
            session.apply(RepositoryDelta())

    def test_empty_queries_rejected(self, workload):
        with pytest.raises(MatchingError, match="at least one query"):
            EvolutionSession(ExhaustiveMatcher(workload.objective), [], 0.3)

    def test_negative_threshold_rejected(self, workload, queries):
        with pytest.raises(MatchingError, match="delta_max"):
            EvolutionSession(
                ExhaustiveMatcher(workload.objective), queries, -0.1
            )

    def test_session_tracks_state(self, workload, queries):
        session = EvolutionSession(
            ExhaustiveMatcher(workload.objective), queries, 0.3, cache=False
        )
        session.match(workload.repository)
        assert session.repository is workload.repository
        assert session.last_report is None
        assert session.last_rematch is None
        delta = churn_delta(workload.repository, churn=0.2, seed=9)
        _, report = session.apply(delta)
        assert session.last_report is report
        assert session.last_rematch is not None
        assert session.repository.content_digest() == report.new_digest

    def test_registry_evolution_session(self, workload, queries):
        session = evolution_session(
            "beam", workload.objective, queries, 0.3,
            params={"beam_width": 4}, cache=False,
        )
        session.match(workload.repository)
        result, _ = session.apply(churn_delta(workload.repository, 0.2, 3))
        cold = _cold(session.matcher, queries, session.repository, 0.3)
        assert _canonical(result.answer_sets) == _canonical(cold.answer_sets)


class TestRematchValidation:
    def _previous(self, workload, queries, delta_max=0.3):
        matcher = ExhaustiveMatcher(workload.objective)
        pipeline = MatchingPipeline(matcher, cache=False)
        previous = pipeline.run(queries, workload.repository, delta_max)
        new_repo, report = workload.repository.apply(
            churn_delta(workload.repository, churn=0.2, seed=4)
        )
        return pipeline, previous, new_repo, report

    def test_threshold_mismatch_rejected(self, workload, queries):
        pipeline, previous, new_repo, report = self._previous(
            workload, queries
        )
        with pytest.raises(MatchingError, match="threshold"):
            pipeline.rematch(
                queries, new_repo, 0.2, previous=previous, report=report
            )

    def test_repository_mismatch_rejected(self, workload, queries):
        pipeline, previous, new_repo, report = self._previous(
            workload, queries
        )
        with pytest.raises(MatchingError, match="new content digest"):
            pipeline.rematch(
                queries, workload.repository, 0.3,
                previous=previous, report=report,
            )

    def test_query_mismatch_rejected(self, workload, queries):
        pipeline, previous, new_repo, report = self._previous(
            workload, queries
        )
        with pytest.raises(MatchingError, match="[Qq]uery set"):
            pipeline.rematch(
                queries[:-1], new_repo, 0.3, previous=previous, report=report
            )

    def test_matcher_mismatch_rejected(self, workload, queries):
        _pipeline, previous, new_repo, report = self._previous(
            workload, queries
        )
        other = MatchingPipeline(
            make_matcher("beam", workload.objective, beam_width=4),
            cache=False,
        )
        with pytest.raises(MatchingError, match="differently configured"):
            other.rematch(
                queries, new_repo, 0.3, previous=previous, report=report
            )

    def test_previous_without_pair_results_rejected(self, workload, queries):
        pipeline, previous, new_repo, report = self._previous(
            workload, queries
        )
        previous.pair_results = []
        with pytest.raises(MatchingError, match="pair_results"):
            pipeline.rematch(
                queries, new_repo, 0.3, previous=previous, report=report
            )

    def test_batch_rematch_wrapper(self, workload, queries):
        matcher = ExhaustiveMatcher(workload.objective)
        pipeline = MatchingPipeline(matcher, cache=False)
        previous = pipeline.run(queries, workload.repository, 0.3)
        new_repo, report = workload.repository.apply(
            churn_delta(workload.repository, churn=0.2, seed=4)
        )
        incremental = matcher.batch_rematch(
            queries, new_repo, 0.3,
            previous=previous, report=report, cache=False,
        )
        cold = matcher.batch_match(queries, new_repo, 0.3, cache=False)
        assert _canonical(incremental) == _canonical(cold)


class TestEvolutionWorkloads:
    def test_build_evolution_grid(self, workload):
        config = EvolutionConfig(
            churn_rates=(0.1, 0.3), steps_per_rate=2, seed=5
        )
        steps = build_evolution(workload, config)
        assert len(steps) == config.num_steps == 4
        assert [step.churn for step in steps] == [0.1, 0.1, 0.3, 0.3]
        # each step applies cleanly onto the previous repository
        repository = workload.repository
        for step in steps:
            repository, report = repository.apply(step.delta)
            assert repository.content_digest() == step.repository.content_digest()
            assert report.new_digest == step.report.new_digest
            assert step.suite.repository is step.repository

    def test_build_evolution_rebases_ground_truth(self, workload):
        steps = build_evolution(
            workload,
            EvolutionConfig(churn_rates=(0.5,), steps_per_rate=1, seed=3),
        )
        step = steps[0]
        assert len(step.suite) == len(workload.suite)
        # ground truth points only at schemas of the evolved repository
        for scenario in step.suite:
            for mapping in scenario.ground_truth:
                for handle in mapping.targets:
                    assert handle.schema.schema_id in step.repository

    def test_build_evolution_deterministic(self, workload):
        config = EvolutionConfig(churn_rates=(0.2,), steps_per_rate=2, seed=8)
        first = build_evolution(workload, config)
        second = build_evolution(workload, config)
        assert [s.repository.content_digest() for s in first] == [
            s.repository.content_digest() for s in second
        ]
