"""Integration-grade unit tests for the four matching systems.

The decisive invariants: every improvement's answer set is a subset of
the exhaustive system's with identical scores, at every threshold.
"""

import pytest

from repro.errors import MatchingError
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    TopKCandidateMatcher,
)
from repro.matching.clustering import ElementClusterer
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.schema.vocabulary import builtin_domains
from repro.util import rng


@pytest.fixture(scope="module")
def setup():
    repo = generate_repository(
        GeneratorConfig(num_schemas=8, min_size=8, max_size=16, seed=42)
    )
    thesaurus = Thesaurus.from_vocabularies(
        builtin_domains().values(), coverage=0.7, seed=5
    )
    objective = ObjectiveFunction(NameSimilarity(thesaurus))
    query = extract_personal_schema(
        rng.make_tagged(30), repo.schemas()[0], None, target_size=3,
        schema_id="tq",
    )
    exhaustive = ExhaustiveMatcher(objective).match(query, repo, 0.35)
    return repo, objective, query, exhaustive


IMPROVEMENTS = [
    ("beam", lambda obj: BeamMatcher(obj, beam_width=6)),
    ("clustering", lambda obj: ClusteringMatcher(obj, clusters_per_element=2)),
    ("topk", lambda obj: TopKCandidateMatcher(obj, candidates_per_element=4)),
]


class TestExhaustive:
    def test_monotone_in_threshold(self, setup):
        repo, objective, query, _ = setup
        matcher = ExhaustiveMatcher(objective)
        low = matcher.match(query, repo, 0.2)
        high = matcher.match(query, repo, 0.35)
        assert low.is_subset_of(high)

    def test_all_scores_within_threshold(self, setup):
        _repo, _objective, _query, answers = setup
        assert all(a.score <= 0.35 + 1e-9 for a in answers)

    def test_scores_recomputable(self, setup):
        _repo, objective, query, answers = setup
        for answer in list(answers)[:25]:
            assert objective.mapping_cost(query, answer.item) == answer.score

    def test_negative_threshold_rejected(self, setup):
        repo, objective, query, _ = setup
        with pytest.raises(MatchingError):
            ExhaustiveMatcher(objective).match(query, repo, -0.1)

    def test_max_answers_guard(self, setup):
        repo, objective, query, _ = setup
        matcher = ExhaustiveMatcher(objective, max_answers=1)
        with pytest.raises(MatchingError, match="max_answers"):
            matcher.match(query, repo, 0.35)

    def test_max_answers_guard_in_batch_match(self, setup):
        repo, objective, query, _ = setup
        matcher = ExhaustiveMatcher(objective, max_answers=1)
        with pytest.raises(MatchingError, match="max_answers"):
            matcher.batch_match([query], repo, 0.35)


class TestImprovements:
    @pytest.mark.parametrize("name,factory", IMPROVEMENTS)
    def test_subset_property(self, setup, name, factory):
        repo, objective, query, exhaustive = setup
        improved = factory(objective).match(query, repo, 0.35)
        improved.check_subset_of(exhaustive, name)

    @pytest.mark.parametrize("name,factory", IMPROVEMENTS)
    def test_identical_scores(self, setup, name, factory):
        repo, objective, query, exhaustive = setup
        improved = factory(objective).match(query, repo, 0.35)
        improved.check_scores_match(exhaustive)

    @pytest.mark.parametrize("name,factory", IMPROVEMENTS)
    def test_subset_at_every_threshold(self, setup, name, factory):
        repo, objective, query, exhaustive = setup
        improved = factory(objective).match(query, repo, 0.35)
        for delta in (0.1, 0.2, 0.3, 0.35):
            assert improved.at_threshold(delta).is_subset_of(
                exhaustive.at_threshold(delta)
            )

    @pytest.mark.parametrize("name,factory", IMPROVEMENTS)
    def test_describe_reports_parameters(self, setup, name, factory):
        _repo, objective, _query, _ = setup
        description = factory(objective).describe()
        assert description["system"] == name
        assert "objective" in description

    def test_check_compatible_passes_for_shared_objective(self, setup):
        _repo, objective, _query, _ = setup
        ExhaustiveMatcher(objective).check_compatible(BeamMatcher(objective))

    def test_invalid_parameters_rejected(self, setup):
        _repo, objective, _query, _ = setup
        with pytest.raises(MatchingError):
            BeamMatcher(objective, beam_width=0)
        with pytest.raises(MatchingError):
            ClusteringMatcher(objective, clusters_per_element=0)
        with pytest.raises(MatchingError):
            TopKCandidateMatcher(objective, candidates_per_element=0)


class TestBeamSpecifics:
    def test_wider_beam_retains_more(self, setup):
        repo, objective, query, _ = setup
        narrow = BeamMatcher(objective, beam_width=2).match(query, repo, 0.35)
        wide = BeamMatcher(objective, beam_width=32).match(query, repo, 0.35)
        assert len(narrow) <= len(wide)
        assert narrow.is_subset_of(wide)


class TestClusteringSpecifics:
    def test_clusterer_deterministic(self, setup):
        repo, objective, _query, _ = setup
        clusterer = ElementClusterer(objective.name_similarity)
        first = clusterer.cluster(repo)
        second = clusterer.cluster(repo)
        assert [c.members for c in first] == [c.members for c in second]

    def test_clusters_partition_elements(self, setup):
        repo, objective, _query, _ = setup
        clusters = ElementClusterer(objective.name_similarity).cluster(repo)
        all_members = [key for c in clusters for key in c.members]
        assert len(all_members) == repo.element_count()
        assert len(set(all_members)) == len(all_members)

    def test_invalid_join_threshold(self, setup):
        _repo, objective, _query, _ = setup
        with pytest.raises(MatchingError):
            ElementClusterer(objective.name_similarity, join_threshold=0.0)

    def test_more_clusters_retain_more(self, setup):
        repo, objective, query, _ = setup
        narrow = ClusteringMatcher(objective, clusters_per_element=1).match(
            query, repo, 0.35
        )
        wide = ClusteringMatcher(objective, clusters_per_element=5).match(
            query, repo, 0.35
        )
        assert len(narrow) <= len(wide)

    def test_prepare_caches_per_repository(self, setup):
        repo, objective, query, _ = setup
        matcher = ClusteringMatcher(objective, clusters_per_element=2)
        matcher.prepare(repo)
        clusters_first = matcher._clusters
        matcher.prepare(repo)
        assert matcher._clusters is clusters_first


class TestTopKSpecifics:
    def test_larger_k_retains_more(self, setup):
        repo, objective, query, _ = setup
        small = TopKCandidateMatcher(objective, candidates_per_element=2).match(
            query, repo, 0.35
        )
        large = TopKCandidateMatcher(objective, candidates_per_element=8).match(
            query, repo, 0.35
        )
        assert len(small) <= len(large)
        assert small.is_subset_of(large)
