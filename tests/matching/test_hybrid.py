"""Unit tests for the hybrid (clustering + beam) matcher."""

import pytest

from repro.errors import MatchingError
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    HybridMatcher,
    MatchingPipeline,
)
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
        schema_id="hq",
    )
    return repo, objective, query


class TestHybridMatcher:
    def test_subset_of_exhaustive(self, setup):
        repo, objective, query = setup
        exhaustive = ExhaustiveMatcher(objective).match(query, repo, 0.35)
        hybrid = HybridMatcher(objective).match(query, repo, 0.35)
        hybrid.check_subset_of(exhaustive, "hybrid")
        hybrid.check_scores_match(exhaustive)

    def test_subset_of_each_component(self, setup):
        repo, objective, query = setup
        clustering = ClusteringMatcher(objective, clusters_per_element=3).match(
            query, repo, 0.35
        )
        beam = BeamMatcher(objective, beam_width=8).match(query, repo, 0.35)
        hybrid = HybridMatcher(
            objective, clusters_per_element=3, beam_width=8
        ).match(query, repo, 0.35)
        hybrid.check_subset_of(clustering, "hybrid-vs-clustering")
        # dominated by the stricter component at every threshold size
        for delta in (0.15, 0.25, 0.35):
            assert hybrid.size_at(delta) <= min(
                clustering.size_at(delta), beam.size_at(delta)
            )

    def test_wide_parameters_approach_clustering(self, setup):
        repo, objective, query = setup
        clustering = ClusteringMatcher(objective, clusters_per_element=3).match(
            query, repo, 0.3
        )
        hybrid = HybridMatcher(
            objective, clusters_per_element=3, beam_width=10_000
        ).match(query, repo, 0.3)
        assert hybrid.items() == clustering.items()

    @pytest.mark.parametrize("clusters_per_element", [1, 2, 3])
    def test_unbounded_beam_keeps_clustering_pairs(
        self, small_workload, clusters_per_element
    ):
        """A beam wider than any level is the restricted exact search.

        Per (query, schema) pair the hybrid then returns exactly the
        mappings and scores of clustering with the same nominations;
        the beam emits them by bound, not in search order, so each
        pair's results compare as a set.
        """
        queries = [scenario.query for scenario in small_workload.suite]
        objective = small_workload.objective

        def pair_sets(matcher):
            result = MatchingPipeline(matcher).run(
                queries, small_workload.repository, 0.4
            )
            return [
                {schema_id: set(pairs) for schema_id, pairs in by.items()}
                for by in result.pair_results
            ]

        clustering = ClusteringMatcher(
            objective, clusters_per_element=clusters_per_element
        )
        hybrid = HybridMatcher(
            objective,
            clusters_per_element=clusters_per_element,
            beam_width=10**9,
        )
        assert pair_sets(hybrid) == pair_sets(clustering)

    def test_invalid_beam_width(self, setup):
        _repo, objective, _query = setup
        with pytest.raises(MatchingError):
            HybridMatcher(objective, beam_width=0)

    def test_describe_includes_both_parameters(self, setup):
        _repo, objective, _query = setup
        description = HybridMatcher(objective).describe()
        assert description["system"] == "hybrid"
        assert "beam_width" in description
        assert "clusters_per_element" in description

    def test_registered(self, setup):
        from repro.matching.registry import available_matchers, make_matcher

        _repo, objective, _query = setup
        assert "hybrid" in available_matchers()
        matcher = make_matcher("hybrid", objective, beam_width=4)
        assert matcher.beam_width == 4
