"""Unit tests for the pluggable similarity backends."""

import pytest

from repro.errors import MatchingError
from repro.matching.objective import ObjectiveFunction, ObjectiveWeights
from repro.matching.registry import make_matcher
from repro.matching.similarity.backends import (
    EnsembleBackend,
    HashedVectorBackend,
    LexicalBackend,
    SparseBM25Backend,
)
from repro.matching.similarity.datatype import datatype_penalty
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.name import NameSimilarity
from repro.schema.generator import GeneratorConfig, generate_repository


def _repository(seed=1, num_schemas=3):
    return generate_repository(
        GeneratorConfig(num_schemas=num_schemas, min_size=5, max_size=8, seed=seed)
    )


class TestLexicalBackend:
    def test_fingerprint_is_name_similarity_fingerprint(self):
        similarity = NameSimilarity()
        backend = LexicalBackend(similarity)
        assert backend.fingerprint() == similarity.fingerprint()

    def test_default_objective_fingerprint_unchanged(self):
        """The pre-backend fingerprint format, byte for byte."""
        similarity = NameSimilarity()
        objective = ObjectiveFunction(similarity)
        assert objective.fingerprint() == (
            "delta(name=0.8,dt=0.2,struct=0.25;"
            f"{similarity.fingerprint()})"
        )

    def test_delegates_scores(self):
        similarity = NameSimilarity()
        backend = LexicalBackend(similarity)
        assert backend.similarity("OrderId", "order_id") == similarity.similarity(
            "OrderId", "order_id"
        )
        assert not backend.corpus_sensitive
        assert backend.corpus_token() == ""


class TestSparseBM25Backend:
    def test_parameter_validation(self):
        with pytest.raises(MatchingError):
            SparseBM25Backend(k1=-0.1)
        with pytest.raises(MatchingError):
            SparseBM25Backend(b=1.5)

    def test_basic_properties(self):
        backend = SparseBM25Backend()
        backend.prepare(_repository())
        assert backend.similarity("customer name", "customer name") == 1.0
        score = backend.similarity("customer name", "customer address")
        assert 0.0 <= score <= 1.0
        assert score == backend.similarity("customer address", "customer name")
        assert backend.similarity("customer name", "zzz qqq") == 0.0

    def test_unprepared_degrades_to_token_jaccard(self):
        backend = SparseBM25Backend()
        assert backend.similarity("alpha beta", "beta gamma") == pytest.approx(
            1.0 / 3.0
        )

    def test_corpus_token_tracks_repository(self):
        backend = SparseBM25Backend()
        assert backend.corpus_token() == ""
        backend.prepare(_repository(seed=1))
        first = backend.corpus_token()
        assert first
        backend.prepare(_repository(seed=1))  # idempotent
        assert backend.corpus_token() == first
        backend.prepare(_repository(seed=2))
        assert backend.corpus_token() != first

    def test_fingerprint_is_config_only(self):
        backend = SparseBM25Backend(k1=1.2, b=0.5)
        before = backend.fingerprint()
        backend.prepare(_repository())
        assert backend.fingerprint() == before
        assert backend.fingerprint() != SparseBM25Backend().fingerprint()


class TestHashedVectorBackend:
    def test_parameter_validation(self):
        with pytest.raises(MatchingError):
            HashedVectorBackend(dim=0)
        with pytest.raises(MatchingError):
            HashedVectorBackend(n=0)

    def test_basic_properties(self):
        backend = HashedVectorBackend()
        assert backend.similarity("OrderId", "order_id") == 1.0  # same normalised
        score = backend.similarity("customer name", "customer names")
        assert 0.0 < score < 1.0
        assert score == backend.similarity("customer names", "customer name")
        assert backend.similarity("", "anything") == 0.0
        assert not backend.corpus_sensitive

    def test_deterministic_across_instances(self):
        a = HashedVectorBackend()
        b = HashedVectorBackend()
        assert a.similarity("unit price", "unit cost") == b.similarity(
            "unit price", "unit cost"
        )

    def test_dim_changes_fingerprint_and_scores_possible(self):
        assert (
            HashedVectorBackend(dim=64).fingerprint()
            != HashedVectorBackend(dim=256).fingerprint()
        )


class TestEnsembleBackend:
    def test_validation(self):
        lex = LexicalBackend(NameSimilarity())
        with pytest.raises(MatchingError):
            EnsembleBackend([], [])
        with pytest.raises(MatchingError):
            EnsembleBackend([lex], [0.5, 0.5])
        with pytest.raises(MatchingError):
            EnsembleBackend([lex], [-1.0])
        with pytest.raises(MatchingError):
            EnsembleBackend([lex, HashedVectorBackend()], [0.0, 0.0])

    def test_weighted_mean(self):
        lex = LexicalBackend(NameSimilarity())
        dense = HashedVectorBackend()
        ensemble = EnsembleBackend([lex, dense], [3.0, 1.0])
        a, b = "customer name", "client name"
        expected = (
            3.0 * lex.similarity(a, b) + 1.0 * dense.similarity(a, b)
        ) / 4.0
        assert ensemble.similarity(a, b) == pytest.approx(expected)
        assert not ensemble.corpus_sensitive

    def test_corpus_sensitivity_composes(self):
        ensemble = EnsembleBackend(
            [HashedVectorBackend(), SparseBM25Backend()], [1.0, 1.0]
        )
        assert ensemble.corpus_sensitive
        assert ensemble.corpus_token() == "|"  # unprepared components
        ensemble.prepare(_repository())
        token = ensemble.corpus_token()
        assert token.startswith("|") and len(token) > 1

    def test_fingerprint_renders_weights_and_components(self):
        lex = LexicalBackend(NameSimilarity())
        fingerprint = EnsembleBackend([lex], [2.0]).fingerprint()
        assert fingerprint == f"ensemble(2.0*{lex.fingerprint()})"


class TestObjectiveIntegration:
    def test_with_backend_derives_fresh_objective(self):
        base = ObjectiveFunction(NameSimilarity(), ObjectiveWeights(0.7, 0.3, 0.2))
        derived = base.with_backend(SparseBM25Backend())
        assert derived.name_similarity is base.name_similarity
        assert derived.weights is base.weights
        assert derived.fingerprint() != base.fingerprint()
        assert derived.substrate() is not base.substrate()
        assert derived.corpus_sensitive
        assert not base.corpus_sensitive

    def test_seam_off_matches_backend_route(self):
        """The seam scores like the pre-backend direct name path."""
        objective = ObjectiveFunction(NameSimilarity())
        routed = objective.label_cost("customer name", None, "client name", None)
        name_score = objective.name_similarity.similarity(
            "customer name", "client name"
        )
        direct = (
            objective._name_share * (1.0 - name_score)
            + objective._datatype_share * datatype_penalty(None, None)
        )
        assert routed == direct


class TestKernelCorpusGate:
    def test_migration_refuses_foreign_corpus_rows(self):
        repo_a, repo_b = _repository(seed=1), _repository(seed=2)
        objective = ObjectiveFunction(
            NameSimilarity(), backend=SparseBM25Backend()
        )
        objective.prepare_corpus(repo_a)
        kernel_a = CostKernel(objective, repo_a)
        kernel_a.row("customer name", repo_a.schemas()[0].element(0).datatype)
        assert kernel_a.rows_cached == 1
        objective.prepare_corpus(repo_b)
        kernel_b = CostKernel(objective, repo_b, previous=kernel_a)
        assert kernel_b.rows_migrated == 0  # corpus token moved

    def test_migration_carries_same_corpus_rows(self):
        repository = _repository(seed=3)
        objective = ObjectiveFunction(
            NameSimilarity(), backend=SparseBM25Backend()
        )
        objective.prepare_corpus(repository)
        first = CostKernel(objective, repository)
        first.row("customer name", repository.schemas()[0].element(0).datatype)
        second = CostKernel(objective, repository, previous=first)
        assert second.rows_migrated == 1


class TestRegistryVariants:
    def test_variant_names_and_derivation(self):
        objective = ObjectiveFunction(NameSimilarity())
        for name, kind in (
            ("bm25", "bm25"),
            ("dense", "dense"),
            ("ensemble", "ensemble"),
        ):
            matcher = make_matcher(name, objective)
            assert matcher.name == name
            assert matcher.objective is not objective
            assert matcher.objective.backend.kind == kind
            assert matcher.objective.name_similarity is objective.name_similarity

    def test_variant_parameters_reach_backend(self):
        objective = ObjectiveFunction(NameSimilarity())
        matcher = make_matcher("bm25", objective, k1=1.1, b=0.4)
        assert "k1=1.1" in matcher.objective.fingerprint()
        dense = make_matcher("dense", objective, dim=64)
        assert "dim=64" in dense.objective.fingerprint()
        ensemble = make_matcher("ensemble", objective, lexical=1.0, bm25=0.0)
        assert ensemble.objective.backend.weights == [1.0, 0.0, 0.25]

    def test_variants_are_distinct_families(self):
        from repro.errors import ObjectiveMismatchError

        objective = ObjectiveFunction(NameSimilarity())
        bm25 = make_matcher("bm25", objective)
        dense = make_matcher("dense", objective)
        with pytest.raises(ObjectiveMismatchError):
            bm25.check_compatible(dense)
        # same configuration → same family, even across instances
        bm25.check_compatible(make_matcher("bm25", objective))
