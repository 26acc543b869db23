"""Unit tests for name similarity and the imperfect thesaurus."""

import pickle

import pytest

from repro.errors import MatchingError
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema.vocabulary import builtin_domains, get_domain


class TestThesaurus:
    def test_symmetric(self):
        thesaurus = Thesaurus([("author", "writer")])
        assert thesaurus.synonymous("author", "writer")
        assert thesaurus.synonymous("writer", "author")

    def test_normalised_lookup(self):
        thesaurus = Thesaurus([("lastName", "surname")])
        assert thesaurus.synonymous("last_name", "SURNAME")

    def test_identity_not_synonymy(self):
        thesaurus = Thesaurus([("a b", "a-b")])  # same after normalisation
        assert len(thesaurus) == 0
        assert not thesaurus.synonymous("author", "author")

    def test_unknown_pair(self):
        thesaurus = Thesaurus([("author", "writer")])
        assert not thesaurus.synonymous("author", "price")

    def test_from_vocabularies_coverage_zero(self):
        thesaurus = Thesaurus.from_vocabularies(
            [get_domain("bibliography")], coverage=0.0, spurious_rate=0.0
        )
        assert len(thesaurus) == 0

    def test_from_vocabularies_full_coverage(self):
        thesaurus = Thesaurus.from_vocabularies(
            [get_domain("bibliography")], coverage=1.0, spurious_rate=0.0
        )
        assert thesaurus.synonymous("author", "writer")
        assert thesaurus.synonymous("author", "creator")

    def test_deterministic_per_seed(self):
        kwargs = dict(coverage=0.5, spurious_rate=0.05, seed=9)
        a = Thesaurus.from_vocabularies(builtin_domains().values(), **kwargs)
        b = Thesaurus.from_vocabularies(builtin_domains().values(), **kwargs)
        assert a._pairs == b._pairs

    def test_spurious_pairs_cross_concepts(self):
        thesaurus = Thesaurus.from_vocabularies(
            [get_domain("bibliography")], coverage=0.0, spurious_rate=0.1, seed=4
        )
        assert len(thesaurus) > 0  # only spurious entries exist

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            Thesaurus.from_vocabularies([get_domain("medical")], coverage=1.5)


class TestNameSimilarity:
    def test_identical_names(self):
        assert NameSimilarity().similarity("author", "author") == 1.0

    def test_style_variants_are_identical(self):
        sim = NameSimilarity()
        assert sim.similarity("lastName", "last_name") == 1.0
        assert sim.similarity("LAST_NAME", "last-name") == 1.0

    def test_range(self):
        sim = NameSimilarity()
        for a, b in [("price", "cost"), ("author", "wrt"), ("a", "zzz")]:
            assert 0.0 <= sim.similarity(a, b) <= 1.0

    def test_unrelated_names_rank_low(self):
        sim = NameSimilarity()
        related = sim.similarity("authors", "author")
        unrelated = sim.similarity("dosage", "publisher")
        assert related > unrelated

    def test_ramp_zeroes_weak_similarity(self):
        no_ramp = NameSimilarity(ramp_low=0.0)
        ramped = NameSimilarity(ramp_low=0.35)
        weak = no_ramp.similarity("price", "name")
        assert 0 < weak < 0.6
        assert ramped.similarity("price", "name") < weak

    def test_thesaurus_hit_scores_high(self):
        thesaurus = Thesaurus([("author", "writer")])
        sim = NameSimilarity(thesaurus)
        assert sim.similarity("author", "writer") == pytest.approx(0.95)

    def test_thesaurus_hit_through_styles(self):
        thesaurus = Thesaurus([("first name", "forename")])
        sim = NameSimilarity(thesaurus)
        assert sim.similarity("firstName", "forename") == pytest.approx(0.95)

    def test_memoisation_symmetric(self):
        sim = NameSimilarity()
        first = sim.similarity("price", "cost")
        assert sim.similarity("cost", "price") == first
        assert len(sim._memo) == 1

    def test_empty_label(self):
        assert NameSimilarity().similarity("", "author") == 0.0

    def test_weights_normalised(self):
        sim = NameSimilarity(jaro_weight=2, ngram_weight=1, token_weight=1)
        assert sim.jaro_weight == pytest.approx(0.5)

    def test_zero_weights_rejected(self):
        with pytest.raises(MatchingError):
            NameSimilarity(jaro_weight=0, ngram_weight=0, token_weight=0)

    def test_invalid_ramp_rejected(self):
        with pytest.raises(MatchingError):
            NameSimilarity(ramp_low=1.0)

    def test_fingerprint_reflects_configuration(self):
        a = NameSimilarity()
        b = NameSimilarity(ramp_low=0.2)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_includes_thesaurus_size_and_content(self):
        thesaurus = Thesaurus([("a1", "b1"), ("c1", "d1")])
        fingerprint = NameSimilarity(thesaurus).fingerprint()
        assert f"thesaurus[2:{thesaurus.digest()}]" in fingerprint

    def test_fingerprint_separates_same_size_thesauri(self):
        # same size, different content: the digest must keep them apart
        a = Thesaurus([("a1", "b1"), ("c1", "d1")])
        b = Thesaurus([("a1", "b1"), ("c1", "e1")])
        assert len(a) == len(b)
        assert NameSimilarity(a).fingerprint() != NameSimilarity(b).fingerprint()

    def test_compute_scores_normalised_labels_without_renormalising(
        self, monkeypatch
    ):
        """A new pair is normalised once per raw label, never in ``_compute``.

        The labels reach ``_compute`` normalised already; its token
        Jaccard and thesaurus lookup use them as they are, and the score
        equals the raw-label forms of both components.
        """
        from repro.matching.similarity import name as name_module
        from repro.util import text

        thesaurus = Thesaurus([("first name", "forename")])
        sim = NameSimilarity(thesaurus)
        expected = NameSimilarity(thesaurus).similarity("FirstName", "fore_name")
        calls = []
        original = text.normalise_label

        def counting(label):
            calls.append(label)
            return original(label)

        monkeypatch.setattr(text, "normalise_label", counting)
        monkeypatch.setattr(name_module, "normalise_label", counting)
        for a, b in [("first name", "forename"), ("order number", "order id")]:
            before = len(calls)
            value = sim._compute(a, b)
            assert len(calls) == before  # zero normalisations inside
            blend = (
                sim.jaro_weight * text.jaro_winkler(a, b)
                + sim.ngram_weight * text.ngram_similarity(a, b)
                + sim.token_weight * text.token_set_similarity(a, b)
            )
            lexical = max(0.0, blend - sim.ramp_low) / (1.0 - sim.ramp_low)
            if thesaurus.synonymous(a, b):
                lexical = max(lexical, sim.thesaurus_score)
            assert value == lexical
        calls.clear()
        assert sim.similarity("FirstName", "fore_name") == expected
        assert calls == ["FirstName", "fore_name"]  # once per raw label


class TestFeatureTable:
    PAIRS = [("author", "writer"), ("order id", "order number"), ("qty", "a")]

    def test_one_record_per_normalised_label(self):
        sim = NameSimilarity()
        sim.similarity("OrderId", "order_number")
        sim.similarity("order-id", "Author")
        assert sorted(sim._features) == ["author", "order id", "order number"]

    def test_bounded_by_memo_limit(self):
        sim = NameSimilarity(memo_limit=3)
        for i in range(10):
            sim.similarity(f"label{i}", f"other{i}")
        assert len(sim._features) <= 3

    def test_pickle_round_trip_carries_no_table(self):
        thesaurus = Thesaurus([("author", "writer")])
        sim = NameSimilarity(thesaurus)
        scored = {pair: sim.similarity(*pair) for pair in self.PAIRS}
        assert sim._features
        payload = pickle.dumps(sim)
        assert b"LabelFeatures" not in payload
        restored = pickle.loads(payload)
        assert restored._features == {}
        assert sim._features  # pickling leaves the original's table alone
        assert restored.fingerprint() == sim.fingerprint()
        for pair, value in scored.items():  # memo hits
            assert restored.similarity(*pair).hex() == value.hex()
        for na, nb in self.PAIRS:  # fresh scoring, from a rebuilt table
            assert restored._compute(na, nb).hex() == sim._compute(na, nb).hex()
        assert set(restored._features) == {x for pair in self.PAIRS for x in pair}
