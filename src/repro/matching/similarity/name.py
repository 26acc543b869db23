"""Name similarity: lexical measures plus an (imperfect) thesaurus.

Real matchers complement string measures with dictionaries — Cupid uses a
thesaurus, COMA a synonym table.  Crucially for the reproduction, the
matcher's thesaurus is *imperfect*: it is sampled from the domain
vocabularies with partial coverage and a few spurious entries.  The
matcher therefore misses some synonym pairs (lost recall) and believes
some false ones (lost precision), which is exactly what gives the
exhaustive system S1 a realistic, non-trivial P/R curve for the bounds
experiments to work on.  (A matcher with the *complete* vocabulary would
be a cheat: it would read the ground truth's mind.)
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Iterable
from typing import NamedTuple

from repro.errors import MatchingError
from repro.schema.vocabulary import Vocabulary
from repro.util import rng as rng_util
from repro.util.caching import fifo_put
from repro.util.checks import check_probability
from repro.util.text import (
    char_positions,
    jaro_winkler,
    multiset_overlap,
    ngram_profile,
    normalise_label,
)

__all__ = ["Thesaurus", "NameSimilarity"]


class Thesaurus:
    """A symmetric synonym table over *normalised* labels."""

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        self._pairs: set[frozenset[str]] = set()
        for a, b in pairs:
            na, nb = normalise_label(a), normalise_label(b)
            if na and nb and na != nb:
                self._pairs.add(frozenset((na, nb)))
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._pairs)

    def digest(self) -> str:
        """Content hash over the synonym pairs (order-independent).

        Two thesauri with equal digests behave identically;
        :meth:`NameSimilarity.fingerprint` folds this into the
        configuration identity, so same-size tables with different
        content can never collide in fingerprint-keyed caches.
        """
        if self._digest is None:
            hasher = hashlib.blake2b(digest_size=16)
            for first, second in sorted(tuple(sorted(p)) for p in self._pairs):
                hasher.update(first.encode())
                hasher.update(b"\x1f")
                hasher.update(second.encode())
                hasher.update(b"\x1e")
            self._digest = hasher.hexdigest()
        return self._digest

    def synonymous(self, a: str, b: str) -> bool:
        """Whether the thesaurus lists the two raw labels as synonyms."""
        return self.synonymous_normalised(normalise_label(a), normalise_label(b))

    def synonymous_normalised(self, na: str, nb: str) -> bool:
        """Whether the thesaurus lists two *normalised* labels as synonyms.

        The lookup itself, for callers that hold normalised labels
        already (:meth:`NameSimilarity._compute`); equal to
        :meth:`synonymous` on the raw labels because
        :func:`~repro.util.text.normalise_label` is idempotent.
        """
        if not na or not nb or na == nb:
            return False
        return frozenset((na, nb)) in self._pairs

    @classmethod
    def from_vocabularies(
        cls,
        vocabularies: Iterable[Vocabulary],
        coverage: float = 0.65,
        spurious_rate: float = 0.03,
        seed: int = 1234,
    ) -> "Thesaurus":
        """Sample an imperfect thesaurus from domain vocabularies.

        ``coverage`` is the probability that a true synonym pair makes it
        into the table; ``spurious_rate`` controls how many false pairs
        (surface forms of *different* concepts) are added, as a fraction
        of the number of true pairs considered.
        """
        check_probability(coverage, "coverage")
        check_probability(spurious_rate, "spurious_rate")
        generator = rng_util.make_tagged(seed)
        true_gen = rng_util.derive(generator, "true-pairs")
        noise_gen = rng_util.derive(generator, "spurious-pairs")

        pairs: list[tuple[str, str]] = []
        all_forms: list[tuple[str, str]] = []  # (concept, form)
        considered = 0
        for vocabulary in vocabularies:
            for concept in vocabulary.concepts():
                forms = concept.all_forms()
                for form in forms:
                    all_forms.append((concept.name, form))
                for i in range(len(forms)):
                    for j in range(i + 1, len(forms)):
                        considered += 1
                        if true_gen.random() < coverage:
                            pairs.append((forms[i], forms[j]))
        if not all_forms:
            raise MatchingError("cannot build a thesaurus from empty vocabularies")

        spurious_target = round(considered * spurious_rate)
        attempts = 0
        added = 0
        while added < spurious_target and attempts < spurious_target * 20:
            attempts += 1
            (concept_a, form_a) = noise_gen.choice(all_forms)
            (concept_b, form_b) = noise_gen.choice(all_forms)
            if concept_a == concept_b:
                continue
            pairs.append((form_a, form_b))
            added += 1
        return cls(pairs)


class LabelFeatures(NamedTuple):
    """What :meth:`NameSimilarity._compute` reads of one normalised label.

    Each field is a pure function of the label, derived once and read
    for every pair the label is scored in.
    """

    #: padded character-3-gram multiset (:func:`~repro.util.text.ngram_profile`)
    profile: Counter
    #: its size, ``sum(profile.values())``
    grams: int
    #: the word tokens, ``frozenset(label.split())``
    tokens: frozenset[str]
    #: character -> ascending positions (:func:`~repro.util.text.char_positions`)
    positions: dict[str, list[int]]

    @classmethod
    def of(cls, label: str) -> "LabelFeatures":
        profile = ngram_profile(label)
        return cls(
            profile,
            sum(profile.values()),
            frozenset(label.split()),
            char_positions(label),
        )


class NameSimilarity:
    """Combined name similarity in [0, 1] (1 = same name).

    The score is the maximum of a thesaurus hit (a fixed high score, as a
    dictionary asserts synonymy without grading it) and a weighted blend
    of Jaro-Winkler, character-3-gram Dice and token-set Jaccard on the
    normalised labels.  The blend is passed through a linear *ramp* that
    maps everything below ``ramp_low`` to 0 and rescales the rest — string
    measures give unrelated words a substantial floor (Jaro-Winkler rates
    random word pairs around 0.4-0.5), and without the ramp that floor
    floods higher thresholds with coincidental mid-similarity mappings.

    Results are memoised — matchers evaluate the same label pairs
    constantly.  The memo is keyed on the **normalised** label pair
    (order-canonicalised): every component of the score — Jaro-Winkler,
    n-gram Dice and token-set Jaccard on the normalised forms, plus the
    thesaurus, which is keyed on normalised pairs — is a pure, symmetric
    function of the normalised labels, so ``"Order ID"`` vs
    ``"order_id"`` and ``"OrderId"`` vs ``"ORDER-ID"`` all share one
    entry with identical values.  ``memo_limit`` bounds the memo
    (insertion-order eviction); re-computing an evicted pair returns the
    identical float, so eviction can never change a score — it only
    keeps long-lived services from growing the memo without bound.

    A memo miss scores the pair from one :class:`LabelFeatures` record
    per normalised label — its trigram profile and gram count, its token
    set, and the character-position index Jaro's match scan walks —
    kept in a feature table, so a label scored against hundreds of
    others is analysed once, not once per pair.  The records hold what
    the per-pair code derived (the same multisets and token sets; the
    position walk finds the same Jaro matches in the same order as a
    scan of every window position), and the blend adds the same terms
    in the same order, so every score is the same float.  The table is
    bounded by the same ``memo_limit`` FIFO as the memo, and pickles
    leave it out: it is derived data a worker rebuilds as it reads it,
    and shipping it would only grow pool and socket install payloads.
    """

    def __init__(
        self,
        thesaurus: Thesaurus | None = None,
        thesaurus_score: float = 0.95,
        jaro_weight: float = 0.45,
        ngram_weight: float = 0.35,
        token_weight: float = 0.20,
        ramp_low: float = 0.35,
        memo_limit: int = 262_144,
    ):
        check_probability(thesaurus_score, "thesaurus_score")
        if not 0.0 <= ramp_low < 1.0:
            raise MatchingError(f"ramp_low must be in [0, 1), got {ramp_low!r}")
        if memo_limit < 1:
            raise MatchingError(f"memo_limit must be >= 1, got {memo_limit!r}")
        total = jaro_weight + ngram_weight + token_weight
        if total <= 0:
            raise MatchingError("similarity weights must sum to a positive value")
        self.thesaurus = thesaurus
        self.thesaurus_score = thesaurus_score
        self.jaro_weight = jaro_weight / total
        self.ngram_weight = ngram_weight / total
        self.token_weight = token_weight / total
        self.ramp_low = ramp_low
        self.memo_limit = memo_limit
        self._memo: dict[tuple[str, str], float] = {}
        # raw label -> normalised form; keeps memo hits regex-free (the
        # similarity memo itself is keyed on normalised labels)
        self._norm_cache: dict[str, str] = {}
        # normalised label -> its features (derived; never pickled)
        self._features: dict[str, LabelFeatures] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_features"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._features = {}

    def fingerprint(self) -> str:
        """Configuration identity (objective-function equality checks).

        Includes the thesaurus *content* digest, not just its size — two
        same-size, different-content tables score differently and must
        never share a fingerprint (or any cache entry keyed on one).
        Weights are rendered at full ``repr`` precision for the same
        reason.
        """
        thesaurus_part = (
            "none"
            if self.thesaurus is None
            else f"thesaurus[{len(self.thesaurus)}:{self.thesaurus.digest()}]"
        )
        return (
            f"name(jw={self.jaro_weight!r},ng={self.ngram_weight!r},"
            f"tok={self.token_weight!r},ramp={self.ramp_low!r},"
            f"{thesaurus_part}@{self.thesaurus_score!r})"
        )

    def similarity(self, a: str, b: str) -> float:
        """Similarity of two raw element labels.

        Memoised on the order-canonicalised *normalised* label pair, so
        raw spellings that normalise alike (``"Order ID"`` /
        ``"order_id"``) share one cache entry; the memo is bounded by
        ``memo_limit`` with insertion-order eviction (class docstring).
        Normalisation itself is cached per raw label, so repeat lookups
        touch two small dicts and no regex.
        """
        norms = self._norm_cache
        na = norms.get(a)
        if na is None:
            na = normalise_label(a)
            fifo_put(norms, a, na, self.memo_limit)
        nb = norms.get(b)
        if nb is None:
            nb = normalise_label(b)
            fifo_put(norms, b, nb, self.memo_limit)
        key = (na, nb) if na <= nb else (nb, na)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = self._compute(key[0], key[1])
        fifo_put(self._memo, key, value, self.memo_limit)
        return value

    def _label_features(self, label: str) -> LabelFeatures:
        """``label``'s feature record, derived on first use (FIFO-bounded)."""
        features = self._features.get(label)
        if features is None:
            features = LabelFeatures.of(label)
            fifo_put(self._features, label, features, self.memo_limit)
        return features

    def _compute(self, na: str, nb: str) -> float:
        """Score two already-normalised labels, as they are.

        Every component is a pure symmetric function of the normalised
        forms, which is what makes the normalised memo key in
        :meth:`similarity` exact.  Nothing here normalises again: each
        label's features (:class:`LabelFeatures`: 3-gram profile, token
        set, Jaro position index) come from the feature table, and the
        thesaurus is asked through its normalised-pair lookup — equal to
        the raw-label forms (``ngram_similarity``,
        ``token_set_similarity``, :meth:`Thesaurus.synonymous`) because
        :func:`~repro.util.text.normalise_label` is idempotent.  The
        Dice and Jaccard terms are ``dice_coefficient``'s and
        ``jaccard``'s expressions on the cached sizes (a non-empty
        normalised label has grams and tokens, so neither degenerates),
        and the blend adds the three terms in the same order as before.
        """
        if not na or not nb:
            return 0.0
        if na == nb:
            return 1.0
        fa = self._label_features(na)
        fb = self._label_features(nb)
        shared = len(fa.tokens & fb.tokens)
        winkler = jaro_winkler(na, nb, b_positions=fb.positions)
        dice = (
            2.0 * multiset_overlap(fa.profile, fb.profile) / (fa.grams + fb.grams)
        )
        token_jaccard = shared / (len(fa.tokens) + len(fb.tokens) - shared)
        blend = (
            self.jaro_weight * winkler
            + self.ngram_weight * dice
            + self.token_weight * token_jaccard
        )
        lexical = max(0.0, blend - self.ramp_low) / (1.0 - self.ramp_low)
        if self.thesaurus is not None and self.thesaurus.synonymous_normalised(
            na, nb
        ):
            return max(lexical, self.thesaurus_score)
        return lexical
