"""Pluggable similarity backends: the name-score plane of the objective.

The objective function Δ blends three evidence sources — name, datatype,
structure — but only the *name* plane has real design freedom: the
datatype penalty is a fixed table and the structure cost is a property
of whole mappings.  This module makes that plane pluggable: a
:class:`SimilarityBackend` scores one pair of raw element labels in
[0, 1], and :class:`~repro.matching.objective.ObjectiveFunction` routes
its name-cost term through whichever backend it was constructed with.
Everything downstream — matrices, the scoring kernel, the pipeline, the
bounds math — is backend-agnostic, because it only ever sees the
combined per-element cost.

The contract every backend must honour (``docs/backends.md`` is the
author-facing version):

* **Determinism** — ``similarity(a, b)`` is a pure, symmetric function
  of the *normalised* labels (:func:`~repro.util.text.normalise_label`)
  plus, for corpus-sensitive backends, the prepared corpus statistics.
  No randomness, no wall-clock, no ``hash()`` (whose value changes per
  process under ``PYTHONHASHSEED``); hashing goes through
  :mod:`hashlib`.  This is what licenses the repository scoring kernel
  (:class:`~repro.matching.similarity.kernel.CostKernel`) to compute one
  cost per distinct (normalised label, datatype) pair per repository and
  gather it everywhere.
* **Config fingerprinting** — :meth:`SimilarityBackend.fingerprint`
  renders the backend *configuration* (never corpus state) at full
  ``repr`` precision.  It is folded into the objective fingerprint, so
  two objectives score-compatible for the bounds technique exactly when
  their fingerprints match, and fingerprint-keyed caches (candidate
  cache, snapshot gates) can never serve a foreign backend's scores.
* **Corpus honesty** — a backend whose scores depend on repository-wide
  statistics (:class:`SparseBM25Backend`'s document frequencies) sets
  ``corpus_sensitive = True``, freezes its statistics in
  :meth:`SimilarityBackend.prepare` (idempotent per repository content
  digest), and reports them through
  :meth:`SimilarityBackend.corpus_token` — a content digest the
  substrate and kernel use to invalidate cached scores when the corpus
  moved.  The token must be a pure function of (repository content,
  backend configuration), so state keyed by repository digest stays
  valid.

The default :class:`LexicalBackend` wraps the established
:class:`~repro.matching.similarity.name.NameSimilarity` blend and its
fingerprint *verbatim*, so refactoring the objective onto the backend
seam changed no fingerprint, no score and no snapshot compatibility:
its :meth:`~LexicalBackend.similarity` delegates to the very
:meth:`NameSimilarity.similarity` call the objective made before the
seam existed.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import MatchingError
from repro.matching.similarity.name import NameSimilarity
from repro.schema.repository import SchemaRepository
from repro.util.caching import fifo_put
from repro.util.text import character_ngrams, normalise_label, tokenize_label

__all__ = [
    "EnsembleBackend",
    "HashedVectorBackend",
    "LexicalBackend",
    "SimilarityBackend",
    "SparseBM25Backend",
]


class SimilarityBackend(ABC):
    """One way of scoring a pair of element labels in [0, 1].

    Subclasses implement :meth:`similarity` and :meth:`fingerprint`
    under the module-docstring contract; corpus-sensitive backends
    additionally override :meth:`prepare` and :meth:`corpus_token`.
    """

    #: short tag naming the backend family
    kind: str = "backend"

    #: True when scores depend on repository-wide statistics frozen by
    #: :meth:`prepare`; the substrate invalidates cached matrices and
    #: kernel rows whenever :meth:`corpus_token` moves, and incremental
    #: re-matching falls back to a full recompute after deltas
    corpus_sensitive: bool = False

    @abstractmethod
    def similarity(self, a: str, b: str) -> float:
        """Similarity of two raw element labels, in [0, 1]."""

    @abstractmethod
    def fingerprint(self) -> str:
        """Configuration identity string (never corpus state)."""

    def prepare(self, repository: SchemaRepository) -> None:
        """Freeze corpus statistics for ``repository``; idempotent.

        The default does nothing (corpus-insensitive backends need no
        corpus).
        """

    def corpus_token(self) -> str:
        """Content digest of the frozen corpus statistics; ``""`` if none."""
        return ""


class LexicalBackend(SimilarityBackend):
    """The established lexical blend, behind the backend seam.

    Wraps :class:`~repro.matching.similarity.name.NameSimilarity` —
    Jaro-Winkler + character-3-gram Dice + token-set Jaccard with the
    ramp and the imperfect thesaurus — without changing a byte of it.
    The fingerprint is the wrapped similarity's fingerprint *verbatim*:
    a default-configured objective therefore fingerprints exactly as it
    did before backends existed, which is what keeps every pre-backend
    snapshot loading and every fingerprint-keyed cache entry valid.
    """

    kind = "lexical"

    def __init__(self, name_similarity: NameSimilarity):
        self.name_similarity = name_similarity

    def similarity(self, a: str, b: str) -> float:
        return self.name_similarity.similarity(a, b)

    def fingerprint(self) -> str:
        return self.name_similarity.fingerprint()


class SparseBM25Backend(SimilarityBackend):
    """BM25-weighted sparse token overlap over the repository corpus.

    Schema labels are short documents over word tokens
    (:func:`~repro.util.text.tokenize_label`); each element of the
    repository is one document.  :meth:`prepare` freezes the corpus
    statistics — per-token document frequencies, document count and
    average length — in one scan over the repository's elements.

    A label's token weights follow the BM25 term shape with ``tf = 1``
    per distinct token (labels are a handful of words; multiplicity is
    noise at that length):

    .. math::

        w(t) = \\mathrm{idf}(t) \\cdot
               \\frac{k_1 + 1}{1 + k_1 (1 - b + b \\cdot L/\\bar L)}

    with the standard ``idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5))``,
    and two labels score by **weighted Jaccard** over their token sets —
    ``Σ min(w_a, w_b) / Σ max(w_a, w_b)`` — which is symmetric, lands in
    [0, 1] and degrades to plain token-set Jaccard when unprepared
    (all weights 1, no length norm).  Rare, discriminative tokens
    dominate the overlap; corpus-wide filler ("id", "name") is damped.

    Deterministic by construction: statistics are a pure function of
    repository content, scores a pure function of the normalised labels
    plus those statistics, and :meth:`corpus_token` digests the
    statistics so every downstream cache can tell one corpus from
    another.
    """

    kind = "bm25"
    corpus_sensitive = True

    #: bound on the per-label weight-profile and pair memo caches;
    #: evicted entries re-derive exactly (pure functions of label +
    #: frozen stats), so eviction only caps memory
    MEMO_LIMIT = 65_536

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 < 0:
            raise MatchingError(f"k1 must be >= 0, got {k1!r}")
        if not 0.0 <= b <= 1.0:
            raise MatchingError(f"b must be in [0, 1], got {b!r}")
        self.k1 = float(k1)
        self.b = float(b)
        self._repository_digest: str | None = None
        self._idf: dict[str, float] = {}
        self._default_idf = 1.0
        self._avg_len = 0.0
        self._token: str = ""
        self._profiles: dict[str, tuple[tuple[str, ...], tuple[float, ...]]] = {}
        self._memo: dict[tuple[str, str], float] = {}

    def fingerprint(self) -> str:
        return f"bm25(k1={self.k1!r},b={self.b!r})"

    def prepare(self, repository: SchemaRepository) -> None:
        digest = repository.content_digest()
        if digest == self._repository_digest:
            return
        df: dict[str, int] = {}
        for schema in repository:
            for element in schema.elements():
                for token in set(tokenize_label(element.name)):
                    df[token] = df.get(token, 0) + 1
        total_elements = sum(len(schema) for schema in repository)
        total_length = sum(df.values())  # Σ per-element distinct tokens
        self._idf = {
            token: math.log(
                1.0 + (total_elements - count + 0.5) / (count + 0.5)
            )
            for token, count in df.items()
        }
        self._default_idf = math.log(1.0 + (total_elements + 0.5) / 0.5)
        self._avg_len = (
            total_length / total_elements if total_elements else 0.0
        )
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(str(total_elements).encode())
        for token in sorted(df):
            hasher.update(b"\x1e")
            hasher.update(token.encode())
            hasher.update(b"\x1f")
            hasher.update(str(df[token]).encode())
        self._token = hasher.hexdigest()
        self._repository_digest = digest
        self._profiles.clear()
        self._memo.clear()

    def corpus_token(self) -> str:
        return self._token

    def _profile(self, normalised: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """Sorted distinct tokens of one normalised label + BM25 weights."""
        cached = self._profiles.get(normalised)
        if cached is not None:
            return cached
        tokens = tuple(sorted(set(normalised.split())))
        if self._repository_digest is None:
            weights = tuple(1.0 for _ in tokens)
        else:
            length = len(tokens)
            saturation = (self.k1 + 1.0) / (
                1.0
                + self.k1
                * (1.0 - self.b + self.b * length / self._avg_len)
            ) if self._avg_len > 0 else 1.0
            idf = self._idf
            default = self._default_idf
            weights = tuple(
                idf.get(token, default) * saturation for token in tokens
            )
        profile = (tokens, weights)
        fifo_put(self._profiles, normalised, profile, self.MEMO_LIMIT)
        return profile

    def similarity(self, a: str, b: str) -> float:
        na, nb = normalise_label(a), normalise_label(b)
        if na == nb:
            return 1.0
        key = (na, nb) if na <= nb else (nb, na)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        tokens_a, weights_a = self._profile(key[0])
        tokens_b, weights_b = self._profile(key[1])
        wa = dict(zip(tokens_a, weights_a))
        wb = dict(zip(tokens_b, weights_b))
        overlap = 0.0
        union = 0.0
        for token in set(wa) | set(wb):
            in_a, in_b = wa.get(token), wb.get(token)
            if in_a is not None and in_b is not None:
                overlap += min(in_a, in_b)
                union += max(in_a, in_b)
            else:
                union += in_a if in_a is not None else in_b
        value = overlap / union if union > 0 else 0.0
        fifo_put(self._memo, key, value, self.MEMO_LIMIT)
        return value


class HashedVectorBackend(SimilarityBackend):
    """Cosine over hashed character-n-gram count vectors (dense, no deps).

    Each normalised label embeds as a ``dim``-wide count vector: every
    padded character n-gram (:func:`~repro.util.text.character_ngrams`)
    hashes to a bucket via :func:`hashlib.blake2b` — never the built-in
    ``hash``, whose value changes per process under ``PYTHONHASHSEED`` —
    and the pair scores by cosine.  Counts are non-negative, so cosine
    lands in [0, 1]; the embedding is a pure function of the normalised
    label alone, so the backend is corpus-insensitive and pair-local
    (it composes with incremental re-matching like the lexical blend).

    This is the classic hashing-trick feature map: collisions are part
    of the (deterministic) definition, not an error, and ``dim`` trades
    collision rate against vector width.
    """

    kind = "dense"

    #: bound on the per-label vector and pair memo caches; evicted
    #: entries re-derive exactly
    MEMO_LIMIT = 65_536

    def __init__(self, dim: int = 256, n: int = 3):
        if dim < 1:
            raise MatchingError(f"dim must be >= 1, got {dim!r}")
        if n < 1:
            raise MatchingError(f"n must be >= 1, got {n!r}")
        self.dim = int(dim)
        self.n = int(n)
        self._buckets: dict[str, int] = {}
        self._vectors: dict[str, tuple[dict[int, int], float]] = {}
        self._memo: dict[tuple[str, str], float] = {}

    def fingerprint(self) -> str:
        return f"hashvec(dim={self.dim!r},n={self.n!r})"

    def _bucket(self, gram: str) -> int:
        bucket = self._buckets.get(gram)
        if bucket is None:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8)
            bucket = int.from_bytes(digest.digest(), "big") % self.dim
            fifo_put(self._buckets, gram, bucket, self.MEMO_LIMIT)
        return bucket

    def _vector(self, normalised: str) -> tuple[dict[int, int], float]:
        """Sparse count vector of one normalised label + its L2 norm."""
        cached = self._vectors.get(normalised)
        if cached is not None:
            return cached
        counts: dict[int, int] = {}
        for gram in character_ngrams(normalised, n=self.n, pad=True):
            bucket = self._bucket(gram)
            counts[bucket] = counts.get(bucket, 0) + 1
        norm = math.sqrt(sum(count * count for count in counts.values()))
        vector = (counts, norm)
        fifo_put(self._vectors, normalised, vector, self.MEMO_LIMIT)
        return vector

    def similarity(self, a: str, b: str) -> float:
        na, nb = normalise_label(a), normalise_label(b)
        if na == nb:
            return 1.0
        key = (na, nb) if na <= nb else (nb, na)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        counts_a, norm_a = self._vector(key[0])
        counts_b, norm_b = self._vector(key[1])
        if norm_a == 0.0 or norm_b == 0.0:
            value = 0.0
        else:
            if len(counts_b) < len(counts_a):
                counts_a, counts_b = counts_b, counts_a
            dot = sum(
                count * counts_b.get(bucket, 0)
                for bucket, count in counts_a.items()
            )
            # clamp: float rounding may nudge an exact match past 1.0
            value = min(1.0, dot / (norm_a * norm_b))
        fifo_put(self._memo, key, value, self.MEMO_LIMIT)
        return value


class EnsembleBackend(SimilarityBackend):
    """Weighted blend of component backends (normalised weighted mean).

    The score is ``Σ wᵢ·sᵢ / Σ wᵢ`` over the components, so it stays in
    [0, 1] whenever the components do.  Corpus sensitivity, preparation
    and the corpus token all compose: the ensemble is corpus-sensitive
    iff any component is, :meth:`prepare` fans out to every component,
    and :meth:`corpus_token` joins the component tokens positionally.
    The fingerprint renders each weight against its component
    fingerprint, so reweighting — or swapping a component — changes the
    objective identity exactly as it changes the scores.
    """

    kind = "ensemble"

    def __init__(
        self,
        components: Sequence[SimilarityBackend],
        weights: Sequence[float],
    ):
        components = list(components)
        weights = [float(weight) for weight in weights]
        if not components:
            raise MatchingError("an ensemble needs at least one component")
        if len(components) != len(weights):
            raise MatchingError(
                f"{len(components)} components but {len(weights)} weights"
            )
        if any(weight < 0 for weight in weights):
            raise MatchingError("ensemble weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise MatchingError("ensemble weights must sum to a positive value")
        self.components = components
        self.weights = weights
        self._total = total
        self.corpus_sensitive = any(
            component.corpus_sensitive for component in components
        )

    def fingerprint(self) -> str:
        parts = ",".join(
            f"{weight!r}*{component.fingerprint()}"
            for component, weight in zip(self.components, self.weights)
        )
        return f"ensemble({parts})"

    def prepare(self, repository: SchemaRepository) -> None:
        for component in self.components:
            component.prepare(repository)

    def corpus_token(self) -> str:
        if not self.corpus_sensitive:
            return ""
        return "|".join(
            component.corpus_token() for component in self.components
        )

    def similarity(self, a: str, b: str) -> float:
        blended = sum(
            weight * component.similarity(a, b)
            for component, weight in zip(self.components, self.weights)
        )
        return blended / self._total
