"""Element-level similarity heuristics feeding the objective function.

Split by evidence source, mirroring the layering of the matchers the
paper builds on (Cupid, COMA, iMAP):

* :mod:`~repro.matching.similarity.name` — lexical + thesaurus name
  similarity;
* :mod:`~repro.matching.similarity.backends` — pluggable similarity
  backends: the protocol behind the objective's name plane, the default
  lexical backend, the BM25 sparse and hashed dense scorers, and the
  weighted ensemble;
* :mod:`~repro.matching.similarity.datatype` — datatype compatibility
  penalties;
* :mod:`~repro.matching.similarity.structure` — ancestry preservation of
  whole mappings;
* :mod:`~repro.matching.similarity.matrix` — the similarity substrate:
  precomputed per-(query, schema) score matrices and the per-objective
  cache sharing them, with the repository kernel, across matchers,
  thresholds and pipeline shards — the one place every search gets its
  costs;
* :mod:`~repro.matching.similarity.kernel` — the repository scoring
  kernel: distinct (normalised label, datatype) pairs interned into a
  per-repository universe with flat cost-row buffers, so each distinct
  cost is computed once per repository and matrices become gathers —
  batched over the whole repository when the optional numpy is
  installed (:func:`numpy_available`), one schema at a time otherwise.
"""

from repro.matching.similarity.backends import (
    EnsembleBackend,
    HashedVectorBackend,
    LexicalBackend,
    SimilarityBackend,
    SparseBM25Backend,
)
from repro.matching.similarity.datatype import datatype_penalty
from repro.matching.similarity.kernel import CostKernel, numpy_available
from repro.matching.similarity.matrix import ScoreMatrix, SimilaritySubstrate
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.matching.similarity.structure import ancestry_violations

__all__ = [
    "CostKernel",
    "EnsembleBackend",
    "HashedVectorBackend",
    "LexicalBackend",
    "NameSimilarity",
    "ScoreMatrix",
    "SimilarityBackend",
    "SimilaritySubstrate",
    "SparseBM25Backend",
    "Thesaurus",
    "ancestry_violations",
    "datatype_penalty",
    "numpy_available",
]
