"""Per-label features vs per-pair derivation on a cold set-up's label pairs.

Before the first evaluation, a user of the bounds pays for cold name
similarity: S1 and every S2 score mappings with one objective, and the
clustering S2 groups the repository by the same similarity.  On the
bounds-sweep evaluation (S1 exhaustive plus the harness's three S2s over
100 schemas and ten 5-element queries) that cold work is about 92k
:meth:`NameSimilarity._compute` calls over a few hundred distinct
normalised labels — the clustering leader scan makes most of them, the
kernel's cost rows the rest.  This bench records those pairs from one
cold run of that set-up and replays them through:

* **spec** — :func:`helpers.oracles.pairwise_compute`: both labels'
  trigram profiles and token sets derived for every pair, ``Counter &``
  Dice, and Jaro scanning every window position;
* **features** — :meth:`NameSimilarity._compute` on a fresh scorer: one
  :class:`~repro.matching.similarity.name.LabelFeatures` record per
  label, an integer overlap loop, and Jaro visiting only the positions
  of each character.

Each replay starts from an empty feature table, so deriving the records
is timed too.  The contract asserts every score the same float
(``float.hex``) always and — under ``BENCH_TIMING_ASSERTS`` (see
README.md) — the features path ≥2.5× faster.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter
from unittest import mock

import pytest

from helpers.oracles import pairwise_compute
from repro.evaluation import build_workload, validation
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import (
    S2_EXTRA_TOPK,
    S2_ONE_BEAM_WIDTH,
    S2_TWO_CLUSTERS_PER_ELEMENT,
)
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    TopKCandidateMatcher,
)
from repro.matching.similarity.name import NameSimilarity

#: the evaluation perfbench's bounds-sweep sets up (bench_answers' CONFIG)
CONFIG = WorkloadConfig(
    num_schemas=100,
    min_schema_size=10,
    max_schema_size=24,
    num_queries=10,
    query_size=5,
)
ROUNDS = 3


@pytest.fixture(scope="module")
def setup_pairs():
    """(thesaurus, every (na, nb) a cold set-up passes to ``_compute``)."""
    workload = build_workload(CONFIG)
    objective = workload.objective
    systems = [
        ExhaustiveMatcher(objective),
        BeamMatcher(objective, beam_width=S2_ONE_BEAM_WIDTH),
        ClusteringMatcher(
            objective, clusters_per_element=S2_TWO_CLUSTERS_PER_ELEMENT
        ),
        TopKCandidateMatcher(objective, candidates_per_element=S2_EXTRA_TOPK),
    ]
    pairs: list[tuple[str, str]] = []
    compute = NameSimilarity._compute

    def recording(self, na, nb):
        pairs.append((na, nb))
        return compute(self, na, nb)

    with mock.patch.object(NameSimilarity, "_compute", recording):
        for matcher in systems:
            validation.run_system(
                matcher, workload.suite, workload.schedule, workers=1
            )
    return workload.objective.name_similarity.thesaurus, pairs


def replay_features(thesaurus, pairs) -> list[float]:
    compute = NameSimilarity(thesaurus)._compute
    return [compute(na, nb) for na, nb in pairs]


def replay_spec(thesaurus, pairs) -> list[float]:
    spec = NameSimilarity(thesaurus)
    return [pairwise_compute(spec, na, nb) for na, nb in pairs]


def timed(replay, thesaurus, pairs) -> float:
    """Median seconds of ``ROUNDS`` replays, each from a collected heap."""
    seconds = []
    for _ in range(ROUNDS):
        gc.collect()
        started = perf_counter()
        replay(thesaurus, pairs)
        seconds.append(perf_counter() - started)
    return statistics.median(seconds)


def test_bench_replay_spec(benchmark, setup_pairs):
    benchmark.pedantic(replay_spec, args=setup_pairs, rounds=3, iterations=1)


def test_bench_replay_features(benchmark, setup_pairs):
    benchmark.pedantic(
        replay_features, args=setup_pairs, rounds=3, iterations=1
    )


def test_feature_replay_speedup_and_identical(setup_pairs):
    """The contract: the same floats, ≥2.5× faster (measured ~3.3×)."""
    thesaurus, pairs = setup_pairs
    distinct = {label for pair in pairs for label in pair}
    assert len(pairs) > 50 * len(distinct)  # many pairs per label
    features = replay_features(thesaurus, pairs)
    spec = replay_spec(thesaurus, pairs)
    assert [value.hex() for value in features] == [value.hex() for value in spec]
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        spec_seconds = timed(replay_spec, thesaurus, pairs)
        feature_seconds = timed(replay_features, thesaurus, pairs)
        assert spec_seconds >= 2.5 * feature_seconds, (
            f"feature replay ({feature_seconds:.2f} s) is not ≥2.5× faster "
            f"than the per-pair spec ({spec_seconds:.2f} s) over "
            f"{len(pairs)} pairs"
        )
