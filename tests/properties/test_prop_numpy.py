"""Property tests: the kernel's numpy gather never changes an answer.

The cost kernel's batched whole-repository gather
(:class:`~repro.matching.similarity.kernel.CostKernel`) runs whenever
numpy is available.  Its licence is the same as the other optimised
layers': it may only move work, never answers.  Four families pin it
down:

* **Numpy vs. spec** — for random repositories, queries, matchers and
  thresholds, the batched gather must produce byte-identical answer
  sets to the one-schema python gather (numpy hidden in-process by
  :func:`helpers.oracles.numpy_off`).
* **The full toggle grid** — all 2⁴ combinations of the four oracle
  toggles (substrate, kernel, flat-search, numpy) agree byte for
  byte; this is the flagship run of the :mod:`helpers.differential`
  harness.
* **Evolving streams** — an incremental
  :class:`~repro.matching.evolution.EvolutionSession` on the batched
  gather stays byte-identical to numpy-off cold re-matches across churn
  deltas.
* **Snapshots across modes** — a substrate payload saved with numpy on
  equals, byte for byte, one saved with numpy off; and each restores
  and serves under the *opposite* mode identically.  (Payloads export
  from the ``array('d')`` spec buffers, so they are numpy-agnostic by
  construction — these tests keep that true.)

With numpy not installed (or hidden via ``REPRO_NO_NUMPY=1``) the same
tests run spec-against-spec and still must pass — the subprocess test
at the bottom pins the absent-numpy configuration explicitly.
"""

import os
import subprocess
import sys
from pathlib import Path

from helpers.differential import (
    MATCHERS,
    assert_combinations_identical,
    canonical as _canonical,
    make_workload,
)
from helpers.oracles import numpy_off
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    MatchingPipeline,
    canonical_answers,
    make_matcher,
    numpy_available,
)
from repro.matching.evolution import EvolutionSession
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity import persist
from repro.matching.similarity.name import NameSimilarity
from repro.schema import churn_delta
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.util import rng


@st.composite
def numpy_cases(draw):
    repo_seed = draw(st.integers(min_value=0, max_value=25))
    num_schemas = draw(st.integers(min_value=2, max_value=5))
    query_seed = draw(st.integers(min_value=0, max_value=25))
    matcher = draw(st.sampled_from(MATCHERS))
    with_thesaurus = draw(st.booleans())
    return repo_seed, num_schemas, query_seed, matcher, with_thesaurus


@settings(max_examples=25, deadline=None)
@given(numpy_cases())
def test_numpy_answer_sets_byte_identical(case):
    repo_seed, num_schemas, query_seed, (name, params), with_thesaurus = case
    workload = make_workload(
        repo_seed,
        num_schemas=num_schemas,
        query_seed=query_seed,
        with_thesaurus=with_thesaurus,
    )
    assert_combinations_identical(name, params, workload, toggles=("numpy",))


@settings(max_examples=6, deadline=None)
@given(numpy_cases())
def test_all_toggle_combinations_byte_identical(case):
    """All 2⁴ toggle combinations agree — the full differential grid."""
    repo_seed, num_schemas, query_seed, (name, params), with_thesaurus = case
    workload = make_workload(
        repo_seed,
        num_schemas=num_schemas,
        query_seed=query_seed,
        with_thesaurus=with_thesaurus,
    )
    assert_combinations_identical(
        name, params, workload, thresholds=(0.15, 0.45)
    )


@settings(max_examples=10, deadline=None)
@given(
    repo_seed=st.integers(min_value=0, max_value=10),
    matcher=st.sampled_from(MATCHERS),
    steps=st.integers(min_value=1, max_value=3),
)
def test_numpy_identical_across_delta_stream(repo_seed, matcher, steps):
    """Batched-gather incremental sessions match numpy-off cold re-matches."""
    name, params = matcher
    repo = generate_repository(
        GeneratorConfig(num_schemas=4, min_size=5, max_size=8, seed=repo_seed)
    )
    objective = ObjectiveFunction(NameSimilarity())
    queries = [
        extract_personal_schema(
            rng.make_tagged(repo_seed + index),
            repo.schemas()[index % 4],
            None,
            target_size=3,
            schema_id=f"prop-numpy-evolve-query-{index}",
        )
        for index in range(2)
    ]
    session = EvolutionSession(
        make_matcher(name, objective, **params), queries, 0.3, cache=False
    )
    session.match(repo)
    for step in range(steps):
        delta = churn_delta(session.repository, churn=0.4, seed=step)
        result, _report = session.apply(delta)
        with numpy_off():
            cold = MatchingPipeline(
                make_matcher(
                    name, ObjectiveFunction(NameSimilarity()), **params
                ),
                cache=False,
            ).run(queries, session.repository, 0.3)
        assert canonical_answers(result.answer_sets) == canonical_answers(
            cold.answer_sets
        ), (name, step)


def _matched_substrate(numpy_on: bool):
    """One seeded workload matched end to end; returns (objective, answers).

    A fresh objective each call, the whole run under one numpy mode — so
    the substrate's persisted state (kernel rows, cached matrices) was
    *built* by that mode's code.
    """
    repo = generate_repository(
        GeneratorConfig(num_schemas=4, min_size=5, max_size=9, seed=11)
    )
    objective = ObjectiveFunction(NameSimilarity())
    query = extract_personal_schema(
        rng.make_tagged(7),
        repo.schemas()[1],
        None,
        target_size=3,
        schema_id="prop-numpy-snapshot-query",
    )
    matcher = make_matcher("exhaustive", objective)
    if numpy_on:
        answers = matcher.match(query, repo, 0.3)
    else:
        with numpy_off():
            answers = matcher.match(query, repo, 0.3)
    return repo, objective, query, answers


def test_snapshot_payload_identical_across_numpy_modes():
    """Persisted substrate state is numpy-agnostic, byte for byte.

    Payloads export from the ``array('d')`` spec buffers and the
    matrices' cost tuples, never from ndarray views — so the same
    workload matched under either mode must serialize identically, and
    each payload must restore and serve under the opposite mode with
    byte-identical answers (the save-on/restore-off and
    save-off/restore-on diagonal).
    """
    repo_on, objective_on, query, answers_on = _matched_substrate(True)
    repo_off, objective_off, _query, answers_off = _matched_substrate(False)
    assert _canonical(answers_on) == _canonical(answers_off)

    payload_on = persist.substrate_payload(objective_on.substrate())
    payload_off = persist.substrate_payload(objective_off.substrate())
    assert payload_on == payload_off  # byte equality of the JSON sections

    # save numpy-on -> restore & serve numpy-off
    fresh_off = ObjectiveFunction(NameSimilarity())
    persist.restore_substrate(fresh_off.substrate(), payload_on, repo_on)
    with numpy_off():
        served_off = make_matcher("exhaustive", fresh_off).match(
            query, repo_on, 0.3
        )
    assert _canonical(served_off) == _canonical(answers_on)

    # save numpy-off -> restore & serve numpy-on
    fresh_on = ObjectiveFunction(NameSimilarity())
    persist.restore_substrate(fresh_on.substrate(), payload_off, repo_off)
    served_on = make_matcher("exhaustive", fresh_on).match(
        query, repo_off, 0.3
    )
    assert _canonical(served_on) == _canonical(answers_off)


_SUBPROCESS_SCRIPT = """
import sys
from repro.matching import make_matcher, numpy_available
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.util import rng

assert not numpy_available(), "REPRO_NO_NUMPY=1 must hide numpy"
repo = generate_repository(
    GeneratorConfig(num_schemas=4, min_size=5, max_size=9, seed=11)
)
objective = ObjectiveFunction(NameSimilarity())
query = extract_personal_schema(
    rng.make_tagged(7), repo.schemas()[1], None,
    target_size=3, schema_id="prop-numpy-snapshot-query",
)
answers = make_matcher("exhaustive", objective).match(query, repo, 0.3)
sys.stdout.write(
    repr([(a.item.key, a.score) for a in answers.answers()])
)
"""


def test_numpy_absent_process_byte_identical():
    """A numpy-less interpreter serves the same bytes as the batched path.

    Spawns a subprocess with ``REPRO_NO_NUMPY=1`` (the CI mechanism for
    the numpy-absent configuration), matches the same seeded workload
    this process matches on the batched gather, and compares the
    canonical answers across the process boundary.
    """
    env = dict(os.environ)
    env["REPRO_NO_NUMPY"] = "1"
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    spawned = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    _repo, _objective, _query, answers = _matched_substrate(
        numpy_on=numpy_available()
    )
    assert spawned.stdout.encode() == _canonical(answers)
