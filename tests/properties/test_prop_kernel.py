"""Property tests: the scoring kernel never changes an answer.

Three families:

* **Kernel vs. oracle** — for random repositories, queries, matchers
  and thresholds, matching through the repository cost kernel (interned
  label-universe rows, matrix gathers, shared interned clustering) must
  produce byte-identical answer sets to the PR-4 path the kernel oracle
  (:func:`helpers.oracles.kernel_off`) swaps in.
* **Evolving streams** — the same identity must survive a delta stream:
  an incremental :class:`~repro.matching.evolution.EvolutionSession`
  on the kernel (rows migrating across versions) stays byte-identical
  to kernel-oracle cold re-matches of every version.
* **Flat vs. reference search** — the flattened explicit-stack
  branch-and-bound must emit the *sequence* the recursive reference
  generator emits: same assignments, same score floats, same order —
  with and without the substrate, trimmed and untrimmed.
* **Derived vs. cold kernels** — a kernel derived across each delta of
  a stream (replaces, adds, removes, duplicated-content schemas) must
  equal a cold build of the new version in universe order, lid maps,
  rows, gathers and exported labels, with numpy and without.

The kernel-vs-oracle family runs through :mod:`helpers.differential`
(the shared byte-identity harness); the stream and search families keep
bespoke drivers because their contracts compare more than final answer
sets.
"""

from contextlib import ExitStack

from helpers.differential import (
    MATCHERS,
    assert_combinations_identical,
    assert_kernel_equals_cold,
    canonical as _canonical,
    make_workload,
    warm_kernel,
)
from helpers.oracles import (
    flat_search_off,
    kernel_off,
    numpy_off,
    recursive_exhaustive,
    substrate_off,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    ExhaustiveMatcher,
    MatchingPipeline,
    SchemaSearch,
    canonical_answers,
    make_matcher,
    numpy_available,
)
from repro.matching.evolution import EvolutionSession
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.name import NameSimilarity
from repro.schema import RepositoryDelta, churn_delta
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.mutations import extract_personal_schema
from repro.util import rng


@st.composite
def kernel_cases(draw):
    repo_seed = draw(st.integers(min_value=0, max_value=25))
    num_schemas = draw(st.integers(min_value=2, max_value=5))
    query_seed = draw(st.integers(min_value=0, max_value=25))
    matcher = draw(st.sampled_from(MATCHERS))
    with_thesaurus = draw(st.booleans())
    return repo_seed, num_schemas, query_seed, matcher, with_thesaurus


@settings(max_examples=25, deadline=None)
@given(kernel_cases())
def test_kernel_answer_sets_byte_identical(case):
    repo_seed, num_schemas, query_seed, (name, params), with_thesaurus = case
    workload = make_workload(
        repo_seed,
        num_schemas=num_schemas,
        query_seed=query_seed,
        with_thesaurus=with_thesaurus,
    )
    assert_combinations_identical(name, params, workload, toggles=("kernel",))


@settings(max_examples=10, deadline=None)
@given(
    repo_seed=st.integers(min_value=0, max_value=10),
    matcher=st.sampled_from(MATCHERS),
    steps=st.integers(min_value=1, max_value=3),
)
def test_kernel_identical_across_delta_stream(repo_seed, matcher, steps):
    """Kernel row migration across an evolving repository changes nothing."""
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
            schema_id=f"prop-evolve-query-{index}",
        )
        for index in range(2)
    ]
    session = EvolutionSession(
        make_matcher(name, objective, **params), queries, 0.3
    )
    session.match(repo)
    for step in range(steps):
        delta = churn_delta(session.repository, churn=0.4, seed=step)
        result, _report = session.apply(delta)
        with kernel_off():
            cold = MatchingPipeline(
                make_matcher(name, objective, **params)
            ).run(queries, session.repository, 0.3)
        assert canonical_answers(result.answer_sets) == canonical_answers(
            cold.answer_sets
        ), (name, step)


#: churn kind mixes: (replace, add, remove) weights
_KIND_WEIGHTS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (3.0, 1.0, 1.0))


@st.composite
def kernel_delta_steps(draw, steps):
    """Per step: a churn delta's parameters plus a duplicated-content edit."""
    return [
        (
            draw(st.sampled_from((0.25, 0.5, 0.75))),
            draw(st.integers(min_value=0, max_value=1000)),
            draw(st.sampled_from(_KIND_WEIGHTS)),
            draw(st.sampled_from((None, "add", "replace"))),
        )
        for _ in range(steps)
    ]


def _delta_step(repository, step, churn, seed, weights, duplicate):
    """One stream delta: seeded churn, then maybe a duplicated-content edit.

    ``"add"`` appends a copy of a schema under a fresh id; ``"replace"``
    gives an untouched schema another schema's content under its own id.
    Either way two digests share one label list.
    """
    replace, add, remove = weights
    delta = churn_delta(
        repository, churn, seed=seed,
        replace_weight=replace, add_weight=add, remove_weight=remove,
    )
    schemas = repository.schemas()
    touched = set(delta.edited_ids())
    untouched = [s for s in schemas if s.schema_id not in touched]
    source = schemas[seed % len(schemas)]
    adds, replaces = list(delta.adds), list(delta.replaces)
    if duplicate == "add":
        adds.append(source.copy(schema_id=f"dup-{step}"))
    elif duplicate == "replace":
        targets = [s for s in untouched if s.schema_id != source.schema_id]
        if targets:
            target = targets[seed % len(targets)]
            replaces.append(source.copy(schema_id=target.schema_id))
    return RepositoryDelta(
        adds=tuple(adds), removes=delta.removes, replaces=tuple(replaces)
    )


@settings(max_examples=25, deadline=None)
@given(
    repo_seed=st.integers(min_value=0, max_value=30),
    num_schemas=st.integers(min_value=2, max_value=5),
    stream=st.integers(min_value=1, max_value=4).flatmap(kernel_delta_steps),
)
def test_derived_kernel_equals_cold(repo_seed, num_schemas, stream):
    """Every kernel derived along a delta stream equals a cold build.

    The stream runs once per gather path: with numpy (carried
    whole-repository buckets) and under the numpy oracle (carried
    per-schema gathers).  Each version's kernel is warmed — rows and
    gathers for every query label against every schema — before the
    next one derives from it, so every carry path is exercised.
    """
    repository = generate_repository(
        GeneratorConfig(
            num_schemas=num_schemas, min_size=4, max_size=8, seed=repo_seed
        )
    )
    queries = [
        extract_personal_schema(
            rng.make_tagged(repo_seed + index),
            repository.schemas()[index % num_schemas],
            None,
            target_size=3,
            schema_id=f"prop-derive-query-{index}",
        )
        for index in range(2)
    ]
    elements = [
        (element.name, element.datatype)
        for query in queries
        for element in query.elements()
    ]
    modes = (False, True) if numpy_available() else (False,)
    for vector in modes:
        with ExitStack() as stack:
            if not vector:
                stack.enter_context(numpy_off())
            objective = ObjectiveFunction(NameSimilarity())
            kernel = CostKernel(objective, repository)
            warm_kernel(kernel, elements, repository)
            current = repository
            for step, (churn, seed, weights, duplicate) in enumerate(stream):
                delta = _delta_step(
                    current, step, churn, seed, weights, duplicate
                )
                current, _report = current.apply(delta)
                derived = CostKernel(objective, current, previous=kernel)
                assert derived.rows_migrated == kernel.rows_cached
                assert_kernel_equals_cold(derived, current, elements)
                assert derived.rows_built == 0  # every row was carried
                kernel = derived


@settings(max_examples=30, deadline=None)
@given(
    repo_seed=st.integers(min_value=0, max_value=40),
    query_seed=st.integers(min_value=0, max_value=40),
    delta=st.sampled_from((0.05, 0.2, 0.35, 0.5, 0.7)),
    with_substrate=st.booleans(),
)
def test_flat_search_emits_reference_sequence(
    repo_seed, query_seed, delta, with_substrate
):
    """Flat and recursive searches: same mappings, same floats, same order."""
    repo = generate_repository(
        GeneratorConfig(num_schemas=2, min_size=5, max_size=10, seed=repo_seed)
    )
    objective = ObjectiveFunction(NameSimilarity())
    query = extract_personal_schema(
        rng.make_tagged(query_seed),
        repo.schemas()[query_seed % 2],
        None,
        target_size=3,
        schema_id="prop-flat-query",
    )
    for schema in repo:
        with ExitStack() as stack:
            if not with_substrate:
                stack.enter_context(substrate_off())
            search = SchemaSearch(query, schema, objective)
            flat = list(search.exhaustive(delta))
            reference = list(recursive_exhaustive(search, delta))
            assert flat == reference  # sequence equality: order and floats
            with flat_search_off():
                dispatched = list(search.exhaustive(delta))
            assert dispatched == reference


def test_pre_kernel_snapshot_restores_and_serves(tmp_path):
    """Format compatibility: a payload without a kernel section loads.

    Simulates a snapshot written before the kernel existed by stripping
    the ``kernel`` key out of the substrate section, then asserts the
    snapshot restores and serves byte-identically to a live match.
    """
    import json

    from repro.matching.similarity import persist
    from repro.schema.store import SnapshotStore

    repo = generate_repository(
        GeneratorConfig(num_schemas=4, min_size=5, max_size=9, seed=3)
    )
    objective = ObjectiveFunction(NameSimilarity())
    queries = [
        extract_personal_schema(
            rng.make_tagged(9),
            repo.schemas()[0],
            None,
            target_size=3,
            schema_id="pre-kernel-query",
        )
    ]
    matcher = ExhaustiveMatcher(objective)
    result = MatchingPipeline(matcher).run(queries, repo, 0.3)

    payload = json.loads(persist.substrate_payload(objective.substrate()))
    assert "kernel" in payload
    del payload["kernel"]  # the pre-kernel payload format
    pre_kernel_payload = json.dumps(payload, sort_keys=True)

    store = SnapshotStore(tmp_path / "snap")
    meta = {
        "repository": SnapshotStore.repository_meta(repo),
        "queries": SnapshotStore.query_meta(queries),
        "matcher_fingerprint": result.matcher_key,
        "delta_max": result.delta_max,
    }
    sections = SnapshotStore.schema_sections(repo.schemas() + queries)
    results_payload = persist.results_payload(result)
    meta["results_section"] = persist._digest_named("results", results_payload)
    sections[meta["results_section"]] = results_payload
    meta["substrate_section"] = persist._digest_named(
        "substrate", pre_kernel_payload
    )
    sections[meta["substrate_section"]] = pre_kernel_payload
    store.save(meta, sections)

    fresh_objective = ObjectiveFunction(NameSimilarity())
    fresh_matcher = ExhaustiveMatcher(fresh_objective)
    snapshot = persist.load_snapshot(store, fresh_matcher)
    assert snapshot.result is not None
    assert fresh_objective.substrate().kernel() is None  # nothing restored
    assert canonical_answers(snapshot.result.answer_sets) == canonical_answers(
        result.answer_sets
    )
    # the restored universe serves (and the kernel builds on first prepare)
    live = fresh_matcher.match(snapshot.queries[0], snapshot.repository, 0.3)
    assert _canonical(live) == _canonical(result.answer_sets[0])
    assert fresh_objective.substrate().kernel() is not None
