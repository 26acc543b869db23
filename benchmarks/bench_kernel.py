"""Benchmarks of the repository scoring kernel and the exhaustive search.

The innermost loops under every published benchmark are (a) building
per-(query, schema) score matrices and (b) the per-schema branch-and-
bound.  Matrices gather from the
:class:`~repro.matching.similarity.kernel.CostKernel`'s interned
label-universe cost rows (one cost per distinct label pair per
*repository*, not per pair), the exhaustive search fills one list from
per-depth loops over bitmasks and precomputed ancestor bitsets, and
the clustering matchers share one interned cluster build per repository.

The headline contract — ``test_kernel_sweep_speedup_and_identical`` —
replays the standard matcher × threshold repository sweep on a
repository-scale workload twice: once on the PR-4 scoring path (no
kernel, generator reference searches, python loops — the test oracles
``helpers.oracles.kernel_off``, ``flat_search_off`` and ``numpy_off``
swap those specs in) and once on the production path, asserting
**byte-identical answers always** and **≥ 2×**
wall clock (measured ~2.8× on a quiet core; the timing half is skipped
when ``BENCH_TIMING_ASSERTS=0`` — CI's setting — per the convention in
``benchmarks/README.md``).

The micro benches time the primitives directly: kernel
construction, row materialisation, matrix gather vs. direct build, the
list-filling vs. generator search, and interned vs. scan clustering —
their relative means in ``BENCH_kernel.json`` track the same contracts
across commits.  ``bench_engine.py`` replays a whole evaluation's
searches through the engine and the search oracles.

``test_bench_kernel_derive`` times what a served repository delta costs
the kernel: deriving the next version from a warm one across a
one-schema rename, plus gathering the changed schema.  It asserts the
derived kernel equals a cold build, and (timing gated as above) that the
derivation is ≥ 3× faster than a cold kernel re-warmed to the same rows
and gathers.
"""

import gc
import os
from contextlib import ExitStack
from time import perf_counter

import pytest

from helpers import oracles
from helpers.differential import assert_kernel_equals_cold, warm_kernel
from repro.evaluation import build_workload
from repro.evaluation.workloads import WorkloadConfig
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    CostKernel,
    ExhaustiveMatcher,
    HybridMatcher,
    SchemaSearch,
    ScoreMatrix,
    TopKCandidateMatcher,
    canonical_answers,
    numpy_available,
)
from repro.matching.clustering import ElementClusterer
from repro.schema import churn_delta

#: the contract workload: repository-scale, where the paper's premise
#: (the repository dwarfs the query) holds and the kernel's
#: per-repository amortisation has something to amortise over
_CONTRACT_CONFIG = WorkloadConfig(
    num_schemas=260,
    min_schema_size=10,
    max_schema_size=24,
    num_queries=10,
    query_size=5,
)
#: matcher × threshold grid of the contract sweep; 0.4 is the
#: search-heavy regime where the branch-and-bound dominates wall clock
_CONTRACT_THRESHOLDS = (0.2, 0.3, 0.4)


def _sweep_matchers(objective):
    return [
        ExhaustiveMatcher(objective),
        BeamMatcher(objective, beam_width=8),
        ClusteringMatcher(objective, clusters_per_element=2),
        TopKCandidateMatcher(objective, candidates_per_element=4),
        HybridMatcher(objective, clusters_per_element=3, beam_width=8),
    ]


def _repository_sweep(workload, thresholds):
    """Every matcher × threshold × query over the repository."""
    results = []
    for matcher in _sweep_matchers(workload.objective):
        for delta in thresholds:
            for scenario in workload.suite.scenarios:
                results.append(
                    matcher.match(scenario.query, workload.repository, delta)
                )
    return results


# -- kernel primitives -------------------------------------------------------

def test_bench_kernel_build(benchmark, warmed_bundle):
    """Interning the repository label universe (no similarity work)."""
    workload = warmed_bundle.workload
    benchmark(CostKernel, workload.objective, workload.repository)


def test_bench_kernel_row(benchmark, warmed_bundle):
    """One cold cost row against the whole universe (then cached)."""
    workload = warmed_bundle.workload
    kernel = CostKernel(workload.objective, workload.repository)
    element = workload.suite.scenarios[0].query.element(0)

    def cold_row():
        kernel._rows.clear()
        kernel._gathers.clear()
        return kernel.row(element.name, element.datatype)

    benchmark(cold_row)


def test_bench_matrix_gather(benchmark, warmed_bundle):
    """Matrix construction as a kernel gather (rows pre-materialised)."""
    workload = warmed_bundle.workload
    kernel = CostKernel(workload.objective, workload.repository)
    query = workload.suite.scenarios[0].query
    schema = workload.repository.schemas()[0]
    ScoreMatrix.build(workload.objective, query, schema, kernel=kernel)

    benchmark(ScoreMatrix.build, workload.objective, query, schema, kernel)


def test_bench_matrix_direct(benchmark, warmed_bundle):
    """The pre-kernel baseline: one cost per distinct pair per matrix."""
    workload = warmed_bundle.workload
    query = workload.suite.scenarios[0].query
    schema = workload.repository.schemas()[0]
    benchmark(ScoreMatrix.build, workload.objective, query, schema)


def _search_heavy_pair(workload):
    """The workload's biggest per-schema search: largest schema, high δ.

    The list-filling loops' advantage over the recursive generator grows
    with expansions and emissions (every recursive emission bubbles
    through one ``yield from`` frame per query element), so the micro
    pair is measured where the search actually works.
    """
    query = workload.suite.scenarios[0].query
    schema = max(workload.repository.schemas(), key=len)
    return query, schema


def test_bench_exhaustive_listed(benchmark, warmed_bundle):
    """The list-filling branch-and-bound, search-heavy δ."""
    workload = warmed_bundle.workload
    query, schema = _search_heavy_pair(workload)

    def run():
        search = SchemaSearch(query, schema, workload.objective)
        return search.exhaustive(0.45)

    benchmark(run)


def test_bench_exhaustive_generator(benchmark, warmed_bundle):
    """The recursive reference generator on the identical search."""
    workload = warmed_bundle.workload
    query, schema = _search_heavy_pair(workload)

    def run():
        search = SchemaSearch(query, schema, workload.objective)
        return list(oracles.recursive_exhaustive(search, 0.45))

    benchmark(run)


def test_bench_cluster_interned(benchmark, warmed_bundle):
    """Greedy leader clustering over interned distinct labels."""
    workload = warmed_bundle.workload
    clusterer = ElementClusterer(workload.objective.name_similarity)
    benchmark(clusterer._cluster_interned, workload.repository)


def test_bench_cluster_full_scan(benchmark, warmed_bundle):
    """The reference per-element cluster scan (the PR-4 path)."""
    workload = warmed_bundle.workload
    clusterer = ElementClusterer(workload.objective.name_similarity)
    benchmark(oracles.cluster_scan, clusterer, workload.repository)


# -- deriving across a delta -------------------------------------------------

def _delta_case(workload):
    """A warm kernel, its next repository version, and what the delta changed.

    The delta has replica-serve's shape: one of the workload's schemas
    replaced by a partial rename.  The starting kernel holds rows and
    gathers for every query label against every schema, as a serving
    replica's kernel does.
    """
    repository = workload.repository
    delta = churn_delta(
        repository, 0.025, seed=4242,
        replace_weight=1.0, add_weight=0.0, remove_weight=0.0,
    )
    evolved, _ = repository.apply(delta)
    elements = [
        (element.name, element.datatype)
        for scenario in workload.suite.scenarios
        for element in scenario.query.elements()
    ]
    kernel = warm_kernel(
        CostKernel(workload.objective, repository), elements, repository
    )
    changed = [
        schema for schema in evolved if kernel.schema_label_ids(schema) is None
    ]
    assert changed, "the delta changed no schema content"
    return kernel, evolved, elements, changed


def _timed_best(run, trials=5):
    """Best-of-``trials`` seconds of ``run()``, GC paused in the window."""
    best = float("inf")
    for _ in range(trials):
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            run()
            best = min(best, perf_counter() - started)
        finally:
            gc.enable()
    return best


def test_bench_kernel_derive(benchmark, warmed_bundle):
    """Derive the next kernel across a one-schema delta, then re-gather.

    The timed call derives from the warm kernel (``previous`` is never
    mutated, so every round starts from the same state) and gathers
    every query label against the schema the delta changed — all a
    replica's re-match asks of the new kernel.  The result must equal a
    cold build of the new version, unconditionally.  The timing half
    (``BENCH_TIMING_ASSERTS``, see ``benchmarks/README.md``) holds it
    ≥ 3× faster than the cold alternative: a fresh kernel re-warmed to
    the same rows and gathers.
    """
    workload = warmed_bundle.workload
    kernel, evolved, elements, changed = _delta_case(workload)

    def derive():
        return warm_kernel(
            CostKernel(workload.objective, evolved, previous=kernel),
            elements, changed,
        )

    def cold():
        return warm_kernel(
            CostKernel(workload.objective, evolved), elements, evolved
        )

    derived = benchmark(derive)
    assert derived.rows_built == 0
    assert_kernel_equals_cold(derived, evolved, elements)
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        fast = _timed_best(derive)
        slow = _timed_best(cold)
        assert slow >= 3.0 * fast, (
            f"deriving across the delta ({fast * 1e3:.2f} ms) is not ≥3x "
            f"faster than a cold re-warmed kernel ({slow * 1e3:.2f} ms)"
        )


# -- the contract ------------------------------------------------------------

def _contract_arm(pre_kernel: bool, numpy_on: bool = True):
    """One timed sweep in a fresh universe; returns (answers, seconds).

    A fresh workload per arm keeps substrates, kernels and clusters
    cold, so each arm pays its own scoring work.  One warm-up sweep at a
    single threshold first heats the name-similarity memo on the direct
    path — the distinct-pair similarity computations are identical cold
    work in both arms (and threshold-independent), so warming them
    isolates the scoring-kernel difference, exactly like
    ``bench_substrate``'s contract does.  GC is paused around the timed
    region (symmetrically for both arms) so collection pauses land
    outside the single-shot measurement.
    """
    workload = build_workload(_CONTRACT_CONFIG)
    with (
        oracles.substrate_off(),
        oracles.kernel_off(),
        oracles.flat_search_off(),
    ):
        _repository_sweep(workload, _CONTRACT_THRESHOLDS[:1])
    with ExitStack() as specs:
        if pre_kernel:
            specs.enter_context(oracles.kernel_off())
            specs.enter_context(oracles.flat_search_off())
        if pre_kernel or not numpy_on:
            specs.enter_context(oracles.numpy_off())
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            answers = _repository_sweep(workload, _CONTRACT_THRESHOLDS)
            seconds = perf_counter() - started
        finally:
            gc.enable()
    return canonical_answers(answers), seconds


def test_kernel_sweep_numpy_axis_identical():
    """The numpy axis of the contract sweep: same bytes on the python gather.

    One full contract sweep on the kernel path with numpy hidden must
    produce answer sets byte-identical to the batched-gather run — the
    third axis of the oracle grid (``bench_substrate`` covers
    the substrate axis, ``test_kernel_sweep_speedup_and_identical`` the
    kernel and flat-search axes).  Identity only: the numpy timing
    contract lives in ``test_numpy_gather_sweep_speedup_and_identical``
    where the batched gather's regime is actually measurable.
    """
    vector_answers, _ = _contract_arm(pre_kernel=False, numpy_on=True)
    spec_answers, _ = _contract_arm(pre_kernel=False, numpy_on=False)
    assert vector_answers == spec_answers, (
        "numpy-path answers differ from the pure-python spec path"
    )


def test_kernel_sweep_speedup_and_identical():
    """The acceptance check: ≥ 2× over the PR-4 scoring path, same bytes.

    Two full trials (fresh universes each); every trial asserts the
    kernel path's answer sets byte-identical to the pre-kernel path's,
    unconditionally.  Each side then takes its best total (standard
    single-shot noise reduction) for the wall-clock comparison; measured
    headroom is ~2.8× on a quiet core, 2 is the floor we assert.  The
    timing half is skipped when ``BENCH_TIMING_ASSERTS=0`` (set in CI,
    where shared runners make single-shot timing comparisons flaky).
    """
    kernel_seconds = []
    direct_seconds = []
    for _ in range(2):
        kernel_answers, fast = _contract_arm(pre_kernel=False)
        direct_answers, slow = _contract_arm(pre_kernel=True)
        assert kernel_answers == direct_answers, (
            "kernel-path answers differ from the pre-kernel scoring path"
        )
        kernel_seconds.append(fast)
        direct_seconds.append(slow)
    fast = min(kernel_seconds)
    slow = min(direct_seconds)
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        assert slow >= 2.0 * fast, (
            f"kernel sweep ({fast:.3f}s) is not ≥2x faster than the "
            f"pre-kernel scoring path ({slow:.3f}s)"
        )


# -- the numpy contract ------------------------------------------------------

#: the gather-sweep contract workload: wider and deeper than the sweep
#: contract's, because the batched gather's regime is repository *breadth*
#: (schemas per batch) — one fancy-index plus one batched argsort per
#: query label replaces one python sort per (label, schema) pair
_GATHER_CONFIG = WorkloadConfig(
    num_schemas=400,
    min_schema_size=16,
    max_schema_size=40,
    num_queries=12,
    query_size=6,
)


def _gather_sweep_trial(kernel, elements, schemas, numpy_on: bool):
    """One timed cold gather sweep on the given kernel; (gathers, seconds).

    "Cold" means the gather cache is emptied first — the cost rows
    stay warm (row construction is the same python objective loop on
    both paths and both arms share the kernel), so the timed window
    isolates exactly what the numpy path changes: gathering every
    (query element, schema) matrix row and its candidate order.  GC
    pauses land outside the window, symmetrically.
    """
    kernel._gathers.clear()
    with ExitStack() as specs:
        if not numpy_on:
            specs.enter_context(oracles.numpy_off())
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            gathers = [
                kernel.gather(name, datatype, schema)
                for name, datatype in elements
                for schema in schemas
            ]
            seconds = perf_counter() - started
        finally:
            gc.enable()
    return repr(gathers), seconds


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_gather_sweep_speedup_and_identical():
    """The numpy acceptance check: ≥ 2× on the gather sweep, same bytes.

    Every (query element, schema) gather of the repository-scale
    workload — the exact cache entries every matcher's matrices are
    assembled from — must be byte-identical between the batched numpy
    gather and the python gather (asserted on every trial,
    unconditionally, via ``repr`` so float bits count), and the batched
    sweep must be ≥ 2× faster (measured 2.0–3.3×, median 2.5×, over
    nine runs on a shared 2-vCPU VM).  One shared
    universe, five interleaved cold-cache trials per arm, best trial
    each — single-shot sweeps on a loaded machine swing more than the
    contract's margin, and the minimum over interleaved trials is the
    standard way to strip that noise.  The timing half is gated by
    ``BENCH_TIMING_ASSERTS`` per the convention in
    ``benchmarks/README.md``.
    """
    workload = build_workload(_GATHER_CONFIG)
    substrate = workload.objective.substrate()
    substrate.prepare(workload.repository)
    schemas = workload.repository.schemas()
    elements = [
        (element.name, element.datatype)
        for scenario in workload.suite.scenarios
        for element in scenario.query.elements()
    ]
    kernel = substrate.kernel()
    for name, datatype in elements:
        kernel.row(name, datatype)
    vector_seconds = []
    spec_seconds = []
    for _ in range(5):
        vector_gathers, fast = _gather_sweep_trial(
            kernel, elements, schemas, numpy_on=True
        )
        spec_gathers, slow = _gather_sweep_trial(
            kernel, elements, schemas, numpy_on=False
        )
        assert vector_gathers == spec_gathers, (
            "batched gathers differ from the python gathers"
        )
        vector_seconds.append(fast)
        spec_seconds.append(slow)
    fast = min(vector_seconds)
    slow = min(spec_seconds)
    if os.environ.get("BENCH_TIMING_ASSERTS", "1") != "0":
        assert slow >= 2.0 * fast, (
            f"batched gather sweep ({fast:.3f}s) is not ≥2x faster "
            f"than the pure-python gather path ({slow:.3f}s)"
        )
