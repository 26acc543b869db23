"""Benchmarks of the vectorised (numpy) execution path.

The numpy PR threads an optional vector layer through the scoring
stack — batched kernel gathers, stable-argsort candidate orders,
cumsum suffix-sum bounds — whenever numpy is available, with the
pure-python code kept as the executable specification (the spec arms
hide numpy in-process through ``helpers.oracles.numpy_off``).  These
benches time each primitive against its spec twin on identical inputs,
so the paired means in ``BENCH_numpy.json`` track the vector layer's
advantage across commits the same way ``BENCH_kernel.json``'s pairs
track the scoring-kernel rewrite.

The repository-scale pair — ``test_bench_gather_sweep_vector`` /
``test_bench_gather_sweep_spec`` — replays the numpy contract's cold
gather sweep (every query element × every schema, warm cost rows) on
both paths; ``cold spec mean / vector mean`` is the ratio the
``bench_kernel.py`` contract test asserts ≥ 2× once per run.

Identity is asserted inline wherever a pair shares inputs (the
primitive pairs literally compare their outputs), unconditionally —
the property suite (``tests/properties/test_prop_numpy.py``) holds the
full end-to-end byte-identity contract.

The whole module skips when numpy is not installed (or hidden via
``REPRO_NO_NUMPY=1``): every pair needs both arms to mean anything.
"""

from contextlib import nullcontext

import pytest

from helpers.oracles import numpy_off
from repro.evaluation import build_workload
from repro.evaluation.workloads import WorkloadConfig
from repro.matching import numpy_available
from repro.matching.similarity import vectors
from repro.matching.similarity.matrix import suffix_cost_sums

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

#: primitive input size — comfortably above the adaptive dispatch
#: floors (``VECTOR_MIN`` / ``VECTOR_MIN_AREA``), i.e. in the regime
#: the vector forms actually serve in production
_ROW_SIZE = 4_096


def _cost_row(size: int = _ROW_SIZE) -> list[float]:
    """A deterministic pseudo-random cost row in [0, 1] with ties."""
    row = []
    state = 0x9E3779B9
    for _ in range(size):
        state = (state * 1_103_515_245 + 12_345) % (1 << 31)
        row.append((state % 1_000) / 999.0)  # three digits => plenty of ties
    return row


# -- primitive pairs ---------------------------------------------------------

def test_bench_stable_order_vector(benchmark):
    """Candidate order of one row: batched stable argsort."""
    row = _cost_row()
    spec = tuple(j for _, j in sorted(zip(row, range(len(row)))))
    result = benchmark(lambda: vectors.stable_order(row).tolist())
    assert tuple(result) == spec


def test_bench_stable_order_spec(benchmark):
    """Candidate order of one row: the ``(cost, id)`` tuple sort spec."""
    row = _cost_row()
    benchmark(
        lambda: tuple(j for _, j in sorted(zip(row, range(len(row)))))
    )


def test_bench_suffix_sums_vector(benchmark):
    """Suffix-sum admissible bounds: reversed cumsum."""
    minima = _cost_row()
    with numpy_off():
        spec = suffix_cost_sums(minima)
    result = benchmark(vectors.suffix_sums, minima)
    assert result == spec


def test_bench_suffix_sums_spec(benchmark):
    """Suffix-sum admissible bounds: the python accumulation spec."""
    minima = _cost_row()

    def spec_sums():
        with numpy_off():
            return suffix_cost_sums(minima)

    benchmark(spec_sums)


# -- the repository-scale gather sweep pair ----------------------------------

#: a slice of the numpy contract's workload (bench_kernel._GATHER_CONFIG),
#: sized so pytest-benchmark can afford many rounds per arm
_SWEEP_CONFIG = WorkloadConfig(
    num_schemas=200,
    min_schema_size=16,
    max_schema_size=40,
    num_queries=6,
    query_size=6,
)


@pytest.fixture(scope="module")
def gather_universe():
    """One prepared workload: kernel with warm rows, queries, schemas."""
    workload = build_workload(_SWEEP_CONFIG)
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
    return kernel, elements, schemas


def _cold_gather_sweep(kernel, elements, schemas, numpy_on):
    kernel._gathers.clear()
    kernel._vgathers.clear()
    with nullcontext() if numpy_on else numpy_off():
        return [
            kernel.gather(name, datatype, schema)
            for name, datatype in elements
            for schema in schemas
        ]


def test_bench_gather_sweep_vector(benchmark, gather_universe):
    """Cold gather sweep, batched: one fancy-index + argsort per label."""
    kernel, elements, schemas = gather_universe
    vector = benchmark(
        _cold_gather_sweep, kernel, elements, schemas, True
    )
    spec = _cold_gather_sweep(kernel, elements, schemas, False)
    assert repr(vector) == repr(spec), (
        "vectorised gathers differ from the pure-python spec gathers"
    )


def test_bench_gather_sweep_spec(benchmark, gather_universe):
    """Cold gather sweep, spec: one python sort per (label, schema)."""
    kernel, elements, schemas = gather_universe
    benchmark(_cold_gather_sweep, kernel, elements, schemas, False)
