"""Benchmark fixtures.

Each figure bench (a) times the experiment's analysis on the full default
workload and (b) writes the rendered figure output — the tables and ASCII
plots a reader compares against the paper — to ``benchmarks/results/``.

The expensive matching runs are shared through the harness's in-process
cache; a session-scoped fixture warms it so benchmark timings measure the
*analysis* (the paper's contribution), not repository generation.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# The spec arms of the kernel, numpy and substrate benches run the test
# oracles (``helpers.oracles``), which live under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def warmed_bundle():
    """Run all systems on the default workload once (cached thereafter)."""
    from repro.experiments.harness import base_runs

    return base_runs(None)


@pytest.fixture(scope="session")
def record_figure():
    """Persist an experiment's rendered output under benchmarks/results/."""

    def _record(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n", encoding="utf-8")
        return result

    return _record
