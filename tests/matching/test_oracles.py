"""Self-tests of the test oracles (:mod:`helpers.oracles`).

The differential grid diffs production answers against these specs.  A
context that patched nothing would make every grid assertion compare
production with itself and pass without testing anything.  So each
context is checked twice: inside the block its spec really runs, and
after the block — also after a raise — the production attribute is
back.
"""

import pytest

from helpers import oracles
from helpers.differential import MATCHERS, make_workload
from repro.matching import make_matcher, numpy_available
from repro.matching import engine as engine_module
from repro.matching.clustering import ElementClusterer
from repro.matching.engine import SchemaSearch
from repro.matching.similarity import kernel as kernel_module
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.matrix import SimilaritySubstrate

#: every context with the (owner, attribute) pairs it swaps
PATCHED = {
    oracles.substrate_off: [
        (SimilaritySubstrate, "matrix"),
        (engine_module, "threshold_unreachable"),
        (SchemaSearch, "_trimmed_candidates"),
    ],
    oracles.kernel_off: [
        (SimilaritySubstrate, "kernel"),
        (ElementClusterer, "cluster"),
    ],
    oracles.flat_search_off: [
        (SchemaSearch, "exhaustive"),
        (SchemaSearch, "beam"),
    ],
    oracles.numpy_off: [(kernel_module, "_np")],
}


@pytest.fixture(scope="module")
def workload():
    return make_workload(3, num_schemas=3, num_queries=2)


def _match_all(workload):
    """Every matcher family over every query, on a fresh objective."""
    objective = workload.objective()
    for name, params in MATCHERS:
        matcher = make_matcher(name, objective, **params)
        for query in workload.queries:
            matcher.match(query, workload.repository, 0.3)
    return objective


def _spy(monkeypatch, owner, attribute) -> list:
    """Count calls to ``owner.attribute`` (installed before any context)."""
    calls = []
    original = getattr(owner, attribute)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, spy)
    return calls


class TestSpecRunsInside:
    def test_substrate_off(self, workload, monkeypatch):
        directs = _spy(monkeypatch, oracles, "direct_matrix")
        exits = _spy(monkeypatch, engine_module, "threshold_unreachable")
        trims = _spy(monkeypatch, SchemaSearch, "_trimmed_candidates")
        with oracles.substrate_off():
            objective = _match_all(workload)
        assert directs  # every matcher family scored directly
        assert exits == []  # with no early exit
        assert trims == []  # and searched untrimmed
        stats = objective.substrate().stats
        assert stats.matrices_built == 0 and stats.matrix_hits == 0
        inside = len(directs)
        _match_all(workload)  # control: production caches, exits and trims
        assert len(directs) == inside
        assert exits
        assert trims

    def test_kernel_off(self, workload, monkeypatch):
        gathers = _spy(monkeypatch, CostKernel, "gather")
        scans = _spy(monkeypatch, oracles, "cluster_scan")
        with oracles.kernel_off():
            objective = _match_all(workload)
        assert gathers == []
        assert scans  # the clustering and hybrid matchers
        assert objective.substrate().stats.kernel_builds == 0
        _match_all(workload)  # control: production gathers
        assert gathers

    def test_flat_search_off(self, workload, monkeypatch):
        calls = _spy(monkeypatch, oracles, "recursive_exhaustive")
        beams = _spy(monkeypatch, oracles, "nsmallest_beam")
        with oracles.flat_search_off():
            _match_all(workload)
        assert calls
        assert beams  # the beam and hybrid matchers
        inside = len(calls), len(beams)
        _match_all(workload)  # control: production never calls the specs
        assert (len(calls), len(beams)) == inside

    def test_numpy_off(self):
        with oracles.numpy_off():
            assert not numpy_available()
            assert kernel_module._np is None


@pytest.mark.parametrize(
    "context", list(PATCHED), ids=lambda context: context.__name__
)
def test_production_restored_after_exit_and_raise(context):
    def current():
        return [vars(owner)[attribute] for owner, attribute in PATCHED[context]]

    production = current()
    with context():
        pass
    assert all(now is was for now, was in zip(current(), production))
    with pytest.raises(RuntimeError):
        with context():
            raise RuntimeError("block failed")
    assert all(now is was for now, was in zip(current(), production))
