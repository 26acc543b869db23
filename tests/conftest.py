"""Shared fixtures: one small workload and its system runs per session.

Matching runs are the expensive part of the suite; everything that can
share them does, through session-scoped fixtures.  All fixtures are
deterministic (seeded), so test outcomes are stable run to run.

Two suite-wide knobs live here as well:

* **Hypothesis profiles** — CI runs under the pinned ``ci`` profile
  (``HYPOTHESIS_PROFILE=ci``): derandomised, so example selection is a
  function of the test alone and a red run reproduces locally from the
  printed blob; no deadline, because shared runners make per-example
  wall-clock a flake source, not a signal.  ``tools/mutate.py`` runs
  under ``mutate``: the ``ci`` profile without hypothesis's explain
  phase, which only annotates a failure a mutant run reads as a kill.
* **``network`` opt-out** — tests marked ``network`` open local
  sockets (loopback only).  ``REPRO_NO_NETWORK=1`` skips them for
  sandboxes where even loopback listeners are off-limits.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import Phase, settings

from repro.evaluation import build_workload, run_system, small_config
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    TopKCandidateMatcher,
)

settings.register_profile(
    "ci", deadline=None, derandomize=True, print_blob=True
)
settings.register_profile(
    "mutate",
    settings.get_profile("ci"),
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_addoption(parser):
    # The chaos soak harness (tests/soak) — all knobs optional; without
    # them the smoke grid runs its fixed seeds at smoke length.
    group = parser.getgroup("soak", "chaos soak harness (tests/soak)")
    group.addoption(
        "--soak-seed",
        type=int,
        default=None,
        help="replay exactly one soak schedule with this seed "
        "(the one-command repro printed by a failing soak run)",
    )
    group.addoption(
        "--soak-waves",
        type=int,
        default=None,
        help="waves per soak schedule (default: 3 for the smoke grid, "
        "8 for --soak-schedules runs)",
    )
    group.addoption(
        "--soak-schedules",
        type=int,
        default=None,
        help="run a long soak of N randomized schedules (the nightly "
        "CI job; skipped by default)",
    )
    group.addoption(
        "--soak-log",
        default=None,
        help="append the event log of failing schedules to this file "
        "(published as a CI artifact)",
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_NO_NETWORK") != "1":
        return
    skip = pytest.mark.skip(
        reason="socket tests disabled (REPRO_NO_NETWORK=1)"
    )
    for item in items:
        if "network" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def small_workload():
    """The reduced deterministic workload (10 schemas, 4 queries)."""
    return build_workload(small_config())


@pytest.fixture(scope="session")
def original_run(small_workload):
    """Judged run of the exhaustive system S1 on the small workload."""
    return run_system(
        ExhaustiveMatcher(small_workload.objective),
        small_workload.suite,
        small_workload.schedule,
    )


@pytest.fixture(scope="session")
def beam_run(small_workload):
    return run_system(
        BeamMatcher(small_workload.objective, beam_width=8),
        small_workload.suite,
        small_workload.schedule,
    )


@pytest.fixture(scope="session")
def clustering_run(small_workload):
    return run_system(
        ClusteringMatcher(small_workload.objective, clusters_per_element=2),
        small_workload.suite,
        small_workload.schedule,
    )


@pytest.fixture(scope="session")
def topk_run(small_workload):
    return run_system(
        TopKCandidateMatcher(small_workload.objective, candidates_per_element=4),
        small_workload.suite,
        small_workload.schedule,
    )


@pytest.fixture(scope="session")
def improvement_runs(beam_run, clustering_run, topk_run):
    """All improvements, keyed by name."""
    return {
        "beam": beam_run,
        "clustering": clustering_run,
        "topk": topk_run,
    }
