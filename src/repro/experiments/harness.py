"""Experiment harness: registry, shared base runs, result rendering.

Every paper figure (and every ablation) is an *experiment*: a callable
taking a :class:`~repro.evaluation.workloads.WorkloadConfig` and
returning an :class:`ExperimentResult` of titled tables, ASCII plots and
notes.  The benchmark files and the CLI both go through
:func:`run_experiment`, so the printed output of a bench *is* the figure.

Simulation-backed figures share one expensive artifact — the exhaustive
and improved systems' runs over the workload — cached per config in
:func:`base_runs`.  The cache is in-process and keyed by the (frozen,
hashable) config, so repeated figures in one session pay for matching
once.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ExperimentError
from repro.evaluation.validation import SystemRun, run_system
from repro.evaluation.workloads import Workload, WorkloadConfig, build_workload
from repro.matching.beam import BeamMatcher
from repro.matching.clustering import ClusteringMatcher
from repro.matching.exhaustive import ExhaustiveMatcher
from repro.matching.topk import TopKCandidateMatcher
from repro.util.tables import format_table

__all__ = [
    "ExperimentTable",
    "ExperimentResult",
    "RunBundle",
    "base_runs",
    "register",
    "run_experiment",
    "list_experiments",
]

#: Parameters of the two named improvements of the paper's Figures 10/11.
#: S2-one (smooth ratio decline) is a generous beam; S2-two (rigorous
#: pruning, top answers retained) is aggressive clustering.
S2_ONE_BEAM_WIDTH = 40
S2_TWO_CLUSTERS_PER_ELEMENT = 3
S2_EXTRA_TOPK = 6


@dataclass
class ExperimentTable:
    """One titled table of an experiment's output."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]

    def render(self, float_digits: int = 4) -> str:
        return format_table(
            self.headers, self.rows, title=self.title, float_digits=float_digits
        )


@dataclass
class ExperimentResult:
    """Everything an experiment produces, renderable as plain text."""

    experiment_id: str
    title: str
    tables: list[ExperimentTable] = field(default_factory=list)
    plots: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_table(
        self, title: str, headers: Sequence[str], rows: list[Sequence[object]]
    ) -> None:
        self.tables.append(ExperimentTable(title, headers, rows))

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for note in self.notes:
            parts.append(f"note: {note}")
        for table in self.tables:
            parts.append(table.render())
        parts.extend(self.plots)
        return "\n\n".join(parts)


@dataclass
class RunBundle:
    """The shared simulation artifact behind figures 5, 6, 9, 10, 11, 12."""

    workload: Workload
    original: SystemRun  # S1, exhaustive
    beam: SystemRun  # "S2-one"
    clustering: SystemRun  # "S2-two"
    topk: SystemRun  # third improvement, used by ablations

    def improvements(self) -> dict[str, SystemRun]:
        return {
            "S2-one (beam)": self.beam,
            "S2-two (clustering)": self.clustering,
            "topk": self.topk,
        }


@lru_cache(maxsize=8)
def base_runs(
    config: WorkloadConfig | None = None, workers: int | None = None
) -> RunBundle:
    """Build the workload and run all systems once (cached per config).

    All four system runs go through the sharded matching pipeline:
    ``workers`` (default: the module-wide pipeline configuration, which
    the CLI's ``--workers`` flag sets) fans the per-(query, shard)
    searches out across processes.
    """
    workload = build_workload(config)
    objective = workload.objective
    original = run_system(
        ExhaustiveMatcher(objective),
        workload.suite,
        workload.schedule,
        workers=workers,
    )
    beam = run_system(
        BeamMatcher(objective, beam_width=S2_ONE_BEAM_WIDTH),
        workload.suite,
        workload.schedule,
        workers=workers,
    )
    clustering = run_system(
        ClusteringMatcher(
            objective, clusters_per_element=S2_TWO_CLUSTERS_PER_ELEMENT
        ),
        workload.suite,
        workload.schedule,
        workers=workers,
    )
    topk = run_system(
        TopKCandidateMatcher(objective, candidates_per_element=S2_EXTRA_TOPK),
        workload.suite,
        workload.schedule,
        workers=workers,
    )
    return RunBundle(
        workload=workload,
        original=original,
        beam=beam,
        clustering=clustering,
        topk=topk,
    )


ExperimentFn = Callable[[WorkloadConfig | None], ExperimentResult]
_REGISTRY: dict[str, tuple[str, ExperimentFn]] = {}


def register(experiment_id: str, title: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator registering an experiment under a stable id."""

    def decorate(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"experiment {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = (title, fn)
        return fn

    return decorate


def list_experiments() -> list[tuple[str, str]]:
    """(id, title) of every registered experiment."""
    _ensure_loaded()
    return sorted((eid, title) for eid, (title, _) in _REGISTRY.items())


def run_experiment(
    experiment_id: str, config: WorkloadConfig | None = None
) -> ExperimentResult:
    """Run one experiment by id."""
    _ensure_loaded()
    try:
        _title, fn = _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(eid for eid, _ in list_experiments())
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return fn(config)


def _ensure_loaded() -> None:
    """Import the experiment modules so their registrations run."""
    from repro.experiments import (  # noqa: F401  (import for side effect)
        ablations,
        ablations_backends,
        ablations_extended,
        ablations_macro,
        figures,
    )
