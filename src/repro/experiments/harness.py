"""Experiment harness: registry, shared base runs, result rendering.

Every paper figure (and every ablation) is an *experiment*: a callable
taking a :class:`~repro.evaluation.workloads.WorkloadConfig` and
returning an :class:`ExperimentResult` of titled tables, ASCII plots and
notes.  The benchmark files and the CLI both go through
:func:`run_experiment`, so the printed output of a bench *is* the figure.

Simulation-backed figures share one expensive artifact — the exhaustive
and improved systems' runs over the workload — cached per config in
:func:`base_runs`.  The cache is in-process and keyed by the (frozen,
hashable) config and the execution values, so repeated figures in one
session pay for matching once.

Where matching runs is the caller's choice, passed with every call:
:func:`run_experiment` hands its ``executor``/``shards`` keywords to the
experiment, which forwards them to :func:`base_runs` and
:func:`~repro.evaluation.validation.run_system` (default: serial).
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
from repro.matching.executor import ShardExecutor
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


def base_runs(
    config: WorkloadConfig | None = None,
    *,
    executor: ShardExecutor | None = None,
    shards: int | None = None,
) -> RunBundle:
    """Build the workload and run all systems once (cached per config).

    All four system runs go through the sharded matching pipeline on
    ``executor`` with ``shards`` partitions (default: serial, one
    shard), as :func:`~repro.evaluation.validation.run_system` takes
    them.
    """
    return _run_bundle(config, executor, shards)


@lru_cache(maxsize=8)
def _run_bundle(
    config: WorkloadConfig | None,
    executor: ShardExecutor | None,
    shards: int | None,
) -> RunBundle:
    workload = build_workload(config)
    objective = workload.objective

    def run(matcher) -> SystemRun:
        return run_system(
            matcher,
            workload.suite,
            workload.schedule,
            executor=executor,
            shards=shards,
        )

    return RunBundle(
        workload=workload,
        original=run(ExhaustiveMatcher(objective)),
        beam=run(BeamMatcher(objective, beam_width=S2_ONE_BEAM_WIDTH)),
        clustering=run(
            ClusteringMatcher(
                objective, clusters_per_element=S2_TWO_CLUSTERS_PER_ELEMENT
            )
        ),
        topk=run(
            TopKCandidateMatcher(
                objective, candidates_per_element=S2_EXTRA_TOPK
            )
        ),
    )


#: ``fn(config, executor=..., shards=...)``: an experiment takes the
#: execution keywords with its config and forwards them to every
#: :func:`base_runs`/:func:`~repro.evaluation.validation.run_system` call
ExperimentFn = Callable[..., ExperimentResult]
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
    experiment_id: str,
    config: WorkloadConfig | None = None,
    *,
    executor: ShardExecutor | None = None,
    shards: int | None = None,
) -> ExperimentResult:
    """Run one experiment by id, matching on ``executor`` (default: serial)."""
    _ensure_loaded()
    try:
        _title, fn = _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(eid for eid, _ in list_experiments())
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return fn(config, executor=executor, shards=shards)


def _ensure_loaded() -> None:
    """Import the experiment modules so their registrations run."""
    from repro.experiments import (  # noqa: F401  (import for side effect)
        ablations,
        ablations_backends,
        ablations_extended,
        ablations_macro,
        figures,
    )
