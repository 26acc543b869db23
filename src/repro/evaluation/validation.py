"""Running systems over workloads and validating bounds end-to-end.

The glue between substrate and contribution: run the exhaustive system
and an improvement on a scenario suite, derive the paper's inputs (S1
profile, S2 sizes), compute the bounds — and, because the synthetic
testbed knows H, also judge the improvement for real and check the
containment the paper can only assert analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.answers import AnswerSet
from repro.core.bands import ContainmentReport, EffectivenessBand
from repro.core.incremental import (
    IncrementalBounds,
    SizeProfile,
    SystemProfile,
    compute_incremental_bounds,
)
from repro.core.size_ratio import SizeRatioCurve
from repro.core.thresholds import ThresholdSchedule
from repro.errors import BoundsError
from repro.evaluation.scenario import ScenarioSuite
from repro.matching.base import Matcher
from repro.matching.executor import ShardExecutor
from repro.matching.pipeline import reject_cache

__all__ = ["SystemRun", "BoundsValidation", "run_system", "validate_improvement"]


@dataclass
class SystemRun:
    """One system's pooled run over a workload, judged at every threshold.

    ``profile`` uses the oracle (possible only on the synthetic testbed);
    ``sizes`` is the judgment-free view the bounds technique consumes.
    """

    name: str
    answers: AnswerSet
    profile: SystemProfile
    sizes: SizeProfile

    @property
    def schedule(self) -> ThresholdSchedule:
        return self.profile.schedule


def run_system(
    matcher: Matcher,
    suite: ScenarioSuite,
    schedule: ThresholdSchedule,
    *,
    workers: int | None = None,
    shards: int | None = None,
    executor: ShardExecutor | None = None,
    cache: object | None = None,
) -> SystemRun:
    """Run a matcher over the suite and judge it at every threshold.

    Matching goes through the sharded pipeline, serial unless the
    caller passes ``executor`` or ``workers`` (as
    :meth:`~repro.matching.base.Matcher.batch_match` takes them, with
    ``shards``).  ``cache`` accepts only ``None`` or ``False``
    (:func:`~repro.matching.pipeline.reject_cache`).
    """
    reject_cache(cache)
    answers = suite.run(
        matcher,
        schedule.final,
        workers=workers,
        shards=shards,
        executor=executor,
    )
    profile = SystemProfile.from_answer_set(
        schedule, answers, suite.ground_truth.mappings
    )
    sizes = SizeProfile.from_answer_set(schedule, answers)
    return SystemRun(
        name=matcher.name, answers=answers, profile=profile, sizes=sizes
    )


@dataclass
class BoundsValidation:
    """Everything the fig11-style analysis produces for one improvement."""

    original: SystemRun
    improved: SystemRun
    bounds: IncrementalBounds
    band: EffectivenessBand
    ratio: SizeRatioCurve
    containment: ContainmentReport

    @property
    def sound(self) -> bool:
        """Did the actual P/R land inside the computed band everywhere?"""
        return self.containment.all_contained


def validate_improvement(
    original: SystemRun, improved: SystemRun
) -> BoundsValidation:
    """Bounds + end-to-end containment check for one improvement.

    Enforces the technique's preconditions first: same schedule, subset
    answer sets, identical scores on shared answers.
    """
    if original.schedule != improved.schedule:
        raise BoundsError("runs must share a threshold schedule")
    improved.answers.check_subset_of(original.answers, improved.name)
    improved.answers.check_scores_match(original.answers)

    bounds = compute_incremental_bounds(original.profile, improved.sizes)
    band = EffectivenessBand(bounds)
    ratio = SizeRatioCurve.from_profiles(original.profile, improved.sizes)
    containment = band.check_containment(improved.profile)
    return BoundsValidation(
        original=original,
        improved=improved,
        bounds=bounds,
        band=band,
        ratio=ratio,
        containment=containment,
    )
