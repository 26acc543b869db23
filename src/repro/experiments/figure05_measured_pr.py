"""Figure 5: the measured P/R curve of the exhaustive system S1.

The paper's Figure 5 shows S1's precision falling as recall rises over a
threshold sweep — "the natural behavior of a schema matching system is to
loose precision with rising recall".  We regenerate it by running the
exhaustive matcher over the synthetic workload and judging every
threshold against the oracle ground truth.

Expected shape: precision starts near 1 at the tightest threshold and
decays monotonically-ish while recall climbs; both the rows and an ASCII
rendition of the curve are emitted.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.incremental import SystemProfile
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import (
    ExperimentResult,
    base_runs,
    register,
)
from repro.util.asciiplot import AsciiPlot, Series

__all__ = ["profile_rows"]


def profile_rows(profile: SystemProfile) -> list[tuple]:
    """(δ, |A|, |T|, precision, recall) rows of a judged profile."""
    rows = []
    for delta, counts in zip(profile.schedule, profile.counts):
        precision = counts.precision_or(Fraction(1))
        recall = counts.recall
        rows.append(
            (
                delta,
                counts.answers,
                counts.correct,
                float(precision),
                None if recall is None else float(recall),
            )
        )
    return rows


@register("fig05", "Measured P/R curve of the exhaustive system S1")
def run(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    profile = bundle.original.profile
    curve = profile.pr_curve()

    result = ExperimentResult("fig05", "Measured P/R curve of S1")
    result.notes.append(
        f"workload: {len(bundle.workload.repository)} schemas, "
        f"{len(bundle.workload.suite)} queries, pooled |H| = "
        f"{bundle.workload.relevant_size}"
    )
    result.add_table(
        "S1 measured (threshold sweep)",
        ["delta", "|A1|", "|T1|", "precision", "recall"],
        profile_rows(profile),
    )
    plot = AsciiPlot(
        width=64,
        height=18,
        title="Figure 5: S1 measured P/R curve",
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
    )
    plot.add(Series("S1 measured", curve.as_xy(), marker="o"))
    result.plots.append(plot.render())
    return result
