"""Figure 6: the 11-point interpolated P/R curve.

"The intended way of constructing a P/R curve is by determining the
precision at 11 fixed recall levels 0, 0.1, ..., 1" — constructed from
the measured curve of Figure 5 with the standard max-interpolation rule.
Recall levels the system never reaches show precision 0; the note lists
the highest attained recall.
"""

from __future__ import annotations

from repro.core.pr_curve import STANDARD_RECALL_LEVELS
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import ExperimentResult, base_runs, register
from repro.util.asciiplot import AsciiPlot, Series


@register("fig06", "Interpolated 11-point P/R curve of S1")
def run(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    measured = bundle.original.profile.pr_curve()
    interpolated = measured.interpolate(STANDARD_RECALL_LEVELS)

    result = ExperimentResult("fig06", "Interpolated 11-point P/R curve of S1")
    max_recall = max(measured.recalls())
    result.notes.append(
        f"max measured recall is {max_recall:.3f}; higher recall levels get "
        "interpolated precision 0 (the system never reaches them)"
    )
    result.add_table(
        "S1 interpolated (11 recall levels)",
        ["recall level", "interpolated precision"],
        [(float(p.recall), float(p.precision)) for p in interpolated],
    )
    plot = AsciiPlot(
        width=64,
        height=18,
        title="Figure 6: S1 interpolated P/R curve",
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
    )
    plot.add(Series("S1 measured", measured.as_xy(), marker="."))
    plot.add(Series("S1 interpolated", interpolated.as_xy(), marker="o"))
    result.plots.append(plot.render())
    return result
