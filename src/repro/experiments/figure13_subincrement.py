"""Figure 13: interpolation boundaries at sub-increment level.

Section 4.2's worked example: with |H| = 100, the rebuilt system has
30/50 correct/answers at δ1 and 36/70 at δ2.  At any intermediate δ′ its
P/R point is pinned onto a line segment; at 54 answers the segment runs
from (30/100, 30/54) to (34/100, 34/54).  Sweeping δ′ produces the
three-sectioned boundary of the figure and the midpoint locus — "the
safest, i.e., with smallest error, interpolation choice".

This experiment is exact: the highlighted segment is checked against the
paper's fractions and the run fails if they deviate.
"""

from __future__ import annotations

from repro.core.subincrement import SubIncrementAnalyzer
from repro.errors import ExperimentError
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import ExperimentResult, register
from repro.experiments.paper_data import (
    FIGURE13_EXPECTED,
    figure13_high,
    figure13_low,
)
from repro.util.asciiplot import AsciiPlot, Series


@register("fig13", "Sub-increment interpolation boundaries (exact)")
def run(
    config: WorkloadConfig | None = None, **_execution
) -> ExperimentResult:
    analyzer = SubIncrementAnalyzer(figure13_low(), figure13_high())
    highlighted = analyzer.segment(FIGURE13_EXPECTED["intermediate_answers"])

    checks = {
        "worst recall": (highlighted.worst.recall, FIGURE13_EXPECTED["worst_recall"]),
        "worst precision": (
            highlighted.worst.precision,
            FIGURE13_EXPECTED["worst_precision"],
        ),
        "best recall": (highlighted.best.recall, FIGURE13_EXPECTED["best_recall"]),
        "best precision": (
            highlighted.best.precision,
            FIGURE13_EXPECTED["best_precision"],
        ),
    }
    for label, (got, expected) in checks.items():
        if got != expected:
            raise ExperimentError(
                f"figure 13 reproduction failed: {label} = {got}, paper says "
                f"{expected}"
            )

    result = ExperimentResult(
        "fig13", "Boundaries for interpolation between two measured points"
    )
    rows = []
    for segment in analyzer.boundary(step=2):
        mid = segment.midpoint()
        rows.append(
            (
                segment.answers,
                float(segment.worst.recall),
                float(segment.worst.precision),
                float(segment.best.recall),
                float(segment.best.precision),
                float(mid.recall),
                float(mid.precision),
            )
        )
    result.add_table(
        "Admissible segment per intermediate answer count (|H| = 100)",
        ["answers", "R worst", "P worst", "R best", "P best", "R mid", "P mid"],
        rows,
    )
    plot = AsciiPlot(
        width=64,
        height=18,
        title="Figure 13: interpolation boundaries between (30/100,30/50) "
        "and (36/100,36/70)",
        x_range=(0.28, 0.38),
        y_range=(0.4, 0.7),
    )
    plot.add(
        Series(
            "worst ends",
            [s.worst.as_tuple() for s in analyzer.boundary()],
            marker="x",
        )
    )
    plot.add(
        Series(
            "best ends",
            [s.best.as_tuple() for s in analyzer.boundary()],
            marker="+",
        )
    )
    plot.add(
        Series(
            "midpoints",
            [p.as_tuple() for p in analyzer.midpoint_locus()],
            marker=".",
        )
    )
    result.plots.append(plot.render())
    result.notes.append(
        "the highlighted δ' (54 answers) segment matches the paper exactly: "
        "(30/100, 30/54) to (34/100, 34/54); note precision can rise along "
        "the locus, as TREC-1 already observed"
    )
    result.notes.append(
        "midpoints are NOT linear interpolation between the measured points "
        "— the locus bends in three sections, and taking midpoints is the "
        "smallest-error interpolation choice"
    )
    return result
