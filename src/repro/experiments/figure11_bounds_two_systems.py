"""Figure 11: best/worst/random P/R bands for S2-one and S2-two.

The paper's central experimental figure: for both improvements, the
best- and worst-case curves demarcate where the true P/R curve must lie,
and the random-selection curve (section 3.4) provides the practically
tighter lower bound.  The paper could only *assert* the true curve lies
inside; the synthetic testbed knows the ground truth, so this experiment
additionally **verifies containment** and prints the actual measured
curve of each improvement alongside its band — the reproduction's
headline check.

Also reproduced: the paper's guarantee reading ("for recall levels up to
0.15, S2-one guarantees a worst case precision of 0.5" and "precision of
0.5 is maintained up to a recall of 0.35" under the random-case reading)
— our numeric levels differ with the substrate, but both readings are
computed and printed.
"""

from __future__ import annotations

from fractions import Fraction

from repro.evaluation.validation import SystemRun, validate_improvement
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import ExperimentResult, base_runs, register
from repro.core.report import render_band_plot


def _band_rows(validation) -> list[tuple]:
    rows = []
    for entry, actual in zip(validation.bounds, validation.improved.profile.counts):
        worst = entry.worst_point()
        best = entry.best_point()
        random_point = entry.random_point()
        actual_p = actual.precision_or(Fraction(1))
        actual_r = actual.recall
        rows.append(
            (
                entry.delta,
                float(entry.size_ratio),
                float(worst.precision),
                float(random_point.precision),
                float(actual_p),
                float(best.precision),
                float(worst.recall),
                float(random_point.recall),
                None if actual_r is None else float(actual_r),
                float(best.recall),
            )
        )
    return rows


def _analyse(result: ExperimentResult, name: str, original, improved: SystemRun):
    validation = validate_improvement(original, improved)
    result.add_table(
        f"{name}: band vs actual (P and R per threshold)",
        [
            "delta",
            "ratio",
            "P worst",
            "P rand",
            "P actual",
            "P best",
            "R worst",
            "R rand",
            "R actual",
            "R best",
        ],
        _band_rows(validation),
    )
    result.plots.append(
        render_band_plot(validation.band, title=f"Figure 11 ({name})")
    )
    contained = "contained" if validation.sound else "VIOLATED"
    result.notes.append(f"{name}: actual P/R curve is {contained} in its band")
    for level in (Fraction(3, 4), Fraction(1, 2)):
        recall = validation.band.guaranteed_recall_at_precision(level)
        result.notes.append(
            f"{name}: worst-case precision >= {float(level):.2f} guaranteed "
            f"up to recall {float(recall):.3f}"
        )
    return validation


@register("fig11", "Best/worst/random bands for S2-one and S2-two")
def run(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    result = ExperimentResult(
        "fig11",
        "Effectiveness bands for the two improvements (+ containment check)",
    )
    _analyse(result, "S2-one (beam)", bundle.original, bundle.beam)
    _analyse(result, "S2-two (clustering)", bundle.original, bundle.clustering)
    result.notes.append(
        "the bands are wide at high recall (the paper: 'for all we know, "
        "S2-one may in fact behave close to its worst case') but narrow "
        "at the top of the ranking, where the random-case curve tightens "
        "the practical lower bound further"
    )
    return result
