"""Figure 9: best/worst-case P/R band for a fixed answer-size ratio 0.9.

"Figure 9 shows the resulting effectiveness bounds for a hypothetical
system S2 that behaves with a fixed answer size ratio 0.9 for each
threshold δ.  In other words, it misses the same fraction of answers for
all increments."  We synthesise that hypothetical S2 from S1's measured
profile — per increment, keep 90% (rounded) of S1's answers — and run the
incremental bound computation.

Expected shape: a narrow band hugging S1's curve (Â close to 1 means
close to certainty; at Â = 1 the band collapses onto S1 exactly).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.bands import EffectivenessBand
from repro.core.incremental import (
    SizeProfile,
    SystemProfile,
    compute_incremental_bounds,
)
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import ExperimentResult, base_runs, register
from repro.core.report import render_band_plot

__all__ = ["fixed_ratio_sizes"]

FIXED_RATIO = Fraction(9, 10)


def fixed_ratio_sizes(
    original: SystemProfile, ratio: Fraction = FIXED_RATIO
) -> SizeProfile:
    """An S2 size profile missing the same fraction of every increment."""
    sizes = []
    total = 0
    for increment in original.increments():
        kept = round(increment.answers * ratio)
        kept = min(kept, increment.answers)
        total += kept
        sizes.append(total)
    return SizeProfile(original.schedule, tuple(sizes))


@register("fig09", "Best/worst case P/R band for fixed ratio 0.9")
def run(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    original = bundle.original.profile
    improved = fixed_ratio_sizes(original)
    bounds = compute_incremental_bounds(original, improved)
    band = EffectivenessBand(bounds)

    result = ExperimentResult(
        "fig09", "Effectiveness band for a hypothetical S2 with Â = 0.9"
    )
    rows = []
    for entry in bounds:
        best = entry.best_point()
        worst = entry.worst_point()
        s1 = entry.original_point()
        rows.append(
            (
                entry.delta,
                float(entry.size_ratio),
                float(s1.recall),
                float(s1.precision),
                float(worst.recall),
                float(worst.precision),
                float(best.recall),
                float(best.precision),
            )
        )
    result.add_table(
        "Band at each threshold",
        ["delta", "ratio", "R S1", "P S1", "R worst", "P worst", "R best", "P best"],
        rows,
    )
    result.plots.append(
        render_band_plot(
            band,
            title="Figure 9: band for fixed ratio 0.9",
            include_random=False,
        )
    )
    result.notes.append(
        f"mean precision band width: {float(band.mean_precision_width()):.4f} "
        "(narrow, as the paper shows for Â close to 1)"
    )
    return result
