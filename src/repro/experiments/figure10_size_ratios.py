"""Figure 10: measured answer-size-ratio curves of two real improvements.

The paper contrasts two improvements from its XML schema matching work:
S2-one, "a smoothly declining ratio of retrieved answers, with an
increasing threshold", and S2-two, "more rigorous in missing answers"
while "the answers with the best score still have a high chance of being
retained".  Our stand-ins with the same behavioural signatures:

* **S2-one** = a generous beam search (ratio 1 at tight thresholds,
  declining smoothly as the beam can no longer carry every candidate);
* **S2-two** = aggressive cluster-restricted search (sharp drop once
  mappings need elements outside the nominated clusters, but the
  best-scoring mappings live inside them and survive).
"""

from __future__ import annotations

from repro.core.size_ratio import SizeRatioCurve
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import ExperimentResult, base_runs, register
from repro.util.asciiplot import AsciiPlot, Series


@register("fig10", "Answer-size-ratio curves of two improvements")
def run(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    original = bundle.original
    curves = {
        "S2-one (beam)": SizeRatioCurve.from_profiles(
            original.profile, bundle.beam.sizes
        ),
        "S2-two (clustering)": SizeRatioCurve.from_profiles(
            original.profile, bundle.clustering.sizes
        ),
    }

    result = ExperimentResult(
        "fig10", "Measured answer-size ratios Â of S2-one and S2-two"
    )
    for name, curve in curves.items():
        result.add_table(
            f"{name}: |A2|/|A1| per threshold",
            ["delta", "|A1|", "|A2|", "ratio", "increment ratio"],
            curve.rows(),
        )
    plot = AsciiPlot(
        width=64,
        height=18,
        title="Figure 10: answer size ratio vs threshold",
        x_range=(
            bundle.workload.schedule[0],
            bundle.workload.schedule.final,
        ),
        y_range=(0.0, 1.0),
    )
    plot.add(Series("S2-one (beam)", curves["S2-one (beam)"].as_xy(), marker="o"))
    plot.add(
        Series(
            "S2-two (clustering)",
            curves["S2-two (clustering)"].as_xy(),
            marker="x",
        )
    )
    result.plots.append(plot.render())
    result.notes.append(
        "expected shape: S2-one declines smoothly from 1; S2-two drops "
        "sharply but keeps the best-scoring answers (ratio 1 at the "
        "tightest thresholds)"
    )
    return result
