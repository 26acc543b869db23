"""Ablation: micro- vs macro-averaged effectiveness and bounds.

The paper's P/R figures pool all matching problems into one evaluation
(micro-averaging).  The standard alternative weights every query equally
(macro-averaging, as in the schema-matching evaluation comparisons the
paper cites).  The bounds technique applies either way — per query, each
improved run is a subset of its exhaustive run — and this ablation shows
both views side by side, with the macro band verified to bracket the
macro truth.
"""

from __future__ import annotations

from fractions import Fraction

from repro.evaluation.macro import (
    macro_bound_rows,
    macro_pr_rows,
    per_query_bounds,
    per_query_runs,
)
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import ExperimentResult, base_runs, register
from repro.matching.beam import BeamMatcher
from repro.matching.exhaustive import ExhaustiveMatcher

__all__: list[str] = []


@register("abl-macro", "Micro vs macro averaging, with macro bounds")
def run_macro(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    workload = bundle.workload
    original_runs = per_query_runs(
        ExhaustiveMatcher(workload.objective), workload.suite, workload.schedule
    )
    improved_runs = per_query_runs(
        BeamMatcher(workload.objective, beam_width=40),
        workload.suite,
        workload.schedule,
    )

    result = ExperimentResult(
        "abl-macro", "Micro vs macro effectiveness of S1 and macro bounds for S2-one"
    )
    micro_rows = []
    for delta, counts in zip(workload.schedule, bundle.original.profile.counts):
        micro_rows.append(
            (
                delta,
                float(counts.precision_or(Fraction(1))),
                float(counts.recall or 0),
            )
        )
    macro_rows = macro_pr_rows(original_runs)
    combined = [
        (delta, micro_p, macro_p, micro_r, macro_r)
        for (delta, micro_p, micro_r), (_d, macro_p, macro_r) in zip(
            micro_rows, macro_rows
        )
    ]
    result.add_table(
        "S1: micro vs macro averaging",
        ["delta", "P micro", "P macro", "R micro", "R macro"],
        combined,
    )

    bounds = per_query_bounds(original_runs, improved_runs)
    bound_rows = macro_bound_rows(bounds)
    truth_rows = macro_pr_rows(improved_runs)
    table = []
    violations = 0
    for (delta, p_worst, p_best, r_worst, r_best), (_d, p, r) in zip(
        bound_rows, truth_rows
    ):
        if not (p_worst - 1e-9 <= p <= p_best + 1e-9):
            violations += 1
        table.append((delta, p_worst, p, p_best, r_worst, r, r_best))
    result.add_table(
        "S2-one: macro bounds vs macro truth",
        ["delta", "P worst", "P actual", "P best", "R worst", "R actual", "R best"],
        table,
    )
    result.notes.append(
        f"macro containment violations: {violations} (0 expected — each "
        "per-query band contains its query's truth, so the averages nest)"
    )
    result.notes.append(
        "macro precision runs higher than micro at loose thresholds: "
        "queries with few candidate matches keep high per-query precision, "
        "while the pooled view is dominated by the noisiest queries"
    )
    return result
