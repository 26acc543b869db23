"""An evolving repository: replay churn deltas, re-match incrementally.

Production schema repositories are not fixed — schemas get registered,
revised and retired while queries keep arriving.  This example walks the
repository-evolution subsystem end to end:

1. build a workload and a cold matching baseline,
2. derive a deterministic churn-delta stream (5 %/10 % churn grid),
3. replay it through an :class:`EvolutionSession`, re-matching
   incrementally after every step,
4. verify, per step, that the incremental answers are byte-identical to
   a cold full re-match of the evolved repository,
5. report what incrementality saved (pairs reused, searches skipped by
   the static admissible bound, whole answer sets adopted).

Run:  python examples/evolving_repository.py
"""

import os

from repro.evaluation import EvolutionConfig, build_evolution, build_workload
from repro.evaluation.workloads import small_config
from repro.matching import EvolutionSession, ExhaustiveMatcher
from repro.util.tables import format_table

#: δmax for every match; 0.3 keeps the demo quick
DELTA_MAX = 0.3


def main() -> None:
    # 1. Workload + cold baseline.
    workload = build_workload(small_config())
    queries = [scenario.query for scenario in workload.suite.scenarios]
    matcher = ExhaustiveMatcher(workload.objective)
    session = EvolutionSession(matcher, queries, DELTA_MAX)
    baseline = session.match(workload.repository)
    print(
        f"baseline: {len(workload.repository)} schemas, {len(queries)} "
        f"queries, {sum(len(a) for a in baseline.answer_sets)} answers "
        f"at δ={DELTA_MAX}"
    )

    # 2. A deterministic churn stream (the evolving-repository scenario
    #    family; rates sized for the 10-schema demo repository so every
    #    step touches something.  REPRO_EXAMPLE_SMOKE shortens it for CI.)
    steps_per_rate = 1 if os.environ.get("REPRO_EXAMPLE_SMOKE") else 2
    steps = build_evolution(
        workload,
        EvolutionConfig(
            churn_rates=(0.10, 0.25), steps_per_rate=steps_per_rate, seed=11
        ),
    )

    # 3.–5. Replay incrementally; verify byte-identity against cold runs.
    rows = []
    for step in steps:
        result, report = session.rebase(step.repository, step.report)
        stats = result.rematch
        cold = matcher.batch_match(queries, step.repository, DELTA_MAX)
        identical = [a.answers() for a in cold] == [
            a.answers() for a in result.answer_sets
        ]
        assert identical, "incremental result diverged from cold re-match!"
        rows.append(
            (
                step.index,
                f"{step.churn:.0%}",
                report.summary(),
                stats.pairs_reused,
                stats.pairs_skipped,
                stats.pairs_recomputed,
                stats.answer_sets_reused,
                "yes",
            )
        )
    print()
    print(
        format_table(
            [
                "step", "churn", "delta", "pairs reused", "skipped",
                "recomputed", "answer sets reused", "identical",
            ],
            rows,
            title="incremental replay (verified against cold re-match)",
        )
    )

    # The evolved ground truth is rebased per step, so evaluation keeps
    # working across versions.
    final = steps[-1]
    print(
        f"\nfinal repository: {len(final.repository)} schemas, "
        f"|H| = {final.suite.relevant_size} "
        f"(baseline had {workload.suite.relevant_size})"
    )


if __name__ == "__main__":
    main()
