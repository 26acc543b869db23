"""Ablation experiments beyond the paper's figures.

The paper motivates its technique with use cases it never quantifies:
evaluating "many different parameter settings ... in a less costly way",
robustness to imperfect inputs, and the relation to pooling.  These
ablations fill that in on the synthetic testbed:

* ``abl-increments`` — bound tightness versus threshold granularity
  (how fast the incremental bounds converge as the schedule refines);
* ``abl-hsize``    — section 4.1 sensitivity: reconstruction error and
  band width across |H| guesses;
* ``abl-matchers`` — the efficiency/effectiveness trade-off sweep over
  matcher parameters, bounded without judging any improved run;
* ``abl-pooling``  — TREC-style pooling estimates versus exact bounds on
  identical runs;
* ``abl-noise``    — what happens when the *input* S1 curve was judged
  noisily (the bounds are exact only relative to their input);
* ``abl-scaling``  — pure-math cost of the bound computation as the
  schedule grows (it is linear; the expensive part is always matching).
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.core.bands import EffectivenessBand
from repro.core.incremental import (
    SizeProfile,
    SystemProfile,
    compute_incremental_bounds,
    compute_naive_bounds,
)
from repro.core.measures import Counts
from repro.core.reconstruction import reconstruction_error
from repro.core.thresholds import ThresholdSchedule
from repro.evaluation.judge import NoisyJudge
from repro.evaluation.pooling import build_pool, pooled_counts
from repro.evaluation.validation import run_system, validate_improvement
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import (
    ExperimentResult,
    base_runs,
    register,
)
from repro.matching.beam import BeamMatcher
from repro.matching.clustering import ClusteringMatcher
from repro.matching.topk import TopKCandidateMatcher
from repro.util import rng as rng_util

__all__: list[str] = []


@register("abl-increments", "Bound tightness vs threshold granularity")
def run_increments(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    truth = bundle.workload.suite.ground_truth.mappings
    fine = ThresholdSchedule.from_answer_scores(bundle.original.answers, 32)

    result = ExperimentResult(
        "abl-increments", "Precision band width vs number of increments"
    )
    rows = []
    for keep_every in (32, 16, 8, 4, 2, 1):
        schedule = fine.coarsen(keep_every)
        original = SystemProfile.from_answer_set(
            schedule, bundle.original.answers, truth
        )
        improved = SizeProfile.from_answer_set(schedule, bundle.beam.answers)
        incremental = compute_incremental_bounds(original, improved)
        naive = compute_naive_bounds(original, improved)
        # Compare at the shared final threshold so rows are commensurable:
        # the naive bound there ignores the schedule, the incremental one
        # tightens as increments refine.
        last_incremental = incremental[len(incremental) - 1]
        last_naive = naive[len(naive) - 1]
        width = lambda entry: float(  # noqa: E731 - tiny local accessor
            entry.best.precision_or(Fraction(1))
            - entry.worst.precision_or(Fraction(0))
        )
        rows.append(
            (
                len(schedule),
                width(last_naive),
                width(last_incremental),
                width(last_naive) - width(last_incremental),
            )
        )
    result.add_table(
        "Band width at the final threshold, by schedule granularity (S2-one)",
        ["thresholds", "naive width", "incremental width", "gain"],
        rows,
    )
    result.notes.append(
        "incremental bounds tighten monotonically with finer schedules and "
        "never lose to the naive per-threshold bounds (Figure 8's lesson, "
        "measured)"
    )
    return result


@register("abl-hsize", "Section 4.1 sensitivity to the |H| guess")
def run_hsize(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    true_relevant = bundle.workload.relevant_size

    result = ExperimentResult(
        "abl-hsize", "Reconstruction error across |H| guesses"
    )
    rows = []
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        guess = max(1, int(true_relevant * factor))
        errors = reconstruction_error(bundle.original.profile, guess)
        mean_dp = sum((e[1] for e in errors), Fraction(0)) / len(errors)
        max_dp = max(e[1] for e in errors)
        rows.append((f"{factor:.2f}x", guess, float(mean_dp), float(max_dp)))
    result.add_table(
        "Round-trip precision error (measured -> bare curve -> reconstruct)",
        ["guess", "|H|", "mean |dP|", "max |dP|"],
        rows,
    )
    result.notes.append(
        "with the true |H| the round-trip is exact (error 0); rough guesses "
        "cost only rounding-level precision error, supporting the paper's "
        "suspicion that 'a rough estimate suffices'"
    )
    return result


@register("abl-matchers", "Efficiency/effectiveness sweep over matcher parameters")
def run_matchers(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    workload = bundle.workload
    original = bundle.original

    sweeps = [
        ("beam", BeamMatcher, "beam_width", (5, 10, 20, 40, 80)),
        (
            "clustering",
            ClusteringMatcher,
            "clusters_per_element",
            (1, 2, 3, 4),
        ),
        ("topk", TopKCandidateMatcher, "candidates_per_element", (2, 4, 6, 8)),
    ]
    result = ExperimentResult(
        "abl-matchers",
        "Bounded trade-off: one judged S1 run evaluates every parameter",
    )
    for family, factory, param_name, values in sweeps:
        rows = []
        for value in values:
            matcher = factory(workload.objective, **{param_name: value})
            started = time.perf_counter()
            run = run_system(
                matcher, workload.suite, workload.schedule, **execution
            )
            elapsed = time.perf_counter() - started
            validation = validate_improvement(original, run)
            final = validation.bounds[len(validation.bounds) - 1]
            actual = run.profile.final_counts()
            rows.append(
                (
                    value,
                    elapsed,
                    final.improved_answers,
                    float(validation.ratio.mean_ratio()),
                    float(validation.band.guaranteed_recall_at_precision(0.5)),
                    float(final.worst.precision_or(Fraction(0))),
                    float(actual.precision_or(Fraction(1))),
                    float(final.best.precision_or(Fraction(1))),
                    "yes" if validation.sound else "NO",
                )
            )
        result.add_table(
            f"{family}: sweep over {param_name}",
            [
                param_name,
                "seconds",
                "|A2| final",
                "mean ratio",
                "recall@P>=.5",
                "P worst",
                "P actual",
                "P best",
                "contained",
            ],
            rows,
        )
    result.notes.append(
        "every row's guarantees come from answer sizes alone; the 'P actual' "
        "column (oracle-judged) is the validation the paper could not afford "
        "and always lies within [P worst, P best]"
    )
    return result


@register("abl-pooling", "TREC-style pooling estimates vs exact bounds")
def run_pooling(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    truth = bundle.workload.suite.ground_truth.mappings
    final_delta = bundle.workload.schedule.final
    participants = [
        bundle.original.answers,
        bundle.beam.answers,
        bundle.clustering.answers,
        bundle.topk.answers,
    ]
    validation = validate_improvement(bundle.original, bundle.beam)
    final_bounds = validation.bounds[len(validation.bounds) - 1]
    true_counts = bundle.beam.profile.final_counts()

    result = ExperimentResult(
        "abl-pooling", "Pooling estimates for S2-one vs guaranteed bounds"
    )
    rows = []
    for depth in (10, 30, 100, 300):
        pool = build_pool(participants, depth=depth)
        pooled = pooled_counts(
            bundle.beam.answers.at_threshold(final_delta), pool, truth
        )
        rows.append(
            (
                depth,
                len(pool),
                pooled.relevant,
                float(pooled.precision_or(Fraction(1))),
                None if pooled.recall is None else float(pooled.recall),
            )
        )
    result.add_table(
        "Pooled estimates at the final threshold",
        ["pool depth", "pool size", "pooled |H|", "pooled P", "pooled R"],
        rows,
    )
    result.add_table(
        "Reference: truth and bounds at the final threshold",
        ["true |H|", "true P", "true R", "P worst", "P best"],
        [
            (
                true_counts.relevant,
                float(true_counts.precision_or(Fraction(1))),
                float(true_counts.recall or 0),
                float(final_bounds.worst.precision_or(Fraction(0))),
                float(final_bounds.best.precision_or(Fraction(1))),
            )
        ],
    )
    result.notes.append(
        "shallow pools under-judge |H|, inflating pooled recall and "
        "deflating pooled precision; the bounds cost no judgments of S2 at "
        "all and are guaranteed, complementing pooling's estimates"
    )
    return result


def _noisy_profile(
    bundle, flip_probability: float, seed: int
) -> SystemProfile:
    """S1's profile as a noisy judge would have measured it."""
    judge = NoisyJudge(
        bundle.workload.suite.ground_truth, flip_probability, seed
    )
    answers = bundle.original.answers
    final = answers.at_threshold(bundle.workload.schedule.final)
    relevant = sum(
        1 for item in bundle.workload.suite.ground_truth if judge.is_correct(item)
    )
    relevant += sum(
        1
        for a in final
        if a.item not in bundle.workload.suite.ground_truth
        and judge.is_correct(a.item)
    )
    counts = []
    for delta in bundle.workload.schedule:
        at = answers.at_threshold(delta)
        correct = sum(1 for a in at if judge.is_correct(a.item))
        counts.append(Counts(len(at), min(correct, relevant), relevant))
    return SystemProfile(bundle.workload.schedule, tuple(counts))


@register("abl-noise", "Bound validity under a noisy input curve")
def run_noise(
    config: WorkloadConfig | None = None, **execution
) -> ExperimentResult:
    bundle = base_runs(config, **execution)
    improved = bundle.beam

    result = ExperimentResult(
        "abl-noise",
        "Bounds are exact relative to their input: noisy S1 judgments "
        "propagate",
    )
    rows = []
    for flip in (0.0, 0.02, 0.05, 0.10, 0.20):
        profile = (
            bundle.original.profile
            if flip == 0.0
            else _noisy_profile(bundle, flip, seed=rng_util.seed_from(77, flip))
        )
        bounds = compute_incremental_bounds(profile, improved.sizes)
        violations = 0
        for entry, actual in zip(bounds, improved.profile.counts):
            actual_p = actual.precision_or(Fraction(1))
            if not (
                entry.worst.precision_or(Fraction(0))
                <= actual_p
                <= entry.best.precision_or(Fraction(1))
            ):
                violations += 1
        band = EffectivenessBand(bounds)
        rows.append(
            (
                flip,
                profile.relevant,
                float(band.mean_precision_width()),
                violations,
                len(bounds),
            )
        )
    result.add_table(
        "Precision containment of the true S2-one under noisy S1 judgments",
        ["flip rate", "judged |H|", "mean width", "violations", "thresholds"],
        rows,
    )
    result.notes.append(
        "with a perfect input curve containment is guaranteed; as judgment "
        "noise grows the computed band drifts off the true counts — the "
        "technique is exact, but only relative to the effectiveness figures "
        "it is fed (paper section 1: measures 'are expected to carry over')"
    )
    return result


@register("abl-scaling", "Cost of the bound computation itself")
def run_scaling(
    config: WorkloadConfig | None = None, **_execution
) -> ExperimentResult:
    result = ExperimentResult(
        "abl-scaling", "Pure-math scalability of compute_incremental_bounds"
    )
    rows = []
    for thresholds in (10, 100, 1000, 5000):
        generator = rng_util.make_tagged(rng_util.seed_from(5, thresholds))
        schedule = ThresholdSchedule.linear(0.01, 1.0, thresholds)
        answers = 0
        correct = 0
        improved_total = 0
        pairs = []
        sizes = []
        for _ in range(thresholds):
            grow = generator.randint(1, 50)
            good = generator.randint(0, grow)
            answers += grow
            correct += good
            pairs.append((answers, correct))
            improved_total += generator.randint(0, grow)  # per-increment subset
            sizes.append(improved_total)
        relevant = 2 * correct  # one shared |H| for the whole profile
        counts = [Counts(a, t, relevant) for a, t in pairs]
        profile = SystemProfile(schedule, tuple(counts))
        improved = SizeProfile(schedule, tuple(sizes))
        started = time.perf_counter()
        compute_incremental_bounds(profile, improved)
        elapsed = time.perf_counter() - started
        rows.append((thresholds, answers, elapsed * 1000))
    result.add_table(
        "Runtime of the incremental bound computation (synthetic profiles)",
        ["thresholds", "|A1| final", "milliseconds"],
        rows,
    )
    result.notes.append(
        "the bound computation is linear in the schedule length and "
        "independent of |A|; all experimental cost lives in the matching "
        "substrate, which is the paper's point — the technique is cheap"
    )
    return result
