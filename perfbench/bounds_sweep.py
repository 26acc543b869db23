"""bounds-sweep: the paper's evaluation, closed loop, one client, in-process.

One op runs ``run_system`` for S1 (exhaustive) and for the harness's
three S2s (beam 40, clustering 3, top-k 6) at the schedule's final
δ = 0.40, candidate cache off, then ``validate_improvement`` for each
S2.  The workload is the config of ``tools/profile_hotpath.py
--schemas 260`` (schema sizes, ten 5-element queries) over 100 schemas:
at 260 an op took 2-3 s, so a run held eight or nine ops and its median
moved with every slow one; at 100 an op takes about 1 s on the same
hot path.  Set-up builds the workload and runs one cold evaluation
(clustering's ``prepare`` dominates it); after set-up every score
matrix is a substrate hit.

Every op starts from an empty young generation (``gc.collect()`` outside
the timed window), so each op runs the same collections: left to chance,
a 260-schema op ran 4-6 generation-2 collections of ~110 ms each.  Each op is read
at reference speed by the in-op ticks of :class:`harness.SpeedSampler`.

The seed permutes the order the suite presents its queries in and the
order the three S2s run in.  Both leave the work of an op unchanged:
the repository, queries and thresholds stay the fixed config, whose
op cost would otherwise swing several-fold from seed to seed.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
from time import monotonic

from repro.evaluation import build_workload, validation
from repro.evaluation.scenario import ScenarioSuite
from repro.evaluation.workloads import WorkloadConfig
from repro.experiments.harness import (
    S2_EXTRA_TOPK,
    S2_ONE_BEAM_WIDTH,
    S2_TWO_CLUSTERS_PER_ELEMENT,
)
from repro.matching import (
    BeamMatcher,
    ClusteringMatcher,
    ExhaustiveMatcher,
    TopKCandidateMatcher,
)

from harness import (
    BenchmarkError,
    HostProbe,
    SpeedSampler,
    peak_rss_mb,
    timed_setups,
)

#: the config of ``tools/profile_hotpath.py --schemas 260`` (fanout-sweep's)
CONFIG = WorkloadConfig(
    num_schemas=260,
    min_schema_size=10,
    max_schema_size=24,
    num_queries=10,
    query_size=5,
)
#: one evaluation's workload: CONFIG over 100 schemas
EVAL_CONFIG = dataclasses.replace(CONFIG, num_schemas=100)
SETUPS = 2


class State:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        workload = build_workload(EVAL_CONFIG)
        scenarios = list(workload.suite.scenarios)
        rng.shuffle(scenarios)
        self.suite = ScenarioSuite(workload.repository, scenarios)
        self.schedule = workload.schedule
        objective = workload.objective
        self.original = ExhaustiveMatcher(objective)
        self.improvements = [
            BeamMatcher(objective, beam_width=S2_ONE_BEAM_WIDTH),
            ClusteringMatcher(
                objective, clusters_per_element=S2_TWO_CLUSTERS_PER_ELEMENT
            ),
            TopKCandidateMatcher(
                objective, candidates_per_element=S2_EXTRA_TOPK
            ),
        ]
        rng.shuffle(self.improvements)
        self.reference = fingerprint(self.evaluate()[0])

    def run(self, matcher):
        return validation.run_system(
            matcher, self.suite, self.schedule, workers=1, cache=False
        )

    def evaluate(self):
        """One op: (outputs, monotonic stamp when S1 finished)."""
        original = self.run(self.original)
        s1_done = monotonic()
        runs = [self.run(matcher) for matcher in self.improvements]
        checks = [
            validation.validate_improvement(original, run) for run in runs
        ]
        return (original, runs, checks), s1_done


def fingerprint(outputs) -> str:
    """Every count the bounds consume, plus the bounds themselves."""
    original, runs, checks = outputs
    return repr((
        original.profile.counts,
        sorted(
            (run.name, run.sizes.sizes, run.profile.counts,
             check.bounds.entries)
            for run, check in zip(runs, checks)
        ),
    ))


def check(state: State, outputs) -> None:
    _original, runs, checks = outputs
    if fingerprint(outputs) != state.reference:
        raise BenchmarkError("bound counts differ from the set-up reference")
    unsound = [run.name for run, c in zip(runs, checks) if not c.sound]
    if unsound:
        raise BenchmarkError(f"bounds not sound for {unsound}")


def run(seed: int, seconds: float, tracer=None) -> dict:
    probe = HostProbe()
    sampler = SpeedSampler()
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    setup_seconds, state = timed_setups(
        sampler, lambda: State(seed), SETUPS
    )
    if tracer is not None:
        tracer.uninstall()
    samples = {"eval_ms": [], "s1_ms": [], "s2_ms": []}
    raw_eval: list[float] = []
    traced_eval: list[float] = []
    untraced_eval: list[float] = []
    ops: list[tuple[str, float]] = []
    errors: list[str] = []
    attempted = failed = 0
    deadline = monotonic() + seconds
    while monotonic() < deadline or not samples["eval_ms"]:
        traced = tracer is not None and attempted % 2 == 1
        probe.run()  # idle guard
        gc.collect()
        attempted += 1
        op_id = f"op{attempted}"
        if traced:
            tracer.install()
            tracer.op = op_id
        try:
            with sampler:
                started = monotonic()
                outputs, s1_done = state.evaluate()
                finished = monotonic()
        except Exception as exc:
            failed += 1
            errors.append(f"{op_id}: {type(exc).__name__}: {exc}")
            if failed > 3:
                break
            continue
        finally:
            if traced:
                tracer.op = None
                tracer.uninstall()
        try:
            check(state, outputs)
        except BenchmarkError as exc:
            errors.append(f"{op_id}: {exc}")
        del outputs
        eval_ms = sampler.adjusted_ms(started, finished)
        raw_eval.append((finished - started) * 1e3)
        samples["eval_ms"].append(eval_ms)
        samples["s1_ms"].append(sampler.adjusted_ms(started, s1_done))
        samples["s2_ms"].append(sampler.adjusted_ms(s1_done, finished))
        if tracer is not None:
            (traced_eval if traced else untraced_eval).append(eval_ms)
            if traced:
                ops.append((op_id, finished - started))
    if not raw_eval:
        raise BenchmarkError(f"no evaluation completed: {errors}")
    count = len(raw_eval)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "e2e": {
            "setup_s": (
                statistics.median(setup_seconds), "s", len(setup_seconds)
            ),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            **{
                name: (statistics.median(values), "ms", count)
                for name, values in samples.items()
            },
        },
        "raw": {
            "eval_ms": statistics.median(raw_eval),
            "probe_ms": statistics.median(probe.samples),
            "tick_ms": sampler.tick_ms(),
            "setup_s": setup_seconds,
        },
        "probe": probe,
        "traced_ops": ops,
        "overhead": (traced_eval, untraced_eval),
    }
