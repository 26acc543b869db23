"""Command-line front-end: ``repro-bounds`` (or ``python -m repro.cli``).

Subcommands
-----------
``list``
    Show every registered experiment (paper figures + ablations).
``figure <id>``
    Run one experiment and print its tables/plots.
``all``
    Run every experiment in order.
``demo``
    The quickstart: bounds for a beam improvement on a small workload.
``compare <spec> <spec>``
    Compare two improvements by their bounds alone — no judgments.  A
    spec is ``name`` or ``name:param=value[,param=value...]``, e.g.
    ``beam:beam_width=10`` or ``clustering:clusters_per_element=2``.
``evolve``
    Replay a churn-delta stream over the workload repository and
    re-match incrementally after every step (``--churn``/``--steps``
    control the grid, ``--matcher`` the system, ``--verify`` re-runs
    each step cold and checks byte-identity).
``snapshot <dir>``
    Match the workload's queries and persist repository + similarity
    substrate + retained results as a warm-start snapshot
    (``--matcher``/``--delta`` pick the system and threshold).
``serve [dir]``
    Run the asyncio :class:`~repro.matching.service.MatchingService`:
    warm-start from a snapshot directory when one exists (cold from the
    workload otherwise), replay the workload queries as concurrent
    requests, optionally apply live churn deltas (``--deltas``), verify
    byte-identity against the offline path (``--verify``) and write a
    checkpoint back to the directory.  ``--replicas N`` serves through
    a :class:`~repro.matching.replication.ReplicaGroup` (N replicas
    behind a replicated delta log); ``--remote-workers host:port,...``
    fans shard units out to socket workers; ``--status`` prints a
    per-wave operator health line (replica state, worker breakers).
``worker``
    Run one socket shard worker
    (:class:`~repro.matching.remote.WorkerServer`) until interrupted;
    coordinators reach it via ``serve --remote-workers`` or a
    :class:`~repro.matching.remote.RemoteShardExecutor`.
``save-collection <dir>`` / ``show-collection <dir>``
    Freeze the default workload's test collection to disk / summarise a
    frozen one.

``--small`` runs on the reduced workload (seconds instead of minutes on
slow machines); ``--seed`` reseeds workload generation.  ``--workers``
fans repository matching out over worker processes through the sharded
pipeline (``--shards`` overrides the shard count, default one per
worker); both default to serial, which produces identical output.  The
flags build one executor — the process pool, or the socket workers of
``serve --remote-workers`` — that :func:`main` hands to the subcommand
and shuts down when it returns; nothing outlives the call.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.errors import ReproError
from repro.evaluation.workloads import WorkloadConfig, small_config

__all__ = ["main", "build_parser"]


def _config_from_args(args: argparse.Namespace) -> WorkloadConfig | None:
    config = small_config() if args.small else WorkloadConfig()
    if args.seed is not None:
        config = replace(
            config, repository_seed=args.seed, query_seed=args.seed + 16
        )
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bounds",
        description=(
            "Effectiveness bounds for non-exhaustive schema matching systems "
            "(ICDE 2006 reproduction)"
        ),
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="use the reduced workload (fast demos, CI)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload generation seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for repository matching (default: serial; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="repository shards per matching batch (default: one per worker)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments")

    figure = sub.add_parser("figure", help="run one experiment")
    figure.add_argument("experiment_id", help="e.g. fig11 or abl-matchers")

    sub.add_parser("all", help="run every experiment")
    sub.add_parser("demo", help="quickstart bounds demo")

    compare = sub.add_parser(
        "compare", help="compare two improvements by bounds alone"
    )
    compare.add_argument("first", help="e.g. beam:beam_width=10")
    compare.add_argument("second", help="e.g. clustering:clusters_per_element=2")

    evolve = sub.add_parser(
        "evolve", help="replay a churn-delta stream with incremental re-matching"
    )
    evolve.add_argument(
        "--matcher",
        default="exhaustive",
        help="matcher spec, e.g. beam:beam_width=8 (default: exhaustive)",
    )
    evolve.add_argument(
        "--delta",
        type=float,
        default=0.3,
        help="matching threshold δmax (default: 0.3)",
    )
    evolve.add_argument(
        "--churn",
        default="0.05,0.10,0.25",
        help="comma-separated churn rates, each a fraction of schemas "
        "touched per step (default: 0.05,0.10,0.25)",
    )
    evolve.add_argument(
        "--steps",
        type=int,
        default=2,
        help="delta steps per churn rate (default: 2)",
    )
    evolve.add_argument(
        "--evolution-seed",
        type=int,
        default=97,
        help="seed for the churn-delta stream (default: 97)",
    )
    evolve.add_argument(
        "--verify",
        action="store_true",
        help="re-run every step cold and assert byte-identical answers",
    )

    snapshot = sub.add_parser(
        "snapshot", help="persist a warm-start snapshot of the workload"
    )
    snapshot.add_argument("directory", help="snapshot directory to write")
    snapshot.add_argument(
        "--matcher",
        default="exhaustive",
        help="matcher spec, e.g. beam:beam_width=8 (default: exhaustive)",
    )
    snapshot.add_argument(
        "--delta",
        type=float,
        default=0.3,
        help="matching threshold δmax (default: 0.3)",
    )

    serve = sub.add_parser(
        "serve", help="run the async matching service (warm- or cold-start)"
    )
    serve.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="snapshot directory: warm-start source and checkpoint target "
        "(omit for a cold in-memory run)",
    )
    serve.add_argument(
        "--matcher",
        default="exhaustive",
        help="matcher spec; must match the snapshot's (default: exhaustive)",
    )
    serve.add_argument(
        "--delta",
        type=float,
        default=0.3,
        help="matching threshold δmax (default: 0.3)",
    )
    serve.add_argument(
        "--deltas",
        type=int,
        default=0,
        help="churn deltas to apply live between request waves (default: 0)",
    )
    serve.add_argument(
        "--churn",
        type=float,
        default=0.1,
        help="churn rate of each live delta (default: 0.1)",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="times each workload query is submitted per wave (default: 2; "
        "repeats exercise retained-state serving)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most distinct queries per micro-batch (default: 32)",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="assert byte-identity of served answers against the offline "
        "batch_match path, after every wave",
    )

    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="serve through a ReplicaGroup of N warm-started replicas with "
        "a replicated delta log (default: 1 = single service)",
    )
    serve.add_argument(
        "--remote-workers",
        default=None,
        help="comma-separated socket worker addresses (host:port,...) to "
        "fan shard units out to, e.g. started with 'repro worker'; "
        "replaces --workers, one shard per worker unless --shards",
    )
    serve.add_argument(
        "--status",
        action="store_true",
        help="print one operator status line after every wave: each "
        "replica's current/stale/diverged state and, with "
        "--remote-workers, each worker's circuit-breaker state (see "
        "docs/distributed.md)",
    )

    worker = sub.add_parser(
        "worker", help="run one socket shard worker (see docs/distributed.md)"
    )
    worker.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = ephemeral; the bound port is "
        "printed on startup)",
    )
    worker.add_argument(
        "--op-timeout",
        type=float,
        default=None,
        help="seconds of mid-conversation silence before a hung peer's "
        "connection is dropped (default: unbounded; idle waits for a "
        "first byte are never bounded)",
    )

    save = sub.add_parser(
        "save-collection", help="freeze the workload's test collection"
    )
    save.add_argument("directory")

    show = sub.add_parser("show-collection", help="summarise a frozen collection")
    show.add_argument("directory")
    return parser


def _cmd_list() -> int:
    from repro.experiments import list_experiments

    for experiment_id, title in list_experiments():
        print(f"{experiment_id:16s} {title}")
    return 0


def _execution(args: argparse.Namespace) -> dict:
    """The ``executor``/``shards`` keywords every subcommand forwards.

    Validates ``--workers``/``--shards`` before any work runs and builds
    the one executor they name: the process pool for ``--workers``, the
    socket workers for ``serve --remote-workers`` (both together are
    refused), serial otherwise.
    """
    from repro.matching.executor import executor_for

    if args.shards is not None and args.shards < 1:
        raise ReproError(f"shards must be >= 1, got {args.shards!r}")
    remote_workers = getattr(args, "remote_workers", None)
    if not remote_workers:
        return {"executor": executor_for(args.workers), "shards": args.shards}
    if args.workers is not None:
        raise ReproError(
            "--workers and --remote-workers both name where matching runs; "
            "pass one"
        )
    from repro.matching.remote import RemoteShardExecutor

    addresses = [a.strip() for a in remote_workers.split(",") if a.strip()]
    return {"executor": RemoteShardExecutor(addresses), "shards": args.shards}


def _cmd_figure(
    experiment_id: str, config: WorkloadConfig | None, execution: dict
) -> int:
    from repro.experiments import run_experiment

    print(run_experiment(experiment_id, config, **execution).render())
    return 0


def _cmd_all(config: WorkloadConfig | None, execution: dict) -> int:
    from repro.experiments import list_experiments, run_experiment

    for experiment_id, _title in list_experiments():
        print(run_experiment(experiment_id, config, **execution).render())
        print()
    return 0


def _cmd_demo(config: WorkloadConfig | None, execution: dict) -> int:
    from repro.core.report import render_band_plot, summarize_guarantees
    from repro.evaluation import build_workload, run_system, validate_improvement
    from repro.matching import BeamMatcher, ExhaustiveMatcher

    workload = build_workload(config)
    original = run_system(
        ExhaustiveMatcher(workload.objective), workload.suite,
        workload.schedule, **execution,
    )
    improved = run_system(
        BeamMatcher(workload.objective, beam_width=10), workload.suite,
        workload.schedule, **execution,
    )
    validation = validate_improvement(original, improved)
    print(render_band_plot(validation.band, title="Demo: beam improvement band"))
    print()
    print(summarize_guarantees(validation.band))
    print()
    status = "contained" if validation.sound else "VIOLATED"
    print(f"actual (oracle-judged) curve: {status} in the band")
    return 0


def _parse_matcher_spec(spec: str) -> tuple[str, dict[str, int | float]]:
    """Parse ``name[:param=value,...]`` into a registry call."""
    name, _, params_part = spec.partition(":")
    params: dict[str, int | float] = {}
    if params_part:
        for pair in params_part.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key or not value:
                raise ReproError(
                    f"bad matcher spec {spec!r}; expected name:param=value,..."
                )
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ReproError(
                        f"parameter {key!r} of {spec!r} must be numeric"
                    ) from None
    return name, params


def _cmd_compare(
    first_spec: str,
    second_spec: str,
    config: WorkloadConfig | None,
    execution: dict,
) -> int:
    from repro.core.comparison import Verdict, compare_bounds, dominates
    from repro.core.report import render_comparison
    from repro.evaluation import build_workload, run_system, validate_improvement
    from repro.matching import ExhaustiveMatcher, make_matcher

    workload = build_workload(config)
    # One exhaustive baseline per objective *family*: backend variants
    # (bm25/dense/ensemble) match through a derived objective, and the
    # bounds precondition only holds against an exhaustive run over that
    # same objective.  Plain specs share the workload objective, so the
    # single-baseline behaviour is unchanged for them.
    originals: dict[str, object] = {}
    families = []
    validations = []
    for spec in (first_spec, second_spec):
        name, params = _parse_matcher_spec(spec)
        matcher = make_matcher(name, workload.objective, **params)
        family = matcher.objective.fingerprint()
        families.append(family)
        original = originals.get(family)
        if original is None:
            original = run_system(
                ExhaustiveMatcher(matcher.objective),
                workload.suite,
                workload.schedule,
                **execution,
            )
            originals[family] = original
        run = run_system(
            matcher, workload.suite, workload.schedule, **execution
        )
        validations.append(validate_improvement(original, run))
    if families[0] != families[1]:
        # the bounds technique never ranks across objectives: each spec
        # is validated against its own family's exhaustive baseline and
        # reported side by side, but no dominance verdict is possible
        print(
            "specs score through different objective families; bounds "
            "never rank across objectives, so each is validated against "
            "its own exhaustive baseline:"
        )
        for spec, validation in zip((first_spec, second_spec), validations):
            final = validation.bounds[len(validation.bounds) - 1]
            print(
                f"  {spec}: |A1|={final.original.answers} "
                f"|A2|={final.improved_answers}, final precision in "
                f"[{float(final.worst.precision_or(0)):.3f}, "
                f"{float(final.best.precision_or(1)):.3f}], band "
                f"{'sound' if validation.sound else 'NOT SOUND'}"
            )
        return 0
    comparisons = compare_bounds(validations[0].bounds, validations[1].bounds)
    print(render_comparison(comparisons, first_spec, second_spec))
    print()
    if dominates(validations[0].bounds, validations[1].bounds):
        print(f"{first_spec} provably dominates {second_spec} at every threshold")
    elif dominates(validations[1].bounds, validations[0].bounds):
        print(f"{second_spec} provably dominates {first_spec} at every threshold")
    else:
        undecided = sum(
            1 for c in comparisons if c.correct_verdict is Verdict.UNDECIDED
        )
        print(
            f"no all-threshold dominance; {undecided}/{len(comparisons)} "
            "thresholds undecided (judgments would be needed there)"
        )
    return 0


def _parse_churn_rates(text: str) -> tuple[float, ...]:
    """Parse the ``--churn`` comma list into a tuple of rates."""
    try:
        rates = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ReproError(
            f"bad churn list {text!r}; expected comma-separated numbers"
        ) from None
    if not rates:
        raise ReproError(f"churn list {text!r} names no rates")
    return rates


def _cmd_evolve(
    args: argparse.Namespace, config: WorkloadConfig | None, execution: dict
) -> int:
    from repro.evaluation import EvolutionConfig, build_evolution, build_workload
    from repro.matching import evolution_session
    from repro.util.tables import format_table

    name, params = _parse_matcher_spec(args.matcher)
    evolution = EvolutionConfig(
        churn_rates=_parse_churn_rates(args.churn),
        steps_per_rate=args.steps,
        seed=args.evolution_seed,
    )
    workload = build_workload(config)
    queries = [scenario.query for scenario in workload.suite.scenarios]
    steps = build_evolution(workload, evolution)
    session = evolution_session(
        name, workload.objective, queries, args.delta, params=params,
        **execution,
    )
    baseline = session.match(workload.repository)
    print(
        f"baseline: {len(workload.repository)} schemas, {len(queries)} "
        f"queries, δmax={args.delta}, matcher={args.matcher} "
        f"({baseline.stats.wall_seconds:.3f}s cold)"
    )
    rows = []
    for step in steps:
        result, report = session.rebase(step.repository, step.report)
        stats = result.rematch
        assert stats is not None
        verified = ""
        if args.verify:
            # the reference runs serially, whatever executor the session has
            cold = session.matcher.batch_match(
                queries, step.repository, args.delta
            )
            # answers() carries items, scores and order — the strongest
            # equality the AnswerSet type offers
            same = [a.answers() for a in cold] == [
                a.answers() for a in result.answer_sets
            ]
            if not same:
                raise ReproError(
                    f"step {step.index}: incremental answers differ from "
                    "cold re-match"
                )
            verified = "identical"
        rows.append(
            (
                step.index,
                step.churn,
                report.summary(),
                stats.pairs_reused,
                stats.pairs_skipped,
                stats.pairs_recomputed,
                "full" if stats.full_recompute else "incremental",
                f"{stats.wall_seconds:.3f}s",
                verified,
            )
        )
    headers = [
        "step", "churn", "delta", "reused", "skipped", "recomputed",
        "mode", "wall", "verify" if args.verify else "",
    ]
    print()
    print(format_table(headers, rows, title="evolution replay"))
    total_reused = sum(row[3] for row in rows)
    total_recomputed = sum(row[5] for row in rows)
    print(
        f"\n{len(steps)} steps: {total_reused} pair searches reused, "
        f"{total_recomputed} recomputed"
    )
    return 0


def _cmd_snapshot(
    args: argparse.Namespace, config: WorkloadConfig | None, execution: dict
) -> int:
    from repro.evaluation import build_workload
    from repro.matching import MatchingPipeline, make_matcher, save_snapshot

    name, params = _parse_matcher_spec(args.matcher)
    workload = build_workload(config)
    queries = [scenario.query for scenario in workload.suite.scenarios]
    matcher = make_matcher(name, workload.objective, **params)
    result = MatchingPipeline(matcher, **execution).run(
        queries, workload.repository, args.delta
    )
    # the matcher's objective, not the workload's: backend variants
    # (bm25/dense/ensemble) match through a derived objective with its
    # own substrate, and that is the state a restart must reload
    substrate = matcher.objective.substrate()
    store = save_snapshot(
        args.directory,
        workload.repository,
        queries=queries,
        result=result,
        substrate=substrate,
    )
    print(
        f"snapshot written to {store.root}: {len(workload.repository)} "
        f"schemas, {len(queries)} retained queries, "
        f"{substrate.kernel().rows_cached} kernel rows, "
        f"δmax={args.delta}, matcher={args.matcher} "
        f"({result.stats.wall_seconds:.3f}s to match cold)"
    )
    return 0


def _cmd_serve(
    args: argparse.Namespace, config: WorkloadConfig | None, execution: dict
) -> int:
    import asyncio
    from time import perf_counter

    from repro.evaluation import build_workload
    from repro.matching import MatchingService, canonical_answers, make_matcher
    from repro.schema import SnapshotStore, churn_delta
    from repro.util.tables import format_table

    if args.repeat < 1:
        raise ReproError(
            f"--repeat must be >= 1, got {args.repeat} (0 would issue no "
            "requests and make --verify vacuous)"
        )
    if args.deltas < 0:
        raise ReproError(f"--deltas must be >= 0, got {args.deltas}")
    if args.deltas and args.churn <= 0:
        raise ReproError(f"--churn must be > 0, got {args.churn}")
    if args.replicas < 1:
        raise ReproError(f"--replicas must be >= 1, got {args.replicas}")
    name, params = _parse_matcher_spec(args.matcher)
    workload = build_workload(config)
    queries = [scenario.query for scenario in workload.suite.scenarios]
    matcher = make_matcher(name, workload.objective, **params)
    store = SnapshotStore(args.directory) if args.directory else None
    if args.remote_workers:
        print(
            f"shard fan-out: {execution['executor'].width} remote socket "
            "workers"
        )

    async def run() -> list[tuple]:
        if args.replicas > 1:
            from repro.matching import replica_group

            front = replica_group(
                name, workload.objective, args.replicas, args.delta,
                params=params, store=store, max_batch=args.max_batch,
                **execution,
            )
            first = front.services[0]
        else:
            front = MatchingService(
                matcher, args.delta, store=store, max_batch=args.max_batch,
                **execution,
            )
            first = front
        started = perf_counter()
        if store is not None and store.exists():
            await front.start()  # warm start, loudly verified
        else:
            await front.start(workload.repository)
        start_seconds = perf_counter() - started
        mode = "warm" if first.stats.warm_start else "cold"
        kernel = first.matcher.objective.substrate().kernel()
        print(
            f"{mode} start in {start_seconds:.3f}s "
            f"({kernel.rows_migrated if kernel else 0} kernel rows restored), "
            f"matcher={args.matcher}, δmax={args.delta}, "
            f"replicas={args.replicas}"
        )

        async def wave(label: str) -> tuple:
            wave_started = perf_counter()
            requests = [
                front.match(query)
                for _ in range(args.repeat)
                for query in queries
            ]
            answers = await asyncio.gather(*requests)
            seconds = perf_counter() - wave_started
            verified = ""
            if args.verify:
                # the offline reference runs serially, in this process
                offline = matcher.batch_match(
                    queries, front.repository, args.delta
                )
                expected = canonical_answers(offline) * args.repeat
                if canonical_answers(answers) != expected:
                    raise ReproError(
                        f"wave {label!r}: served answers differ from the "
                        "offline batch_match path"
                    )
                if args.replicas > 1:
                    # every replica, same bytes — the group's acceptance
                    # property, checked replica by replica
                    for query, offline_answers in zip(queries, offline):
                        per_replica = await front.match_all(query)
                        if any(
                            canonical_answers([a])
                            != canonical_answers([offline_answers])
                            for a in per_replica
                        ):
                            raise ReproError(
                                f"wave {label!r}: replicas diverge on "
                                f"query {query.schema_id!r}"
                            )
                verified = "identical"
            if args.status:
                print(f"[{label}] {front.status()}")
            return (
                label,
                len(requests),
                sum(len(answers_) for answers_ in answers),
                f"{seconds:.3f}s",
                verified,
            )

        rows = [await wave("baseline")]
        for step in range(args.deltas):
            delta = churn_delta(front.repository, args.churn, seed=step)
            report = await front.apply_delta(delta)
            rows.append(await wave(f"delta {step} ({report.summary()})"))
        if store is not None:
            await front.checkpoint()
        await front.stop()

        print()
        print(
            format_table(
                ["wave", "requests", "answers", "wall",
                 "verify" if args.verify else ""],
                rows,
                title="serving waves",
            )
        )
        if args.replicas > 1:
            group_stats = front.stats
            services = front.services
            print(
                f"\n{group_stats.served} requests round-robined over "
                f"{len(services)} replicas "
                f"(per replica: {[s.stats.requests for s in services]}); "
                f"{group_stats.deltas_logged} deltas logged and "
                f"replicated ({group_stats.digest_checks} digest checks, "
                f"{group_stats.duplicates_ignored} duplicates, "
                f"{group_stats.gaps_buffered} gaps)"
            )
        else:
            stats = front.stats
            print(
                f"\n{stats.requests} requests: {stats.served_from_state} "
                f"from retained state, {stats.coalesced} coalesced, "
                f"{stats.batched_queries} matched in {stats.batches} "
                f"micro-batches; {stats.deltas_applied} live deltas, "
                f"{stats.checkpoints_written} checkpoints written"
            )
        if store is not None:
            print(f"checkpoint: {store.root} (next serve warm-starts from it)")
        return rows

    asyncio.run(run())
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.matching.remote import WorkerServer

    server = WorkerServer(args.host, args.port, op_timeout=args.op_timeout)
    host, port = server.address
    print(f"worker listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    stats = server.stats
    print(
        f"worker stopped: {stats.connections} connections, "
        f"{stats.installs} installs ({stats.installs_reused} reused), "
        f"{stats.units} units, {stats.errors} errors"
    )
    return 0


def _cmd_save_collection(directory: str, config: WorkloadConfig | None) -> int:
    from repro.evaluation import build_workload, save_collection

    workload = build_workload(config)
    path = save_collection(workload.suite, directory)
    print(
        f"saved {len(workload.repository)} schemas, {len(workload.suite)} "
        f"queries, |H| = {workload.relevant_size} to {path}"
    )
    return 0


def _cmd_show_collection(directory: str) -> int:
    from repro.evaluation import load_collection

    suite = load_collection(directory)
    stats = suite.repository.stats()
    print(f"repository : {int(stats['schemas'])} schemas, "
          f"{int(stats['elements'])} elements")
    print(f"queries    : {len(suite)}")
    print(f"|H| pooled : {suite.relevant_size}")
    for scenario in suite:
        print(
            f"  {scenario.query.schema_id}: {len(scenario.query)} elements, "
            f"|H| = {scenario.relevant_size}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    execution: dict = {}
    try:
        execution = _execution(args)
        if args.command == "list":
            return _cmd_list()
        if args.command == "figure":
            return _cmd_figure(args.experiment_id, config, execution)
        if args.command == "all":
            return _cmd_all(config, execution)
        if args.command == "demo":
            return _cmd_demo(config, execution)
        if args.command == "compare":
            return _cmd_compare(args.first, args.second, config, execution)
        if args.command == "evolve":
            return _cmd_evolve(args, config, execution)
        if args.command == "snapshot":
            return _cmd_snapshot(args, config, execution)
        if args.command == "serve":
            return _cmd_serve(args, config, execution)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "save-collection":
            return _cmd_save_collection(args.directory, config)
        if args.command == "show-collection":
            return _cmd_show_collection(args.directory)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if execution.get("executor") is not None:
            execution["executor"].shutdown()


if __name__ == "__main__":
    sys.exit(main())
