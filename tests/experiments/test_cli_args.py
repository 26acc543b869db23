"""CLI ``--workers``/``--shards`` validation, error paths and execution.

Invalid counts must exit with code 1 and a readable message, and
non-numeric values must be rejected by the parser itself.  Valid flags
build one executor that the subcommand runs on — the pool reaches
``figure`` and ``serve`` with byte-identical output — and that nothing
in the process keeps after :func:`~repro.cli.main` returns.
"""

import re

import pytest

from repro.cli import build_parser, main
from repro.evaluation import build_workload
from repro.evaluation.workloads import small_config
from repro.matching import (
    ExhaustiveMatcher,
    ProcessPoolShardExecutor,
    SerialExecutor,
    WorkerServer,
)
from repro.matching import remote as remote_module


@pytest.fixture()
def transports(monkeypatch):
    """Records ``(transport, shard count)`` of every executor sweep."""
    sweeps: list[tuple[str, int]] = []
    for cls in (
        SerialExecutor,
        ProcessPoolShardExecutor,
        remote_module.RemoteShardExecutor,
    ):
        monkeypatch.setattr(cls, "execute", _spying(cls.execute, sweeps))
    return sweeps


def _spying(execute, sweeps):
    def spy(self, state, units, delta_max):
        units = list(units)
        sweeps.append(
            (self.name, len({unit.shard_index for unit in units}))
        )
        return execute(self, state, units, delta_max)

    return spy


class TestParsing:
    def test_workers_and_shards_parsed(self):
        args = build_parser().parse_args(
            ["--workers", "3", "--shards", "5", "list"]
        )
        assert args.workers == 3
        assert args.shards == 5

    def test_defaults_are_none(self):
        args = build_parser().parse_args(["list"])
        assert args.workers is None
        assert args.shards is None

    def test_non_numeric_workers_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--workers", "many", "list"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_non_numeric_shards_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--shards", "x", "list"])
        assert excinfo.value.code == 2


class TestValidation:
    def test_zero_workers_fails_cleanly(self, capsys):
        assert main(["--workers", "0", "list"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "workers must be >= 1" in err

    def test_negative_workers_fails_cleanly(self, capsys):
        assert main(["--workers", "-2", "list"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_zero_shards_fails_cleanly(self, capsys):
        assert main(["--shards", "0", "list"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "shards must be >= 1" in err

    def test_valid_workers_with_invalid_shards_fail_cleanly(self, capsys):
        assert main(["--workers", "4", "--shards", "0", "list"]) == 1
        assert "shards must be >= 1" in capsys.readouterr().err

    def test_valid_flags_are_accepted(self, capsys):
        assert main(["--workers", "2", "--shards", "3", "list"]) == 0
        assert "fig08" in capsys.readouterr().out

    def test_shards_alone_keep_serial_workers(self, capsys, transports):
        assert main(["--small", "--shards", "4", "demo"]) == 0
        assert "contained" in capsys.readouterr().out
        assert transports
        assert set(transports) == {("serial", 4)}

    def test_workers_and_remote_workers_refused(self, capsys):
        assert main(["--small", "--workers", "2", "serve",
                     "--remote-workers", "127.0.0.1:1"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--remote-workers" in err


class TestShardedRun:
    def test_demo_runs_sharded_serial(self, capsys):
        """Serial but sharded: exercises the full pipeline path cheaply."""
        assert main(["--small", "--workers", "1", "--shards", "2", "demo"]) == 0
        assert "contained" in capsys.readouterr().out

    def test_cli_workers_do_not_outlive_the_call(self, capsys, transports):
        """``--workers`` configures that call only: a later default
        ``batch_match`` in the same process runs serially."""
        assert main(["--small", "--workers", "2", "demo"]) == 0
        assert "contained" in capsys.readouterr().out
        assert {name for name, _ in transports} == {"pool"}
        transports.clear()

        workload = build_workload(small_config())
        queries = [scenario.query for scenario in workload.suite]
        ExhaustiveMatcher(workload.objective).batch_match(
            queries, workload.repository, 0.3
        )
        assert transports == [("serial", 1)]

    def test_figure_runs_on_the_pool(self, capsys, transports):
        argv = ["--small", "--seed", "41", "figure", "fig10"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert {name for name, _ in transports} == {"serial"}
        transports.clear()

        assert main(["--workers", "2", "--shards", "3", *argv]) == 0
        assert capsys.readouterr().out == serial
        assert transports
        assert set(transports) == {("pool", 3)}

    def test_serve_runs_on_the_pool(self, capsys, transports):
        argv = ["--small", "serve", "--deltas", "1", "--verify"]
        assert main(argv) == 0
        serial = _without_timings(capsys.readouterr().out)
        transports.clear()

        assert main(["--workers", "2", "--shards", "3", *argv]) == 0
        out = _without_timings(capsys.readouterr().out)
        assert out == serial
        assert "identical" in out
        assert ("pool", 3) in transports
        assert {name for name, _ in transports} <= {"pool", "serial"}

    def test_remote_serve_cuts_one_shard_per_worker(self, capsys, transports):
        workers = [WorkerServer().start() for _ in range(2)]
        addresses = ",".join(f"{host}:{port}" for host, port in (
            worker.address for worker in workers
        ))
        try:
            assert main(["--small", "serve", "--verify",
                         "--remote-workers", addresses]) == 0
        finally:
            for worker in workers:
                worker.stop()
        out = capsys.readouterr().out
        assert "shard fan-out: 2 remote socket workers" in out
        assert "identical" in out
        assert ("remote", 2) in transports
        assert all(worker.stats.units for worker in workers)


def _without_timings(text: str) -> str:
    """CLI output with its wall-clock figures blanked out."""
    return re.sub(r"\d+\.\d+s", "<t>", text)


class TestMatcherSpecs:
    """``--matcher`` spec parsing and validation, including the backend
    variants (``bm25``/``dense``/``ensemble``) the registry carries."""

    def test_variant_specs_parse(self):
        from repro.cli import _parse_matcher_spec

        assert _parse_matcher_spec("bm25:k1=1.2,b=0.5") == (
            "bm25",
            {"k1": 1.2, "b": 0.5},
        )
        assert _parse_matcher_spec("dense:dim=64,n=2") == (
            "dense",
            {"dim": 64, "n": 2},
        )
        assert _parse_matcher_spec("ensemble:lexical=0.4,bm25=0.4,dense=0.2") == (
            "ensemble",
            {"lexical": 0.4, "bm25": 0.4, "dense": 0.2},
        )

    def test_unknown_matcher_lists_variants(self, capsys, tmp_path):
        assert main(["--small", "snapshot", str(tmp_path / "s"),
                     "--matcher", "magic"]) == 1
        err = capsys.readouterr().err
        assert "available:" in err
        for name in ("bm25", "dense", "ensemble"):
            assert name in err

    def test_non_numeric_matcher_param_fails_cleanly(self, capsys, tmp_path):
        assert main(["--small", "snapshot", str(tmp_path / "s"),
                     "--matcher", "bm25:k1=high"]) == 1
        assert "must be numeric" in capsys.readouterr().err

    def test_compare_across_families_reports_both_bands(self, capsys):
        """Bounds never rank across objectives: comparing a backend
        variant with a plain improvement must validate each against its
        own family's exhaustive baseline and skip the dominance verdict."""
        assert main(["--small", "compare", "bm25:k1=1.2",
                     "beam:beam_width=8"]) == 0
        out = capsys.readouterr().out
        assert "different objective families" in out
        assert "bm25:k1=1.2" in out
        assert "beam:beam_width=8" in out
        assert out.count("band sound") == 2
        assert "dominates" not in out

    def test_snapshot_persists_backend_variant_substrate(self, capsys, tmp_path):
        """A variant snapshot must hold the *derived* objective's state:
        an identically configured variant warm-loads it, and the base
        (lexical) matcher refuses it instead of serving foreign scores."""
        from repro.errors import SnapshotError
        from repro.evaluation import build_workload
        from repro.evaluation.workloads import small_config
        from repro.matching import load_snapshot, make_matcher

        directory = tmp_path / "snap"
        assert main(["--small", "snapshot", str(directory),
                     "--matcher", "bm25:k1=1.2"]) == 0
        assert "snapshot written" in capsys.readouterr().out

        workload = build_workload(small_config())
        snapshot = load_snapshot(
            directory, make_matcher("bm25", workload.objective, k1=1.2)
        )
        assert snapshot.result is not None
        with pytest.raises(SnapshotError):
            load_snapshot(
                directory, make_matcher("exhaustive", workload.objective)
            )


class TestServeValidation:
    """``serve`` rejects degenerate traffic shapes instead of reporting
    vacuous success (``--repeat 0`` would make ``--verify`` a no-op)."""

    def test_zero_repeat_fails_cleanly(self, capsys, tmp_path):
        assert main(["--small", "serve", str(tmp_path / "s"),
                     "--repeat", "0"]) == 1
        assert "--repeat must be >= 1" in capsys.readouterr().err

    def test_negative_deltas_fails_cleanly(self, capsys):
        assert main(["--small", "serve", "--deltas", "-1"]) == 1
        assert "--deltas must be >= 0" in capsys.readouterr().err

    def test_nonpositive_churn_fails_cleanly(self, capsys):
        assert main(["--small", "serve", "--deltas", "1",
                     "--churn", "0"]) == 1
        assert "--churn must be > 0" in capsys.readouterr().err

    def test_invalid_max_batch_fails_cleanly(self, capsys):
        assert main(["--small", "serve", "--max-batch", "0"]) == 1
        assert "max_batch must be >= 1" in capsys.readouterr().err
