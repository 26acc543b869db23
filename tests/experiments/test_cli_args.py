"""CLI ``--workers``/``--shards`` validation and error paths.

The happy path (fanning a demo out over workers) is covered by the doc
examples; these tests pin down the failure modes: invalid counts must
exit with code 1 and a readable message, must not corrupt the
process-wide pipeline defaults, and non-numeric values must be rejected
by the parser itself.
"""

import pytest

from repro.cli import build_parser, main
from repro.matching import pipeline


@pytest.fixture(autouse=True)
def restore_pipeline_defaults():
    """Snapshot and restore module-wide defaults around every test."""
    defaults = pipeline.pipeline_defaults()
    snapshot = (defaults.workers, defaults.shards)
    yield
    pipeline.configure(workers=snapshot[0], shards=snapshot[1])


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

    def test_invalid_workers_leave_defaults_untouched(self):
        before = pipeline.pipeline_defaults().workers
        assert main(["--workers", "0", "list"]) == 1
        assert pipeline.pipeline_defaults().workers == before

    def test_invalid_shards_leave_defaults_untouched(self):
        before = pipeline.pipeline_defaults().shards
        assert main(["--shards", "-1", "list"]) == 1
        assert pipeline.pipeline_defaults().shards == before

    def test_configure_is_atomic_across_flags(self):
        """Valid --workers + invalid --shards must change *nothing*."""
        defaults = pipeline.pipeline_defaults()
        before = (defaults.workers, defaults.shards)
        assert main(["--workers", "4", "--shards", "0", "list"]) == 1
        defaults = pipeline.pipeline_defaults()
        assert (defaults.workers, defaults.shards) == before

    def test_valid_flags_configure_module_defaults(self, capsys):
        assert main(["--workers", "2", "--shards", "3", "list"]) == 0
        defaults = pipeline.pipeline_defaults()
        assert defaults.workers == 2
        assert defaults.shards == 3
        assert "fig08" in capsys.readouterr().out

    def test_shards_alone_keep_serial_workers(self, capsys):
        workers_before = pipeline.pipeline_defaults().workers
        assert main(["--shards", "4", "list"]) == 0
        defaults = pipeline.pipeline_defaults()
        assert defaults.workers == workers_before
        assert defaults.shards == 4


class TestShardedRun:
    def test_demo_runs_sharded_serial(self, capsys):
        """Serial but sharded: exercises the full pipeline path cheaply."""
        assert main(["--small", "--workers", "1", "--shards", "2", "demo"]) == 0
        assert "contained" in capsys.readouterr().out


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
