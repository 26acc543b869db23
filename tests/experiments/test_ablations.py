"""Behavioural tests for the ablation experiments (small workload)."""

import pytest

from repro.evaluation.workloads import small_config
from repro.experiments.harness import base_runs, run_experiment
from repro.matching.pipeline import default_cache

CONFIG = small_config()


class TestAblIncrements:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("abl-increments", CONFIG)

    def test_incremental_never_wider_than_naive(self, result):
        for row in result.tables[0].rows:
            _n, naive, incremental, gain = row
            assert incremental <= naive + 1e-12
            assert gain >= -1e-12

    def test_naive_width_constant_at_final_threshold(self, result):
        naives = {round(row[1], 12) for row in result.tables[0].rows}
        assert len(naives) == 1

    def test_incremental_tightens_with_granularity(self, result):
        widths = [row[2] for row in result.tables[0].rows]
        assert widths[-1] <= widths[0] + 1e-12


class TestAblHsize:
    def test_true_guess_is_lossless(self):
        result = run_experiment("abl-hsize", CONFIG)
        true_row = next(
            row for row in result.tables[0].rows if row[0] == "1.00x"
        )
        assert true_row[2] == 0.0  # mean |dP|
        assert true_row[3] == 0.0  # max |dP|

    def test_errors_stay_small(self):
        result = run_experiment("abl-hsize", CONFIG)
        for row in result.tables[0].rows:
            assert row[3] < 0.2  # rounding-level, not structural


class TestAblPooling:
    def test_pool_depth_increases_judged_h(self):
        result = run_experiment("abl-pooling", CONFIG)
        judged = [row[2] for row in result.tables[0].rows]
        assert judged == sorted(judged)

    def test_reference_table_contains_truth_inside_bounds(self):
        result = run_experiment("abl-pooling", CONFIG)
        (_h, true_p, _r, p_worst, p_best), = result.tables[1].rows
        assert p_worst - 1e-12 <= true_p <= p_best + 1e-12


class TestAblNoise:
    def test_zero_noise_has_zero_violations(self):
        result = run_experiment("abl-noise", CONFIG)
        clean = next(row for row in result.tables[0].rows if row[0] == 0.0)
        assert clean[3] == 0

    def test_noise_inflates_judged_h(self):
        result = run_experiment("abl-noise", CONFIG)
        rows = result.tables[0].rows
        assert rows[-1][1] > rows[0][1]


class TestAblScaling:
    def test_runtime_reported_for_each_size(self):
        result = run_experiment("abl-scaling", CONFIG)
        assert [row[0] for row in result.tables[0].rows] == [10, 100, 1000, 5000]

    def test_runtime_grows_subquadratically(self):
        result = run_experiment("abl-scaling", CONFIG)
        rows = result.tables[0].rows
        # 500x more thresholds should cost far less than 500^2 more time
        assert rows[-1][2] < rows[0][2] * 500 * 50


@pytest.mark.slow
class TestAblMatchers:
    def test_all_sweep_rows_contained(self):
        result = run_experiment("abl-matchers", CONFIG)
        for table in result.tables:
            for row in table.rows:
                assert row[-1] == "yes"

    def test_retention_monotone_in_parameter(self):
        result = run_experiment("abl-matchers", CONFIG)
        for table in result.tables:
            sizes = [row[2] for row in table.rows]
            assert sizes == sorted(sizes)

    def test_sweep_times_searches_not_cache_hits(self):
        """No timed row is served from the shared candidate cache.

        The base runs fill that cache for three of the swept settings,
        so a cached row would time lookups, not a search.
        """
        base_runs(CONFIG)  # the base runs' own lookups happen here
        hits = default_cache().stats.hits
        run_experiment("abl-matchers", CONFIG)
        assert default_cache().stats.hits == hits
