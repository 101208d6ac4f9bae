"""Tests for metrics (Eq. 11/12), the runner, and table rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DBLSH
from repro.baselines import LinearScan
from repro.data.generators import gaussian_mixture
from repro.eval.metrics import overall_ratio, recall
from repro.eval.report import format_series, format_table
from repro.eval.runner import evaluate_method, run_comparison


class TestOverallRatio:
    def test_perfect_answer(self):
        assert overall_ratio([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_eq11_weighting(self):
        # (1/k) * sum d_i / d*_i = (2/1 + 3/2) / 2 = 1.75
        assert overall_ratio([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.75)

    def test_short_result_uses_prefix(self):
        # Only position 0 is compared; missing positions are recall's job.
        assert overall_ratio([2.0], [1.0, 10.0]) == pytest.approx(2.0)

    def test_empty_result_is_inf(self):
        assert overall_ratio([], [1.0]) == float("inf")

    def test_long_result_truncated(self):
        assert overall_ratio([1.0, 2.0, 99.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_zero_true_distance_matched(self):
        assert overall_ratio([0.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_zero_true_distance_missed_is_skipped(self):
        # d* = 0 with d > 0 would be infinite; the term is dropped instead.
        assert overall_ratio([1.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_ratio_never_below_one_for_valid_input(self):
        # Returned distances of a correct method dominate the exact ones.
        got = [1.1, 2.2, 3.3]
        true = [1.0, 2.0, 3.0]
        assert overall_ratio(got, true) >= 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            overall_ratio([1.0], [])


class TestRecall:
    def test_full(self):
        assert recall([1, 2, 3], [3, 2, 1]) == 1.0

    def test_partial(self):
        assert recall([1, 9, 8], [1, 2, 3]) == pytest.approx(1 / 3)

    def test_empty_returned(self):
        assert recall([], [1, 2]) == 0.0

    def test_short_returned_penalised(self):
        assert recall([1], [1, 2]) == pytest.approx(0.5)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            recall([1], [])


class TestRunner:
    @pytest.fixture
    def workload(self):
        data = gaussian_mixture(400, 16, n_clusters=6, seed=0)
        rng = np.random.default_rng(1)
        queries = data[rng.choice(400, 5, replace=False)] + 0.05
        return data, queries

    def test_linear_scan_is_perfect(self, workload):
        data, queries = workload
        result = evaluate_method(LinearScan(), data, queries, k=5, dataset_name="w")
        assert result.recall == pytest.approx(1.0)
        assert result.ratio == pytest.approx(1.0)
        assert result.method == "LinearScan"
        assert result.n == 400 and result.dim == 16
        assert result.candidates_per_query == pytest.approx(400.0)

    def test_row_shape(self, workload):
        data, queries = workload
        result = evaluate_method(LinearScan(), data, queries, k=3)
        row = result.row()
        assert set(row) >= {"method", "query_ms", "ratio", "recall", "build_s"}

    def test_invalid_k(self, workload):
        data, queries = workload
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate_method(LinearScan(), data, queries, k=0)

    def test_prefitted_method(self, workload):
        data, queries = workload
        method = LinearScan().fit(data)
        result = evaluate_method(method, data, queries, k=3, fit=False)
        assert result.recall == pytest.approx(1.0)

    def test_run_comparison_shares_ground_truth(self, workload):
        data, queries = workload
        methods = [
            LinearScan(),
            DBLSH(l_spaces=3, k_per_space=4, seed=0, auto_initial_radius=True),
        ]
        results = run_comparison(methods, data, queries, k=5, dataset_name="cmp")
        assert [r.method for r in results] == ["LinearScan", "DBLSH"]
        assert all(r.dataset == "cmp" for r in results)
        assert results[1].recall > 0.3  # LSH finds most near-duplicates


class TestMutableWorkload:
    def test_trajectory_tracks_the_live_point_set(self, tmp_path):
        from repro.eval.runner import evaluate_mutable_workload
        from repro.io import save_index
        from repro.serve import MutableSnapshotServer

        rng = np.random.default_rng(5)
        data = gaussian_mixture(300, 8, n_clusters=3, seed=5)
        inserts = data[rng.choice(300, 60, replace=False)] + rng.normal(
            scale=0.01, size=(60, 8)
        )
        queries = data[rng.choice(300, 6, replace=False)] + 0.01
        path = str(tmp_path / "snap.npz")
        save_index(
            DBLSH(c=1.5, l_spaces=3, k_per_space=6, t=16, seed=0,
                  auto_initial_radius=True).fit(data),
            path,
        )
        server = MutableSnapshotServer(path, compact_threshold=0)
        server.start()
        try:
            trajectory = evaluate_mutable_workload(
                server, data, inserts, queries, k=5,
                phases=3, delete_fraction=0.5, mutation_clients=4, seed=1,
            )
        finally:
            server.close()
        assert len(trajectory) == 3
        assert sum(p.inserts for p in trajectory) == 60
        # live_points follows base + cumulative inserts - deletes exactly.
        running = 300
        for p in trajectory:
            running += p.inserts - p.deletes
            assert p.live_points == running
            assert p.deletes == p.inserts // 2
            assert p.mutation_qps > 0 and p.query_time_ms > 0
            # Queries sit on live points; the delta sweep is exact, so
            # the mutated index keeps finding most of them.
            assert p.recall > 0.3
            assert np.isfinite(p.ratio) and p.ratio >= 1.0 - 1e-6
        # compact_threshold=0 disables compaction: the WAL only grows.
        assert trajectory[-1].wal_bytes > trajectory[0].wal_bytes
        assert all(p.compactions == 0 for p in trajectory)
        row = trajectory[0].row()
        assert set(row) >= {"phase", "inserts", "deletes", "live",
                            "mut_qps", "recall", "wal_bytes", "trigger"}

    def test_parameter_validation(self, tmp_path):
        from repro.eval.runner import evaluate_mutable_workload

        data = np.zeros((4, 3))
        with pytest.raises(ValueError, match="phases"):
            evaluate_mutable_workload(None, data, data, data, 1, phases=0)
        with pytest.raises(ValueError, match="delete_fraction"):
            evaluate_mutable_workload(None, data, data, data, 1,
                                      delete_fraction=1.5)
        with pytest.raises(ValueError, match="mutation_clients"):
            evaluate_mutable_workload(None, data, data, data, 1,
                                      mutation_clients=0)


class TestReport:
    def test_format_table_basic(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        assert "T" in text
        lines = text.splitlines()
        assert len(lines) == 6  # title, rule, header, separator, 2 rows

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_missing_cells_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = format_table(rows, columns=["a", "b"])
        assert "3" in text

    def test_format_series(self):
        text = format_series("n", [1, 2], {"m1": [0.1, 0.2], "m2": [0.3, 0.4]})
        assert "n" in text and "m1" in text and "0.4" in text
