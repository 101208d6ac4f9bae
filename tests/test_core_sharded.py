"""Tests for ShardedDBLSH: partitioning, parity with the unsharded engine."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.data.generators import gaussian_mixture

COMMON = dict(
    c=1.5, l_spaces=5, k_per_space=10, t=64, seed=0, auto_initial_radius=True
)


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(2000, 20, n_clusters=8, seed=3)
    rng = np.random.default_rng(7)
    queries = data[rng.choice(2000, 12, replace=False)] + 0.05
    return data, queries


@pytest.fixture(scope="module")
def unsharded(workload):
    data, _ = workload
    return DBLSH(**COMMON).fit(data)


class TestParity:
    """Acceptance: shards=4 returns identical top-k sets to unsharded."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_topk_sets_match_unsharded(self, workload, unsharded, shards):
        data, queries = workload
        sharded = ShardedDBLSH(shards=shards, **COMMON).fit(data)
        for q in queries:
            expected = unsharded.query(q, k=10)
            got = sharded.query(q, k=10)
            assert set(got.ids) == set(expected.ids)
            assert got.distances == pytest.approx(expected.distances)

    def test_batch_matches_sequential(self, workload):
        data, queries = workload
        sharded = ShardedDBLSH(shards=4, **COMMON).fit(data)
        batch = sharded.query_batch(queries, k=10)
        singles = [sharded.query(q, k=10) for q in queries]
        assert [r.ids for r in batch] == [r.ids for r in singles]


class TestThreadBuild:
    """The one-thread-per-shard build is a plain fit of each slice."""

    def test_shards_have_flat_arrays_of_standalone_fits(self, workload):
        data, _ = workload
        sharded = ShardedDBLSH(shards=3, **COMMON).fit(data)
        bounds = sharded.shard_offsets + [data.shape[0]]
        for shard, lo, hi in zip(sharded.shard_indexes, bounds, bounds[1:]):
            alone = DBLSH(**sharded._shard_config()).fit(data[lo:hi])
            assert shard.num_points == alone.num_points
            assert shard._forest is not None and alone._forest is not None
            a, b = shard._forest.to_arrays(), alone._forest.to_arrays()
            assert set(a) == set(b)
            assert all(np.array_equal(a[key], b[key]) for key in a)

    def test_auto_initial_radius_matches_unsharded(self, workload, unsharded):
        data, _ = workload
        sharded = ShardedDBLSH(shards=3, **COMMON).fit(data)
        radii = {shard.initial_radius for shard in sharded.shard_indexes}
        assert radii == {sharded.initial_radius} == {unsharded.initial_radius}

    def test_add_after_fit_returns_new_id(self, workload):
        data, _ = workload
        sharded = ShardedDBLSH(shards=2, **COMMON).fit(data)
        isolated = data.mean(axis=0) + 500.0
        sharded.add(isolated[None, :])
        assert sharded.query(isolated, k=1).neighbors[0].id == data.shape[0]


class TestConcurrentCallers:
    """Per-thread scratch: concurrent ``query`` calls from caller threads
    answer exactly like one serial ``query_batch``."""

    def test_threads_match_serial_batch(self, workload, unsharded):
        data, queries = workload
        sharded = ShardedDBLSH(shards=2, **COMMON).fit(data)
        indexes = (unsharded, sharded)
        expected = [
            [(r.ids, r.distances) for r in index.query_batch(queries, k=10)]
            for index in indexes
        ]
        barrier = threading.Barrier(4, timeout=30)

        def caller(_):
            barrier.wait()
            return [
                [(r.ids, r.distances) for r in (index.query(q, k=10) for q in queries)]
                for index in indexes
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force thread switches mid-query
        try:
            with ThreadPoolExecutor(4) as pool:
                answers = list(pool.map(caller, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [expected] * 4


class TestBudgetSplit:
    """The budget does not split: every shard runs the full ``2tL + k``."""

    def test_full_budget_keeps_t(self, workload):
        data, _ = workload
        full = ShardedDBLSH(shards=4, **COMMON).fit(data)
        assert full.t == COMMON["t"]
        assert all(shard.t == COMMON["t"] for shard in full.shard_indexes)
        assert all(
            shard.params.budget(10) == full.params.budget(10)
            for shard in full.shard_indexes
        )

    def test_each_shard_verifies_up_to_the_full_budget(self, workload):
        data, queries = workload
        tiny = dict(COMMON, t=2)  # small enough that the budget stops
        sharded = ShardedDBLSH(shards=2, **tiny).fit(data)
        budget = sharded.params.budget(10)
        for shard in sharded.shard_indexes:
            counts = [
                r.stats.candidates_verified
                for r in shard.query_batch(queries, k=10)
            ]
            assert max(counts) <= budget
            assert budget in counts  # a shard may spend all of it

    def test_invalid_budget(self):
        # Every shard runs the full budget; there is no mode to select.
        with pytest.raises(TypeError, match="budget"):
            ShardedDBLSH(shards=2, budget="split")


class TestStructure:
    def test_partition_covers_dataset(self, workload):
        data, _ = workload
        sharded = ShardedDBLSH(shards=4, **COMMON).fit(data)
        sizes = [shard.num_points for shard in sharded.shard_indexes]
        assert sum(sizes) == data.shape[0] == sharded.num_points
        assert sharded.shard_offsets == [0] + list(np.cumsum(sizes)[:-1])
        np.testing.assert_array_equal(sharded.data, data)

    def test_global_ids_map_back_to_dataset_rows(self, workload):
        data, _ = workload
        sharded = ShardedDBLSH(shards=4, **COMMON).fit(data)
        result = sharded.query(data[1234], k=1)
        assert result.neighbors[0].id == 1234
        assert result.neighbors[0].distance == pytest.approx(0.0)

    def test_merged_stats_aggregate_work(self, workload):
        data, queries = workload
        sharded = ShardedDBLSH(shards=4, **COMMON).fit(data)
        stats = sharded.query(queries[0], k=10).stats
        assert stats.candidates_verified > 0
        assert stats.window_queries >= 4  # at least one window per shard
        assert stats.hash_evaluations == sharded.num_hash_functions
        assert stats.terminated_by

    def test_add_appends_to_last_shard(self, workload):
        data, _ = workload
        sharded = ShardedDBLSH(shards=3, **COMMON).fit(data)
        isolated = data.mean(axis=0) + 500.0
        sharded.add(isolated[None, :])
        assert sharded.num_points == data.shape[0] + 1
        result = sharded.query(isolated, k=1)
        assert result.neighbors[0].id == data.shape[0]

    def test_shards_share_projection_tensor(self, workload):
        data, _ = workload
        sharded = ShardedDBLSH(shards=3, **COMMON).fit(data)
        tensors = [shard._hasher.tensor for shard in sharded.shard_indexes]
        for tensor in tensors[1:]:
            np.testing.assert_array_equal(tensor, tensors[0])


class TestValidation:
    def test_invalid_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedDBLSH(shards=0)

    def test_shards_exceeding_points(self):
        with pytest.raises(ValueError, match="exceeds"):
            ShardedDBLSH(shards=10, l_spaces=2, k_per_space=4).fit(
                np.eye(4, dtype=np.float64)
            )

    def test_invalid_shared_knobs_rejected_eagerly(self):
        with pytest.raises(ValueError, match="approximation ratio"):
            ShardedDBLSH(shards=2, c=0.5)

    @pytest.mark.parametrize("value", [1e154, 1e300])
    def test_overflowing_inputs_rejected(self, workload, value):
        data, queries = workload
        sharded = ShardedDBLSH(shards=2, **COMMON).fit(data)
        with pytest.raises(ValueError, match="squared norm overflows"):
            sharded.query_batch(np.full((1, data.shape[1]), value), k=3)
        with pytest.raises(ValueError, match="squared norm overflows"):
            ShardedDBLSH(shards=2, **COMMON).fit(np.vstack([data, queries[:1] * value]))

    def test_query_requires_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            ShardedDBLSH(shards=2).query(np.zeros(3), k=1)
