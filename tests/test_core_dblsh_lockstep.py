"""Edge cases of the lockstep round loop (``DBLSH._search``).

Every query path runs through one loop that advances a block of up to
16 queries one radius round at a time.  Its contract: a query's answer
and its work counters do not depend on which other queries share its
block.  Each case below compares query blocks of several sizes against
one-at-a-time :meth:`DBLSH.query` calls, bit for bit, on ids, distances
and every ``QueryStats`` counter except ``elapsed_seconds``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.core import dblsh as dblsh_module
from repro.data.generators import gaussian_mixture

BLOCK = dblsh_module._BLOCK


def _counters(result):
    stats = dataclasses.asdict(result.stats)
    stats.pop("elapsed_seconds")
    return stats


def _assert_identical(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.ids == b.ids
        assert a.distances == b.distances  # bitwise
        assert _counters(a) == _counters(b)


def _in_blocks(index, queries, k, size):
    out = []
    for start in range(0, queries.shape[0], size):
        out.extend(index.query_batch(queries[start : start + size], k=k))
    return out


def _check_every_block_size(index, queries, k):
    one_at_a_time = [index.query(q, k=k) for q in queries]
    for size in (1, 3, queries.shape[0]):
        _assert_identical(_in_blocks(index, queries, k, size), one_at_a_time)
    return one_at_a_time


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(1200, 16, n_clusters=6, cluster_std=1.0,
                            center_spread=8.0, seed=3)
    rng = np.random.default_rng(5)
    # More queries than one lockstep block, so the last block is partial.
    m = BLOCK + 7
    queries = data[rng.choice(1200, m, replace=False)] + 0.1 * rng.standard_normal((m, 16))
    return data, queries


COMMON = dict(l_spaces=4, k_per_space=6, t=24, seed=2, auto_initial_radius=True)


class TestBlockInvariance:
    @pytest.mark.parametrize("backend", ["rstar", "kdtree", "grid", "rstar-insert"])
    def test_blocks_of_one_three_and_all(self, workload, backend):
        data, queries = workload
        index = DBLSH(backend=backend, **COMMON).fit(data)
        results = _check_every_block_size(index, queries, k=10)
        if backend == "rstar":
            assert all(r.stats.index_node_visits > 0 for r in results)

    def test_budget_truncation_and_patience(self, workload):
        # Tiny budgets make answers depend on candidate order.
        data, queries = workload
        for extra in (dict(t=2), dict(t=400, patience=7)):
            index = DBLSH(**dict(COMMON, **extra)).fit(data)
            _check_every_block_size(index, queries, k=8)

    def test_sharded_entry_points_agree(self, workload):
        data, queries = workload
        index = ShardedDBLSH(shards=3, **COMMON).fit(data)
        one_at_a_time = [index.query(q, k=10) for q in queries]
        for size in (1, 3, queries.shape[0]):
            _assert_identical(_in_blocks(index, queries, 10, size), one_at_a_time)

    def test_range_query_is_one_round(self, workload):
        data, queries = workload
        index = DBLSH(**COMMON).fit(data)
        for q in queries[:5]:
            result = index.range_query(q, radius=2.0, k=5)
            assert result.stats.rounds == 1
            assert result.stats.window_queries <= index.params.l_spaces
            assert all(d <= index.params.c * 2.0 for d in result.distances) or (
                result.stats.terminated_by == "budget"
            )


class TestEdgeCases:
    def test_every_row_deleted(self, workload):
        data, queries = workload
        index = DBLSH(**COMMON).fit(data)
        index.delete(np.arange(data.shape[0]))
        results = _check_every_block_size(index, queries, k=5)
        assert all(r.ids == [] for r in results)
        assert all(r.stats.candidates_verified == 0 for r in results)
        assert {r.stats.terminated_by for r in results} == {"exhausted"}

    def test_k_larger_than_live_count(self, workload):
        data, queries = workload
        index = DBLSH(**dict(COMMON, t=2000)).fit(data)
        live = np.arange(0, data.shape[0], 97)  # 13 live rows
        index.delete(np.setdiff1d(np.arange(data.shape[0]), live))
        results = _check_every_block_size(index, queries, k=40)
        for r in results:
            assert sorted(r.ids) == live.tolist()
            assert r.stats.terminated_by == "exhausted"

    def test_duplicate_points_in_one_block(self, workload):
        data, queries = workload
        dup = np.concatenate([data, data[:50], data[:50]])  # rows 0..49 thrice
        index = DBLSH(**COMMON).fit(dup)
        block = np.concatenate([queries[:4], data[:3], data[:3], queries[:4]])
        results = _check_every_block_size(index, block, k=6)
        for r in results[4:10]:
            assert r.distances[:3] == [0.0, 0.0, 0.0]
        _assert_identical(results[:4], results[10:])

    def test_round_one_stop_and_exhaustion_in_one_block(self):
        # A tight cluster answers its own query in round 1; a query far
        # from a sparse background never meets the radius stop before a
        # window covers every point, so it runs to exhaustion.
        rng = np.random.default_rng(0)
        cluster = 0.01 * rng.standard_normal((12, 8))
        background = 40.0 + rng.standard_normal((40, 8))
        data = np.concatenate([cluster, background])
        index = DBLSH(l_spaces=3, k_per_space=3, t=100, seed=1,
                      initial_radius=1.0).fit(data)
        near = np.zeros(8)
        far = np.full(8, -400.0)
        block = np.stack([near, far, near, far])
        results = _check_every_block_size(index, block, k=5)
        assert results[0].stats.terminated_by == "radius"
        assert results[0].stats.rounds == 1
        assert results[1].stats.terminated_by == "exhausted"
        assert results[1].stats.rounds > 1
