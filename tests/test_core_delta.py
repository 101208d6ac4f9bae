"""Delta-buffer mutation parity (repro.core.delta, repro.core.plan).

The headline contract: an index mutated in place — inserts landing in
the delta buffer, deletes landing in tombstones — answers queries
exactly like an index refit from scratch on the surviving rows (ids
mapped through the survivor list).  Randomized insert/delete sequences
pin it at n=1k in tier-1 and n=10k in the slow tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DBLSH
from repro.core import delta as delta_module
from repro.core.delta import DeltaIndex
from repro.core.plan import merge_live_batches, merge_live_results
from repro.core.result import Neighbor, QueryResult, QueryStats
from repro.data.generators import gaussian_mixture

PARAMS = dict(
    c=1.5, l_spaces=4, k_per_space=8, t=64, seed=0, auto_initial_radius=True
)


def _mutate_and_refit(n, n_insert, n_delete, k, seed):
    """Apply a random mutation sequence two ways and compare answers.

    Way one: fit on the base rows, ``add`` the inserts (delta path),
    ``delete`` a random id set.  Way two: refit from scratch on exactly
    the surviving rows.  Both answer the same queries; the refit's ids
    are mapped back through the survivor list before comparing.
    """
    rng = np.random.default_rng(seed)
    data = gaussian_mixture(n, 16, n_clusters=8, seed=seed)
    extra = gaussian_mixture(n_insert, 16, n_clusters=8, seed=seed + 1)
    queries = data[rng.choice(n, 12, replace=False)] + 0.05

    live = DBLSH(**PARAMS).fit(data)
    # Interleave: delete some base rows, insert, delete across both.
    first_deletes = rng.choice(n, n_delete // 2, replace=False)
    live.delete(first_deletes)
    live.add(extra)
    assert live.num_pending == n_insert  # inserts took the delta path
    rest = rng.choice(n + n_insert, n_delete - n_delete // 2, replace=False)
    live.delete(rest)

    tombs = set(int(t) for t in first_deletes) | set(int(t) for t in rest)
    everything = np.vstack([data, extra])
    survivors = np.array(
        [i for i in range(n + n_insert) if i not in tombs], dtype=np.int64
    )
    refit = DBLSH(**PARAMS).fit(everything[survivors])

    for q in queries:
        got = live.query(q, k=k)
        want = refit.query(q, k=k)
        want_ids = [int(survivors[i]) for i in want.ids]
        assert got.ids == want_ids, (got.ids, want_ids)
        assert got.distances == pytest.approx(want.distances)
        assert not (set(got.ids) & tombs)
    return live


class TestDeltaRefitParity:
    def test_parity_1k(self):
        _mutate_and_refit(n=1000, n_insert=60, n_delete=40, k=10, seed=3)

    def test_parity_1k_other_sequence(self):
        _mutate_and_refit(n=1000, n_insert=25, n_delete=80, k=5, seed=17)

    def test_parity_10k(self):
        _mutate_and_refit(n=10_000, n_insert=300, n_delete=250, k=10, seed=7)

    def test_compaction_preserves_answers(self):
        live = _mutate_and_refit(n=1000, n_insert=40, n_delete=30, k=10, seed=5)
        rng = np.random.default_rng(9)
        queries = live.data[rng.choice(live.num_points, 8, replace=False)] + 0.03
        before = [live.query(q, k=10) for q in queries]
        assert live.compact() is True
        assert live.num_pending == 0
        for q, want in zip(queries, before):
            got = live.query(q, k=10)
            assert got.ids == want.ids
            assert got.distances == pytest.approx(want.distances)

    def test_batch_matches_single(self):
        data = gaussian_mixture(800, 16, n_clusters=6, seed=2)
        live = DBLSH(**PARAMS).fit(data)
        live.add(data[:10] + 40.0)
        live.delete(np.arange(5))
        queries = data[20:26] + 0.05
        batch = live.query_batch(queries, k=6)
        assert [r.ids for r in batch] == [live.query(q, k=6).ids for q in queries]


class TestDeltaIndex:
    def test_sweep_is_exact_topk(self, rng):
        points = rng.standard_normal((40, 8))
        delta = DeltaIndex(8)
        delta.extend(1000 + np.arange(40), points)
        queries = rng.standard_normal((5, 8))
        results = delta.view().sweep(queries, k=7)
        for q, result in zip(queries, results):
            exact = np.linalg.norm(points - q, axis=1)
            order = np.lexsort((1000 + np.arange(40), exact))[:7]
            assert result.ids == [1000 + int(i) for i in order]
            assert result.distances == pytest.approx(
                [float(exact[i]) for i in order]
            )
            assert result.stats.distance_computations == 40

    def test_extend_norms_match_the_rows(self, rng, monkeypatch):
        monkeypatch.setattr(delta_module, "_CAPACITY", 2)
        points = rng.standard_normal((7, 5))
        delta = DeltaIndex(5)
        delta.extend([3, 4, 5], points[:3])
        delta.extend(np.arange(6, 10), points[3:])
        view = delta.view()
        assert list(view.ids) == list(range(3, 10))
        np.testing.assert_array_equal(view.points, points)
        np.testing.assert_allclose(view.norms2, (points ** 2).sum(axis=1))

    def test_sweep_excludes_tombstones(self, rng):
        delta = DeltaIndex(4)
        delta.extend(np.arange(6), np.repeat(np.arange(6.0)[:, None], 4, axis=1))
        # Tombstones of rows outside the buffer are ignored by the sweep.
        assert delta.delete([2, 0, 99]) == 3
        results = delta.view().sweep(np.zeros((1, 4)), k=6)
        assert results[0].ids == [1, 3, 4, 5]
        assert results[0].stats.distance_computations == 4

    def test_delete_counts_new_ids_only(self):
        delta = DeltaIndex(2)
        assert delta.delete([]) == 0
        assert delta.delete(np.array([7, 3, 7, 3, 11])) == 3
        assert delta.delete([3, 11]) == 0
        assert delta.delete([11, 5, 5, 1]) == 2
        assert delta.delete(np.empty(0, dtype=np.int64)) == 0
        tombs = delta.tombstones
        assert tombs.dtype == np.int64
        assert list(tombs) == [1, 3, 5, 7, 11]
        assert not tombs.flags.writeable
        assert delta.is_deleted(5) and not delta.is_deleted(6)
        assert not delta.is_deleted(12) and not DeltaIndex(2).is_deleted(0)

    def test_answer_without_rows_returns_base(self):
        delta = DeltaIndex(2)
        delta.delete([0])
        base = [_result([(1, 0.5)], candidates_verified=4)]
        assert delta.view().answer(base, np.zeros((1, 2)), k=1) is base

    def test_sweep_breaks_distance_ties_by_id(self, rng):
        delta = DeltaIndex(1)
        delta.extend(np.arange(4), np.array([[1.0], [1.0], [0.0], [0.0]]))
        assert delta.view().sweep(np.zeros((1, 1)), k=1)[0].ids == [2]
        assert delta.view().sweep(np.zeros((1, 1)), k=3)[0].ids == [2, 3, 0]
        # Heavy ties: the answer is always the k smallest (distance, id).
        for _ in range(200):
            values = rng.integers(0, 3, size=12).astype(np.float64)
            ids = rng.permutation(50)[:12]
            delta = DeltaIndex(1)
            delta.extend(ids, values[:, None])
            k = int(rng.integers(1, 12))
            got = delta.view().sweep(np.zeros((1, 1)), k=k)[0].ids
            want = ids[np.lexsort((ids, values))][:k]
            assert got == [int(i) for i in want]

    def test_view_is_stable_under_append_and_trim(self, rng, monkeypatch):
        def rows(lo, hi):
            return np.repeat(np.arange(lo, hi, dtype=np.float64)[:, None], 3, axis=1)

        monkeypatch.setattr(delta_module, "_CAPACITY", 2)
        delta = DeltaIndex(3)
        delta.extend(np.arange(3), rows(0, 3))
        delta.delete([1, 30])
        view = delta.view()
        # Growth past capacity, deletes and a trim all replace arrays;
        # the captured view keeps reading the state at capture time.
        for i in range(3, 40):
            delta.extend([i], rows(i, i + 1))
        delta.delete([0, 20, 35])
        middle = delta.view()
        delta.trim(10, np.array([0, 1]))
        assert len(view) == 3
        assert list(view.ids) == [0, 1, 2]
        assert view.points[2, 0] == 2.0
        assert list(view.tombstones) == [1, 30]
        assert len(middle) == 40
        assert list(middle.tombstones) == [0, 1, 20, 30, 35]
        assert len(delta) == 30
        assert list(delta.view().ids) == list(range(10, 40))
        assert delta.view().points[0, 0] == 10.0
        assert list(delta.tombstones) == [20, 30, 35]
        # The sweep reads the view's own tombstones.
        got = view.sweep(np.zeros((1, 3)), k=3)[0].ids
        assert got == [0, 2]

    def test_empty_sweep(self):
        results = DeltaIndex(4).view().sweep(np.zeros((2, 4)), k=3)
        assert [r.ids for r in results] == [[], []]


def _result(pairs, **stats):
    return QueryResult(
        neighbors=[Neighbor(i, d) for i, d in pairs],
        stats=QueryStats(**stats),
    )


class TestLiveMerge:
    def test_order_kept(self):
        base = _result([(4, 0.1), (1, 0.4)])
        delta = _result([(100, 0.15), (101, 0.5)])
        merged = merge_live_results(base, delta, k=3)
        assert [(n.id, n.distance) for n in merged.neighbors] == [
            (4, 0.1), (100, 0.15), (1, 0.4)
        ]

    def test_dedup_keeps_first(self):
        # During a compaction flip the folded rows can briefly appear in
        # both the new snapshot generation and the untrimmed delta.
        base = _result([(7, 0.1), (8, 0.3)])
        delta = _result([(7, 0.1), (9, 0.2)])
        merged = merge_live_results(base, delta, k=4)
        assert merged.ids == [7, 9, 8]

    def test_stats_add_delta_work(self):
        base = _result([(1, 0.1)], candidates_verified=10,
                       distance_computations=20)
        delta = _result([(2, 0.2)], candidates_verified=3,
                        distance_computations=3)
        merged = merge_live_results(base, delta, k=2)
        assert merged.stats.candidates_verified == 13
        assert merged.stats.distance_computations == 23

    def test_ragged_batches_fail_loud(self):
        with pytest.raises(ValueError, match="ragged"):
            merge_live_batches([_result([])], [], k=1)
