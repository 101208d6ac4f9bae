"""Batch, engine-equivalence, patience and growth tests for DBLSH.

Covers the vectorized query engine's contracts:

* ``query_batch`` returns bitwise-identical neighbors and consistent
  work counters versus looping ``query``, for every backend, with and
  without thread workers;
* the chunked query path and the per-candidate reference loop
  (:func:`repro.core.reference.sequential_query`) verify candidates in
  the same order and therefore return the same neighbor ids even when
  the budget truncates the scan;
* the patience counter survives radius rounds (regression test for the
  per-round reset bug);
* ``add`` appends to the delta buffer and leaves the indexed rows
  untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DBLSH
from repro.core.reference import sequential_query
from repro.data.generators import gaussian_mixture

BACKENDS = ["rstar", "rstar-insert", "kdtree", "grid"]


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(900, 20, n_clusters=9, cluster_std=1.0,
                            center_spread=8.0, seed=7)
    rng = np.random.default_rng(11)
    queries = data[rng.choice(900, 16, replace=False)] + 0.1 * rng.standard_normal((16, 20))
    return data, queries


def _assert_same_result(a, b):
    assert a.ids == b.ids
    assert a.distances == b.distances  # bitwise: same floats, same order
    assert a.stats.candidates_verified == b.stats.candidates_verified
    assert a.stats.distance_computations == b.stats.distance_computations
    assert a.stats.hash_evaluations == b.stats.hash_evaluations
    assert a.stats.window_queries == b.stats.window_queries
    assert a.stats.rounds == b.stats.rounds
    assert a.stats.final_radius == b.stats.final_radius
    assert a.stats.terminated_by == b.stats.terminated_by


class TestBatchEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_sequential(self, workload, backend):
        data, queries = workload
        index = DBLSH(l_spaces=3, k_per_space=5, t=16, seed=3, backend=backend,
                      auto_initial_radius=True).fit(data)
        sequential = [index.query(q, k=8) for q in queries]
        batched = index.query_batch(queries, k=8)
        assert len(batched) == len(sequential)
        for a, b in zip(sequential, batched):
            _assert_same_result(a, b)

    def test_batch_with_budget_truncation(self, workload):
        # Tiny budget: results depend on candidate order, the strictest
        # equivalence setting.
        data, queries = workload
        index = DBLSH(l_spaces=3, k_per_space=4, t=2, seed=5,
                      auto_initial_radius=True).fit(data)
        for a, b in zip([index.query(q, k=10) for q in queries],
                        index.query_batch(queries, k=10)):
            _assert_same_result(a, b)

    def test_batch_with_patience(self, workload):
        data, queries = workload
        index = DBLSH(l_spaces=3, k_per_space=5, t=500, seed=3, patience=10,
                      auto_initial_radius=True).fit(data)
        for a, b in zip([index.query(q, k=5) for q in queries],
                        index.query_batch(queries, k=5)):
            _assert_same_result(a, b)

    def test_batch_validation(self, workload):
        data, _ = workload
        index = DBLSH(l_spaces=2, k_per_space=4, seed=0).fit(data)
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.query_batch(data[:2], k=0)
        with pytest.raises(ValueError, match="dimension"):
            index.query_batch(np.zeros((2, 3)))
        for bad in (np.nan, 1e154, 1e300):  # 1e154: finite, but v @ v overflows
            with pytest.raises(ValueError, match="NaN"):
                index.query_batch(np.full((1, 20), bad))
        assert index.query_batch(np.empty((0, 20))) == []

    def test_unfitted_batch(self):
        with pytest.raises(RuntimeError, match="fit"):
            DBLSH().query_batch(np.zeros((1, 4)))


class TestEngineEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vectorized_matches_legacy(self, workload, backend):
        data, queries = workload
        index = DBLSH(l_spaces=3, k_per_space=5, t=16, seed=3, backend=backend,
                      auto_initial_radius=True).fit(data)
        for q in queries:
            a = index.query(q, k=8)
            b = sequential_query(index, q, k=8)
            # Same candidates in the same order; distances agree to the
            # accumulation error of the expanded-norm formula.
            assert a.ids == b.ids
            np.testing.assert_allclose(a.distances, b.distances,
                                       rtol=1e-9, atol=1e-9)
            assert a.stats.candidates_verified == b.stats.candidates_verified
            assert a.stats.rounds == b.stats.rounds
            assert a.stats.terminated_by == b.stats.terminated_by

    def test_equivalence_with_duplicate_distances(self):
        """Exact ties at the k-th boundary must not diverge from the reference.

        Duplicated points make every distance appear six times, so the
        merge fast path's partition would pick arbitrary tie survivors;
        it must detect the tie and fall back to the sequential replay.
        """
        rng = np.random.default_rng(0)
        base = rng.standard_normal((40, 8))
        data = np.vstack([base] * 6)
        query = base[0] + 0.3
        for t in (16, 1000):
            kwargs = dict(l_spaces=3, k_per_space=4, t=t, seed=1,
                          auto_initial_radius=True)
            index = DBLSH(**kwargs).fit(data)
            for k in (1, 5, 37):
                a, b = index.query(query, k=k), sequential_query(index, query, k=k)
                assert a.ids == b.ids
                assert a.stats.terminated_by == b.stats.terminated_by

    def test_invalid_engine(self):
        # There is one query engine; the old selector is not a parameter.
        with pytest.raises(TypeError, match="engine"):
            DBLSH(engine="vectorized")


class TestPatienceAcrossRounds:
    def test_patience_counter_survives_radius_rounds(self):
        """Regression: the no-improvement count must not reset per round.

        One projection space (L=K=1) over 1-D data lets us place points
        directly in the projected space: shells at |h| = 3.8, 4.0, 6.2,
        9.3, 14, 21 relative to the query's projection at 0.  With
        ``w0 = 9`` and ``r0 = 1`` each radius round reveals at most two
        fresh candidates — far fewer than the patience of 4 — so the stop
        can only fire by carrying the counter across rounds (the seed
        implementation rebuilt it every round and ended ``exhausted``).
        """
        probe = DBLSH(l_spaces=1, k_per_space=1, seed=0).fit(np.ones((1, 1)))
        a = float(probe._hasher.tensor[0, 0, 0])
        assert abs(a) < 0.75  # keeps every shell outside c*r of the query
        h_targets = np.array([3.8, -4.0, 6.2, 9.3, 14.0, 21.0])
        data = (h_targets / a)[:, None]
        query = np.zeros(1)

        index = DBLSH(c=1.5, l_spaces=1, k_per_space=1, t=1000, seed=0,
                      initial_radius=1.0, patience=4).fit(data)
        result = index.query(query, k=1)
        assert result.stats.terminated_by == "patience"
        # The counter accumulated over several rounds, never within one:
        # six points exist, at most two become fresh in any round.
        assert result.stats.rounds >= 3
        assert result.stats.candidates_verified <= 6

        # The per-candidate reference shares the fixed round loop.
        reference = sequential_query(index, query, k=1)
        assert reference.stats.terminated_by == "patience"
        assert reference.stats.rounds == result.stats.rounds


class TestAddGrowth:
    def test_data_stacks_indexed_and_added_rows(self):
        data = gaussian_mixture(64, 8, n_clusters=4, seed=0)
        index = DBLSH(l_spaces=2, k_per_space=4, seed=0,
                      auto_initial_radius=True).fit(data)
        rng = np.random.default_rng(3)
        reference = [data]
        for _ in range(12):
            extra = rng.standard_normal((5, 8))
            index.add(extra)
            reference.append(extra)
        expected = np.vstack(reference)
        assert index.num_points == expected.shape[0]
        assert index.num_pending == expected.shape[0] - 64
        np.testing.assert_array_equal(index.data, expected)
        # The indexed rows are untouched until compact() folds the rest.
        assert index._buffer is data

    def test_add_then_query_finds_new_points(self):
        data = gaussian_mixture(120, 8, n_clusters=4, seed=1)
        index = DBLSH(l_spaces=3, k_per_space=4, seed=0,
                      auto_initial_radius=True).fit(data)
        new_point = data.mean(axis=0) + 300.0
        index.add(new_point[None, :])
        result = index.query(new_point, k=1)
        assert result.neighbors[0].id == 120
        assert result.neighbors[0].distance == pytest.approx(0.0)
        # Batch path sees the grown dataset too.
        batch = index.query_batch(new_point[None, :], k=1)
        assert batch[0].neighbors[0].id == 120

    def test_add_keeps_norms_consistent(self):
        data = gaussian_mixture(100, 6, n_clusters=4, seed=2)
        index = DBLSH(l_spaces=2, k_per_space=4, seed=0,
                      auto_initial_radius=True).fit(data)
        extra = gaussian_mixture(40, 6, n_clusters=2, seed=3)
        index.add(extra)
        np.testing.assert_allclose(
            index._norms2, np.einsum("ij,ij->i", data, data)
        )
        np.testing.assert_allclose(
            index._delta.view().norms2, np.einsum("ij,ij->i", extra, extra)
        )
