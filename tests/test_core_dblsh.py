"""Tests for the DBLSH index: construction, queries, guarantees, backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.data.generators import gaussian_mixture, planted_neighbors


def small_index(data, **kwargs) -> DBLSH:
    defaults = dict(
        c=1.5, l_spaces=4, k_per_space=6, t=16, seed=0, auto_initial_radius=True
    )
    defaults.update(kwargs)
    return DBLSH(**defaults).fit(data)


class TestConstruction:
    def test_invalid_c(self):
        with pytest.raises(ValueError, match="c must be > 1"):
            DBLSH(c=1.0)

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            DBLSH(backend="btree")

    def test_invalid_patience(self):
        with pytest.raises(ValueError, match="patience"):
            DBLSH(patience=0)

    def test_query_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            DBLSH().query(np.zeros(4))

    def test_fit_returns_self(self, small_clustered):
        index = DBLSH(l_spaces=2, k_per_space=4, seed=0)
        assert index.fit(small_clustered) is index

    def test_default_w0_is_4c2(self, small_clustered):
        index = small_index(small_clustered, c=1.5)
        assert index.params is not None
        assert index.params.w0 == pytest.approx(9.0)

    def test_describe(self, small_clustered):
        index = small_index(small_clustered)
        text = index.describe()
        assert "K=6" in text and "L=4" in text and "rstar" in text
        assert DBLSH().describe() == "DBLSH(unfitted)"

    def test_index_size_accounting(self, small_clustered):
        index = small_index(small_clustered)
        assert index.num_hash_functions == 24
        assert index.index_size_floats() == small_clustered.shape[0] * 24
        assert index.num_points == small_clustered.shape[0]
        assert index.build_seconds > 0.0


class TestQuery:
    def test_self_query_finds_itself(self, small_clustered):
        index = small_index(small_clustered)
        for i in [0, 11, 57]:
            result = index.query(small_clustered[i], k=1)
            assert result.neighbors[0].id == i
            assert result.neighbors[0].distance == pytest.approx(0.0)

    def test_k_results_sorted(self, small_clustered):
        index = small_index(small_clustered)
        result = index.query(small_clustered[0], k=8)
        dists = result.distances
        assert dists == sorted(dists)
        assert len(set(result.ids)) == len(result.ids)

    def test_invalid_k(self, small_clustered):
        index = small_index(small_clustered)
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.query(small_clustered[0], k=0)

    def test_wrong_query_dim(self, small_clustered):
        index = small_index(small_clustered)
        with pytest.raises(ValueError, match="dimension"):
            index.query(np.zeros(3))

    def test_determinism(self, small_clustered):
        a = small_index(small_clustered).query(small_clustered[3], k=5)
        b = small_index(small_clustered).query(small_clustered[3], k=5)
        assert a.ids == b.ids

    def test_stats_populated(self, small_clustered):
        index = small_index(small_clustered)
        result = index.query(small_clustered[0], k=5)
        stats = result.stats
        assert stats.candidates_verified > 0
        assert stats.hash_evaluations == index.num_hash_functions
        assert stats.rounds >= 1
        assert stats.terminated_by in {"budget", "radius", "patience", "exhausted"}
        assert stats.elapsed_seconds > 0.0

    def test_budget_respected(self, small_clustered):
        index = small_index(small_clustered, t=2)
        assert index.params is not None
        k = 3
        result = index.query(small_clustered[0] + 100.0, k=k)
        assert result.stats.candidates_verified <= index.params.budget(k)

    def test_each_candidate_verified_once(self, small_clustered):
        # The seen-set: candidates never exceed the dataset size even when
        # windows at several radii all contain everything.
        index = small_index(small_clustered, t=10_000)
        result = index.query(small_clustered[0], k=5)
        assert result.stats.candidates_verified <= small_clustered.shape[0]

    def test_query_far_from_data_terminates(self, small_clustered):
        index = small_index(small_clustered)
        far = small_clustered[0] + 1e6
        result = index.query(far, k=3)
        assert len(result) >= 1  # eventually the window covers everything

    def test_tiny_dataset(self):
        data = np.array([[0.0, 0.0], [10.0, 10.0]])
        index = DBLSH(l_spaces=2, k_per_space=2, seed=0).fit(data)
        result = index.query(np.array([0.5, 0.5]), k=2)
        assert sorted(result.ids) == [0, 1]


class TestRcNNGuarantee:
    def test_planted_neighbor_is_found(self):
        """(r, c)-NN with r >= planted distance must return a point within
        c * r (Definition 2 case 1) with constant probability; with our
        L and budget the failure probability is tiny."""
        data, queries = planted_neighbors(
            400, 32, n_queries=8, planted_distance=1.0, background_distance=25.0, seed=3
        )
        index = DBLSH(
            c=2.0, l_spaces=6, k_per_space=4, t=16, seed=1, initial_radius=1.0
        ).fit(data)
        hits = 0
        for qi, q in enumerate(queries):
            result = index.range_query(q, radius=1.2)
            if result.neighbors and result.neighbors[0].distance <= 2.0 * 1.2:
                hits += 1
        assert hits >= 6  # succeeds with overwhelming probability

    def test_range_query_empty_when_nothing_near(self):
        data, queries = planted_neighbors(
            300, 16, n_queries=4, planted_distance=5.0, background_distance=50.0, seed=0
        )
        index = DBLSH(c=1.5, l_spaces=4, k_per_space=6, seed=0).fit(data)
        # radius far below the planted distance: nothing within c * r.
        result = index.range_query(queries[0], radius=0.01)
        assert result.is_empty()

    def test_range_query_validation(self, small_clustered):
        index = small_index(small_clustered)
        with pytest.raises(ValueError, match="radius"):
            index.range_query(small_clustered[0], radius=0.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.range_query(small_clustered[0], radius=1.0, k=0)


class TestCANNGuarantee:
    def test_c2_approximation_holds(self):
        """Theorem 1: the returned point is a c^2-ANN with probability
        >= 1/2 - 1/e; across queries the empirical rate must clear it."""
        data = gaussian_mixture(800, 24, n_clusters=10, seed=5)
        index = DBLSH(
            c=1.5, l_spaces=6, k_per_space=6, t=16, seed=2, auto_initial_radius=True
        ).fit(data)
        rng = np.random.default_rng(7)
        queries = data[rng.choice(800, 20, replace=False)] + 0.1 * rng.standard_normal(
            (20, 24)
        )
        successes = 0
        for q in queries:
            result = index.query(q, k=1)
            true_nn = np.linalg.norm(data - q, axis=1).min()
            if result.neighbors[0].distance <= (1.5**2) * true_nn + 1e-9:
                successes += 1
        assert successes / len(queries) >= 0.5 - 1 / np.e


class TestBackends:
    @pytest.mark.parametrize("backend", ["rstar", "rstar-insert", "kdtree", "grid"])
    def test_backends_work(self, backend):
        data = gaussian_mixture(250, 16, n_clusters=5, seed=1)
        index = DBLSH(
            c=1.5, l_spaces=3, k_per_space=4, seed=0, backend=backend,
            auto_initial_radius=True,
        ).fit(data)
        result = index.query(data[0], k=3)
        assert result.neighbors[0].id == 0

    def test_backends_equivalent_candidates(self):
        """All backends answer the same window queries, so with identical
        projections the returned neighbors must coincide."""
        data = gaussian_mixture(300, 16, n_clusters=6, seed=2)
        results = {}
        for backend in ["rstar", "kdtree"]:
            index = DBLSH(
                c=1.5, l_spaces=3, k_per_space=4, seed=9, backend=backend,
                auto_initial_radius=True, t=1000,
            ).fit(data)
            results[backend] = index.query(data[5], k=5).ids
        assert results["rstar"] == results["kdtree"]


class TestAdd:
    @pytest.mark.parametrize("backend", ["rstar", "rstar-insert"])
    def test_add_then_query(self, backend):
        data = gaussian_mixture(200, 8, n_clusters=4, seed=0)
        index = DBLSH(
            l_spaces=3, k_per_space=4, seed=0, auto_initial_radius=True, backend=backend
        ).fit(data)
        # An isolated point: its projection sits at the window centre of a
        # self-query, so it is found in round 1 at distance 0 — no earlier
        # candidate can satisfy Algorithm 1's distance condition first.
        new_point = data.mean(axis=0) + 500.0
        index.add(new_point[None, :])
        assert index.num_points == 201
        result = index.query(new_point, k=1)
        assert result.neighbors[0].id == 200
        assert result.neighbors[0].distance == pytest.approx(0.0)
        assert index.num_pending == 1  # every add() lands in the delta

    @pytest.mark.parametrize("backend", ["rstar", "rstar-insert"])
    def test_add_then_compact_matches_fresh_fit(self, backend):
        data = gaussian_mixture(300, 8, n_clusters=4, seed=1)
        common = dict(l_spaces=3, k_per_space=4, t=8, seed=0, initial_radius=0.5,
                      backend=backend)
        index = DBLSH(**common).fit(data[:240])
        index.add(data[240:270])
        index.add(data[270:])
        assert index.compact() is True
        assert index.num_pending == 0
        fresh = DBLSH(**common).fit(data)
        queries = data[::30] + 0.05
        for got, want in zip(index.query_batch(queries, k=5), fresh.query_batch(queries, k=5)):
            assert got.ids == want.ids
            assert got.distances == want.distances
            assert got.stats.candidates_verified == want.stats.candidates_verified
            assert got.stats.terminated_by == want.stats.terminated_by

    def test_range_query_merges_pending_rows(self):
        data = gaussian_mixture(200, 8, n_clusters=4, seed=0)
        index = DBLSH(l_spaces=3, k_per_space=4, seed=0,
                      auto_initial_radius=True).fit(data)
        query = data.mean(axis=0) + 500.0
        radius = 1.0
        cutoff = index.c * radius
        step = np.eye(8)[0]
        # Both added rows are swept; only the one within c*r is returned.
        index.add(np.vstack([query + 0.5 * cutoff * step, query + 2.0 * cutoff * step]))
        result = index.range_query(query, radius=radius, k=2)
        assert result.stats.terminated_by != "budget"
        assert result.ids == [200]
        assert result.distances == pytest.approx([0.5 * cutoff])
        assert result.stats.candidates_verified >= 2

    def test_add_requires_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            DBLSH().add(np.zeros((1, 4)))

    @pytest.mark.parametrize("backend", ["kdtree", "grid"])
    def test_add_delete_compact_matches_refit_on_ablation_backends(self, backend):
        # add() touches no table, so every backend takes inserts.
        data = gaussian_mixture(1500, 8, n_clusters=6, seed=2)
        common = dict(l_spaces=3, k_per_space=4, t=8, seed=0, initial_radius=0.5,
                      backend=backend)
        doomed = np.array([3, 700, 999, 1000, 1250, 1499])
        index = DBLSH(**common).fit(data[:1000])
        index.add(data[1000:])
        index.delete(doomed)
        assert index.compact() is True
        refit = DBLSH(**common).fit(data)
        refit.delete(doomed)
        queries = data[::100] + 0.05
        for got, want in zip(index.query_batch(queries, k=5), refit.query_batch(queries, k=5)):
            assert got.ids == want.ids
            assert got.stats.candidates_verified == want.stats.candidates_verified

    def test_index_size_counts_projected_rows_only(self):
        data = gaussian_mixture(300, 8, n_clusters=4, seed=0)
        for index in (DBLSH(l_spaces=3, k_per_space=4, seed=0),
                      ShardedDBLSH(shards=2, l_spaces=3, k_per_space=4, seed=0)):
            index.fit(data[:240])
            assert index.index_size_floats() == 240 * 12
            index.add(data[240:])
            assert index.index_size_floats() == 240 * 12
            index.compact()
            assert index.index_size_floats() == 300 * 12

    def test_add_dim_mismatch(self):
        data = gaussian_mixture(100, 8, seed=0)
        index = DBLSH(l_spaces=2, k_per_space=3, seed=0).fit(data)
        with pytest.raises(ValueError, match="dimension"):
            index.add(np.zeros((1, 9)))


class TestEarlyTermination:
    def test_patience_reduces_work(self):
        data = gaussian_mixture(1000, 16, n_clusters=8, seed=4)
        q = data[0] + 0.05
        patient = DBLSH(
            l_spaces=4, k_per_space=5, seed=0, auto_initial_radius=True, t=500
        ).fit(data)
        impatient = DBLSH(
            l_spaces=4, k_per_space=5, seed=0, auto_initial_radius=True, t=500,
            patience=20,
        ).fit(data)
        full = patient.query(q, k=5)
        quick = impatient.query(q, k=5)
        assert quick.stats.candidates_verified <= full.stats.candidates_verified
        # The nearest point is found immediately either way.
        assert quick.neighbors[0].id == full.neighbors[0].id
