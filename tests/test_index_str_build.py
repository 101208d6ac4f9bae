"""Tests for the array-native STR build (repro.index.str_build).

The contract is byte-identity: ``build_flat_str(points, ids, M)`` must
produce exactly the arrays of ``RStarTree.bulk_load(points, ids,
M).freeze()`` — same ordering (stable-tie behaviour included), same MBRs,
same dtypes — so the two construction paths are interchangeable at every
layer above.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DBLSH
from repro.core.reference import sequential_query
from repro.index.flat import FlatRStarTree
from repro.index.rstar import RStarTree
from repro.index.str_build import build_flat_str, str_order


def assert_flats_identical(expected, got):
    a, b = expected.to_arrays(), got.to_arrays()
    assert set(a) == set(b)
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key], equal_nan=True), key


class TestStrOrder:
    @pytest.mark.parametrize("n,dim,max_entries", [
        (1, 3, 8), (5, 1, 4), (40, 2, 4), (500, 4, 8), (3000, 6, 32),
        (33, 3, 4), (7777, 3, 4),
    ])
    def test_matches_recursive_order(self, rng, n, dim, max_entries):
        points = rng.standard_normal((n, dim)) * 3.0
        tree = RStarTree(dim, max_entries=max_entries)
        expected = tree._str_order(points, np.arange(n), 0)
        assert np.array_equal(expected, str_order(points, max_entries))

    def test_matches_on_tied_data(self, rng):
        # Ties on one axis, ties on a later axis, and full duplicates all
        # exercise the stable-sort chain the iterative path must emulate.
        points = rng.standard_normal((900, 4))
        points[:300, 0] = 0.5
        points[200:500, 2] = -0.25
        points[:16] = points[0]
        tree = RStarTree(4, max_entries=8)
        expected = tree._str_order(points, np.arange(900), 0)
        assert np.array_equal(expected, str_order(points, 8))

    def test_matches_on_quantized_data(self, rng):
        # Heavy ties everywhere (grid-quantized coordinates).
        points = np.round(rng.standard_normal((4000, 3)) * 2.0) / 2.0
        tree = RStarTree(3, max_entries=8)
        expected = tree._str_order(points, np.arange(4000), 0)
        assert np.array_equal(expected, str_order(points, 8))

    def test_empty(self):
        assert str_order(np.empty((0, 3)), 8).size == 0


class TestByteIdenticalBuild:
    @pytest.mark.parametrize("n,dim,max_entries", [
        (1, 3, 8), (5, 1, 4), (40, 2, 4), (500, 4, 8), (3000, 6, 32),
        (10000, 10, 32), (33, 3, 4),
    ])
    def test_identical_to_bulk_load_freeze(self, rng, n, dim, max_entries):
        points = rng.standard_normal((n, dim)) * 3.0
        expected = RStarTree.bulk_load(points, max_entries=max_entries).freeze()
        assert_flats_identical(expected, build_flat_str(points, max_entries=max_entries))

    def test_identical_on_tied_data(self, rng):
        points = rng.standard_normal((1200, 5))
        points[:400, 0] = 1.0
        points[300:700, 1] = 0.0
        points[:10] = points[0]
        expected = RStarTree.bulk_load(points, max_entries=8).freeze()
        assert_flats_identical(expected, build_flat_str(points, max_entries=8))

    def test_identical_with_custom_ids(self, rng):
        points = rng.standard_normal((200, 3))
        ids = rng.permutation(10_000)[:200]
        expected = RStarTree.bulk_load(points, ids=ids, max_entries=8).freeze()
        assert_flats_identical(expected, build_flat_str(points, ids=ids, max_entries=8))

    def test_empty_tree(self):
        expected = RStarTree.bulk_load(np.empty((0, 2)), max_entries=8).freeze()
        got = build_flat_str(np.empty((0, 2)), max_entries=8)
        assert_flats_identical(expected, got)
        assert got.window_query(np.array([-1.0, -1.0]), np.array([1.0, 1.0])).size == 0

    def test_window_queries_agree(self, rng):
        points = rng.standard_normal((2500, 4)) * 2.0
        tree = RStarTree.bulk_load(points, max_entries=16)
        flat = build_flat_str(points, max_entries=16)
        for _ in range(20):
            center = rng.standard_normal(4) * 2.0
            half = rng.uniform(0.2, 3.0)
            expected = tree.freeze().window_query(center - half, center + half)
            assert np.array_equal(expected, flat.window_query(center - half, center + half))

    def test_bad_inputs(self, rng):
        with pytest.raises(ValueError, match="max_entries"):
            build_flat_str(rng.standard_normal((10, 2)), max_entries=3)
        with pytest.raises(ValueError, match="ids length"):
            build_flat_str(rng.standard_normal((10, 2)), ids=np.arange(9))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(0, 400),
        dim=st.integers(1, 6),
        max_entries=st.sampled_from([4, 8, 32]),
        quantize=st.booleans(),
    )
    def test_property_byte_identical(self, seed, n, dim, max_entries, quantize):
        gen = np.random.default_rng(seed)
        points = gen.standard_normal((n, dim)) * 2.0
        if quantize:  # force tie-heavy inputs half the time
            points = np.round(points)
        expected = RStarTree.bulk_load(points, max_entries=max_entries).freeze()
        assert_flats_identical(
            expected, build_flat_str(points, max_entries=max_entries)
        )


class TestBuilderEngineParity:
    """DBLSH's array-built tables: pointer-free, and answer-identical."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.data.generators import gaussian_mixture

        data = gaussian_mixture(2500, 24, n_clusters=8, seed=11)
        rng = np.random.default_rng(13)
        queries = data[rng.choice(2500, 10, replace=False)] + 0.05
        return data, queries

    COMMON = dict(
        c=1.5, l_spaces=4, k_per_space=8, t=64, seed=0, auto_initial_radius=True
    )

    def test_array_builder_skips_pointer_trees(self, workload):
        data, _ = workload
        index = DBLSH(**self.COMMON).fit(data)
        assert isinstance(index._forest, FlatRStarTree)
        assert index._forest.roots.shape[0] == index.params.l_spaces
        assert index._tables == []

    def test_builders_return_identical_results(self, workload):
        # Swap in tables frozen from STR bulk-loaded pointer trees: the
        # answers and the work done to reach them do not change.
        data, queries = workload
        index = DBLSH(**self.COMMON).fit(data)
        expected = index.query_batch(queries, k=10)
        index._forest = FlatRStarTree.stack(
            [RStarTree.bulk_load(proj).freeze() for proj in index._hasher.project_all(data)]
        )
        got = index.query_batch(queries, k=10)
        assert [r.ids for r in got] == [r.ids for r in expected]
        assert [r.stats.candidates_verified for r in got] == [
            r.stats.candidates_verified for r in expected
        ]

    def test_builders_produce_identical_flat_arrays(self, workload):
        data, _ = workload
        index = DBLSH(**self.COMMON).fit(data)
        projections = index._hasher.project_all(data)
        assert_flats_identical(
            FlatRStarTree.stack(
                [RStarTree.bulk_load(proj).freeze() for proj in projections]
            ),
            index._forest,
        )

    def test_array_builder_matches_legacy_engine(self, workload):
        # The per-candidate reference loop is the old engine's semantics.
        data, queries = workload
        index = DBLSH(**self.COMMON).fit(data)
        for q in queries:
            assert index.query(q, k=10).ids == sequential_query(index, q, k=10).ids

    def test_add_appends_to_delta_without_rebuilding(self, workload):
        # add() lands in the delta buffer: the frozen traversals stay
        # valid and untouched, and the new point is immediately queryable.
        data, queries = workload
        index = DBLSH(**self.COMMON).fit(data)
        forest_before = index._forest
        far = data.mean(axis=0) + 300.0
        index.add(far[None, :])
        assert index._forest is forest_before
        assert index.num_pending == 1
        result = index.query(far, k=1)
        assert result.neighbors[0].id == data.shape[0]
        # compact() folds the delta into fresh traversals; the point
        # stays queryable and the sweep cost disappears.
        assert index.compact() is True
        assert index.num_pending == 0
        assert index.query(far, k=1).neighbors[0].id == data.shape[0]

    def test_invalid_builder_rejected(self):
        # There is one builder; the old selector is not a parameter.
        with pytest.raises(TypeError, match="builder"):
            DBLSH(builder="array")

    def test_non_flat_configs_build_eagerly(self, workload):
        # The ablation backends build their own structures at fit time.
        data, queries = workload
        for backend in ("kdtree", "rstar-insert"):
            index = DBLSH(backend=backend, **self.COMMON).fit(data)
            assert index._forest is None
            assert not any(isinstance(t, FlatRStarTree) for t in index._tables)
            assert index.query(queries[0], k=5).neighbors
