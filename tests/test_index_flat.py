"""Tests for the flattened R*-tree traversal (FlatRStarTree).

The frozen form must answer every window query with exactly the ids the
pointer-based traversal streams — in the same candidate order, because
DB-LSH's budget truncation makes query results order-dependent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import flat as flat_module
from repro.index.flat import FlatRStarTree, concat_ranges
from repro.index.rstar import RStarTree
from repro.utils.scratch import MaskStack


def _legacy_stream(tree, w_low, w_high):
    chunks = list(tree.window_query_iter(w_low, w_high))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


class TestConcatRanges:
    def test_empty(self):
        starts = np.empty(0, dtype=np.int64)
        assert concat_ranges(starts, starts).size == 0

    def test_mixed_ranges(self):
        starts = np.array([5, 0, 9], dtype=np.int64)
        ends = np.array([8, 0, 11], dtype=np.int64)
        assert concat_ranges(starts, ends).tolist() == [5, 6, 7, 9, 10]

    def test_single_range(self):
        out = concat_ranges(np.array([3], dtype=np.int64), np.array([7], dtype=np.int64))
        assert out.tolist() == [3, 4, 5, 6]


class TestFreeze:
    def test_freeze_preserves_contents(self, rng):
        points = rng.standard_normal((500, 4))
        tree = RStarTree.bulk_load(points, max_entries=8)
        flat = tree.freeze()
        assert len(flat) == 500
        assert flat.dim == 4
        assert flat.height == tree.height
        assert sorted(flat.all_ids().tolist()) == sorted(tree.all_ids().tolist())
        assert flat.num_leaves >= 500 // 8

    def test_empty_tree(self):
        flat = RStarTree(2).freeze()
        assert len(flat) == 0
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        assert flat.window_query(lo, hi).size == 0
        assert flat.window_count(lo, hi) == 0

    def test_single_leaf_root(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        flat = RStarTree.bulk_load(points, max_entries=8).freeze()
        out = flat.window_query(np.array([-0.5, -0.5]), np.array([1.5, 1.5]))
        assert sorted(out.tolist()) == [0, 1]

    def test_freeze_of_insert_built_tree(self, rng):
        points = rng.standard_normal((300, 3))
        tree = RStarTree(3, max_entries=8)
        for i, p in enumerate(points):
            tree.insert(i, p)
        flat = tree.freeze()
        for _ in range(10):
            center = rng.standard_normal(3)
            lo, hi = center - 1.0, center + 1.0
            assert np.array_equal(_legacy_stream(tree, lo, hi),
                                  flat.window_query(lo, hi))

    def test_freeze_is_a_snapshot(self, rng):
        points = rng.standard_normal((100, 3))
        tree = RStarTree.bulk_load(points, max_entries=8)
        flat = tree.freeze()
        tree.insert(100, np.zeros(3))
        # The snapshot still answers from the pre-insert state.
        assert len(flat) == 100
        assert 100 not in set(flat.all_ids().tolist())

    def test_arrays_of_another_chunk_size_refused(self, rng):
        arrays = RStarTree.bulk_load(rng.standard_normal((50, 2))).freeze().to_arrays()
        assert arrays["meta"][3] == flat_module.CHUNK_POINTS
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][3] = flat_module.CHUNK_POINTS // 2
        with pytest.raises(ValueError, match="chunk size"):
            FlatRStarTree.from_arrays(arrays)

    def test_window_dim_mismatch(self, rng):
        flat = RStarTree.bulk_load(rng.standard_normal((50, 3))).freeze()
        with pytest.raises(ValueError, match="dimensionality"):
            list(flat.window_query_iter(np.zeros(2), np.ones(2)))


class TestTraversalEquivalence:
    @pytest.mark.parametrize("n,dim,max_entries", [
        (1, 3, 8), (40, 2, 4), (500, 4, 8), (3000, 6, 32),
    ])
    def test_same_ids_same_order_as_pointer_traversal(self, rng, n, dim, max_entries):
        points = rng.standard_normal((n, dim)) * 3.0
        tree = RStarTree.bulk_load(points, max_entries=max_entries)
        flat = tree.freeze()
        for _ in range(25):
            center = rng.standard_normal(dim) * 3.0
            half = rng.uniform(0.1, 4.0)
            lo, hi = center - half, center + half
            expected = _legacy_stream(tree, lo, hi)
            assert np.array_equal(expected, flat.window_query(lo, hi))

    def test_full_coverage_window(self, rng):
        points = rng.standard_normal((800, 5))
        tree = RStarTree.bulk_load(points, max_entries=16)
        flat = tree.freeze()
        lo, hi = points.min(axis=0) - 1.0, points.max(axis=0) + 1.0
        out = flat.window_query(lo, hi)
        assert out.shape[0] == 800
        assert np.array_equal(_legacy_stream(tree, lo, hi), out)

    def test_chunk_points_changes_chunking_not_results(self, rng, monkeypatch):
        points = rng.standard_normal((2000, 4))
        flat = RStarTree.bulk_load(points, max_entries=16).freeze()
        lo, hi = points.min(axis=0), points.max(axis=0)
        monkeypatch.setattr(flat_module, "CHUNK_POINTS", 8)
        small = list(flat.window_query_iter(lo, hi))
        monkeypatch.setattr(flat_module, "CHUNK_POINTS", 10**6)
        large = list(flat.window_query_iter(lo, hi))
        assert len(small) > len(large)
        assert np.array_equal(np.concatenate(small), np.concatenate(large))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 300),
        dim=st.integers(1, 5),
        half=st.floats(0.05, 5.0),
    )
    def test_property_equivalence(self, seed, n, dim, half):
        gen = np.random.default_rng(seed)
        points = gen.standard_normal((n, dim)) * 2.0
        tree = RStarTree.bulk_load(points, max_entries=8)
        flat = tree.freeze()
        center = gen.standard_normal(dim)
        lo, hi = center - half, center + half
        assert np.array_equal(_legacy_stream(tree, lo, hi),
                              flat.window_query(lo, hi))
        assert flat.window_count(lo, hi) == tree.window_count(lo, hi)


def _chunks(stream):
    return [chunk.tolist() for chunk in stream]


class TestStackedForest:
    """L trees stacked into one set of arrays, one root per tree."""

    @pytest.fixture
    def trees(self, rng, monkeypatch):
        monkeypatch.setattr(flat_module, "CHUNK_POINTS", 64)
        return [
            RStarTree.bulk_load(rng.standard_normal((700, 3)) * 2.0, max_entries=8).freeze()
            for _ in range(4)
        ]

    def test_each_root_streams_its_own_tree(self, rng, trees):
        forest = FlatRStarTree.stack(trees)
        assert forest.roots.tolist() == [0, 1, 2, 3]
        assert len(forest) == 4 * 700
        assert forest.num_nodes() == sum(t.num_nodes() for t in trees)
        for _ in range(10):
            center = rng.standard_normal(3)
            lo, hi = center - 1.5, center + 1.5
            for i, tree in enumerate(trees):
                assert _chunks(forest.window_query_iter(lo, hi, root=i)) == _chunks(
                    tree.window_query_iter(lo, hi)
                )

    def test_stacking_is_associative(self, trees):
        nested = FlatRStarTree.stack(
            [FlatRStarTree.stack(trees[:2]), FlatRStarTree.stack(trees[2:])]
        )
        flat = FlatRStarTree.stack(trees)
        assert nested.roots.tolist() == flat.roots.tolist()
        for a, b in zip(nested.to_arrays().values(), flat.to_arrays().values()):
            assert np.array_equal(a, b)

    def test_mismatched_heights_refused(self, rng):
        tall = RStarTree.bulk_load(rng.standard_normal((500, 2)), max_entries=4).freeze()
        short = RStarTree.bulk_load(rng.standard_normal((5, 2)), max_entries=4).freeze()
        with pytest.raises(ValueError, match="height"):
            FlatRStarTree.stack([tall, short])

    @pytest.mark.parametrize("cap", [1, 5, 40, 10**6])
    def test_scan_matches_single_window_for_any_cap(self, rng, trees, cap):
        forest = FlatRStarTree.stack(trees)
        centers = rng.standard_normal((6, 3))
        roots = np.array([0, 1, 2, 3, 0, 2], dtype=np.int64)
        lo, hi = centers - 1.2, centers + 1.2
        caps = np.full(6, cap, dtype=np.int64)
        scan = forest.window_scan(roots, lo, hi)
        streams, leaves = scan.streams(np.arange(6), caps)
        for p, stream in enumerate(streams):
            got = [c for c in stream]
            expected = trees[roots[p]].window_query(lo[p], hi[p])
            joined = np.concatenate(got) if got else np.empty(0, dtype=np.int64)
            assert np.array_equal(joined, expected)
            assert all(len(c) > 0 for c in got[1:])
        assert (scan.node_visits + leaves >= forest.height).all()

    def test_chunk_boundaries_ignore_other_pairs(self, rng, trees):
        # A pair's chunks depend on its root, window and cap only: not on
        # the other pairs of the scan, nor on those drawn with it.
        forest = FlatRStarTree.stack(trees)
        centers = rng.standard_normal((5, 3))
        roots = np.array([3, 1, 0, 2, 1], dtype=np.int64)
        caps = np.array([7, 100, 1, 33, 4096], dtype=np.int64)
        lo, hi = centers - 1.0, centers + 1.0
        scan = forest.window_scan(roots, lo, hi)
        together, leaves = scan.streams(np.arange(5), caps)
        for p in range(5):
            alone = forest.window_scan(roots[p : p + 1], lo[p : p + 1], hi[p : p + 1])
            single, single_leaves = alone.streams(np.zeros(1, dtype=np.int64), caps[p : p + 1])
            drawn, drawn_leaves = scan.streams(np.array([p]), caps[p : p + 1])
            assert _chunks(together[p]) == _chunks(single[0]) == _chunks(drawn[0])
            assert scan.node_visits[p] == alone.node_visits[0]
            assert leaves[p] == single_leaves[0] == drawn_leaves[0]

    def test_drawing_a_subset_tests_its_own_leaves(self, rng, trees):
        # Drawing a subset leaf-tests only that subset's candidate leaves.
        forest = FlatRStarTree.stack(trees)
        centers = rng.standard_normal((4, 3))
        scan = forest.window_scan(np.arange(4), centers - 1.0, centers + 1.0)
        _, all_leaves = scan.streams(np.arange(4), np.full(4, 10))
        _, some_leaves = scan.streams(np.array([2, 0]), np.full(2, 10))
        assert some_leaves.tolist() == [all_leaves[2], all_leaves[0]]

    @pytest.mark.parametrize("cap", [1, 40])
    def test_seen_rows_are_dropped_before_the_point_test(self, rng, trees, cap):
        # A stamped id never leaves a stream; unstamped ones keep today's
        # chunks, so a consumer's fresh() filter sees the same rows.
        forest = FlatRStarTree.stack(trees)
        centers = rng.standard_normal((4, 3))
        roots = np.arange(4, dtype=np.int64)
        lo, hi = centers - 1.5, centers + 1.5
        caps = np.full(4, cap, dtype=np.int64)
        scan = forest.window_scan(roots, lo, hi)
        today = [_chunks(s) for s in scan.streams(roots, caps)[0]]
        assert sum(len(c) for c in today[0]) > 64  # lazy chunks exist

        stack = MaskStack()
        masks = stack.grow(4, 700)
        rows = np.array([2, 0, 3, 1], dtype=np.int64)
        for mask in masks:
            mask.begin()
        gens = np.array([masks[r].generation for r in rows], dtype=np.int64)
        seen = (stack.stamps, rows, gens)
        assert [_chunks(s) for s in scan.streams(roots, caps, seen)[0]] == today

        for mask in masks:
            mask.mark(np.arange(700))
        streams, _ = scan.streams(roots, caps, seen)
        assert all(_chunks(s) == [] for s in streams)

        # Stamps are read when a lazy chunk is: ids marked after the
        # first chunk was read are dropped from the later ones.
        for mask in masks:
            mask.begin()
        gens = np.array([masks[r].generation for r in rows], dtype=np.int64)
        streams, _ = scan.streams(roots, caps, (stack.stamps, rows, gens))
        for p in range(4):
            assert next(streams[p]).tolist() == today[p][0]
            masks[rows[p]].mark(np.arange(0, 700, 3))
            expected = [[i for i in c if i % 3] for c in today[p][1:]]
            assert _chunks(streams[p]) == [c for c in expected if c]
