"""Array-native STR construction of the frozen R*-tree traversal.

``RStarTree.bulk_load(...).freeze()`` reaches a :class:`FlatRStarTree` by
way of a pointer tree it immediately discards: the recursive STR ordering
allocates one Python call and one stable mergesort per slab, the packer
allocates one ``_Node`` per leaf (id copy, coordinate copy, two bound
reductions apiece), and the freeze walks all of it again to stack the
arrays.  For the (K, L)-index build of §VI-B1 that interpreter work
dominates — the geometry itself is a handful of sorts and running
min/max reductions.

:func:`build_flat_str` builds the frozen form *directly*:

* :func:`str_order` computes the Sort-Tile-Recursive ordering
  iteratively, one axis per level.  While slabs are few they are sorted
  individually; once a level holds many small slabs, same-length slabs
  are packed into a matrix and sorted with a single row-wise
  ``np.argsort(axis=1)`` — no per-slab Python, no per-slab allocation.
  Every sort is an introsort plus an exact stability repair (equal-value
  runs re-ordered by input position), so the result matches the stable
  mergesorts of the recursive path bit for bit, ties and all;
* the leaf level is then a gather of the ordered points straight into
  the ``[x, -x]`` traversal buffer: leaf MBRs fall out of
  ``np.minimum/maximum.reduceat`` at ``max_entries`` strides, and each
  internal level is the same reduction over the level below;
* the CSR child ranges of the BFS layout are arithmetic (children of
  node ``i`` occupy block ``[i*M, min((i+1)*M, count))``), because STR
  packing fills nodes left to right.

The output is **byte-identical** to ``RStarTree.bulk_load(points, ids,
max_entries).freeze()`` — same ordering (slab arithmetic and stable tie
behaviour match :meth:`RStarTree._str_order` exactly), same MBRs
(min/max is exact), same dtypes — which the parity tests pin.  The
pointer-based path is deliberately left untouched: it is the measured
baseline (``benchmarks/bench_build.py``) and the mutable structure
``add()`` still inserts into.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.index.flat import FlatRStarTree, concat_ranges

#: Above this many active slabs the per-level sort switches from a Python
#: loop of per-slab argsorts to the batched row-wise sort — the loop's
#: per-call overhead would dominate the tiny sorts.
_GROUPED_SORT_MIN_SEGMENTS = 64

#: The batched path packs same-length slabs into one matrix per distinct
#: length; past this many distinct lengths (never seen in practice — ceil
#: splitting yields 2-3 per level) fall back to the two-pass group sort.
_MAX_DISTINCT_WIDTHS = 16


def _stable_argsort(values: np.ndarray, buffer: Optional[np.ndarray] = None) -> np.ndarray:
    """``argsort(values, kind="stable")`` at introsort speed.

    Quicksort the values, then repair equal-value runs: within a run the
    returned indices are re-ordered ascending, which *is* the stable
    order (an index is the element's input position).  Real projected
    coordinates are tie-free, so the repair almost never runs, but its
    presence makes the result exactly stable on any input.  ``buffer``
    optionally receives the sorted values (scratch reuse).
    """
    idx = np.argsort(values)
    if buffer is None:
        sorted_vals = values[idx]
    else:
        sorted_vals = buffer[: values.shape[0]]
        np.take(values, idx, out=sorted_vals)
    eq = sorted_vals[1:] == sorted_vals[:-1]
    if eq.any():
        run_id = np.cumsum(np.concatenate(([True], ~eq)))
        idx = idx[np.lexsort((idx, run_id))]
    return idx


def _grouped_stable_argsort(values: np.ndarray, seg_ids: np.ndarray) -> np.ndarray:
    """Per-slab stable argsort of concatenated slabs, in two global passes.

    Equivalent to running :func:`_stable_argsort` on every slab and
    concatenating: quicksort by value, then a stable (radix) sort on the
    small-integer slab ids regroups the slabs without disturbing each
    slab's value order, and the same run repair as :func:`_stable_argsort`
    restores exact stability among equal values inside a slab.

    ``seg_ids`` must be non-decreasing (slab blocks in position order) —
    the regrouped id sequence then equals ``seg_ids`` itself, which the
    tie detection exploits to skip a gather.
    """
    perm = np.argsort(values)
    perm = perm[np.argsort(seg_ids[perm], kind="stable")]
    sorted_vals = values[perm]
    eq = (sorted_vals[1:] == sorted_vals[:-1]) & (seg_ids[1:] == seg_ids[:-1])
    if eq.any():
        run_id = np.cumsum(np.concatenate(([True], ~eq)))
        perm = perm[np.lexsort((perm, run_id))]
    return perm


class _BuildScratch:
    """Reusable per-level temporaries for one :func:`str_order` call.

    The level loop churns through ~n-element gathers and index matrices
    at every axis; above glibc's mmap threshold each would be a fresh
    mmap + page-fault + munmap cycle, which shows up as several percent
    of the whole build.  One allocation per buffer, sliced per level,
    removes that churn.
    """

    __slots__ = ("column", "vals", "sorted_vals", "rows", "src", "gathered")

    def __init__(self, n: int) -> None:
        self.column = np.empty(n, dtype=np.float64)
        self.vals = np.empty(n, dtype=np.float64)
        self.sorted_vals = np.empty(n, dtype=np.float64)
        self.rows = np.empty(n, dtype=np.int64)
        self.src = np.empty(n, dtype=np.int64)
        self.gathered = np.empty(n, dtype=np.int64)


def _sort_level_batched(
    order: np.ndarray,
    column: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    scratch: _BuildScratch,
) -> None:
    """Stable-sort every slab of one level, batched by slab length.

    ``column`` is the level's axis coordinate gathered in current
    ``order`` positions, ``starts``/``lengths`` the slab spans.  Slabs of
    equal length are stacked into an (m, w) matrix and sorted with one
    row-wise introsort; rows with equal-value runs (rare) are repaired
    individually to exact stability.  ``order`` is updated in place.
    """
    for width in np.unique(lengths):
        w = int(width)
        seg_starts = starts[lengths == width]
        m = seg_starts.shape[0]
        rows = scratch.rows[: m * w].reshape(m, w)
        np.add(seg_starts[:, None], np.arange(w), out=rows)
        vals = scratch.vals[: m * w].reshape(m, w)
        np.take(column, rows, out=vals)
        idx = np.argsort(vals, axis=1)
        src = scratch.src[: m * w].reshape(m, w)
        if w > 1:
            # Row-flattened take stands in for take_along_axis (no out=).
            np.add(idx, (np.arange(m) * w)[:, None], out=src)
            sorted_vals = scratch.sorted_vals[: m * w].reshape(m, w)
            np.take(vals.reshape(-1), src.reshape(-1),
                    out=sorted_vals.reshape(-1))
            tied = (sorted_vals[:, 1:] == sorted_vals[:, :-1]).any(axis=1)
            for r in np.flatnonzero(tied):
                idx[r] = _stable_argsort(vals[r])
        np.add(seg_starts[:, None], idx, out=src)
        gathered = scratch.gathered[: m * w]
        np.take(order, src.reshape(-1), out=gathered)
        order[rows.reshape(-1)] = gathered


def str_order(points: np.ndarray, max_entries: int = 32) -> np.ndarray:
    """Sort-Tile-Recursive ordering of ``points``, computed iteratively.

    Returns exactly the permutation
    ``RStarTree._str_order(points, arange(n), 0)`` produces, without
    recursion: the slab tree is processed level by level, and every slab
    active at an axis is sorted by that axis — individually while slabs
    are few, batched by length once they are many.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, dim = points.shape
    order = np.arange(n, dtype=np.int64)
    if n == 0:
        return order
    # One transposed copy up front: every level reads a single axis for
    # (nearly) all points, and gathering from a contiguous per-axis row
    # is much kinder to the cache than striding across the (n, K) matrix.
    columns = np.ascontiguousarray(points.T)
    scratch = _BuildScratch(n)
    # Active slabs as [start, end) spans of ``order``; every span entering
    # axis ``a`` is sorted by coordinate ``a`` (the recursion sorts at
    # entry whether or not it then splits).
    segments: List[Tuple[int, int]] = [(0, n)]
    for axis in range(dim):
        col = columns[axis]
        if axis == 0:
            # ``order`` is still the identity: the argsort *is* the order.
            order = _stable_argsort(col, scratch.sorted_vals)
        elif len(segments) < _GROUPED_SORT_MIN_SEGMENTS:
            for s, e in segments:
                sub = order[s:e]
                vals = scratch.vals[: e - s]
                np.take(col, sub, out=vals)
                np.take(sub, _stable_argsort(vals, scratch.sorted_vals),
                        out=order[s:e])
        else:
            starts = np.fromiter(
                (s for s, _ in segments), dtype=np.int64, count=len(segments)
            )
            ends = np.fromiter(
                (e for _, e in segments), dtype=np.int64, count=len(segments)
            )
            lengths = ends - starts
            if np.unique(lengths).shape[0] <= _MAX_DISTINCT_WIDTHS:
                # Position-space view of the axis: slab rows index it
                # absolutely, so terminal spans interleaved between the
                # active slabs are simply never touched.
                np.take(col, order, out=scratch.column)
                _sort_level_batched(order, scratch.column, starts, lengths,
                                    scratch)
            else:
                # Degenerate width spread: two-pass grouped fallback.
                idx = concat_ranges(starts, ends)
                sub = order[idx]
                # int32 slab ids keep the regroup on numpy's radix path.
                seg_ids = np.repeat(
                    np.arange(len(segments), dtype=np.int32), lengths
                )
                order[idx] = sub[_grouped_stable_argsort(col[sub], seg_ids)]
        if axis >= dim - 1:
            break
        # Split every non-terminal slab with the recursive rule's exact
        # arithmetic (floats and ceils included, so ties break the same).
        next_segments: List[Tuple[int, int]] = []
        for s, e in segments:
            length = e - s
            if length <= max_entries:
                continue
            remaining_dims = dim - axis
            n_leaves = math.ceil(length / max_entries)
            slabs = max(1, math.ceil(n_leaves ** (1.0 / remaining_dims)))
            slab_size = math.ceil(length / slabs)
            for start in range(s, e, slab_size):
                next_segments.append((start, min(start + slab_size, e)))
        if not next_segments:
            break
        segments = next_segments
    return order


def _blocked_min(cat: np.ndarray, block: int) -> np.ndarray:
    """Row-block minimum: ``minimum.reduceat`` at stride ``block``, faster.

    The full blocks reduce through a (m, block, width) reshape — ~3x the
    throughput of ``reduceat`` — and the ragged tail (if any) is one
    extra row.  Exact: ``min`` is ``min`` either way.
    """
    n, width = cat.shape
    full = n // block
    if full == 0:
        return cat.min(axis=0, keepdims=True)
    main = cat[: full * block].reshape(full, block, width).min(axis=1)
    if n - full * block:
        return np.concatenate(
            [main, cat[full * block :].min(axis=0, keepdims=True)]
        )
    return main


def build_flat_str(
    points: np.ndarray,
    ids: Optional[np.ndarray] = None,
    max_entries: int = 32,
) -> FlatRStarTree:
    """Build a :class:`FlatRStarTree` straight from points via STR packing.

    Produces arrays byte-identical to
    ``RStarTree.bulk_load(points, ids, max_entries).freeze()`` without
    materialising a single tree node.  ``ids`` defaults to ``0..n-1``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, dim = points.shape
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if max_entries < 4:
        raise ValueError(f"max_entries must be >= 4, got {max_entries}")
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != n:
            raise ValueError("ids length must match number of points")

    if n == 0:
        # Mirror freezing an empty tree: one empty leaf whose MBR is the
        # identity of min/max (low = +inf stored as-is, -high = +inf).
        return FlatRStarTree.from_build(
            dim=dim,
            count=0,
            height=1,
            levels=[],
            leaf_ptr=np.zeros(2, dtype=np.int64),
            leaf_ids=np.empty(0, dtype=np.int64),
            leaf_cat=np.full((1, 2 * dim), np.inf),
            coords_cat=np.empty((0, 2 * dim), dtype=np.float64),
        )

    order = str_order(points, max_entries)
    # Gather the ordered points directly into the [x, -x] traversal form.
    coords_cat = np.empty((n, 2 * dim), dtype=np.float64)
    coords = coords_cat[:, :dim]
    np.take(points, order, axis=0, out=coords)
    np.negative(coords, out=coords_cat[:, dim:])
    # Default ids are 0..n-1, for which ids[order] is order itself.
    leaf_ids = order if ids is None else ids[order]

    # Leaf level: every run of ``max_entries`` ordered points is one leaf.
    # In concatenated form a *single* min reduction yields the whole MBR:
    # the minimum of [x, -x] over a run is exactly [low, -high].
    starts = np.arange(0, n, max_entries, dtype=np.int64)
    leaf_cat = _blocked_min(coords_cat, max_entries)
    leaf_ptr = np.append(starts, np.int64(n))

    # Internal levels bottom-up: each is the ``max_entries``-stride
    # reduction of the level below, with arithmetic CSR child blocks.
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    cat = leaf_cat
    count = starts.shape[0]
    height = 1
    while count > 1:
        parent_starts = np.arange(0, count, max_entries, dtype=np.int64)
        cat = _blocked_min(cat, max_entries)
        child_end = np.minimum(parent_starts + max_entries, count)
        levels.append((cat, parent_starts, child_end))
        count = parent_starts.shape[0]
        height += 1
    levels.reverse()  # FlatRStarTree stores levels root-first

    return FlatRStarTree.from_build(
        dim=dim,
        count=n,
        height=height,
        levels=levels,
        leaf_ptr=leaf_ptr,
        leaf_ids=leaf_ids,
        leaf_cat=leaf_cat,
        coords_cat=coords_cat,
    )
