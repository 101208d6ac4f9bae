"""Flattened, array-backed traversal form of the R*-tree, one or many roots.

The pointer-chasing :class:`~repro.index.rstar.RStarTree` traversal costs
one Python iteration (plus several small numpy calls) per node — for the
window queries DB-LSH issues at every radius, interpreter overhead
dominates the geometry.  :class:`FlatRStarTree` freezes built trees into
contiguous arrays and answers window queries with one vectorised mask per
*level* instead of per node:

* each internal level stores its nodes' MBRs as stacked ``[low, -high]``
  rows plus a CSR-style ``child_start`` / ``child_end`` pair mapping a
  node to the contiguous block of its children on the next level (the
  nodes are laid out in BFS order, which makes every child block
  contiguous);
* the leaf level stores stacked leaf MBRs, a ``leaf_ptr`` offset array,
  and the concatenated per-leaf id / ``[x, -x]`` coordinate arrays.

**A forest.**  :meth:`FlatRStarTree.stack` concatenates equal-height trees
level by level into *one* set of arrays with one entry of ``roots`` per
tree — DB-LSH stacks its L projected spaces this way.  Every traversal
starts from a root, so a single tree is simply a forest of one.

Two ways to traverse:

* :meth:`FlatRStarTree.window_scan` answers many (root, window) *pairs*
  at once — DB-LSH's round loop passes every (query, space) pair of a
  radius round.  It returns a :class:`WindowScan`: one compare per
  internal level has tested every frontier (pair, node), and child
  blocks have expanded with one :func:`concat_ranges`.  Chunk streams
  are then drawn for any group of its pairs (:meth:`WindowScan.streams`):
  one compare tests the candidate leaves of the whole group, and the
  point test runs eagerly for each pair's leaves up to that pair's
  ``cap`` points; the remaining leaves are scanned lazily, per pair, in
  chunks that double from ``2 * cap`` up to ``chunk_points``.  Pairs
  that are never drawn cost their descent only.
* :meth:`FlatRStarTree.window_query_iter` streams one root's window —
  a one-pair scan — for the per-candidate reference loop and the tests.

Chunks enumerate candidates in exactly the order the pointer-based
``RStarTree.window_query_iter`` produces them (its explicit stack visits
children last-to-first, i.e. descending BFS order), so the traversals are
drop-in interchangeable even where candidate *order* matters —
budget-truncated queries return identical results on either path.  A
pair's chunk boundaries depend only on its root, its window and its cap,
never on the other pairs scanned or drawn with it.

The freeze is traversal-only: the source tree remains the mutable,
insertable structure, and must be re-frozen after updates (see
``RStarTree.freeze``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.index.rstar import RStarTree

#: Maximum number of points per yielded chunk (merged across leaves).
DEFAULT_CHUNK_POINTS = 4096

#: Rows per slice of the eager point test: the gathered coordinates and
#: windows of one slice stay cache-resident and small (a whole round's
#: points in one pass took 4x longer on the pinned benchmark shape).
_POINT_TEST_ROWS = 4096


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, e)`` for each range, fully vectorised.

    ``starts`` / ``ends`` are equal-length int64 arrays; empty ranges are
    allowed.  This is the CSR expansion primitive of the level-wise
    descent (child blocks of the surviving frontier) and of the leaf
    gather (point blocks of the surviving leaves).
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = starts - np.concatenate(([np.int64(0)], np.cumsum(counts)[:-1]))
    return np.repeat(shifts, counts) + np.arange(total, dtype=np.int64)


def rows_all(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)`` of a C-contiguous bool matrix, several times faster.

    numpy reduces a short last axis one row at a time; viewing each row's
    bytes as a few wide words (bools are stored as 0/1 bytes) turns the
    test into a handful of whole-column ANDs.  The ``[low, -high]`` and
    ``[x, -x]`` rows here always have an even width, so at worst the
    words are 2 bytes.
    """
    width = mask.shape[1]
    size = next((s for s in (8, 4, 2) if width % s == 0), 0)
    if size == 0:
        return mask.all(axis=1)
    words = mask.view(np.dtype(f"<u{size}"))
    acc = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        acc &= words[:, j]
    return acc == int.from_bytes(b"\x01" * size, "little")


def _segments(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """CSR bounds of ``keys`` sorted ascending over ``0 .. n_keys-1``."""
    return np.concatenate(
        ([np.int64(0)], np.cumsum(np.bincount(keys, minlength=n_keys)))
    )


class FlatRStarTree:
    """Frozen array-backed form of built :class:`RStarTree` (one or more roots).

    Supports the read-only query surface (window queries, id enumeration);
    mutation stays on the source tree.
    """

    __slots__ = (
        "dim",
        "count",
        "height",
        "roots",
        "_levels",
        "leaf_ptr",
        "leaf_ids",
        "_leaf_cat",
        "_coords_cat",
        "chunk_points",
    )

    def __init__(self, tree: RStarTree, chunk_points: int = DEFAULT_CHUNK_POINTS) -> None:
        if chunk_points < 1:
            raise ValueError(f"chunk_points must be >= 1, got {chunk_points}")
        self.dim = tree.dim
        self.count = tree.count
        self.height = tree.height
        self.chunk_points = int(chunk_points)
        self.roots = np.zeros(1, dtype=np.int64)

        # BFS flattening: children of consecutive parents land consecutively,
        # so each parent's child block is a contiguous [start, end) range.
        nodes = [tree.root]
        levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while not nodes[0].is_leaf:
            lows = np.stack([nd.low for nd in nodes])
            highs = np.stack([nd.high for nd in nodes])
            counts = np.fromiter(
                (len(nd.children) for nd in nodes), dtype=np.int64, count=len(nodes)
            )
            ends = np.cumsum(counts)
            starts = ends - counts
            # ``[low, -high]`` side by side: the two-sided intersection
            # test becomes a single compare-and-reduce (see window_scan).
            levels.append((np.hstack([lows, -highs]), starts, ends))
            nodes = [child for nd in nodes for child in nd.children]
        self._levels = levels

        sizes = np.fromiter(
            (len(nd.ids) for nd in nodes), dtype=np.int64, count=len(nodes)
        )
        self.leaf_ptr = np.concatenate(([np.int64(0)], np.cumsum(sizes)))
        self._leaf_cat = np.hstack(
            [np.stack([nd.low for nd in nodes]), -np.stack([nd.high for nd in nodes])]
        )
        if self.leaf_ptr[-1] > 0:
            self.leaf_ids = np.concatenate([nd.ids for nd in nodes])
            coords = np.concatenate([nd.coords for nd in nodes])
        else:
            self.leaf_ids = np.empty(0, dtype=np.int64)
            coords = np.empty((0, self.dim), dtype=np.float64)
        # Only the concatenated [x, -x] forms are stored; the plain views
        # below slice them back out, so coordinates exist once per sign.
        self._coords_cat = np.hstack([coords, -coords])

    @property
    def leaf_coords(self) -> np.ndarray:
        """Concatenated per-leaf coordinates (a view, no copy)."""
        return self._coords_cat[:, : self.dim]

    @property
    def leaf_low(self) -> np.ndarray:
        """Stacked leaf MBR lower bounds (a view, no copy)."""
        return self._leaf_cat[:, : self.dim]

    @property
    def leaf_high(self) -> np.ndarray:
        """Stacked leaf MBR upper bounds."""
        return -self._leaf_cat[:, self.dim :]

    # ------------------------------------------------------------------
    # Construction from arrays
    # ------------------------------------------------------------------

    @classmethod
    def stack(cls, trees: Sequence["FlatRStarTree"]) -> "FlatRStarTree":
        """One forest holding ``trees`` side by side, one root per tree.

        Level ``j`` of the forest is level ``j`` of every tree in turn,
        child ranges and leaf pointers shifted by the rows of the trees
        before; ``roots[i]`` is tree ``i``'s root.  The trees must share
        ``dim``, ``height`` and ``chunk_points`` — STR packing gives every
        space of a DB-LSH index the same shape, because the shape depends
        only on the point count and the node capacity.
        """
        if not trees:
            raise ValueError("cannot stack an empty list of trees")
        first = trees[0]
        for tree in trees[1:]:
            if (tree.dim, tree.height, tree.chunk_points) != (
                first.dim,
                first.height,
                first.chunk_points,
            ):
                raise ValueError(
                    "stacked trees must share dim, height and chunk_points"
                )
        n_levels = len(first._levels)
        # Row offsets of each tree on every level (internal levels, then leaves).
        sizes = [
            [t._levels[j][0].shape[0] for t in trees] for j in range(n_levels)
        ] + [[t.num_leaves for t in trees]]
        offsets = [np.concatenate(([0], np.cumsum(row)[:-1])) for row in sizes]
        levels = []
        for j in range(n_levels):
            below = offsets[j + 1]
            levels.append(
                (
                    np.concatenate([t._levels[j][0] for t in trees]),
                    np.concatenate([t._levels[j][1] + below[i] for i, t in enumerate(trees)]),
                    np.concatenate([t._levels[j][2] + below[i] for i, t in enumerate(trees)]),
                )
            )
        points = np.concatenate(([0], np.cumsum([t.leaf_ptr[-1] for t in trees])))
        leaf_ptr = np.concatenate(
            [t.leaf_ptr[:-1] + points[i] for i, t in enumerate(trees)]
            + [np.array([points[-1]], dtype=np.int64)]
        )
        return cls.from_build(
            dim=first.dim,
            count=sum(t.count for t in trees),
            height=first.height,
            levels=levels,
            leaf_ptr=leaf_ptr.astype(np.int64),
            leaf_ids=np.concatenate([t.leaf_ids for t in trees]),
            leaf_cat=np.concatenate([t._leaf_cat for t in trees]),
            coords_cat=np.concatenate([t._coords_cat for t in trees]),
            chunk_points=first.chunk_points,
            roots=np.concatenate(
                [t.roots + offsets[0][i] for i, t in enumerate(trees)]
            ).astype(np.int64),
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The frozen traversal as a flat dict of numpy arrays.

        Everything needed to answer window queries is captured: the
        roots, per-internal-level ``[low, -high]`` matrices and CSR child
        ranges, the leaf MBRs, pointers, ids and the pre-mirrored
        ``[x, -x]`` coordinates (``coords_cat``) the engine scans, so
        :meth:`from_arrays` adopts every member without a copy.  Scalar
        shape metadata rides along as a small int64 ``meta`` array.
        """
        arrays: Dict[str, np.ndarray] = {
            "meta": np.array(
                [self.dim, self.count, self.height, self.chunk_points, len(self._levels)],
                dtype=np.int64,
            ),
            "roots": self.roots,
            "leaf_ptr": self.leaf_ptr,
            "leaf_ids": self.leaf_ids,
            "leaf_cat": self._leaf_cat,
            "coords_cat": self._coords_cat,
        }
        for j, (cat, starts, ends) in enumerate(self._levels):
            arrays[f"level{j}_cat"] = cat
            arrays[f"level{j}_start"] = starts
            arrays[f"level{j}_end"] = ends
        return arrays

    @classmethod
    def from_build(
        cls,
        *,
        dim: int,
        count: int,
        height: int,
        levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        leaf_ptr: np.ndarray,
        leaf_ids: np.ndarray,
        leaf_cat: np.ndarray,
        coords_cat: np.ndarray,
        chunk_points: int = DEFAULT_CHUNK_POINTS,
        roots: np.ndarray | None = None,
    ) -> "FlatRStarTree":
        """Adopt arrays produced by an array-native builder (no tree walk).

        ``levels`` is the root-first ``(cat, child_start, child_end)``
        list, ``leaf_cat`` the stacked ``[low, -high]`` leaf MBRs and
        ``coords_cat`` the concatenated per-leaf coordinates already in
        ``[x, -x]`` mirrored form.  ``roots`` defaults to the single root
        ``0``.  Used by :func:`repro.index.str_build.build_flat_str`,
        which constructs these arrays straight from the points being
        packed, and by :meth:`stack`.
        """
        if chunk_points < 1:
            raise ValueError(f"chunk_points must be >= 1, got {chunk_points}")
        flat = cls.__new__(cls)
        flat.dim = int(dim)
        flat.count = int(count)
        flat.height = int(height)
        flat.chunk_points = int(chunk_points)
        flat.roots = np.zeros(1, dtype=np.int64) if roots is None else roots
        flat._levels = list(levels)
        flat.leaf_ptr = leaf_ptr
        flat.leaf_ids = leaf_ids
        flat._leaf_cat = leaf_cat
        flat._coords_cat = coords_cat
        return flat

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "FlatRStarTree":
        """Rebuild a frozen traversal from :meth:`to_arrays` output.

        No tree construction happens and nothing is copied — the arrays
        are adopted as-is, so loading from a mapped arena snapshot costs
        O(1), never an STR bulk load.
        """
        meta = np.asarray(arrays["meta"], dtype=np.int64).reshape(-1)
        if meta.shape[0] != 5:
            raise ValueError("flat-tree meta must have 5 entries")
        dim, count, height, chunk_points, n_levels = (int(v) for v in meta)
        return cls.from_build(
            dim=dim,
            count=count,
            height=height,
            levels=[
                (
                    np.ascontiguousarray(arrays[f"level{j}_cat"], dtype=np.float64),
                    np.ascontiguousarray(arrays[f"level{j}_start"], dtype=np.int64),
                    np.ascontiguousarray(arrays[f"level{j}_end"], dtype=np.int64),
                )
                for j in range(n_levels)
            ],
            leaf_ptr=np.ascontiguousarray(arrays["leaf_ptr"], dtype=np.int64),
            leaf_ids=np.ascontiguousarray(arrays["leaf_ids"], dtype=np.int64),
            leaf_cat=np.ascontiguousarray(arrays["leaf_cat"], dtype=np.float64),
            coords_cat=np.ascontiguousarray(arrays["coords_cat"], dtype=np.float64),
            chunk_points=max(1, chunk_points),
            roots=np.ascontiguousarray(arrays["roots"], dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------

    def window_scan(
        self, roots: np.ndarray, w_low: np.ndarray, w_high: np.ndarray
    ) -> "WindowScan":
        """Descend for many (root, window) pairs at once; see :class:`WindowScan`.

        Pair ``p`` asks for the points under root ``roots[p]`` inside
        ``[w_low[p], w_high[p]]`` (``(P, dim)`` arrays).
        """
        return WindowScan(self, roots, w_low, w_high)

    def _stream(
        self, first: np.ndarray, rest: np.ndarray, w_pt: np.ndarray, target: int
    ) -> Iterator[np.ndarray]:
        """One pair's chunks: the eager first chunk, then ``rest`` lazily.

        ``rest`` holds leaves that already passed the MBR test, in scan
        order; each later chunk covers leaves until it reaches ``target``
        points, and the target doubles up to ``chunk_points``.
        """
        if first.shape[0]:
            yield first
        n_leaves = rest.shape[0]
        if n_leaves == 0:
            return
        ptr = self.leaf_ptr
        idx = concat_ranges(ptr[rest], ptr[rest + 1])
        ends = np.cumsum(ptr[rest + 1] - ptr[rest])  # points up to each leaf
        pos = start = 0
        while pos < n_leaves:
            stop = int(np.searchsorted(ends, start + target, side="left"))
            stop = min(max(stop, pos) + 1, n_leaves)
            end = int(ends[stop - 1])
            part = idx[start:end]
            mask = rows_all(self._coords_cat[part] >= w_pt)
            if mask.any():
                yield self.leaf_ids[part[mask]]
            pos, start = stop, end
            target = min(target * 2, self.chunk_points)

    def window_query_iter(
        self, w_low: np.ndarray, w_high: np.ndarray, root: int = 0
    ) -> Iterator[np.ndarray]:
        """Stream the ids under ``roots[root]`` inside the window, in chunks.

        Chunk *contents* follow the pointer-based traversal's candidate
        order (descending leaf, ascending within each leaf); only the
        chunk boundaries differ (merged leaf spans of up to
        ``chunk_points`` points instead of single leaves).
        """
        w_low = np.asarray(w_low, dtype=np.float64).reshape(1, -1)
        w_high = np.asarray(w_high, dtype=np.float64).reshape(1, -1)
        if w_low.shape[1] != self.dim or w_high.shape[1] != self.dim:
            raise ValueError("window bounds must match tree dimensionality")
        if self.count == 0:
            return
        scan = self.window_scan(self.roots[root : root + 1], w_low, w_high)
        # Start at a sixteenth of a full chunk: a per-candidate consumer
        # often stops within the first few hundred points.
        cap = np.array([max(1, self.chunk_points // 16)], dtype=np.int64)
        streams, _ = scan.streams(np.zeros(1, dtype=np.int64), cap)
        yield from streams[0]

    def window_query(self, w_low: np.ndarray, w_high: np.ndarray) -> np.ndarray:
        """All point ids inside ``[w_low, w_high]`` (inclusive)."""
        chunks = list(self.window_query_iter(w_low, w_high))
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def window_count(self, w_low: np.ndarray, w_high: np.ndarray) -> int:
        """Number of points inside the window."""
        return sum(len(chunk) for chunk in self.window_query_iter(w_low, w_high))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def num_leaves(self) -> int:
        return int(self.leaf_ptr.shape[0] - 1)

    def num_nodes(self) -> int:
        return sum(level[0].shape[0] for level in self._levels) + self.num_leaves

    def all_ids(self) -> np.ndarray:
        """Every stored id (order unspecified); used by invariant tests."""
        return self.leaf_ids.copy()


class WindowScan:
    """Window queries of many (root, window) pairs over one forest.

    Construction descends for every pair together: one compare per
    internal level tests every frontier (pair, node), and child blocks
    expand with one :func:`concat_ranges`.  What is left is each pair's
    candidate leaves, from which :meth:`streams` draws chunk streams for
    any group of pairs — DB-LSH's round loop draws a query's first space
    before its others, so a query that stops early never pays the leaf
    and point tests of the windows it does not reach.
    """

    __slots__ = ("forest", "node_visits", "_w_cat", "_w_pt", "_leaves", "_bounds")

    def __init__(
        self,
        forest: FlatRStarTree,
        roots: np.ndarray,
        w_low: np.ndarray,
        w_high: np.ndarray,
    ) -> None:
        n_pairs = roots.shape[0]
        self.forest = forest
        # Box-meets-window and point-in-window each become one
        # compare-and-reduce against the stored [low, -high] / [x, -x].
        self._w_cat = np.concatenate([w_high, -w_low], axis=1)
        self._w_pt = np.concatenate([w_low, -w_high], axis=1)
        pair = np.arange(n_pairs, dtype=np.int64)
        node = roots
        #: Internal nodes tested per pair; :meth:`streams` reports leaves.
        self.node_visits = np.zeros(n_pairs, dtype=np.int64)
        for cat, starts, ends in forest._levels:
            self.node_visits += np.bincount(pair, minlength=n_pairs)
            hit = rows_all(cat[node] <= self._w_cat[pair])
            pair, node = pair[hit], node[hit]
            lo, hi = starts[node], ends[node]
            node = concat_ranges(lo, hi)
            pair = np.repeat(pair, hi - lo)
        # Candidate leaves grouped by pair, ascending BFS order within a pair.
        self._leaves = node
        self._bounds = _segments(pair, n_pairs)

    def streams(
        self, pairs: np.ndarray, caps: np.ndarray
    ) -> Tuple[List[Iterator[np.ndarray]], np.ndarray]:
        """One chunk stream per entry of ``pairs``, and the leaves each tested.

        The leaf-MBR test runs for the candidate leaves of every listed
        pair together, and so does the point test of each pair's leaves
        up to ``caps[i]`` points (clamped to ``[1, chunk_points]``): that
        is the stream's first chunk.  The stream's remaining leaves are
        scanned lazily when it is consumed, in chunks doubling from
        ``2 * cap``, so a consumer that stops early never pays for them.
        A stream's chunk boundaries depend only on its pair and its cap,
        never on the other pairs drawn with it.
        """
        forest = self.forest
        n = pairs.shape[0]
        caps = np.clip(caps, 1, forest.chunk_points)
        lo, hi = self._bounds[pairs], self._bounds[pairs + 1]
        node = self._leaves[concat_ranges(lo, hi)]
        group = np.repeat(np.arange(n, dtype=np.int64), hi - lo)
        hit = rows_all(forest._leaf_cat[node] <= self._w_cat[pairs[group]])
        # Reversed, each pair's leaves are in the pointer traversal's
        # descending (LIFO) order; ``rank`` flips the group number so the
        # groups run ascending for their CSR bounds.
        leaf = node[hit][::-1]
        group = group[hit][::-1]
        rank = (n - 1) - group
        ptr = forest.leaf_ptr
        sizes = ptr[leaf + 1] - ptr[leaf]
        # A leaf is eager while the points before it in its pair's order
        # stay below the pair's cap (so the first leaf always is).
        csum = np.concatenate(([np.int64(0)], np.cumsum(sizes)))
        bounds = _segments(rank, n)
        eager = csum[:-1] - csum[bounds[rank]] < caps[group]
        first_leaf = leaf[eager]
        idx = concat_ranges(ptr[first_leaf], ptr[first_leaf + 1])
        point_group = np.repeat(group[eager], sizes[eager])
        w_pt = self._w_pt
        inside = np.empty(idx.shape[0], dtype=bool)
        for start in range(0, idx.shape[0], _POINT_TEST_ROWS):
            part = slice(start, start + _POINT_TEST_ROWS)
            inside[part] = rows_all(
                forest._coords_cat[idx[part]] >= w_pt[pairs[point_group[part]]]
            )
        first_ids = forest.leaf_ids[idx[inside]]
        first_bounds = _segments((n - 1) - point_group[inside], n)
        rest_leaf = leaf[~eager]
        rest_bounds = _segments(rank[~eager], n)
        streams = []
        for i in range(n):
            r = n - 1 - i
            streams.append(
                forest._stream(
                    first_ids[first_bounds[r] : first_bounds[r + 1]],
                    rest_leaf[rest_bounds[r] : rest_bounds[r + 1]],
                    w_pt[pairs[i]],
                    min(2 * int(caps[i]), forest.chunk_points),
                )
            )
        return streams, hi - lo
