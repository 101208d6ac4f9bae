"""Flattened, array-backed traversal form of the R*-tree.

The pointer-chasing :class:`~repro.index.rstar.RStarTree` traversal costs
one Python iteration (plus several small numpy calls) per node — for the
window queries DB-LSH issues at every radius, interpreter overhead
dominates the geometry.  :class:`FlatRStarTree` freezes a built tree into
contiguous arrays and answers the same window queries with one vectorised
mask per *level* instead of per node:

* each internal level stores its nodes' MBRs as stacked ``low`` / ``high``
  matrices plus a CSR-style ``child_start`` / ``child_end`` pair mapping a
  node to the contiguous block of its children on the next level (the
  nodes are laid out in BFS order, which makes every child block
  contiguous);
* the leaf level stores stacked leaf MBRs, a ``leaf_ptr`` offset array,
  and the concatenated per-leaf id / coordinate arrays.

``window_query_iter`` descends level-by-level — intersect the frontier's
MBRs against the window in one vectorised comparison, expand the
surviving nodes' child ranges, repeat — then lazily yields the matching
ids of the surviving leaves in chunks.  Laziness preserves the
incremental-generator contract Algorithm 1 needs: a caller that stops
after ``2tL + k`` verified candidates never pays for the remaining leaf
scans (the level-wise internal descent is eager, but internal nodes are a
~1/M fraction of the tree).

Chunks enumerate candidates in exactly the order the pointer-based
``RStarTree.window_query_iter`` produces them (its explicit stack visits
children last-to-first, i.e. descending BFS order), so the two traversals
are drop-in interchangeable even where candidate *order* matters —
budget-truncated queries return identical results on either path.

The freeze is traversal-only: the source tree remains the mutable,
insertable structure, and must be re-frozen after updates (see
``RStarTree.freeze``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.index.rstar import RStarTree, RTreeStats

#: Maximum number of points per yielded chunk (merged across leaves).
DEFAULT_CHUNK_POINTS = 4096

#: First-chunk target; subsequent chunks double up to ``chunk_points``.
_INITIAL_CHUNK_POINTS = 256


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


class FlatRStarTree:
    """Frozen array-backed form of a built :class:`RStarTree`.

    Supports the read-only query surface (window queries, id enumeration);
    mutation stays on the source tree.
    """

    __slots__ = (
        "dim",
        "count",
        "height",
        "stats",
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
        self.stats = RTreeStats()

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
            # test becomes a single compare-and-reduce (see _window_cat).
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
    # Serialization
    # ------------------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The frozen traversal as a flat dict of numpy arrays.

        Everything needed to answer window queries is captured:
        per-internal-level ``[low, -high]`` matrices and CSR child ranges,
        the leaf MBRs, pointers, ids and the pre-mirrored ``[x, -x]``
        coordinates (``coords_cat``) the engine scans, so
        :meth:`from_arrays` adopts every member without a copy.  Scalar
        shape metadata rides along as a small int64 ``meta`` array.
        """
        arrays: Dict[str, np.ndarray] = {
            "meta": np.array(
                [self.dim, self.count, self.height, self.chunk_points, len(self._levels)],
                dtype=np.int64,
            ),
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
    ) -> "FlatRStarTree":
        """Adopt arrays produced by an array-native builder (no tree walk).

        ``levels`` is the root-first ``(cat, child_start, child_end)``
        list, ``leaf_cat`` the stacked ``[low, -high]`` leaf MBRs and
        ``coords_cat`` the concatenated per-leaf coordinates already in
        ``[x, -x]`` mirrored form.  Used by
        :func:`repro.index.str_build.build_flat_str`, which constructs
        these arrays straight from the points being packed.
        """
        if chunk_points < 1:
            raise ValueError(f"chunk_points must be >= 1, got {chunk_points}")
        flat = cls.__new__(cls)
        flat.dim = int(dim)
        flat.count = int(count)
        flat.height = int(height)
        flat.chunk_points = int(chunk_points)
        flat.stats = RTreeStats()
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
        flat = cls.__new__(cls)
        flat.dim = dim
        flat.count = count
        flat.height = height
        flat.chunk_points = max(1, chunk_points)
        flat.stats = RTreeStats()
        flat._levels = [
            (
                np.ascontiguousarray(arrays[f"level{j}_cat"], dtype=np.float64),
                np.ascontiguousarray(arrays[f"level{j}_start"], dtype=np.int64),
                np.ascontiguousarray(arrays[f"level{j}_end"], dtype=np.int64),
            )
            for j in range(n_levels)
        ]
        flat.leaf_ptr = np.ascontiguousarray(arrays["leaf_ptr"], dtype=np.int64)
        flat.leaf_ids = np.ascontiguousarray(arrays["leaf_ids"], dtype=np.int64)
        flat._leaf_cat = np.ascontiguousarray(arrays["leaf_cat"], dtype=np.float64)
        flat._coords_cat = np.ascontiguousarray(arrays["coords_cat"], dtype=np.float64)
        return flat

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------

    def _candidate_leaves(self, w_cat: np.ndarray) -> np.ndarray:
        """Leaf indices reachable through intersecting internal MBRs.

        Runs the level-wise vectorised descent over the *internal* levels
        only; the (more numerous) leaf MBRs are tested lazily per chunk by
        :meth:`window_query_iter`, so a consumer that stops early never
        pays for them.  ``w_cat`` is the window in concatenated
        ``[w_high, -w_low]`` form: a stored box ``[low, -high]`` meets the
        window iff every component is ``<= w_cat``.
        """
        frontier: np.ndarray | None = None
        for cat, starts, ends in self._levels:
            if frontier is None:  # root level: test every (single) node
                hit = np.flatnonzero((cat <= w_cat).all(axis=1))
            else:
                hit = frontier[(cat[frontier] <= w_cat).all(axis=1)]
            self.stats.node_visits += int(hit.shape[0])
            if hit.shape[0] == 0:
                return np.empty(0, dtype=np.int64)
            frontier = concat_ranges(starts[hit], ends[hit])
        if frontier is None:  # the root itself is the only leaf
            frontier = np.arange(self.num_leaves, dtype=np.int64)
        return frontier

    def window_query_iter(
        self, w_low: np.ndarray, w_high: np.ndarray, first_chunk: Optional[int] = None
    ) -> Iterator[np.ndarray]:
        """Stream ids inside the window in geometrically growing chunks.

        Chunk *contents* follow the pointer-based traversal's candidate
        order (descending leaf, ascending within each leaf); only the
        chunk boundaries differ (merged leaf spans instead of single
        leaves).  Chunks start at ``first_chunk`` points (default
        ``_INITIAL_CHUNK_POINTS``) and double up to ``chunk_points``, so a
        consumer that knows how much it can still verify — DB-LSH passes
        its remaining candidate budget — wastes at most ~2x its
        consumption while full scans proceed in large vectorised strides.
        """
        w_low = np.asarray(w_low, dtype=np.float64).reshape(-1)
        w_high = np.asarray(w_high, dtype=np.float64).reshape(-1)
        if w_low.shape[0] != self.dim or w_high.shape[0] != self.dim:
            raise ValueError("window bounds must match tree dimensionality")
        if self.count == 0:
            return
        # Concatenated forms: box-meets-window and point-in-window each
        # become one compare-and-reduce against the stored [x, -x] arrays.
        w_cat = np.concatenate([w_high, -w_low])
        w_pt = np.concatenate([w_low, -w_high])
        candidates = self._candidate_leaves(w_cat)
        if candidates.shape[0] == 0:
            return
        order = candidates[::-1]  # match the stack traversal's LIFO leaf order
        leaf_ptr = self.leaf_ptr
        cum = np.cumsum(leaf_ptr[order + 1] - leaf_ptr[order])
        pos = 0
        n_leaves = order.shape[0]
        if first_chunk is None:
            first_chunk = _INITIAL_CHUNK_POINTS
        target = min(max(int(first_chunk), 1), self.chunk_points)
        while pos < n_leaves:
            base = int(cum[pos - 1]) if pos else 0
            stop = int(np.searchsorted(cum, base + target, side="left"))
            stop = min(max(stop, pos) + 1, n_leaves)
            block = order[pos:stop]
            hit = block[(self._leaf_cat[block] <= w_cat).all(axis=1)]
            self.stats.leaf_visits += int(hit.shape[0])
            if hit.shape[0]:
                idx = concat_ranges(leaf_ptr[hit], leaf_ptr[hit + 1])
                self.stats.points_scanned += int(idx.shape[0])
                mask = (self._coords_cat[idx] >= w_pt).all(axis=1)
                if mask.any():
                    yield self.leaf_ids[idx[mask]]
            pos = stop
            target = min(target * 2, self.chunk_points)

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
