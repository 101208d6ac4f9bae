"""An in-memory R*-tree over K-dimensional points.

This is the multi-dimensional index DB-LSH builds per projected space
(§IV-B).  It implements the full R*-tree of Beckmann et al.:

* **ChooseSubtree** — minimum overlap enlargement at the leaf level,
  minimum area enlargement above it;
* **R\\* split** — axis chosen by minimum margin sum, distribution chosen
  by minimum overlap then minimum area;
* **forced reinsert** — on first overflow per level per insertion, the 30%
  of entries farthest from the node centre are reinserted;
* **STR bulk loading** — Sort-Tile-Recursive packing, the strategy §VI-B1
  credits for DB-LSH's smallest indexing time;
* **window queries** — both a materialised form and an *incremental
  generator*, which is what lets Algorithm 1 stop after ``2tL + k``
  verified candidates without scanning the rest of the window.

Points are referenced by integer ids; leaf nodes store their coordinates
so window filtering is a single vectorised comparison.

For query-heavy workloads the pointer-based traversal can be frozen into
the contiguous array form of :class:`repro.index.flat.FlatRStarTree` via
:meth:`RStarTree.freeze`; the frozen form answers the same window queries
with level-wise vectorised masks (one numpy call per level instead of one
Python iteration per node) and is what the DB-LSH ``rstar`` backend
queries by default.  The freeze is a snapshot: after further ``insert``
calls it must be taken again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.index.mbr import MBR, points_in_window_mask, windows_intersect_mask

_REINSERT_FRACTION = 0.3

#: R* split evaluates candidate distributions along every axis — O(K) work
#: per axis.  Beyond this many dimensions (theory-derived K can reach the
#: thousands) only the widest axes are swept; the margin criterion favours
#: wide axes anyway, and the cap keeps inserts O(K) instead of O(K^2).
_MAX_SPLIT_AXES = 32


def _log_areas(extents: np.ndarray) -> np.ndarray:
    """Row-wise log-domain areas: sums of log extents (zero extent -> -inf).

    Hyperrectangle area products overflow float64 once the dimensionality
    times the mean log extent passes ~709; the log-domain form never does,
    and as a *sort key* it orders identically (log is monotone).
    """
    with np.errstate(divide="ignore"):
        return np.sum(np.log(extents), axis=1)


def _finite_max(values: np.ndarray) -> float:
    """Largest finite entry, or 0.0 when every entry is infinite."""
    finite = values[np.isfinite(values)]
    return float(finite.max()) if finite.size else 0.0


@dataclass
class RTreeStats:
    """Work counters exposed for hardware-independent cost accounting."""

    node_visits: int = 0
    leaf_visits: int = 0
    points_scanned: int = 0
    splits: int = 0
    reinserts: int = 0

    def reset_query_counters(self) -> None:
        """Zero the per-query counters (build counters are preserved)."""
        self.node_visits = 0
        self.leaf_visits = 0
        self.points_scanned = 0


class _Node:
    """Tree node; ``level == 0`` marks a leaf."""

    __slots__ = ("level", "ids", "coords", "children", "low", "high")

    def __init__(self, level: int, dim: int) -> None:
        self.level = level
        self.ids: np.ndarray = np.empty(0, dtype=np.int64)
        self.coords: np.ndarray = np.empty((0, dim), dtype=np.float64)
        self.children: List["_Node"] = []
        self.low = np.full(dim, np.inf)
        self.high = np.full(dim, -np.inf)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def size(self) -> int:
        return len(self.ids) if self.is_leaf else len(self.children)

    def mbr(self) -> MBR:
        return MBR(self.low.copy(), self.high.copy())

    def refresh_bounds(self) -> None:
        """Recompute this node's MBR from its entries."""
        if self.is_leaf:
            if len(self.ids) == 0:
                self.low.fill(np.inf)
                self.high.fill(-np.inf)
            else:
                self.low = self.coords.min(axis=0)
                self.high = self.coords.max(axis=0)
        else:
            lows = np.stack([c.low for c in self.children])
            highs = np.stack([c.high for c in self.children])
            self.low = lows.min(axis=0)
            self.high = highs.max(axis=0)

    def child_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        lows = np.stack([c.low for c in self.children])
        highs = np.stack([c.high for c in self.children])
        return lows, highs


class RStarTree:
    """R*-tree supporting insertion, STR bulk loading and window queries.

    Parameters
    ----------
    dim:
        Dimensionality of the indexed points (the (K, L)-index's ``K``).
    max_entries:
        Node capacity ``M``; ``min_entries`` defaults to ``0.4 * M`` as in
        the R*-tree paper.
    """

    def __init__(self, dim: int, max_entries: int = 32, min_entries: Optional[int] = None) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self.dim = int(dim)
        self.max_entries = int(max_entries)
        self.min_entries = int(min_entries) if min_entries is not None else max(
            2, int(0.4 * max_entries)
        )
        if self.min_entries > self.max_entries // 2:
            self.min_entries = self.max_entries // 2
        self.root = _Node(0, self.dim)
        self.count = 0
        self.stats = RTreeStats()

    # ------------------------------------------------------------------
    # Bulk loading (STR)
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        points: np.ndarray,
        ids: Optional[np.ndarray] = None,
        max_entries: int = 32,
    ) -> "RStarTree":
        """Build a packed tree with Sort-Tile-Recursive loading.

        ``points`` is an (n, K) array; ``ids`` defaults to ``0..n-1``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n, dim = points.shape
        tree = cls(dim, max_entries=max_entries)
        if n == 0:
            return tree
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape[0] != n:
                raise ValueError("ids length must match number of points")

        order = tree._str_order(points, np.arange(n), 0)
        leaf_cap = tree.max_entries
        leaves: List[_Node] = []
        for start in range(0, n, leaf_cap):
            chunk = order[start : start + leaf_cap]
            leaf = _Node(0, dim)
            leaf.ids = ids[chunk].copy()
            leaf.coords = points[chunk].copy()
            leaf.refresh_bounds()
            leaves.append(leaf)

        level = 0
        nodes = leaves
        while len(nodes) > 1:
            level += 1
            parents: List[_Node] = []
            for start in range(0, len(nodes), tree.max_entries):
                parent = _Node(level, dim)
                parent.children = nodes[start : start + tree.max_entries]
                parent.refresh_bounds()
                parents.append(parent)
            nodes = parents
        tree.root = nodes[0]
        tree.count = n
        return tree

    def _str_order(self, points: np.ndarray, subset: np.ndarray, axis: int) -> np.ndarray:
        """Recursive STR ordering of ``subset`` starting at ``axis``."""
        if axis >= self.dim - 1 or len(subset) <= self.max_entries:
            return subset[np.argsort(points[subset, axis], kind="stable")]
        remaining_dims = self.dim - axis
        n_leaves = math.ceil(len(subset) / self.max_entries)
        slabs = max(1, math.ceil(n_leaves ** (1.0 / remaining_dims)))
        slab_size = math.ceil(len(subset) / slabs)
        ordered = subset[np.argsort(points[subset, axis], kind="stable")]
        pieces = [
            self._str_order(points, ordered[start : start + slab_size], axis + 1)
            for start in range(0, len(ordered), slab_size)
        ]
        return np.concatenate(pieces)

    # ------------------------------------------------------------------
    # Insertion (R* heuristics)
    # ------------------------------------------------------------------

    def insert(self, point_id: int, point: np.ndarray) -> None:
        """Insert one point with the full R* heuristics."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if point.shape[0] != self.dim:
            raise ValueError(f"point has dimension {point.shape[0]}, expected {self.dim}")
        # Levels that have already done a forced reinsert this insertion.
        overflowed_levels: set = set()
        self._insert_point(int(point_id), point, overflowed_levels)
        self.count += 1

    def _insert_point(self, point_id: int, point: np.ndarray, overflowed: set) -> None:
        path = self._choose_path(point, target_level=0)
        leaf = path[-1]
        leaf.ids = np.append(leaf.ids, np.int64(point_id))
        leaf.coords = np.vstack([leaf.coords, point[None, :]])
        leaf.low = np.minimum(leaf.low, point)
        leaf.high = np.maximum(leaf.high, point)
        self._propagate_bounds(path)
        if leaf.size() > self.max_entries:
            self._overflow_treatment(path, overflowed)

    def _insert_node(self, node: _Node, overflowed: set) -> None:
        """Reinsert a subtree at its original level (internal reinserts)."""
        path = self._choose_path_mbr(node.mbr(), target_level=node.level + 1)
        parent = path[-1]
        parent.children.append(node)
        parent.low = np.minimum(parent.low, node.low)
        parent.high = np.maximum(parent.high, node.high)
        self._propagate_bounds(path)
        if parent.size() > self.max_entries:
            self._overflow_treatment(path, overflowed)

    def _choose_path(self, point: np.ndarray, target_level: int) -> List[_Node]:
        box = MBR(point.copy(), point.copy())
        return self._choose_path_mbr(box, target_level)

    def _choose_path_mbr(self, box: MBR, target_level: int) -> List[_Node]:
        """Descend from root to a node at ``target_level``, R*-style."""
        node = self.root
        path = [node]
        while node.level > target_level:
            node = self._choose_subtree(node, box)
            path.append(node)
        return path

    def _choose_subtree(self, node: _Node, box: MBR) -> _Node:
        """Vectorised R* ChooseSubtree over the node's stacked child bounds."""
        lows, highs = node.child_bounds()  # (m, K) each
        enlarged_low = np.minimum(lows, box.low)
        enlarged_high = np.maximum(highs, box.high)
        with np.errstate(over="ignore", invalid="ignore"):
            areas = np.prod(highs - lows, axis=1)
            enlarged_areas = np.prod(enlarged_high - enlarged_low, axis=1)
        log_domain = not (
            np.isfinite(areas).all() and np.isfinite(enlarged_areas).all()
        )
        if log_domain:
            # Linear area products overflowed (large-K trees); switch every
            # key to the log domain.  The area key orders identically, and
            # the enlargement differences are formed at a shared scale
            # exp(-s) — a positive common factor preserving their order.
            areas = _log_areas(highs - lows)
            enlarged_log = _log_areas(enlarged_high - enlarged_low)
            scale = _finite_max(enlarged_log)
            enlargement = np.exp(enlarged_log - scale) - np.exp(areas - scale)
        else:
            enlargement = enlarged_areas - areas
        if node.level == 1:
            # Children are leaves: minimise overlap enlargement first.
            overlap_delta = self._overlap_deltas(
                lows, highs, enlarged_low, enlarged_high, log_domain
            )
            best = int(np.lexsort((areas, enlargement, overlap_delta))[0])
        else:
            best = int(np.lexsort((areas, enlargement))[0])
        return node.children[best]

    @staticmethod
    def _overlap_deltas(
        lows: np.ndarray,
        highs: np.ndarray,
        enlarged_low: np.ndarray,
        enlarged_high: np.ndarray,
        log_domain: bool,
    ) -> np.ndarray:
        """Overlap-sum enlargement of inserting into each child.

        With ``log_domain`` the pairwise overlap areas are exponentiated at
        a shared scale before summing (overlap is bounded by the enlarged
        areas, so whenever those were finite the linear path is exact and
        is taken unchanged).
        """
        m = lows.shape[0]
        overlap_delta = np.empty(m)
        if not log_domain:
            for i in range(m):
                before = np.prod(
                    np.clip(np.minimum(highs[i], highs) - np.maximum(lows[i], lows),
                            0.0, None),
                    axis=1,
                )
                after = np.prod(
                    np.clip(
                        np.minimum(enlarged_high[i], highs)
                        - np.maximum(enlarged_low[i], lows),
                        0.0,
                        None,
                    ),
                    axis=1,
                )
                before[i] = after[i] = 0.0
                overlap_delta[i] = after.sum() - before.sum()
            return overlap_delta
        log_before = np.empty((m, m))
        log_after = np.empty((m, m))
        for i in range(m):
            log_before[i] = _log_areas(
                np.clip(np.minimum(highs[i], highs) - np.maximum(lows[i], lows),
                        0.0, None)
            )
            log_after[i] = _log_areas(
                np.clip(
                    np.minimum(enlarged_high[i], highs)
                    - np.maximum(enlarged_low[i], lows),
                    0.0,
                    None,
                )
            )
            log_before[i, i] = log_after[i, i] = -np.inf
        scale = _finite_max(log_after)
        return (
            np.exp(log_after - scale).sum(axis=1)
            - np.exp(log_before - scale).sum(axis=1)
        )

    def _propagate_bounds(self, path: List[_Node]) -> None:
        for node in reversed(path):
            node.refresh_bounds()

    def _overflow_treatment(self, path: List[_Node], overflowed: set) -> None:
        node = path[-1]
        if node is not self.root and node.level not in overflowed:
            overflowed.add(node.level)
            self._forced_reinsert(path, overflowed)
        else:
            self._split(path, overflowed)

    def _forced_reinsert(self, path: List[_Node], overflowed: set) -> None:
        node = path[-1]
        self.stats.reinserts += 1
        center = 0.5 * (node.low + node.high)
        p = max(1, int(_REINSERT_FRACTION * node.size()))
        if node.is_leaf:
            dist = np.linalg.norm(node.coords - center, axis=1)
            far = np.argsort(dist)[::-1][:p]
            keep = np.setdiff1d(np.arange(node.size()), far)
            removed = [(int(node.ids[i]), node.coords[i].copy()) for i in far]
            node.ids = node.ids[keep]
            node.coords = node.coords[keep]
            node.refresh_bounds()
            self._propagate_bounds(path)
            for point_id, point in removed:
                self._insert_point(point_id, point, overflowed)
        else:
            centers = np.stack([0.5 * (c.low + c.high) for c in node.children])
            dist = np.linalg.norm(centers - center, axis=1)
            far = set(np.argsort(dist)[::-1][:p].tolist())
            removed_nodes = [c for i, c in enumerate(node.children) if i in far]
            node.children = [c for i, c in enumerate(node.children) if i not in far]
            node.refresh_bounds()
            self._propagate_bounds(path)
            for child in removed_nodes:
                self._insert_node(child, overflowed)

    def _split(self, path: List[_Node], overflowed: set) -> None:
        node = path[-1]
        self.stats.splits += 1
        left, right = self._rstar_split(node)
        if node is self.root:
            new_root = _Node(node.level + 1, self.dim)
            new_root.children = [left, right]
            new_root.refresh_bounds()
            self.root = new_root
            return
        parent = path[-2]
        parent.children.remove(node)
        parent.children.extend([left, right])
        self._propagate_bounds(path[:-1])
        if parent.size() > self.max_entries:
            self._overflow_treatment(path[:-1], overflowed)

    def _rstar_split(self, node: _Node) -> Tuple[_Node, _Node]:
        """R* split: min-margin axis, then min-overlap distribution.

        All candidate distributions are evaluated with prefix/suffix
        running bounds (``np.minimum.accumulate``), so the whole split
        decision costs O(M * K) numpy work instead of O(M^2 * K) python
        loops.  Distributions follow the low-value ordering per axis (the
        classic simplification of the R* paper's low+high orderings).
        """
        m = self.min_entries
        if node.is_leaf:
            entry_lows = node.coords
            entry_highs = node.coords
        else:
            entry_lows = np.stack([c.low for c in node.children])
            entry_highs = np.stack([c.high for c in node.children])
        total = entry_lows.shape[0]
        splits = np.arange(m, total - m + 1)

        def split_tables(order: np.ndarray):
            sl, sh = entry_lows[order], entry_highs[order]
            pref_low = np.minimum.accumulate(sl, axis=0)
            pref_high = np.maximum.accumulate(sh, axis=0)
            suff_low = np.minimum.accumulate(sl[::-1], axis=0)[::-1]
            suff_high = np.maximum.accumulate(sh[::-1], axis=0)[::-1]
            # Row s of each table describes the split "first s+? entries".
            left_low, left_high = pref_low[splits - 1], pref_high[splits - 1]
            right_low, right_high = suff_low[splits], suff_high[splits]
            return left_low, left_high, right_low, right_high

        if self.dim <= _MAX_SPLIT_AXES:
            axes = range(self.dim)
        else:
            # Large-K safeguard: sweep only the widest axes (ascending for
            # deterministic tie-breaks).  The margin criterion below picks
            # a wide axis in practice, and the full sweep would make every
            # split O(K^2).
            extent = entry_highs.max(axis=0) - entry_lows.min(axis=0)
            axes = np.sort(np.argpartition(extent, -_MAX_SPLIT_AXES)[-_MAX_SPLIT_AXES:])

        best_axis, best_axis_margin, axis_orders = 0, math.inf, {}
        for axis in axes:
            order = np.argsort(entry_lows[:, axis], kind="stable")
            axis_orders[axis] = order
            ll, lh, rl, rh = split_tables(order)
            margin_sum = float(np.sum(lh - ll) + np.sum(rh - rl))
            if margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis

        order = axis_orders[best_axis]
        ll, lh, rl, rh = split_tables(order)
        overlap_ext = np.clip(np.minimum(lh, rh) - np.maximum(ll, rl), 0.0, None)
        with np.errstate(over="ignore", invalid="ignore"):
            overlaps = np.prod(overlap_ext, axis=1)
            area_sums = np.prod(lh - ll, axis=1) + np.prod(rh - rl, axis=1)
        if not (np.isfinite(overlaps).all() and np.isfinite(area_sums).all()):
            # Overflowed at large K: compare distributions in the log
            # domain instead (identical orderings, no inf/NaN).
            overlaps = _log_areas(overlap_ext)
            area_sums = np.logaddexp(_log_areas(lh - ll), _log_areas(rh - rl))
        best_split = int(splits[np.lexsort((area_sums, overlaps))[0]])

        left_idx, right_idx = order[:best_split], order[best_split:]
        left = _Node(node.level, self.dim)
        right = _Node(node.level, self.dim)
        if node.is_leaf:
            left.ids, left.coords = node.ids[left_idx], node.coords[left_idx]
            right.ids, right.coords = node.ids[right_idx], node.coords[right_idx]
        else:
            left.children = [node.children[i] for i in left_idx]
            right.children = [node.children[i] for i in right_idx]
        left.refresh_bounds()
        right.refresh_bounds()
        return left, right

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------

    def window_query(self, w_low: np.ndarray, w_high: np.ndarray) -> np.ndarray:
        """All point ids inside ``[w_low, w_high]`` (inclusive)."""
        chunks = list(self.window_query_iter(w_low, w_high))
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def window_query_iter(
        self, w_low: np.ndarray, w_high: np.ndarray
    ) -> Iterator[np.ndarray]:
        """Stream ids inside the window, one leaf-chunk at a time.

        Lazy evaluation is what gives Algorithm 1 its early termination:
        the caller stops consuming as soon as ``2tL + k`` candidates have
        been verified, and untouched subtrees are never visited.
        """
        w_low = np.asarray(w_low, dtype=np.float64).reshape(-1)
        w_high = np.asarray(w_high, dtype=np.float64).reshape(-1)
        if w_low.shape[0] != self.dim or w_high.shape[0] != self.dim:
            raise ValueError("window bounds must match tree dimensionality")
        if self.count == 0:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.stats.node_visits += 1
            if node.is_leaf:
                self.stats.leaf_visits += 1
                self.stats.points_scanned += node.size()
                if node.size() == 0:
                    continue
                mask = points_in_window_mask(node.coords, w_low, w_high)
                if mask.any():
                    yield node.ids[mask]
            else:
                lows, highs = node.child_bounds()
                mask = windows_intersect_mask(lows, highs, w_low, w_high)
                for i in np.flatnonzero(mask):
                    stack.append(node.children[i])

    def window_count(self, w_low: np.ndarray, w_high: np.ndarray) -> int:
        """Number of points inside the window."""
        return sum(len(chunk) for chunk in self.window_query_iter(w_low, w_high))

    def freeze(self):
        """Snapshot into a :class:`~repro.index.flat.FlatRStarTree`.

        The frozen form answers the same window queries with level-wise
        vectorised masks; it does not track subsequent ``insert`` calls.
        """
        from repro.index.flat import FlatRStarTree

        return FlatRStarTree(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return self.root.level + 1

    def num_nodes(self) -> int:
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return total

    def all_ids(self) -> np.ndarray:
        """Every stored id (order unspecified); used by invariant tests."""
        collected = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.size():
                    collected.append(node.ids)
            else:
                stack.extend(node.children)
        if not collected:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(collected)

    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated.

        Checks bounding-box containment, node occupancy and level
        consistency; used heavily by the property-based tests.
        """
        stack = [(self.root, True)]
        while stack:
            node, is_root = stack.pop()
            size = node.size()
            if not is_root:
                if size < self.min_entries:
                    raise AssertionError(
                        f"underfull node: {size} < min_entries {self.min_entries}"
                    )
            if size > self.max_entries:
                raise AssertionError(f"overfull node: {size} > {self.max_entries}")
            if node.is_leaf:
                if size:
                    if not (np.all(node.coords >= node.low) and np.all(node.coords <= node.high)):
                        raise AssertionError("leaf MBR does not contain its points")
            else:
                for child in node.children:
                    if child.level != node.level - 1:
                        raise AssertionError("child level mismatch")
                    if np.any(child.low < node.low) or np.any(child.high > node.high):
                        raise AssertionError("parent MBR does not contain child MBR")
                    stack.append((child, False))
