"""Delta index: the one home of every mutation since the tables were built.

Projected tables answer queries from immutable arrays; mutations land
here instead, both in process (``DBLSH.add`` / ``DBLSH.delete``) and in
the mutable server (:class:`~repro.serve.mutable.MutableSnapshotServer`).
:class:`DeltaIndex` holds two things:

* the **pending rows** — an array-native append buffer of points, their
  squared norms and their *global* ids, swept brute-force with the same
  GEMM verification the probe rounds use (``|x|^2 - 2 x.q + |q|^2`` with
  the catastrophic-cancellation recompute), so a delta answer is exact
  and merges with the tables' answer by plain ``(distance, id)`` order
  (:func:`repro.core.plan.merge_live_results`);
* the **tombstones** — one sorted, unique int64 array of deleted ids.
  The round loop pre-marks them as seen in the tables and
  :meth:`DeltaView.sweep` skips them among its own rows: a deleted row
  simply stops being reportable, wherever it lives.  Rows are never
  renumbered; an id stays valid for the lifetime of the dataset.

Thread-safety contract: the mutators (:meth:`~DeltaIndex.extend`,
:meth:`~DeltaIndex.delete`, :meth:`~DeltaIndex.trim`) and
:meth:`~DeltaIndex.view` must be serialized by the caller (the mutation
lock of :class:`~repro.serve.mutable.MutableSnapshotServer`;
``DBLSH.add`` is not safe to run concurrently with queries), but a
:class:`DeltaView` taken under the lock stays a consistent snapshot
*outside* it: row growth reallocates (the view keeps the old arrays) or
writes past the view's length, and every change to the tombstones or a
trim replaces the arrays rather than editing them, so concurrent
readers never see half-written state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.plan import merge_live_batches
from repro.core.result import Neighbor, QueryResult, QueryStats

__all__ = ["DeltaIndex", "DeltaView", "contains_sorted", "merge_sorted"]

#: Relative tolerance under which a GEMM-expanded squared distance is
#: recomputed exactly: ``|x|^2 - 2 x.q + |q|^2`` cancels catastrophically
#: when the distance is tiny relative to the norms (a self-query would
#: come back ~1e-7 instead of 0).  Shared with the round loop's verifier.
_RECOMPUTE_RTOL = 1e-7

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False

#: Rows a fresh (or freshly trimmed) buffer holds before it first grows.
_CAPACITY = 256


def contains_sorted(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per element of ``ids``: is it in the sorted array ``sorted_ids``?"""
    if not sorted_ids.size:
        return np.zeros(ids.shape, dtype=bool)
    pos = np.searchsorted(sorted_ids, ids)
    np.minimum(pos, sorted_ids.size - 1, out=pos)
    return sorted_ids[pos] == ids


def merge_sorted(sorted_ids: np.ndarray, ids) -> np.ndarray:
    """``sorted_ids`` plus ``ids``: a new sorted, unique, read-only int64 array.

    Only the ids not already present are inserted (at their
    ``searchsorted`` positions), so the cost is one pass over the old
    array however few ids arrive.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    new = np.unique(ids[~contains_sorted(sorted_ids, ids)])
    merged = np.insert(sorted_ids, np.searchsorted(sorted_ids, new), new)
    merged.flags.writeable = False
    return merged


class DeltaView:
    """An immutable snapshot of a :class:`DeltaIndex`.

    Holds read-only views (no copies) of the pending-row prefix and the
    tombstone array at capture time; see the module docstring for why
    those stay consistent under concurrent mutations.
    """

    __slots__ = ("ids", "points", "norms2", "tombstones")

    def __init__(self, ids: np.ndarray, points: np.ndarray,
                 norms2: np.ndarray, tombstones: np.ndarray) -> None:
        self.ids = ids
        self.points = points
        self.norms2 = norms2
        self.tombstones = tombstones

    def __len__(self) -> int:
        return self.ids.shape[0]

    def sweep(self, queries: np.ndarray, k: int) -> List[QueryResult]:
        """Exact top-``k`` of every query over the live buffered rows.

        Parameters
        ----------
        queries:
            ``(m, d)`` query block (already validated by the caller).
        k:
            Neighbors per query.

        Returns
        -------
        list of QueryResult
            Per query: ascending ``(distance, id)`` neighbors carrying
            **global** ids, with ``distance_computations`` /
            ``candidates_verified`` counting the swept rows (the sweep
            is verification work, like the projection pass it replaces —
            it is not charged against any probe budget).  Tombstoned
            rows are skipped entirely (never verified, never reported),
            mirroring how the frozen engine pre-marks them as seen.
        """
        m = queries.shape[0]
        ids, points, norms2 = self.ids, self.points, self.norms2
        if self.tombstones.size:
            keep = ~contains_sorted(self.tombstones, ids)
            ids, points, norms2 = ids[keep], points[keep], norms2[keep]
        if ids.shape[0] == 0:
            return [QueryResult() for _ in range(m)]

        q_norms2 = np.einsum("ij,ij->i", queries, queries)
        d2 = q_norms2[:, None] - 2.0 * (queries @ points.T) + norms2[None, :]
        suspect = d2 < _RECOMPUTE_RTOL * (norms2[None, :] + q_norms2[:, None])
        if suspect.any():
            rows, cols = np.nonzero(suspect)
            diff = points[cols] - queries[rows]
            d2[rows, cols] = np.einsum("ij,ij->i", diff, diff)
        np.maximum(d2, 0.0, out=d2)
        dists = np.sqrt(d2)

        swept = int(ids.shape[0])
        # Every row tied with a query's k-th distance competes on id.
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k] if k < swept else np.inf
        within = dists <= kth
        results: List[QueryResult] = []
        for qi in range(m):
            row = dists[qi]
            top = np.flatnonzero(within[qi])
            picked = top[np.lexsort((ids[top], row[top]))][:k]
            neighbors = [Neighbor(int(ids[j]), float(row[j])) for j in picked]
            stats = QueryStats(
                candidates_verified=swept,
                distance_computations=swept,
                terminated_by="exhausted",
            )
            results.append(QueryResult(neighbors=neighbors, stats=stats))
        return results

    def answer(self, base: List[QueryResult], queries: np.ndarray,
               k: int) -> List[QueryResult]:
        """``base`` (the tables' answers) merged with :meth:`sweep`.

        Returns ``base`` itself when the view holds no rows, so the work
        counters of a query that had nothing to sweep are untouched.
        """
        if not len(self):
            return base
        return merge_live_batches(base, self.sweep(queries, k), k)


class DeltaIndex:
    """Pending rows (global id, point, squared norm) plus the tombstones."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._ids = np.zeros(_CAPACITY, dtype=np.int64)
        self._points = np.zeros((_CAPACITY, self.dim), dtype=np.float64)
        self._norms2 = np.zeros(_CAPACITY, dtype=np.float64)
        self._n = 0
        self._tombs = _NO_IDS

    def __len__(self) -> int:
        return self._n

    @property
    def tombstones(self) -> np.ndarray:
        """The deleted ids: sorted, unique, int64, read-only."""
        return self._tombs

    def extend(self, ids: Sequence[int], points: np.ndarray) -> None:
        """Buffer inserted rows ``points`` (m, d) under ``ids`` (m,)."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        points = np.asarray(points, dtype=np.float64).reshape(ids.shape[0], self.dim)
        end = self._n + ids.shape[0]
        if end > self._ids.shape[0]:
            self._reallocate(0, max(end, 2 * self._n))
        self._ids[self._n:end] = ids
        self._points[self._n:end] = points
        self._norms2[self._n:end] = np.einsum("ij,ij->i", points, points)
        self._n = end

    def delete(self, ids) -> int:
        """Tombstone ``ids``; returns how many were not deleted before.

        Duplicates and already-deleted ids count once and zero times.
        The tombstone array is replaced, never edited, so views captured
        earlier keep their own.
        """
        tombs = merge_sorted(self._tombs, ids)
        added = tombs.size - self._tombs.size
        if added:
            self._tombs = tombs
        return int(added)

    def is_deleted(self, point_id: int) -> bool:
        """True when ``point_id`` is tombstoned."""
        return bool(contains_sorted(self._tombs, np.array([point_id], dtype=np.int64))[0])

    def view(self) -> DeltaView:
        """A consistent snapshot of the rows and the current tombstones.

        The captured slices are marked read-only: a view is a promise of
        immutability, and handing out writeable windows into the live
        buffer would let a consumer corrupt rows the index still serves.
        (Slice views carry their own flags — the underlying buffer stays
        writeable for :meth:`extend`, matching how snapshot loads hand
        the query engine read-only mapped arrays.)
        """
        n = self._n
        arrays = (self._ids[:n], self._points[:n], self._norms2[:n])
        for array in arrays:
            array.flags.writeable = False
        return DeltaView(*arrays, self._tombs)

    def trim(self, rows: int, tombstones: Optional[np.ndarray] = None) -> None:
        """Drop the first ``rows`` rows and the given ``tombstones`` (sorted),
        now baked into a snapshot.

        Reallocates the remainder so views captured before the trim keep
        their arrays; caller holds the mutation lock.
        """
        rows = max(0, min(int(rows), self._n))
        if rows:
            self._reallocate(rows, max(self._n - rows, _CAPACITY))
        if tombstones is not None and len(tombstones):
            folded = np.asarray(tombstones, dtype=np.int64)
            tombs = self._tombs[~contains_sorted(folded, self._tombs)]
            tombs.flags.writeable = False
            self._tombs = tombs

    def _reallocate(self, start: int, capacity: int) -> None:
        """Move rows ``[start, n)`` to fresh arrays of ``capacity`` rows.

        Never resizes in place: outstanding views keep the old arrays
        and stay consistent.
        """
        kept = self._n - start
        ids = np.zeros(capacity, dtype=np.int64)
        points = np.zeros((capacity, self.dim), dtype=np.float64)
        norms2 = np.zeros(capacity, dtype=np.float64)
        ids[:kept] = self._ids[start:self._n]
        points[:kept] = self._points[start:self._n]
        norms2[:kept] = self._norms2[start:self._n]
        self._ids, self._points, self._norms2 = ids, points, norms2
        self._n = kept
