"""Delta index: the one buffer for rows inserted after the tables were built.

Projected tables answer queries from immutable arrays; inserts land
here instead, both in process (``DBLSH.add``) and in the mutable server
(:class:`~repro.serve.mutable.MutableSnapshotServer`).
:class:`DeltaIndex` is an array-native append buffer — points, their
squared norms, and their *global* ids — swept brute-force with the same
GEMM verification the probe rounds use (``|x|^2 - 2 x.q + |q|^2`` with
the catastrophic-cancellation recompute), so a delta answer is exact
and merges with the tables' answer by plain ``(distance, id)`` order
(:func:`repro.core.plan.merge_live_results`).

Deletes never touch the buffer: they accumulate in one sorted tombstone
id array that the round loop pre-marks as seen in the tables
(``DBLSH.delete``) and that :meth:`DeltaView.sweep` excludes from its
own rows — a deleted row simply stops being reportable, wherever it
lives.  Rows are never renumbered; an id stays valid for the lifetime
of the dataset.

Thread-safety contract: :meth:`append` and :meth:`view` must be
serialized by the caller (the mutation lock of
:class:`~repro.serve.mutable.MutableSnapshotServer`; ``DBLSH.add`` is
not safe to run concurrently with queries), but a
:class:`DeltaView` taken under the lock stays a consistent snapshot
*outside* it: growth reallocates (the view keeps the old arrays) and
appends write past the view's length, so concurrent readers never see
half-written rows.  :meth:`trim` (compaction folding the prefix into a
new snapshot generation) likewise reallocates rather than shifting.
"""

from __future__ import annotations

from typing import Collection, List, Optional

import numpy as np

from repro.core.result import Neighbor, QueryResult, QueryStats

__all__ = ["DeltaIndex", "DeltaView"]

#: Relative tolerance under which a GEMM-expanded squared distance is
#: recomputed exactly: ``|x|^2 - 2 x.q + |q|^2`` cancels catastrophically
#: when the distance is tiny relative to the norms (a self-query would
#: come back ~1e-7 instead of 0).  Shared with the round loop's verifier.
_RECOMPUTE_RTOL = 1e-7


class DeltaView:
    """An immutable snapshot of a :class:`DeltaIndex` prefix.

    Holds slice views (no copies) of the buffer at capture time; see the
    module docstring for why those stay consistent under concurrent
    appends and trims.
    """

    __slots__ = ("ids", "points", "norms2")

    def __init__(self, ids: np.ndarray, points: np.ndarray,
                 norms2: np.ndarray) -> None:
        self.ids = ids
        self.points = points
        self.norms2 = norms2

    def __len__(self) -> int:
        return self.ids.shape[0]

    def sweep(self, queries: np.ndarray, k: int,
              exclude: Optional[Collection[int]] = None) -> List[QueryResult]:
        """Exact top-``k`` of every query over the buffered rows.

        Parameters
        ----------
        queries:
            ``(m, d)`` query block (already validated by the caller).
        k:
            Neighbors per query.
        exclude:
            Tombstoned ids, ideally the sorted int64 array the serving
            workers receive (any collection of ids works); matching rows
            are skipped entirely (never verified, never reported) —
            mirroring how the frozen engine pre-marks tombstones as seen.

        Returns
        -------
        list of QueryResult
            Per query: ascending ``(distance, id)`` neighbors carrying
            **global** ids, with ``distance_computations`` /
            ``candidates_verified`` counting the swept rows (the sweep
            is verification work, like the projection pass it replaces —
            it is not charged against any probe budget).
        """
        m = queries.shape[0]
        ids, points, norms2 = self.ids, self.points, self.norms2
        if exclude is not None and len(exclude):
            if not isinstance(exclude, np.ndarray):
                exclude = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
            keep = ~np.isin(ids, exclude)
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


class DeltaIndex:
    """Capacity-doubling append buffer of (global id, point, squared norm)."""

    def __init__(self, dim: int, capacity: int = 256) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        capacity = max(int(capacity), 1)
        self._ids = np.zeros(capacity, dtype=np.int64)
        self._points = np.zeros((capacity, self.dim), dtype=np.float64)
        self._norms2 = np.zeros(capacity, dtype=np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, point_id: int, point: np.ndarray) -> None:
        """Buffer one inserted row (caller holds the mutation lock)."""
        if self._n == self._ids.shape[0]:
            self._reallocate(0, 2 * self._n)
        self._ids[self._n] = point_id
        self._points[self._n] = point
        self._norms2[self._n] = float(point @ point)
        self._n += 1

    def view(self, upto: Optional[int] = None) -> DeltaView:
        """A consistent snapshot of the first ``upto`` rows (default: all).

        The captured slices are marked read-only: a view is a promise of
        immutability, and handing out writeable windows into the live
        buffer would let a consumer corrupt rows the index still serves.
        (Slice views carry their own flags — the underlying buffer stays
        writeable for :meth:`append`, matching how snapshot loads hand
        the query engine read-only mapped arrays.)
        """
        n = self._n if upto is None else min(int(upto), self._n)
        arrays = (self._ids[:n], self._points[:n], self._norms2[:n])
        for array in arrays:
            array.flags.writeable = False
        return DeltaView(*arrays)

    def trim(self, folded: int) -> None:
        """Drop the first ``folded`` rows (now baked into a snapshot).

        Reallocates the remainder so views captured before the trim keep
        their arrays; caller holds the mutation lock.
        """
        folded = max(0, min(int(folded), self._n))
        if folded:
            self._reallocate(folded, max(self._n - folded, 256))

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
