"""Reusable per-query scratch buffers for the vectorized query engine.

A DB-LSH query must verify each candidate at most once even though the
windows at successive radii nest.  The seed implementation allocated a
fresh ``n``-element boolean array per query — an O(n) cost *per query*
that dwarfs the O(2tL + k) work the algorithm actually performs.

:class:`GenerationMask` replaces that allocation with a generation-stamped
``int32`` buffer allocated once per index (or per worker thread) and
reused across queries: starting a query bumps the generation counter, and
an id counts as *seen* when its stamp equals the current generation.
Resetting is O(1); the buffer is only re-zeroed when the 31-bit counter
would overflow (once every ~2 billion queries).

:class:`MaskStack` holds the masks of the round loop's lockstep slots as
the rows of one ``(rows, size)`` stamp matrix, so the window scan can
look up many (query, id) pairs in one gather — ``stamps[row, id] ==
generation`` — and skip the rows a query has already seen.
"""

from __future__ import annotations

from typing import List

import numpy as np

_GEN_LIMIT = np.iinfo(np.int32).max


class GenerationMask:
    """Generation-stamped membership mask over ids ``0 .. size-1``.

    Not thread-safe: concurrent queries must each own a mask (the batched
    query path hands one to every worker).
    """

    __slots__ = ("_stamp", "_gen")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self._stamp = np.zeros(int(size), dtype=np.int32)
        self._gen = 0

    def __len__(self) -> int:
        return int(self._stamp.shape[0])

    @property
    def generation(self) -> int:
        return self._gen

    def begin(self) -> "GenerationMask":
        """Start a new query: O(1) reset of the whole mask."""
        if self._gen >= _GEN_LIMIT - 1:
            self._stamp.fill(0)
            self._gen = 0
        self._gen += 1
        return self

    def fresh(self, ids: np.ndarray) -> np.ndarray:
        """Return the not-yet-seen subset of ``ids`` and mark it seen.

        ``ids`` must not contain duplicates (window queries never emit
        them: each point lives in exactly one leaf).
        """
        unseen = self._stamp[ids] != self._gen
        if unseen.all():
            fresh = ids
        else:
            fresh = ids[unseen]
        self._stamp[fresh] = self._gen
        return fresh

    def mark(self, ids: np.ndarray) -> None:
        """Mark ``ids`` seen for this query without reporting freshness.

        Used to pre-mark tombstoned ids before the probe rounds start:
        a deleted point is then never verified, never charged against
        the candidate budget, and never enters the heap — the same
        footprint it would have in a from-scratch rebuild without it.
        """
        self._stamp[ids] = self._gen


class MaskStack:
    """Seen masks whose stamp buffers are the rows of one int32 matrix.

    ``masks[i]`` stamps into row ``i`` of :attr:`stamps` and keeps its
    own generation, so the rows stay independent queries.  Not
    thread-safe: each thread owns its stack.
    """

    __slots__ = ("stamps", "masks")

    def __init__(self) -> None:
        self.stamps = np.zeros((0, 0), dtype=np.int32)
        self.masks: List[GenerationMask] = []

    def grow(self, rows: int, size: int) -> List[GenerationMask]:
        """The first ``rows`` masks, each covering at least ``size`` ids.

        A stack too small is reallocated; every stamp and generation is
        kept, and new rows and ids start unseen.
        """
        have_rows, have_size = self.stamps.shape
        if rows > have_rows or size > have_size:
            stamps = np.zeros(
                (max(rows, have_rows), max(size, have_size)), dtype=np.int32
            )
            stamps[:have_rows, :have_size] = self.stamps
            self.stamps = stamps
            while len(self.masks) < stamps.shape[0]:
                self.masks.append(GenerationMask(0))
            for mask, row in zip(self.masks, stamps):
                mask._stamp = row
        return self.masks[:rows]
