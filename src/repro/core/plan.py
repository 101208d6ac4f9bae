"""Transport-agnostic scatter-gather planning for partitioned queries.

A partitioned DB-LSH deployment — whatever moves the bytes — always has
the same query shape:

1. **scatter** the query (or query block) to every shard;
2. each shard answers locally with ascending ``(distance, local id)``
   neighbor lists and per-query work counters;
3. **gather** the per-shard answers and k-way merge them into one global
   top-k, mapping local ids back through the shard offsets.

Steps 1–2 are owned by a transport — the serial sweep of
:class:`~repro.core.sharded.ShardedDBLSH`, or the worker processes of
:class:`~repro.serve.SnapshotServer` — but step 3 is pure
arithmetic on the gathered results.  This module holds that arithmetic so
every transport merges identically: the parity guarantees pinned by the
sharding tests transfer to any new transport for free.

The merge itself is an allocation-light k-way heap merge: each shard's
neighbor list is already ascending by ``(distance, id)``, so popping list
heads from a heap of size S yields the global order while constructing
only the ``k`` winners — no ``S * k`` intermediate neighbor objects and
no full sort per query.

The same module holds the second merge every answer may go through:
:func:`merge_live_results` folds the exact sweep of the un-projected
delta buffer (:mod:`repro.core.delta`) into the tables' answer.  The
engine (``DBLSH.add``) and the mutable server both apply it after their
round loops, so an insert is answered the same way in process and over
the wire.

No merge input ever holds a deleted id: the engine and the serving
workers skip tombstoned rows (``DBLSH.delete``) before answering.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from repro.core.result import Neighbor, QueryResult, QueryStats

__all__ = [
    "shard_offsets",
    "merge_shard_results",
    "merge_shard_batches",
    "merge_live_results",
    "merge_live_batches",
]


def shard_offsets(sizes: Sequence[int]) -> List[int]:
    """Global id of each shard's first point: the sizes summed before it.

    >>> shard_offsets([3, 4, 2])
    [0, 3, 7]
    """
    offsets = [0]
    for size in sizes[:-1]:
        offsets.append(offsets[-1] + int(size))
    return offsets


def merge_shard_results(
    results: Sequence[QueryResult],
    offsets: Sequence[int],
    k: int,
    elapsed: float,
    hash_evaluations: int = 0,
) -> QueryResult:
    """Merge one query's per-shard answers into the global top-k.

    Parameters
    ----------
    results:
        One :class:`QueryResult` per shard, neighbor lists ascending by
        ``(distance, id)`` (the heap ``items()`` order every engine
        produces) with *shard-local* ids.
    offsets:
        Global id of each shard's first point (``offsets[i]`` is added to
        shard ``i``'s local ids).
    k:
        Number of neighbors to retain globally.
    elapsed:
        Wall time to report for the merged query.  The per-shard times
        overlapped (or were measured in other processes), so the caller —
        who saw the whole scatter-gather — supplies the real figure.
    hash_evaluations:
        Hash-evaluation count to report.  The projection is evaluated
        once per query, not once per shard, so summing the per-shard
        counters would overcount by S; pass the index's function count.

    Returns
    -------
    QueryResult
        Global top-k with summed work counters; ``rounds`` and
        ``final_radius`` are maxima over shards (the shards probe in
        lockstep radius schedules), and ``terminated_by`` joins the
        distinct per-shard reasons with ``+``.
    """
    heads = []
    for si, result in enumerate(results):
        neighbors = result.neighbors
        if neighbors:
            first = neighbors[0]
            heads.append((first.distance, offsets[si] + first.id, si, 0))
    heapq.heapify(heads)
    merged: List[Neighbor] = []
    while heads and len(merged) < k:
        distance, global_id, si, pos = heapq.heappop(heads)
        merged.append(Neighbor(global_id, distance))
        neighbors = results[si].neighbors
        pos += 1
        if pos < len(neighbors):
            nxt = neighbors[pos]
            heapq.heappush(heads, (nxt.distance, offsets[si] + nxt.id, si, pos))
    stats = QueryStats()
    for result in results:
        stats.merge(result.stats)
    stats.hash_evaluations = hash_evaluations
    stats.rounds = max(result.stats.rounds for result in results)
    stats.final_radius = max(result.stats.final_radius for result in results)
    stats.terminated_by = "+".join(
        sorted({result.stats.terminated_by for result in results})
    )
    stats.elapsed_seconds = elapsed
    return QueryResult(neighbors=merged, stats=stats)


def merge_shard_batches(
    per_shard: Sequence[Sequence[QueryResult]],
    offsets: Sequence[int],
    k: int,
    elapsed_per_query: float,
    hash_evaluations: int = 0,
) -> List[QueryResult]:
    """Merge a whole batch: ``per_shard[i][j]`` is shard i's answer to query j.

    The transpose-and-merge loop shared by every batched transport;
    results come back in query order.  ``elapsed_per_query`` is the batch
    wall time divided by the batch size (the only honest per-query figure
    when shards overlap).
    """
    if not per_shard:
        return []
    m = len(per_shard[0])
    if any(len(shard_batch) != m for shard_batch in per_shard):
        # A transport bug (a retry merging answers from two different
        # scatters, a worker answering a truncated block) must fail loud
        # here, not silently zip-truncate into plausible-looking results.
        raise ValueError(
            f"ragged shard batches: per-shard result counts "
            f"{[len(b) for b in per_shard]} disagree"
        )
    return [
        merge_shard_results(
            [shard_batch[j] for shard_batch in per_shard],
            offsets,
            k,
            elapsed_per_query,
            hash_evaluations,
        )
        for j in range(m)
    ]


def merge_live_results(
    base: QueryResult,
    delta: QueryResult,
    k: int,
) -> QueryResult:
    """Fold a delta-buffer answer into a base answer.

    The one insert rule, shared by ``DBLSH`` and the mutable server: the
    *base* answer comes from the projected tables (the frozen snapshot,
    when served), the *delta* answer from the append buffer — both
    already free of deleted rows and ascending by ``(distance, id)``
    with the same id space.  Ids are deduplicated keeping the first
    occurrence — during a compaction flip the new snapshot generation
    and the not-yet-trimmed delta briefly both hold the folded rows, and
    dedup is what makes that window harmless.

    The returned stats are the base stats with the delta sweep's
    verification work added (the sweep is exact verification, so its
    rows count as candidates verified and distance computations).
    """
    merged: List[Neighbor] = []
    seen = set()
    # heapq.merge is stable: on equal (distance, id) the base entry wins.
    for candidate in heapq.merge(base.neighbors, delta.neighbors,
                                 key=lambda n: (n.distance, n.id)):
        if len(merged) == k:
            break
        if candidate.id not in seen:
            seen.add(candidate.id)
            merged.append(candidate)
    stats = base.stats
    stats.candidates_verified += delta.stats.candidates_verified
    stats.distance_computations += delta.stats.distance_computations
    return QueryResult(neighbors=merged, stats=stats)


def merge_live_batches(
    base_batch: Sequence[QueryResult],
    delta_batch: Sequence[QueryResult],
    k: int,
) -> List[QueryResult]:
    """Batch form of :func:`merge_live_results` (answers in query order)."""
    if len(base_batch) != len(delta_batch):
        raise ValueError(
            f"ragged live merge: {len(base_batch)} base answers vs "
            f"{len(delta_batch)} delta answers"
        )
    return [
        merge_live_results(base, delta, k)
        for base, delta in zip(base_batch, delta_batch)
    ]
