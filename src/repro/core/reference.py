"""The per-candidate reference loop the chunked query path must match.

:meth:`repro.core.dblsh.DBLSH.query` verifies candidates chunk-at-a-time
and replays Algorithm 1's stop conditions with vectorised trimming.
:func:`sequential_query` is the plain statement of the same algorithm:
it walks the same window traversals in the same order, verifies one
candidate at a time, and checks the budget, radius and patience stops
after each one.  The engine-equivalence tests and
``benchmarks/bench_query_engine.py`` compare the fast path against it.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.core.dblsh import DBLSH
from repro.core.result import QueryResult, QueryStats
from repro.utils.heaps import BoundedMaxHeap
from repro.utils.validation import check_query


def sequential_query(index: DBLSH, query: np.ndarray, k: int = 1) -> QueryResult:
    """(c, k)-ANN of ``query`` on a fitted ``index``, one candidate at a time.

    Runs Algorithm 2 — radii ``r0, c r0, c^2 r0, ...`` until a stop
    fires or one window covers every point — with the same seen set,
    tombstones and patience counter (carried across rounds) as
    :meth:`DBLSH.query`.  Neighbor ids, ``candidates_verified``, rounds
    and the termination reason match it exactly; distances agree to the
    accumulation error of the fast path's expanded-norm formula.

    The delta buffer has no traversal, so the index must have no pending
    rows (call :meth:`DBLSH.compact` first).
    """
    if index.params is None or index._hasher is None:
        raise RuntimeError("fit() must be called before querying")
    if index.num_pending:
        raise ValueError("sequential_query needs a compacted index (call compact())")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    started = time.perf_counter()
    query = check_query(query, index.dim)
    q_proj = index._hasher.project_query(query)
    stats = QueryStats()
    stats.hash_evaluations = index._hasher.num_functions
    heap = BoundedMaxHeap(k)
    budget = index.params.budget(k)
    seen = np.zeros(index.num_points, dtype=bool)
    tombs = index._tombstone_array()
    if tombs is not None:
        seen[tombs] = True  # deleted rows count as already seen
    radius = index.initial_radius
    no_improve = 0
    while True:
        stats.rounds += 1
        stats.final_radius = radius
        reason, no_improve = _reference_round(
            index, query, q_proj, radius, heap, seen, budget, stats, no_improve
        )
        if reason is not None:
            stats.terminated_by = reason
            break
        if index._window_covers_all(q_proj, index.params.w0 * radius):
            stats.terminated_by = "exhausted"
            break
        radius *= index.c
    stats.elapsed_seconds = time.perf_counter() - started
    return QueryResult.from_heap(heap, stats)


def _reference_round(
    index: DBLSH,
    query: np.ndarray,
    q_proj: np.ndarray,
    radius: float,
    heap: BoundedMaxHeap,
    seen: np.ndarray,
    budget: int,
    stats: QueryStats,
    no_improve: int,
) -> Tuple[Optional[str], int]:
    """One (r, c)-NN pass over the L windows; returns (stop reason, counter)."""
    assert index.params is not None
    data = index.data
    width = index.params.w0 * radius
    cutoff = index.params.c * radius
    for i in range(index.params.l_spaces):
        stats.window_queries += 1
        for chunk in index._iter_window(i, q_proj[i] - width / 2.0, q_proj[i] + width / 2.0):
            fresh = chunk[~seen[chunk]]
            if fresh.shape[0] == 0:
                continue
            seen[fresh] = True
            dists = np.linalg.norm(data[fresh] - query, axis=1)
            stats.distance_computations += int(fresh.shape[0])
            for point_id, dist in zip(fresh, dists):
                stats.candidates_verified += 1
                improved = heap.push(float(dist), int(point_id))
                no_improve = 0 if improved else no_improve + 1
                if stats.candidates_verified >= budget:
                    return "budget", no_improve
                if heap.full and heap.bound <= cutoff:
                    return "radius", no_improve
                if index.patience is not None and no_improve >= index.patience:
                    return "patience", no_improve
    return None, no_improve
