"""DB-LSH: dynamic query-centric bucketing over a (K, L)-index (§IV).

Indexing phase (§IV-B)
    Each data point is projected into ``L`` independent ``K``-dimensional
    spaces by ``L x K`` Gaussian LSH functions (Eq. 7) and the projected
    points of each space are stored in a multi-dimensional index — by
    default the *frozen array form* of an STR-packed R*-tree, built
    directly from the projected points (see :mod:`repro.index.str_build`).
    The ablation backends keep their own structures.

Query phase (§IV-C)
    An ``(r, c)``-NN query builds, per space, the query-centric hypercubic
    bucket ``W(G_i(q), w0 * r)`` (Eq. 8) as an index window query and
    verifies the points streaming out of it.  A ``c``-ANN (or
    ``(c, k)``-ANN) query issues ``(r, c)``-NN queries at radii
    ``r = r0, c r0, c^2 r0, ...`` until either

    * ``2tL + k`` distinct candidates have been verified, or
    * the k-th nearest neighbor found so far is within ``c * r``

    (the two termination conditions of Algorithm 1 / §IV-C).  Observation 1
    guarantees the single set of indexes serves every radius.

The implementation keeps a per-query *seen set* so a point is verified at
most once even though windows at successive radii nest; this matches the
paper's accounting of "points accessed".

The round loop
    Every query path — :meth:`DBLSH.query`, :meth:`DBLSH.query_batch`,
    :meth:`DBLSH.range_query`, :class:`~repro.core.sharded.ShardedDBLSH`
    and the serving workers — goes through one loop
    (:meth:`DBLSH._search`).  It advances a block of up to ``_BLOCK``
    queries in lockstep, one radius round at a time.  On the ``rstar``
    backend the L frozen trees are stacked into one
    :class:`~repro.index.flat.FlatRStarTree` forest, and one
    ``window_scan`` descends for every live (query, space) pair of the
    round with one compare per tree level.  Streams are drawn from it
    in two steps — every query's first space, then the other spaces of
    the queries still running — each with one leaf-MBR test and an
    eager point test capped per pair from the query's own state at
    round start (32 points when the radius stop is already due, else
    twice the unverified budget); the rest of a window is scanned
    lazily.  The ablation backends feed the same loop from their
    per-space iterators.  Each query then consumes its spaces in order:
    the seen filter (a generation-stamped
    :class:`~repro.utils.scratch.GenerationMask` per lockstep slot, the
    rows of one :class:`~repro.utils.scratch.MaskStack` reused across
    queries; the forest already drops the rows stamped before a chunk
    is read, so this catches the ones the query's earlier spaces of the
    same round marked), one GEMV per chunk with
    precomputed squared norms, and heap consumption that emulates the
    sequential per-candidate loop exactly (budget / radius / patience
    stop at the same candidate boundary).  Results therefore match
    :func:`repro.core.reference.sequential_query` candidate-for-candidate
    (distances may differ in the last few ulps because the chunked path
    expands ``|x - q|^2 = |x|^2 - 2 x.q + |q|^2``).

    A chunk's boundaries depend only on its query and the index, never
    on the other queries of the block: the GEMV can round a row
    differently depending on where it sits in the chunk, so this is what
    keeps answers bit-identical across block sizes and entry points.

Mutations
    :meth:`DBLSH.add` and :meth:`DBLSH.delete` land in a
    :class:`~repro.core.delta.DeltaIndex`, the same mutation state the
    mutable server keeps: un-projected pending rows plus tombstones.
    After the round loop, every query path sweeps the pending rows
    brute-force and merges the two answers with
    :func:`repro.core.plan.merge_live_results`, so an index mutated in
    process answers exactly like a mutable server holding the same rows.
    :meth:`DBLSH.compact` folds the pending rows into the tables.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, List, Optional

import numpy as np

from repro.core.delta import _RECOMPUTE_RTOL, DeltaIndex
from repro.core.params import DBLSHParams, derive_parameters
from repro.core.result import QueryResult, QueryStats
from repro.hashing.compound import CompoundHasher
from repro.index.flat import FlatRStarTree
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTree
from repro.index.rstar import RStarTree
from repro.index.str_build import build_flat_str
from repro.utils.heaps import BoundedMaxHeap
from repro.utils.rng import SeedLike
from repro.utils.scale import estimate_nn_distance
from repro.utils.scratch import MaskStack
from repro.utils.validation import (
    check_dataset,
    check_positive,
    check_queries,
    check_query,
)

_BACKENDS = ("rstar", "rstar-insert", "kdtree", "grid")

#: Queries the round loop advances in lockstep; longer batches run in
#: blocks of this many, each query with its own seen mask.
_BLOCK = 16

#: Sentinel returned by the chunk-merge fast path when the chunk contains
#: a mid-stream radius stop and must be replayed candidate-by-candidate.
_SLOW_PATH = object()


def estimate_initial_radius(data: np.ndarray, c: float, default: float) -> float:
    """Anchor the radius schedule two c-steps below the typical NN distance.

    The paper assumes data scaled so ``r0 = 1`` is meaningful; for
    arbitrary feature scales the shared sampled-NN estimator provides
    the anchor (every method in this library uses the same estimator,
    so auto-scaling never favours one of them).  ``default`` is kept
    when the estimate is 0 (every sampled point a duplicate).
    """
    base = estimate_nn_distance(data)
    if base <= 0:
        return default
    return max(base / (c**2), float(np.finfo(np.float64).tiny))


def _verify_distances(
    candidates: np.ndarray, norms2: np.ndarray, query: np.ndarray, q_norm2: float
) -> np.ndarray:
    """Exact distances from ``query`` to ``candidates`` (one GEMV).

    ``norms2`` holds the candidates' precomputed ``|x|^2``; the few
    entries the expansion cannot resolve are recomputed directly.
    """
    dists = norms2 - 2.0 * (candidates @ query)
    dists += q_norm2
    np.maximum(dists, 0.0, out=dists)
    suspect = dists < _RECOMPUTE_RTOL * (norms2 + q_norm2)
    if suspect.any():
        close = np.flatnonzero(suspect)
        diff = candidates[close] - query
        dists[close] = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(dists, out=dists)
    return dists


class _Slot:
    """One in-flight query of the round loop (see :meth:`DBLSH._search`)."""

    __slots__ = (
        "query",
        "q_proj",
        "q_norm2",
        "heap",
        "budget",
        "radius",
        "no_improve",
        "reason",
        "stats",
        "seen",
        "row",
    )


class DBLSH:
    """The DB-LSH index.

    Parameters
    ----------
    c:
        Approximation ratio ``c > 1`` (paper default 1.5).  Theorem 1
        guarantees a ``c^2``-ANN with constant probability.
    w0:
        Base bucket width; defaults to the paper's ``4 c^2``.
    k_per_space, l_spaces:
        The (K, L)-index shape.  ``None`` derives them from Lemma 1 at
        ``fit`` time; the paper's experiments pin ``l_spaces = 5`` and
        ``k_per_space = 10..12``.
    t:
        Remark 2's budget constant; a query verifies at most ``2tL + k``
        candidates.
    backend:
        ``"rstar"`` (STR bulk-loaded R*-tree, the paper's choice),
        ``"rstar-insert"`` (same tree built by repeated R* insertion, for
        the bulk-loading ablation), ``"kdtree"`` or ``"grid"`` (backend
        ablation).
    max_entries:
        R*-tree node capacity.
    initial_radius:
        The starting radius ``r0`` of Algorithm 2 (paper assumes 1).
        ``auto_initial_radius=True`` instead estimates ``r0`` from a data
        sample at fit time, useful when feature scales are far from 1.
    patience:
        Optional early-termination extension (§VII future work): stop a
        query after this many consecutive verified candidates fail to
        improve the current k-th distance.  The counter carries across
        radius rounds (a stall is a stall regardless of the radius at
        which it happens).  ``None`` disables it.
    seed:
        Seed for the projection tensor.
    """

    def __init__(
        self,
        c: float = 1.5,
        w0: Optional[float] = None,
        k_per_space: Optional[int] = None,
        l_spaces: Optional[int] = None,
        t: int = 16,
        backend: str = "rstar",
        max_entries: int = 32,
        initial_radius: float = 1.0,
        auto_initial_radius: bool = False,
        patience: Optional[int] = None,
        seed: SeedLike = 0,
    ) -> None:
        if c <= 1.0:
            raise ValueError(f"approximation ratio c must be > 1, got {c}")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if patience is not None and patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {patience}")
        self.c = float(c)
        self._w0_arg = w0
        self._k_arg = k_per_space
        self._l_arg = l_spaces
        self.t = int(t)
        self.backend = backend
        self.max_entries = int(max_entries)
        self.initial_radius = check_positive("initial_radius", initial_radius)
        self.auto_initial_radius = bool(auto_initial_radius)
        self.patience = patience
        self.seed = seed

        self.params: Optional[DBLSHParams] = None
        self.dim: int = 0
        self._hasher: Optional[CompoundHasher] = None
        # ``rstar``: the L frozen trees stacked into one forest, one root
        # per space.  The ablation backends keep one structure per space
        # in ``_tables`` instead (see _index_projections).
        self._forest: Optional[FlatRStarTree] = None
        self._tables: list = []
        # Every space's projected extent, stacked ``(L, K)``.
        self._cov_low: Optional[np.ndarray] = None
        self._cov_high: Optional[np.ndarray] = None
        # The rows the tables index and their squared norms.
        self._buffer: Optional[np.ndarray] = None
        self._norms2: Optional[np.ndarray] = None
        # Every mutation since: rows added (never projected, swept
        # brute-force after the round loop until ``compact()`` folds them
        # in; their ids follow the indexed rows') and tombstoned ids.
        # Deleted rows stay physically stored — ids are never renumbered.
        # Indexed ones are pre-marked into the per-query seen mask so they
        # are never verified, never charged against the budget, and never
        # enter the heap; the delta sweep skips the others.
        self._delta: Optional[DeltaIndex] = None
        # One list of seen masks (one per lockstep slot) per thread: reuse
        # across queries without breaking concurrent query() calls from
        # user threads.
        self._scratch_locals = threading.local()
        self.build_seconds: float = 0.0
        # Time spent constructing the per-space index structures by the
        # last fit() or compact() (excludes projection/validation; the
        # build benchmark's subject).
        self.table_build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Indexing phase
    # ------------------------------------------------------------------

    @property
    def data(self) -> Optional[np.ndarray]:
        """Every stored point in id order (a copy while rows are pending)."""
        if self._buffer is None or not self.num_pending:
            return self._buffer
        return np.concatenate([self._buffer, self._delta.view().points])

    def fit(self, data: np.ndarray) -> "DBLSH":
        """Build the (K, L)-index over ``data`` (n, d).

        On the default ``rstar`` backend the frozen traversal arrays are
        built directly from the projected points; no pointer tree is
        ever materialized.
        """
        started = time.perf_counter()
        data = check_dataset(data)
        n, dim = data.shape
        self._buffer = data
        self._norms2 = np.einsum("ij,ij->i", data, data)
        self._delta = DeltaIndex(dim)
        self.dim = dim
        self.params = derive_parameters(
            n,
            c=self.c,
            w0=self._w0_arg,
            t=self.t,
            k_per_space=self._k_arg,
            l_spaces=self._l_arg,
        )
        self._hasher = CompoundHasher(
            dim, self.params.l_spaces, self.params.k_per_space, self.seed
        )
        self._index_projections(self._hasher.project_all(data))
        if self.auto_initial_radius:
            self.initial_radius = estimate_initial_radius(
                data, self.c, self.initial_radius
            )
        self.build_seconds = time.perf_counter() - started
        return self

    def _index_projections(self, projections: np.ndarray) -> None:
        """(Re)build every space's table and extent from ``(L, n, K)`` projections.

        The one construction path: ``fit``, ``compact`` and snapshot
        restore (for backends stored without traversal arrays) all land
        here.
        """
        started = time.perf_counter()
        tables = [self._build_table(proj) for proj in projections]
        if self.backend == "rstar":
            self._forest, self._tables = FlatRStarTree.stack(tables), []
        else:
            self._forest, self._tables = None, tables
        self.table_build_seconds = time.perf_counter() - started
        self._cov_low = projections.min(axis=1)
        self._cov_high = projections.max(axis=1)

    def _build_table(self, projected: np.ndarray):
        """One space's window-query structure.

        ``rstar`` builds the frozen :class:`~repro.index.flat.FlatRStarTree`
        arrays straight from the points (byte-identical to freezing an
        STR bulk-loaded :class:`RStarTree`), which
        :meth:`_index_projections` stacks into the forest; the ablation
        backends keep their own structures.
        """
        if self.backend == "rstar":
            return build_flat_str(projected, max_entries=self.max_entries)
        if self.backend == "rstar-insert":
            tree = RStarTree(projected.shape[1], max_entries=self.max_entries)
            for point_id, point in enumerate(projected):
                tree.insert(point_id, point)
            return tree
        if self.backend == "kdtree":
            return KDTree(projected, leaf_size=self.max_entries)
        if self.backend == "grid":
            assert self.params is not None
            return GridIndex(projected, cell_width=self.params.w0)
        raise AssertionError(f"unknown backend {self.backend!r}")

    def _get_scratch(self, count: int) -> MaskStack:
        """This thread's seen-mask stack, with ``count`` rows sized to the buffer."""
        assert self._buffer is not None
        stack: Optional[MaskStack] = getattr(self._scratch_locals, "stack", None)
        if stack is None:
            stack = self._scratch_locals.stack = MaskStack()
        stack.grow(count, self._buffer.shape[0])
        return stack

    def add(self, points: np.ndarray) -> None:
        """Incrementally index new points.

        Not part of the paper's evaluation but a natural capability of the
        decoupled design: the dynamic bucketing never looks at bucket
        boundaries, so insertion never repartitions anything.

        The new points land in the delta buffer
        (:class:`~repro.core.delta.DeltaIndex`) with ids continuing after
        the existing rows: an O(m) append with no projection pass and no
        tree surgery.  Queries sweep the buffer brute-force after the
        probe rounds, so the points are visible immediately;
        :meth:`compact` folds them into fresh tables when the sweep grows
        noticeable.  A mapped snapshot buffer stays mapped and untouched.
        """
        if self._buffer is None or self.params is None or self._hasher is None:
            raise RuntimeError("fit() must be called before add()")
        points = check_dataset(points)
        if points.shape[1] != self.dim:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.dim}")
        start_id = self.num_points
        self._delta.extend(np.arange(start_id, start_id + points.shape[0]), points)

    def delete(self, ids) -> int:
        """Tombstone the given row ids; returns how many were newly deleted.

        Deletion is logical: the rows stay in the buffer (ids
        are **never renumbered** — a snapshot/serving invariant), but
        every subsequent query pre-marks them into its seen mask, so a
        deleted point is never verified, never charged against the
        ``2tL + k`` budget, and never returned.  Deleting an id twice is
        a no-op (write-ahead-log replay relies on that idempotence).
        """
        self._require_fitted()
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64)).ravel()
        total = self.num_points
        if ids.size and (ids.min() < 0 or ids.max() >= total):
            bad = ids[(ids < 0) | (ids >= total)][0]
            raise ValueError(
                f"cannot delete id {int(bad)}: ids must be in [0, {total})"
            )
        return self._delta.delete(ids)

    def compact(self) -> bool:
        """Fold the delta buffer into fresh per-space tables.

        Stacks the indexed and pending rows into one private buffer,
        recomputes the projections over it and rebuilds every table (an
        O(n) rebuild on ``rstar`` — amortize it over many ``add`` calls),
        after which queries stop paying the per-query delta sweep.
        Tombstones stay logical: rows are never removed, so ids never
        shift.  Returns ``True`` when a fold happened, ``False`` when
        there was no delta to fold.
        """
        self._require_fitted()
        if not self.num_pending:
            return False
        assert self._hasher is not None
        pending = self._delta.view()
        self._buffer = np.concatenate([self._buffer, pending.points])
        self._norms2 = np.concatenate([self._norms2, pending.norms2])
        self._index_projections(self._hasher.project_all(self._buffer))
        self._delta.trim(len(pending))
        return True

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------

    def query(self, query: np.ndarray, k: int = 1) -> QueryResult:
        """(c, k)-ANN search (Algorithm 2 with the §IV-C adaptation).

        Safe to call concurrently from multiple threads: every thread
        reuses its own scratch buffers.
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        assert self._hasher is not None
        query = check_query(query, self.dim)
        q_proj = self._hasher.project_query(query)
        return self._answer(query[None, :], q_proj[:, None, :], k)[0]

    def query_batch(self, queries: np.ndarray, k: int = 1) -> List[QueryResult]:
        """(c, k)-ANN for each row of ``queries``; returns a list of results.

        All ``m * L * K`` hash evaluations happen in one projection
        matmul (:meth:`CompoundHasher.project_queries`), and the round
        loop then advances the queries in lockstep blocks, matching
        sequential :meth:`query` calls candidate-for-candidate.
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        assert self._hasher is not None
        queries = check_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return []
        return self._answer(queries, self._hasher.project_queries(queries), k)

    def range_query(self, query: np.ndarray, radius: float, k: int = 1) -> QueryResult:
        """A single (r, c)-NN query (Algorithm 1) at the given radius.

        Returns up to ``k`` points within ``c * radius`` of the query, or
        an empty result when Algorithm 1 would return nothing.  This is
        one round of the round loop, started at ``radius``, merged with
        the delta sweep like every other query.
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        check_positive("radius", radius)
        assert self.params is not None and self._hasher is not None
        query = check_query(query, self.dim)
        q_proj = self._hasher.project_query(query)
        (result,) = self._answer(
            query[None, :], q_proj[:, None, :], k, radius=radius
        )
        # Algorithm 1 only *returns* points when a termination condition
        # fired; points farther than c*r found along the way are dropped.
        if result.stats.terminated_by == "budget":
            # Budget exhaustion returns the current best found so far even
            # if beyond c*r (Lemma 2 shows that under E2 it cannot be).
            return result
        cutoff = self.params.c * radius
        neighbors = [n for n in result.neighbors if n.distance <= cutoff]
        return QueryResult(neighbors=neighbors, stats=result.stats)

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------

    def _answer(
        self,
        queries: np.ndarray,
        q_projs: np.ndarray,
        k: int,
        radius: Optional[float] = None,
    ) -> List[QueryResult]:
        """Results of :meth:`_search` merged with the delta sweep.

        The entry point every query path shares.  Pending rows are swept
        exactly (tombstones skipped) after the round loop and merged by
        ``(distance, id)``, the rule the mutable server applies.
        """
        delta = self._delta.view()
        base = [
            QueryResult.from_heap(slot.heap, slot.stats)
            for slot in self._search(queries, q_projs, k, delta.tombstones, radius)
        ]
        return delta.answer(base, queries, k)

    def _search(
        self,
        queries: np.ndarray,
        q_projs: np.ndarray,
        k: int,
        tombs: np.ndarray,
        radius: Optional[float] = None,
    ) -> List["_Slot"]:
        """Run Algorithm 2 for every row of ``queries``; one slot per query.

        ``q_projs`` is the ``(L, m, K)`` projection of the (validated)
        queries and ``tombs`` the sorted deleted ids.  The queries advance
        in lockstep blocks of ``_BLOCK``, one radius round at a time
        (:meth:`_round`); a query leaves its block when a stop fires or a
        window covers every point.  With ``radius`` set, every query runs
        exactly one round at that radius (Algorithm 1) and a round without
        a stop ends as ``"no_result"``.

        Each slot's elapsed time runs from its block's start to the round
        the query finished in.
        """
        assert self.params is not None and self._hasher is not None
        stack = self._get_scratch(min(queries.shape[0], _BLOCK))
        # Only indexed rows have a place in the seen masks.
        tombs = tombs[: np.searchsorted(tombs, self._buffer.shape[0])]
        slots: List[_Slot] = []
        for start in range(0, queries.shape[0], _BLOCK):
            started = time.perf_counter()
            block = [
                self._open_slot(queries[j], q_projs[:, j, :], k, stack, row, radius, tombs)
                for row, j in enumerate(range(start, min(start + _BLOCK, queries.shape[0])))
            ]
            live = block
            while live:
                self._round(live, stack.stamps)
                running = []
                for slot in live:
                    if self._next_round(slot, radius is None):
                        running.append(slot)
                    else:
                        slot.stats.elapsed_seconds = time.perf_counter() - started
                live = running
            slots.extend(block)
        return slots

    def _open_slot(
        self,
        query: np.ndarray,
        q_proj: np.ndarray,
        k: int,
        stack: MaskStack,
        row: int,
        radius: Optional[float],
        tombs: np.ndarray,
    ) -> "_Slot":
        """A fresh in-flight query: empty heap, reset seen set.

        Its seen mask is row ``row`` of the thread's ``stack``.  The
        indexed ``tombs`` count as already seen, so deleted rows are
        never verified, never charged against the budget and never enter
        the heap.
        """
        assert self.params is not None and self._hasher is not None
        slot = _Slot()
        slot.query = query
        slot.q_proj = q_proj
        slot.heap = BoundedMaxHeap(k)
        slot.budget = self.params.budget(k)
        slot.radius = self.initial_radius if radius is None else radius
        # The no-improvement counter deliberately survives radius rounds.
        slot.no_improve = 0
        slot.reason = None
        slot.stats = QueryStats()
        slot.stats.hash_evaluations = self._hasher.num_functions
        slot.seen = stack.masks[row].begin()
        slot.seen.mark(tombs)
        slot.row = row
        slot.q_norm2 = float(query @ query)
        return slot

    def _next_round(self, slot: "_Slot", more_rounds: bool) -> bool:
        """Settle ``slot`` after a round; True when it needs another one."""
        assert self.params is not None
        if slot.reason is not None:
            slot.stats.terminated_by = slot.reason
            return False
        if not more_rounds:
            slot.stats.terminated_by = "no_result"
            return False
        if self._window_covers_all(slot.q_proj, self.params.w0 * slot.radius):
            slot.stats.terminated_by = "exhausted"
            return False
        slot.radius *= self.c
        return True

    def _round(self, live: List["_Slot"], stamps: np.ndarray) -> None:
        """One (r, c)-NN pass over the L windows of every live query.

        Each pair's eager point test is capped from its query's state at
        round start (:meth:`_eager_cap`).  On ``rstar`` one
        :meth:`~repro.index.flat.FlatRStarTree.window_scan` descends for
        every (query, space) pair of the round; the streams are then
        drawn in two steps — every query's first space, then the other
        spaces of the queries still running — so a query that stops in
        its first window (a small budget, or a radius stop already due)
        never pays the leaf and point tests of the others.  The ablation
        backends hand in their per-space iterators.  Each query consumes
        its spaces in order (:meth:`_consume_round`).

        ``stamps`` is the :class:`MaskStack` matrix the slots' seen masks
        are rows of: the forest skips a query's already-seen rows before
        their point test.  ``fresh()`` still filters what the query's
        earlier spaces of the round mark, so the answers do not change.
        """
        assert self.params is not None
        n_spaces = self.params.l_spaces
        caps = []
        for slot in live:
            slot.stats.rounds += 1
            slot.stats.final_radius = slot.radius
            caps.append(self._eager_cap(slot))
        scan = None
        if self._forest is not None:
            half = np.repeat(
                [self.params.w0 * slot.radius / 2.0 for slot in live], n_spaces
            )[:, None]
            centers = np.concatenate([slot.q_proj for slot in live])
            scan = self._forest.window_scan(
                np.tile(self._forest.roots, len(live)), centers - half, centers + half
            )
            visits = scan.node_visits.reshape(len(live), n_spaces).sum(axis=1)
            for slot, count in zip(live, visits.tolist()):
                slot.stats.index_node_visits += count
        for first, stop in ((0, 1), (1, n_spaces)):
            go = [j for j, slot in enumerate(live) if slot.reason is None]
            if not go or first == stop:
                return
            width = stop - first
            if scan is not None:
                pairs = np.asarray(go, dtype=np.int64)[:, None] * n_spaces
                rows = np.repeat([live[j].row for j in go], width)
                gens = np.repeat([live[j].seen.generation for j in go], width)
                streams, leaves = scan.streams(
                    (pairs + np.arange(first, stop)).ravel(),
                    np.repeat([caps[j] for j in go], width),
                    (stamps, rows, gens),
                )
                tested = leaves.reshape(len(go), width).sum(axis=1).tolist()
            else:
                streams = []
                for j in go:
                    half = self.params.w0 * live[j].radius / 2.0
                    streams.extend(
                        self._tables[i].window_query_iter(
                            live[j].q_proj[i] - half, live[j].q_proj[i] + half
                        )
                        for i in range(first, stop)
                    )
                tested = [0] * len(go)
            for n, j in enumerate(go):
                live[j].stats.index_node_visits += tested[n]
                live[j].reason = self._consume_round(
                    live[j], streams[n * width : (n + 1) * width]
                )

    def _eager_cap(self, slot: "_Slot") -> int:
        """How many points of each window to point-test before consuming."""
        assert self.params is not None
        heap = slot.heap
        if heap.full and heap.bound <= self.params.c * slot.radius:
            # The radius stop fires at this round's first fresh candidate;
            # don't gather a large chunk to find it.
            return 32
        # Chunks are trimmed by window membership and the seen filter, so
        # aim a bit above the verifiable remainder.
        return 2 * (slot.budget - slot.stats.candidates_verified)

    def _consume_round(self, slot: "_Slot", streams) -> Optional[str]:
        """Verify one query's window streams in space order.

        Distances are computed per chunk as
        ``sqrt(|x|^2 - 2 x.q + |q|^2)`` with the ``|x|^2`` terms
        precomputed at fit time, and the budget / radius / patience
        conditions are applied with exact-boundary trimming so the query
        stops at the same candidate it would under the sequential loop.
        Returns the termination reason (``"budget"``, ``"radius"``,
        ``"patience"``) or ``None``.

        Neighbors, ``candidates_verified``, rounds and termination reason
        match :func:`repro.core.reference.sequential_query` exactly;
        ``distance_computations`` may differ slightly because both charge
        whole chunks and the chunk boundaries differ.
        """
        assert self.params is not None
        cutoff = self.params.c * slot.radius
        data = self._buffer
        norms2 = self._norms2
        assert data is not None and norms2 is not None
        stats = slot.stats
        for stream in streams:
            stats.window_queries += 1
            for chunk in stream:
                fresh = slot.seen.fresh(chunk)
                if fresh.shape[0] == 0:
                    continue
                remaining = slot.budget - stats.candidates_verified
                if fresh.shape[0] > remaining:
                    # Never compute distances the budget cannot verify.
                    fresh = fresh[:remaining]
                dists = _verify_distances(
                    data[fresh], norms2[fresh], slot.query, slot.q_norm2
                )
                stats.distance_computations += int(fresh.shape[0])
                reason = self._consume_chunk(slot, fresh, dists, cutoff)
                if reason is not None:
                    return reason
        return None

    def _consume_chunk(
        self, slot: "_Slot", ids: np.ndarray, dists: np.ndarray, cutoff: float
    ) -> Optional[str]:
        """Feed one verified chunk into the heap with sequential semantics.

        Emulates the per-candidate loop exactly — same stop candidate,
        same ``candidates_verified`` count, same heap contents — but skips
        over runs of non-improving candidates with one vectorised
        comparison instead of one Python iteration each.
        """
        heap, budget, stats = slot.heap, slot.budget, slot.stats
        no_improve = slot.no_improve
        patience = self.patience
        take = ids.shape[0]
        if patience is None and not (heap.full and heap.bound <= cutoff):
            # Merge fast path: without a patience counter the only
            # mid-chunk stop is the radius condition, and whether it can
            # fire at all is decided by the merged k-th distance.  When it
            # cannot, the survivors are one vectorised partition instead
            # of one push per candidate.  Only worth it while the heap is
            # still filling or the chunk is dense in potential improvers;
            # sparse chunks are cheaper on the push-per-improver path.
            if not heap.full or int(np.count_nonzero(dists < heap.bound)) >= 32:
                reason = self._merge_chunk(ids, dists, heap, cutoff, budget, stats)
                if reason is not _SLOW_PATH:
                    return reason
        dist_list = dists.tolist()
        id_list = ids.tolist()
        i = 0
        reason = None
        if not heap.full:
            # Fill phase: every push is an improvement by definition, and
            # the radius condition can first hold once the heap is full.
            i = min(heap.k - len(heap), take)
            heap.fill(dist_list[:i], id_list[:i])
            no_improve = 0
            if heap.full and heap.bound <= cutoff:
                reason = "radius"
        if reason is None and i < take:  # heap is full past the fill phase
            if heap.bound <= cutoff:
                # Entered a round whose cutoff already exceeds the k-th
                # distance: the very next verified candidate stops the
                # query (pushes cannot raise the bound).
                improved = heap.push(dist_list[i], id_list[i])
                no_improve = 0 if improved else no_improve + 1
                i += 1
                reason = "radius"
            else:
                # One vectorised pass finds every candidate that could beat
                # the current bound; the bound only tightens, so everything
                # outside this wave is non-improving by construction, and
                # wave members are re-checked against the live bound by
                # ``push`` itself.
                bound0 = heap.bound
                wave = (np.flatnonzero(dists[i:] < bound0) + i).tolist()
                for p in wave:
                    gap = p - i  # non-improving candidates i .. p-1
                    if patience is not None and no_improve + gap >= patience:
                        i += patience - no_improve
                        no_improve = patience
                        reason = "patience"
                        break
                    no_improve += gap
                    improved = heap.push(dist_list[p], id_list[p])
                    no_improve = 0 if improved else no_improve + 1
                    i = p + 1
                    if improved and heap.bound <= cutoff:
                        reason = "radius"
                        break
                    if patience is not None and no_improve >= patience:
                        reason = "patience"
                        break
                else:
                    gap = take - i  # trailing non-improving candidates
                    if patience is not None and no_improve + gap >= patience:
                        i += patience - no_improve
                        no_improve = patience
                        reason = "patience"
                    else:
                        no_improve += gap
                        i = take
        stats.candidates_verified += i
        slot.no_improve = no_improve
        if stats.candidates_verified >= budget:
            # The sequential loop checks the budget before the other two
            # conditions, so exhaustion at the stop candidate wins.
            return "budget"
        return reason

    def _merge_chunk(
        self,
        ids: np.ndarray,
        dists: np.ndarray,
        heap: BoundedMaxHeap,
        cutoff: float,
        budget: int,
        stats: QueryStats,
    ):
        """Consume a whole chunk with one partition when no stop can fire.

        Only valid with ``patience`` disabled.  The radius condition is
        monotone — the running k-th distance can only tighten — so if the
        *merged* k-th distance still exceeds ``c * r``, no candidate in
        this chunk could have triggered it and the chunk's survivors are
        simply the k smallest of (heap ∪ chunk).  Otherwise returns
        ``_SLOW_PATH`` (without touching the heap) so the caller can
        replay the chunk sequentially and stop at the exact candidate.
        """
        take = ids.shape[0]
        k = heap.k
        retained = heap._heap  # [(-distance, id), ...]
        m_old = len(retained)
        if m_old + take <= k:
            heap.fill(dists.tolist(), ids.tolist())
            stats.candidates_verified += take
            if stats.candidates_verified >= budget:
                return "budget"
            if heap.full and heap.bound <= cutoff:
                return "radius"  # fires exactly at the filling candidate
            return None
        if m_old:
            all_d = np.concatenate([[-pair[0] for pair in retained], dists])
            all_i = np.concatenate([[pair[1] for pair in retained], ids])
        else:
            all_d, all_i = dists, ids
        sel = np.argpartition(all_d, k - 1)[:k]
        sel_d = all_d[sel]
        kth = float(sel_d.max())
        if kth <= cutoff:
            return _SLOW_PATH
        if int(np.count_nonzero(all_d <= kth)) > k:
            # Distances tie across the k-th boundary: argpartition picks
            # an arbitrary member of the tied group, while the sequential
            # semantics (strict <) keep the earliest-seen. Replay exactly.
            return _SLOW_PATH
        heap.rebuild(sel_d.tolist(), all_i[sel].tolist())
        stats.candidates_verified += take
        if stats.candidates_verified >= budget:
            return "budget"
        return None

    def _iter_window(
        self, i: int, w_low: np.ndarray, w_high: np.ndarray
    ) -> Iterator[np.ndarray]:
        """Stream candidate-id chunks of space ``i``'s window on its own.

        The per-space traversal the per-candidate reference loop
        (:mod:`repro.core.reference`) walks; queries go through
        :meth:`_round` instead.
        """
        if self._forest is not None:
            return self._forest.window_query_iter(w_low, w_high, root=i)
        return self._tables[i].window_query_iter(w_low, w_high)

    def _window_covers_all(self, q_proj: np.ndarray, width: float) -> bool:
        """True when every space's window already contains all points.

        At that radius each window query enumerates the full dataset, so
        every point has been verified and further enlargement is futile.
        One covering space suffices (its window returns everything); all
        L spaces are tested with one stacked comparison.
        """
        half = width / 2.0
        return bool(
            np.any(
                np.all(q_proj - half <= self._cov_low, axis=1)
                & np.all(q_proj + half >= self._cov_high, axis=1)
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._buffer is None:
            raise RuntimeError("fit() must be called before querying")

    @property
    def num_points(self) -> int:
        """Stored rows, indexed and pending (tombstoned rows included)."""
        if self._buffer is None:
            return 0
        return self._buffer.shape[0] + self.num_pending

    @property
    def num_live(self) -> int:
        """Rows that queries can still return (physical minus tombstoned)."""
        return self.num_points - self.num_tombstones

    @property
    def num_pending(self) -> int:
        """Delta-buffer rows awaiting :meth:`compact` (swept per query)."""
        return 0 if self._delta is None else len(self._delta)

    @property
    def num_tombstones(self) -> int:
        """Logically deleted rows (never renumbered, skipped by queries)."""
        return 0 if self._delta is None else self._delta.tombstones.size

    @property
    def num_hash_functions(self) -> int:
        """Index-size proxy used by the paper's §VI-B2 comparison."""
        if self.params is None:
            return 0
        return self.params.k_per_space * self.params.l_spaces

    def index_size_floats(self) -> int:
        """Stored projected coordinates: ``n * K * L`` floats over the
        indexed rows (pending rows are never projected)."""
        if self.params is None or self._buffer is None:
            return 0
        return self._buffer.shape[0] * self.num_hash_functions

    @property
    def is_mapped(self) -> bool:
        """True when the dataset buffer is a zero-copy mapped snapshot view.

        Arena-snapshot loads hand the index read-only ``np.memmap``-backed
        arrays, so the physical pages belong to the kernel page cache and
        are shared by every process mapping the same file.  :meth:`add`
        leaves the mapping alone (new rows go to the delta buffer);
        :meth:`compact` stacks the rows into a private buffer, after
        which this turns ``False``.
        """
        if self._buffer is None:
            return False
        base = self._buffer
        while isinstance(base, np.ndarray):
            if isinstance(base, np.memmap):
                return True
            base = base.base
        return False

    def save(self, path: str) -> None:
        """Persist the fitted index as a versioned arena snapshot.

        On the default ``rstar`` backend the snapshot contains the frozen
        traversal arrays, so :meth:`load` answers queries without any
        bulk loading, as zero-copy mapped views; see
        :mod:`repro.io.snapshot` for the format.
        """
        if self._buffer is None or self.params is None or self._hasher is None:
            raise RuntimeError("fit() must be called before save()")
        from repro.io.snapshot import save_index

        save_index(self, path)

    @classmethod
    def load(cls, path: str) -> "DBLSH":
        """Restore an index persisted with :meth:`save` (no rebuild)."""
        from repro.io.snapshot import SnapshotError, load_index

        index = load_index(path)
        if not isinstance(index, cls):
            raise SnapshotError(
                f"{path!r} holds a {type(index).__name__} snapshot; "
                f"use repro.io.load_index() or {type(index).__name__}.load()"
            )
        return index

    @classmethod
    def _restore(
        cls,
        *,
        data: np.ndarray,
        tensor: np.ndarray,
        c: float,
        w0: float,
        k_per_space: int,
        l_spaces: int,
        t: int,
        backend: str,
        max_entries: int,
        initial_radius: float,
        patience: Optional[int],
        seed: SeedLike,
        table_low: np.ndarray,
        table_high: np.ndarray,
        forest: Optional[FlatRStarTree],
        build_seconds: float = 0.0,
        tombstones: Optional[np.ndarray] = None,
        norms2: Optional[np.ndarray] = None,
    ) -> "DBLSH":
        """Reassemble a fitted index from snapshot state (no rebuild on ``rstar``).

        ``forest`` carries the restored stacked traversal (or ``None`` for
        backends that snapshot without one, whose tables are rebuilt
        here from the projection tensor).  ``tombstones`` restores
        logically deleted row ids — the rows are physically present in
        ``data`` (ids never renumber) but excluded from every query.  ``norms2`` adopts precomputed
        squared norms shipped in the snapshot; without them restore pays
        an O(n*d) einsum over the dataset, which both costs time and
        faults every data page of a freshly mapped arena.
        """
        index = cls(
            c=c,
            w0=w0,
            k_per_space=k_per_space,
            l_spaces=l_spaces,
            t=t,
            backend=backend,
            max_entries=max_entries,
            initial_radius=initial_radius,
            patience=patience,
            seed=seed,
        )
        data = check_dataset(data)
        n, dim = data.shape
        index._buffer = data
        if norms2 is not None and norms2.shape == (n,):
            index._norms2 = np.ascontiguousarray(norms2, dtype=np.float64)
        else:
            index._norms2 = np.einsum("ij,ij->i", data, data)
        index._delta = DeltaIndex(dim)
        if tombstones is not None and len(tombstones):
            index.delete(tombstones)
        index.dim = dim
        index.params = derive_parameters(
            n, c=c, w0=w0, t=t, k_per_space=k_per_space, l_spaces=l_spaces
        )
        index._hasher = CompoundHasher.from_tensor(tensor)
        if forest is None:
            index._index_projections(index._hasher.project_all(data))
        elif forest.roots.shape[0] != l_spaces:
            raise ValueError(
                f"expected {l_spaces} stacked trees, got {forest.roots.shape[0]}"
            )
        else:
            index._forest = forest
        index._cov_low = np.asarray(table_low, dtype=np.float64)
        index._cov_high = np.asarray(table_high, dtype=np.float64)
        index.build_seconds = float(build_seconds)
        return index

    def describe(self) -> str:
        """One-line human-readable parameter summary."""
        if self.params is None:
            return "DBLSH(unfitted)"
        p = self.params
        return (
            f"DBLSH(n={self.num_points}, d={self.dim}, c={p.c}, w0={p.w0:.3g}, "
            f"K={p.k_per_space}, L={p.l_spaces}, t={p.t}, rho*={p.rho_star:.4f}, "
            f"backend={self.backend})"
        )
