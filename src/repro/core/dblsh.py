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

Verification
    The ``rstar`` backend traverses the frozen array form of the tree
    (:class:`repro.index.flat.FlatRStarTree`, level-wise MBR masks instead
    of per-node recursion); candidates are verified chunk-at-a-time with
    precomputed squared norms and a single matmul per chunk, and the
    per-query seen set is a generation-stamped scratch buffer
    (:class:`repro.utils.scratch.GenerationMask`) reused across queries
    instead of an O(n) allocation per query.  Chunk consumption emulates
    the sequential per-candidate loop exactly (budget / radius / patience
    stop at the same candidate boundary), so results match
    :func:`repro.core.reference.sequential_query` candidate-for-candidate
    (distances may differ in the last few ulps because the chunked path
    expands ``|x - q|^2 = |x|^2 - 2 x.q + |q|^2``).
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, List, Optional

import numpy as np

from repro.core.params import DBLSHParams, derive_parameters
from repro.core.result import Neighbor, QueryResult, QueryStats
from repro.hashing.compound import CompoundHasher
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTree
from repro.index.rstar import RStarTree
from repro.index.str_build import build_flat_str
from repro.utils.heaps import BoundedMaxHeap
from repro.utils.rng import SeedLike
from repro.utils.scale import estimate_nn_distance
from repro.utils.scratch import GenerationMask
from repro.utils.validation import (
    check_dataset,
    check_positive,
    check_queries,
    check_query,
)

_BACKENDS = ("rstar", "rstar-insert", "kdtree", "grid")

#: Sentinel returned by the chunk-merge fast path when the chunk contains
#: a mid-stream radius stop and must be replayed candidate-by-candidate.
_SLOW_PATH = object()

#: Relative tolerance under which a GEMM-expanded squared distance is
#: recomputed exactly: ``|x|^2 - 2 x.q + |q|^2`` cancels catastrophically
#: when the distance is tiny relative to the norms (a self-query would
#: come back ~1e-7 instead of 0).
_RECOMPUTE_RTOL = 1e-7


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
        # One window-query structure per projected space (see _build_table).
        self._tables: list = []
        self._table_low: list = []
        self._table_high: list = []
        self._cov_low: Optional[np.ndarray] = None
        self._cov_high: Optional[np.ndarray] = None
        # Capacity-doubling storage: ``_buffer[:_n]`` is the live dataset.
        self._buffer: Optional[np.ndarray] = None
        self._norms2: Optional[np.ndarray] = None
        self._n: int = 0
        # Rows ``[_frozen_n, _n)`` are the *delta buffer*: appended after
        # the frozen traversals were built, never projected, swept
        # brute-force at the start of every query until ``compact()``
        # folds them in.
        self._frozen_n: int = 0
        # Tombstoned (deleted) row ids.  Rows stay physically in the
        # buffer — ids are never renumbered — and are pre-marked into the
        # per-query seen mask so they are never verified, never charged
        # against the budget, and never enter the heap.
        self._tombstones: set = set()
        self._tomb_cache: Optional[np.ndarray] = None
        # One scratch mask per thread: reuse across queries without
        # breaking concurrent query() calls from user threads.
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
        """The indexed points (a view over the growable buffer)."""
        if self._buffer is None:
            return None
        return self._buffer[: self._n]

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
        self._n = n
        self._frozen_n = n
        self._tombstones = set()
        self._tomb_cache = None
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
            self.initial_radius = self._estimate_initial_radius(data)
        self.build_seconds = time.perf_counter() - started
        return self

    def _index_projections(self, projections: np.ndarray) -> None:
        """(Re)build every space's table and extent from ``(L, n, K)`` projections.

        The one construction path: ``fit``, ``compact`` and snapshot
        restore (for backends stored without traversal arrays) all land
        here.
        """
        started = time.perf_counter()
        self._tables = [self._build_table(proj) for proj in projections]
        self.table_build_seconds = time.perf_counter() - started
        self._table_low = [proj.min(axis=0) for proj in projections]
        self._table_high = [proj.max(axis=0) for proj in projections]
        self._refresh_cover_bounds()

    def _build_table(self, projected: np.ndarray):
        """One space's window-query structure.

        ``rstar`` builds the frozen :class:`~repro.index.flat.FlatRStarTree`
        arrays straight from the points (byte-identical to freezing an
        STR bulk-loaded :class:`RStarTree`); the ablation backends keep
        their own structures.
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

    def _get_scratch(self) -> GenerationMask:
        """This thread's reusable seen-set mask, sized to the buffer."""
        assert self._buffer is not None
        mask: Optional[GenerationMask] = getattr(self._scratch_locals, "mask", None)
        capacity = self._buffer.shape[0]
        if mask is None:
            mask = GenerationMask(capacity)
            self._scratch_locals.mask = mask
        elif len(mask) < capacity:
            mask.grow(capacity)
        return mask

    def _estimate_initial_radius(self, data: np.ndarray) -> float:
        """Anchor the radius schedule two c-steps below the typical NN distance.

        The paper assumes data scaled so ``r0 = 1`` is meaningful; for
        arbitrary feature scales the shared sampled-NN estimator provides
        the anchor (every method in this library uses the same estimator,
        so auto-scaling never favours one of them).
        """
        base = estimate_nn_distance(data)
        if base <= 0:
            return self.initial_radius
        return max(base / (self.c**2), np.finfo(np.float64).tiny)

    def add(self, points: np.ndarray) -> None:
        """Incrementally index new points (R*-tree backends only).

        Not part of the paper's evaluation but a natural capability of the
        decoupled design: the dynamic bucketing never looks at bucket
        boundaries, so insertion never repartitions anything.

        The new points land in the **delta buffer**: an O(m) append with
        no projection pass and no tree surgery.  Queries sweep the delta
        brute-force before the probe rounds, so the points are visible
        immediately; :meth:`compact` folds them into fresh tables when
        the sweep grows noticeable.

        The dataset lives in a capacity-doubling buffer, so a sequence of
        ``add`` calls costs amortised O(1) copies per point rather than a
        full-dataset copy per call.
        """
        if self._buffer is None or self.params is None or self._hasher is None:
            raise RuntimeError("fit() must be called before add()")
        if self.backend not in ("rstar", "rstar-insert"):
            raise NotImplementedError("add() requires an R*-tree backend")
        points = check_dataset(points)
        if points.shape[1] != self.dim:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.dim}")
        start_id = self._n
        needed = self._n + points.shape[0]
        # Reallocate when out of capacity *or* when the buffer is a
        # read-only mapped snapshot view (arena loads): first-write after
        # a zero-copy load promotes the dataset to private heap; until
        # then the snapshot pages stay shared across processes.
        if needed > self._buffer.shape[0] or not self._buffer.flags.writeable:
            capacity = max(2 * self._buffer.shape[0], needed)
            buffer = np.empty((capacity, self.dim), dtype=np.float64)
            buffer[: self._n] = self._buffer[: self._n]
            self._buffer = buffer
            norms2 = np.empty(capacity, dtype=np.float64)
            norms2[: self._n] = self._norms2[: self._n]  # type: ignore[index]
            self._norms2 = norms2
        self._buffer[start_id:needed] = points
        self._norms2[start_id:needed] = np.einsum(  # type: ignore[index]
            "ij,ij->i", points, points
        )
        # The tables stay valid for rows [0, _frozen_n); the new rows are
        # swept at query time.  No projections are computed until
        # compact() folds them in.
        self._n = needed

    def delete(self, ids) -> int:
        """Tombstone the given row ids; returns how many were newly deleted.

        Deletion is logical and O(1): the rows stay in the buffer (ids
        are **never renumbered** — a snapshot/serving invariant), but
        every subsequent query pre-marks them into its seen mask, so a
        deleted point is never verified, never charged against the
        ``2tL + k`` budget, and never returned.  Deleting an id twice is
        a no-op (write-ahead-log replay relies on that idempotence).
        """
        self._require_fitted()
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64)).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self._n):
            bad = ids[(ids < 0) | (ids >= self._n)][0]
            raise ValueError(
                f"cannot delete id {int(bad)}: ids must be in [0, {self._n})"
            )
        before = len(self._tombstones)
        self._tombstones.update(ids.tolist())
        newly = len(self._tombstones) - before
        if newly:
            self._tomb_cache = None
        return newly

    def compact(self) -> bool:
        """Fold the delta buffer into fresh per-space tables.

        Recomputes the projections over the whole buffer and rebuilds
        every table (an O(n) rebuild on ``rstar`` — amortize it over many
        ``add`` calls), after which queries stop paying the per-query
        delta sweep.  Tombstones stay logical: rows are never removed,
        so ids never shift.  Returns ``True`` when a fold happened,
        ``False`` when there was no delta to fold.
        """
        self._require_fitted()
        if self._frozen_n >= self._n:
            return False
        assert self._hasher is not None
        self._index_projections(self._hasher.project_all(self.data))
        self._frozen_n = self._n
        return True

    def _tombstone_array(self) -> Optional[np.ndarray]:
        """The tombstoned ids as a sorted int64 array (``None`` when empty)."""
        if not self._tombstones:
            return None
        if self._tomb_cache is None or self._tomb_cache.shape[0] != len(
            self._tombstones
        ):
            self._tomb_cache = np.fromiter(
                sorted(self._tombstones), dtype=np.int64, count=len(self._tombstones)
            )
        return self._tomb_cache

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
        return self._query_one(query, q_proj, k, self._get_scratch())

    def query_batch(self, queries: np.ndarray, k: int = 1) -> List[QueryResult]:
        """(c, k)-ANN for each row of ``queries``; returns a list of results.

        A true batched path: all ``m * L * K`` hash evaluations happen in
        one projection matmul (:meth:`CompoundHasher.project_queries`),
        and the queries then run serially in input order over one reused
        scratch buffer, matching sequential :meth:`query` calls
        candidate-for-candidate.
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        assert self._hasher is not None
        queries = check_queries(queries, self.dim)
        m = queries.shape[0]
        if m == 0:
            return []
        q_projs = self._hasher.project_queries(queries)  # (L, m, K)
        scratch = self._get_scratch()
        return [
            self._query_one(queries[j], q_projs[:, j, :], k, scratch) for j in range(m)
        ]

    def range_query(self, query: np.ndarray, radius: float, k: int = 1) -> QueryResult:
        """A single (r, c)-NN query (Algorithm 1) at the given radius.

        Returns up to ``k`` points within ``c * radius`` of the query, or
        an empty result when Algorithm 1 would return nothing.
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        check_positive("radius", radius)
        assert self.params is not None and self._hasher is not None
        started = time.perf_counter()
        query = check_query(query, self.dim)
        stats = QueryStats()
        stats.rounds = 1
        stats.final_radius = radius
        q_proj = self._hasher.project_query(query)
        stats.hash_evaluations = self._hasher.num_functions

        heap = BoundedMaxHeap(k)
        budget = self.params.budget(k)
        no_improve_box = [0]
        scratch = self._get_scratch().begin()
        q_norm2 = self._begin_query(query, heap, scratch, stats)
        reason = self._probe_round(
            query, q_proj, q_norm2, radius, heap, scratch, budget, stats, no_improve_box
        )
        stats.terminated_by = reason if reason is not None else "no_result"
        stats.elapsed_seconds = time.perf_counter() - started

        # Algorithm 1 only *returns* points when a termination condition
        # fired; points farther than c*r found along the way are dropped.
        if reason == "budget":
            # Budget exhaustion returns the current best found so far even
            # if beyond c*r (Lemma 2 shows that under E2 it cannot be).
            return QueryResult.from_heap(heap, stats)
        cutoff = self.params.c * radius
        neighbors = [
            Neighbor(int(i), float(d)) for d, i in heap.items() if d <= cutoff
        ]
        return QueryResult(neighbors=neighbors, stats=stats)

    def _query_one(
        self,
        query: np.ndarray,
        q_proj: np.ndarray,
        k: int,
        scratch: GenerationMask,
    ) -> QueryResult:
        """Run Algorithm 2 for one (validated) query and its projections."""
        assert self.params is not None
        started = time.perf_counter()
        stats = QueryStats()
        stats.hash_evaluations = self._hasher.num_functions  # type: ignore[union-attr]
        heap = BoundedMaxHeap(k)
        budget = self.params.budget(k)
        radius = self.initial_radius
        # The no-improvement counter deliberately survives radius rounds;
        # the box is shared with every probe round of this query.
        no_improve_box = [0]
        seen = scratch.begin()
        q_norm2 = self._begin_query(query, heap, seen, stats)
        while True:
            stats.rounds += 1
            stats.final_radius = radius
            reason = self._probe_round(
                query, q_proj, q_norm2, radius, heap, seen, budget, stats, no_improve_box
            )
            if reason is not None:
                stats.terminated_by = reason
                break
            if self._window_covers_all(q_proj, self.params.w0 * radius):
                stats.terminated_by = "exhausted"
                break
            radius *= self.c

        stats.elapsed_seconds = time.perf_counter() - started
        return QueryResult.from_heap(heap, stats)

    def _begin_query(
        self,
        query: np.ndarray,
        heap: BoundedMaxHeap,
        seen: GenerationMask,
        stats: QueryStats,
    ) -> float:
        """Pre-mark tombstones as seen, sweep the delta; returns ``|q|^2``.

        Deleted rows count as already seen, so they are never verified,
        never charged against the budget and never enter the heap.
        """
        tombs = self._tombstone_array()
        if tombs is not None:
            seen.mark(tombs)
        q_norm2 = float(query @ query)
        if self._n > self._frozen_n:
            self._sweep_delta(query, q_norm2, heap, seen, stats)
        return q_norm2

    # ------------------------------------------------------------------
    # Probe rounds (one (r, c)-NN pass over the L windows)
    # ------------------------------------------------------------------

    def _probe_round(
        self,
        query: np.ndarray,
        q_proj: np.ndarray,
        q_norm2: float,
        radius: float,
        heap: BoundedMaxHeap,
        seen: GenerationMask,
        budget: int,
        stats: QueryStats,
        no_improve_box: list,
    ) -> Optional[str]:
        """Vectorized probe round: chunk-at-a-time candidate verification.

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
        whole chunks and the chunk boundaries differ (unhinted traversal
        chunks there, budget-trimmed spans here).
        """
        assert self.params is not None
        width = self.params.w0 * radius
        cutoff = self.params.c * radius
        data = self.data
        norms2 = self._norms2
        assert data is not None and norms2 is not None
        for i in range(len(self._tables)):
            w_low = q_proj[i] - width / 2.0
            w_high = q_proj[i] + width / 2.0
            stats.window_queries += 1
            if heap.full and heap.bound <= cutoff:
                # The radius stop fires at this round's first fresh
                # candidate; don't gather a large chunk to find it.
                hint = 32
            else:
                # Chunks are trimmed by window membership and the seen
                # filter, so aim a bit above the verifiable remainder.
                hint = 2 * (budget - stats.candidates_verified)
            for chunk in self._iter_window(i, w_low, w_high, hint):
                fresh = seen.fresh(chunk)
                if fresh.shape[0] == 0:
                    continue
                remaining = budget - stats.candidates_verified
                if fresh.shape[0] > remaining:
                    # Never compute distances the budget cannot verify.
                    fresh = fresh[:remaining]
                dists = _verify_distances(data[fresh], norms2[fresh], query, q_norm2)
                stats.distance_computations += int(fresh.shape[0])
                reason = self._consume_chunk(
                    fresh, dists, heap, cutoff, budget, stats, no_improve_box
                )
                if reason is not None:
                    return reason
        return None

    def _sweep_delta(
        self,
        query: np.ndarray,
        q_norm2: float,
        heap: BoundedMaxHeap,
        seen: GenerationMask,
        stats: QueryStats,
    ) -> None:
        """Brute-force the delta rows ``[_frozen_n, _n)`` into the heap.

        The delta buffer has no traversal — its rows were never projected
        — so every query verifies all of it up front, with the same
        chunked-GEMM distance evaluation as :meth:`_probe_round`
        (precomputed ``|x|^2`` terms, catastrophic-cancellation rescue).
        Running the sweep *before* the probe rounds pre-charges the heap,
        which can only make the radius condition fire earlier.  The sweep
        is mandatory work proportional to the delta size — it is counted
        in ``distance_computations`` but not against the ``2tL + k``
        window budget, exactly like the projection pass isn't.

        Tombstoned delta rows are already marked in ``seen`` and skipped;
        all surviving rows are marked so the probe rounds can never
        double-count one (a folded-then-reloaded row cannot exist within
        one index, but the invariant is kept anyway — it is what the
        serve-layer merge relies on).
        """
        data = self.data
        norms2 = self._norms2
        assert data is not None and norms2 is not None
        delta_ids = np.arange(self._frozen_n, self._n, dtype=np.int64)
        for start in range(0, delta_ids.shape[0], 4096):
            fresh = seen.fresh(delta_ids[start : start + 4096])
            if fresh.shape[0] == 0:
                continue
            dists = _verify_distances(data[fresh], norms2[fresh], query, q_norm2)
            stats.distance_computations += int(fresh.shape[0])
            retained = heap._heap  # [(-distance, id), ...]
            if len(retained) + fresh.shape[0] <= heap.k:
                heap.fill(dists.tolist(), fresh.tolist())
                continue
            if retained:
                all_d = np.concatenate([[-p[0] for p in retained], dists])
                all_i = np.concatenate([[p[1] for p in retained], fresh])
            else:
                all_d, all_i = dists, fresh
            sel = np.argpartition(all_d, heap.k - 1)[: heap.k]
            heap.rebuild(all_d[sel].tolist(), all_i[sel].tolist())

    def _consume_chunk(
        self,
        ids: np.ndarray,
        dists: np.ndarray,
        heap: BoundedMaxHeap,
        cutoff: float,
        budget: int,
        stats: QueryStats,
        no_improve_box: list,
    ) -> Optional[str]:
        """Feed one verified chunk into the heap with sequential semantics.

        Emulates the per-candidate loop exactly — same stop candidate,
        same ``candidates_verified`` count, same heap contents — but skips
        over runs of non-improving candidates with one vectorised
        comparison instead of one Python iteration each.
        """
        no_improve = no_improve_box[0]
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
        no_improve_box[0] = no_improve
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
        self,
        i: int,
        w_low: np.ndarray,
        w_high: np.ndarray,
        first_chunk: Optional[int] = None,
    ) -> Iterator[np.ndarray]:
        """Stream candidate-id chunks of space ``i``'s window query.

        ``first_chunk`` sizes the flat traversal's initial chunk (the
        caller's remaining verification budget); the ablation backends
        yield per-leaf (or per-cell) chunks and ignore it.
        """
        if self.backend == "rstar":
            return self._tables[i].window_query_iter(
                w_low, w_high, first_chunk=first_chunk
            )
        return self._tables[i].window_query_iter(w_low, w_high)

    def _refresh_cover_bounds(self) -> None:
        """Stack the per-space projected extents for the coverage test."""
        self._cov_low = np.stack(self._table_low)  # (L, K)
        self._cov_high = np.stack(self._table_high)

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
        """Physical rows in the buffer (tombstoned rows included)."""
        return self._n

    @property
    def num_live(self) -> int:
        """Rows that queries can still return (physical minus tombstoned)."""
        return self._n - len(self._tombstones)

    @property
    def num_pending(self) -> int:
        """Delta-buffer rows awaiting :meth:`compact` (swept per query)."""
        return self._n - self._frozen_n

    @property
    def num_tombstones(self) -> int:
        """Logically deleted rows (never renumbered, skipped by queries)."""
        return len(self._tombstones)

    @property
    def num_hash_functions(self) -> int:
        """Index-size proxy used by the paper's §VI-B2 comparison."""
        if self.params is None:
            return 0
        return self.params.k_per_space * self.params.l_spaces

    def index_size_floats(self) -> int:
        """Stored projected coordinates: ``n * K * L`` floats."""
        if self.params is None or self._buffer is None:
            return 0
        return self.num_points * self.num_hash_functions

    @property
    def is_mapped(self) -> bool:
        """True when the dataset buffer is a zero-copy mapped snapshot view.

        Arena-snapshot loads hand the index read-only ``np.memmap``-backed
        arrays, so the physical pages belong to the kernel page cache and
        are shared by every process mapping the same file.  The first
        :meth:`add` promotes the buffer to private heap (see the
        reallocation guard there), after which this turns ``False``.
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
        flats: Optional[list],
        build_seconds: float = 0.0,
        tombstones: Optional[np.ndarray] = None,
        norms2: Optional[np.ndarray] = None,
    ) -> "DBLSH":
        """Reassemble a fitted index from snapshot state (no rebuild on ``rstar``).

        ``flats`` carries the restored frozen traversals (or ``None`` for
        backends that snapshot without them, whose tables are rebuilt
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
        index._n = n
        index._frozen_n = n
        if tombstones is not None and len(tombstones):
            index.delete(tombstones)
        index.dim = dim
        index.params = derive_parameters(
            n, c=c, w0=w0, t=t, k_per_space=k_per_space, l_spaces=l_spaces
        )
        index._hasher = CompoundHasher.from_tensor(tensor)
        if flats is None:
            index._index_projections(index._hasher.project_all(data))
        elif len(flats) != l_spaces:
            raise ValueError(f"expected {l_spaces} frozen tables, got {len(flats)}")
        else:
            index._tables = list(flats)
        index._table_low = [np.asarray(row, dtype=np.float64) for row in table_low]
        index._table_high = [np.asarray(row, dtype=np.float64) for row in table_high]
        index._refresh_cover_bounds()
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
