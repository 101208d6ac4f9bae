"""Sharded DB-LSH: one logical index served by S independent sub-indexes.

DB-LSH's dynamic bucketing makes sharding unusually clean: a query-centric
window query has no pre-built bucket state to repartition, so each shard
answers the *same* window queries over its slice of the data and the
shard results merge by exact distance.  :class:`ShardedDBLSH` exploits
that:

* **fit** partitions the dataset into S contiguous slices and builds one
  :class:`~repro.core.dblsh.DBLSH` per slice, one thread per shard;
* every shard shares the **same projection tensor** and the parameters
  derived from the *global* cardinality — shard i's window at radius
  ``r`` contains exactly the points of the unsharded window that live in
  slice i, so the union of shard candidates equals the unsharded
  candidate set at every radius;
* **query** / **query_batch** sweep the shards serially (each shard runs
  its round loop over the whole batch, the same path a serving
  worker runs) and
  merge the per-shard top-k lists into a global top-k with an
  allocation-light k-way merge.  Per-shard probes are dominated by
  GIL-holding chunk bookkeeping, so threads would only contend; for
  real parallelism across shards serve a snapshot with
  :class:`repro.serve.SnapshotServer`, which runs one worker process per
  shard.

Every shard runs Algorithm 1 with the full ``2tL + k`` budget of
Remark 2, so an S-way query may verify up to S times more candidates
than unsharded; recall never degrades.  With the budget sized so
queries terminate by the radius condition, the merged top-k matches
the unsharded engine's result exactly; the parity tests pin this.

Snapshots (:mod:`repro.io.snapshot`) store all shards in one archive, so
a sharded deployment reloads with zero rebuild exactly like a single
index.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from repro.core.dblsh import DBLSH, estimate_initial_radius
from repro.core.params import DBLSHParams, derive_parameters
from repro.core.plan import merge_shard_batches, shard_offsets
from repro.core.result import QueryResult
from repro.utils.rng import SeedLike
from repro.utils.validation import check_dataset, check_queries, check_query


class ShardedDBLSH:
    """DB-LSH partitioned across ``shards`` independently-built sub-indexes.

    Accepts the same tuning surface as :class:`DBLSH` (the parameters are
    resolved once from the global cardinality and pushed down to every
    shard) plus:

    Parameters
    ----------
    shards:
        Number of partitions ``S >= 1``.
    """

    name = "Sharded-DB-LSH"

    def __init__(
        self,
        shards: int = 2,
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
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        # Constructing a throwaway DBLSH validates the shared knobs with
        # the exact error messages of the unsharded constructor.
        DBLSH(
            c=c,
            w0=w0,
            k_per_space=k_per_space,
            l_spaces=l_spaces,
            t=t,
            backend=backend,
            max_entries=max_entries,
            initial_radius=initial_radius,
            auto_initial_radius=auto_initial_radius,
            patience=patience,
            seed=seed,
        )
        self.shards = int(shards)
        self.c = float(c)
        self._w0_arg = w0
        self._k_arg = k_per_space
        self._l_arg = l_spaces
        self.t = int(t)
        self.backend = backend
        self.max_entries = int(max_entries)
        self.initial_radius = float(initial_radius)
        self.auto_initial_radius = bool(auto_initial_radius)
        self.patience = patience
        self.seed = seed

        self.params: Optional[DBLSHParams] = None
        self.dim: int = 0
        self._shards: List[DBLSH] = []
        self._offsets: List[int] = []
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Indexing phase
    # ------------------------------------------------------------------

    def _shard_config(self) -> dict:
        """Constructor kwargs for one shard (params already resolved)."""
        assert self.params is not None
        return dict(
            c=self.c,
            w0=self.params.w0,
            k_per_space=self.params.k_per_space,
            l_spaces=self.params.l_spaces,
            t=self.t,
            backend=self.backend,
            max_entries=self.max_entries,
            initial_radius=self.initial_radius,
            auto_initial_radius=False,
            patience=self.patience,
            seed=self.seed,  # same seed -> identical projection tensor
        )

    def fit(self, data: np.ndarray) -> "ShardedDBLSH":
        """Partition ``data`` into S contiguous slices and build every shard.

        The (K, L) shape, bucket width and projection tensor are derived
        once from the **global** cardinality and pushed down to every
        shard, so shard ``i``'s window query at any radius returns
        exactly the points of the unsharded window living in slice ``i``.

        Parameters
        ----------
        data:
            Dataset of shape ``(n, d)``; any float-convertible array.
            Must satisfy ``n >= shards``.

        Returns
        -------
        ShardedDBLSH
            ``self``, fitted (chainable).

        Raises
        ------
        ValueError
            If ``shards`` exceeds the dataset size, or ``data`` is not a
            2-D non-empty numeric array.

        Examples
        --------
        >>> import numpy as np
        >>> from repro import ShardedDBLSH
        >>> data = np.random.default_rng(0).standard_normal((64, 8))
        >>> index = ShardedDBLSH(shards=2, l_spaces=2, k_per_space=4,
        ...                      t=8, seed=0).fit(data)
        >>> index.query(data[3], k=1).ids
        [3]
        """
        started = time.perf_counter()
        data = check_dataset(data)
        n, dim = data.shape
        if self.shards > n:
            raise ValueError(f"shards={self.shards} exceeds dataset size {n}")
        self.dim = dim
        # Parameters come from the *global* cardinality: every shard gets
        # the same (K, L) shape, width and tensor as the unsharded index,
        # which is what makes shard windows partition the global window.
        self.params = derive_parameters(
            n,
            c=self.c,
            w0=self._w0_arg,
            t=self.t,
            k_per_space=self._k_arg,
            l_spaces=self._l_arg,
        )
        if self.auto_initial_radius:
            self.initial_radius = estimate_initial_radius(
                data, self.c, self.initial_radius
            )
        sizes = [part.shape[0] for part in np.array_split(np.arange(n), self.shards)]
        self._offsets = shard_offsets(sizes)
        self._shards = self._fit_threads(data, sizes)
        self.build_seconds = time.perf_counter() - started
        return self

    def _fit_threads(self, data: np.ndarray, sizes: List[int]) -> List[DBLSH]:
        """Build every shard in process, one thread per shard."""
        config = self._shard_config()
        shards = [DBLSH(**config) for _ in range(self.shards)]

        def build(i: int) -> None:
            start = self._offsets[i]
            shards[i].fit(data[start : start + sizes[i]])

        with ThreadPoolExecutor(self.shards) as pool:
            # list() re-raises any build exception in the caller.
            list(pool.map(build, range(self.shards)))
        return shards

    def add(self, points: np.ndarray) -> None:
        """Incrementally index new points (appended to the last shard).

        Contiguous partitioning means new global ids continue the id
        sequence exactly when the growth lands on the final shard, so the
        global→shard mapping stays a plain offset lookup.
        """
        self._require_fitted()
        self._shards[-1].add(points)

    def delete(self, ids) -> int:
        """Tombstone global row ids; returns how many were newly deleted.

        Ids are mapped to their shard through the contiguous partition
        offsets and tombstoned there (:meth:`DBLSH.delete`): logical
        deletion, no renumbering, idempotent per id.
        """
        self._require_fitted()
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64)).ravel()
        if ids.size == 0:
            return 0
        total = self.num_points
        if ids.min() < 0 or ids.max() >= total:
            bad = ids[(ids < 0) | (ids >= total)][0]
            raise ValueError(
                f"cannot delete id {int(bad)}: ids must be in [0, {total})"
            )
        offsets = np.asarray(self._offsets, dtype=np.int64)
        owners = np.searchsorted(offsets, ids, side="right") - 1
        deleted = 0
        for si in range(len(self._shards)):
            local = ids[owners == si] - offsets[si]
            if local.size:
                deleted += self._shards[si].delete(local)
        return deleted

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------

    def query(self, query: np.ndarray, k: int = 1) -> QueryResult:
        """(c, k)-ANN: a batch of one (see :meth:`query_batch`)."""
        self._require_fitted()
        return self.query_batch(check_query(query, self.dim)[None, :], k)[0]

    def query_batch(self, queries: np.ndarray, k: int = 1) -> List[QueryResult]:
        """Batched (c, k)-ANN: one projection GEMM for the whole batch.

        Every shard answers the whole batch against its slice and the
        per-shard answers are k-way merged per query
        (:func:`repro.core.plan.merge_shard_batches` — the same planner
        the multi-process server uses, so transports never diverge).

        Parameters
        ----------
        queries:
            Query block of shape ``(m, d)``; a single ``(d,)`` vector is
            accepted and treated as ``m = 1``.
        k:
            Neighbors to return per query (``k >= 1``).

        Returns
        -------
        list of QueryResult
            One merged result per query, in input order.

        Raises
        ------
        RuntimeError
            If :meth:`fit` has not been called.
        ValueError
            If ``k < 1`` or the queries do not match the fitted
            dimensionality.

        Examples
        --------
        >>> import numpy as np
        >>> from repro import ShardedDBLSH
        >>> data = np.random.default_rng(1).standard_normal((64, 8))
        >>> index = ShardedDBLSH(shards=2, l_spaces=2, k_per_space=4,
        ...                      t=8, seed=0).fit(data)
        >>> [r.ids[0] for r in index.query_batch(data[:3], k=1)]
        [0, 1, 2]
        """
        self._require_fitted()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        queries = check_queries(queries, self.dim)
        m = queries.shape[0]
        if m == 0:
            return []
        started = time.perf_counter()
        q_projs = self._shards[0]._hasher.project_queries(queries)  # type: ignore[union-attr]

        per_shard = [shard._answer(queries, q_projs, k) for shard in self._shards]
        elapsed = time.perf_counter() - started
        return merge_shard_batches(
            per_shard,
            self._offsets,
            k,
            elapsed / m,
            hash_evaluations=self._shards[0]._hasher.num_functions,  # type: ignore[union-attr]
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist all shards into one versioned snapshot archive."""
        self._require_fitted()
        from repro.io.snapshot import save_index

        save_index(self, path)

    @classmethod
    def load(cls, path: str) -> "ShardedDBLSH":
        """Restore a sharded index persisted with :meth:`save` (no rebuild)."""
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
        shards: List[DBLSH],
        build_seconds: float = 0.0,
    ) -> "ShardedDBLSH":
        """Reassemble a sharded index from restored shard sub-indexes."""
        if not shards:
            raise ValueError("a sharded snapshot must contain at least one shard")
        first = shards[0]
        assert first.params is not None
        index = cls(
            shards=len(shards),
            c=first.c,
            w0=first.params.w0,
            k_per_space=first.params.k_per_space,
            l_spaces=first.params.l_spaces,
            t=first.t,
            backend=first.backend,
            max_entries=first.max_entries,
            initial_radius=first.initial_radius,
            patience=first.patience,
            seed=first.seed,
        )
        index.dim = first.dim
        index._shards = list(shards)
        sizes = [shard.num_points for shard in shards]
        index._offsets = shard_offsets(sizes)
        index.params = derive_parameters(
            sum(sizes),
            c=first.c,
            w0=first.params.w0,
            t=index.t,
            k_per_space=first.params.k_per_space,
            l_spaces=first.params.l_spaces,
        )
        index.build_seconds = float(build_seconds)
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._shards:
            raise RuntimeError("fit() must be called before querying")

    @property
    def shard_indexes(self) -> List[DBLSH]:
        """The underlying per-shard :class:`DBLSH` instances (read-only use)."""
        return list(self._shards)

    @property
    def shard_offsets(self) -> List[int]:
        """Global id of each shard's first point."""
        return list(self._offsets)

    @property
    def data(self) -> Optional[np.ndarray]:
        """The indexed points in global id order (concatenated copy)."""
        if not self._shards:
            return None
        return np.concatenate([shard.data for shard in self._shards])

    @property
    def num_points(self) -> int:
        """Physical rows across shards (tombstoned rows included)."""
        return sum(shard.num_points for shard in self._shards)

    @property
    def is_mapped(self) -> bool:
        """True when every shard serves zero-copy mapped snapshot views."""
        return bool(self._shards) and all(
            shard.is_mapped for shard in self._shards
        )

    @property
    def num_live(self) -> int:
        """Rows queries can still return (physical minus tombstoned)."""
        return sum(shard.num_live for shard in self._shards)

    @property
    def num_pending(self) -> int:
        """Delta-buffer rows awaiting :meth:`compact` across shards."""
        return sum(shard.num_pending for shard in self._shards)

    @property
    def num_tombstones(self) -> int:
        """Logically deleted rows across shards."""
        return sum(shard.num_tombstones for shard in self._shards)

    def compact(self) -> bool:
        """Fold every shard's delta buffer (see :meth:`DBLSH.compact`)."""
        self._require_fitted()
        folded = False
        for shard in self._shards:
            folded = shard.compact() or folded
        return folded

    @property
    def num_hash_functions(self) -> int:
        """Index-size proxy; shards share one (K, L) shape, so same as unsharded."""
        if self.params is None:
            return 0
        return self.params.k_per_space * self.params.l_spaces

    def index_size_floats(self) -> int:
        """Stored projected coordinates across all shards (indexed rows only)."""
        return sum(shard.index_size_floats() for shard in self._shards)

    def describe(self) -> str:
        """One-line human-readable parameter summary."""
        if self.params is None:
            return f"ShardedDBLSH(shards={self.shards}, unfitted)"
        p = self.params
        return (
            f"ShardedDBLSH(shards={self.shards}, n={self.num_points}, d={self.dim}, "
            f"c={p.c}, w0={p.w0:.3g}, K={p.k_per_space}, L={p.l_spaces}, t={p.t}, "
            f"backend={self.backend})"
        )
