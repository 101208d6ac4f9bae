"""Experiment runner: build an index, run the query set, aggregate metrics.

Every method in this library (DB-LSH and all baselines) satisfies the same
informal protocol:

* ``fit(data) -> self`` building the index (records ``build_seconds``);
* ``query(q, k) -> QueryResult``;
* ``name`` attribute and ``num_hash_functions`` property (the paper's
  index-size proxy, §VI-B2).

:func:`evaluate_method` runs a full query set and reports the same
aggregates as Table IV: mean query time, overall ratio, recall, indexing
time — plus the hardware-independent work counters this reproduction adds
(mean candidates verified, distance computations, index node work).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.data.groundtruth import exact_knn
from repro.eval.metrics import overall_ratio, recall


@dataclass
class MethodResult:
    """Aggregated evaluation of one method on one workload."""

    method: str
    dataset: str
    k: int
    n: int
    dim: int
    build_seconds: float
    num_hash_functions: int
    query_time_ms: float
    ratio: float
    recall: float
    candidates_per_query: float
    distance_computations_per_query: float
    rounds_per_query: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "k": self.k,
            "query_ms": round(self.query_time_ms, 3),
            "ratio": round(self.ratio, 4),
            "recall": round(self.recall, 4),
            "build_s": round(self.build_seconds, 3),
            "hash_fns": self.num_hash_functions,
            "cands": round(self.candidates_per_query, 1),
            "dists": round(self.distance_computations_per_query, 1),
        }


def evaluate_method(
    method,
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    dataset_name: str = "dataset",
    gt_ids: Optional[np.ndarray] = None,
    gt_dists: Optional[np.ndarray] = None,
    fit: bool = True,
    batch: bool = True,
) -> MethodResult:
    """Build ``method`` on ``data`` (unless pre-fitted) and run all queries.

    When the method exposes ``query_batch`` (every method in this library
    does; DB-LSH's is a true batched path) and ``batch`` is left on, the
    whole query set is answered in one call and the reported per-query
    time is the batch wall time divided by the query count.  ``batch=False``
    forces the per-query loop (timing each ``query`` call separately).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    data = np.asarray(data, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if gt_ids is None or gt_dists is None:
        gt_ids, gt_dists = exact_knn(queries, data, k)

    if fit:
        method.fit(data)

    query_batch = getattr(method, "query_batch", None) if batch else None
    if callable(query_batch):
        started = time.perf_counter()
        results = query_batch(queries, k=k)
        total_time = time.perf_counter() - started
    else:
        total_time = 0.0
        results = []
        for query in queries:
            started = time.perf_counter()
            results.append(method.query(query, k=k))
            total_time += time.perf_counter() - started

    ratios: List[float] = []
    recalls: List[float] = []
    candidates = 0.0
    dist_comps = 0.0
    rounds = 0.0
    for qi, result in enumerate(results):
        ratios.append(overall_ratio(result.distances, gt_dists[qi]))
        recalls.append(recall(result.ids, gt_ids[qi]))
        candidates += result.stats.candidates_verified
        dist_comps += result.stats.distance_computations
        rounds += result.stats.rounds

    m = queries.shape[0]
    finite_ratios = [r for r in ratios if np.isfinite(r)]
    return MethodResult(
        method=getattr(method, "name", type(method).__name__),
        dataset=dataset_name,
        k=k,
        n=int(data.shape[0]),
        dim=int(data.shape[1]),
        build_seconds=float(getattr(method, "build_seconds", 0.0)),
        num_hash_functions=int(getattr(method, "num_hash_functions", 0)),
        query_time_ms=total_time / m * 1e3,
        ratio=float(np.mean(finite_ratios)) if finite_ratios else float("inf"),
        recall=float(np.mean(recalls)),
        candidates_per_query=candidates / m,
        distance_computations_per_query=dist_comps / m,
        rounds_per_query=rounds / m,
    )


class _ConcurrentClients:
    """Drive a :class:`~repro.serve.SnapshotServer` as N client threads.

    The server multiplexes concurrent callers onto its worker pool with
    FIFO dispatch, so splitting the query block across ``clients``
    threads measures the *concurrent-serving* path while returning the
    batch in original order — each chunk is answered by the same server
    against the same snapshot, so the reassembled answers are
    bit-identical to one big ``query_batch`` call (pinned by
    ``bench_serve.py``'s ``concurrent_clients`` parity flag).
    """

    def __init__(self, server, clients: int) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        self._server = server
        self._clients = clients
        self.name = f"{server.name}x{clients}c"
        self.build_seconds = server.build_seconds
        self.num_hash_functions = server.num_hash_functions

    def query_batch(self, queries: np.ndarray, k: int = 1) -> List:
        import threading

        chunks = np.array_split(np.asarray(queries), self._clients)
        answers: List = [None] * len(chunks)
        errors: List[BaseException] = []

        def run(index: int) -> None:
            try:
                answers[index] = self._server.query_batch(chunks[index], k=k)
            except BaseException as exc:  # re-raised on the caller thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,), daemon=True)
            for i in range(len(chunks))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [result for chunk in answers for result in chunk]


def evaluate_server(
    path: str,
    queries: np.ndarray,
    k: int,
    dataset_name: str = "server",
    gt_ids: Optional[np.ndarray] = None,
    gt_dists: Optional[np.ndarray] = None,
    batch: bool = True,
    clients: int = 1,
) -> MethodResult:
    """Serve the snapshot at ``path`` from worker processes and evaluate it.

    The multi-process counterpart of evaluating ``load_index(path)``
    with :func:`evaluate_method` (``fit=False``): a
    :class:`repro.serve.SnapshotServer` is started over the snapshot (one
    worker process per shard, zero rebuild), the query set is answered
    over IPC, and the server is shut down afterwards.  The reported
    ``build_seconds`` is the worker start-up time — the cost a serving
    deployment actually pays — and the query times include the
    scatter-gather transport, which is the point of measuring it.
    Ground truth is computed against the snapshot's stored data unless
    supplied.

    ``clients`` > 1 splits the query set across that many concurrent
    client threads sharing the one server (the concurrent-client shape
    of ``repro serve``'s gateway); answers are reassembled in order and
    remain bit-identical to the single-client run.
    """
    from repro.io.snapshot import load_data
    from repro.serve import SnapshotServer

    if clients > 1 and not batch:
        # The per-query loop would bypass _ConcurrentClients entirely and
        # measure serial single queries while claiming N clients.
        raise ValueError("clients > 1 requires batch=True (the concurrent "
                         "clients split one query batch)")
    with SnapshotServer(path) as server:
        if gt_ids is None or gt_dists is None:
            data = load_data(path)
        else:
            # With ground truth supplied, the dataset payload would only
            # feed the n/dim report columns — both known from the header
            # — so skip reading every shard's stored coordinates.
            data = np.broadcast_to(
                np.float64(0.0), (server.num_points, server.dim)
            )
        method = server if clients <= 1 else _ConcurrentClients(server, clients)
        return evaluate_method(
            method,
            data,
            queries,
            k,
            dataset_name=dataset_name,
            gt_ids=gt_ids,
            gt_dists=gt_dists,
            fit=False,
            batch=batch,
        )


@dataclass
class MutablePhaseResult:
    """One phase of a mixed read/write workload trajectory.

    A phase applies a block of mutations (inserts plus a fraction of
    deletes), then answers the full query set against whatever the
    server now holds.  Ground truth is recomputed against the *live*
    point set each phase, so ``recall`` measures the served quality of
    the mutated index — the delta sweep, the tombstones and any
    background compaction included — not the stale base snapshot.
    """

    phase: int
    inserts: int
    deletes: int
    live_points: int
    mutation_seconds: float
    mutation_qps: float
    query_time_ms: float
    recall: float
    ratio: float
    wal_bytes: int
    wal_segments: int
    compactions: int
    compaction_trigger: Optional[str]

    def row(self) -> Dict[str, object]:
        """Flat dict for table rendering / JSON reports."""
        return {
            "phase": self.phase,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "live": self.live_points,
            "mut_qps": round(self.mutation_qps, 1),
            "query_ms": round(self.query_time_ms, 3),
            "recall": round(self.recall, 4),
            "ratio": round(self.ratio, 4),
            "wal_bytes": self.wal_bytes,
            "wal_segments": self.wal_segments,
            "compactions": self.compactions,
            "trigger": self.compaction_trigger,
        }


def evaluate_mutable_workload(
    server,
    base_data: np.ndarray,
    insert_points: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    phases: int = 4,
    delete_fraction: float = 0.25,
    mutation_clients: int = 1,
    seed: int = 0,
) -> List[MutablePhaseResult]:
    """Drive a mutable server through interleaved write and read phases.

    ``insert_points`` is split into ``phases`` blocks.  Each phase
    inserts one block (across ``mutation_clients`` concurrent threads,
    so group commit actually gets groups to merge), deletes
    ``delete_fraction`` of the ids that phase just inserted, then runs
    the whole query set and scores recall/ratio against exact k-NN over
    the live point set at that instant.  The returned trajectory shows
    how serving quality and cost evolve as the delta grows and
    compactions fold it away — the mixed-workload curve a static
    ``evaluate_method`` run cannot produce.

    ``server`` must expose ``insert``/``delete``/``query_batch``/
    ``status`` (a started
    :class:`~repro.serve.mutable.MutableSnapshotServer`); ``base_data``
    must be the point set its snapshot was built from, ids ``0..n-1``.
    """
    import threading

    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(
            f"delete_fraction must be in [0, 1], got {delete_fraction}"
        )
    if mutation_clients < 1:
        raise ValueError(
            f"mutation_clients must be >= 1, got {mutation_clients}"
        )
    base_data = np.asarray(base_data, dtype=np.float64)
    insert_points = np.atleast_2d(np.asarray(insert_points, dtype=np.float64))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    rng = np.random.default_rng(seed)

    # id -> point for every live row, maintained in lockstep with the
    # server so each phase can recompute exact ground truth.
    live: Dict[int, np.ndarray] = {
        i: base_data[i] for i in range(base_data.shape[0])
    }

    trajectory: List[MutablePhaseResult] = []
    for phase_index, block in enumerate(np.array_split(insert_points, phases)):
        inserted: List[tuple] = []
        errors: List[BaseException] = []
        lock = threading.Lock()

        def insert_chunk(chunk: np.ndarray) -> None:
            try:
                for point in chunk:
                    new_id = server.insert(point)
                    with lock:
                        inserted.append((new_id, point))
            except BaseException as exc:  # re-raised on the caller thread
                errors.append(exc)

        mutation_started = time.perf_counter()
        if len(block):
            threads = [
                threading.Thread(target=insert_chunk, args=(chunk,),
                                 daemon=True)
                for chunk in np.array_split(block, mutation_clients)
                if len(chunk)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        doomed = (
            rng.choice(
                len(inserted),
                size=int(len(inserted) * delete_fraction),
                replace=False,
            )
            if inserted
            else np.empty(0, dtype=int)
        )
        doomed_ids = {inserted[i][0] for i in doomed}
        for doomed_id in sorted(doomed_ids):
            server.delete(doomed_id)
        mutation_seconds = time.perf_counter() - mutation_started

        for new_id, point in inserted:
            live[new_id] = point
        for doomed_id in doomed_ids:
            del live[doomed_id]

        id_array = np.fromiter(live.keys(), dtype=np.int64, count=len(live))
        matrix = np.stack([live[i] for i in id_array])
        gt_rows, gt_dists = exact_knn(queries, matrix, k)
        gt_ids = id_array[gt_rows]

        query_started = time.perf_counter()
        results = server.query_batch(queries, k=k)
        query_seconds = time.perf_counter() - query_started

        recalls = [
            recall(result.ids, gt_ids[qi]) for qi, result in enumerate(results)
        ]
        ratios = [
            overall_ratio(result.distances, gt_dists[qi])
            for qi, result in enumerate(results)
        ]
        finite = [r for r in ratios if np.isfinite(r)]
        info = server.status()
        mutations = len(inserted) + len(doomed_ids)
        trajectory.append(
            MutablePhaseResult(
                phase=phase_index,
                inserts=len(inserted),
                deletes=len(doomed_ids),
                live_points=len(live),
                mutation_seconds=mutation_seconds,
                mutation_qps=(
                    mutations / mutation_seconds if mutation_seconds > 0
                    else 0.0
                ),
                query_time_ms=query_seconds / queries.shape[0] * 1e3,
                recall=float(np.mean(recalls)),
                ratio=float(np.mean(finite)) if finite else float("inf"),
                wal_bytes=int(info.get("wal_bytes", 0)),
                wal_segments=int(info.get("wal_segments", 0)),
                compactions=int(info.get("compactions", 0)),
                compaction_trigger=info.get("last_compaction_trigger"),
            )
        )
    return trajectory


def run_comparison(
    methods: Iterable,
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    dataset_name: str = "dataset",
) -> List[MethodResult]:
    """Evaluate several methods on one workload with shared ground truth."""
    data = np.asarray(data, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    gt_ids, gt_dists = exact_knn(queries, data, k)
    return [
        evaluate_method(
            method,
            data,
            queries,
            k,
            dataset_name=dataset_name,
            gt_ids=gt_ids,
            gt_dists=gt_dists,
        )
        for method in methods
    ]
