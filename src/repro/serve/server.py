"""Multi-process snapshot serving: supervised scatter-gather over workers.

:class:`SnapshotServer` turns a saved index snapshot into a query server
whose shards live in separate **processes**: worker ``i`` loads shard
``i`` of the snapshot (zero rebuild on the ``rstar`` backend), answers
each scattered query block against its slice, and the coordinator merges
the gathered per-shard answers with the same k-way planner the
in-process sharded sweep uses (:mod:`repro.core.plan`) — so the served
answers are bit-for-bit the answers ``load_index(path).query_batch(...)``
would produce, transport notwithstanding.

Why processes: DB-LSH probe rounds interleave GIL-holding Python
bookkeeping with released-GIL numpy chunks, which caps thread fan-out at
roughly one core of useful work (measured in ``docs/benchmarks.md``).
Worker processes each bring their own interpreter, so an S-shard server
on an S-core host runs S probe loops truly concurrently.  On a
single-core host the IPC is pure overhead — ``BENCH_serve.json``
records exactly that; see ``docs/benchmarks.md``.

Concurrency: every public method is **thread-safe**.  Callers from many
threads (the HTTP gateway's micro-batcher, or direct library callers)
are multiplexed onto the shared worker pool through a FIFO ticket lock,
so requests hit the workers in arrival order — no client can starve
another — and every scattered block carries a unique request id that the
workers echo back, so a retry never confuses a stale answer with a fresh
one.

Supervision: a worker that **dies** mid-query (SIGKILL, OOM, segfault)
no longer poisons the server.  The coordinator restarts the dead worker
from its snapshot shard, re-scatters the affected query block once, and
only raises :class:`ServerError` — naming the worker and its exit code —
when the retry fails too (two attempts per request; a second death marks
the server broken).  Because a shard snapshot is immutable
and queries are deterministic, the retried answer is bit-identical to
what the first attempt would have returned.

Deadlines and the hang watchdog: ``query_batch(..., timeout=...)``
converts the caller's budget into an absolute deadline that bounds the
wait for the dispatch ticket *and* every worker receive, and rides the
worker protocol so a worker can skip work whose answer nobody will read.
A worker that *hangs* (alive but silent past ``query_timeout`` or the
request deadline, whichever is sooner) is SIGKILLed by the watchdog and
the request is re-dispatched once on a fresh worker when its budget
allows, or failed with the typed :class:`DeadlineExceeded` when the
budget or the attempts are spent.  Either way the
server keeps serving: the killed worker is restarted from its immutable
shard — synchronously before a retry, lazily by the next request's
supervision otherwise — instead of the pre-watchdog behavior of marking
the whole server broken.

Generations: :meth:`reload` loads a **new snapshot generation** in fresh
workers, atomically flips new requests to it, and drains the old pool —
in-flight queries finish against the generation they started on, then
the old workers retire.  A reload to a junk file, a snapshot written
under a different format version, or a snapshot of different
dimensionality is refused (the old generation keeps serving).  The CLI
surfaces this as the gateway's ``POST /reload``.

Workers are always forked, never spawned: a worker needs only its
shard and its pipe, and fork starts one in milliseconds where a fresh
interpreter re-importing ``repro`` takes seconds — a cost every reload,
compaction flip and supervision restart would pay.  A forked worker
closes every descriptor it inherited except its own pipe (see
:mod:`repro.serve.worker`).

Lifecycle and failure discipline:

* :meth:`start` forks one daemon worker per shard and blocks until all
  report ready (or raises :class:`ServerError` carrying the failing
  worker's traceback).  Starting a started server raises; a closed
  server can be started again.
* every receive is bounded by a timeout **and** watches the worker
  process itself, so a crashed worker surfaces promptly — never a hang
  on a silent pipe.
* unrecoverable failures (death-retry exhausted, restart failed) mark
  the server *broken*: subsequent queries refuse with the original
  cause until :meth:`close` + :meth:`start`.  Hangs and deadline
  overruns are **not** unrecoverable: the watchdog kills the hung
  worker and the server stays serving.
* :meth:`close` is idempotent, asks workers to shut down politely, then
  escalates (terminate, kill) so no orphan processes outlive the
  coordinator — including workers of generations still draining; daemon
  workers cover even an abandoned coordinator.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.plan import merge_shard_batches
from repro.core.result import QueryResult
from repro.io.snapshot import read_header, shard_layout
from repro.serve.protocol import decode_result
from repro.serve.worker import serve_shard
from repro.utils.meminfo import mapping_memory, process_memory
from repro.utils.validation import check_queries, check_query

__all__ = ["DeadlineExceeded", "ServerError", "SnapshotServer"]

#: Dispatch attempts per request: the first, plus one re-dispatch on a
#: fresh worker after a death or a watchdog kill.
_ATTEMPTS = 2
#: Seconds all workers get to load their shards and report ready before
#: :meth:`SnapshotServer.start` (or a supervision restart, or a
#: :meth:`SnapshotServer.reload`) fails.
_START_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """A serving-layer failure: bad lifecycle call, dead or silent worker."""


class DeadlineExceeded(ServerError):
    """A request ran out of its time budget.

    Raised when a ``query_batch(..., timeout=...)`` budget expires —
    waiting for the dispatch ticket, waiting on a worker, or reported
    by a worker that skipped already-expired work — and when the hang
    watchdog kills a silent worker with no budget or attempt left to
    re-dispatch the block.  A ``ServerError`` subclass so
    existing broad handlers keep working, but typed so transports can
    map it to a distinct client-visible outcome (HTTP 504).
    """


def _await_exit(process, timeout: float) -> None:
    """Wait up to ``timeout`` seconds for a worker process to exit.

    Not ``process.join(timeout)``: that waits on ``process.sentinel``,
    whose pipe end the worker closes with everything else it inherited
    (see :func:`~repro.serve.worker.serve_shard`), so it would block
    until a hung worker exits by itself.
    """
    deadline = time.monotonic() + timeout
    while process.is_alive() and time.monotonic() < deadline:
        time.sleep(0.001)


class _WorkerGone(Exception):
    """Internal: a worker process died or closed its pipe mid-request."""

    def __init__(self, worker: "_Worker", detail: str) -> None:
        super().__init__(detail)
        self.worker = worker
        self.detail = detail


class _WorkerSilent(Exception):
    """Internal: a live worker exceeded the query timeout."""

    def __init__(self, worker: "_Worker", detail: str) -> None:
        super().__init__(detail)
        self.worker = worker
        self.detail = detail


class _FifoLock:
    """A ticket lock: acquirers proceed strictly in arrival order.

    ``threading.Lock`` makes no fairness promise, so a hot client thread
    could starve the others off the worker pool.  Tickets make dispatch
    order equal arrival order, which is the fairness the server
    advertises to concurrent callers.

    :meth:`acquire` optionally takes an absolute monotonic deadline: a
    waiter whose deadline passes abandons its ticket and returns
    ``False`` instead of holding its place in line forever.  Abandoned
    tickets are skipped when the line advances, so a timed-out waiter
    cannot stall the waiters behind it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._next_ticket = 0
        self._now_serving = 0
        self._abandoned: set = set()

    def acquire(self, deadline: Optional[float] = None) -> bool:
        """Take the lock in FIFO order; ``False`` if ``deadline`` passes."""
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            while ticket != self._now_serving:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    self._abandoned.add(ticket)
                    return False
                self._cond.wait(remaining)
        return True

    def release(self) -> None:
        with self._cond:
            self._now_serving += 1
            while self._now_serving in self._abandoned:
                self._abandoned.discard(self._now_serving)
                self._now_serving += 1
            self._cond.notify_all()

    def __enter__(self) -> "_FifoLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class _PoolSpec:
    """Everything a worker pool needs from a snapshot header (no payload I/O)."""

    __slots__ = ("path", "kind", "dim", "sizes", "offsets", "num_points",
                 "hash_fns")

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        header = read_header(self.path)  # raises SnapshotError on junk
        layout = shard_layout(header)
        first = layout[0][1]
        self.kind = header["kind"]
        self.dim = int(first["dim"])
        self.sizes = [int(h["n"]) for _, h, _ in layout]
        self.offsets = [offset for _, _, offset in layout]
        self.num_points = sum(self.sizes)
        self.hash_fns = int(first["k_per_space"]) * int(first["l_spaces"])

    @property
    def num_shards(self) -> int:
        return len(self.sizes)


class _Worker:
    """Coordinator-side handle for one worker process."""

    __slots__ = ("shard", "process", "conn", "num_points", "spawn", "state",
                 "mapped")

    def __init__(self, shard: int, process, conn, spawn: int = 0) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        self.num_points = 0
        #: How many times this shard's worker has been (re)spawned in its
        #: pool: 0 for the original, +1 per supervision restart.
        self.spawn = spawn
        self.state = "starting"  # starting -> ready -> dead / restarting
        #: True when the worker reported serving zero-copy mapped views
        #: (arena snapshot) in its ready handshake.
        self.mapped = False

    def describe(self) -> str:
        pid = self.process.pid
        return f"worker {self.shard} (pid {pid})"


class _Pool:
    """One snapshot generation: its spec, its workers, its drain state."""

    __slots__ = ("spec", "generation", "workers", "dispatch", "inflight",
                 "retired", "closed", "restarts")

    def __init__(self, spec: _PoolSpec, generation: int,
                 workers: List[_Worker]) -> None:
        self.spec = spec
        self.generation = generation
        self.workers = workers
        #: FIFO dispatch onto this pool's pipes (fair across client threads).
        self.dispatch = _FifoLock()
        self.inflight = 0
        self.retired = False
        self.closed = False
        self.restarts = 0


class SnapshotServer:
    """Serve a saved snapshot from one worker process per shard.

    Parameters
    ----------
    path:
        A snapshot written by :func:`repro.io.save_index` — sharded or
        single-index (a single-index snapshot is served by one worker).
        The header is read eagerly (shape validation, offsets); the
        payload is only ever read inside the workers.
    query_timeout:
        Seconds to wait for any single worker's answer to one scattered
        request before declaring it hung.

    Examples
    --------
    ::

        index.save("index.npz")
        with SnapshotServer("index.npz") as server:
            results = server.query_batch(queries, k=10)
    """

    def __init__(
        self,
        path: str,
        *,
        query_timeout: float = 120.0,
    ) -> None:
        if query_timeout <= 0:
            raise ValueError("query_timeout must be positive")
        self.path = os.fspath(path)
        self.query_timeout = float(query_timeout)
        # Named, not the platform default: that is no longer fork
        # everywhere fork exists.
        self._ctx = multiprocessing.get_context("fork")

        self._spec = _PoolSpec(self.path)  # raises SnapshotError on junk
        self.dim = self._spec.dim

        #: Guards the pool pointer, drain lists, broken flag, counters.
        self._state_lock = threading.Lock()
        #: Serializes reloads (pool builds are slow; one at a time).
        self._reload_lock = threading.Lock()
        self._pool: Optional[_Pool] = None
        self._retiring: List[_Pool] = []
        self._generation = 0
        self._broken: Optional[str] = None
        self._request_ids = itertools.count(1)
        self._served = 0
        self._restarts_total = 0
        self._hang_kills_total = 0
        self._deadline_hits_total = 0
        self.startup_seconds: float = 0.0
        #: ``evaluate_method`` reports this as the method's build cost;
        #: for a server the honest figure is the worker start-up time.
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        with self._state_lock:
            spec = self._pool.spec if self._pool is not None else self._spec
        return spec.num_shards

    @property
    def serving(self) -> bool:
        with self._state_lock:
            return self._pool is not None and self._broken is None

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of the current generation's workers (diagnostics/tests)."""
        with self._state_lock:
            if self._pool is None:
                return []
            return [w.process.pid for w in self._pool.workers]

    def memory_status(self) -> dict:
        """Physical-memory accounting for the current generation's workers.

        For each worker: whole-process RSS/PSS (``smaps_rollup``) plus
        the RSS/PSS attributed to mappings of the serving snapshot file
        (``smaps`` filtered by path) and the ``mapped`` flag from its
        ready handshake.  On an arena snapshot the interesting signal is
        ``snapshot_pss_kb`` vs ``snapshot_rss_kb`` summed across workers:
        shared physical pages make each worker's proportional share a
        fraction of its resident share.  Reads ``/proc`` directly from
        the coordinator — no worker round-trip, safe to call while
        queries are in flight.  On platforms without smaps every counter
        is 0 and ``available`` is False.
        """
        with self._state_lock:
            if self._pool is None:
                rows: List[tuple] = []
                path = self._spec.path
            else:
                path = self._pool.spec.path
                rows = [
                    (w.shard, w.process.pid, w.mapped)
                    for w in self._pool.workers
                ]
        workers = []
        available = False
        for shard, pid, mapped in rows:
            proc = process_memory(pid)
            snap = mapping_memory(path, pid)
            available = available or proc["available"]
            workers.append({
                "shard": shard,
                "pid": pid,
                "mapped": mapped,
                "rss_kb": proc["rss_kb"],
                "pss_kb": proc["pss_kb"],
                "snapshot_rss_kb": snap["rss_kb"],
                "snapshot_pss_kb": snap["pss_kb"],
                "snapshot_mappings": snap["mappings"],
            })
        return {
            "snapshot_path": path,
            "available": available,
            "workers": workers,
            "total_rss_kb": sum(w["rss_kb"] for w in workers),
            "total_pss_kb": sum(w["pss_kb"] for w in workers),
            "total_snapshot_rss_kb": sum(
                w["snapshot_rss_kb"] for w in workers
            ),
            "total_snapshot_pss_kb": sum(
                w["snapshot_pss_kb"] for w in workers
            ),
        }

    @property
    def generation(self) -> int:
        """Monotonic snapshot generation counter (0 before :meth:`start`)."""
        with self._state_lock:
            return self._generation

    @property
    def num_points(self) -> int:
        with self._state_lock:
            spec = self._pool.spec if self._pool is not None else self._spec
        return spec.num_points

    @property
    def num_hash_functions(self) -> int:
        with self._state_lock:
            spec = self._pool.spec if self._pool is not None else self._spec
        return spec.hash_fns

    @property
    def name(self) -> str:
        return f"DB-LSH-serve[{self.num_shards}p]"

    def describe(self) -> str:
        """One-line human-readable summary of the served snapshot."""
        with self._state_lock:
            pool = self._pool
            broken = self._broken
            spec = pool.spec if pool is not None else self._spec
            generation = self._generation
        state = "serving" if (pool is not None and broken is None) else (
            f"broken: {broken}" if broken else "stopped"
        )
        return (
            f"SnapshotServer(path={os.path.basename(spec.path)!r}, "
            f"shards={spec.num_shards}, n={spec.num_points}, d={spec.dim}, "
            f"generation={generation}, {state})"
        )

    def status(self) -> dict:
        """Structured lifecycle snapshot (the gateway's ``GET /status``).

        Returns
        -------
        dict
            ``path``/``generation``/``serving``/``broken`` of the current
            pool, per-worker rows (``shard``, ``pid``, ``state``, ``spawn``
            — spawn counts supervision restarts of that shard's slot),
            ``inflight`` requests on the current generation, generations
            still ``draining``, and the lifetime ``requests`` and
            ``restarts`` counters.
        """
        with self._state_lock:
            pool = self._pool
            spec = pool.spec if pool is not None else self._spec
            return {
                "path": spec.path,
                "kind": spec.kind,
                "shards": spec.num_shards,
                "num_points": spec.num_points,
                "dim": spec.dim,
                "generation": self._generation,
                "serving": pool is not None and self._broken is None,
                "broken": self._broken,
                "workers": [
                    {"shard": w.shard, "pid": w.process.pid,
                     "state": w.state, "spawn": w.spawn}
                    for w in (pool.workers if pool is not None else [])
                ],
                "inflight": pool.inflight if pool is not None else 0,
                "draining": [p.generation for p in self._retiring],
                "requests": self._served,
                "restarts": self._restarts_total,
                "hang_kills": self._hang_kills_total,
                "deadline_hits": self._deadline_hits_total,
            }

    def start(self) -> "SnapshotServer":
        """Fork one worker per shard and wait until all are ready.

        Raises
        ------
        ServerError
            On double-start, or when any worker fails to come up within
            ``_START_TIMEOUT`` seconds (the error carries the worker's
            traceback when it reported one).
        """
        with self._state_lock:
            if self._pool is not None:
                raise ServerError(
                    "server already started; close() it before starting again"
                )
            self._broken = None
        started = time.perf_counter()
        pool = self._build_pool(self._spec)
        with self._state_lock:
            if self._pool is not None:
                raced = pool
            else:
                raced = None
                self._generation += 1
                pool.generation = self._generation
                self._pool = pool
        if raced is not None:  # lost a start/start race; fold the spare pool
            self._shutdown_pool(raced)
            raise ServerError(
                "server already started; close() it before starting again"
            )
        self.startup_seconds = time.perf_counter() - started
        self.build_seconds = self.startup_seconds
        return self

    def reload(self, path: Optional[str] = None) -> dict:
        """Flip serving to a new snapshot generation without downtime.

        Fresh workers load the snapshot at ``path`` (default: the path
        currently served — pick up an overwritten file in place); once
        all are ready, new requests atomically go to the new generation
        while in-flight requests finish against the old one, whose
        workers then retire.  Nothing is dropped and nothing is refused
        during the flip.

        The new snapshot may have a different shard count, budget knob
        ``t``, or point count; it must have the same dimensionality (clients
        hold the query-shape contract) and be readable under this
        build's snapshot version.

        Returns
        -------
        dict
            :meth:`status` after the flip.

        Raises
        ------
        SnapshotError
            If the file at ``path`` is junk, truncated, or written under
            a different snapshot format version.  The old generation
            keeps serving.
        ServerError
            If the server is not serving, the new snapshot's
            dimensionality differs from the served one, or the new
            generation's workers fail to start.  The old generation
            keeps serving in the dimensionality/startup cases.
        """
        with self._reload_lock:
            with self._state_lock:
                if self._broken is not None:
                    raise ServerError(
                        f"server is broken ({self._broken}); close() and "
                        f"start() again instead of reloading"
                    )
                if self._pool is None:
                    raise ServerError(
                        "server is not serving; reload() only swaps a live "
                        "generation — call start() first"
                    )
                current_path = self._pool.spec.path
            new_path = os.fspath(path) if path is not None else current_path
            spec = _PoolSpec(new_path)  # SnapshotError on junk/version skew
            if spec.dim != self.dim:
                raise ServerError(
                    f"refusing to reload {new_path!r}: it is {spec.dim}-d "
                    f"but this server serves {self.dim}-d queries"
                )
            pool = self._build_pool(spec)  # old generation untouched on failure
            with self._state_lock:
                old = self._pool
                self._generation += 1
                pool.generation = self._generation
                self._pool = pool
                # The reloaded snapshot is now the server's snapshot: a
                # later close()/start() cycle resumes from it, not from
                # the constructor-time path.
                self._spec = spec
                self.path = spec.path
                close_now = False
                if old is not None:
                    old.retired = True
                    if old.inflight == 0 and not old.closed:
                        old.closed = True
                        close_now = True
                    else:
                        self._retiring.append(old)
            if close_now and old is not None:
                self._shutdown_pool(old)
        return self.status()

    def close(self, timeout: float = 5.0) -> None:
        """Stop all workers — current and draining generations; idempotent.

        Polite shutdown first (a ``("shutdown",)`` message), then
        ``terminate()``, then ``kill()`` for anything still alive — a
        closed server leaves no worker processes behind.
        """
        with self._state_lock:
            pools = list(self._retiring)
            if self._pool is not None:
                pools.append(self._pool)
            self._pool = None
            self._retiring = []
            # A closed server is "stopped", not "broken": the failure was
            # acted on, and start() may bring the server back cleanly.
            self._broken = None
        for pool in pools:
            self._shutdown_pool(pool, timeout)

    def _shutdown_pool(self, pool: _Pool, timeout: float = 5.0) -> None:
        pool.retired = True
        pool.closed = True
        for worker in pool.workers:
            try:
                worker.conn.send(("shutdown",))
            except (OSError, BrokenPipeError, ValueError):
                pass  # already dead; reaped below
        self._reap(pool.workers, timeout)

    def _reap(self, workers: Sequence[_Worker], timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        for worker in workers:
            _await_exit(worker.process, max(deadline - time.monotonic(), 0.1))
            if worker.process.is_alive():
                worker.process.terminate()
                _await_exit(worker.process, 1.0)
            if worker.process.is_alive():
                worker.process.kill()
                _await_exit(worker.process, 1.0)
            worker.state = "dead"
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "SnapshotServer":
        with self._state_lock:
            broken = self._broken is not None
            started = self._pool is not None
        if broken:
            self.close()  # recycle a broken pool rather than hand it out
            started = False
        if not started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pool construction and supervision
    # ------------------------------------------------------------------

    def _spawn_worker(self, spec: _PoolSpec, shard: int, spawn: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=serve_shard,
            args=(spec.path, shard, child_conn, spawn),
            name=f"repro-serve-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # child's end lives in the child now
        return _Worker(shard, process, parent_conn, spawn)

    def _await_ready(self, worker: _Worker, deadline: float,
                     spec: _PoolSpec) -> None:
        try:
            message = self._recv(
                worker, max(deadline - time.monotonic(), 0.0), during="startup"
            )
        except _WorkerGone as gone:
            raise ServerError(
                f"{self._dead_worker_detail(gone.worker, spec.path)}"
            ) from gone
        except _WorkerSilent as silent:
            raise ServerError(silent.detail) from silent
        if message[0] != "ready":
            detail = message[1] if len(message) > 1 else message
            raise ServerError(
                f"{worker.describe()} failed to load shard "
                f"{worker.shard} of {spec.path!r}:\n{detail}"
            )
        worker.num_points = int(message[1])
        worker.mapped = bool(message[2]["mapped"])
        if worker.num_points != spec.sizes[worker.shard]:
            raise ServerError(
                f"{worker.describe()} loaded {worker.num_points} points for "
                f"shard {worker.shard} of {spec.path!r}; the header promises "
                f"{spec.sizes[worker.shard]}"
            )
        worker.state = "ready"

    def _build_pool(self, spec: _PoolSpec) -> _Pool:
        workers: List[_Worker] = []
        try:
            for shard in range(spec.num_shards):
                workers.append(self._spawn_worker(spec, shard, 0))
            deadline = time.monotonic() + _START_TIMEOUT
            for worker in workers:
                self._await_ready(worker, deadline, spec)
        except BaseException:
            self._reap(workers)
            raise
        return _Pool(spec, generation=0, workers=workers)

    def _revive(self, pool: _Pool) -> List[_Worker]:
        """Restart every dead worker of ``pool`` from its snapshot shard.

        Called between retry attempts, under the pool's dispatch lock.
        Returns the replacements; raises :class:`ServerError` (after
        marking the server broken) when a replacement cannot come up —
        at that point retrying is hopeless.
        """
        if pool.closed:
            # close() reaped this generation while our request was in
            # flight; respawning workers for it would orphan them.
            raise ServerError(
                "server was closed while the query was in flight"
            )
        replaced: List[_Worker] = []
        for i, worker in enumerate(pool.workers):
            if worker.process.is_alive() and worker.state == "ready":
                continue
            worker.state = "dead"
            replacement = self._spawn_worker(
                pool.spec, worker.shard, worker.spawn + 1
            )
            replacement.state = "restarting"
            try:
                self._await_ready(
                    replacement, time.monotonic() + _START_TIMEOUT,
                    pool.spec,
                )
            except ServerError as exc:
                self._reap([replacement])
                self._mark_broken(
                    f"restart of worker {worker.shard} failed"
                )
                raise ServerError(
                    f"supervision could not restart worker {worker.shard} "
                    f"from shard {worker.shard} of {pool.spec.path!r}: {exc}"
                ) from exc
            with self._state_lock:
                if pool.closed:
                    closed_while_restarting = True
                else:
                    closed_while_restarting = False
                    pool.workers[i] = replacement
                    pool.restarts += 1
                    self._restarts_total += 1
            if closed_while_restarting:
                # close() reaped this pool while the replacement was
                # coming up; fold the replacement too or it would outlive
                # close() as an orphan.
                self._reap([replacement])
                raise ServerError(
                    "server was closed while the query was in flight"
                )
            self._reap([worker])
            replaced.append(replacement)
        return replaced

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, query: np.ndarray, k: int = 1, *,
              timeout: Optional[float] = None) -> QueryResult:
        """(c, k)-ANN over the served snapshot (a batch of one)."""
        query = check_query(np.asarray(query, dtype=np.float64), self.dim)
        return self.query_batch(query[None, :], k=k, timeout=timeout)[0]

    def query_batch(self, queries: np.ndarray, k: int = 1, *,
                    timeout: Optional[float] = None) -> List[QueryResult]:
        """Scatter a query block to every worker and merge the answers.

        Thread-safe: concurrent callers are dispatched onto the worker
        pool in FIFO order.  A request that checked out a generation
        completes against that generation even if :meth:`reload` flips
        the server mid-flight.

        Parameters
        ----------
        queries:
            Query block of shape ``(m, d)`` (or a single ``(d,)`` row).
        k:
            Neighbors per query, ``k >= 1``.
        timeout:
            Optional time budget in seconds for this call, converted to
            an absolute deadline on entry — time spent waiting for the
            dispatch ticket counts against it.  When it expires the call
            raises :class:`DeadlineExceeded`; a worker still grinding on
            the block past the deadline is killed by the watchdog and
            restarted.  ``None`` (default) bounds each worker receive by
            ``query_timeout`` only.

        Returns
        -------
        list of QueryResult
            Identical — ids and distances — to what
            ``load_index(path).query_batch(queries, k)`` returns in one
            process for the generation that answered (pinned by
            ``tests/test_serve.py``, ``tests/test_serve_faults.py`` and
            the ``bench_serve.py`` parity gate).

        Raises
        ------
        DeadlineExceeded
            If ``timeout`` expires before the answer is merged, or the
            hang watchdog killed a silent worker and neither budget nor
            attempts were left for a re-dispatch.
        ServerError
            If the server is not serving (never started, closed, or
            broken by an earlier unrecoverable failure), a worker died
            on both attempts, or a restart failed.
        ValueError
            If ``k < 1``, ``timeout <= 0``, or the query block does not
            match the snapshot's dimensionality.
        """
        return self._scatter_gather(queries, k, timeout, None)

    def _scatter_gather(self, queries: np.ndarray, k: int,
                        timeout: Optional[float],
                        tombstones: Optional[np.ndarray]) -> List[QueryResult]:
        """:meth:`query_batch` skipping ``tombstones`` (sorted global ids)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        deadline = None
        if timeout is not None:
            if timeout <= 0:
                raise ValueError(f"timeout must be positive, got {timeout}")
            deadline = time.monotonic() + float(timeout)
        queries = check_queries(queries, self.dim)
        if queries.shape[0] == 0:
            return []
        pool = self._checkout()
        try:
            if not pool.dispatch.acquire(deadline):
                self._note_deadline()
                raise DeadlineExceeded(
                    f"request spent its {timeout:.3f}s budget waiting for "
                    f"dispatch (queue too deep for the deadline)"
                )
            try:
                results = self._dispatch(pool, queries, int(k), deadline,
                                         tombstones)
            finally:
                pool.dispatch.release()
        finally:
            self._checkin(pool)
        with self._state_lock:
            self._served += 1
        return results

    def _dispatch(self, pool: _Pool, queries: np.ndarray, k: int,
                  deadline: Optional[float],
                  tombstones: Optional[np.ndarray]) -> List[QueryResult]:
        """Scatter-gather one block on ``pool``, supervising worker death.

        Caller holds ``pool.dispatch``.  Each attempt carries a fresh
        request id; stale answers from an abandoned attempt are discarded
        by id, so a re-scattered block cannot be answered twice.

        ``tombstones`` is cut into shard-local slices with *this pool's*
        offsets, so a concurrent :meth:`reload` cannot misroute one; ids
        past the pool's last row (delta rows) go to no worker.
        """
        m = queries.shape[0]
        offsets = pool.spec.offsets
        slices = [None] * len(offsets)
        if tombstones is not None:
            cuts = np.searchsorted(tombstones, offsets + [pool.spec.num_points])
            slices = [tombstones[lo:hi] - offset
                      for lo, hi, offset in zip(cuts, cuts[1:], offsets)]
        for attempt in range(_ATTEMPTS):
            if deadline is not None and time.monotonic() >= deadline:
                self._note_deadline()
                raise DeadlineExceeded(
                    "request deadline expired before dispatch "
                    f"(attempt {attempt + 1}/{_ATTEMPTS})"
                )
            req_id = next(self._request_ids)
            started = time.perf_counter()
            try:
                for worker in pool.workers:
                    try:
                        worker.conn.send(("query", req_id, queries, k,
                                          deadline, slices[worker.shard]))
                    except (OSError, BrokenPipeError, ValueError) as exc:
                        worker.state = "dead"
                        raise _WorkerGone(
                            worker, f"send failed: {exc!r}"
                        ) from exc
                per_shard = []
                for worker in pool.workers:
                    message = self._recv_reply(worker, req_id,
                                               deadline=deadline)
                    if message[0] == "expired":
                        # The worker saw the deadline already past and
                        # skipped the block; nobody would read the answer.
                        self._note_deadline()
                        raise DeadlineExceeded(
                            f"request deadline expired before "
                            f"{worker.describe()} started the block"
                        )
                    if message[0] != "ok":
                        detail = message[2] if len(message) > 2 else message
                        self._mark_broken(
                            f"{worker.describe()} failed a query"
                        )
                        raise ServerError(
                            f"{worker.describe()} failed the query:\n{detail}"
                        )
                    per_shard.append(
                        [decode_result(w) for w in message[2]]
                    )
            except _WorkerGone as gone:
                if attempt + 1 >= _ATTEMPTS:
                    self._mark_broken(f"{gone.worker.describe()} died")
                    raise ServerError(
                        f"{self._dead_worker_detail(gone.worker, pool.spec.path)}"
                        f" after {_ATTEMPTS} attempts ({gone.detail})"
                    ) from gone
                self._revive(pool)  # raises ServerError when hopeless
                continue
            except _WorkerSilent as silent:
                # Watchdog: a live worker outlasted its receive bound
                # (query_timeout, or the request deadline — whichever
                # came first).  Kill it; decide retry vs fail below.
                # The server is NOT marked broken: the shard snapshot is
                # immutable, so a fresh worker serves it correctly.
                self._watchdog_kill(silent.worker)
                out_of_time = (deadline is not None
                               and time.monotonic() >= deadline)
                if not out_of_time and attempt + 1 < _ATTEMPTS:
                    self._revive(pool)  # raises ServerError when hopeless
                    continue
                self._note_deadline()
                raise DeadlineExceeded(
                    f"{silent.detail}; the watchdog killed the hung worker "
                    f"(it restarts on the next request)"
                ) from silent
            elapsed = time.perf_counter() - started
            return merge_shard_batches(
                per_shard,
                pool.spec.offsets,
                k,
                elapsed / m,
                hash_evaluations=pool.spec.hash_fns,
            )
        raise AssertionError("unreachable: the attempt loop returns or raises")

    def _watchdog_kill(self, worker: _Worker) -> None:
        """SIGKILL a hung worker (sleep/hang fault, stuck GEMM, livelock).

        Only marks the slot dead; revival happens synchronously before a
        retry or lazily via the next request's supervision (a send/recv
        on the dead slot raises ``_WorkerGone`` → ``_revive``).
        """
        worker.state = "dead"
        try:
            worker.process.kill()
        except (OSError, AttributeError):
            pass  # already gone
        with self._state_lock:
            self._hang_kills_total += 1

    def _note_deadline(self) -> None:
        with self._state_lock:
            self._deadline_hits_total += 1

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _checkout(self) -> _Pool:
        with self._state_lock:
            if self._broken is not None:
                raise ServerError(
                    f"server is broken ({self._broken}); close() and "
                    f"start() again"
                )
            if self._pool is None:
                raise ServerError(
                    "server is not serving; call start() (or use it as a "
                    "context manager) before querying"
                )
            self._pool.inflight += 1
            return self._pool

    def _checkin(self, pool: _Pool) -> None:
        close_now = False
        with self._state_lock:
            pool.inflight -= 1
            if pool.retired and pool.inflight == 0 and not pool.closed:
                pool.closed = True
                close_now = True
                if pool in self._retiring:
                    self._retiring.remove(pool)
        if close_now:
            self._shutdown_pool(pool)

    def _mark_broken(self, reason: str) -> None:
        with self._state_lock:
            if self._broken is None:
                self._broken = reason

    def _recv_reply(self, worker: _Worker, req_id: int,
                    deadline: Optional[float] = None):
        """Receive the reply tagged ``req_id``, discarding stale answers.

        After a failed attempt, surviving workers may still deliver the
        abandoned attempt's answer; those carry the old request id and
        are dropped here, which is what makes re-scattering safe.  The
        wait is bounded by ``query_timeout`` or the request's absolute
        ``deadline``, whichever comes first.
        """
        bound = time.monotonic() + self.query_timeout
        if deadline is not None:
            bound = min(bound, deadline)
        while True:
            message = self._recv(
                worker, max(bound - time.monotonic(), 0.0), during="query",
                deadline=bound,
            )
            if (message[0] in ("ok", "error", "expired")
                    and message[1] == req_id):
                return message
            # Stale reply from an abandoned attempt: drop it and keep
            # waiting for ours.

    def _recv(self, worker: _Worker, timeout: float, during: str,
              deadline: Optional[float] = None):
        """Receive one message, bounded by ``timeout`` and worker health.

        Raises :class:`_WorkerGone` for a dead worker or closed pipe and
        :class:`_WorkerSilent` for a live worker that outlasts the
        timeout; the caller decides whether that is recoverable.
        """
        if deadline is None:
            deadline = time.monotonic() + timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, OSError) as exc:
                worker.state = "dead"
                raise _WorkerGone(
                    worker, f"{worker.describe()} closed its pipe"
                ) from exc
            if not worker.process.is_alive():
                # Drain a message the worker managed to send before dying.
                try:
                    if worker.conn.poll(0):
                        return worker.conn.recv()
                except (EOFError, OSError):
                    pass
                worker.state = "dead"
                raise _WorkerGone(worker, f"{worker.describe()} died")
            if time.monotonic() >= deadline:
                raise _WorkerSilent(
                    worker,
                    f"{worker.describe()} did not answer within "
                    f"{timeout:.1f}s during {during}",
                )

    def _dead_worker_detail(self, worker: _Worker, path: str) -> str:
        # The closed pipe can be seen before the exit is reaped; wait
        # briefly so the report carries the exit code.
        _await_exit(worker.process, 1.0)
        code = worker.process.exitcode
        state = "is still running" if code is None else f"exited with code {code}"
        return (
            f"{worker.describe()} serving shard {worker.shard} of "
            f"{path!r} is gone ({state}); close() and start() the "
            f"server again"
        )
