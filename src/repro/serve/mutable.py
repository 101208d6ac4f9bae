"""Crash-safe mutable serving: snapshot + write-ahead log + delta buffer.

:class:`MutableSnapshotServer` extends the read-only
:class:`~repro.serve.server.SnapshotServer` with durable ``insert`` /
``delete``.  The frozen snapshot generation keeps answering from its
worker processes untouched; mutations follow the classic LSM discipline:

1. **log** — the mutation is submitted to a segmented, group-commit
   :class:`~repro.io.wal.WriteAheadLog` bound to the served snapshot's
   uid; the caller blocks (outside the mutation lock) until the group
   holding the record is fsync'd, and only then is it acknowledged.
   The log's committer takes every record queued while the previous
   fsync ran, so concurrent mutators share one disk sync with no
   window to tune and a lone mutator never waits on a timer.  A crash
   at any instant loses at most un-acked work.
2. **apply** — both kinds land in one in-memory
   :class:`~repro.core.delta.DeltaIndex` (the mutation state ``DBLSH``
   keeps too): an insert as a pending row, a delete in its sorted
   tombstone array.  Queries answer from *snapshot + delta − tombstones*
   with the engine's one delete rule: every query block carries each
   worker its shard's tombstones, which the worker hands to
   ``DBLSH.delete`` so deleted rows are never verified nor charged to
   the ``2tL + k`` budget; then :meth:`~repro.core.delta.DeltaView.answer`
   sweeps the pending rows (skipping the same ids) and folds the two
   answers together, as ``DBLSH`` does in process.
   Served answers after inserts and deletes therefore equal
   ``load_index(path)`` + ``.add(points)`` + ``.delete(ids)`` +
   ``.query_batch``.
3. **compact** — a background thread folds delta + tombstones into a
   fresh snapshot generation when the scheduler says so: pending
   mutation count (``compact_threshold``) or total WAL bytes
   (``_COMPACT_WAL_BYTES``, 64 MiB), whichever trips first.  The fold
   rebuilds the index (base rows + folded delta, tombstones applied),
   writes it atomically with a new ``uid`` whose ``parent_uid`` is the
   old generation, hot-flips the workers through :meth:`reload` (in-flight
   queries drain on the generation they checked out), then **rolls the
   WAL onto a checkpoint segment**: a fresh segment bound to the new
   uid whose first record is a checkpoint, the still-pending mutations
   re-logged, and the fully-checkpointed older segments deleted.
   Queries racing the flip may briefly see a folded row in both the new
   snapshot and the not-yet-trimmed delta; the merge dedups by id, so
   the window is harmless.

Recovery is the mirror image: :meth:`start` reads the snapshot header's
``uid``/``parent_uid``/``next_id``, opens the WAL **accepting either
uid** — a crash between a compaction's snapshot flip and its checkpoint
roll leaves a log bound to the parent — and replays it idempotently: an
insert whose id is already a snapshot row is skipped, a delete already
baked into the snapshot's tombstones is skipped, and everything else
rebuilds the delta state exactly as acked.  A log
replayed through the parent binding is immediately rolled onto a
checkpoint segment bound to the live uid, completing the interrupted
compaction.

Fault injection (tests only): ``REPRO_COMPACT_FAULT`` holds
comma-separated ``<point>[:<nth>]`` specs — points ``pre-snapshot-replace``,
``post-snapshot-replace``, ``post-wal-replace``; ``nth`` is the 0-based
compaction ordinal — each killing the process with ``os._exit(9)`` at
that point, complementing the WAL-level ``REPRO_WAL_FAULT`` hooks
(which add ``mid-group``, ``between-segment``, and
``pre-segment-delete`` kill points inside the log itself).
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional

import numpy as np

from repro.core.delta import DeltaIndex, contains_sorted, merge_sorted
from repro.io.snapshot import (
    load_index,
    load_tombstones,
    read_header,
    save_index,
)
from repro.io.wal import (
    DeleteRecord,
    InsertRecord,
    WriteAheadLog,
    armed_fault,
    wal_present,
)
from repro.core.result import QueryResult
from repro.serve.server import ServerError, SnapshotServer
from repro.utils.validation import check_queries, check_query

__all__ = ["MutableSnapshotServer"]

#: EMA smoothing for the per-query-batch delta-sweep overhead fraction
#: (reported as ``status()["sweep_overhead_ema"]``).
_OVERHEAD_ALPHA = 0.2

#: Compact once the WAL's live segments reach this many bytes.
_COMPACT_WAL_BYTES = 64 << 20


#: Environment variable arming the compaction kill points (module docstring).
_COMPACT_FAULT = "REPRO_COMPACT_FAULT"


class MutableSnapshotServer(SnapshotServer):
    """Serve a snapshot *and* accept durable inserts/deletes.

    Parameters (beyond :class:`SnapshotServer`'s)
    ---------------------------------------------
    wal_path:
        Where the write-ahead log lives (a directory of segments);
        default ``<snapshot>.wal``.  An existing log found at
        :meth:`start` is recovered (replayed, torn tail truncated); a
        missing one is created bound to the served snapshot's uid.
    compact_threshold:
        Fold the delta buffer and tombstones into a fresh snapshot
        generation once their combined count reaches this; ``0``
        disables automatic compaction entirely (``compact()`` still
        works, and the ``_COMPACT_WAL_BYTES`` trigger is inert too).
    segment_bytes:
        Rotate WAL segments at this size (must be > 0).

    Mutations are acknowledged only after the WAL group holding them
    has been fsync'd: the id returned by :meth:`insert` (and the
    ``True`` from :meth:`delete`) is a durability receipt, pinned by
    the kill-based tests in ``tests/test_serve_mutations.py``.
    """

    def __init__(
        self,
        path: str,
        *,
        wal_path: Optional[str] = None,
        compact_threshold: int = 4096,
        segment_bytes: int = 4 << 20,
        query_timeout: float = 120.0,
    ) -> None:
        super().__init__(path, query_timeout=query_timeout)
        if compact_threshold < 0:
            raise ValueError(
                f"compact_threshold must be >= 0, got {compact_threshold}"
            )
        if segment_bytes <= 0:
            raise ValueError(
                f"segment_bytes must be > 0, got {segment_bytes}"
            )
        self.wal_path = (
            os.fspath(wal_path) if wal_path is not None else self.path + ".wal"
        )
        self.compact_threshold = int(compact_threshold)
        self.segment_bytes = int(segment_bytes)
        #: Guards every mutable view: delta, tombstones, WAL handle,
        #: id counter, base-generation bookkeeping.
        self._mutation_lock = threading.Lock()
        #: Signalled when an acked-but-not-yet-applied mutation count
        #: drops; compaction waits on it so the checkpoint roll never
        #: drops a mutation that was acked but not yet in the delta.
        self._inflight_cond = threading.Condition(self._mutation_lock)
        self._inflight = 0
        #: Serializes compactions (at most one folds at a time).
        self._compact_lock = threading.Lock()
        #: Pending inserts and deletes (not yet folded into the snapshot).
        self._delta = DeltaIndex(self.dim)
        #: Ids the snapshot itself marks deleted: sorted, unique int64.
        self._baked = np.empty(0, dtype=np.int64)
        self._wal: Optional[WriteAheadLog] = None
        self._next_id = 0
        self._base_rows = 0
        self._snapshot_uid: Optional[str] = None
        self._compactions = 0
        self._last_compaction_uid: Optional[str] = None
        self._last_compaction_trigger: Optional[str] = None
        self._sweep_overhead_ema = 0.0
        self._overhead_samples = 0
        self._pending_trigger: Optional[str] = None
        self._compactor: Optional[threading.Thread] = None
        self._compactor_wake = threading.Event()
        self._compactor_stop = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle: recovery on start, WAL teardown on close
    # ------------------------------------------------------------------

    def start(self) -> "MutableSnapshotServer":
        super().start()
        try:
            self._recover()
        except BaseException:
            super().close()
            raise
        if self.compact_threshold > 0:
            self._compactor_stop.clear()
            self._compactor_wake.clear()
            self._compactor = threading.Thread(
                target=self._compactor_loop,
                name="repro-serve-compactor",
                daemon=True,
            )
            self._compactor.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        self._compactor_stop.set()
        self._compactor_wake.set()
        compactor = self._compactor
        if compactor is not None:
            compactor.join(timeout=max(timeout, 30.0))
            self._compactor = None
        with self._mutation_lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None
        super().close(timeout)

    def _recover(self) -> None:
        """Rebuild delta + tombstones from the snapshot header and the WAL."""
        header = read_header(self.path)
        uid = header.get("uid")
        if uid is None:
            raise ServerError(
                f"snapshot {self.path!r} predates generation uids; re-save it "
                f"(repro.io.save_index) before serving it mutably"
            )
        baked = load_tombstones(self.path)
        base_rows = self.num_points
        next_id = int(header.get("next_id", base_rows))
        delta = DeltaIndex(self.dim)
        deletes: List[int] = []

        rebound = False
        if wal_present(self.wal_path):
            wal = WriteAheadLog.open(
                self.wal_path,
                accept_uids={uid, header.get("parent_uid")},
                segment_bytes=self.segment_bytes,
            )
            next_id = max(next_id, wal.next_id)
            for record in wal.recovered:
                if isinstance(record, InsertRecord):
                    if record.point.shape[0] != self.dim:
                        wal.close()
                        raise ServerError(
                            f"WAL {self.wal_path!r} logs a "
                            f"{record.point.shape[0]}-d insert for the "
                            f"{self.dim}-d snapshot {self.path!r}"
                        )
                    if record.id < base_rows:
                        continue  # already folded into the snapshot
                    delta.extend([record.id], record.point[None, :])
                    next_id = max(next_id, record.id + 1)
                elif isinstance(record, DeleteRecord):
                    deletes.append(record.id)
                # CheckpointRecord: lineage breadcrumb, nothing to apply.
            # Deletes already baked into the snapshot are not pending.
            logged = np.asarray(deletes, dtype=np.int64)
            delta.delete(logged[~contains_sorted(baked, logged)])
            rebound = wal.snapshot_uid != uid
        else:
            wal = WriteAheadLog.create(
                self.wal_path, snapshot_uid=uid, next_id=next_id,
                segment_bytes=self.segment_bytes,
            )

        with self._mutation_lock:
            self._delta = delta
            self._baked = baked
            self._wal = wal
            self._next_id = max(next_id, base_rows)
            self._base_rows = base_rows
            self._snapshot_uid = uid
        if rebound:
            # The crash happened between a compaction's snapshot flip and
            # its checkpoint roll: finish the roll now, so the log binds
            # to the generation actually on disk.
            with self._mutation_lock:
                self._roll_checkpoint(uid=uid, parent_uid=header.get("parent_uid"))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, point: np.ndarray) -> int:
        """Durably insert one point; returns its permanent id.

        The id is acknowledged only after the WAL group holding the
        record is fsync'd — a crash after the return can never lose the
        point.  The wait happens *outside* the mutation lock, so
        concurrent inserts queued behind one fsync share the next.
        """
        point = check_query(np.asarray(point, dtype=np.float64), self.dim)
        with self._mutation_lock:
            if self._wal is None:
                raise ServerError(
                    "server is not serving; call start() before insert()"
                )
            point_id = self._next_id
            self._next_id = point_id + 1
            ticket = self._wal.submit_insert(point_id, point)
            self._inflight += 1
        self._apply_when_durable(
            ticket, self._delta.extend, [point_id], point[None, :]
        )
        return point_id

    def delete(self, point_id: int) -> bool:
        """Durably delete one id; ``False`` when it was already deleted.

        Idempotent: deleting a tombstoned (or snapshot-baked-deleted) id
        is a no-op that appends nothing to the log.
        """
        point_id = int(point_id)
        with self._mutation_lock:
            if self._wal is None:
                raise ServerError(
                    "server is not serving; call start() before delete()"
                )
            if point_id < 0 or point_id >= self._next_id:
                raise ValueError(
                    f"point id {point_id} out of range [0, {self._next_id})"
                )
            baked = contains_sorted(self._baked, np.array([point_id], dtype=np.int64))
            if baked[0] or self._delta.is_deleted(point_id):
                return False
            ticket = self._wal.submit_delete(point_id)
            self._inflight += 1
        self._apply_when_durable(ticket, self._delta.delete, point_id)
        return True

    def _apply_when_durable(self, ticket, apply, *args) -> None:
        """Wait for the record's group fsync (mutation lock not held),
        then ``apply(*args)`` under the lock and drop the in-flight count
        — also when the wait raises, in which case nothing is applied."""
        durable = False
        try:
            ticket.wait()
            durable = True
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()
                if durable:
                    apply(*args)
        self._maybe_wake_compactor()

    # ------------------------------------------------------------------
    # Queries: snapshot + delta - tombstones
    # ------------------------------------------------------------------

    def query_batch(self, queries: np.ndarray, k: int = 1, *,
                    timeout: Optional[float] = None) -> List[QueryResult]:
        queries = check_queries(queries, self.dim)
        # Capture the delta view *before* checking out a generation: a
        # compaction flips the pool before it trims the delta, so this
        # request can never pair trimmed state with the old pool.
        with self._mutation_lock:
            view = self._delta.view()
        start = time.perf_counter()
        base = self._scatter_gather(queries, k, timeout, view.tombstones)
        if not base or not len(view):
            return base
        sweep_start = time.perf_counter()
        results = view.answer(base, queries, k)
        sweep_end = time.perf_counter()
        self._observe_sweep_overhead(
            sweep_end - sweep_start, sweep_end - start
        )
        return results

    def _observe_sweep_overhead(self, sweep: float, total: float) -> None:
        """Fold one query batch's delta-sweep share into the overhead EMA."""
        if total <= 0.0:
            return
        fraction = min(1.0, max(0.0, sweep / total))
        with self._mutation_lock:
            if self._overhead_samples == 0:
                self._sweep_overhead_ema = fraction
            else:
                self._sweep_overhead_ema += _OVERHEAD_ALPHA * (
                    fraction - self._sweep_overhead_ema
                )
            self._overhead_samples += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _compaction_due(self) -> Optional[str]:
        """The adaptive scheduler: the trigger that fired, or ``None``.

        Caller holds the mutation lock.  ``compact_threshold == 0`` is
        the master off-switch (matching the constructor contract); with
        it enabled, two independent triggers are consulted:

        * ``count`` — pending delta rows + tombstones ≥ threshold (the
          classic fixed-count trigger);
        * ``wal-bytes`` — live WAL segments ≥ ``_COMPACT_WAL_BYTES``.
        """
        if self.compact_threshold <= 0:
            return None
        pending = len(self._delta) + self._delta.tombstones.size
        if pending >= self.compact_threshold:
            return "count"
        if (
            self._wal is not None
            and self._wal.size_bytes >= _COMPACT_WAL_BYTES
            and pending > 0
        ):
            return "wal-bytes"
        return None

    def _maybe_wake_compactor(self) -> None:
        if self.compact_threshold <= 0:
            return
        with self._mutation_lock:
            due = self._compaction_due()
        if due is not None:
            self._pending_trigger = due
            self._compactor_wake.set()

    def _compactor_loop(self) -> None:
        while not self._compactor_stop.is_set():
            self._compactor_wake.wait()
            self._compactor_wake.clear()
            if self._compactor_stop.is_set():
                return
            try:
                self.compact(trigger=self._pending_trigger)
            except Exception as exc:  # pragma: no cover - diagnostics only
                # A failed background fold must not kill serving: the
                # delta keeps answering, and the next mutation retries.
                import sys

                print(
                    f"[compact] background compaction failed: {exc}",
                    file=sys.stderr, flush=True,
                )

    def compact(self, trigger: Optional[str] = None) -> dict:
        """Fold delta + tombstones into a fresh snapshot generation.

        Safe to call concurrently with queries and mutations; mutations
        arriving during the fold stay pending and survive on the rolled
        log.  No-op (``{"compacted": False}``) when there is nothing to
        fold.  Returns a summary dict either way.
        """
        with self._compact_lock:
            with self._mutation_lock:
                if self._wal is None:
                    raise ServerError(
                        "server is not serving; call start() before compact()"
                    )
                fold = self._delta.view()
                old_uid = self._snapshot_uid
                next_id = self._next_id
            if not len(fold) and not fold.tombstones.size:
                return {"compacted": False, "generation_uid": old_uid}
            ordinal = self._compactions

            # 1. Build the folded index off the query path (the frozen
            #    generation keeps serving from its workers).
            index = load_index(self.path)
            if len(fold):
                index.add(fold.points)
            index.delete(fold.tombstones)
            new_uid = os.urandom(8).hex()
            if armed_fault(_COMPACT_FAULT, "pre-snapshot-replace", ordinal):
                os._exit(9)
            # 2. Atomically replace the snapshot: the new generation names
            #    the old as parent, so a crash before the checkpoint roll
            #    leaves a recoverable (snapshot=new, wal=old-bound) pair.
            save_index(
                index, self.path,
                uid=new_uid, parent_uid=old_uid, next_id=next_id,
            )
            del index
            if armed_fault(_COMPACT_FAULT, "post-snapshot-replace", ordinal):
                os._exit(9)
            # 3. Hot-flip the workers; in-flight queries drain on the old
            #    generation.  Until step 4 swaps the views, queries see the
            #    folded rows in both snapshot and delta — dedup covers it.
            self.reload(self.path)
            # 4. Roll the WAL onto a checkpoint segment and trim the
            #    folded state, atomically with respect to mutations.
            #    Mutations acked (WAL-durable) but not yet applied to the
            #    delta would be missed by the pending re-log — wait for
            #    the in-flight count to drain first.
            with self._inflight_cond:
                while self._inflight:
                    self._inflight_cond.wait()
                self._delta.trim(len(fold), fold.tombstones)
                self._baked = merge_sorted(self._baked, fold.tombstones)
                self._roll_checkpoint(uid=new_uid, parent_uid=old_uid, ordinal=ordinal)
                self._base_rows = self.num_points
                self._snapshot_uid = new_uid
                self._compactions += 1
                self._last_compaction_uid = new_uid
                self._last_compaction_trigger = trigger or "manual"
                self._sweep_overhead_ema = 0.0
                self._overhead_samples = 0
                wal_bytes = self._wal.size_bytes
            return {
                "compacted": True,
                "generation_uid": new_uid,
                "folded_inserts": len(fold),
                "folded_tombstones": int(fold.tombstones.size),
                "trigger": trigger or "manual",
                "wal_bytes": wal_bytes,
            }

    def _roll_checkpoint(self, uid: str, parent_uid: Optional[str] = None,
                         ordinal: Optional[int] = None) -> None:
        """Roll the live WAL onto a checkpoint segment for ``uid``.

        Caller holds the mutation lock with zero in-flight mutations and
        has already trimmed whatever ``uid`` folded from the delta.  The
        new segment's first record is a checkpoint naming the
        generation, followed by every still-pending mutation (the
        delta's rows and tombstones); once that segment is durable the
        folded older segments are deleted — the old records stay intact
        and replayable until the very last instant, and recovery cleans
        up stale segments if the deletes never happen.
        """
        live = self._delta.view()
        pending: List = [
            InsertRecord(int(point_id), np.array(point))
            for point_id, point in zip(live.ids, live.points)
        ]
        pending.extend(DeleteRecord(int(tomb)) for tomb in live.tombstones)
        self._wal.roll_checkpoint(
            snapshot_uid=uid, parent_uid=parent_uid,
            next_id=self._next_id, pending=pending,
        )
        if ordinal is not None and armed_fault(
            _COMPACT_FAULT, "post-wal-replace", ordinal
        ):
            os._exit(9)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Base status plus the mutation state (``GET /status``)."""
        info = super().status()
        with self._mutation_lock:
            delta_rows = len(self._delta)
            tombstones = self._delta.tombstones.size
            baked = len(self._baked)
            wal_stats = self._wal.stats() if self._wal is not None else {}
            info.update({
                "delta_rows": delta_rows,
                "tombstones": tombstones,
                "live_points": (
                    self._base_rows - baked + delta_rows - tombstones
                ),
                "next_id": self._next_id,
                "wal_path": self.wal_path if self._wal is not None else None,
                "wal_bytes": (
                    self._wal.size_bytes if self._wal is not None else 0
                ),
                "wal_segments": wal_stats.get("segments", 0),
                "wal_groups_committed": wal_stats.get("groups_committed", 0),
                "wal_mean_group_records": wal_stats.get(
                    "mean_group_records", 0.0
                ),
                "snapshot_uid": self._snapshot_uid,
                "compactions": self._compactions,
                "last_compaction_uid": self._last_compaction_uid,
                "last_compaction_trigger": self._last_compaction_trigger,
                "compact_policy": {
                    "threshold": self.compact_threshold,
                    "wal_bytes": _COMPACT_WAL_BYTES,
                },
                "sweep_overhead_ema": self._sweep_overhead_ema,
            })
        return info
