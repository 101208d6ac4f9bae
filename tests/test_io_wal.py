"""Tests for the write-ahead log (repro.io.wal).

The contract under test is the durability spine of mutable serving:
every acked append is fsync'd and CRC-framed, recovery replays exactly
the durable records, a torn tail is truncated (not fatal) — but only in
the *last* segment — a flipped bit is treated as torn tail, and a log
refuses to replay onto a snapshot generation it was not written against.

On top of the classic single-segment contract this file pins the
segmented layout (rotation at ``segment_bytes``, replay across segment
boundaries, checkpoint rolls deleting folded segments, stale-segment
cleanup) and the windowless group-commit path (appends queued behind
one fsync share the next, a lone writer pays one fsync per record, acks
only after the group's fsync, a failed fsync poisons the log, the
``mid-group`` and ``between-segment`` kill points).  Tests that need a
multi-record group hold ``wal._io_lock`` while submitting — the
committer takes its batch only once it holds that lock — or inject a
slow fsync with ``REPRO_WAL_SLOW_FSYNC_MS``.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import struct
import threading
import time
from zlib import crc32

import numpy as np
import pytest

from repro.io import (
    CheckpointRecord,
    DeleteRecord,
    InsertRecord,
    WALError,
    WriteAheadLog,
    wal_present,
)
from repro.io.wal import _encode_checkpoint, armed_fault, parse_faults


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "mutations.wal")


def _segments(wal_path):
    """Segment file paths inside the log directory, oldest first."""
    return [
        os.path.join(wal_path, name)
        for name in sorted(os.listdir(wal_path))
        if name.startswith("wal.") and name.endswith(".seg")
    ]


def _last_segment(wal_path):
    return _segments(wal_path)[-1]


class TestRoundtrip:
    def test_records_replay_in_order(self, wal_path, rng):
        points = rng.standard_normal((3, 8))
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0",
                                  next_id=100) as wal:
            wal.submit_insert(100, points[0]).wait()
            wal.submit_delete(7).wait()
            wal.submit_insert(101, points[1]).wait()
            # No public verb logs a bare checkpoint mid-segment (the
            # compaction roll writes one at a segment head); the decoder
            # must still read one anywhere.
            wal._submit(_encode_checkpoint("gen1")).wait()
            wal.submit_insert(102, points[2]).wait()

        recovered = WriteAheadLog.open(wal_path)
        assert recovered.snapshot_uid == "gen0"
        assert recovered.next_id == 100
        assert recovered.truncated_bytes == 0
        kinds = [type(r).__name__ for r in recovered.recovered]
        assert kinds == ["InsertRecord", "DeleteRecord", "InsertRecord",
                        "CheckpointRecord", "InsertRecord"]
        inserts = [r for r in recovered.recovered if isinstance(r, InsertRecord)]
        assert [r.id for r in inserts] == [100, 101, 102]
        for record, point in zip(inserts, points):
            assert np.array_equal(record.point, point)
        deletes = [r for r in recovered.recovered if isinstance(r, DeleteRecord)]
        assert deletes == [DeleteRecord(7)]
        checkpoints = [r for r in recovered.recovered
                       if isinstance(r, CheckpointRecord)]
        assert checkpoints == [CheckpointRecord("gen1")]
        recovered.close()

    def test_appends_resume_after_recovery(self, wal_path, rng):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            wal.submit_insert(0, rng.standard_normal(4)).wait()
        with WriteAheadLog.open(wal_path) as wal:
            wal.submit_insert(1, rng.standard_normal(4)).wait()
        with WriteAheadLog.open(wal_path) as wal:
            assert [r.id for r in wal.recovered] == [0, 1]

    def test_size_grows_monotonically(self, wal_path, rng):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            sizes = [wal.submit_insert(i, rng.standard_normal(4)).wait()
                     for i in range(4)]
        assert sizes == sorted(sizes) and len(set(sizes)) == 4
        assert os.path.getsize(_last_segment(wal_path)) == sizes[-1]

    def test_parent_uid_travels(self, wal_path):
        WriteAheadLog.create(wal_path, snapshot_uid="child",
                             parent_uid="parent").close()
        with WriteAheadLog.open(wal_path) as wal:
            assert wal.parent_uid == "parent"


def _wait_pending(wal, count, timeout=10.0):
    """Block until ``count`` records sit in the committer's queue."""
    deadline = time.monotonic() + timeout
    while len(wal._pending) < count:
        assert time.monotonic() < deadline, "submitters never queued"
        time.sleep(0.001)


class TestGroupCommit:
    def test_concurrent_appends_share_fsyncs(self, wal_path):
        """Many mutators queued behind one fsync commit with far fewer
        groups than records, and every one of them is durable afterwards."""
        wal = WriteAheadLog.create(wal_path, snapshot_uid="gen0")
        ids = list(range(48))

        def append(i):
            wal.submit_insert(i, np.full(4, float(i))).wait()

        threads = [threading.Thread(target=append, args=(i,)) for i in ids]
        with wal._io_lock:  # the disk is "busy": every record queues
            for t in threads:
                t.start()
            _wait_pending(wal, len(ids))
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        stats = wal.stats()
        wal.close()
        assert stats["records_committed"] == len(ids)
        assert stats["groups_committed"] < len(ids)
        with WriteAheadLog.open(wal_path) as back:
            assert sorted(r.id for r in back.recovered) == ids

    def test_stress_every_ack_is_durable_and_counted(self, wal_path):
        """More writers than cores with a tiny switch interval: no record
        is lost between the queue, the committer and the counters."""
        import sys

        wal = WriteAheadLog.create(wal_path, snapshot_uid="gen0")
        writers, per_writer = 8, 40
        sizes = []

        def append(worker):
            for i in range(per_writer):
                pid = worker * per_writer + i
                sizes.append(wal.submit_insert(pid, np.full(2, float(pid))).wait())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append, args=(w,))
                       for w in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats, final_size = wal.stats(), wal.size_bytes
        wal.close()
        total = writers * per_writer
        assert len(sizes) == total and max(sizes) == final_size
        assert stats["records_committed"] == total
        with WriteAheadLog.open(wal_path) as back:
            assert sorted(r.id for r in back.recovered) == list(range(total))

    def test_lone_writer_pays_one_fsync_per_record(self, wal_path):
        """No window: a serial writer's record commits alone, at once."""
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            for i in range(5):
                wal.submit_insert(i, np.zeros(4)).wait()
            stats = wal.stats()
        assert stats["groups_committed"] == 5
        assert stats["mean_group_records"] == 1.0

    def test_ticket_resolves_only_after_group_fsync(self, wal_path):
        wal = WriteAheadLog.create(wal_path, snapshot_uid="gen0")
        with wal._io_lock:
            ticket = wal.submit_insert(0, np.zeros(4))
            with pytest.raises(WALError, match="timed out"):
                ticket.wait(timeout=0.05)
        size = ticket.wait(timeout=5.0)
        assert ticket.done() and size == wal.size_bytes
        wal.close()

    def test_close_flushes_pending_groups(self, wal_path, monkeypatch):
        """Records queued behind an in-flight slow fsync are committed
        by close(), not dropped."""
        monkeypatch.setenv("REPRO_WAL_SLOW_FSYNC_MS", "50")
        wal = WriteAheadLog.create(wal_path, snapshot_uid="gen0")
        tickets = [wal.submit_insert(i, np.zeros(4)) for i in range(3)]
        wal.close()
        assert all(t.done() for t in tickets)
        with WriteAheadLog.open(wal_path) as back:
            assert [r.id for r in back.recovered] == [0, 1, 2]

    def test_failed_fsync_poisons_the_log(self, wal_path, monkeypatch):
        """fsyncgate: after one failed group fsync, nothing more is ever
        acked — not the records queued behind it, not later appends,
        not a checkpoint roll — because a retried fsync can succeed over
        pages the kernel already dropped."""
        wal = WriteAheadLog.create(wal_path, snapshot_uid="gen0")
        wal.submit_insert(0, np.zeros(4)).wait()
        real_fsync = os.fsync
        entered, release = threading.Event(), threading.Event()

        def failing_once(fd):
            monkeypatch.setattr("repro.io.wal.os.fsync", real_fsync)
            entered.set()
            release.wait(5.0)
            raise OSError(errno.EIO, "injected writeback error")

        monkeypatch.setattr("repro.io.wal.os.fsync", failing_once)
        failed = wal.submit_insert(1, np.ones(4))
        assert entered.wait(5.0)  # record 1's group is inside its fsync
        queued = wal.submit_insert(2, np.full(4, 2.0))
        release.set()
        with pytest.raises(OSError, match="injected writeback error"):
            failed.wait(timeout=5.0)
        with pytest.raises(WALError, match="injected writeback error"):
            queued.wait(timeout=5.0)
        with pytest.raises(WALError, match="injected writeback error"):
            wal.submit_insert(3, np.full(4, 3.0)).wait()
        with pytest.raises(WALError, match="injected writeback error"):
            wal.submit_delete(0).wait()
        with pytest.raises(WALError, match="injected writeback error"):
            wal.roll_checkpoint("gen1", parent_uid="gen0", next_id=4)
        wal.close()
        with WriteAheadLog.open(wal_path) as back:
            ids = [r.id for r in back.recovered]
        # The acked record survives; record 1 (written, never acked) may
        # surface; nothing queued after the failure ever reached the log.
        assert ids[:1] == [0] and set(ids) <= {0, 1}


class TestSegments:
    def _filled(self, wal_path, rng, n=24, segment_bytes=400):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0",
                                  segment_bytes=segment_bytes) as wal:
            for i in range(n):
                wal.submit_insert(i, rng.standard_normal(6)).wait()
            count = wal.segment_count
        return count

    def test_rotation_splits_and_replay_spans_segments(self, wal_path, rng):
        count = self._filled(wal_path, rng)
        assert count > 1
        assert len(_segments(wal_path)) == count
        with WriteAheadLog.open(wal_path) as wal:
            assert [r.id for r in wal.recovered] == list(range(24))
            assert wal.segment_count == count

    def test_appends_resume_in_the_last_segment(self, wal_path, rng):
        self._filled(wal_path, rng)
        with WriteAheadLog.open(wal_path) as wal:
            wal.submit_insert(24, rng.standard_normal(6)).wait()
        with WriteAheadLog.open(wal_path) as wal:
            assert [r.id for r in wal.recovered] == list(range(25))

    def test_torn_tail_in_last_segment_spares_sealed_segments(
        self, wal_path, rng
    ):
        """A crash tears only the segment being appended: every record
        in the sealed segments before the boundary must survive."""
        self._filled(wal_path, rng)
        last = _last_segment(wal_path)
        with open(last, "r+b") as handle:
            size = os.fstat(handle.fileno()).st_size
            handle.truncate(size - 7)  # mid-record chop
        with WriteAheadLog.open(wal_path) as wal:
            ids = [r.id for r in wal.recovered]
            assert wal.truncated_bytes > 0
            # A contiguous prefix: all sealed-segment records plus the
            # last segment's still-whole records.
            assert ids == list(range(len(ids))) and len(ids) >= 1

    def test_torn_record_inside_a_sealed_segment_is_fatal(self, wal_path, rng):
        """Sealed segments were fsync'd before the next opened: damage
        there lost acked data and must refuse, not silently truncate."""
        self._filled(wal_path, rng)
        sealed = _segments(wal_path)[0]
        with open(sealed, "r+b") as handle:
            size = os.fstat(handle.fileno()).st_size
            handle.truncate(size - 5)
        with pytest.raises(WALError, match="sealed segment"):
            WriteAheadLog.open(wal_path)

    def test_bit_flip_in_last_segment_truncates_from_the_flip(
        self, wal_path, rng
    ):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            sizes = [wal.submit_insert(i, rng.standard_normal(6)).wait()
                     for i in range(4)]
        seg = _last_segment(wal_path)
        with open(seg, "r+b") as handle:
            handle.seek(sizes[1] + 12)
            byte = handle.read(1)
            handle.seek(sizes[1] + 12)
            handle.write(bytes([byte[0] ^ 0x40]))
        with WriteAheadLog.open(wal_path) as wal:
            assert [r.id for r in wal.recovered] == [0, 1]
        assert os.path.getsize(seg) == sizes[1]

    def test_absurd_length_field_is_torn_tail(self, wal_path, rng):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            sizes = [wal.submit_insert(i, rng.standard_normal(6)).wait()
                     for i in range(4)]
        with open(_last_segment(wal_path), "r+b") as handle:
            handle.seek(sizes[2])
            handle.write(struct.pack("<I", 1 << 30))  # bogus frame length
        with WriteAheadLog.open(wal_path) as wal:
            assert [r.id for r in wal.recovered] == [0, 1, 2]

    def test_recovery_is_idempotent(self, wal_path, rng):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            sizes = [wal.submit_insert(i, rng.standard_normal(6)).wait()
                     for i in range(4)]
        with open(_last_segment(wal_path), "r+b") as handle:
            handle.truncate(sizes[-1] - 3)
        WriteAheadLog.open(wal_path).close()
        with WriteAheadLog.open(wal_path) as wal:
            assert wal.truncated_bytes == 0
            assert [r.id for r in wal.recovered] == [0, 1, 2]


class TestCheckpointRoll:
    def test_roll_deletes_folded_segments(self, wal_path, rng):
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0",
                                  segment_bytes=400) as wal:
            for i in range(24):
                wal.submit_insert(i, rng.standard_normal(6)).wait()
            assert wal.segment_count > 1
            wal.roll_checkpoint(
                "gen1", parent_uid="gen0", next_id=24,
                pending=[InsertRecord(23, np.zeros(6)), DeleteRecord(3)],
            )
            assert wal.segment_count == 1
            assert wal.snapshot_uid == "gen1"
        assert len(_segments(wal_path)) == 1
        with WriteAheadLog.open(wal_path, accept_uids={"gen1"}) as back:
            assert back.recovered[0] == CheckpointRecord("gen1")
            assert [type(r).__name__ for r in back.recovered[1:]] == [
                "InsertRecord", "DeleteRecord"
            ]
            assert back.next_id == 24

    def test_replay_is_idempotent_after_roll(self, wal_path, rng):
        """Opening (and re-opening) after a roll yields exactly the
        checkpoint + pending records — folded history never returns."""
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            for i in range(8):
                wal.submit_insert(i, rng.standard_normal(4)).wait()
            wal.roll_checkpoint("gen1", parent_uid="gen0", next_id=8,
                                pending=[InsertRecord(7, np.zeros(4))])
        for _ in range(2):
            with WriteAheadLog.open(wal_path, accept_uids={"gen1"}) as back:
                ids = [r.id for r in back.recovered
                       if isinstance(r, InsertRecord)]
                assert ids == [7]

    def test_stale_pre_checkpoint_segments_are_cleaned_on_open(
        self, wal_path, rng
    ):
        """A crash between the checkpoint fsync and the segment deletes
        leaves folded segments behind; open() must replay from the
        checkpoint segment and delete the stale ones."""
        proc = _spawn(_roll_fault_driver, wal_path)
        acked = _drain_acks(proc)
        assert proc.exitcode == 9
        assert acked == list(range(6))
        # The folded segment survived the crash next to the checkpoint
        # segment: recovery must not replay it.
        assert len(_segments(wal_path)) >= 2
        with WriteAheadLog.open(wal_path, accept_uids={"gen1"}) as back:
            inserts = [r.id for r in back.recovered
                       if isinstance(r, InsertRecord)]
            assert back.recovered[0] == CheckpointRecord("gen1")
            assert inserts == [5]
        assert len(_segments(wal_path)) == 1


class TestRejection:
    def test_uid_binding_refused(self, wal_path):
        WriteAheadLog.create(wal_path, snapshot_uid="gen0").close()
        with pytest.raises(WALError, match="refusing to replay"):
            WriteAheadLog.open(wal_path, accept_uids={"other"})
        # Either the bound uid or the parent lineage is acceptable.
        WriteAheadLog.open(wal_path, accept_uids={"gen0", "older"}).close()
        WriteAheadLog.open(wal_path, accept_uids={"new", "gen0"}).close()

    def test_non_wal_file_refused(self, tmp_path):
        junk = str(tmp_path / "junk.wal")
        with open(junk, "wb") as handle:
            handle.write(b"definitely not a log")
        with pytest.raises(WALError, match="not a repro write-ahead log"):
            WriteAheadLog.open(junk)

    def test_regular_file_left_untouched(self, wal_path):
        """A regular file at the log path — even one framed like a log —
        is refused, and open() neither moves nor rewrites it."""
        frame = struct.Struct("<II")
        header = json.dumps(
            {"format": "repro-wal", "version": 1, "snapshot_uid": "old",
             "parent_uid": None, "next_id": 3},
            sort_keys=True,
        ).encode()
        payload = struct.Struct("<BQ").pack(2, 1)
        blob = (b"REPROWAL" + frame.pack(len(header), crc32(header)) + header
                + frame.pack(len(payload), crc32(payload)) + payload)
        with open(wal_path, "wb") as handle:
            handle.write(blob)
        assert wal_present(wal_path)
        with pytest.raises(WALError, match="not a repro write-ahead log"):
            WriteAheadLog.open(wal_path, accept_uids={"old"})
        assert os.path.isfile(wal_path)
        with open(wal_path, "rb") as handle:
            assert handle.read() == blob

    def test_corrupt_header_refused(self, wal_path):
        WriteAheadLog.create(wal_path, snapshot_uid="gen0").close()
        with open(_last_segment(wal_path), "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff")
        with pytest.raises(WALError, match="corrupt WAL header"):
            WriteAheadLog.open(wal_path)

    @pytest.mark.parametrize("segment_bytes", [0, -5])
    def test_non_positive_segment_bytes_refused(self, wal_path,
                                                segment_bytes):
        """A segment size <= 0 is a typo, not a request to rotate on
        every record: refused before anything on disk is touched."""
        with WriteAheadLog.create(wal_path, snapshot_uid="gen0") as wal:
            wal.submit_insert(0, np.zeros(4)).wait()
        with pytest.raises(ValueError, match="segment_bytes"):
            WriteAheadLog.create(wal_path, snapshot_uid="gen1",
                                 segment_bytes=segment_bytes)
        with pytest.raises(ValueError, match="segment_bytes"):
            WriteAheadLog.open(wal_path, segment_bytes=segment_bytes)
        with WriteAheadLog.open(wal_path) as wal:
            assert wal.snapshot_uid == "gen0"
            assert [r.id for r in wal.recovered] == [0]

    def test_closed_log_refuses_appends(self, wal_path):
        wal = WriteAheadLog.create(wal_path, snapshot_uid="gen0")
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.submit_delete(0).wait()


# ----------------------------------------------------------------------
# Kill-point drivers (module-level for spawn picklability)
# ----------------------------------------------------------------------


def _append_under_fault(path, fault, count, conn):
    """Child-process driver: append ``count`` inserts with a fault armed."""
    os.environ["REPRO_WAL_FAULT"] = fault
    acked = []
    wal = WriteAheadLog.create(path, snapshot_uid="gen0")
    for i in range(count):
        wal.submit_insert(i, np.full(4, float(i))).wait()
        acked.append(i)
        conn.send(("acked", i))
    conn.send(("done", acked))
    conn.close()


def _mid_group_driver(path, conn):
    """Submit one 4-record group; the armed fault kills the committer
    after half the group is durable — before ANY ticket resolves.
    Holding the I/O lock while submitting keeps the committer from
    taking a batch until all four records are queued."""
    os.environ["REPRO_WAL_FAULT"] = "mid-group:0"
    wal = WriteAheadLog.create(path, snapshot_uid="gen0")
    with wal._io_lock:
        tickets = [wal.submit_insert(i, np.full(4, float(i)))
                   for i in range(4)]
    for i, ticket in enumerate(tickets):
        ticket.wait()
        conn.send(("acked", i))
    conn.send(("done", None))
    conn.close()


def _between_segment_driver(path, conn):
    """Append until the first rotation; the armed fault kills right
    after the new segment's header lands, before its first record."""
    os.environ["REPRO_WAL_FAULT"] = "between-segment:0"
    wal = WriteAheadLog.create(path, snapshot_uid="gen0", segment_bytes=300)
    for i in range(12):
        wal.submit_insert(i, np.full(4, float(i))).wait()
        conn.send(("acked", i))
    conn.send(("done", None))
    conn.close()


def _roll_fault_driver(path, conn):
    """Roll a checkpoint with the pre-segment-delete kill armed: the
    checkpoint segment is durable, the folded segments never deleted."""
    os.environ["REPRO_WAL_FAULT"] = "pre-segment-delete:0"
    wal = WriteAheadLog.create(path, snapshot_uid="gen0")
    for i in range(6):
        wal.submit_insert(i, np.full(4, float(i))).wait()
        conn.send(("acked", i))
    wal.roll_checkpoint("gen1", parent_uid="gen0", next_id=6,
                        pending=[InsertRecord(5, np.full(4, 5.0))])
    conn.send(("done", None))
    conn.close()


def _spawn(target, path):
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=target, args=(path, child))
    proc.start()
    child.close()
    proc._test_parent_conn = parent
    return proc


def _drain_acks(proc, timeout=60):
    parent = proc._test_parent_conn
    acked = []
    while True:
        try:
            kind, value = parent.recv()
        except EOFError:
            break
        if kind == "acked":
            acked.append(value)
    proc.join(timeout)
    return acked


class TestFaultInjection:
    """REPRO_WAL_FAULT kills: recovery yields exactly the acked appends."""

    def test_fault_specs_are_read_from_the_named_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_FAULT", "torn:2,pre-append,mid-group:x")
        monkeypatch.setenv("REPRO_COMPACT_FAULT", "post-wal-replace:1")
        # A malformed ordinal is skipped; a missing one means 0.
        assert parse_faults("REPRO_WAL_FAULT") == [("torn", 2), ("pre-append", 0)]
        assert armed_fault("REPRO_WAL_FAULT", "torn", 2)
        assert not armed_fault("REPRO_WAL_FAULT", "torn", 1)
        assert not armed_fault("REPRO_WAL_FAULT", "post-wal-replace", 1)
        assert armed_fault("REPRO_COMPACT_FAULT", "post-wal-replace", 1)

    @pytest.mark.parametrize("fault,acked_survive", [
        ("pre-append:2", [0, 1]),   # killed before touching the file
        ("torn:2", [0, 1]),         # killed after half the record hit disk
        ("post-fsync:2", [0, 1]),   # durable but never acked
    ])
    def test_kill_mid_append(self, tmp_path, fault, acked_survive):
        path = str(tmp_path / "fault.wal")
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_append_under_fault,
                           args=(path, fault, 4, child))
        proc.start()
        child.close()
        acked = []
        while True:
            try:
                kind, value = parent.recv()
            except EOFError:
                break
            if kind == "acked":
                acked.append(value)
        proc.join(30)
        assert proc.exitcode == 9  # died at the armed fault point
        assert acked == acked_survive

        with WriteAheadLog.open(path) as wal:
            recovered = [r.id for r in wal.recovered]
        # Every acked append survived; at most the one in-flight,
        # fsync'd-but-unacked record may additionally appear.
        assert recovered[: len(acked)] == acked
        assert len(recovered) <= len(acked) + 1
        if fault.startswith(("pre-append", "torn")):
            assert recovered == acked  # exactly the acked appends

    def test_kill_mid_group_acks_nothing_durable_prefix_tolerated(
        self, tmp_path
    ):
        """A partially-fsynced group: no ticket ever resolved, so no
        client was acked — recovery may surface the durable prefix, and
        every acked (= none) mutation survives."""
        path = str(tmp_path / "group.wal")
        proc = _spawn(_mid_group_driver, path)
        acked = _drain_acks(proc)
        assert proc.exitcode == 9
        assert acked == []  # the fault fires before any ack
        with WriteAheadLog.open(path) as wal:
            recovered = [r.id for r in wal.recovered]
        # Half of the 4-record group (its written prefix) is durable.
        assert recovered == [0, 1]

    def test_kill_between_segments_loses_nothing_acked(self, tmp_path):
        """Death right after a rotation makes the fresh header durable:
        every record acked before the boundary replays; the empty new
        segment is a valid (if bare) tail."""
        path = str(tmp_path / "boundary.wal")
        proc = _spawn(_between_segment_driver, path)
        acked = _drain_acks(proc)
        assert proc.exitcode == 9
        assert len(acked) >= 1
        with WriteAheadLog.open(path) as wal:
            recovered = [r.id for r in wal.recovered]
            assert recovered == acked  # nothing acked was lost
            wal.submit_insert(len(acked), np.zeros(4)).wait()  # appends resume
