"""Segmented, group-commit write-ahead log for live mutations.

The mutation path promises: *an acked mutation survives* ``kill -9``.
The snapshot alone cannot provide that — rewriting a multi-megabyte
``.npz`` per insert is absurd — so accepted mutations are first appended
to this log and ``fsync``'d, and only then acknowledged.  On restart the
server replays the log over the snapshot it was bound to and recovers
exactly the acked state.

Layout
------

The log is a **directory** of CRC-framed segments::

    <path>/
        wal.000001.seg
        wal.000002.seg
        ...

Each segment (all integers little-endian)::

    magic     8 bytes   b"REPROWAL"
    header    [u32 len][u32 crc32][len bytes of JSON]
    records   [u32 len][u32 crc32][len bytes of payload] ...

The JSON header binds the segment to one snapshot *generation*: it names
the ``snapshot_uid`` the records apply on top of (and that snapshot's
``parent_uid``, so recovery can accept a log written just *before* a
compaction flip), the id counter ``next_id``, and the segment's ordinal.

Record payloads are binary, one mutation each:

* ``insert`` — ``u8 op=1, u64 id, u32 dim,`` then ``dim`` float64s;
* ``delete`` — ``u8 op=2, u64 id``;
* ``checkpoint`` — ``u8 op=3,`` then a UTF-8 snapshot uid: everything
  before this record is folded into that snapshot generation.

Group commit
------------

Every append goes through one **committer thread**: a submitter
enqueues its framed record and receives a :class:`CommitTicket`; the
committer, whenever it is free, takes *all* pending records, writes
them and ``fsync``'s once, and only then resolves their tickets.
Records that arrive while one group's fsync runs form the next group —
there is no timer and no byte trip, so a lone writer pays exactly one
fsync and N concurrent writers share roughly one per group.  The
fsync-before-ack invariant holds for every record:
``CommitTicket.wait`` returns only after its group's fsync.

A failed group commit **poisons** the log: Linux reports a writeback
error once, so a later fsync could succeed over pages that never
reached the disk.  The failing group's tickets raise the original
error, every record queued behind it fails too, and every later append
or checkpoint roll raises :class:`WALError` naming the first failure.

Segments rotate when the live segment would exceed ``segment_bytes``.
Compaction no longer rewrites one monolithic file: it calls
:meth:`WriteAheadLog.roll_checkpoint`, which seals the live segment,
opens a fresh one bound to the new generation whose first record is a
checkpoint, re-logs the still-pending mutations, fsyncs, and only then
deletes the fully-checkpointed older segments.  Recovery replays
segments in ordinal order starting at the newest segment that *begins*
with a checkpoint record, truncates a torn tail **only in the last
segment** (a torn record in a sealed segment is corruption, not a
crash), and deletes stale pre-checkpoint segments left by a crash
between the checkpoint fsync and the deletes.

Fault injection (tests only): the ``REPRO_WAL_FAULT`` environment
variable arms a one-shot crash at a deterministic point, mirroring the
``REPRO_SERVE_FAULT`` idiom of :mod:`repro.serve.worker`.  Specs are
comma-separated ``<point>[:<nth>]``:

* ``pre-append`` — exit before writing the *nth* submitted record
  (mutation fully lost, never acked);
* ``torn`` — write *half* of the *nth* record, fsync the fragment,
  exit: the torn-tail case recovery must truncate;
* ``post-fsync`` — the group containing the *nth* record is fully
  durable but the process exits before any ticket resolves: recovery
  may surface the records, the clients just never heard the ack;
* ``mid-group`` — the *nth* flush group is written only up to its
  midpoint, that prefix fsync'd, then death: a partially-durable group
  none of whose mutations were acked;
* ``between-segment`` — exit right after the *nth* rotation makes the
  new segment's header durable, before any record lands in it;
* ``pre-segment-delete`` — exit after the *nth* checkpoint segment is
  durable but before the folded older segments are deleted: recovery
  must pick the checkpoint as base and clean the stale segments.

An additional ``REPRO_WAL_SLOW_FSYNC_MS`` variable injects a simulated
per-``fsync`` latency so group-commit amortization is measurable on
hosts whose real disk sync is faster than a scheduler tick, and so
tests can make records pile up behind one slow fsync.  Production
deployments simply never set either variable.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union
from zlib import crc32

import numpy as np

__all__ = [
    "WALError",
    "WriteAheadLog",
    "CommitTicket",
    "InsertRecord",
    "DeleteRecord",
    "CheckpointRecord",
    "wal_present",
]

WAL_MAGIC = b"REPROWAL"
WAL_FORMAT = "repro-wal"
WAL_VERSION = 2

_FRAME = struct.Struct("<II")  # (length, crc32) framing both header and records
_OP_INSERT, _OP_DELETE, _OP_CHECKPOINT = 1, 2, 3
_INSERT_HEAD = struct.Struct("<BQI")  # op, id, dim
_DELETE_HEAD = struct.Struct("<BQ")  # op, id
# A corrupt length field must not make recovery try to materialize
# gigabytes: no legitimate record (a point payload) approaches this.
_MAX_RECORD = 1 << 26

_SEGMENT_RE = re.compile(r"^wal\.(\d{6,})\.seg$")

DEFAULT_SEGMENT_BYTES = 1 << 22

#: Environment variable arming the log's kill points (module docstring).
_FAULT_VAR = "REPRO_WAL_FAULT"
#: Fault points that target one submitted record (0-based record ordinal).
_RECORD_FAULTS = ("pre-append", "torn", "post-fsync")


class WALError(Exception):
    """Raised for unreadable, mismatched, or corrupt write-ahead logs."""


class InsertRecord(NamedTuple):
    """An acked insert: global ``id`` and its float64 ``point``."""

    id: int
    point: np.ndarray


class DeleteRecord(NamedTuple):
    """An acked delete of global ``id``."""

    id: int


class CheckpointRecord(NamedTuple):
    """Everything before this record is folded into snapshot ``uid``."""

    uid: str


Record = Union[InsertRecord, DeleteRecord, CheckpointRecord]


def _segment_name(ordinal: int) -> str:
    return f"wal.{ordinal:06d}.seg"


def fsync_dir(path: str) -> None:
    """fsync the directory so a rename/creation itself is durable."""
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def wal_present(path: str) -> bool:
    """True when something exists at ``path`` — recovery opens it (and
    :meth:`WriteAheadLog.open` refuses anything but a log directory)."""
    return os.path.exists(path)


def parse_faults(variable: str) -> List[Tuple[str, int]]:
    """The ``<point>[:<nth>]`` specs armed in environment ``variable``."""
    out = []
    for part in filter(None, os.environ.get(variable, "").split(",")):
        fields = part.split(":")
        try:
            target = int(fields[1]) if len(fields) > 1 else 0
        except ValueError:
            continue  # malformed spec: never let a typo crash serving
        out.append((fields[0], target))
    return out


def armed_fault(variable: str, point: str, ordinal: int) -> bool:
    """True when environment ``variable`` arms ``point`` at this ordinal."""
    return (point, ordinal) in parse_faults(variable)


def _check_segment_bytes(segment_bytes: int) -> int:
    """``segment_bytes`` as an int, or ``ValueError`` unless positive."""
    if segment_bytes <= 0:
        raise ValueError(f"segment_bytes must be > 0, got {segment_bytes}")
    return int(segment_bytes)


def _fsync_delay() -> float:
    """Injected per-fsync latency (seconds) from ``REPRO_WAL_SLOW_FSYNC_MS``."""
    raw = os.environ.get("REPRO_WAL_SLOW_FSYNC_MS", "")
    try:
        return max(0.0, float(raw)) / 1000.0 if raw else 0.0
    except ValueError:
        return 0.0


def _encode_insert(point_id: int, point: np.ndarray) -> bytes:
    vector = np.ascontiguousarray(point, dtype="<f8").ravel()
    return (
        _INSERT_HEAD.pack(_OP_INSERT, int(point_id), vector.shape[0])
        + vector.tobytes()
    )


def _encode_delete(point_id: int) -> bytes:
    return _DELETE_HEAD.pack(_OP_DELETE, int(point_id))


def _encode_checkpoint(uid: str) -> bytes:
    return bytes([_OP_CHECKPOINT]) + uid.encode("utf-8")


def _encode_record(record: Record) -> bytes:
    if isinstance(record, InsertRecord):
        return _encode_insert(record.id, record.point)
    if isinstance(record, DeleteRecord):
        return _encode_delete(record.id)
    if isinstance(record, CheckpointRecord):
        return _encode_checkpoint(record.uid)
    raise TypeError(f"not a WAL record: {record!r}")


def _decode(payload: bytes) -> Record:
    op = payload[0]
    if op == _OP_INSERT:
        _, rec_id, dim = _INSERT_HEAD.unpack_from(payload)
        point = np.frombuffer(
            payload, dtype="<f8", count=dim, offset=_INSERT_HEAD.size
        )
        return InsertRecord(int(rec_id), point.copy())
    if op == _OP_DELETE:
        _, rec_id = _DELETE_HEAD.unpack_from(payload)
        return DeleteRecord(int(rec_id))
    if op == _OP_CHECKPOINT:
        return CheckpointRecord(payload[1:].decode("utf-8"))
    # A valid CRC with an unknown op is not a torn tail — it is a log
    # written by something newer than this reader.  Refusing beats
    # silently dropping an acked mutation we cannot interpret.
    raise WALError(f"unknown WAL record op {op}")


class CommitTicket:
    """A pending group-commit acknowledgement.

    :meth:`wait` blocks until the group holding this record has been
    flushed and ``fsync``'d (or the commit failed), returning the log's
    durable byte count — the durability receipt the caller acks on.
    """

    __slots__ = ("_event", "_error", "_size")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._error: Optional[BaseException] = None
        self._size = 0

    def _resolve(self, size: int) -> None:
        self._size = size
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> int:
        if not self._event.wait(timeout):
            raise WALError("timed out waiting for the group commit fsync")
        if self._error is not None:
            raise self._error
        return self._size


class _PendingRecord(NamedTuple):
    payload: bytes
    ticket: CommitTicket
    fault: Optional[str]


class WriteAheadLog:
    """An append-only, CRC-framed, segmented, group-commit mutation log.

    Construct via :meth:`create` (new log bound to a snapshot uid) or
    :meth:`open` (existing log: validates the header binding, replays
    the segments into :attr:`recovered`, truncates a torn tail in the
    last segment, deletes stale pre-checkpoint segments, and positions
    the live segment for further appends).
    """

    def __init__(
        self,
        path,
        file,
        header,
        recovered,
        truncated_bytes,
        *,
        ordinal,
        seg_size,
        seg_records,
        sealed,
        segment_bytes,
    ):
        # Internal: use WriteAheadLog.create() / WriteAheadLog.open().
        self.path = path
        self._file = file
        self._header = header
        #: Records replayed by :meth:`open` (empty for a fresh log).
        self.recovered: List[Record] = recovered
        #: Bytes of torn tail discarded by :meth:`open`.
        self.truncated_bytes = truncated_bytes
        self._ordinal = ordinal  # ordinal of the live (appendable) segment
        self._seg_size = seg_size  # bytes in the live segment
        self._seg_records = seg_records  # records in the live segment
        #: Sealed (read-only) live segments: [(ordinal, bytes)].
        self._sealed: List[Tuple[int, int]] = list(sealed)
        self._size = seg_size + sum(size for _, size in self._sealed)
        self.segment_bytes = _check_segment_bytes(segment_bytes)

        # Group-commit state.  _cond guards the pending batch; _io_lock
        # serializes the actual file writes so submitters can keep
        # enqueueing while a group's fsync is in flight.  Lock order is
        # _io_lock before _cond.
        self._cond = threading.Condition()
        self._io_lock = threading.Lock()
        self._pending: List[_PendingRecord] = []
        self._flushing = False
        self._closed = False
        #: First exception a group commit raised; set once, never cleared.
        self._failure: Optional[BaseException] = None
        self._records_submitted = 0  # record-fault ordinal counter
        self._groups = 0
        self._records_committed = 0
        self._rotations = 0
        self._checkpoints = 0
        self._last_group_records = 0
        self._committer: Optional[threading.Thread] = threading.Thread(
            target=self._committer_loop,
            name="repro-wal-committer",
            daemon=True,
        )
        self._committer.start()

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        snapshot_uid: str,
        parent_uid: Optional[str] = None,
        next_id: int = 0,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "WriteAheadLog":
        """Create a fresh segmented log at directory ``path``.

        The first segment's header is written and fsync'd (file and
        directory both) before :meth:`open` takes over, so a crash
        during creation leaves either no log or a replayable empty one.
        Whatever exists at ``path`` (a log directory or a file) is
        replaced.  ``segment_bytes`` (> 0) is the rotation size.
        """
        _check_segment_bytes(segment_bytes)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.unlink(path)
        header = {
            "format": WAL_FORMAT,
            "version": WAL_VERSION,
            "snapshot_uid": str(snapshot_uid),
            "parent_uid": None if parent_uid is None else str(parent_uid),
            "next_id": int(next_id),
            "segment": 1,
        }
        os.mkdir(path)
        seg = os.path.join(path, _segment_name(1))
        with open(seg, "wb") as handle:
            _write_segment_header(handle, header)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(path)
        fsync_dir(os.path.dirname(path))
        return cls.open(path, segment_bytes=segment_bytes)

    @classmethod
    def open(
        cls,
        path: str,
        accept_uids: Optional[Sequence[str]] = None,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "WriteAheadLog":
        """Open an existing log, replaying segments and truncating a torn tail.

        ``accept_uids`` — when given, the uids of the snapshot(s) the
        caller intends to replay against (typically the live snapshot's
        ``uid`` *and* its ``parent_uid``, to cover a crash between a
        compaction's snapshot flip and its checkpoint roll).  A log
        bound to none of them raises :class:`WALError` rather than
        replaying mutations onto the wrong data.

        Replay starts at the **base segment** — the highest-ordinal
        segment whose first record is a checkpoint (everything older is
        folded into a snapshot and is deleted here), or the oldest
        segment when no checkpoint segment exists.  A torn record is
        truncated only in the last segment; inside a sealed segment it
        is corruption and raises.
        """
        _check_segment_bytes(segment_bytes)
        if not os.path.isdir(path):
            raise WALError(f"{path!r} is not a repro write-ahead log")
        entries: List[Tuple[int, str]] = []
        for name in os.listdir(path):
            match = _SEGMENT_RE.match(name)
            if match:
                entries.append((int(match.group(1)), os.path.join(path, name)))
        if not entries:
            raise WALError(f"{path!r}: log directory holds no segments")
        entries.sort()

        headers: Dict[int, dict] = {}
        base_idx = 0
        for idx, (ordinal, seg_path) in enumerate(entries):
            with open(seg_path, "rb") as handle:
                headers[ordinal] = _read_segment_header(handle, seg_path)
                if _peek_checkpoint(handle):
                    base_idx = idx

        base_header = headers[entries[base_idx][0]]
        if accept_uids is not None:
            accepted = {u for u in accept_uids if u}
            if base_header.get("snapshot_uid") not in accepted:
                raise WALError(
                    f"{path!r} is bound to snapshot uid "
                    f"{base_header.get('snapshot_uid')!r}, not one of "
                    f"{sorted(accepted)} — refusing to replay it"
                )

        # Segments older than the base are fully folded into a snapshot
        # (a crash between a checkpoint roll's fsync and its deletes
        # leaves them behind): finish the cleanup.
        if base_idx:
            for _, seg_path in entries[:base_idx]:
                os.unlink(seg_path)
            fsync_dir(path)
            entries = entries[base_idx:]

        recovered: List[Record] = []
        truncated = 0
        next_id = 0
        sealed: List[Tuple[int, int]] = []
        last = len(entries) - 1
        live_offset = 0
        live_records = 0
        for idx, (ordinal, seg_path) in enumerate(entries):
            header = headers[ordinal]
            if header.get("snapshot_uid") != base_header.get("snapshot_uid"):
                raise WALError(
                    f"{seg_path!r} is bound to snapshot uid "
                    f"{header.get('snapshot_uid')!r} but the base segment "
                    f"binds {base_header.get('snapshot_uid')!r} — mixed log"
                )
            next_id = max(next_id, int(header.get("next_id", 0)))
            with open(seg_path, "rb") as handle:
                _read_segment_header(handle, seg_path)
                offset = handle.tell()
                size = os.fstat(handle.fileno()).st_size
                count = 0
                while True:
                    head = handle.read(_FRAME.size)
                    if len(head) < _FRAME.size:
                        break  # clean EOF or torn frame header
                    length, checksum = _FRAME.unpack(head)
                    if length > _MAX_RECORD:
                        break  # corrupt length field: treat as torn tail
                    payload = handle.read(length)
                    if len(payload) < length or crc32(payload) != checksum:
                        break  # torn or bit-flipped tail record
                    recovered.append(_decode(payload))
                    count += 1
                    offset = handle.tell()
            torn = size - offset
            if idx < last:
                if torn:
                    # Sealed segments were fsync'd before the next one
                    # opened: a bad record here lost acked data.
                    raise WALError(
                        f"{seg_path!r}: torn record inside a sealed segment "
                        f"— only the last segment may have a torn tail"
                    )
                sealed.append((ordinal, size))
            else:
                truncated = torn
                live_offset = offset
                live_records = count

        live_ordinal, live_path = entries[last]
        file = open(live_path, "r+b")
        try:
            if truncated:
                file.truncate(live_offset)
                file.flush()
                os.fsync(file.fileno())
            file.seek(live_offset)
            header = dict(headers[live_ordinal])
            header["next_id"] = max(next_id, int(header.get("next_id", 0)))
            return cls(
                path,
                file,
                header,
                recovered,
                truncated,
                ordinal=live_ordinal,
                seg_size=live_offset,
                seg_records=live_records,
                sealed=sealed,
                segment_bytes=segment_bytes,
            )
        except BaseException:
            file.close()
            raise

    # -- metadata ------------------------------------------------------

    @property
    def snapshot_uid(self) -> str:
        """Uid of the snapshot generation this log applies on top of."""
        return self._header["snapshot_uid"]

    @property
    def parent_uid(self) -> Optional[str]:
        """The bound snapshot's own parent uid (compaction lineage)."""
        return self._header.get("parent_uid")

    @property
    def next_id(self) -> int:
        """Id counter recorded at creation (before replaying inserts)."""
        return int(self._header.get("next_id", 0))

    @property
    def size_bytes(self) -> int:
        """Bytes of durable log across all live segments."""
        return self._size

    @property
    def segment_count(self) -> int:
        """Live segments on disk (sealed plus the appendable one)."""
        return len(self._sealed) + 1

    def stats(self) -> dict:
        """Group-commit and rotation counters (monotonic, lock-free reads)."""
        groups = self._groups
        records = self._records_committed
        return {
            "groups_committed": groups,
            "records_committed": records,
            "mean_group_records": (records / groups) if groups else 0.0,
            "last_group_records": self._last_group_records,
            "rotations": self._rotations,
            "checkpoints": self._checkpoints,
            "segments": self.segment_count,
        }

    # -- appends -------------------------------------------------------

    def submit_insert(self, point_id: int, point: np.ndarray) -> CommitTicket:
        """Enqueue an insert; the ticket resolves after its group's fsync."""
        return self._submit(_encode_insert(point_id, point))

    def submit_delete(self, point_id: int) -> CommitTicket:
        """Enqueue a delete; the ticket resolves after its group's fsync."""
        return self._submit(_encode_delete(point_id))

    def _submit(self, payload: bytes) -> CommitTicket:
        ticket = CommitTicket()
        with self._cond:
            self._check_appendable()
            fault = self._next_record_fault()
            self._pending.append(_PendingRecord(payload, ticket, fault))
            self._cond.notify_all()
        return ticket

    def _check_appendable(self) -> None:
        """Raise :class:`WALError` unless the log takes appends."""
        if self._failure is not None:
            raise self._poisoned()
        if self._closed or self._file is None:
            raise WALError(f"{self.path!r}: log is closed")

    def _poisoned(self) -> WALError:
        return WALError(
            f"{self.path!r}: a group commit failed ({self._failure!r}); "
            f"the log refuses every later append"
        )

    def _next_record_fault(self) -> Optional[str]:
        nth = self._records_submitted
        self._records_submitted += 1
        for point, target in parse_faults(_FAULT_VAR):
            if point in _RECORD_FAULTS and target == nth:
                return point
        return None

    # -- the committer -------------------------------------------------

    def _committer_loop(self) -> None:
        """Commit everything pending as one group, whenever free."""
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
            with self._io_lock:
                # The batch is taken only once the disk is free, so it
                # holds every record that arrived during the last fsync.
                with self._cond:
                    batch, self._pending = self._pending, []
                    self._flushing = True
                try:
                    self._commit_group(batch)
                except Exception:
                    pass  # tickets already failed inside _commit_group
                finally:
                    with self._cond:
                        self._flushing = False
                        self._cond.notify_all()

    def _commit_group(self, batch: List[_PendingRecord]) -> None:
        """Write + fsync one group, then resolve its tickets.

        Caller holds ``_io_lock``.  The deterministic kill points live
        here: per-record ``pre-append``/``torn``/``post-fsync`` and the
        group-level ``mid-group`` (write to the midpoint, fsync, die —
        a durable prefix nobody was ever acked for).  On a poisoned log
        the group fails without touching the file.
        """
        try:
            if self._failure is not None:
                raise self._poisoned()
            group_ordinal = self._groups
            mid_at = None
            if len(batch) and armed_fault(_FAULT_VAR, "mid-group", group_ordinal):
                mid_at = max(1, len(batch) // 2)
            post_fsync = False
            written = 0
            for entry in batch:
                if entry.fault == "pre-append":
                    os._exit(9)
                frame = (
                    _FRAME.pack(len(entry.payload), crc32(entry.payload))
                    + entry.payload
                )
                self._maybe_rotate(len(frame))
                if entry.fault == "torn":
                    # Half a record, made durable, then death: the exact
                    # state recovery's torn-tail truncation exists for.
                    self._file.write(frame[: max(1, len(frame) // 2)])
                    self._file.flush()
                    self._fsync_file()
                    os._exit(9)
                self._file.write(frame)
                self._seg_size += len(frame)
                self._seg_records += 1
                self._size += len(frame)
                written += 1
                post_fsync = post_fsync or entry.fault == "post-fsync"
                if mid_at is not None and written == mid_at:
                    self._file.flush()
                    self._fsync_file()
                    os._exit(9)
            self._file.flush()
            self._fsync_file()
            if post_fsync:
                os._exit(9)
            self._groups += 1
            self._records_committed += len(batch)
            self._last_group_records = len(batch)
            size = self._size
        except BaseException as exc:
            with self._cond:
                if self._failure is None:
                    self._failure = exc
            for entry in batch:
                entry.ticket._fail(exc)
            raise
        for entry in batch:
            entry.ticket._resolve(size)

    def _fsync_file(self) -> None:
        delay = _fsync_delay()
        if delay:
            time.sleep(delay)
        os.fsync(self._file.fileno())

    def _maybe_rotate(self, frame_len: int) -> None:
        """Seal the live segment and open the next when it would overflow.

        A segment always takes at least one record (a single frame larger
        than ``segment_bytes`` must not rotate forever).  The new
        segment's header is durable (file and directory fsync'd) before
        any record lands in it — the ``between-segment`` kill point fires
        right after that instant.
        """
        if (
            self._seg_records == 0
            or self._seg_size + frame_len <= self.segment_bytes
        ):
            return
        self._file.flush()
        self._fsync_file()
        self._file.close()
        self._sealed.append((self._ordinal, self._seg_size))
        rotation = self._rotations
        self._rotations += 1
        self._ordinal += 1
        self._open_live_segment(dict(self._header, segment=self._ordinal))
        if armed_fault(_FAULT_VAR, "between-segment", rotation):
            os._exit(9)

    def _open_live_segment(self, header: dict) -> None:
        """Open segment ``header['segment']`` for append, header durable."""
        seg_path = os.path.join(self.path, _segment_name(header["segment"]))
        file = open(seg_path, "wb")
        try:
            _write_segment_header(file, header)
            file.flush()
            os.fsync(file.fileno())
        except BaseException:
            file.close()
            raise
        fsync_dir(self.path)
        self._file = file
        self._header = header
        self._seg_size = file.tell()
        self._seg_records = 0
        self._size += self._seg_size

    # -- checkpoint roll (compaction) ----------------------------------

    def roll_checkpoint(
        self,
        snapshot_uid: str,
        parent_uid: Optional[str] = None,
        next_id: int = 0,
        pending: Sequence[Record] = (),
    ) -> int:
        """Rebind the log to ``snapshot_uid`` and drop folded history.

        Seals the live segment, opens a fresh one bound to the new
        generation whose first record is ``checkpoint(snapshot_uid)``,
        re-logs ``pending`` (mutations not folded into the snapshot),
        fsyncs it, and only then deletes every older segment — their
        contents are checkpointed, and recovery replays from the newest
        checkpoint-first segment, so a crash at any instant leaves a
        replayable log (possibly with stale segments :meth:`open`
        cleans up).  Returns the live byte count afterwards.

        The caller must guarantee no concurrent submits (the server
        holds its mutation lock with zero in-flight mutations); pending
        group-commit batches are drained first.
        """
        self._drain()
        with self._io_lock:
            self._check_appendable()
            ckpt_ordinal = self._checkpoints
            self._checkpoints += 1
            self._file.flush()
            self._fsync_file()
            self._file.close()
            self._sealed.append((self._ordinal, self._seg_size))
            self._ordinal += 1
            header = {
                "format": WAL_FORMAT,
                "version": WAL_VERSION,
                "snapshot_uid": str(snapshot_uid),
                "parent_uid": None if parent_uid is None else str(parent_uid),
                "next_id": int(next_id),
                "segment": self._ordinal,
            }
            self._open_live_segment(header)
            for record in (CheckpointRecord(str(snapshot_uid)), *pending):
                payload = _encode_record(record)
                frame = _FRAME.pack(len(payload), crc32(payload)) + payload
                self._file.write(frame)
                self._seg_size += len(frame)
                self._seg_records += 1
            self._file.flush()
            self._fsync_file()
            if armed_fault(_FAULT_VAR, "pre-segment-delete", ckpt_ordinal):
                os._exit(9)
            for ordinal, _ in self._sealed:
                os.unlink(os.path.join(self.path, _segment_name(ordinal)))
            self._sealed = []
            fsync_dir(self.path)
            self._size = self._seg_size
            return self._size

    def _drain(self) -> None:
        """Block until every submitted record's group has hit the disk."""
        with self._cond:
            while self._pending or self._flushing:
                self._cond.wait()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Flush pending groups, stop the committer, close the segment."""
        with self._cond:
            if self._closed:
                committer = None
            else:
                self._closed = True
                committer = self._committer
            self._cond.notify_all()
        if committer is not None:
            committer.join(timeout=30.0)
            self._committer = None
        with self._io_lock:
            if self._file is not None:
                try:
                    self._file.close()
                finally:
                    self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(path={self.path!r}, "
            f"snapshot_uid={self.snapshot_uid!r}, bytes={self._size}, "
            f"segments={self.segment_count})"
        )


def _write_segment_header(file, header: dict) -> None:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    file.write(WAL_MAGIC)
    file.write(_FRAME.pack(len(blob), crc32(blob)))
    file.write(blob)


def _read_segment_header(file, path: str) -> dict:
    magic = file.read(len(WAL_MAGIC))
    if magic != WAL_MAGIC:
        raise WALError(f"{path!r} is not a repro write-ahead log segment")
    head = file.read(_FRAME.size)
    if len(head) < _FRAME.size:
        raise WALError(f"{path!r}: truncated WAL header")
    length, checksum = _FRAME.unpack(head)
    blob = file.read(length)
    if len(blob) < length or crc32(blob) != checksum:
        # The header is written and fsync'd before any record; a bad
        # one is corruption, not a torn append.
        raise WALError(f"{path!r}: corrupt WAL header")
    header = json.loads(blob.decode("utf-8"))
    if header.get("format") != WAL_FORMAT:
        raise WALError(f"{path!r}: unknown WAL format {header.get('format')!r}")
    if int(header.get("version", -1)) > WAL_VERSION:
        raise WALError(
            f"{path!r}: WAL version {header['version']} is newer "
            f"than supported version {WAL_VERSION}"
        )
    return header


def _peek_checkpoint(file) -> bool:
    """True when the next record in ``file`` is a valid checkpoint."""
    head = file.read(_FRAME.size)
    if len(head) < _FRAME.size:
        return False
    length, checksum = _FRAME.unpack(head)
    if length > _MAX_RECORD:
        return False
    payload = file.read(length)
    if len(payload) < length or crc32(payload) != checksum:
        return False
    return payload[:1] == bytes([_OP_CHECKPOINT])
