"""Index lifecycle I/O: versioned snapshots plus the mutation log.

:func:`save_index` / :func:`load_index` persist and restore a fitted
:class:`~repro.core.dblsh.DBLSH` or
:class:`~repro.core.sharded.ShardedDBLSH` through a single versioned
archive — including the frozen R*-tree traversal arrays, so a loaded
``rstar``-backend index serves queries with zero rebuild.  The one
container is the v4 **arena**: one mmap-able file whose loads are
zero-copy page mappings shared across processes.  Writes are atomic
(temp file + rename + fsync) and carry per-member CRC32 checksums,
verified on demand via :func:`verify_snapshot`; see
:mod:`repro.io.snapshot` for the format.

:class:`WriteAheadLog` (:mod:`repro.io.wal`) makes live mutations
durable: inserts/deletes are CRC-framed into rotating segments, group-
commit fsync'd before the ack, and bound to the snapshot generation
they apply on top of, so a killed server recovers exactly its acked
mutations.
"""

from repro.io.snapshot import (
    ARENA_VERSION,
    SNAPSHOT_FORMAT,
    SnapshotError,
    load_data,
    load_index,
    load_shard,
    load_tombstones,
    read_header,
    save_index,
    shard_headers,
    verify_snapshot,
)
from repro.io.wal import (
    CheckpointRecord,
    CommitTicket,
    DeleteRecord,
    InsertRecord,
    WALError,
    WriteAheadLog,
    wal_present,
)

__all__ = [
    "ARENA_VERSION",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "load_data",
    "load_index",
    "load_shard",
    "load_tombstones",
    "read_header",
    "save_index",
    "shard_headers",
    "verify_snapshot",
    "CheckpointRecord",
    "CommitTicket",
    "DeleteRecord",
    "InsertRecord",
    "WALError",
    "WriteAheadLog",
    "wal_present",
]
