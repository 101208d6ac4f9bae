"""Versioned binary snapshots of fitted indexes (build once, serve anywhere).

Container
---------
A snapshot is one **arena** file (version ``ARENA_VERSION``): magic, a
CRC-protected JSON header, then the raw little-endian array bytes.  The
header carries the format name, the format *version*, the snapshot
*kind* (``"dblsh"`` or ``"sharded"``), every scalar needed to
reconstruct the index, and a member table mapping each named array to a
64-byte-aligned byte range.  Loading maps the file once (``np.memmap``,
read-only) and returns each member as a **zero-copy view** of the
mapping: O(1) page mapping instead of a full read, and every process
serving the same snapshot shares one physical copy of the pages through
the page cache.

Paths keep their conventional ``.npz`` suffix, but the file is not a
zip archive.  A file that *is* one (the legacy v1 ``.npz`` container of
earlier builds, recognised by the zip magic ``PK``) is refused with a
:class:`SnapshotError` naming it; re-save the index with this build.

For the default ``rstar`` backend the payload includes the frozen
traversal of every projected space, stacked into one
:class:`~repro.index.flat.FlatRStarTree` forest (one root per space;
members under ``forest.``: ``meta``, ``roots``, ``leaf_ptr``,
``leaf_ids``, ``leaf_cat``, ``coords_cat`` and ``level{j}_cat`` /
``_start`` / ``_end`` per internal level).  Loading adopts those arrays
directly, so a restored index answers queries with **zero rebuild** — no
projection pass, no STR bulk load, no tree construction, and no copy: the
query engine scans the mapped forest as stored.  The ablation backends
(``kdtree``, ``grid``, ``rstar-insert``) snapshot without traversal
arrays and rebuild their tables from the stored projection tensor at
load time.

Sharded snapshots store one such payload per shard under a ``shard{i}.``
key prefix; the shard partition is implicit in the stored shard sizes.

Durability
----------
``save_index`` is **atomic**: the arena is written to a temp file,
fsync'd, and renamed over ``path`` (with a directory fsync), so a crash
mid-save leaves the previous snapshot intact — never a half-written
file.  The header carries a CRC32 per payload member and a random
``uid`` naming this snapshot *generation* (plus the ``parent_uid`` it
was compacted from and the mutation id counter ``next_id``), which is
what the write-ahead log of :mod:`repro.io.wal` binds to.  Logically
deleted rows travel as a ``tombstones`` member per shard — rows are
never physically removed, so ids never renumber.

Versioning
----------
``ARENA_VERSION`` is bumped whenever the layout changes incompatibly.
:func:`load_index` refuses snapshots written under a different version
with a :class:`SnapshotError` instead of guessing at the layout.
Version 4 stores the L per-space trees as one stacked forest; version 3
stored them as separate ``flat{i}.`` members and is refused (re-save).

Verification discipline
-----------------------
Opening an arena validates its preamble, its header CRC32, and the
*structure* of every member (the byte range each one claims must exist
in the file) — all without faulting a single data page, so the O(1)
load cost holds.  Member *content* CRCs are checked only by the
explicit :func:`verify_snapshot` pass, which reads every byte.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple
from zlib import crc32

import numpy as np

from repro.core.dblsh import DBLSH
from repro.core.plan import shard_offsets
from repro.index.flat import FlatRStarTree
from repro.io.wal import fsync_dir

SNAPSHOT_FORMAT = "repro-index-snapshot"
#: Layout version of the mmap arena container.
ARENA_VERSION = 4

#: First bytes of every arena snapshot.
ARENA_MAGIC = b"REPRO-ARENA\x00"
#: First bytes of a zip archive, i.e. of the legacy v1 ``.npz`` container.
_ZIP_MAGIC = b"PK"
#: Fixed preamble after the magic: container version (u32), header CRC32
#: (u32), header length in bytes (u64), data-section start offset (u64).
_ARENA_PREAMBLE = struct.Struct("<IIQQ")
_ARENA_PREAMBLE_LEN = len(ARENA_MAGIC) + _ARENA_PREAMBLE.size
#: Every member's byte range starts on this alignment (relative to the
#: data section, which is itself aligned), so mapped views satisfy any
#: dtype's alignment and never share a cache line across members.
ARENA_ALIGN = 64

#: Keys every serialized forest carries besides its per-level arrays.
_FOREST_FIXED_KEYS = ("meta", "roots", "leaf_ptr", "leaf_ids", "leaf_cat", "coords_cat")


class SnapshotError(RuntimeError):
    """A file is not a readable snapshot (wrong format, version, or kind)."""


def _array_crc(array: np.ndarray) -> int:
    """CRC32 over a member's raw bytes (layout-normalized, no copy)."""
    arr = np.ascontiguousarray(array)
    if arr.nbytes == 0:
        return 0  # crc32(b""); memoryview.cast rejects zero-sized shapes
    return crc32(memoryview(arr).cast("B"))


def _align_up(offset: int, alignment: int = ARENA_ALIGN) -> int:
    """Round ``offset`` up to the next multiple of ``alignment``."""
    return -(-offset // alignment) * alignment


class _ArenaArchive:
    """An open arena snapshot: parsed header + lazy zero-copy member views.

    Construction reads and validates the preamble and the JSON header
    (magic, container version, header CRC32) and *structurally* checks
    every member — the byte range the header claims for it must exist in
    the file, otherwise a :class:`SnapshotError` names the member with
    its expected-vs-recovered sizes.  No data page is read or faulted.

    ``archive[name]`` maps the whole file once (``np.memmap``, read-only)
    and returns the member as a dtype/shape view of that mapping: the
    view's ``base`` chain leads to the memmap, ``writeable`` is False,
    and no bytes are copied.  Views hold their own reference to the
    mapping, so they outlive :meth:`close` (which merely drops this
    archive's reference).
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._arena: Optional[np.ndarray] = None
        with open(path, "rb") as handle:
            blob = handle.read(_ARENA_PREAMBLE_LEN)
            if len(blob) < _ARENA_PREAMBLE_LEN or not blob.startswith(ARENA_MAGIC):
                raise SnapshotError(
                    f"{path!r}: arena preamble is truncated or corrupt "
                    f"(expected {_ARENA_PREAMBLE_LEN} bytes, recovered {len(blob)})"
                )
            version, header_crc, header_len, data_start = _ARENA_PREAMBLE.unpack(
                blob[len(ARENA_MAGIC):]
            )
            if version != ARENA_VERSION:
                raise SnapshotError(
                    f"{path!r} is arena snapshot version {version}; this build "
                    f"reads version {ARENA_VERSION} (re-save the index with "
                    f"this build)"
                )
            header_bytes = handle.read(header_len)
        if len(header_bytes) != header_len:
            raise SnapshotError(
                f"{path!r}: arena header is truncated (expected {header_len} "
                f"bytes, recovered {len(header_bytes)})"
            )
        if crc32(header_bytes) != header_crc:
            raise SnapshotError(
                f"{path!r}: arena header failed its checksum (stored CRC32 "
                f"{header_crc}) — the file bytes were altered after "
                f"save_index() wrote them"
            )
        try:
            header = json.loads(header_bytes.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise SnapshotError(
                f"{path!r} has an unreadable snapshot header"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(f"{path!r} is not a {SNAPSHOT_FORMAT} file")
        members = header.get("members")
        if not isinstance(members, dict):
            raise SnapshotError(f"{path!r}: arena header has no member table")
        self.header = header
        self._data_start = int(data_start)
        self._members: Dict[str, dict] = members
        size = os.path.getsize(path)
        for name, meta in sorted(
            members.items(), key=lambda item: int(item[1]["offset"])
        ):
            start = self._data_start + int(meta["offset"])
            nbytes = int(meta["nbytes"])
            if start + nbytes > size:
                raise SnapshotError(
                    f"{path!r}: snapshot member {name!r} is truncated or "
                    f"corrupt (expected {nbytes} bytes, recovered "
                    f"{max(0, size - start)})"
                )

    @property
    def files(self) -> List[str]:
        return list(self._members)

    def __getitem__(self, name: str) -> np.ndarray:
        meta = self._members[name]  # KeyError: callers report it precisely
        if self._arena is None:
            self._arena = np.memmap(self._path, dtype=np.uint8, mode="r")
        start = self._data_start + int(meta["offset"])
        raw = self._arena[start : start + int(meta["nbytes"])]
        try:
            return raw.view(np.dtype(str(meta["dtype"]))).reshape(
                tuple(int(s) for s in meta["shape"])
            )
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{self._path!r}: snapshot member {name!r} has an "
                f"inconsistent dtype/shape/nbytes record ({exc})"
            ) from exc

    def member_crc(self, name: str) -> Optional[int]:
        """The CRC32 the header recorded for ``name`` (None if absent)."""
        stored = self._members[name].get("crc32")
        return None if stored is None else int(stored)

    def close(self) -> None:
        # Views returned by __getitem__ keep the mapping alive through
        # their base chain; dropping our reference is all close() means.
        self._arena = None

    def __enter__(self) -> "_ArenaArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


def _pack_dblsh(index: DBLSH, prefix: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """One index's header dict + array payload (keys under ``prefix``)."""
    if index.data is None or index.params is None or index._hasher is None:
        raise RuntimeError("fit() must be called before saving a snapshot")
    params = index.params
    # A pending delta buffer has no traversal arrays to serialize: fold
    # it first so the snapshot round-trips add()ed points (a no-op when
    # nothing is pending).
    index.compact()
    # Only the rstar forest is stored; the ablation backends rebuild their
    # tables from the projection tensor at load time.
    forest = index._forest
    header = {
        "n": int(index.num_points),
        "dim": int(index.dim),
        "c": params.c,
        "w0": params.w0,
        "k_per_space": params.k_per_space,
        "l_spaces": params.l_spaces,
        "t": params.t,
        "backend": index.backend,
        "max_entries": index.max_entries,
        "initial_radius": float(index.initial_radius),
        "patience": index.patience,
        "seed": int(index.seed) if isinstance(index.seed, (int, np.integer)) else None,
        "build_seconds": float(index.build_seconds),
        "has_flat": forest is not None,
        "has_tombstones": bool(index.num_tombstones),
        "has_norms2": True,
    }
    arrays: Dict[str, np.ndarray] = {
        prefix + "data": index.data,
        prefix + "tensor": index._hasher.tensor,
        # Ship the precomputed squared norms the chunked-GEMM verifier
        # needs, so loading never pays the O(n d) einsum recompute.
        prefix + "norms2": index._norms2,
        prefix + "table_low": index._cov_low,
        prefix + "table_high": index._cov_high,
    }
    if index.num_tombstones:
        arrays[prefix + "tombstones"] = index._delta.tombstones
    if forest is not None:
        for key, array in forest.to_arrays().items():
            arrays[f"{prefix}forest.{key}"] = array
    return header, arrays


def _write_arena(path: str, header: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically write ``header`` + ``arrays`` as an arena file at ``path``.

    Lays out every member C-contiguously on an :data:`ARENA_ALIGN`
    boundary, records its ``(offset, nbytes, dtype, shape, crc32)`` in
    the header's member table, and lands the whole file through a tmp +
    fsync + ``os.replace`` + directory-fsync sequence, so a crash
    mid-save never touches the previous snapshot.
    """
    members: Dict[str, dict] = {}
    blobs: List[Tuple[int, np.ndarray]] = []
    offset = 0
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        offset = _align_up(offset)
        members[name] = {
            "offset": offset,
            "nbytes": int(arr.nbytes),
            "dtype": arr.dtype.str,
            # The *original* shape: ascontiguousarray promotes 0-d
            # members to 1-d, which must not leak into the round-trip.
            "shape": [int(s) for s in np.shape(array)],
            "crc32": _array_crc(arr),
        }
        blobs.append((offset, arr))
        offset += arr.nbytes
    span = offset
    header = dict(header, members=members)
    header_bytes = json.dumps(header).encode()
    data_start = _align_up(_ARENA_PREAMBLE_LEN + len(header_bytes))
    preamble = ARENA_MAGIC + _ARENA_PREAMBLE.pack(
        ARENA_VERSION, crc32(header_bytes), len(header_bytes), data_start
    )
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(preamble)
            handle.write(header_bytes)
            handle.write(b"\x00" * (data_start - _ARENA_PREAMBLE_LEN - len(header_bytes)))
            pos = 0  # relative to data_start from here on
            for member_offset, arr in blobs:
                handle.write(b"\x00" * (member_offset - pos))
                if arr.nbytes:  # memoryview.cast rejects zero-sized shapes
                    handle.write(memoryview(arr).cast("B"))
                pos = member_offset + arr.nbytes
            handle.write(b"\x00" * (span - pos))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(os.path.dirname(path))


def save_index(
    index,
    path: str,
    *,
    uid: Optional[str] = None,
    parent_uid: Optional[str] = None,
    next_id: Optional[int] = None,
) -> None:
    """Persist a fitted :class:`DBLSH` or ``ShardedDBLSH`` to ``path``.

    The snapshot is an **arena** file (see the module docstring):
    loading maps it read-only in O(1) and adopts every array as a
    zero-copy view, and concurrent serving workers share one physical
    copy of its pages.  A sharded index is stored shard-by-shard under
    ``shard{i}.`` key prefixes, which is what lets serving workers later
    load single shards with :func:`load_shard` without touching the rest
    of the file.

    The write is **crash-safe**: the file lands in a temp file that is
    fsync'd and then atomically renamed over ``path`` (directory fsync
    included).  A process killed mid-save leaves the previous snapshot
    readable; it never corrupts it in place.  Every payload member's
    CRC32 is recorded in the header and checked by
    :func:`verify_snapshot`.

    Parameters
    ----------
    index:
        A fitted :class:`DBLSH` or ``ShardedDBLSH``.
    path:
        Output path, conventionally ending in ``.npz`` (the suffix is
        appended if missing; the file is an arena, not a zip archive).
    uid:
        Generation identity recorded in the header; a fresh random hex
        uid is generated when omitted.  The write-ahead log
        (:mod:`repro.io.wal`) binds to this value.
    parent_uid:
        Uid of the snapshot generation this one was compacted from
        (``None`` for a from-scratch build) — recovery accepts a log
        bound to either end of that edge.
    next_id:
        Mutation id counter to persist (first id a future insert may
        use).  Defaults to the physical row count; a serving layer that
        has deleted the highest ids passes its own counter so ids are
        never reused.

    Raises
    ------
    RuntimeError
        If ``index`` has not been fitted (``fit()`` never called).
    TypeError
        If ``index`` is neither a :class:`DBLSH` nor a ``ShardedDBLSH``
        (baselines do not snapshot).

    Examples
    --------
    >>> import numpy as np, os, tempfile
    >>> from repro import DBLSH
    >>> from repro.io import save_index, load_index
    >>> data = np.random.default_rng(0).standard_normal((48, 6))
    >>> index = DBLSH(l_spaces=2, k_per_space=3, t=8, seed=0).fit(data)
    >>> path = os.path.join(tempfile.mkdtemp(), "index.npz")
    >>> save_index(index, path)
    >>> load_index(path).query(data[7], k=1).ids
    [7]
    """
    from repro.core.sharded import ShardedDBLSH

    if isinstance(index, ShardedDBLSH):
        shard_headers = []
        arrays: Dict[str, np.ndarray] = {}
        for i, shard in enumerate(index.shard_indexes):
            shard_header, shard_arrays = _pack_dblsh(shard, f"shard{i}.")
            shard_headers.append(shard_header)
            arrays.update(shard_arrays)
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": ARENA_VERSION,
            "kind": "sharded",
            "build_seconds": float(index.build_seconds),
            "shard_headers": shard_headers,
        }
    elif isinstance(index, DBLSH):
        index_header, arrays = _pack_dblsh(index, "")
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": ARENA_VERSION,
            "kind": "dblsh",
            "index": index_header,
        }
    else:
        raise TypeError(f"cannot snapshot object of type {type(index).__name__}")
    header["uid"] = str(uid) if uid is not None else os.urandom(8).hex()
    header["parent_uid"] = None if parent_uid is None else str(parent_uid)
    header["next_id"] = (
        int(next_id) if next_id is not None else int(index.num_points)
    )
    if not path.endswith(".npz"):
        path = path + ".npz"
    _write_arena(path, header, arrays)


# ----------------------------------------------------------------------
# Unpacking
# ----------------------------------------------------------------------


def _open_archive(path: str) -> _ArenaArchive:
    """Open ``path`` as an arena snapshot, mapping junk to SnapshotError.

    ``FileNotFoundError`` propagates unchanged (the caller's path is
    wrong, not the file's contents).  A zip archive — the legacy v1
    ``.npz`` container — and any file without the arena magic become a
    :class:`SnapshotError`.
    """
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(ARENA_MAGIC))
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise SnapshotError(
            f"{path!r} is not a readable {SNAPSHOT_FORMAT} file"
        ) from exc
    if magic.startswith(_ZIP_MAGIC):
        raise SnapshotError(
            f"{path!r} is a zip archive (the legacy v1 .npz snapshot "
            f"container), not a {SNAPSHOT_FORMAT} arena; this build reads "
            f"only arena version {ARENA_VERSION} snapshots (re-save the "
            f"index with this build)"
        )
    if magic != ARENA_MAGIC:
        raise SnapshotError(
            f"{path!r} is not a {SNAPSHOT_FORMAT} file (no arena magic)"
        )
    return _ArenaArchive(path)


def _unpack_forest(
    header: dict, archive: _ArenaArchive, prefix: str
) -> Optional[FlatRStarTree]:
    if not header.get("has_flat"):
        return None
    p = f"{prefix}forest."
    arrays = {key: archive[p + key] for key in _FOREST_FIXED_KEYS}
    n_levels = int(np.asarray(arrays["meta"]).reshape(-1)[4])
    for j in range(n_levels):
        for part in ("cat", "start", "end"):
            key = f"level{j}_{part}"
            arrays[key] = archive[p + key]
    return FlatRStarTree.from_arrays(arrays)


def _unpack_dblsh(header: dict, archive: _ArenaArchive, prefix: str) -> DBLSH:
    seed = header.get("seed")
    data = archive[prefix + "data"]
    tensor = archive[prefix + "tensor"]
    expected = (int(header["l_spaces"]), int(header["k_per_space"]), int(header["dim"]))
    if tensor.shape != expected or data.ndim != 2 or data.shape[1] != expected[2]:
        raise SnapshotError(
            f"snapshot payload disagrees with its header: tensor shape "
            f"{tensor.shape} / data shape {data.shape}, expected (L, K, d) = {expected}"
        )
    return DBLSH._restore(
        data=data,
        tensor=tensor,
        c=float(header["c"]),
        w0=float(header["w0"]),
        k_per_space=int(header["k_per_space"]),
        l_spaces=int(header["l_spaces"]),
        t=int(header["t"]),
        backend=str(header["backend"]),
        max_entries=int(header["max_entries"]),
        initial_radius=float(header["initial_radius"]),
        patience=header.get("patience"),
        seed=0 if seed is None else int(seed),
        table_low=archive[prefix + "table_low"],
        table_high=archive[prefix + "table_high"],
        norms2=(
            archive[prefix + "norms2"] if header.get("has_norms2") else None
        ),
        forest=_unpack_forest(header, archive, prefix),
        build_seconds=float(header.get("build_seconds", 0.0)),
        tombstones=(
            archive[prefix + "tombstones"]
            if header.get("has_tombstones")
            else None
        ),
    )


def read_header(path: str) -> dict:
    """Return a snapshot's JSON header without loading any payload arrays."""
    with _open_archive(path) as archive:
        return archive.header


@contextmanager
def _reading(path: str) -> Iterator[_ArenaArchive]:
    """Open ``path`` for a payload read; a missing member or header entry
    (a truncated or hand-edited file) becomes a :class:`SnapshotError`."""
    with _open_archive(path) as archive:
        try:
            yield archive
        except KeyError as exc:
            raise SnapshotError(
                f"{path!r} is missing snapshot payload entry {exc.args[0]!r}"
            ) from exc


def shard_layout(header: dict) -> List[Tuple[str, dict, int]]:
    """``(member prefix, shard header, global id offset)`` per shard.

    The one walk over a snapshot's shards, from its parsed header alone
    (:func:`read_header`, no payload read).  A ``"sharded"`` snapshot
    stores shard ``i`` under the ``shard{i}.`` prefix; a ``"dblsh"``
    snapshot is one shard with unprefixed members.  Each shard header
    carries the scalars serving needs — ``n``, ``dim``,
    ``k_per_space``, ``l_spaces``, ``t`` — and the offsets are the
    running sums of the ``n`` values, as
    :class:`~repro.core.sharded.ShardedDBLSH` assigns global ids.
    """
    kind = header.get("kind")
    if kind == "dblsh":
        prefixes, headers = [""], [header["index"]]
    elif kind == "sharded":
        headers = list(header["shard_headers"])
        prefixes = [f"shard{i}." for i in range(len(headers))]
    else:
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    offsets = shard_offsets([int(h["n"]) for h in headers])
    return list(zip(prefixes, headers, offsets))


def load_index(path: str):
    """Restore the index persisted at ``path``.

    On the default ``rstar`` backend loading is **zero rebuild**: the
    frozen traversal arrays are adopted as stored, so the first query
    runs without a projection pass or bulk load.  The ablation backends
    (``kdtree``, ``grid``, ``rstar-insert``) rebuild their tables from
    the stored projection tensor during the load.

    Parameters
    ----------
    path:
        A snapshot written by :func:`save_index` (or ``index.save()``).

    Returns
    -------
    DBLSH or ShardedDBLSH
        According to the snapshot ``kind`` header field.  To serve a
        sharded snapshot one worker process per shard, see
        :func:`load_shard` and :class:`repro.serve.SnapshotServer`.

    Raises
    ------
    SnapshotError
        If the file is not an arena snapshot (a legacy ``.npz`` zip
        archive included), was written under a different
        ``ARENA_VERSION``, declares an unknown kind, has a payload that
        disagrees with its header, or is missing payload entries (a
        truncated or hand-edited file).

    Examples
    --------
    >>> from repro.io import load_index, SnapshotError
    >>> try:
    ...     load_index(__file__)  # not a snapshot
    ... except SnapshotError:
    ...     print("rejected")
    rejected
    """
    with _reading(path) as archive:
        header = archive.header
        shards = [
            _unpack_dblsh(shard_header, archive, prefix)
            for prefix, shard_header, _ in shard_layout(header)
        ]
        if header["kind"] == "dblsh":
            return shards[0]
        from repro.core.sharded import ShardedDBLSH

        return ShardedDBLSH._restore(
            shards=shards,
            build_seconds=float(header.get("build_seconds", 0.0)),
        )


def load_shard(path: str, shard: int) -> DBLSH:
    """Restore one shard of the snapshot at ``path`` as a standalone index.

    The worker-side entry point of multi-process serving
    (:mod:`repro.serve`): each worker process maps only *its* shard's
    members — the other shards' pages are never faulted in — and
    answers queries against it with
    shard-local ids.  The coordinator maps ids back to global through
    the shard offsets (:func:`shard_layout` gives them).

    A ``"dblsh"``-kind snapshot is served as a single shard: only
    ``shard == 0`` is valid and returns the whole index.

    Parameters
    ----------
    path:
        A snapshot written by :func:`save_index`.
    shard:
        Shard ordinal in ``[0, shards)``.

    Returns
    -------
    DBLSH
        The shard's sub-index, exactly as ``ShardedDBLSH.load(path)``
        would hold it (zero rebuild on the ``rstar`` backend), with the
        budget knob ``t`` the shard was saved with.

    Raises
    ------
    SnapshotError
        If the file is not a compatible snapshot, or ``shard`` is out of
        range for it.
    """
    with _reading(path) as archive:
        layout = shard_layout(archive.header)
        if not 0 <= int(shard) < len(layout):
            raise SnapshotError(
                f"{path!r} holds {len(layout)} shard(s); shard {shard} requested"
            )
        prefix, shard_header, _ = layout[int(shard)]
        return _unpack_dblsh(shard_header, archive, prefix)


def load_data(path: str) -> np.ndarray:
    """The indexed points of a snapshot in global id order, nothing else.

    Reads only the ``data`` members — not the traversal arrays or the
    projection tensor — so evaluation code can compute ground truth
    against a served snapshot without restoring a queryable index in the
    evaluating process.
    """
    with _reading(path) as archive:
        parts = [
            archive[prefix + "data"]
            for prefix, _, _ in shard_layout(archive.header)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def load_tombstones(path: str) -> np.ndarray:
    """Global ids of the snapshot's logically deleted rows (sorted int64).

    Reads only the per-shard ``tombstones`` members (shard-local ids are
    mapped to global through the shard offsets; each member is sorted
    and the shards follow id order) — no traversal arrays, no data.
    Recovery uses this to replay a write-ahead log idempotently over a
    freshly compacted snapshot: a logged delete whose id is already
    baked in here is a no-op.
    """
    with _reading(path) as archive:
        parts = [
            np.asarray(archive[prefix + "tombstones"], dtype=np.int64) + offset
            for prefix, shard_header, offset in shard_layout(archive.header)
            if shard_header.get("has_tombstones")
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


def verify_snapshot(path: str) -> dict:
    """Full-content integrity pass over every member of the snapshot.

    The default load path deliberately stays O(1) — it validates the
    preamble, the header CRC, and every member's byte range without
    faulting data pages.  This function is the explicit opposite trade:
    it reads **every member's bytes** and checks them against the CRC32
    recorded at save time, raising a :class:`SnapshotError` that names
    the first corrupt member.  Run it after a copy, a download, or a
    suspected disk fault; serving setups can run it once per generation
    before ``reload``.

    Returns
    -------
    dict
        ``{"path", "container" (always "arena"), "version", "members",
        "payload_bytes"}`` summary of what was verified.

    Raises
    ------
    SnapshotError
        If the file is not a snapshot, its header is corrupt, or any
        member's bytes fail their recorded checksum.
    """
    with _open_archive(path) as archive:
        members = 0
        payload_bytes = 0
        for name in sorted(archive.files):
            array = archive[name]
            members += 1
            payload_bytes += int(array.nbytes)
            stored = archive.member_crc(name)
            if stored is not None and _array_crc(array) != stored:
                raise SnapshotError(
                    f"{path!r}: snapshot member {name!r} failed its "
                    f"checksum (stored CRC32 {stored}) — the file bytes "
                    f"were altered after save_index() wrote them"
                )
        return {
            "path": path,
            "container": "arena",
            "version": int(archive.header["version"]),
            "members": members,
            "payload_bytes": payload_bytes,
        }
