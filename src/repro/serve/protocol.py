"""Message framing between the serving coordinator and its workers.

Every message on a coordinator↔worker pipe is one picklable tuple whose
first element is the message kind:

========================  =============================================
coordinator → worker      ``("query", req_id, payload, k[, deadline])``,
                          ``("ping", token)``, ``("shutdown",)``
worker → coordinator      ``("ready", num_points)``,
                          ``("ok", req_id, results)``,
                          ``("expired", req_id)``,
                          ``("pong", token)``, ``("bye",)``,
                          ``("error", traceback_text)`` at startup /
                          ``("error", req_id, traceback_text)`` later
========================  =============================================

The pipes never leave the host: network clients reach the server only
through the HTTP gateway (:mod:`repro.serve.http`), which speaks JSON.

``req_id`` is a coordinator-unique integer echoed back by the worker:
the supervision retry re-scatters a query block under a *fresh* id after
restarting a dead worker, so a stale answer from a surviving worker's
abandoned attempt can be recognized and dropped instead of being
mistaken for the retry's answer.

``deadline``, when present and not ``None``, is the request's absolute
``time.monotonic()`` deadline — valid across processes on one host
because ``CLOCK_MONOTONIC`` is host-wide.  A worker that picks up a
query whose deadline has already passed answers ``("expired", req_id)``
instead of doing the work; the coordinator turns that into the typed
``DeadlineExceeded``.

Query blocks travel to workers either inline (pickled through the pipe,
fine for a handful of vectors) or as a :class:`SharedMemory` block —
one copy into shared memory serves every worker, instead of S pickle
round-trips of the same bytes.  The payload tuple says which:
``("inline", ndarray)`` or ``("shm", name, shape, dtype_str)``.

Results cross the pipe as plain arrays (ids, distances, stats fields)
rather than pickled result objects, so the wire format is stable against
refactors of the result classes and cheap to encode.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Tuple

import numpy as np

from repro.core.result import Neighbor, QueryResult, QueryStats

__all__ = [
    "SHM_MIN_BYTES",
    "decode_result",
    "encode_result",
    "read_query_block",
    "write_query_block",
]

#: Query blocks at least this large go through shared memory; smaller
#: ones are cheaper to pickle straight into the pipe than to round-trip
#: through a segment create/attach/unlink.
SHM_MIN_BYTES = 1 << 16

#: Wire form of one query's answer: ids, distances, stats field dict.
WireResult = Tuple[np.ndarray, np.ndarray, dict]

#: Stats travel by field *name*, not position, so a peer built from a
#: checkout where :class:`QueryStats` gained, lost, or reordered fields
#: still decodes what both sides know instead of silently shifting
#: counters into the wrong slots.
_STATS_FIELDS = frozenset(f.name for f in fields(QueryStats))


def encode_result(result: QueryResult) -> WireResult:
    """Flatten a :class:`QueryResult` into arrays for the pipe."""
    ids = np.fromiter((n.id for n in result.neighbors), dtype=np.int64,
                      count=len(result.neighbors))
    dists = np.fromiter((n.distance for n in result.neighbors),
                        dtype=np.float64, count=len(result.neighbors))
    return ids, dists, asdict(result.stats)


def decode_result(wire: WireResult) -> QueryResult:
    """Rebuild a :class:`QueryResult` from its wire form.

    Unknown stats fields from a newer peer are dropped; fields the peer
    did not send keep their defaults.
    """
    ids, dists, stats_fields = wire
    known = {k: v for k, v in stats_fields.items() if k in _STATS_FIELDS}
    return QueryResult(
        neighbors=[Neighbor(int(i), float(d)) for i, d in zip(ids, dists)],
        stats=QueryStats(**known),
    )


def _untrack(shm) -> None:
    """Detach an *attached* segment from this process's resource tracker.

    On POSIX Pythons before 3.13, merely attaching to a named segment
    registers it with the attaching process's resource tracker, which
    then unlinks the segment when that process exits — destroying a
    block the creating process still owns.  Workers only ever attach
    (the coordinator creates and unlinks), so they unregister right
    away; best-effort because the tracker API is private.
    """
    try:
        from multiprocessing import resource_tracker

        # Deliberately the private ``_name`` (leading slash intact on
        # POSIX): the tracker registered exactly that string, and the
        # public ``shm.name`` strips the slash — unregistering by the
        # public name would silently miss.  This mirrors what
        # ``SharedMemory.unlink()`` itself passes to the tracker.
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def write_query_block(queries: np.ndarray, min_bytes: int = SHM_MIN_BYTES):
    """Stage a query block for scatter; returns ``(payload, shm_or_None)``.

    Blocks of at least ``min_bytes`` are copied once into a fresh
    :class:`SharedMemory` segment and described by name; the caller owns
    the returned segment and must ``close()``/``unlink()`` it once every
    worker has answered.  Smaller blocks (or hosts where the segment
    cannot be created) ship inline.
    """
    queries = np.ascontiguousarray(queries)
    if queries.nbytes >= min_bytes:
        try:
            from multiprocessing.shared_memory import SharedMemory

            shm = SharedMemory(create=True, size=queries.nbytes)
        except (ImportError, OSError):
            pass  # no usable shared memory on this host; ship inline
        else:
            staged = np.ndarray(queries.shape, dtype=queries.dtype,
                                buffer=shm.buf)
            staged[:] = queries
            return ("shm", shm.name, queries.shape, str(queries.dtype)), shm
    return ("inline", queries), None


def read_query_block(payload: tuple) -> np.ndarray:
    """Materialize a scattered query block in a worker (copies, detaches)."""
    kind = payload[0]
    if kind == "inline":
        return np.asarray(payload[1], dtype=np.float64)
    if kind == "shm":
        from multiprocessing.shared_memory import SharedMemory

        _, name, shape, dtype = payload
        shm = SharedMemory(name=name)
        try:
            _untrack(shm)
            return np.array(
                np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf),
                dtype=np.float64,
            )
        finally:
            shm.close()
    raise ValueError(f"unknown query payload kind {kind!r}")
