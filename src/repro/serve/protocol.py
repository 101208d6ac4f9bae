"""Message framing between the serving coordinator and its workers.

Every message on a coordinator↔worker pipe is one picklable tuple whose
first element is the message kind:

========================  =============================================
coordinator → worker      ``("query", req_id, queries, k, deadline,
                          tombstones)``, ``("shutdown",)``
worker → coordinator      ``("ready", num_points, {"mapped": bool})``,
                          ``("ok", req_id, results)``,
                          ``("expired", req_id)``,
                          ``("bye",)``,
                          ``("error", traceback_text)`` at startup /
                          ``("error", req_id, traceback_text)`` later
========================  =============================================

The pipes never leave the host: network clients reach the server only
through the HTTP gateway (:mod:`repro.serve.http`), which speaks JSON.
Every worker is forked from its coordinator, so both ends always run
the same code and no message carries a version or tolerates skew.

``req_id`` is a coordinator-unique integer echoed back by the worker:
the supervision retry re-scatters a query block under a *fresh* id after
restarting a dead worker, so a stale answer from a surviving worker's
abandoned attempt can be recognized and dropped instead of being
mistaken for the retry's answer.

``deadline``, when not ``None``, is the request's absolute
``time.monotonic()`` deadline — valid across processes on one host
because ``CLOCK_MONOTONIC`` is host-wide.  A worker that picks up a
query whose deadline has already passed answers ``("expired", req_id)``
instead of doing the work; the coordinator turns that into the typed
``DeadlineExceeded``.

``queries`` is the validated float64 ``(m, d)`` block itself, pickled
into each worker's pipe; the worker queries it as received.

``tombstones`` is the shard's deleted rows as sorted **shard-local**
int64 ids (``None`` from a read-only server); the worker applies them
through ``DBLSH.delete`` before answering.

Results cross the pipe as plain arrays (ids, distances, stats fields),
which pickle cheaper than result objects.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Tuple

import numpy as np

from repro.core.result import Neighbor, QueryResult, QueryStats

__all__ = ["decode_result", "encode_result"]

#: Wire form of one query's answer: ids, distances, stats field dict.
WireResult = Tuple[np.ndarray, np.ndarray, dict]


def encode_result(result: QueryResult) -> WireResult:
    """Flatten a :class:`QueryResult` into arrays for the pipe."""
    ids = np.fromiter((n.id for n in result.neighbors), dtype=np.int64,
                      count=len(result.neighbors))
    dists = np.fromiter((n.distance for n in result.neighbors),
                        dtype=np.float64, count=len(result.neighbors))
    return ids, dists, asdict(result.stats)


def decode_result(wire: WireResult) -> QueryResult:
    """Rebuild a :class:`QueryResult` from its wire form."""
    ids, dists, stats_fields = wire
    return QueryResult(
        neighbors=[Neighbor(int(i), float(d)) for i, d in zip(ids, dists)],
        stats=QueryStats(**stats_fields),
    )
