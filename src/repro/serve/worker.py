"""The serving worker: one process, one loaded snapshot shard.

:func:`serve_shard` is the target function of every
:class:`~repro.serve.server.SnapshotServer` worker process.  It loads
exactly one shard of the snapshot (:func:`repro.io.snapshot.load_shard`
reads only that shard's archive members), reports readiness, and then
answers ``("query", req_id, queries, k, deadline, tombstones)``
requests over its pipe until told to shut down.  Every query reply
echoes the coordinator's request id, which is what lets the
coordinator's supervision retry re-scatter a block after a worker death
and discard any stale answer a surviving worker delivers late.

Failure discipline: the worker never lets an exception escape the loop
silently.  Startup failures and per-request failures are both reported
to the coordinator as ``("error", ...)`` messages so the parent can
surface the *worker's* stack trace instead of a bare broken pipe; only a
vanished coordinator (``EOFError``/``OSError`` on the pipe) ends the
loop without a report, because there is nobody left to read one.
Workers are started as daemons, so even a killed coordinator cannot
leave them behind.

Inheritance: every worker is forked from the coordinator, so it starts
with copies of everything the coordinator had open — the HTTP gateway's
listener and client sockets, the WAL segments, the other workers' pipe
ends.  A worker forked mid-serve (reload, compaction flip, supervision
restart) would keep a closed client connection from ever seeing EOF and
a closed gateway's port bound.  So :func:`serve_shard`'s first act closes
every inherited descriptor except 0–2 and its own pipe, and freezes the
inherited objects so no garbage collection in the worker runs a
finalizer that closes a descriptor number the worker has since reused.
The worker needs nothing else: its shard is read from ``path`` afresh.

Fault injection (tests only): the ``REPRO_SERVE_FAULT`` environment
variable arms one-shot faults so the fault-injection suite can make a
*specific* worker incarnation die or stall at a *deterministic* point —
something ``os.kill`` from a test cannot time against an in-flight
request.  The format is a comma-separated list of
``<kind>:<shard>:<spawn>[:<arg>]`` specs matched against this worker's
shard index and spawn counter (0 for the original worker of a pool, +1
per supervision restart):

* ``die-on-query:1:0`` — shard 1's original worker exits (default code
  9, override with a fourth field) upon receiving its first query;
  combined with ``die-on-query:1:1`` the *restarted* worker dies too,
  which is how the retry-exhaustion path is pinned;
* ``sleep-on-query:0:0:0.4`` — shard 0's original worker sleeps 0.4 s
  before answering its first query, long enough for a test to overlap a
  :meth:`~repro.serve.server.SnapshotServer.reload` with the request.
* ``hang-on-query:0:0`` — shard 0's original worker sleeps effectively
  forever (3600 s, override with a fourth field) on its first query:
  the deterministic "worker stuck in a GEMM" stand-in the coordinator's
  hang watchdog is pinned against.  Unlike ``sleep-on-query`` it is
  expected to be SIGKILLed, never to answer.

The variable is read once at worker startup; production deployments
simply never set it.

Deadlines: the fifth element of a query message is the request's
absolute ``time.monotonic()`` deadline on the coordinator's clock.
``CLOCK_MONOTONIC`` is shared by all processes on the host, so the
worker can compare directly: if the deadline has already passed when
the message is picked up, it answers ``("expired", req_id)`` without
touching the index — the coordinator has already given up on (or is
about to give up on) the answer, so the GEMM would be pure waste heat.

Deletes: ``tombstones`` (this shard's full set, ``None`` when read-only)
goes to the idempotent ``DBLSH.delete`` before every answer, so deleted
rows are skipped exactly as in process, and a revived worker catches up
on its first query.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from typing import Optional, Tuple

from repro.serve.protocol import encode_result

__all__ = ["serve_shard"]


def _armed_fault(shard: int, spawn: int) -> Optional[Tuple[str, Optional[str]]]:
    """The ``REPRO_SERVE_FAULT`` spec aimed at this worker incarnation."""
    for part in filter(None, os.environ.get("REPRO_SERVE_FAULT", "").split(",")):
        fields = part.split(":")
        try:
            kind, target_shard, target_spawn = (
                fields[0], int(fields[1]), int(fields[2])
            )
        except (IndexError, ValueError):
            continue  # malformed spec: never let a typo crash serving
        if (target_shard, target_spawn) == (shard, spawn):
            return kind, fields[3] if len(fields) > 3 else None
    return None


def serve_shard(path: str, shard: int, conn, spawn: int = 0) -> None:
    """Load shard ``shard`` of the snapshot at ``path`` and serve ``conn``.

    The worker answers with shard-local ids; the coordinator owns the
    offset mapping and the global merge
    (:func:`repro.core.plan.merge_shard_batches`).

    Closing what the fork inherited (see the module docstring) also
    closes the coordinator's end of this pipe, so a SIGKILL'd
    coordinator makes ``recv`` raise ``EOFError`` and the worker exits
    on its own instead of lingering as an orphan.  It closes the pipe
    behind the coordinator's ``process.sentinel`` too, which is why the
    coordinator never waits on a worker with ``join(timeout)``.

    ``spawn`` counts this worker's incarnation within its pool: 0 for
    the original process, incremented by the coordinator's supervision
    each time it restarts the shard's worker (it also selects fault
    specs; see the module docstring).
    """
    gc.freeze()
    own = conn.fileno()
    os.closerange(3, own)
    os.closerange(own + 1, os.sysconf("SC_OPEN_MAX"))
    fault = _armed_fault(shard, spawn)
    try:
        from repro.io.snapshot import load_shard

        index = load_shard(path, shard)
        # "mapped": does this worker serve zero-copy mapped views of the
        # arena snapshot?
        conn.send(
            ("ready", index.num_points,
             {"mapped": bool(getattr(index, "is_mapped", False))})
        )
    except Exception:
        _best_effort_send(conn, ("error", traceback.format_exc()))
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # coordinator is gone; daemon exit
        req_id = None
        try:
            kind = message[0]
            if kind == "shutdown":
                _best_effort_send(conn, ("bye",))
                break
            if kind == "query":
                _, req_id, queries, k, deadline, tombstones = message
                if fault is not None:
                    fault_kind, arg = fault
                    fault = None  # one-shot: the next query serves normally
                    if fault_kind == "die-on-query":
                        os._exit(int(arg) if arg is not None else 9)
                    if fault_kind == "sleep-on-query":
                        time.sleep(float(arg) if arg is not None else 0.2)
                    if fault_kind == "hang-on-query":
                        # Deterministic hang: the watchdog SIGKILLs us.
                        time.sleep(float(arg) if arg is not None else 3600.0)
                if deadline is not None and time.monotonic() >= deadline:
                    conn.send(("expired", req_id))
                    continue
                if tombstones is not None:
                    index.delete(tombstones)
                results = index.query_batch(queries, k=int(k))
                conn.send(("ok", req_id, [encode_result(r) for r in results]))
            else:
                conn.send(("error", None, f"unknown message kind {kind!r}"))
        except (EOFError, OSError, BrokenPipeError):
            break  # coordinator vanished mid-request
        except Exception:
            # Request-level failure: report and keep serving.  The
            # coordinator decides whether that poisons the server.
            if not _best_effort_send(
                conn, ("error", req_id, traceback.format_exc())
            ):
                break
    try:
        conn.close()
    except OSError:
        pass


def _best_effort_send(conn, message) -> bool:
    """Send without raising; False means the pipe is already dead."""
    try:
        conn.send(message)
        return True
    except (OSError, BrokenPipeError, ValueError):
        return False
