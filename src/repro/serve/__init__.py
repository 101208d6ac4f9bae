"""Multi-process query serving over saved index snapshots.

The serving subsystem is the query-side counterpart of the sharded
*build* pipeline: a snapshot produced by :func:`repro.io.save_index`
is served by one **worker process per shard**
(:class:`~repro.serve.server.SnapshotServer`), each worker loading only
its shard's arrays (:func:`repro.io.snapshot.load_shard`, zero rebuild)
and answering scattered query blocks; the coordinator merges the
gathered per-shard top-k lists with the shared planner
(:mod:`repro.core.plan`), so served answers are identical to the
in-process sharded sweep's.

Layers:

* :mod:`repro.serve.protocol` — message framing and wire encoding of
  results;
* :mod:`repro.serve.worker` — the worker process loop;
* :mod:`repro.serve.server` — the coordinator: lifecycle, scatter-
  gather, failure surfacing;
* :mod:`repro.serve.mutable` — the crash-safe mutable coordinator:
  WAL-acked ``insert``/``delete``, delta-buffer sweeps merged into the
  snapshot answers, background compaction into fresh generations, and
  exactly-the-acked-mutations recovery after a kill;
* :mod:`repro.serve.http` — the HTTP/JSON front door: an asyncio
  gateway that micro-batches concurrent ``POST /query`` requests into
  single ``query_batch`` GEMMs behind a bounded admission queue (429
  shedding), with ``/healthz``, ``/status`` and ``/metrics``, the
  mutation verbs (``/insert``, ``/delete``, ``/compact``; ``403`` on a
  read-only :class:`~repro.serve.server.SnapshotServer`), ``/reload``
  and a loopback-only ``/shutdown``;
* :mod:`repro.serve.metrics` — the gateway's counters and fixed-bucket
  latency/batch-size histograms, snapshotted on read.

The server is a supervised, multi-client service: all public methods
are thread-safe (FIFO dispatch onto the worker pool), a worker that dies
mid-query (or hangs past its deadline and is killed by the watchdog)
is restarted from its snapshot shard with the block re-scattered once,
``status()`` exposes the lifecycle state machine, and ``reload()``
hot-flips to a new snapshot generation while in-flight queries finish
on the old one.

The CLI exposes the same machinery over HTTP: ``python -m repro serve``
binds the gateway in front of a ``SnapshotServer`` (or a
``MutableSnapshotServer`` with ``--mutable``) and ``python -m repro
query --server`` is its client (see :mod:`repro.cli`), with ``POST
/reload`` re-reading the served file — and ``repro.eval.evaluate_server``
benchmarks a served snapshot like any other method (``clients=N`` for
concurrent clients).
"""

from repro.serve.http import GatewayError, HttpGateway
from repro.serve.metrics import GatewayMetrics
from repro.serve.mutable import MutableSnapshotServer
from repro.serve.server import DeadlineExceeded, ServerError, SnapshotServer

__all__ = [
    "DeadlineExceeded",
    "GatewayError",
    "GatewayMetrics",
    "HttpGateway",
    "MutableSnapshotServer",
    "ServerError",
    "SnapshotServer",
]
