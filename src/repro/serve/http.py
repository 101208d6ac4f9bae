"""HTTP/JSON front door: micro-batching gateway over a snapshot server.

:class:`HttpGateway` puts a stdlib-only asyncio HTTP/1.1 endpoint in
front of a :class:`~repro.serve.server.SnapshotServer` (or the mutable
variant), so any HTTP client — ``curl``, a load balancer's health
checker, a service mesh, ``repro query --server`` — can use the engine.
It is the only network front door ``repro serve`` opens.  Three ideas
carry the design:

* **Micro-batching.**  The engine's throughput lives in the one-GEMM
  ``query_batch`` path (PR 1): projecting 32 queries in one matmul costs
  barely more than projecting one.  Concurrent ``POST /query`` requests
  are therefore *coalesced*: a request entering an empty batcher opens a
  collection window (``batch_window`` seconds); everything that arrives
  inside the window — or until ``max_batch`` coalesced requests, or
  until the batch holds one request from every open connection — is
  concatenated into a single ``query_batch`` call and the answers are
  demultiplexed back to the callers.  A connection reads its next
  request only after answering the current one, so once every open
  connection is in the batch nothing else can join and the window
  closes: a lone client never waits it out.  Per-query answers are independent
  of their batch peers (the engine's batched path is the same math per
  row, pinned by the PR 5 concurrency parity tests), so coalescing is
  invisible in the results: every response is bit-identical to
  ``load_index(path).query_batch(...)`` in process — the gateway rides
  the same shared merge planner (:mod:`repro.core.plan`) as every other
  transport.  Requests with different ``k`` share a window but dispatch
  as separate GEMMs (``query_batch`` takes one ``k``).
* **Admission control.**  The batcher pulls from a *bounded* queue
  (``queue_limit`` pending requests).  When the queue is full the
  gateway **sheds**: the request is refused immediately with ``429 Too
  Many Requests`` and a ``Retry-After`` hint instead of being parked on
  an ever-growing FIFO whose tail latency would punish every client.
  Accepted requests are never dropped: admission is the only place a
  query can be refused for load, and everything admitted is answered
  (or told the server broke).  ``GET /healthz`` and ``GET /metrics``
  bypass the queue — an overloaded gateway must still tell its operator
  that it is overloaded.
* **Observability.**  Every request is recorded in a
  :class:`~repro.serve.metrics.GatewayMetrics` registry — per-endpoint
  latency histograms (p50/p90/p99), QPS counters, queue depth, the
  batch-size histogram, shed counts — served as one JSON document from
  ``GET /metrics``.

On top of those, the resilience layer bounds every resource a client or
a worker could otherwise hold forever:

* **Per-request deadlines.**  A ``POST /query`` may carry an
  ``X-Timeout-Ms`` header (without one the request is unbounded); the
  budget becomes an absolute deadline that follows the
  request through the admission queue, the micro-batcher, and the
  coordinator (``query_batch(timeout=...)``) all the way into the
  worker protocol.  A request whose deadline passes — queued, batched,
  or mid-GEMM — answers ``504 Gateway Timeout``; the gateway enforces
  the bound itself (``asyncio.wait_for`` on the demux future), so the
  504 lands within the budget even when the server side is stuck, and
  the coordinator's watchdog kills the stuck worker underneath.
* **Connection lifecycle.**  Keep-alive connections idle past
  ``_IDLE_TIMEOUT`` (60 s) are reaped; when more than
  ``_MAX_CONNECTIONS`` (512) are open, the least-recently-active one is
  closed to admit the newcomer; a body above ``_MAX_BODY_BYTES``
  (64 MiB) answers 413; ``close()`` drains gracefully — stop accepting,
  give admitted work 5 seconds to finish, then fail stragglers with 503.
  Every reap and the drain duration land in the metrics registry.

Endpoints (all bodies JSON)::

    POST /query    {"query": [..], "k": 5}            single query
                   {"queries": [[..], ..], "k": 5}    batch
                   -> {"results": [{"ids": [...], "distances": [...]}, ...]}
                   optional X-Timeout-Ms header: per-request deadline
    POST /insert   {"point": [..]}    -> {"id": 7}        (mutable serves)
    POST /delete   {"id": 7}          -> {"deleted": true} (mutable serves)
    POST /compact  {}                 -> compaction summary (mutable serves)
    POST /reload   {}                 -> status after re-reading the served
                   snapshot file (409 refused, old generation keeps serving)
    POST /shutdown {}                 -> {"shutting_down": true}; loopback
                   peers only (403), and only when ``on_request`` is set (404)
    GET  /healthz  200 while serving, 503 stopped/broken (load balancers)
    GET  /status   the serving state machine + gateway configuration
    GET  /metrics  the GatewayMetrics snapshot

Mutations on a read-only serve answer ``403``; admission shedding
answers ``429`` with a ``Retry-After`` computed from the observed p50
batch latency × the current queue depth (how long the backlog actually
takes to clear, not a constant); a deadline overrun answers ``504``; a
broken worker pool answers ``503``.  The gateway owns a background
thread running its event loop: ``start()`` binds and returns once the
port is live (``port`` reports the kernel-assigned port when
constructed with port 0), ``close()`` drains in-flight work and stops
the loop — both composing with the server's own lifecycle, which the
gateway never manages.
"""

from __future__ import annotations

import asyncio
import ipaddress
import json
import math
import threading
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.io import SnapshotError
from repro.serve.metrics import GatewayMetrics
from repro.serve.server import DeadlineExceeded, ServerError
from repro.utils.validation import check_queries

__all__ = ["HttpGateway", "GatewayError"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_HEADERS = 64
#: Seconds :meth:`HttpGateway.close` lets admitted work finish before
#: failing stragglers with 503.
_DRAIN_TIMEOUT = 5.0
#: Request bodies above this many bytes answer 413.
_MAX_BODY_BYTES = 64 * 1024 * 1024
#: Seconds a keep-alive connection may stay silent (or trickle one
#: request) before it is reaped (``metrics.reaped_idle``).
_IDLE_TIMEOUT = 60.0
#: Open-connection cap; a newcomer beyond it evicts the
#: least-recently-active connection (``metrics.reaped_overflow``).
_MAX_CONNECTIONS = 512


class GatewayError(RuntimeError):
    """Gateway lifecycle failure: double start, bind failure, bad config."""


class _BadRequest(Exception):
    """Internal: an HTTP-level violation answered without routing."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Pending:
    """One admitted /query request waiting in the batcher.

    ``deadline`` is the request's absolute expiry on the event loop's
    clock (``loop.time()``), or ``None`` for no bound.  The batcher
    checks it at dispatch time so an already-expired request is failed
    instead of burning a GEMM slot on an answer nobody will read.
    """

    __slots__ = ("queries", "k", "future", "deadline")

    def __init__(self, queries: np.ndarray, k: int, future: "asyncio.Future",
                 deadline: Optional[float] = None) -> None:
        self.queries = queries
        self.k = k
        self.future = future
        self.deadline = deadline


#: Endpoints reported to the ``on_request`` hook (probes are not).
_REPORTED = frozenset({"query", "insert", "delete", "compact", "shutdown"})

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpGateway:
    """Serve a snapshot server over HTTP with micro-batching + shedding.

    Parameters
    ----------
    server:
        A started :class:`~repro.serve.server.SnapshotServer` (or
        :class:`~repro.serve.mutable.MutableSnapshotServer` — its
        ``insert``/``delete``/``compact`` become endpoints).  The gateway
        never starts or closes the server; compose lifecycles outside.
    host, port:
        Bind address.  ``port=0`` asks the kernel for a free port;
        :attr:`port` reports the real one after :meth:`start`.
    batch_window:
        Seconds the micro-batcher keeps collecting after the first
        request of a batch arrives, at most: collection stops early once
        the batch holds one request from every open connection.  ``0.0``
        still coalesces whatever is *already* queued (natural batching
        under load) but never waits.
    max_batch:
        Coalesced requests per dispatch, at most.
    queue_limit:
        Bounded admission queue: requests beyond this many pending are
        shed with ``429``.
    on_request:
        Optional callable invoked (from the event-loop thread, after the
        response is written) with ``(endpoint, status)`` for every
        ``query``/``insert``/``delete``/``compact``/``shutdown``
        request.  It is the embedding CLI's one hook: it counts
        ``--max-requests``, fails the serve on a 503/500 that breaks its
        contract, and stops on ``/shutdown``, which exists only when this
        hook is supplied.

    Examples
    --------
    ::

        with SnapshotServer("index.npz") as server:
            gateway = HttpGateway(server, port=8080).start()
            ...  # curl -d '{"query": [...], "k": 5}' localhost:8080/query
            gateway.close()
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window: float = 0.002,
        max_batch: int = 32,
        queue_limit: int = 256,
        on_request: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.server = server
        self.host = host
        self.port = int(port)
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.queue_limit = int(queue_limit)
        self.metrics = GatewayMetrics()
        self._on_request = on_request
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._inflight = 0
        #: Requests pulled off the queue into a dispatched batch whose
        #: answers have not landed yet — invisible to queue.qsize(), but
        #: still in front of anyone told to retry.
        self._dispatched = 0
        self._draining = False
        #: writer -> last-active loop.time(); event-loop thread only.
        self._connections: Dict[asyncio.StreamWriter, float] = {}
        self._mutable = hasattr(server, "insert")

    # ------------------------------------------------------------------
    # Lifecycle (called from any thread)
    # ------------------------------------------------------------------

    def start(self, timeout: float = 10.0) -> "HttpGateway":
        """Bind and serve in a background thread; returns once live.

        Raises
        ------
        GatewayError
            On double start or when the bind/listen fails within
            ``timeout`` (carrying the underlying ``OSError`` text).
        """
        if self._thread is not None:
            raise GatewayError("gateway already started; close() it first")
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run, name="repro-http-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            self.close()
            raise GatewayError(f"gateway did not come up within {timeout:.0f}s")
        if self._startup_error is not None:
            error = self._startup_error
            self.close()
            raise GatewayError(
                f"could not listen on {self.address}: {error}"
            ) from error
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting, fail queued work, stop the loop; idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop shut down between the check and the call
        thread.join(timeout)
        self._loop = None
        self._stop_event = None

    @property
    def address(self) -> str:
        """``HOST:PORT``, with an IPv6 host in brackets (``[::1]:8080``)."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"{host}:{self.port}"

    def __enter__(self) -> "HttpGateway":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Event-loop thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop-level crash
            if self._startup_error is None:
                self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._stop_event = asyncio.Event()
        self._draining = False
        self._connections = {}
        self.metrics.set_queue_depth_probe(self._queue.qsize)
        self.metrics.set_connections_probe(lambda: len(self._connections))
        try:
            listener = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.port = listener.sockets[0].getsockname()[1]
        batcher = asyncio.create_task(self._batcher_loop(), name="micro-batcher")
        self._started.set()
        try:
            async with listener:
                await self._stop_event.wait()
        finally:
            # Graceful drain: the listener is closed (no new admissions),
            # so give everything already admitted a bounded chance to be
            # batched, dispatched, and answered before failing leftovers.
            self._draining = True
            drain_started = self._loop.time()
            await self._await_inflight()
            batcher.cancel()
            try:
                await batcher
            except (asyncio.CancelledError, Exception):
                pass
            await self._drain_queue()
            await self._await_inflight()
            self.metrics.observe_drain(self._loop.time() - drain_started)

    async def _drain_queue(self) -> None:
        """Fail everything still queued when the drain budget ran out."""
        assert self._queue is not None
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(
                    ServerError("gateway is shutting down")
                )

    async def _await_inflight(self) -> None:
        """Give in-flight handlers a bounded chance to write their answers."""
        deadline = asyncio.get_running_loop().time() + _DRAIN_TIMEOUT
        while self._inflight > 0 and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # Micro-batcher
    # ------------------------------------------------------------------

    async def _batcher_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch: List[_Pending] = [first]
            deadline = loop.time() + self.batch_window
            # A connection reads its next request only after answering
            # the current one, so once the batch holds one request per
            # open connection nothing else can join: stop waiting.
            while len(batch) < min(self.max_batch, len(self._connections)):
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Window spent (or zero): still take whatever already
                    # queued up — natural batching under load costs no
                    # added latency.
                    try:
                        batch.append(self._queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                    continue
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            # One GEMM per distinct k (query_batch takes a single k);
            # requests of the dominant k still coalesce fully.
            groups: Dict[int, List[_Pending]] = {}
            for pending in batch:
                groups.setdefault(pending.k, []).append(pending)
            for k, group in groups.items():
                self.metrics.observe_batch(len(group))
                # Awaited, not fire-and-forgotten: while the GEMM runs,
                # new arrivals accumulate in the bounded queue — which is
                # what lets the next batch coalesce naturally AND what
                # makes the queue actually fill (and shed) under
                # overload.  Dispatching concurrently would drain the
                # queue as fast as it fills and 429 could never fire.
                await self._dispatch_group(k, group)

    async def _dispatch_group(self, k: int, group: List[_Pending]) -> None:
        """Run one coalesced ``query_batch`` and demux the answers."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Pending] = []
        for pending in group:
            if pending.deadline is not None and now >= pending.deadline:
                # Expired while queued: its handler has answered (or is
                # answering) 504 — don't spend GEMM rows on it.
                if not pending.future.done():
                    pending.future.set_exception(DeadlineExceeded(
                        "request deadline expired in the admission queue"
                    ))
                continue
            live.append(pending)
        if not live:
            return
        block = (
            live[0].queries
            if len(live) == 1
            else np.concatenate([p.queries for p in live], axis=0)
        )
        # Thread the tightest *group-wide* bound to the coordinator: the
        # batch may outlive individual members (each handler 504s its own
        # request on time), but must not outlive the slackest deadline.
        deadlines = [p.deadline for p in live if p.deadline is not None]
        call = partial(self.server.query_batch, block, k)
        if len(deadlines) == len(live):
            budget = max(0.001, max(deadlines) - now)
            call = partial(self.server.query_batch, block, k, timeout=budget)
        started = loop.time()
        self._dispatched += len(live)
        try:
            results = await loop.run_in_executor(None, call)
        except BaseException as exc:
            self.metrics.batch_latency.observe(loop.time() - started)
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        finally:
            self._dispatched -= len(live)
        self.metrics.batch_latency.observe(loop.time() - started)
        offset = 0
        for pending in live:
            rows = pending.queries.shape[0]
            if not pending.future.done():
                pending.future.set_result(results[offset : offset + rows])
            offset += rows

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    def _admit_connection(self, writer) -> None:
        """Register a new connection, evicting the LRA one over the cap."""
        assert self._loop is not None
        if len(self._connections) >= _MAX_CONNECTIONS:
            victim = min(self._connections, key=self._connections.get)
            self._connections.pop(victim, None)
            self.metrics.reaped_overflow.add()
            victim.close()  # its handler sees EOF and unwinds
        self._connections[writer] = self._loop.time()

    @staticmethod
    def _peer_host(writer) -> str:
        peer = writer.get_extra_info("peername")
        return peer[0] if isinstance(peer, tuple) and peer else ""

    async def _handle_connection(self, reader, writer) -> None:
        assert self._loop is not None
        self._admit_connection(writer)
        peer = self._peer_host(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), _IDLE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    # Idle keep-alive (or a client trickling a request):
                    # reap the connection, it can reconnect when alive.
                    self.metrics.reaped_idle.add()
                    return
                except _BadRequest as bad:
                    started = self._loop.time()
                    await self._respond(
                        writer, bad.status, {"error": bad.message}, close=True
                    )
                    self.metrics.observe_request(
                        "malformed", bad.status, self._loop.time() - started
                    )
                    return
                if request is None:
                    return  # clean EOF between requests
                self._connections[writer] = self._loop.time()
                method, path, headers, body = request
                started = self._loop.time()
                self._inflight += 1
                try:
                    endpoint, status, payload, extra = await self._route(
                        method, path, headers, body, peer
                    )
                finally:
                    self._inflight -= 1
                # During drain every response says close: the listener is
                # gone, so a kept-alive connection would only idle out.
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self._draining
                )
                await self._respond(
                    writer, status, payload, close=not keep_alive, extra=extra
                )
                self.metrics.observe_request(
                    endpoint, status, self._loop.time() - started
                )
                if self._on_request is not None and endpoint in _REPORTED:
                    try:
                        self._on_request(endpoint, status)
                    except Exception:
                        pass  # the hook must never kill a connection
                self._connections[writer] = self._loop.time()
                if not keep_alive:
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Loop shutdown cancels handlers parked on keep-alive reads.
            # A task that ends *cancelled* trips CPython 3.11's
            # StreamReaderProtocol done-callback (`task.exception()`
            # raises, gh-109538) and logs a spurious traceback — end
            # clean instead; the finally still closes the socket.
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # CancelledError: shutdown cancelled us while flushing
                # the close — same gh-109538 noise as above.
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on EOF before a request."""
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise _BadRequest(400, f"request line too long: {exc}") from exc
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError as exc:
            raise _BadRequest(400, "malformed request line") from exc
        if not version.startswith("HTTP/1."):
            raise _BadRequest(400, f"unsupported protocol {version!r}")
        headers: Dict[str, str] = {}
        total = len(line)
        for _ in range(_MAX_HEADERS):
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _BadRequest(431, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(431, "too many headers")
        body = b""
        transfer_encoding = headers.get("transfer-encoding", "").lower()
        if transfer_encoding:
            encodings = [
                token.strip()
                for token in transfer_encoding.split(",")
                if token.strip()
            ]
            if encodings != ["chunked"]:
                raise _BadRequest(
                    501,
                    f"unsupported Transfer-Encoding "
                    f"{headers['transfer-encoding']!r} (only chunked)",
                )
            # Transfer-Encoding wins over any Content-Length (RFC 9112
            # §6.3); the chunked reader enforces the same 413 body cap.
            body = await self._read_chunked(reader)
        elif method == "POST":
            if "content-length" not in headers:
                raise _BadRequest(411, "POST requires Content-Length")
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise _BadRequest(400, "bad Content-Length") from exc
            if length < 0:
                raise _BadRequest(400, "bad Content-Length")
            if length > _MAX_BODY_BYTES:
                raise _BadRequest(
                    413,
                    f"body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit",
                )
            body = await reader.readexactly(length)
        path = target.split("?", 1)[0]
        return method, path, headers, body

    async def _read_chunked(self, reader) -> bytes:
        """Decode a chunked request body, enforcing the 413 size cap.

        Chunk extensions are ignored; trailers are consumed and
        discarded.  The running total is checked against
        ``_MAX_BODY_BYTES`` *before* each chunk is read, so an
        oversized upload is refused without buffering it.
        """
        chunks: List[bytes] = []
        total = 0
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                raise _BadRequest(400, f"chunk size line too long: {exc}") from exc
            if not line:
                raise _BadRequest(400, "connection closed before a chunk size")
            size_token = line.split(b";", 1)[0].strip()
            try:
                size = int(size_token, 16)
            except ValueError as exc:
                raise _BadRequest(
                    400, f"bad chunk size {size_token!r}"
                ) from exc
            if size < 0:
                raise _BadRequest(400, f"negative chunk size {size_token!r}")
            total += size
            if total > _MAX_BODY_BYTES:
                raise _BadRequest(
                    413,
                    f"chunked body exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit",
                )
            if size == 0:
                # Trailer section: discard header lines up to the blank.
                for _ in range(_MAX_HEADERS):
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                else:
                    raise _BadRequest(431, "too many trailers")
                return b"".join(chunks)
            chunks.append(await reader.readexactly(size))
            terminator = await reader.readexactly(2)
            if terminator != b"\r\n":
                raise _BadRequest(400, "chunk data not terminated by CRLF")

    async def _respond(
        self,
        writer,
        status: int,
        payload: dict,
        *,
        close: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # answer computed; the client just did not wait for it

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes,
        peer: str,
    ) -> Tuple[str, int, dict, Optional[Dict[str, str]]]:
        """Dispatch one parsed request; returns (endpoint, status, payload, extra)."""
        if path == "/healthz":
            if method != "GET":
                return "healthz", 405, {"error": "healthz is GET-only"}, None
            return self._handle_healthz()
        if path == "/status":
            if method != "GET":
                return "status", 405, {"error": "status is GET-only"}, None
            return "status", 200, self._gateway_status(), None
        if path == "/metrics":
            if method != "GET":
                return "metrics", 405, {"error": "metrics is GET-only"}, None
            return "metrics", 200, self.metrics.snapshot(), None
        if path == "/query":
            if method != "POST":
                return "query", 405, {"error": "query is POST-only"}, None
            return await self._handle_query(headers, body)
        if path in ("/insert", "/delete", "/compact"):
            endpoint = path[1:]
            if method != "POST":
                return endpoint, 405, {"error": f"{endpoint} is POST-only"}, None
            return await self._handle_mutation(endpoint, body)
        if path == "/reload":
            if method != "POST":
                return "reload", 405, {"error": "reload is POST-only"}, None
            return await self._handle_reload()
        if path == "/shutdown" and self._on_request is not None:
            if method != "POST":
                return "shutdown", 405, {"error": "shutdown is POST-only"}, None
            if not _is_loopback(peer):
                return "shutdown", 403, {"error": "shutdown is loopback-only"}, None
            # The hook stops the serve once this answer is written.
            return "shutdown", 200, {"shutting_down": True}, None
        return "unknown", 404, {"error": f"no such endpoint {path!r}"}, None

    async def _handle_reload(self) -> Tuple[str, int, dict, None]:
        """Re-read the snapshot file being served (no client-chosen path)."""
        assert self._loop is not None
        try:
            info = await self._loop.run_in_executor(None, self.server.reload)
        except (SnapshotError, ServerError) as exc:
            # Refused while serving: the old generation keeps answering.
            status = 409 if self._serving() else 503
            return "reload", status, {"error": str(exc)}, None
        return "reload", 200, info, None

    def _serving(self) -> bool:
        try:
            return bool(self.server.status().get("serving"))
        except Exception:  # a dying server is not serving
            return False

    def _handle_healthz(self) -> Tuple[str, int, dict, None]:
        try:
            status = self.server.status()
        except Exception as exc:  # a dying server must still answer health
            return "healthz", 503, {"ok": False, "error": str(exc)}, None
        serving = bool(status.get("serving"))
        payload = {
            "ok": serving,
            "generation": status.get("generation"),
            "broken": status.get("broken"),
        }
        return "healthz", 200 if serving else 503, payload, None

    def _gateway_status(self) -> dict:
        status = self.server.status()
        status["gateway"] = {
            "address": self.address,
            "batch_window_seconds": self.batch_window,
            "max_batch": self.max_batch,
            "queue_limit": self.queue_limit,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "mutable": self._mutable,
            "idle_timeout_seconds": _IDLE_TIMEOUT,
            "max_connections": _MAX_CONNECTIONS,
            "open_connections": len(self._connections),
            "draining": self._draining,
        }
        return status

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _BadRequest(400, "body must be a JSON object")
        return payload

    def _request_budget(self, headers: Dict[str, str]) -> Optional[float]:
        """Seconds of deadline budget for this request, or ``None``."""
        raw = headers.get("x-timeout-ms")
        if raw is None:
            return None
        try:
            millis = float(raw)
        except ValueError as exc:
            raise _BadRequest(
                400, f"X-Timeout-Ms must be a number of milliseconds, got {raw!r}"
            ) from exc
        if not math.isfinite(millis) or millis <= 0:
            raise _BadRequest(
                400, f"X-Timeout-Ms must be positive and finite, got {raw!r}"
            )
        return millis / 1000.0

    def _retry_after_hint(self) -> int:
        """Seconds until the current backlog plausibly clears.

        Observed p50 seconds per dispatched batch × batches in front of
        a retrier — an estimate of actual drain time, clamped to
        [1, 60].  The backlog counts both the admission queue *and* the
        dispatched-but-unanswered requests (``queue.qsize()`` alone
        under-estimates under sustained load: a full batch can be in
        flight and invisible to the queue).  Before any batch has been
        observed (cold gateway) fall back to ten batch windows.
        """
        assert self._queue is not None
        latency = self.metrics.batch_latency
        if latency.count == 0:
            return max(1, round(self.batch_window * 10))
        waiting = self._queue.qsize() + self._dispatched
        backlog = max(1, math.ceil(waiting / self.max_batch))
        return max(1, min(60, math.ceil(latency.quantile(0.5) * backlog)))

    async def _handle_query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[str, int, dict, Optional[Dict[str, str]]]:
        try:
            budget = self._request_budget(headers)
            payload = self._parse_json(body)
            queries, k = self._parse_query_payload(payload)
        except _BadRequest as bad:
            return "query", bad.status, {"error": bad.message}, None
        assert self._queue is not None and self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        deadline = self._loop.time() + budget if budget is not None else None
        try:
            self._queue.put_nowait(_Pending(queries, k, future, deadline))
        except asyncio.QueueFull:
            # Admission control: shed now rather than queue into a tail
            # latency no client would survive.  Retry-After estimates
            # when the backlog will actually have drained.
            return (
                "query",
                429,
                {
                    "error": (
                        f"admission queue full ({self.queue_limit} pending); "
                        f"retry shortly"
                    )
                },
                {"Retry-After": str(self._retry_after_hint())},
            )
        try:
            if deadline is None:
                results = await future
            else:
                # The gateway enforces the deadline itself: the 504 lands
                # on time even if the server side is stuck (the watchdog
                # deals with the stuck worker underneath).
                results = await asyncio.wait_for(
                    future, max(deadline - self._loop.time(), 0.0)
                )
        except (asyncio.TimeoutError, DeadlineExceeded) as exc:
            self.metrics.deadline_hits.add()
            detail = (
                str(exc) if isinstance(exc, DeadlineExceeded)
                else f"request exceeded its {budget * 1000.0:.0f}ms deadline"
            )
            return "query", 504, {"error": detail}, None
        except ServerError as exc:
            return "query", 503, {"error": str(exc)}, None
        except ValueError as exc:
            return "query", 400, {"error": str(exc)}, None
        except Exception as exc:  # noqa: BLE001 - surface, never hang a client
            return "query", 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        return (
            "query",
            200,
            {
                "results": [
                    {"ids": r.ids, "distances": r.distances} for r in results
                ]
            },
            None,
        )

    def _parse_query_payload(self, payload: dict) -> Tuple[np.ndarray, int]:
        if ("query" in payload) == ("queries" in payload):
            raise _BadRequest(
                400, 'provide exactly one of "query" (one row) or "queries"'
            )
        raw = payload.get("query") if "query" in payload else payload.get("queries")
        k = payload.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise _BadRequest(400, f'"k" must be a positive integer, got {k!r}')
        try:
            block = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(400, f"queries are not numeric: {exc}") from exc
        if "query" in payload:
            if block.ndim != 1:
                raise _BadRequest(400, '"query" must be a flat list of numbers')
            block = block[None, :]
        try:
            block = check_queries(block, self.server.dim)
        except ValueError as exc:
            raise _BadRequest(400, str(exc)) from exc
        if block.shape[0] == 0:
            raise _BadRequest(400, '"queries" must contain at least one row')
        return block, k

    async def _handle_mutation(
        self, endpoint: str, body: bytes
    ) -> Tuple[str, int, dict, None]:
        if not self._mutable:
            return (
                endpoint,
                403,
                {
                    "error": (
                        f"server is read-only: {endpoint} refused "
                        f"(restart serve with --mutable)"
                    )
                },
                None,
            )
        try:
            payload = self._parse_json(body) if body else {}
        except _BadRequest as bad:
            return endpoint, bad.status, {"error": bad.message}, None
        assert self._loop is not None
        try:
            if endpoint == "insert":
                if "point" not in payload:
                    return endpoint, 400, {"error": 'insert requires "point"'}, None
                point = np.asarray(payload["point"], dtype=np.float64)
                started = self._loop.time()
                value = await self._loop.run_in_executor(
                    None, partial(self.server.insert, point)
                )
                # Group-commit ack latency: the time a client waited for
                # its mutation's group fsync, surfaced on /metrics.
                self.metrics.mutation_ack_latency.observe(
                    self._loop.time() - started
                )
                return endpoint, 200, {"id": int(value)}, None
            if endpoint == "delete":
                if "id" not in payload or isinstance(payload["id"], bool) or not isinstance(
                    payload["id"], int
                ):
                    return endpoint, 400, {"error": 'delete requires an integer "id"'}, None
                started = self._loop.time()
                value = await self._loop.run_in_executor(
                    None, partial(self.server.delete, payload["id"])
                )
                self.metrics.mutation_ack_latency.observe(
                    self._loop.time() - started
                )
                return endpoint, 200, {"deleted": bool(value)}, None
            value = await self._loop.run_in_executor(None, self.server.compact)
            return endpoint, 200, value, None
        except (TypeError, ValueError) as exc:
            return endpoint, 400, {"error": str(exc)}, None
        except ServerError as exc:
            return endpoint, 503, {"error": str(exc)}, None
        except Exception as exc:  # noqa: BLE001 - durability errors (WAL/OS)
            return endpoint, 500, {"error": f"{type(exc).__name__}: {exc}"}, None


def _is_loopback(host: str) -> bool:
    """Whether a peer address is loopback (IPv4-mapped IPv6 included)."""
    try:
        addr = ipaddress.ip_address(host.split("%", 1)[0])
    except ValueError:
        return False
    return (getattr(addr, "ipv4_mapped", None) or addr).is_loopback
