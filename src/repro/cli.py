"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the practitioner loop without writing code:

* ``info``     — dataset hardness diagnostics + derived DB-LSH parameters;
* ``bench``    — a miniature Table IV on a registry stand-in or fvecs file
  (``--shards S`` adds the sharded engine to the comparison);
* ``tune``     — sweep the budget knob ``t`` for a target recall;
* ``save``     — build an index (``--shards`` for a sharded one) and
  persist it as a versioned snapshot;
* ``load``     — restore a snapshot with zero rebuild and smoke-test it
  against its own stored data;
* ``serve``    — serve a snapshot from one worker process per shard and
  listen for query connections on a socket;
* ``query``    — connect to a running ``serve`` and answer a query set
  over the wire.

Data sources: a registry stand-in name (``--dataset audio``) or an
``.fvecs`` file (``--fvecs path``).

The ``serve``/``query`` pair speaks :mod:`multiprocessing.connection`
framing (:mod:`repro.serve.protocol`) over a unix socket (``--listen
/tmp/repro.sock``) or TCP (``--listen 127.0.0.1:7007``) — the
fit → save → serve → query loop of the README's serving quickstart.
``serve`` accepts any number of concurrent clients (one thread per
connection, FIFO-fair onto the shared worker pool), supervises its
workers (a killed worker is restarted and the request retried once),
answers ``status`` and ``reload`` protocol verbs, and with ``--watch``
hot-reloads a new snapshot generation when the file changes — in-flight
queries finish on the generation they started on.  With ``--mutable``
it also answers ``insert``/``delete``/``compact``: mutations are acked
only after the write-ahead-log fsync, recovered on restart, and folded
into fresh snapshot generations in the background; without the flag the
same verbs are refused with a clear read-only error.  The client side
retries its connection with exponential backoff (``--connect-timeout``),
so scripts may start ``serve`` and ``query`` back to back.

``serve --http HOST:PORT`` additionally opens the HTTP/JSON front door
(:mod:`repro.serve.http`): ``POST /query`` with micro-batching and 429
admission shedding, ``POST /insert``/``/delete`` when ``--mutable``,
``GET /healthz``/``/status``/``/metrics`` — composing with ``--watch``
and ``--mutable``, since the gateway fronts the same server object the
socket loop serves.  HTTP requests that reach the engine count toward
``--max-requests`` exactly like raw-socket verbs.

Resilience knobs: ``--query-timeout`` bounds any single worker answer
and arms the hang watchdog (``--hang-policy retry|fail`` decides
whether a killed hung worker's request is re-dispatched or failed with
a typed deadline error); ``query --timeout-ms`` sends a per-request
budget the server enforces end to end; ``--idle-timeout`` /
``--max-connections`` reap silent or excess raw-socket connections,
and ``--http-default-timeout`` / ``--http-idle-timeout`` /
``--http-max-connections`` do the same for the HTTP front door (HTTP
clients can also set a per-request ``X-Timeout-Ms`` header, answered
with 504 on overrun).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from typing import Optional

import numpy as np

from repro import DBLSH, ShardedDBLSH, derive_parameters
from repro.baselines import FBLSH, LinearScan, PMLSH, QALSH
from repro.data.analysis import hardness_report
from repro.data.datasets import DATASET_REGISTRY, make_dataset
from repro.data.loaders import read_fvecs
from repro.eval.report import format_table
from repro.eval.runner import evaluate_method, run_comparison
from repro.eval.tuning import tune_budget
from repro.io import load_index, read_header, save_index


def _load_points(args: argparse.Namespace) -> tuple:
    """Resolve (data, queries, label) from --dataset or --fvecs."""
    if args.fvecs:
        points = read_fvecs(args.fvecs, limit=args.limit)
        rng = np.random.default_rng(args.seed)
        query_ids = rng.choice(points.shape[0], size=args.queries, replace=False)
        mask = np.zeros(points.shape[0], dtype=bool)
        mask[query_ids] = True
        return points[~mask], points[mask], args.fvecs
    dataset = make_dataset(args.dataset, n_queries=args.queries, seed=args.seed,
                           scale=args.scale)
    return dataset.data, dataset.queries, dataset.name


def _cmd_info(args: argparse.Namespace) -> int:
    data, _, label = _load_points(args)
    report = hardness_report(data, sample=min(100, data.shape[0]))
    params = derive_parameters(data.shape[0], c=args.c)
    rows = [
        {"quantity": "points", "value": data.shape[0]},
        {"quantity": "dimensions", "value": data.shape[1]},
        {"quantity": "relative contrast", "value": round(report.relative_contrast, 3)},
        {"quantity": "local intrinsic dim", "value": round(report.lid, 2)},
        {"quantity": "mean NN distance", "value": round(report.mean_nn_distance, 4)},
        {"quantity": "derived K (Lemma 1)", "value": params.k_per_space},
        {"quantity": "derived L (Lemma 1)", "value": params.l_spaces},
        {"quantity": "rho*", "value": round(params.rho_star, 6)},
    ]
    print(format_table(rows, title=f"Dataset info: {label}"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    data, queries, label = _load_points(args)
    methods = [
        DBLSH(c=args.c, l_spaces=5, k_per_space=10, t=args.t, seed=args.seed,
              auto_initial_radius=True),
        FBLSH(c=args.c, k_per_space=5, l_spaces=10, t=args.t, seed=args.seed,
              auto_initial_radius=True),
        QALSH(c=args.c, m=40, w=2.719, beta=0.05, seed=args.seed,
              auto_initial_radius=True),
        PMLSH(m=15, beta=0.08, seed=args.seed),
        LinearScan(),
    ]
    if args.shards > 1:
        methods.insert(1, ShardedDBLSH(
            shards=args.shards, c=args.c, l_spaces=5, k_per_space=10, t=args.t,
            seed=args.seed, auto_initial_radius=True, budget=args.budget,
            build_mode=None if args.build_mode == "auto" else args.build_mode,
        ))
    results = run_comparison(methods, data, queries, k=args.k, dataset_name=label)
    print(format_table([r.row() for r in results],
                       title=f"Benchmark: {label} (k={args.k})"))
    return 0


def _cmd_save(args: argparse.Namespace) -> int:
    data, _, label = _load_points(args)
    common = dict(c=args.c, l_spaces=5, k_per_space=10, t=args.t, seed=args.seed,
                  auto_initial_radius=True)
    if args.shards > 1:
        mode = None if args.build_mode == "auto" else args.build_mode
        index = ShardedDBLSH(shards=args.shards, budget=args.budget,
                             build_mode=mode, **common)
    else:
        index = DBLSH(**common)
    index.fit(data)
    # save_index appends .npz when missing; report the path it actually wrote.
    out = args.out if args.out.endswith(".npz") else args.out + ".npz"
    started = time.perf_counter()
    save_index(index, out, format=args.snapshot_format)
    save_seconds = time.perf_counter() - started
    size_mb = os.path.getsize(out) / 1e6
    print(index.describe())
    print(f"built on {label} in {index.build_seconds:.3f}s; "
          f"saved to {out} ({size_mb:.1f} MB) in {save_seconds:.3f}s")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    header = read_header(args.index)
    started = time.perf_counter()
    index = load_index(args.index)
    load_seconds = time.perf_counter() - started
    container = "arena" if header["version"] >= 3 else "npz"
    mapped = bool(getattr(index, "is_mapped", False))
    print(index.describe())
    print(f"snapshot kind={header['kind']} version={header['version']} "
          f"container={container}; loaded in {load_seconds:.3f}s "
          f"({'zero-copy mapped views' if mapped else 'private copy'}, "
          f"zero rebuild)")
    if args.queries < 1:
        return 0
    # Smoke-test the loaded index against its own stored points: perturbed
    # stored rows must come back with recall ~1 at this k.
    data = index.data
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(data.shape[0], size=min(args.queries, data.shape[0]),
                       replace=False)
    queries = data[picks] + 0.01 * rng.standard_normal((picks.shape[0], data.shape[1]))
    result = evaluate_method(index, data, queries, k=args.k,
                             dataset_name=os.path.basename(args.index), fit=False)
    print(format_table([result.row()], title="Loaded-index smoke check"))
    return 0 if result.recall > 0.5 else 1


def _parse_address(addr: str):
    """``host:port`` -> TCP tuple; anything else -> unix socket path."""
    host, _, port = addr.rpartition(":")
    if host and port.isdigit():
        return (host, int(port))
    return addr


def _parse_http_address(addr: str) -> tuple:
    """``HOST:PORT``/``:PORT``/``PORT`` -> (host, port) for --http.

    HTTP has no unix-socket mode here, so a bare port is accepted and a
    missing host defaults to loopback (the gateway carries no auth; a
    non-loopback bind is the operator's deliberate choice).
    """
    host, _, port = addr.rpartition(":")
    if not port.isdigit():
        raise SystemExit(
            f"--http expects HOST:PORT, :PORT or PORT, got {addr!r}"
        )
    return (host or "127.0.0.1", int(port))


def _clear_stale_socket(address) -> Optional[str]:
    """Unlink a dead unix-socket file left by an unclean server exit.

    ``Listener`` only removes its socket path in ``close()``, so a
    killed server leaves the file behind and a restart would fail with
    EADDRINUSE.  A quick connect probe distinguishes a stale leftover
    (refused -> safe to unlink) from a live server (connected -> refuse
    to start).  Returns an error message instead of cleaning up when
    the path is busy or not a socket.
    """
    import socket
    import stat

    if not isinstance(address, str) or not os.path.exists(address):
        return None
    try:
        mode = os.stat(address).st_mode
    except FileNotFoundError:
        return None  # vanished since exists(): no stale socket after all
    if not stat.S_ISSOCK(mode):
        return (f"--listen path {address!r} exists and is not a socket; "
                f"refusing to overwrite it")
    if not hasattr(socket, "AF_UNIX"):
        return f"--listen path {address!r} already exists"
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(address)
    except OSError:
        try:
            os.unlink(address)  # nobody listening: stale leftover
        except FileNotFoundError:
            pass  # a concurrently restarting server beat us to it
        return None
    else:
        return f"another server is already listening on {address!r}"
    finally:
        probe.close()


class _ServeState:
    """Thread-safe loop state of one ``repro serve`` run.

    The accept loop hands every client connection to its own thread, so
    the request counter, the failure slot, and the stop signal are all
    guarded here.  ``request_stop`` also closes the listener: that is
    what unblocks the accept loop promptly instead of leaving it parked
    in ``accept()`` until one more client happens to connect.
    """

    def __init__(self, max_requests: Optional[int]) -> None:
        self.max_requests = max_requests
        self.handled = 0
        self.failure: Optional[str] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._listener = None
        self._address = None
        self._listener_closed = False
        # --max-requests 0 means "bind, then stop": start already done.
        if max_requests is not None and max_requests <= 0:
            self._stop.set()

    @property
    def stop(self) -> bool:
        return self._stop.is_set()

    def wait(self, timeout: float) -> bool:
        """Sleep until stop is requested or ``timeout`` elapses."""
        return self._stop.wait(timeout)

    def attach_listener(self, listener, address) -> None:
        with self._lock:
            self._listener = listener
            self._address = address

    def request_stop(self) -> None:
        self._stop.set()
        with self._lock:
            listener, self._listener = self._listener, None
            address = getattr(self, "_address", None)
            already = self._listener_closed
            self._listener_closed = True
        if listener is not None and not already:
            # Closing a listening socket does NOT wake a thread already
            # blocked in accept() on Linux; poke it with a throwaway
            # connection first so the accept loop observes the stop.
            self._poke(address)
            try:
                listener.close()
            except OSError:
                pass

    @staticmethod
    def _poke(address) -> None:
        import socket

        try:
            if isinstance(address, tuple):
                poke = socket.create_connection(address, timeout=1.0)
            elif isinstance(address, str) and hasattr(socket, "AF_UNIX"):
                poke = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                poke.settimeout(1.0)
                poke.connect(address)
            else:
                return
            poke.close()
        except OSError:
            pass  # nobody listening anymore: nothing to wake

    def count_request(self) -> None:
        with self._lock:
            self.handled += 1
            reached = (self.max_requests is not None
                       and self.handled >= self.max_requests)
        if reached:
            self.request_stop()

    def fail(self, message: str) -> None:
        with self._lock:
            if self.failure is None:
                self.failure = message
        self.request_stop()


class _ConnectionTable:
    """Raw-socket connection lifecycle: a hard cap and idle reaping.

    Every accepted connection is registered here; each received request
    refreshes its last-active stamp.  When ``max_connections`` is set
    and the table is full, admitting one more evicts the
    least-recently-active connection (the client that went quiet first
    loses its slot, not the newcomer).  A reaper thread periodically
    closes connections idle past ``idle_timeout``.  Closing happens
    from *this* side while the owning client thread is parked in
    ``conn.poll``; the poll observes the closed handle as an ``OSError``
    and the thread exits its loop cleanly — the double ``close()`` from
    the thread's ``with conn:`` is a no-op on an already-closed
    :class:`multiprocessing.connection.Connection`.
    """

    def __init__(self, max_connections: Optional[int] = None,
                 idle_timeout: Optional[float] = None) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be > 0 seconds, got {idle_timeout}")
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.reaped_idle = 0
        self.reaped_overflow = 0
        self._lock = threading.Lock()
        self._entries: dict = {}  # key -> [conn, last_active]
        self._next_key = 0

    def admit(self, conn):
        """Register ``conn``; evict the least-recently-active one at cap."""
        victim = None
        with self._lock:
            if (self.max_connections is not None
                    and len(self._entries) >= self.max_connections):
                oldest = min(self._entries,
                             key=lambda k: self._entries[k][1])
                victim = self._entries.pop(oldest)[0]
                self.reaped_overflow += 1
            key = self._next_key
            self._next_key += 1
            self._entries[key] = [conn, time.monotonic()]
        if victim is not None:
            self._close(victim)
        return key

    def touch(self, key) -> None:
        """Refresh a connection's last-active stamp (one per request)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry[1] = time.monotonic()

    def drop(self, key) -> None:
        """Forget a connection that closed on its own (no reap counted)."""
        with self._lock:
            self._entries.pop(key, None)

    def reap_idle(self) -> None:
        """Close every connection idle past ``idle_timeout``."""
        if self.idle_timeout is None:
            return
        cutoff = time.monotonic() - self.idle_timeout
        victims = []
        with self._lock:
            for key in [k for k, (_, last) in self._entries.items()
                        if last < cutoff]:
                victims.append(self._entries.pop(key)[0])
                self.reaped_idle += 1
        for conn in victims:
            self._close(conn)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _close(conn) -> None:
        try:
            conn.close()
        except OSError:
            pass


def _connection_reaper(table: _ConnectionTable, state: _ServeState) -> None:
    """Periodically reap idle raw-socket connections until the serve stops."""
    interval = max(min(table.idle_timeout / 4.0, 1.0), 0.05)
    while not state.wait(interval):
        table.reap_idle()


def _serve_one_client(conn, server, state: _ServeState,
                      table: Optional[_ConnectionTable] = None,
                      key=None) -> None:
    """Answer one client connection until it disconnects or asks to stop.

    One of these runs per client thread; ``server`` dispatches the
    threads onto the worker pool in FIFO order, so clients cannot starve
    each other.  Client-side misbehavior (vanishing mid-request,
    resetting the connection) only ends *this* connection; a
    ``ServerError`` from the worker pool — which supervision could not
    recover — marks the run failed and stops the serve loop.  A
    ``DeadlineExceeded`` is *not* such a failure: the request simply ran
    out of its client-supplied ``timeout_ms`` budget, so it is answered
    with a typed error and the connection keeps serving.
    """
    from repro.io import SnapshotError, WALError
    from repro.serve import DeadlineExceeded, ReadOnlyError, ServerError
    from repro.serve.protocol import encode_result

    while not state.stop:
        try:
            # Bounded recv: wake periodically to observe a stop requested
            # by another client's shutdown even if this connection's fd
            # never EOFs (a worker forked while it was open would hold a
            # copy; the spawn context avoids that, this bounds the rest).
            if not conn.poll(0.2):
                continue
            message = conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            return  # client went away (or the reaper closed this slot)
        if table is not None:
            table.touch(key)
        try:
            kind = message[0] if isinstance(message, tuple) and message else None
            if kind == "query_batch":
                queries = np.asarray(message[1], dtype=np.float64)
                timeout_ms = message[3] if len(message) > 3 else None
                try:
                    if timeout_ms is not None:
                        results = server.query_batch(
                            queries, k=int(message[2]),
                            timeout=float(timeout_ms) / 1000.0,
                        )
                    else:
                        results = server.query_batch(queries, k=int(message[2]))
                except DeadlineExceeded as exc:
                    # Typed, expected, recoverable: the request spent its
                    # budget.  Answer it and keep both the connection and
                    # the serve loop alive (it still counts as handled —
                    # the request reached the engine).
                    conn.send(("error", f"deadline exceeded: {exc}"))
                    state.count_request()
                    if state.stop:
                        return
                    continue
                except ValueError as exc:
                    conn.send(("error", str(exc)))
                    continue
                except ServerError as exc:
                    conn.send(("error", str(exc)))
                    state.fail(str(exc))
                    return
                conn.send(("ok", [encode_result(r) for r in results]))
                state.count_request()
                if state.stop:
                    return
            elif kind in ("insert", "delete", "compact"):
                # Mutation verbs: acked only after the WAL fsync inside
                # the server method returns; a read-only serve refuses
                # with a clear error instead of pretending.
                if not hasattr(server, "insert"):
                    conn.send(("error",
                               f"server is read-only: {kind} refused "
                               f"(restart serve with --mutable)"))
                    continue
                try:
                    if kind == "insert":
                        value = server.insert(
                            np.asarray(message[1], dtype=np.float64)
                        )
                    elif kind == "delete":
                        value = server.delete(int(message[1]))
                    else:
                        value = server.compact()
                except (ValueError, ReadOnlyError) as exc:
                    conn.send(("error", str(exc)))
                    continue
                except (WALError, OSError, ServerError) as exc:
                    # A mutation that could not be made durable poisons
                    # nothing that was already acked, but this serve can
                    # no longer honor its durability contract: fail loud.
                    conn.send(("error", str(exc)))
                    state.fail(str(exc))
                    return
                conn.send(("ok", value))
                state.count_request()
                if state.stop:
                    return
            elif kind == "status":
                conn.send(("ok", server.status()))
            elif kind == "reload":
                path = message[1] if len(message) > 1 and message[1] else None
                try:
                    conn.send(("ok", server.reload(path)))
                except (SnapshotError, ServerError) as exc:
                    # A refused reload (junk file, version skew, wrong
                    # dimensionality) leaves the old generation serving;
                    # report it to this client and keep the loop alive.
                    conn.send(("error", str(exc)))
            elif kind == "describe":
                conn.send(("ok", server.describe()))
            elif kind == "shutdown":
                conn.send(("ok", "shutting down"))
                state.request_stop()
                return
            else:
                conn.send(("error", f"unknown request kind {kind!r}"))
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client vanished mid-reply; the work is already done
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            # Malformed payload (ragged query list, missing fields, a
            # non-tuple message): reject the request, keep the server.
            try:
                conn.send(("error", f"malformed request: {exc}"))
            except (BrokenPipeError, ConnectionResetError, OSError):
                return


def _client_thread(conn, server, state: _ServeState,
                   table: Optional[_ConnectionTable] = None, key=None) -> None:
    """Own one accepted connection for its lifetime (runs in a thread)."""
    try:
        with conn:
            _serve_one_client(conn, server, state, table, key)
    finally:
        if table is not None:
            table.drop(key)


def _watch_snapshot(server, path: str, interval: float,
                    state: _ServeState) -> None:
    """Poll ``path``'s mtime and hot-reload the server when it changes.

    A failed reload (half-written file, junk, version skew) keeps the
    old generation serving and is reported on stderr; the watcher keeps
    polling, so the next complete write still gets picked up.
    """
    from repro.io import SnapshotError
    from repro.serve import ServerError

    def _mtime() -> Optional[int]:
        try:
            return os.stat(path).st_mtime_ns
        except OSError:
            return None  # mid-replace (writer unlinked first); retry

    last = _mtime()
    while not state.wait(interval):
        stamp = _mtime()
        if stamp is None or stamp == last:
            continue
        last = stamp
        try:
            info = server.reload(path)
            print(f"[watch] reloaded {path} -> generation "
                  f"{info['generation']} ({info['shards']} shard(s))",
                  flush=True)
        except (SnapshotError, ServerError) as exc:
            print(f"[watch] reload of {path} failed ({exc}); the previous "
                  f"generation keeps serving", file=sys.stderr, flush=True)


_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "localhost", "::1"})


def _cmd_serve(args: argparse.Namespace) -> int:
    import multiprocessing
    from multiprocessing.connection import Listener

    from repro.serve import MutableSnapshotServer, SnapshotServer
    from repro.serve.protocol import AUTHKEY, DEFAULT_AUTHKEY

    address = _parse_address(args.listen)
    if (isinstance(address, tuple)
            and address[0] not in _LOOPBACK_HOSTS
            and AUTHKEY == DEFAULT_AUTHKEY):
        # The wire protocol is authenticated pickle: the key is code
        # execution rights, and the default key is public.  Refuse to
        # pair it with a non-loopback bind.
        print(f"refusing to listen on {args.listen!r} with the default "
              f"authkey: anyone reaching the port could execute code in "
              f"this process. Set REPRO_SERVE_AUTHKEY (on server and "
              f"clients) or bind to 127.0.0.1/a unix socket.",
              file=sys.stderr)
        return 1
    problem = _clear_stale_socket(address)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 1
    state = _ServeState(args.max_requests)
    table = _ConnectionTable(max_connections=args.max_connections,
                             idle_timeout=args.idle_timeout)
    client_threads = []
    # Workers are spawned, not forked: the serve loop is multi-threaded
    # and holds client sockets, and a forked worker would inherit copies
    # of those fds — after which a client hanging up no longer EOFs its
    # server-side connection (some process still holds the fd open).
    # Supervision restarts and reloads spawn workers mid-serve, so this
    # matters beyond startup.  --mp-context overrides for experiments.
    if args.mutable:
        # A mutable serve recovers snapshot + WAL on startup, acks
        # insert/delete only after the WAL fsync, and folds the delta
        # into fresh snapshot generations in the background.
        server_factory = MutableSnapshotServer(
            args.index, query_timeout=args.query_timeout,
            hang_policy=args.hang_policy,
            mp_context=args.mp_context, wal_path=args.wal,
            compact_threshold=args.compact_threshold,
            compact_wal_bytes=args.compact_wal_bytes,
            compact_overhead=args.compact_overhead,
            group_commit_ms=args.wal_group_commit_ms,
            group_bytes=args.wal_group_bytes,
            segment_bytes=args.wal_segment_bytes,
        )
    else:
        server_factory = SnapshotServer(
            args.index, query_timeout=args.query_timeout,
            hang_policy=args.hang_policy,
            mp_context=args.mp_context,
        )
    gateway = None
    with server_factory as server:
        listener = Listener(address, authkey=AUTHKEY)
        state.attach_listener(listener, address)
        try:
            print(server.describe())
            mode = "mutable" if args.mutable else "read-only"
            print(f"listening on {args.listen} "
                  f"(workers: {len(server.worker_pids)}, {mode})", flush=True)
            if args.http:
                from repro.serve import GatewayError, HttpGateway

                host, port = _parse_http_address(args.http)
                try:
                    gateway = HttpGateway(
                        server, host, port,
                        batch_window=args.http_batch_window,
                        max_batch=args.http_max_batch,
                        queue_limit=args.http_queue_limit,
                        default_timeout=args.http_default_timeout,
                        idle_timeout=args.http_idle_timeout,
                        max_connections=args.http_max_connections,
                        # HTTP requests that reach the engine count
                        # toward --max-requests like raw-socket verbs.
                        on_request=lambda endpoint: state.count_request(),
                    ).start()
                except GatewayError as exc:
                    print(f"could not open the HTTP front door: {exc}",
                          file=sys.stderr)
                    return 1
                print(f"http on {gateway.address} "
                      f"(batch window {gateway.batch_window * 1e3:g} ms, "
                      f"max batch {gateway.max_batch}, "
                      f"queue limit {gateway.queue_limit})", flush=True)
            if args.watch:
                threading.Thread(
                    target=_watch_snapshot,
                    args=(server, args.index, args.watch_interval, state),
                    name="repro-serve-watch",
                    daemon=True,
                ).start()
            if table.idle_timeout is not None:
                threading.Thread(
                    target=_connection_reaper, args=(table, state),
                    name="repro-serve-reaper", daemon=True,
                ).start()
            while not state.stop:
                try:
                    conn = listener.accept()
                except multiprocessing.AuthenticationError:
                    print("rejected a connection with a bad authkey",
                          file=sys.stderr)
                    continue
                except (ConnectionResetError, EOFError):
                    # A probe/scanner connected and vanished mid-handshake
                    # (repro serve's own stale-socket check does exactly
                    # this); never let a client kill the server.
                    continue
                except OSError:
                    if state.stop:
                        break  # request_stop() closed the listener
                    continue
                # One thread per client: many connections multiplex onto
                # the shared worker pool (the server's FIFO dispatch keeps
                # it fair), and a slow client no longer blocks accept().
                # Admission may evict the least-recently-active
                # connection when --max-connections is reached.
                key = table.admit(conn)
                thread = threading.Thread(
                    target=_client_thread, args=(conn, server, state,
                                                 table, key),
                    name="repro-serve-client", daemon=True,
                )
                thread.start()
                # Prune finished connections so a long-lived serve does
                # not retain one Thread object per connection ever made.
                client_threads = [t for t in client_threads if t.is_alive()]
                client_threads.append(thread)
        finally:
            state.request_stop()  # closes the listener (idempotent)
            if gateway is not None:
                gateway.close()
            for thread in client_threads:
                thread.join(timeout=30.0)
    handled, failure = state.handled, state.failure
    if table.reaped_idle or table.reaped_overflow:
        print(f"reaped {table.reaped_idle} idle and {table.reaped_overflow} "
              f"over-cap connection(s)", flush=True)
    if failure is not None:
        # Exit nonzero so supervisors (systemd, CI) see the crash for
        # what it is rather than a clean, intentional shutdown.
        print(f"serving failed after {handled} request(s): {failure}",
              file=sys.stderr)
        return 1
    print(f"served {handled} request(s); shut down cleanly")
    return 0


#: Consecutive connection *resets* tolerated before the dial gives up.
#: A reset means somebody IS listening and actively dropped us — after
#: this many in a row it is a refusal (authkey gate, a proxy, a port
#: squatter), not a startup race, and retrying until the timeout just
#: delays the inevitable error by the full --connect-timeout.
_MAX_CONSECUTIVE_RESETS = 8


def _connect_with_retry(address, timeout: float, *, initial_delay: float = 0.05,
                        max_delay: float = 1.0, _sleep=time.sleep):
    """Dial the server until it listens (covers serve's start-up window).

    Scripts and tests race ``repro serve``'s startup all the time (shell
    ``&``, CI jobs), so a refused-connect or not-yet-bound address is
    retried with exponential backoff — ``initial_delay`` doubling up to
    ``max_delay`` — until ``timeout`` is spent, then the last error
    propagates.  The backoff keeps the early retries snappy (a server
    that is milliseconds away from binding is caught within
    ``initial_delay``) without hammering a socket that is seconds away
    with hundreds of connect attempts.

    Not every connect error means "keep trying": a
    ``ConnectionResetError`` can be a listener mid-bind/mid-handshake
    teardown (transient — retry), but a *streak* of them means a live
    server is deliberately dropping this client, which no amount of
    waiting fixes; after :data:`_MAX_CONSECUTIVE_RESETS` in a row the
    dial fails immediately with a message saying so instead of burning
    the whole timeout.  One refused/unbound attempt resets the streak —
    a server restarting underneath us is back to being a startup race.

    ``_sleep`` is injectable so the regression test can record the
    backoff schedule instead of actually waiting it out.
    """
    from multiprocessing.connection import Client

    from repro.serve.protocol import AUTHKEY

    deadline = time.monotonic() + timeout
    delay = initial_delay
    resets = 0
    while True:
        try:
            return Client(address, authkey=AUTHKEY)
        except (ConnectionRefusedError, FileNotFoundError) as exc:
            resets = 0
            error = exc
        except ConnectionResetError as exc:
            resets += 1
            if resets >= _MAX_CONSECUTIVE_RESETS:
                raise ConnectionResetError(
                    f"server at {address!r} reset the connection {resets} "
                    f"times in a row: something is listening but refusing "
                    f"this client (authkey mismatch? not a repro serve?); "
                    f"giving up early instead of retrying for the full "
                    f"timeout") from exc
            error = exc
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise error
        _sleep(min(delay, remaining))
        delay = min(delay * 2, max_delay)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.protocol import decode_result

    address = _parse_address(args.server)
    _, queries, label = _load_points(args)
    import multiprocessing

    try:
        client = _connect_with_retry(address, args.connect_timeout)
    except multiprocessing.AuthenticationError:
        print(f"authentication with {args.server} failed: the server was "
              f"started with a different authkey (set the same "
              f"REPRO_SERVE_AUTHKEY on both ends)", file=sys.stderr)
        return 1
    except (ConnectionRefusedError, FileNotFoundError, EOFError, OSError) as exc:
        print(f"could not connect to {args.server} within "
              f"{args.connect_timeout:.0f}s: {exc}", file=sys.stderr)
        return 1
    with client as conn:
        started = time.perf_counter()
        try:
            if args.timeout_ms is not None:
                # 4-tuple form: the server enforces this budget end to
                # end and answers ("error", "deadline exceeded: ...") on
                # overrun.  Older 3-tuple form kept for old servers.
                conn.send(("query_batch", queries, args.k, args.timeout_ms))
            else:
                conn.send(("query_batch", queries, args.k))
            if not conn.poll(args.reply_timeout):
                print(f"server did not reply within {args.reply_timeout:.0f}s",
                      file=sys.stderr)
                return 1
            reply = conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
            # The server stopped (crashed, --max-requests elsewhere, a
            # concurrent shutdown) between accept and reply.
            print("server closed the connection before replying",
                  file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        if args.shutdown:
            try:
                conn.send(("shutdown",))
                conn.recv()
            except (EOFError, OSError):
                pass  # server already closed this connection (it may
                # have stopped on its own, e.g. --max-requests reached)
    if reply[0] != "ok":
        print(f"server error: {reply[1]}", file=sys.stderr)
        return 1
    results = [decode_result(wire) for wire in reply[1]]
    rows = [
        {
            "query": i,
            "top1_id": r.ids[0] if r.ids else "-",
            "top1_dist": round(r.distances[0], 4) if r.ids else "-",
            "found": len(r.neighbors),
        }
        for i, r in enumerate(results[:10])
    ]
    print(format_table(rows, title=f"Served answers: {label} (k={args.k})"))
    m = len(results)
    print(f"{m} queries in {elapsed:.3f}s over the wire "
          f"({m / max(elapsed, 1e-9):.1f} qps incl. transport)")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    data, _, label = _load_points(args)
    outcome = tune_budget(
        data, target_recall=args.target_recall, k=args.k, c=args.c, seed=args.seed
    )
    rows = [
        {"t": t, "recall": r, "candidates": c} for t, r, c in outcome.trace
    ]
    print(format_table(rows, title=f"Budget sweep on {label}"))
    status = "reached" if outcome.reached_target else "NOT reached (best shown)"
    print(
        f"\ntarget recall {outcome.target_recall} {status}: "
        f"t = {outcome.best_t} -> recall {outcome.achieved_recall:.3f} "
        f"at {outcome.candidates_per_query:.0f} candidates/query"
    )
    return 0 if outcome.reached_target else 1


def _add_source_args(cmd: argparse.ArgumentParser) -> None:
    """Arguments resolving a (data, queries) workload (see _load_points)."""
    source = cmd.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset", default="audio",
        choices=sorted(DATASET_REGISTRY), help="registry stand-in name",
    )
    source.add_argument("--fvecs", help="path to an .fvecs file")
    cmd.add_argument("--limit", type=int, default=None,
                     help="max vectors to read from --fvecs")
    cmd.add_argument("--scale", type=float, default=0.5,
                     help="registry stand-in scale factor")
    cmd.add_argument("--queries", type=int, default=20)
    cmd.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DB-LSH reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, description in [
        ("info", _cmd_info, "dataset diagnostics + derived parameters"),
        ("bench", _cmd_bench, "miniature Table IV on one workload"),
        ("tune", _cmd_tune, "sweep the budget knob t for a target recall"),
        ("save", _cmd_save, "build an index and persist a snapshot"),
    ]:
        cmd = sub.add_parser(name, help=description)
        cmd.set_defaults(handler=handler)
        _add_source_args(cmd)
        cmd.add_argument("--k", type=int, default=10)
        cmd.add_argument("--c", type=float, default=1.5)
        cmd.add_argument("--t", type=int, default=16)
        if name == "tune":
            cmd.add_argument("--target-recall", type=float, default=0.9)
        if name in ("bench", "save"):
            cmd.add_argument("--shards", type=int, default=1,
                             help="partition the DB-LSH index across this "
                                  "many parallel shards (1 = unsharded)")
            cmd.add_argument("--budget", choices=["full", "split"],
                             default="full",
                             help="sharded budget mode: every shard gets the "
                                  "full 2tL+k budget, or t is split t/S per "
                                  "shard (faster, slightly lower recall)")
            cmd.add_argument("--build-mode", choices=["auto", "process", "thread"],
                             default="auto", dest="build_mode",
                             help="how sharded fits parallelise the per-shard "
                                  "builds (auto: processes on multi-CPU hosts)")
        if name == "save":
            cmd.add_argument("--out", default="index.npz",
                             help="snapshot output path (.npz)")
            cmd.add_argument("--snapshot-format", choices=["arena", "npz"],
                             default="arena", dest="snapshot_format",
                             help="container: arena (v3, zero-copy mmap "
                                  "loads) or npz (legacy v1)")

    load_cmd = sub.add_parser(
        "load", help="restore a snapshot (zero rebuild) and smoke-test it"
    )
    load_cmd.set_defaults(handler=_cmd_load)
    load_cmd.add_argument("--index", required=True, help="snapshot path (.npz)")
    load_cmd.add_argument("--queries", type=int, default=20,
                          help="self-check queries sampled from the stored "
                               "data (0 disables the check)")
    load_cmd.add_argument("--k", type=int, default=10)
    load_cmd.add_argument("--seed", type=int, default=0)

    serve_cmd = sub.add_parser(
        "serve",
        help="serve a snapshot from one worker process per shard",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)
    serve_cmd.add_argument("--index", required=True,
                           help="snapshot path (.npz) to serve")
    serve_cmd.add_argument("--listen", default="repro-serve.sock",
                           help="unix socket path, or host:port for TCP")
    serve_cmd.add_argument("--query-timeout", type=float, default=120.0,
                           dest="query_timeout",
                           help="seconds before a silent worker is declared "
                                "hung")
    serve_cmd.add_argument("--hang-policy", choices=["retry", "fail"],
                           default="retry", dest="hang_policy",
                           help="after the watchdog kills a hung worker: "
                                "retry re-dispatches the request on a fresh "
                                "worker, fail answers it with a typed "
                                "deadline error (the worker restarts either "
                                "way)")
    serve_cmd.add_argument("--idle-timeout", type=float, default=None,
                           dest="idle_timeout", metavar="SECONDS",
                           help="close raw-socket connections idle this long "
                                "(default: never reap)")
    serve_cmd.add_argument("--max-connections", type=int, default=None,
                           dest="max_connections",
                           help="cap concurrent raw-socket connections; at "
                                "the cap, admitting one more evicts the "
                                "least-recently-active (default: unlimited)")
    serve_cmd.add_argument("--max-requests", type=int, default=None,
                           dest="max_requests",
                           help="exit after this many query requests "
                                "(default: serve until a client sends "
                                "shutdown)")
    serve_cmd.add_argument("--watch", action="store_true",
                           help="poll the snapshot file and hot-reload a new "
                                "generation when it changes (in-flight "
                                "queries finish on the old one)")
    serve_cmd.add_argument("--watch-interval", type=float, default=1.0,
                           dest="watch_interval",
                           help="seconds between --watch mtime polls")
    serve_cmd.add_argument("--mutable", action="store_true",
                           help="accept insert/delete verbs, acked after the "
                                "write-ahead-log fsync; recovers snapshot+WAL "
                                "on startup (default: read-only, mutations "
                                "refused)")
    serve_cmd.add_argument("--wal", default=None,
                           help="write-ahead log path for --mutable "
                                "(default: <snapshot>.wal)")
    serve_cmd.add_argument("--compact-threshold", type=int, default=4096,
                           dest="compact_threshold",
                           help="fold the delta buffer into a fresh snapshot "
                                "generation once this many pending mutations "
                                "accumulate (0 disables auto-compaction "
                                "entirely, including the byte/overhead "
                                "triggers below)")
    serve_cmd.add_argument("--compact-wal-bytes", type=int,
                           default=64 * 1024 * 1024, dest="compact_wal_bytes",
                           metavar="BYTES",
                           help="also compact once the live WAL segments "
                                "total this many bytes (bounds recovery "
                                "replay time; 0 disables this trigger)")
    serve_cmd.add_argument("--compact-overhead", type=float, default=0.25,
                           dest="compact_overhead", metavar="FRACTION",
                           help="also compact once the delta brute-force "
                                "sweep is measured at this fraction of query "
                                "time (EMA over recent batches; 0 disables "
                                "this trigger)")
    serve_cmd.add_argument("--wal-group-commit-ms", type=float, default=2.0,
                           dest="wal_group_commit_ms", metavar="MS",
                           help="group-commit window: concurrent mutations "
                                "arriving within it share one WAL fsync "
                                "(0 = fsync each record synchronously)")
    serve_cmd.add_argument("--wal-group-bytes", type=int, default=1 << 20,
                           dest="wal_group_bytes", metavar="BYTES",
                           help="flush a commit group early once its pending "
                                "records reach this many bytes")
    serve_cmd.add_argument("--wal-segment-bytes", type=int, default=4 << 20,
                           dest="wal_segment_bytes", metavar="BYTES",
                           help="rotate the WAL to a new segment file once "
                                "the live one reaches this size; compaction "
                                "deletes whole checkpointed segments")
    serve_cmd.add_argument("--http", default=None,
                           help="also serve HTTP/JSON on HOST:PORT (or :PORT "
                                "/ PORT, loopback by default): POST /query "
                                "with micro-batching, GET /healthz /status "
                                "/metrics; insert/delete need --mutable")
    serve_cmd.add_argument("--http-batch-window", type=float, default=0.002,
                           dest="http_batch_window", metavar="SECONDS",
                           help="micro-batch collection window: concurrent "
                                "POST /query requests arriving within it are "
                                "answered by one batched GEMM (0 = coalesce "
                                "only what is already queued)")
    serve_cmd.add_argument("--http-max-batch", type=int, default=32,
                           dest="http_max_batch",
                           help="max requests coalesced into one batch")
    serve_cmd.add_argument("--http-queue-limit", type=int, default=256,
                           dest="http_queue_limit",
                           help="bounded admission queue: further requests "
                                "are shed with 429 + Retry-After")
    serve_cmd.add_argument("--http-default-timeout", type=float, default=None,
                           dest="http_default_timeout", metavar="SECONDS",
                           help="deadline applied to HTTP requests that send "
                                "no X-Timeout-Ms header; overruns answer 504 "
                                "(default: no deadline)")
    serve_cmd.add_argument("--http-idle-timeout", type=float, default=60.0,
                           dest="http_idle_timeout", metavar="SECONDS",
                           help="close HTTP keep-alive connections idle this "
                                "long")
    serve_cmd.add_argument("--http-max-connections", type=int, default=512,
                           dest="http_max_connections",
                           help="cap concurrent HTTP connections; at the cap "
                                "the least-recently-active one is evicted")
    serve_cmd.add_argument("--mp-context", default="spawn",
                           choices=["spawn", "fork", "forkserver"],
                           dest="mp_context",
                           help="worker start method (spawn keeps client "
                                "connection fds out of workers started "
                                "mid-serve; fork starts faster)")

    query_cmd = sub.add_parser(
        "query", help="answer a query set against a running serve"
    )
    query_cmd.set_defaults(handler=_cmd_query)
    query_cmd.add_argument("--server", required=True,
                           help="address the serve is listening on "
                                "(socket path or host:port)")
    _add_source_args(query_cmd)
    query_cmd.add_argument("--k", type=int, default=10)
    query_cmd.add_argument("--connect-timeout", type=float, default=10.0,
                           dest="connect_timeout",
                           help="seconds to keep retrying the connection")
    query_cmd.add_argument("--reply-timeout", type=float, default=600.0,
                           dest="reply_timeout",
                           help="seconds to wait for the server's answer")
    query_cmd.add_argument("--timeout-ms", type=float, default=None,
                           dest="timeout_ms",
                           help="per-request deadline budget in milliseconds, "
                                "enforced end to end by the server (overrun "
                                "answers a typed deadline-exceeded error)")
    query_cmd.add_argument("--shutdown", action="store_true",
                           help="ask the server to shut down after answering")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
