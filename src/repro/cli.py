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
* ``serve``    — serve a snapshot from one worker process per shard
  behind the HTTP/JSON gateway;
* ``query``    — answer a query set against a running ``serve`` over
  HTTP.

Data sources: a registry stand-in name (``--dataset audio``) or an
``.fvecs`` file (``--fvecs path``).

``serve --listen HOST:PORT`` opens one network front door, the gateway
of :mod:`repro.serve.http`: ``POST /query`` with micro-batching and 429
admission shedding, ``POST /insert``/``/delete``/``/compact`` when
``--mutable``, ``POST /reload``, ``GET /healthz``/``/status``/``/metrics``
and a loopback-only ``POST /shutdown`` — the fit → save → serve → query
loop of the README's serving quickstart.  The server supervises its
workers (a killed worker is restarted and the request retried once), and
``POST /reload`` hot-reloads a new snapshot generation from the served
file — in-flight queries finish on the generation they started on.
A mutable serve acks mutations only after the write-ahead-log fsync,
recovers them on restart, and folds them into fresh snapshot generations
in the background.  The serve stops on ``--max-requests``, ``POST
/shutdown`` or Ctrl-C, and exits 1 when it can no longer keep its
contract: a 503 from a query or mutation (the worker pool broke) or a
500 from a mutation (a write that could not be made durable).

``query --server HOST:PORT`` posts the query set as one batch, retrying
its connection with exponential backoff (``--connect-timeout``) so
scripts may start ``serve`` and ``query`` back to back, and
``--shutdown`` posts ``/shutdown`` after the answer.

The serve runs the library defaults of :class:`~repro.serve.SnapshotServer`,
:class:`~repro.serve.MutableSnapshotServer` and
:class:`~repro.serve.HttpGateway`; embed those classes to tune the
watchdog, compaction, WAL segments or the gateway's batching and
connection bounds.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import Optional

import numpy as np

from repro import DBLSH, ShardedDBLSH, derive_parameters
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
    # Imported here: PMLSH and SRS pull in scipy.stats, which no other
    # command needs.
    from repro.baselines import FBLSH, LinearScan, PMLSH, QALSH

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
            seed=args.seed, auto_initial_radius=True,
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
        index = ShardedDBLSH(shards=args.shards, **common)
    else:
        index = DBLSH(**common)
    index.fit(data)
    # save_index appends .npz when missing; report the path it actually wrote.
    out = args.out if args.out.endswith(".npz") else args.out + ".npz"
    started = time.perf_counter()
    save_index(index, out)
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
    mapped = bool(getattr(index, "is_mapped", False))
    print(index.describe())
    print(f"snapshot kind={header['kind']} version={header['version']}; "
          f"loaded in {load_seconds:.3f}s "
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


def _parse_http_address(addr: str) -> tuple:
    """``HOST:PORT``/``[IPV6]:PORT``/``:PORT``/``PORT`` -> (host, port).

    A missing host defaults to loopback (the gateway carries no auth; a
    non-loopback bind is the operator's deliberate choice).  Brackets
    around an IPv6 host are stripped: sockets take the bare address.
    """
    host, _, port = addr.rpartition(":")
    if not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, :PORT or PORT, got {addr!r}")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    return (host or "127.0.0.1", int(port))


class _ServeState:
    """Request counter, failure slot and stop event of one ``repro serve``.

    :meth:`observe` is the gateway's ``on_request`` hook, always called
    from its one event-loop thread; the main thread parks on ``stop``.
    """

    def __init__(self, max_requests: Optional[int]) -> None:
        self.max_requests = max_requests
        self.handled = 0
        self.failure: Optional[str] = None
        self.stop = threading.Event()
        # --max-requests 0 means "bind, then stop": start already done.
        if max_requests is not None and max_requests <= 0:
            self.stop.set()

    def observe(self, endpoint: str, status: int) -> None:
        if endpoint == "shutdown":
            if status == 200:
                self.stop.set()
        elif status in (200, 504):
            # The request reached the engine (answered, or spent its
            # deadline doing so): it counts toward --max-requests.
            self.handled += 1
            if self.max_requests is not None and self.handled >= self.max_requests:
                self.stop.set()
        elif (status == 503 or (status == 500 and endpoint != "query")) and (
            not self.stop.is_set()  # a 503 while draining is no breakage
        ):
            # The worker pool broke beyond supervision, or a mutation
            # could not be made durable: this serve can no longer keep
            # its contract, so fail loud instead of acking on.
            self.failure = f"POST /{endpoint} answered {status}"
            self.stop.set()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        GatewayError,
        HttpGateway,
        MutableSnapshotServer,
        SnapshotServer,
    )

    host, port = _parse_http_address(args.listen)
    state = _ServeState(args.max_requests)
    if args.mutable:
        # A mutable serve recovers snapshot + WAL on startup, acks
        # insert/delete only after the WAL fsync, and folds the delta
        # into fresh snapshot generations in the background.
        server_factory = MutableSnapshotServer(args.index, wal_path=args.wal)
    else:
        server_factory = SnapshotServer(args.index)
    with server_factory as server:
        try:
            gateway = HttpGateway(server, host, port,
                                  on_request=state.observe).start()
        except GatewayError as exc:
            print(f"could not open the HTTP front door: {exc}", file=sys.stderr)
            return 1
        try:
            print(server.describe())
            mode = "mutable" if args.mutable else "read-only"
            print(f"listening on http://{gateway.address} "
                  f"(workers: {len(server.worker_pids)}, {mode}; "
                  f"batch window {gateway.batch_window * 1e3:g} ms, "
                  f"max batch {gateway.max_batch}, "
                  f"queue limit {gateway.queue_limit})", flush=True)
            try:
                state.stop.wait()
            except KeyboardInterrupt:
                pass
        finally:
            state.stop.set()  # Ctrl-C: the drain's 503s are no breakage
            gateway.close()
    if state.failure is not None:
        # Exit nonzero so supervisors (systemd, CI) see the crash for
        # what it is rather than a clean, intentional shutdown.
        print(f"serving failed after {state.handled} request(s): "
              f"{state.failure}", file=sys.stderr)
        return 1
    print(f"served {state.handled} request(s); shut down cleanly")
    return 0


def _connect_with_retry(address: tuple, timeout: float, *,
                        io_timeout: Optional[float] = None,
                        initial_delay: float = 0.05, max_delay: float = 1.0,
                        _sleep=time.sleep):
    """Dial the gateway until it listens (covers serve's start-up window).

    Scripts and tests race ``repro serve``'s startup all the time (shell
    ``&``, CI jobs), so a refused connect is retried with exponential
    backoff — ``initial_delay`` doubling up to ``max_delay`` — until
    ``timeout`` is spent, then the last error propagates.  The backoff
    keeps the early retries snappy without hammering a port that is
    seconds away from binding.  Returns a connected
    :class:`http.client.HTTPConnection` whose reads time out after
    ``io_timeout`` seconds.

    ``_sleep`` is injectable so the regression test can record the
    backoff schedule instead of actually waiting it out.
    """
    import http.client

    deadline = time.monotonic() + timeout
    delay = initial_delay
    while True:
        conn = http.client.HTTPConnection(*address, timeout=io_timeout)
        try:
            conn.connect()
            return conn
        except ConnectionRefusedError as exc:
            conn.close()
            error = exc
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise error
        _sleep(min(delay, remaining))
        delay = min(delay * 2, max_delay)


def _post_json(conn, path: str, payload: dict,
               headers: Optional[dict] = None) -> tuple:
    """One keep-alive ``POST`` round trip; returns (status, JSON body)."""
    import json

    conn.request("POST", path, body=json.dumps(payload),
                 headers={"Content-Type": "application/json", **(headers or {})})
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


#: Seconds ``repro query`` waits for the server's answer.
_REPLY_TIMEOUT = 600.0


def _cmd_query(args: argparse.Namespace) -> int:
    import http.client

    address = _parse_http_address(args.server)
    _, queries, label = _load_points(args)
    try:
        conn = _connect_with_retry(address, args.connect_timeout,
                                   io_timeout=_REPLY_TIMEOUT)
    except socket.gaierror as exc:
        # Not retried: a name that does not resolve is no start-up race.
        print(f"cannot resolve {address[0]}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"could not connect to {args.server} within "
              f"{args.connect_timeout:.0f}s: {exc}", file=sys.stderr)
        return 1
    try:
        started = time.perf_counter()
        try:
            status, reply = _post_json(
                conn, "/query", {"queries": queries.tolist(), "k": args.k})
        except TimeoutError:
            print(f"server did not reply within {_REPLY_TIMEOUT:.0f}s",
                  file=sys.stderr)
            return 1
        except (OSError, http.client.HTTPException, ValueError):
            # The server stopped (crashed, --max-requests elsewhere, a
            # concurrent shutdown) between accept and reply.
            print("server closed the connection before replying",
                  file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        if args.shutdown:
            try:
                code, answer = _post_json(conn, "/shutdown", {})
            except (OSError, http.client.HTTPException, ValueError):
                pass  # the server already stopped on its own (--max-requests)
            else:
                if code != 200:
                    print(f"shutdown refused ({code}): {answer.get('error')}",
                          file=sys.stderr)
    finally:
        conn.close()
    if status != 200:
        print(f"server error ({status}): {reply.get('error', reply)}",
              file=sys.stderr)
        return 1
    results = reply["results"]
    rows = [
        {
            "query": i,
            "top1_id": r["ids"][0] if r["ids"] else "-",
            "top1_dist": round(r["distances"][0], 4) if r["ids"] else "-",
            "found": len(r["ids"]),
        }
        for i, r in enumerate(results[:10])
    ]
    print(format_table(rows, title=f"Served answers: {label} (k={args.k})"))
    m = len(results)
    print(f"{m} queries in {elapsed:.3f}s over HTTP "
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
        if name == "save":
            cmd.add_argument("--out", default="index.npz",
                             help="snapshot output path (.npz)")

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
    serve_cmd.add_argument("--listen", default="127.0.0.1:8080",
                           help="HTTP address: HOST:PORT, [IPV6]:PORT, :PORT "
                                "or PORT (loopback when the host is omitted)")
    serve_cmd.add_argument("--max-requests", type=int, default=None,
                           dest="max_requests",
                           help="exit after this many query/mutation "
                                "requests (default: serve until POST "
                                "/shutdown or Ctrl-C)")
    serve_cmd.add_argument("--mutable", action="store_true",
                           help="accept insert/delete verbs, acked after the "
                                "write-ahead-log fsync; recovers snapshot+WAL "
                                "on startup (default: read-only, mutations "
                                "refused)")
    serve_cmd.add_argument("--wal", default=None,
                           help="write-ahead log path for --mutable "
                                "(default: <snapshot>.wal)")

    query_cmd = sub.add_parser(
        "query", help="answer a query set against a running serve"
    )
    query_cmd.set_defaults(handler=_cmd_query)
    query_cmd.add_argument("--server", required=True,
                           help="HTTP address the serve is listening on "
                                "(HOST:PORT, [IPV6]:PORT, :PORT or PORT)")
    _add_source_args(query_cmd)
    query_cmd.add_argument("--k", type=int, default=10)
    query_cmd.add_argument("--connect-timeout", type=float, default=10.0,
                           dest="connect_timeout",
                           help="seconds to keep retrying the connection")
    query_cmd.add_argument("--shutdown", action="store_true",
                           help="POST /shutdown after answering (loopback "
                                "only)")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
