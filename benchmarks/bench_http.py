"""Micro-benchmark: the HTTP front door (QPS grid, batching, shedding).

Not a paper figure — this tracks the HTTP gateway across PRs.  Three
questions, each a CI gate:

* **Parity** — is every answer served over HTTP *bit-identical* (ids and
  distances, surviving the JSON float round trip) to
  ``load_index(path).query_batch(...)`` in process?  Measured per cell
  of the whole grid: micro-batching must be invisible in the results no
  matter how aggressively requests coalesce.
* **Throughput** — QPS for concurrent clients × batch windows (the
  median of ``--reps`` timed runs, 5 by default, with their min and
  max), next to the mean coalesced batch size per cell.  The interesting shape: a
  wider window coalesces more single-query requests into each GEMM, so
  QPS under concurrency should *rise* with the window.  The window
  closes once every open connection has a request in the batch, so the
  one-client column no longer pays it, and the clients of a
  concurrent cell wait only for each other — the operator's dial,
  measured.
* **Shedding** — an overload scenario (a deliberately slow backend, a
  tiny admission queue, a client stampede) must record at least one 429
  while every admitted request still completes with exact answers:
  zero dropped in-flight queries.

Usage::

    PYTHONPATH=src python benchmarks/bench_http.py          # n=100k
    PYTHONPATH=src python benchmarks/bench_http.py --smoke  # seconds

Writes ``BENCH_http.json`` (smoke runs write ``BENCH_http.smoke.json``
so they never clobber a recorded full run).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from helpers import budget_t  # noqa: E402

from repro import ShardedDBLSH  # noqa: E402
from repro.data.generators import gaussian_mixture  # noqa: E402
from repro.io import load_index, save_index  # noqa: E402
from repro.serve import HttpGateway, SnapshotServer  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_http.json")


def _post_query(conn, query, k):
    """One POST /query on an open keep-alive connection."""
    conn.request("POST", "/query", body=json.dumps({"query": query, "k": k}))
    response = conn.getresponse()
    payload = json.loads(response.read())
    return response.status, payload, dict(response.getheaders())


def _row_matches(json_row, result) -> bool:
    """One JSON answer == one in-process QueryResult, exactly."""
    return json_row["ids"] == result.ids and json_row["distances"] == result.distances


def _run_clients(port, queries, k, clients):
    """Split the query list over N threads of single-query requests.

    Returns (seconds, answers-by-query-index, failures).  Each client
    keeps one connection alive for its whole slice — the fleet shape
    that actually exercises micro-batching.
    """
    slices = np.array_split(np.arange(len(queries)), clients)
    answers = {}
    failures = []

    def worker(rows):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for i in rows:
                status, payload, _ = _post_query(conn, queries[i], k)
                if status != 200:
                    failures.append(f"query {i}: HTTP {status}: {payload}")
                else:
                    answers[int(i)] = payload["results"][0]
        except Exception as exc:  # surfaced after join
            failures.append(f"client over rows {rows[:3]}...: {exc!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(rows,)) for rows in slices]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, answers, failures


def bench_grid(server, queries, expected, k, clients_list, windows_ms, reps):
    """QPS + parity for every (batch window × concurrent clients) cell."""
    m = len(queries)
    grid = {}
    for window_ms in windows_ms:
        column = {}
        for clients in clients_list:
            gateway = HttpGateway(
                server, batch_window=window_ms / 1e3,
                max_batch=64, queue_limit=1024,
            ).start()
            try:
                seconds, answers, failures = _run_clients(
                    gateway.port, queries, k, clients
                )  # the first timed run doubles as the parity run
                rates = [m / seconds] + [
                    m / _run_clients(gateway.port, queries, k, clients)[0]
                    for _ in range(reps - 1)
                ]
                batch = gateway.metrics.snapshot()["batch"]
            finally:
                gateway.close()
            matches = not failures and len(answers) == m and all(
                _row_matches(answers[i], expected[i]) for i in range(m)
            )
            column[str(clients)] = {
                "qps": round(float(np.median(rates)), 1),
                "qps_min": round(min(rates), 1),
                "qps_max": round(max(rates), 1),
                "mean_batch": round(batch["sum"] / max(batch["count"], 1), 2),
                "matches_inprocess": bool(matches),
                "failures": failures[:3],
            }
            cell = column[str(clients)]
            print(f"  window={window_ms}ms clients={clients}: "
                  f"{cell['qps']} qps ({cell['qps_min']}-{cell['qps_max']}), "
                  f"mean batch {cell['mean_batch']}, "
                  f"parity={matches}")
        grid[f"{window_ms:g}"] = column
    return grid


class _SlowServer:
    """Delay wrapper: simulates an expensive backend so the admission
    queue actually fills during the overload scenario."""

    def __init__(self, inner, delay: float) -> None:
        self._inner = inner
        self._delay = delay
        self.dim = inner.dim

    def query_batch(self, queries, k=1):
        time.sleep(self._delay)
        return self._inner.query_batch(queries, k=k)

    def status(self):
        return self._inner.status()


def bench_overload(server, queries, expected, k, clients=8, rounds=6):
    """Stampede a tiny admission queue; count sheds and verify zero loss.

    Every request must be *answered* — 200 with exact results or an
    immediate 429 — and at least one 429 must occur.  A request that
    ends any other way counts as dropped, and drops gate CI at zero.
    """
    slow = _SlowServer(server, delay=0.02)
    sent = clients * rounds
    sheds = [0]
    completed = {}
    dropped = []
    lock = threading.Lock()

    def worker(client_idx):
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=120)
        try:
            for round_idx in range(rounds):
                i = (client_idx * rounds + round_idx) % len(queries)
                try:
                    status, payload, _ = _post_query(conn, queries[i], k)
                except Exception as exc:
                    with lock:
                        dropped.append(f"client {client_idx}: {exc!r}")
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", gateway.port, timeout=120
                    )
                    continue
                with lock:
                    if status == 200:
                        completed[(client_idx, round_idx)] = (
                            i, payload["results"][0]
                        )
                    elif status == 429:
                        sheds[0] += 1
                    else:
                        dropped.append(
                            f"client {client_idx}: HTTP {status}: {payload}"
                        )
        finally:
            conn.close()

    # max_batch and queue_limit both tiny relative to the stampede: while
    # one 2-request dispatch sleeps in the slow backend, the other six
    # clients arrive, two fit in the queue, the rest must shed.
    with HttpGateway(slow, batch_window=0.0, max_batch=2,
                     queue_limit=2) as gateway:
        threads = [threading.Thread(target=worker, args=(c,))
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    parity = all(_row_matches(row, expected[i])
                 for i, row in completed.values())
    row = {
        "clients": clients,
        "requests": sent,
        "completed": len(completed),
        "sheds": sheds[0],
        "shed_rate": round(sheds[0] / sent, 3),
        "dropped_inflight": len(dropped),
        "completed_match_inprocess": bool(parity and completed),
        "queue_limit": 2,
        "dropped": dropped[:5],
    }
    print(f"  overload: {row['completed']}/{sent} completed, "
          f"{row['sheds']} shed ({row['shed_rate']:.0%}), "
          f"dropped={row['dropped_inflight']}, parity={parity}")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (seconds, for CI / tier-1 time)")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--dim", type=int, default=50)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--reps", type=int, default=None,
                        help="timed runs per grid cell (median reported)")
    parser.add_argument("--clients", default=None,
                        help="comma-separated concurrent-client counts")
    parser.add_argument("--windows-ms", default=None,
                        help="comma-separated batch windows in milliseconds")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_http.json)")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (DEFAULT_OUT.replace(".json", ".smoke.json")
                    if args.smoke else DEFAULT_OUT)

    n = args.n if args.n is not None else (4_000 if args.smoke else 100_000)
    m = args.queries if args.queries is not None else (16 if args.smoke else 64)
    reps = args.reps if args.reps is not None else (1 if args.smoke else 5)
    if reps < 1:
        parser.error(f"--reps must be >= 1, got {reps}")
    clients_list = [int(x) for x in (
        args.clients or ("1,2,4" if args.smoke else "1,2,4,8")
    ).split(",") if x.strip()]
    windows_ms = [float(x) for x in (
        args.windows_ms or ("0,2,10" if args.smoke else "0,1,2,5,10")
    ).split(",") if x.strip()]
    if n < 1:
        parser.error(f"--n must be >= 1, got {n}")
    if not 1 <= m <= n:
        parser.error(f"--queries must be between 1 and n={n}, got {m}")
    t = budget_t(n, l_spaces=5)

    print(f"workload: n={n} dim={args.dim} queries={m} k={args.k} t={t} "
          f"(host cpus: {os.cpu_count()})")
    data = gaussian_mixture(n, args.dim, n_clusters=20, seed=1)
    rng = np.random.default_rng(2)
    query_rows = (data[rng.choice(n, m, replace=False)]
                  + 0.05 * rng.standard_normal((m, args.dim)))
    queries = [row.tolist() for row in query_rows]

    index = ShardedDBLSH(shards=2, c=1.5, l_spaces=5, k_per_space=10, t=t,
                         seed=0, auto_initial_radius=True)
    index.fit(data)
    out_stem = args.out[:-5] if args.out.endswith(".json") else args.out
    snapshot_path = f"{out_stem}.snapshot.npz"
    save_index(index, snapshot_path)
    expected = load_index(snapshot_path).query_batch(query_rows, k=args.k)

    with SnapshotServer(snapshot_path) as server:
        report = {
            "benchmark": "http",
            "n": n,
            "dim": args.dim,
            "n_queries": m,
            "k": args.k,
            "t": t,
            "smoke": bool(args.smoke),
            "host_cpus": os.cpu_count(),
            "grid": bench_grid(server, queries, expected, args.k,
                               clients_list, windows_ms, reps),
            "overload": bench_overload(server, queries, expected, args.k),
        }
    os.remove(snapshot_path)

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
