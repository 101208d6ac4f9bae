"""Micro-benchmark: multi-process snapshot serving (scatter-gather QPS + parity).

Not a paper figure — this tracks the serving subsystem across PRs.  For
worker counts ∈ {1, 2, 4} (one worker process per snapshot shard) it
answers:

* **Parity** — are the served answers *identical* (ids and distances) to
  loading the same snapshot in process and sweeping the shards there?
  The server and the in-process sweep share one merge planner
  (:mod:`repro.core.plan`), so any divergence is a transport bug.  And
  are the served neighbor sets identical to the unsharded
  ``DBLSH.query_batch`` on the same workload?  (At this workload's
  budget the queries terminate by the radius condition, where sharded
  and unsharded provably agree; the CI gate requires both parities.)
* **Throughput** — what does crossing process boundaries cost/buy?
  ``qps_server`` (scatter-gather over pipes/shared memory) is reported
  next to ``qps_inprocess`` (same snapshot, same sweep, no IPC) and the
  worker start-up time.  On a single-CPU host the server pays IPC for
  no parallelism — the recorded numbers show exactly that (the ROADMAP's
  1-CPU-host caveat applies to process fan-out as much as threads); on a
  many-core host the workers probe truly concurrently.

Two further sections track the concurrent-serving machinery:

* ``concurrent_clients`` — N client threads (``--clients``, default
  1,2,4) split the query set over one shared server; the reassembled
  answers must stay bit-identical to the single-client run (FIFO
  dispatch parity), and the per-N throughput is recorded;
* ``supervision`` — the acceptance scenario of the serving PR: 4
  concurrent clients, one SIGKILLed worker (supervision restarts it and
  re-scatters), and one hot reload to a second snapshot generation, all
  in one run.  Every answer set any client saw must be bit-identical to
  ``load_index(...).query_batch(...)`` on *one of* the two generations,
  the post-reload answers must match the new snapshot, and no worker
  process may outlive ``close()``.  CI gates on all of these flags.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py          # n=100k
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke  # seconds

Writes ``BENCH_serve.json`` (smoke runs write ``BENCH_serve.smoke.json``
so they never clobber a recorded full run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from helpers import budget_t  # noqa: E402

from repro import DBLSH, ShardedDBLSH  # noqa: E402
from repro.data.generators import gaussian_mixture  # noqa: E402
from repro.data.groundtruth import exact_knn  # noqa: E402
from repro.eval.metrics import recall  # noqa: E402
from repro.io import load_index, save_index  # noqa: E402
from repro.serve import SnapshotServer  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_serve.json")

WORKER_COUNTS = (1, 2, 4)


def _median_seconds(fn, reps: int) -> float:
    fn()  # warm caches, lazy freezes, and pipe buffers
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _identical(a, b) -> bool:
    """Exact result-list equality: same length, ids in order, distances.

    The explicit length check keeps the gate honest — ``zip`` would
    truncate and pass vacuously if one side returned fewer results.
    """
    return len(a) == len(b) and all(
        x.ids == y.ids and x.distances == y.distances for x, y in zip(a, b)
    )


def bench_workers(data, queries, k, t, reps, baseline_results, gt_ids,
                  snapshot_stem):
    """One served snapshot per worker count."""
    m = queries.shape[0]
    rows = {}
    for workers in WORKER_COUNTS:
        index = ShardedDBLSH(
            shards=workers, c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
            auto_initial_radius=True,
        )
        index.fit(data)
        snapshot_path = f"{snapshot_stem}.{workers}.npz"
        save_index(index, snapshot_path)
        snapshot_mb = os.path.getsize(snapshot_path) / 1e6

        inproc = load_index(snapshot_path)
        inproc_results = inproc.query_batch(queries, k=k)
        inproc_s = _median_seconds(
            lambda: inproc.query_batch(queries, k=k), reps
        )

        with SnapshotServer(snapshot_path) as server:
            server_results = server.query_batch(queries, k=k)
            server_s = _median_seconds(
                lambda: server.query_batch(queries, k=k), reps
            )
            startup = server.startup_seconds

        matches_inproc = _identical(server_results, inproc_results)
        sets_match = len(server_results) == len(baseline_results) and all(
            set(a.ids) == set(b.ids)
            for a, b in zip(server_results, baseline_results)
        )
        rec = float(np.mean([
            recall(r.ids, gt_ids[i]) for i, r in enumerate(server_results)
        ]))
        os.remove(snapshot_path)
        rows[str(workers)] = {
            "startup_seconds": round(startup, 3),
            "snapshot_mb": round(snapshot_mb, 2),
            "qps_server": round(m / server_s, 1),
            "qps_inprocess": round(m / inproc_s, 1),
            "query_ms_server": round(server_s / m * 1e3, 4),
            "recall": round(rec, 4),
            "server_matches_inprocess": bool(matches_inproc),
            "server_sets_match_unsharded": bool(sets_match),
            "mean_candidates": round(float(np.mean(
                [r.stats.candidates_verified for r in server_results])), 1),
        }
        row = rows[str(workers)]
        print(f"  workers={workers}: startup {row['startup_seconds']}s, "
              f"{row['qps_server']} qps served vs {row['qps_inprocess']} in-process, "
              f"recall {row['recall']}, inproc_parity={matches_inproc}, "
              f"unsharded_sets={sets_match}")
    return rows


def bench_concurrent_clients(data, queries, k, t, reps, snapshot_stem,
                             client_counts):
    """N concurrent client threads on one shared 2-worker server."""
    from repro.eval.runner import _ConcurrentClients

    m = queries.shape[0]
    index = ShardedDBLSH(shards=2, c=1.5, l_spaces=5, k_per_space=10, t=t,
                         seed=0, auto_initial_radius=True)
    index.fit(data)
    snapshot_path = f"{snapshot_stem}.clients.npz"
    save_index(index, snapshot_path)
    expected = load_index(snapshot_path).query_batch(queries, k=k)
    rows = {}
    with SnapshotServer(snapshot_path) as server:
        for clients in client_counts:
            fanned = _ConcurrentClients(server, clients)
            got = fanned.query_batch(queries, k=k)
            seconds = _median_seconds(
                lambda: fanned.query_batch(queries, k=k), reps
            )
            rows[str(clients)] = {
                "qps_server": round(m / seconds, 1),
                "matches_inprocess": _identical(got, expected),
            }
            print(f"  clients={clients}: {rows[str(clients)]['qps_server']} qps, "
                  f"parity={rows[str(clients)]['matches_inprocess']}")
    os.remove(snapshot_path)
    return rows


def bench_supervision(data, queries, k, t, snapshot_stem):
    """4 clients + a SIGKILLed worker + a hot reload, in one run.

    The CI gate for the supervised-serving PR: every answer any client
    received must be bit-identical to the in-process answers of one of
    the two snapshot generations, supervision must actually have
    restarted a worker, the post-reload state must serve the new
    generation, and close() must leave no worker processes behind.
    """
    import threading

    snap_a = f"{snapshot_stem}.supervision.a.npz"
    snap_b = f"{snapshot_stem}.supervision.b.npz"
    common = dict(c=1.5, l_spaces=5, k_per_space=10, t=t,
                  auto_initial_radius=True)
    save_index(ShardedDBLSH(shards=2, seed=0, **common).fit(data), snap_a)
    # Generation B: different shard count *and* projections (seed), so
    # the reload exercises a real pool-shape change and answers
    # attribute to exactly one generation.
    save_index(ShardedDBLSH(shards=4, seed=1, **common).fit(data), snap_b)
    expected_a = load_index(snap_a).query_batch(queries, k=k)
    expected_b = load_index(snap_b).query_batch(queries, k=k)

    server = SnapshotServer(snap_a).start()
    seen_pids = set(server.worker_pids)
    failures = []

    def client(idx):
        try:
            for _ in range(5):
                got = server.query_batch(queries, k=k)
                if not (_identical(got, expected_a)
                        or _identical(got, expected_b)):
                    failures.append(
                        f"client {idx}: answers match neither generation"
                    )
        except Exception as exc:
            failures.append(f"client {idx}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)
    os.kill(server.worker_pids[0], 9)     # SIGKILL mid-run
    server.query_batch(queries[:1], k=1)  # forces the supervised restart
    seen_pids |= set(server.worker_pids)
    server.reload(snap_b)                 # hot flip mid-run
    seen_pids |= set(server.worker_pids)
    for thread in threads:
        thread.join(timeout=300)
    final_matches = _identical(server.query_batch(queries, k=k), expected_b)
    restarts = server.status()["restarts"]
    generation = server.generation
    server.close()

    def alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    deadline = time.monotonic() + 15
    while any(alive(pid) for pid in seen_pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in seen_pids if alive(pid)]
    for path in (snap_a, snap_b):
        os.remove(path)
    row = {
        "clients": 4,
        "all_answers_bit_identical_to_a_generation": not failures,
        "worker_restarts": restarts,
        "post_reload_matches_new_snapshot": bool(final_matches),
        "final_generation": generation,
        "no_orphans_after_close": not orphans,
        "failures": failures[:5],
    }
    print(f"  supervision: restarts={restarts}, generation={generation}, "
          f"parity={row['all_answers_bit_identical_to_a_generation']}, "
          f"reload_parity={row['post_reload_matches_new_snapshot']}, "
          f"orphans={orphans}")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (seconds, for CI / tier-1 time)")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--dim", type=int, default=50)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=50)
    parser.add_argument("--reps", type=int, default=None,
                        help="timing repetitions (median taken)")
    parser.add_argument("--clients", default="1,2,4",
                        help="comma-separated concurrent-client counts for "
                             "the shared-server rows")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_serve.json)")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (DEFAULT_OUT.replace(".json", ".smoke.json")
                    if args.smoke else DEFAULT_OUT)

    n = args.n if args.n is not None else (5_000 if args.smoke else 100_000)
    m = args.queries if args.queries is not None else (10 if args.smoke else 100)
    reps = args.reps if args.reps is not None else (1 if args.smoke else 5)
    if n < 1:
        parser.error(f"--n must be >= 1, got {n}")
    if not 1 <= m <= n:
        parser.error(f"--queries must be between 1 and n={n}, got {m}")
    t = budget_t(n, l_spaces=5)

    print(f"workload: n={n} dim={args.dim} queries={m} k={args.k} t={t} "
          f"(host cpus: {os.cpu_count()})")
    data = gaussian_mixture(n, args.dim, n_clusters=20, seed=1)
    rng = np.random.default_rng(2)
    queries = (data[rng.choice(n, m, replace=False)]
               + 0.05 * rng.standard_normal((m, args.dim)))
    gt_ids, _ = exact_knn(queries, data, args.k)

    baseline = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                     auto_initial_radius=True).fit(data)
    baseline_results = baseline.query_batch(queries, k=args.k)
    baseline_s = _median_seconds(
        lambda: baseline.query_batch(queries, k=args.k), reps
    )
    unsharded_recall = float(np.mean([
        recall(r.ids, gt_ids[i]) for i, r in enumerate(baseline_results)
    ]))

    out_stem = args.out[:-5] if args.out.endswith(".json") else args.out
    report = {
        "benchmark": "serve",
        "n": n,
        "dim": args.dim,
        "n_queries": m,
        "k": args.k,
        "t": t,
        "smoke": bool(args.smoke),
        "host_cpus": os.cpu_count(),
        "unsharded_qps": round(m / baseline_s, 1),
        "unsharded_recall": round(unsharded_recall, 4),
        "workers": bench_workers(data, queries, args.k, t, reps,
                                 baseline_results, gt_ids, out_stem),
        "concurrent_clients": bench_concurrent_clients(
            data, queries, args.k, t, reps, out_stem,
            [int(x) for x in args.clients.split(",") if x.strip()],
        ),
        "supervision": bench_supervision(data, queries, args.k, t, out_stem),
    }

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
