"""Micro-benchmark: crash-safe mutations (WAL throughput, delta overhead, recovery).

Not a paper figure — this tracks the mutation subsystem across PRs.  On
one served snapshot it answers:

* **Insert throughput** — acked inserts/second through the mutable
  server, where every ack is a WAL append + fsync (the durability
  price, dominated by the disk's sync latency, not by numpy).
* **Delta-query overhead** — served query latency with the delta buffer
  and tombstones populated versus a read-only server on the same
  snapshot before any mutation, as medians (and quartiles) of
  interleaved repeats; the ratio is the live cost of the brute-force
  delta sweep and the pending deletes riding on every query.
* **Mutation parity** (CI-gated) — after a randomized insert/delete
  sequence, are the served answers identical — ids and distances — to a
  from-scratch refit on exactly the surviving rows?  And still
  identical after compaction folds the delta into a fresh snapshot
  generation?
* **Compaction wall time** — the full fold: rebuild, atomic snapshot
  replace, worker hot-flip, WAL swap.
* **Recovery after an injected kill** (CI-gated) — a child process is
  killed mid-WAL-append (``REPRO_WAL_FAULT=torn``); the restart must
  recover in the reported time and serve exactly the acked mutations.
* **Group commit** (CI-gated) — acked insert throughput of 16
  concurrent writers versus one serial writer, both through the WAL's
  one windowless commit path.  The serial writer's record is always
  alone in its group (one fsync per record, pinned by its mean group
  size of exactly 1.0); concurrent writers share each fsync with every
  record queued behind the previous one.  ``REPRO_WAL_SLOW_FSYNC_MS``
  injects the same fixed fsync latency into both runs, so the ratio
  measures *fsyncs saved by batching* deterministically instead of
  whatever the host disk's sync cost happens to be; the injected delay
  is recorded in the report.  The gate requires concurrent >= 3x
  serial.

Usage::

    PYTHONPATH=src python benchmarks/bench_mutations.py          # n=100k
    PYTHONPATH=src python benchmarks/bench_mutations.py --smoke  # seconds

Writes ``BENCH_mutations.json`` (smoke runs write
``BENCH_mutations.smoke.json`` so they never clobber a recorded full run).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from helpers import budget_t  # noqa: E402

from repro import DBLSH  # noqa: E402
from repro.data.generators import gaussian_mixture  # noqa: E402
from repro.io import save_index  # noqa: E402
from repro.serve import MutableSnapshotServer, SnapshotServer  # noqa: E402

#: Interleaved repeats behind each delta-overhead timing (median + quartiles).
TIMING_REPEATS = 7

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_mutations.json")


def _remove(path: str) -> None:
    """Delete a WAL (now a segment directory) or any leftover file."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _same_answers(a, b) -> bool:
    """Same neighbors in the same order; distances to float tolerance.

    Bit-exact distance equality is deliberately NOT required across a
    compaction: the delta sweep and the snapshot engine accumulate the
    same GEMM in different orders.
    """
    return len(a) == len(b) and all(
        x.ids == y.ids
        and all(abs(p - q) <= 1e-9 * max(1.0, abs(q))
                for p, q in zip(x.distances, y.distances))
        for x, y in zip(a, b)
    )


def _fit_params(t):
    return dict(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                auto_initial_radius=True)


def _refit_answers(everything, tombstones, queries, k, t):
    """Ground truth for the parity gate: refit on the surviving rows."""
    survivors = np.array(
        [i for i in range(everything.shape[0]) if i not in tombstones],
        dtype=np.int64,
    )
    refit = DBLSH(**_fit_params(t)).fit(everything[survivors])
    mapped = []
    for result in refit.query_batch(queries, k=k):
        mapped.append((
            [int(survivors[i]) for i in result.ids], result.distances,
        ))
    return mapped


def _parity(results, mapped_expected) -> bool:
    return len(results) == len(mapped_expected) and all(
        r.ids == ids and all(
            abs(a - b) <= 1e-9 * max(1.0, abs(b))
            for a, b in zip(r.distances, dists)
        )
        for r, (ids, dists) in zip(results, mapped_expected)
    )


def _interleaved_ms(servers, queries, k):
    """Per-query ms of each server's batch over ``TIMING_REPEATS`` rounds,
    alternating which server goes first; one ``(median, q1, q3)`` each."""
    samples = [[] for _ in servers]
    for rep in range(TIMING_REPEATS):
        order = list(range(len(servers)))
        for i in order if rep % 2 == 0 else order[::-1]:
            started = time.perf_counter()
            servers[i].query_batch(queries, k=k)
            samples[i].append((time.perf_counter() - started)
                              / queries.shape[0] * 1e3)
    return [tuple(float(v) for v in np.percentile(ms, [50, 25, 75]))
            for ms in samples]


def bench_mutations(server, frozen, data, extra, queries, k, t, n_delete):
    """Insert throughput, randomized parity, delta overhead, compaction.

    ``frozen`` is a read-only server on the same snapshot, never mutated:
    the baseline the delta overhead is timed against.
    """
    rng = np.random.default_rng(3)
    n = data.shape[0]

    started = time.perf_counter()
    for point in extra:
        server.insert(point)
    insert_seconds = time.perf_counter() - started

    delete_ids = rng.choice(n + extra.shape[0], n_delete, replace=False)
    acked_deletes = [int(i) for i in delete_ids if server.delete(int(i))]
    tombstones = set(acked_deletes)

    everything = np.vstack([data, extra])
    expected = _refit_answers(everything, tombstones, queries, k, t)

    with_delta = server.query_batch(queries, k=k)
    parity_delta = _parity(with_delta, expected)
    frozen.query_batch(queries, k=k)  # warm-up, like the parity pass above
    before, delta_ms = _interleaved_ms([frozen, server], queries, k)

    started = time.perf_counter()
    fold = server.compact()
    compact_seconds = time.perf_counter() - started
    assert fold["compacted"], "benchmark expected a non-empty fold"

    compacted = server.query_batch(queries, k=k)
    [compacted_ms] = _interleaved_ms([server], queries, k)
    parity_compacted = _parity(compacted, expected)
    answers_stable = _same_answers(with_delta, compacted)

    row = {
        "acked_inserts": int(extra.shape[0]),
        "acked_deletes": len(acked_deletes),
        "inserts_per_second": round(extra.shape[0] / insert_seconds, 1),
        "timing_repeats": TIMING_REPEATS,
        "query_ms_before_mutation": round(before[0], 4),
        "query_ms_before_mutation_quartiles": [round(v, 4) for v in before[1:]],
        "query_ms_with_delta": round(delta_ms[0], 4),
        "query_ms_with_delta_quartiles": [round(v, 4) for v in delta_ms[1:]],
        "query_ms_compacted": round(compacted_ms[0], 4),
        "delta_overhead_ratio": round(delta_ms[0] / max(before[0], 1e-9), 3),
        "compaction_seconds": round(compact_seconds, 3),
        "compaction_generation": fold["generation_uid"],
        "mutation_parity_vs_refit": bool(parity_delta),
        "post_compaction_parity_vs_refit": bool(parity_compacted),
        "answers_stable_across_compaction": bool(answers_stable),
    }
    print(f"  mutations: {row['inserts_per_second']} inserts/s "
          f"({row['acked_inserts']} acked), delta overhead "
          f"x{row['delta_overhead_ratio']}, compaction "
          f"{row['compaction_seconds']}s, parity(delta)={parity_delta}, "
          f"parity(compacted)={parity_compacted}")
    return row


def _kill_driver(snapshot, wal, fault_append, conn):
    """Child: insert until the armed WAL fault kills the process."""
    os.environ["REPRO_WAL_FAULT"] = f"torn:{fault_append}"
    server = MutableSnapshotServer(snapshot, wal_path=wal, compact_threshold=0)
    server.start()
    rng = np.random.default_rng(11)
    i = 0
    while True:  # the fault point guarantees termination
        point = rng.standard_normal(server.dim) + 90.0 + i
        pid = server.insert(point)
        conn.send((pid, point))
        i += 1


def bench_recovery(snapshot_path, wal_path, acked_before_kill, k):
    """Kill a child mid-append; time the restart; gate on exactly-acked."""
    ctx = multiprocessing.get_context("spawn")
    parent, child_end = ctx.Pipe()
    child = ctx.Process(target=_kill_driver,
                        args=(snapshot_path, wal_path, acked_before_kill,
                              child_end))
    child.start()
    child_end.close()
    acked = []
    while True:
        try:
            acked.append(parent.recv())
        except EOFError:
            break
    child.join(60)

    started = time.perf_counter()
    server = MutableSnapshotServer(snapshot_path, wal_path=wal_path,
                                   compact_threshold=0)
    server.start()
    recovery_seconds = time.perf_counter() - started
    try:
        exactly_acked = server.status()["delta_rows"] == len(acked)
        for pid, point in acked:
            result = server.query(point, k=1)
            if result.ids != [pid] or result.distances[0] > 1e-9:
                exactly_acked = False
                break
    finally:
        server.close()
    row = {
        "killed_with_exitcode": child.exitcode,
        "acked_before_kill": len(acked),
        "recovery_seconds": round(recovery_seconds, 3),
        "recovered_exactly_acked": bool(exactly_acked),
    }
    print(f"  recovery: {len(acked)} acked before kill "
          f"(exit {child.exitcode}), restart {row['recovery_seconds']}s, "
          f"exactly_acked={exactly_acked}")
    return row


def _concurrent_insert_qps(snapshot_path, wal_path, points, clients):
    """Acked inserts/second with ``clients`` writer threads."""
    with MutableSnapshotServer(snapshot_path, wal_path=wal_path,
                               compact_threshold=0) as server:
        errors = []

        def run(chunk):
            try:
                for point in chunk:
                    server.insert(point)
            except BaseException as exc:  # surfaced on the caller thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(chunk,), daemon=True)
            for chunk in np.array_split(points, clients) if len(chunk)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise errors[0]
        info = server.status()
        return {
            "qps": points.shape[0] / wall,
            "wall_seconds": wall,
            "groups_committed": info["wal_groups_committed"],
            "mean_group_records": info["wal_mean_group_records"],
        }


def bench_group_commit(snapshot_path, out_stem, n_insert, dim, *,
                       clients=16, fsync_delay_ms=2.0):
    """Concurrent vs serial acked-insert throughput (CI-gated >= 3x).

    Both runs go through the same commit path with the same injected
    fsync latency (``REPRO_WAL_SLOW_FSYNC_MS``), so the ratio is
    determined by how many records share each fsync — not by the host
    disk.  The serial writer pays one fsync per record; ``clients``
    concurrent writers share one fsync per group of records that
    queued while the previous group's fsync ran.
    """
    points = gaussian_mixture(n_insert, dim, n_clusters=8, seed=7)
    wal_path = f"{out_stem}.group.wal"
    os.environ["REPRO_WAL_SLOW_FSYNC_MS"] = str(fsync_delay_ms)
    try:
        _remove(wal_path)
        serial = _concurrent_insert_qps(snapshot_path, wal_path, points, 1)
        _remove(wal_path)
        concurrent = _concurrent_insert_qps(
            snapshot_path, wal_path, points, clients
        )
    finally:
        os.environ.pop("REPRO_WAL_SLOW_FSYNC_MS", None)
        _remove(wal_path)
    row = {
        "inserts": int(n_insert),
        "clients": int(clients),
        "fsync_delay_ms": float(fsync_delay_ms),
        "serial_qps": round(serial["qps"], 1),
        "concurrent_qps": round(concurrent["qps"], 1),
        "speedup": round(concurrent["qps"] / max(serial["qps"], 1e-9), 2),
        "serial_mean_group_records": round(serial["mean_group_records"], 2),
        "concurrent_groups_committed": int(concurrent["groups_committed"]),
        "concurrent_mean_group_records": round(
            concurrent["mean_group_records"], 2
        ),
    }
    print(f"  group commit: {clients} writers {row['concurrent_qps']} vs "
          f"1 writer {row['serial_qps']} inserts/s -> x{row['speedup']} "
          f"({row['concurrent_groups_committed']} groups, mean "
          f"{row['concurrent_mean_group_records']} records/group; serial "
          f"mean {row['serial_mean_group_records']}; fsync delay "
          f"{fsync_delay_ms}ms injected)")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (seconds, for CI / tier-1 time)")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--inserts", type=int, default=None,
                        help="acked inserts for the throughput section")
    parser.add_argument("--deletes", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_mutations.json)")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (DEFAULT_OUT.replace(".json", ".smoke.json")
                    if args.smoke else DEFAULT_OUT)

    n = args.n if args.n is not None else (3_000 if args.smoke else 100_000)
    m = args.queries if args.queries is not None else (10 if args.smoke else 100)
    n_insert = args.inserts if args.inserts is not None else (
        60 if args.smoke else 2_000
    )
    n_delete = args.deletes if args.deletes is not None else (
        40 if args.smoke else 1_000
    )
    t = budget_t(n, l_spaces=5)

    print(f"workload: n={n} dim={args.dim} queries={m} k={args.k} t={t} "
          f"inserts={n_insert} deletes={n_delete}")
    data = gaussian_mixture(n, args.dim, n_clusters=16, seed=1)
    extra = gaussian_mixture(n_insert, args.dim, n_clusters=16, seed=2)
    rng = np.random.default_rng(4)
    queries = (data[rng.choice(n, m, replace=False)]
               + 0.05 * rng.standard_normal((m, args.dim)))

    out_stem = args.out[:-5] if args.out.endswith(".json") else args.out
    snapshot_path = f"{out_stem}.snapshot.npz"
    wal_path = snapshot_path + ".wal"
    save_index(DBLSH(**_fit_params(t)).fit(data), snapshot_path)

    with MutableSnapshotServer(snapshot_path, wal_path=wal_path,
                               compact_threshold=0) as server, \
            SnapshotServer(snapshot_path) as frozen:
        mutation_rows = bench_mutations(server, frozen, data, extra, queries,
                                        args.k, t, n_delete)
    recovery_rows = bench_recovery(
        snapshot_path, wal_path,
        acked_before_kill=10 if args.smoke else 100, k=args.k,
    )
    group_rows = bench_group_commit(
        snapshot_path, out_stem,
        n_insert=160 if args.smoke else 1_000, dim=args.dim,
        clients=16, fsync_delay_ms=2.0,
    )
    for path in (snapshot_path, wal_path):
        _remove(path)

    report = {
        "benchmark": "mutations",
        "n": n,
        "dim": args.dim,
        "n_queries": m,
        "k": args.k,
        "t": t,
        "smoke": bool(args.smoke),
        "host_cpus": os.cpu_count(),
        "mutations": mutation_rows,
        "recovery": recovery_rows,
        "group_commit": group_rows,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
