"""Micro-benchmark: snapshot memory behavior (zero-copy, sharing, reload).

Not a paper figure — this tracks the arena-snapshot subsystem
(:mod:`repro.io.snapshot`, arena format v4) across PRs, the way
``BENCH_serve.json`` tracks QPS.  Four sections:

* **zero_copy** — ``tracemalloc`` around ``load_index``: a mapped arena
  load must *allocate* a small fraction of the payload bytes (the pages
  stay in the kernel page cache), while a copying read of the same
  arena — ``np.array(copy=True)`` of every member — allocates roughly
  everything.  Both numbers are recorded; CI gates the arena fraction
  < 10% and the copy control ≥ 30% (the control proves the probe
  measures what we think it measures).
* **parity** — the loaded arena must answer ``query_batch``
  bit-identically (ids and distances) to the in-memory fitted index,
  and a :class:`~repro.serve.SnapshotServer` on the arena must match
  the in-process ``load_index().query_batch()`` answers.  Both gated.
* **sharing** — N single-shard servers on *one* arena snapshot, each
  worker warmed with the same queries, then per-mapping ``smaps``
  accounting: summed PSS over summed RSS for the snapshot mappings.
  Shared physical pages push the ratio toward 1/N; private copies push
  it to 1.  Gated (ratio < 0.75) when smaps is available, skipped —
  with ``available: false`` recorded — where it is not.
* **reload** — arena load latency cold (page cache dropped via
  ``posix_fadvise``) vs warm (same file again, pages resident): what
  the ``POST /reload`` path pays.

Usage::

    PYTHONPATH=src python benchmarks/bench_memory.py          # n=200k
    PYTHONPATH=src python benchmarks/bench_memory.py --smoke  # seconds

Writes ``BENCH_memory.json`` (smoke runs write
``BENCH_memory.smoke.json`` so they never clobber a recorded full run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from repro import DBLSH  # noqa: E402
from repro.data.generators import gaussian_mixture  # noqa: E402
from repro.io import load_index, read_header, save_index  # noqa: E402
from repro.io.snapshot import _ArenaArchive  # noqa: E402
from repro.serve import SnapshotServer  # noqa: E402
from repro.utils.meminfo import (  # noqa: E402
    drop_page_cache,
    process_memory,
)

from helpers import budget_t  # noqa: E402

DEFAULT_OUT = "BENCH_memory.json"


def _answers(results) -> list:
    """Bit-comparable (ids, distances) projection of query results."""
    return [
        [(n.id, n.distance) for n in r.neighbors] for r in results
    ]


def _traced_load(path: str):
    """Load a snapshot under tracemalloc; (index, peak_alloc_bytes)."""
    tracemalloc.start()
    try:
        index = load_index(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return index, int(peak)


def _traced_copy_read(path: str) -> int:
    """Peak bytes allocated while copying every arena member to the heap."""
    tracemalloc.start()
    try:
        copies = []  # every copy stays alive, so the peak counts them all
        with _ArenaArchive(path) as archive:
            for name in archive.files:
                copies.append(np.array(archive[name], copy=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def bench_zero_copy(arena_path: str) -> dict:
    payload = sum(
        int(m["nbytes"])
        for m in read_header(arena_path)["members"].values()
    )
    arena_index, arena_alloc = _traced_load(arena_path)
    copy_alloc = _traced_copy_read(arena_path)
    out = {
        "payload_bytes": payload,
        "arena_alloc_bytes": arena_alloc,
        "arena_alloc_fraction": round(arena_alloc / payload, 4),
        "arena_is_mapped": bool(arena_index.is_mapped),
        "copy_alloc_bytes": copy_alloc,
        "copy_alloc_fraction": round(copy_alloc / payload, 4),
    }
    print(f"  zero-copy: arena allocates {out['arena_alloc_fraction']:.1%} "
          f"of {payload / 1e6:.1f} MB payload "
          f"(copy control: {out['copy_alloc_fraction']:.1%})")
    return out


def bench_parity(index: DBLSH, arena_path: str, queries: np.ndarray,
                 k: int) -> dict:
    fitted_answers = _answers(index.query_batch(queries, k=k))
    arena_answers = _answers(load_index(arena_path).query_batch(queries, k=k))
    with SnapshotServer(arena_path) as server:
        served_answers = _answers(server.query_batch(queries, k=k))
    out = {
        "loaded_matches_fitted": arena_answers == fitted_answers,
        "served_matches_inprocess": served_answers == arena_answers,
    }
    print(f"  parity: loaded==fitted {out['loaded_matches_fitted']}, "
          f"served==inprocess {out['served_matches_inprocess']}")
    return out


def bench_sharing(arena_path: str, queries: np.ndarray, k: int,
                  n_servers: int) -> dict:
    """N single-worker servers on one arena: do they share the pages?

    Deliberately *separate servers on an unsharded snapshot* rather than
    one sharded server: a sharded pool's workers map disjoint byte
    ranges of the file (nothing to share), while N whole-file replicas
    are exactly the fleet scenario the arena exists for.
    """
    servers = [SnapshotServer(arena_path) for _ in range(n_servers)]
    try:
        for server in servers:
            server.start()
            # Fault the probed pages in: sharing is only observable for
            # resident pages, and identical queries touch identical pages.
            server.query_batch(queries, k=k)
        statuses = [server.memory_status() for server in servers]
    finally:
        for server in servers:
            server.close()
    available = all(s["available"] for s in statuses)
    total_rss = sum(s["total_snapshot_rss_kb"] for s in statuses)
    total_pss = sum(s["total_snapshot_pss_kb"] for s in statuses)
    out = {
        "available": available,
        "servers": n_servers,
        "all_workers_mapped": all(
            w["mapped"] for s in statuses for w in s["workers"]
        ),
        "per_worker": [s["workers"][0] for s in statuses],
        "total_snapshot_rss_kb": total_rss,
        "total_snapshot_pss_kb": total_pss,
        "pss_over_rss": (
            round(total_pss / total_rss, 4) if total_rss else None
        ),
    }
    if available and total_rss:
        print(f"  sharing: {n_servers} workers, snapshot PSS/RSS = "
              f"{out['pss_over_rss']:.2f} (1.0 = private, "
              f"{1 / n_servers:.2f} = fully shared)")
    else:
        print("  sharing: smaps unavailable on this platform; skipped")
    return out


def bench_reload(arena_path: str, reps: int) -> dict:
    def median_load_seconds(path: str, cold: bool) -> float:
        samples = []
        for _ in range(reps):
            if cold:
                drop_page_cache(path)
            started = time.perf_counter()
            load_index(path)
            samples.append(time.perf_counter() - started)
        return float(np.median(samples))

    cache_dropped = drop_page_cache(arena_path)
    out = {
        "cache_drop_available": cache_dropped,
        "arena_cold_seconds": round(
            median_load_seconds(arena_path, cold=True), 5
        ),
        "arena_warm_seconds": round(
            median_load_seconds(arena_path, cold=False), 5
        ),
    }
    print(f"  reload: arena cold {out['arena_cold_seconds']*1e3:.1f}ms, "
          f"warm {out['arena_warm_seconds']*1e3:.1f}ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (seconds, for CI / tier-1 time)")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--dim", type=int, default=50)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--servers", type=int, default=4,
                        help="replica servers in the sharing section")
    parser.add_argument("--reps", type=int, default=None,
                        help="reload timing repetitions (median taken)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_memory.json)")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (DEFAULT_OUT.replace(".json", ".smoke.json")
                    if args.smoke else DEFAULT_OUT)

    n = args.n if args.n is not None else (5_000 if args.smoke else 200_000)
    m = args.queries if args.queries is not None else (10 if args.smoke else 100)
    reps = args.reps if args.reps is not None else (3 if args.smoke else 7)
    if n < 1:
        parser.error(f"--n must be >= 1, got {n}")
    if not 1 <= m <= n:
        parser.error(f"--queries must be between 1 and n={n}, got {m}")
    t = budget_t(n, l_spaces=5)

    print(f"workload: n={n} dim={args.dim} queries={m} k={args.k} t={t} "
          f"servers={args.servers} (host cpus: {os.cpu_count()})")
    data = gaussian_mixture(n, args.dim, n_clusters=20, seed=1)
    rng = np.random.default_rng(2)
    queries = (data[rng.choice(n, m, replace=False)]
               + 0.05 * rng.standard_normal((m, args.dim)))

    index = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                  auto_initial_radius=True).fit(data)
    out_stem = args.out[:-5] if args.out.endswith(".json") else args.out
    arena_path = f"{out_stem}.arena.npz"
    save_index(index, arena_path)
    try:
        report = {
            "benchmark": "memory",
            "n": n,
            "dim": args.dim,
            "n_queries": m,
            "k": args.k,
            "t": t,
            "smoke": bool(args.smoke),
            "host_cpus": os.cpu_count(),
            "snapshot_bytes": os.path.getsize(arena_path),
            "coordinator_memory": process_memory(),
            "zero_copy": bench_zero_copy(arena_path),
            "parity": bench_parity(index, arena_path, queries, args.k),
            "sharing": bench_sharing(arena_path, queries, args.k,
                                     args.servers),
            "reload": bench_reload(arena_path, reps),
        }
    finally:
        if os.path.exists(arena_path):
            os.remove(arena_path)

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
