"""Micro-benchmark: sharded serving + snapshot save/load roundtrip.

Not a paper figure — this tracks the index-lifecycle subsystem across
PRs.  Two questions:

* **Sharding** — what do S-way partitioned builds and scatter-gather
  queries cost/buy at shards ∈ {1, 2, 4}?  Shards build one thread per
  shard; queries sweep the shards serially and merge top-k by distance.
  The merged neighbor sets are checked against the unsharded engine on
  every configuration.
* **Persistence** — how fast does a snapshot save/load roundtrip run
  versus rebuilding from raw data, and does the loaded index answer
  identically?  The ``rstar`` backend snapshot carries the frozen
  traversal arrays, so loading does no STR bulk load at all.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharding.py          # n=100k
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke  # seconds

Writes ``BENCH_sharding.json`` (smoke runs write
``BENCH_sharding.smoke.json`` so they never clobber a recorded full run).
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

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_sharding.json")

SHARD_COUNTS = (1, 2, 4)


def _median_seconds(fn, reps: int) -> float:
    fn()  # warm caches and lazy freezes
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def bench_shards(data, queries, k, t, reps, baseline_results, gt_ids):
    """Build/measure one ShardedDBLSH per shard count."""
    m = queries.shape[0]
    rows = {}
    for shards in SHARD_COUNTS:
        index = ShardedDBLSH(
            shards=shards, c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
            auto_initial_radius=True,
        )
        index.fit(data)
        results = index.query_batch(queries, k=k)
        # Each shard runs Algorithm 1 with the whole 2tL + k allowance,
        # so a sharded query can verify candidates the unsharded budget
        # truncated; a set mismatch paired with recall >= the unsharded
        # recall means sharding found strictly better neighbors.
        sets_identical = all(
            set(a.ids) == set(b.ids) for a, b in zip(results, baseline_results)
        )
        rec = float(np.mean([
            recall(r.ids, gt_ids[i]) for i, r in enumerate(results)
        ]))
        batch_s = _median_seconds(lambda: index.query_batch(queries, k=k), reps)
        rows[str(shards)] = {
            "build_seconds": round(index.build_seconds, 3),
            "qps": round(m / batch_s, 1),
            "query_ms": round(batch_s / m * 1e3, 4),
            "recall": round(rec, 4),
            "topk_sets_match_unsharded": bool(sets_identical),
            "mean_candidates": round(float(np.mean(
                [r.stats.candidates_verified for r in results])), 1),
        }
        print(f"  shards={shards}: "
              f"build {rows[str(shards)]['build_seconds']}s, "
              f"{rows[str(shards)]['qps']} qps, recall {rows[str(shards)]['recall']}, "
              f"sets_match={sets_identical}")
    return rows


def bench_snapshot(data, queries, k, t, tmp_path):
    """Save/load roundtrip timing vs a from-scratch rebuild."""
    index = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                  auto_initial_radius=True)
    started = time.perf_counter()
    index.fit(data)
    fit_seconds = time.perf_counter() - started
    before = index.query_batch(queries, k=k)

    started = time.perf_counter()
    save_index(index, tmp_path)
    save_seconds = time.perf_counter() - started
    size_mb = os.path.getsize(tmp_path) / 1e6

    started = time.perf_counter()
    restored = load_index(tmp_path)
    load_seconds = time.perf_counter() - started
    after = restored.query_batch(queries, k=k)
    identical = all(a.ids == b.ids for a, b in zip(before, after))

    row = {
        "fit_seconds": round(fit_seconds, 3),
        "save_seconds": round(save_seconds, 3),
        "load_seconds": round(load_seconds, 3),
        "load_vs_refit_speedup": round(fit_seconds / max(load_seconds, 1e-9), 1),
        "snapshot_mb": round(size_mb, 2),
        "results_identical_after_reload": bool(identical),
    }
    print(f"  snapshot: fit {row['fit_seconds']}s -> save {row['save_seconds']}s + "
          f"load {row['load_seconds']}s ({row['load_vs_refit_speedup']}x vs refit, "
          f"identical={identical})")
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
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_sharding.json)")
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

    print(f"workload: n={n} dim={args.dim} queries={m} k={args.k} t={t}")
    data = gaussian_mixture(n, args.dim, n_clusters=20, seed=1)
    rng = np.random.default_rng(2)
    queries = (data[rng.choice(n, m, replace=False)]
               + 0.05 * rng.standard_normal((m, args.dim)))
    gt_ids, _ = exact_knn(queries, data, args.k)

    baseline = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                     auto_initial_radius=True).fit(data)
    baseline_results = baseline.query_batch(queries, k=args.k)
    unsharded_recall = float(np.mean([
        recall(r.ids, gt_ids[i]) for i, r in enumerate(baseline_results)
    ]))

    out_stem = args.out[:-5] if args.out.endswith(".json") else args.out
    snapshot_path = out_stem + ".snapshot.npz"
    report = {
        "benchmark": "sharding",
        "n": n,
        "dim": args.dim,
        "n_queries": m,
        "k": args.k,
        "t": t,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "unsharded_build_seconds": round(baseline.build_seconds, 3),
        "unsharded_recall": round(unsharded_recall, 4),
        "shards": bench_shards(data, queries, args.k, t, reps,
                               baseline_results, gt_ids),
        "snapshot": bench_snapshot(data, queries, args.k, t, snapshot_path),
    }
    if os.path.exists(snapshot_path):
        os.remove(snapshot_path)

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
