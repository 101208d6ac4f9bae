"""Micro-benchmark: index construction — pointer STR vs array-native build.

Not a paper figure — this tracks the *build pipeline*.  Three questions:

* **Single-index build** — what does constructing the per-space index
  structures cost through a pointer tree (``RStarTree.bulk_load``:
  recursive STR into ``_Node`` objects, then ``freeze``) versus the
  array-native path ``DBLSH.fit`` uses (``build_flat_str``: STR ordering
  and frozen traversal arrays straight from the projected points)?  Both
  must produce byte-identical traversal arrays (``answers_identical``).
* **Sharded build** — what does ``ShardedDBLSH.fit`` (one thread per
  shard) cost at shards ∈ {1, 2, 4}, and is every shard's traversal
  identical to a standalone ``DBLSH`` fit on its slice
  (``shards_match_standalone``)?
* **Persistence** — what do ``save`` and ``load`` cost?

Usage::

    PYTHONPATH=src python benchmarks/bench_build.py          # n=25k,100k
    PYTHONPATH=src python benchmarks/bench_build.py --smoke  # seconds

Writes ``BENCH_build.json`` (smoke runs write ``BENCH_build.smoke.json``
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
from repro.io import load_index, save_index  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_build.json")

SHARD_COUNTS = (1, 2, 4)


def _median(values):
    return float(np.median(values))


def bench_single(data, t, reps):
    """Pointer-tree vs array-native construction of one DBLSH's tables.

    ``build_seconds`` times exactly the subsystem the array-native path
    replaces — constructing all L per-space traversals, query-ready,
    from the shared projections; ``fit_seconds`` puts the array path in
    end-to-end context (validation, projection GEMM and the radius
    estimate included).
    """
    from repro.hashing.compound import CompoundHasher
    from repro.index.rstar import RStarTree
    from repro.index.str_build import build_flat_str

    hasher = CompoundHasher(data.shape[1], 5, 10, 0)
    projections = hasher.project_all(data)

    def build_pointer():
        return [RStarTree.bulk_load(proj, max_entries=32).freeze()
                for proj in projections]

    def build_array():
        return [build_flat_str(proj, max_entries=32) for proj in projections]

    phases = {"pointer": build_pointer, "array": build_array}
    timings = {name: [] for name in phases}
    built = {name: phase() for name, phase in phases.items()}  # warm
    for _ in range(reps):
        # Interleave the two builders so machine-load drift hits both.
        for name, phase in phases.items():
            started = time.perf_counter()
            phase()
            timings[name].append(time.perf_counter() - started)
    identical = all(
        _flats_equal(a, b) for a, b in zip(built["pointer"], built["array"])
    )

    index = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                  auto_initial_radius=True)
    started = time.perf_counter()
    index.fit(data)
    fit_seconds = time.perf_counter() - started

    row = {
        "pointer": {"build_seconds": round(_median(timings["pointer"]), 3)},
        "array": {
            "build_seconds": round(_median(timings["array"]), 3),
            "fit_seconds": round(fit_seconds, 3),
            # fit's own accounting of the same phase — should track
            # build_seconds.
            "fit_table_build_seconds": round(index.table_build_seconds, 3),
        },
        "build_speedup": round(
            _median(timings["pointer"]) / max(_median(timings["array"]), 1e-9), 2
        ),
        "answers_identical": bool(identical),
    }
    print(f"  n={data.shape[0]}: pointer build {row['pointer']['build_seconds']}s"
          f" -> array {row['array']['build_seconds']}s"
          f" ({row['build_speedup']}x phase, identical={identical})")
    return row


def _flats_equal(a, b) -> bool:
    """Every traversal array of two frozen trees is equal."""
    arrays_a, arrays_b = a.to_arrays(), b.to_arrays()
    return set(arrays_a) == set(arrays_b) and all(
        np.array_equal(arrays_a[key], arrays_b[key], equal_nan=True)
        for key in arrays_a
    )


def bench_sharded(data, t, reps):
    """Sharded build time at each shard count, plus per-shard parity."""
    common = dict(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                  auto_initial_radius=True)
    rows = {}
    for shards in SHARD_COUNTS:
        times = []
        for _ in range(reps):
            index = ShardedDBLSH(shards=shards, **common).fit(data)
            times.append(index.build_seconds)
        bounds = index.shard_offsets + [data.shape[0]]
        standalone = [
            DBLSH(**index._shard_config()).fit(data[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        match = all(
            shard._forest is not None
            and alone._forest is not None
            and _flats_equal(shard._forest, alone._forest)
            for shard, alone in zip(index.shard_indexes, standalone)
        )
        rows[str(shards)] = {
            "build_seconds": round(_median(times), 3),
            "shards_match_standalone": bool(match),
        }
        print(f"  shards={shards}: build {rows[str(shards)]['build_seconds']}s"
              f" (matches standalone fits={match})")
    return rows


def bench_snapshot(data, queries, k, t, tmp_path):
    """Snapshot save/load roundtrip."""
    index = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                  auto_initial_radius=True).fit(data)
    before = index.query_batch(queries, k=k)

    started = time.perf_counter()
    save_index(index, tmp_path)
    save_seconds = time.perf_counter() - started
    size_mb = os.path.getsize(tmp_path) / 1e6

    started = time.perf_counter()
    restored = load_index(tmp_path)
    load_seconds = time.perf_counter() - started
    after = restored.query_batch(queries, k=k)

    row = {
        "save_seconds": round(save_seconds, 3),
        "load_seconds": round(load_seconds, 3),
        "snapshot_mb": round(size_mb, 2),
        "results_identical_after_reload": bool(
            all(a.ids == b.ids for a, b in zip(before, after))
        ),
    }
    print(f"  snapshot: save {row['save_seconds']}s ({row['snapshot_mb']} MB)"
          f" / load {row['load_seconds']}s")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (seconds, for CI / tier-1 time)")
    parser.add_argument("--n", type=int, nargs="*", default=None,
                        help="dataset sizes (default: 25000 100000)")
    parser.add_argument("--dim", type=int, default=50)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--k", type=int, default=50)
    parser.add_argument("--reps", type=int, default=None,
                        help="timing repetitions (median taken)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_build.json)")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = (DEFAULT_OUT.replace(".json", ".smoke.json")
                    if args.smoke else DEFAULT_OUT)

    n_list = args.n if args.n else ([5_000] if args.smoke else [25_000, 100_000])
    m = args.queries if args.queries is not None else (10 if args.smoke else 100)
    reps = args.reps if args.reps is not None else (1 if args.smoke else 5)
    for n in n_list:
        if not 1 <= m <= n:
            parser.error(f"--queries must be between 1 and n={n}, got {m}")

    report = {
        "benchmark": "build",
        "dim": args.dim,
        "n_queries": m,
        "k": args.k,
        "reps": reps,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "single": {},
    }
    max_n = max(n_list)
    for n in n_list:
        t = budget_t(n, l_spaces=5)
        print(f"single-index build: n={n} dim={args.dim} t={t}")
        data = gaussian_mixture(n, args.dim, n_clusters=20, seed=1)
        rng = np.random.default_rng(2)
        queries = (data[rng.choice(n, m, replace=False)]
                   + 0.05 * rng.standard_normal((m, args.dim)))
        report["single"][str(n)] = bench_single(data, t, reps)
        if n == max_n:
            print(f"sharded build: n={n}")
            report["sharded"] = bench_sharded(data, t, reps)
            out_stem = args.out[:-5] if args.out.endswith(".json") else args.out
            snapshot_path = out_stem + ".snapshot.npz"
            print(f"snapshot roundtrip: n={n}")
            report["snapshot"] = bench_snapshot(data, queries, args.k, t,
                                                snapshot_path)
            if os.path.exists(snapshot_path):
                os.remove(snapshot_path)

    report["build_speedup_at_max_n"] = report["single"][str(max_n)]["build_speedup"]

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
