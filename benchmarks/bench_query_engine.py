"""Micro-benchmark: DB-LSH query engine vs its per-candidate reference.

Not a paper figure — this tracks the *implementation's* performance
trajectory.  It builds DB-LSH on a synthetic workload, runs the query set
through the per-candidate reference loop
(:func:`repro.core.reference.sequential_query`) and through the engine
(flat R*-tree traversal + chunked verification + batched queries) on the
same index, checks that both return the same neighbors, and writes the
numbers to ``BENCH_query_engine.json``.

Two budget regimes are measured, mirroring the two DB-LSH variants of the
fig5/7 benchmark:

* ``fixed_t`` — the paper's fixed ``t = 16`` (tiny per-query budget, the
  hardest case for vectorisation because queries finish in ~one window);
* ``scaled_t`` — ``t ~ beta * n`` matching the budget the Table IV
  comparisons grant every method (``helpers.budget_t``); this is the
  configuration the cross-method benchmarks actually run at this n.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_engine.py          # n=100k
    PYTHONPATH=src python benchmarks/bench_query_engine.py --smoke  # seconds

The acceptance metric is ``speedup`` of the ``scaled_t`` regime (batch
engine QPS over reference-loop QPS) with ``neighbors_identical`` true in
both regimes.  Each regime also records ``batch_invariant``: the engine
answers the query set bit-identically (ids and distances) whether it is
sent in blocks of 1, of 4 or all at once, which is the round loop's
contract (a chunk's boundaries never depend on the other queries of its
lockstep block).  ``exact_ms_per_query`` is the control every index has
to beat: an exact scan of the same queries, one GEMM per block of
queries (:func:`repro.data.groundtruth.exact_knn`).
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

from repro import DBLSH  # noqa: E402
from repro.core.reference import sequential_query  # noqa: E402
from repro.data.generators import gaussian_mixture  # noqa: E402
from repro.data.groundtruth import exact_knn  # noqa: E402
from repro.eval.metrics import recall  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "BENCH_query_engine.json")


def _median_seconds(fn, reps: int) -> float:
    fn()  # warm caches
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def _in_blocks(index, queries, k, size):
    """The engine's answers with the queries sent ``size`` at a time."""
    out = []
    for start in range(0, queries.shape[0], size):
        out.extend(index.query_batch(queries[start : start + size], k=k))
    return out


def bench_regime(data, queries, k, t, reps):
    """Measure one budget regime; returns a results dict."""
    index = DBLSH(c=1.5, l_spaces=5, k_per_space=10, t=t, seed=0,
                  auto_initial_radius=True)
    started = time.perf_counter()
    index.fit(data)
    build_seconds = time.perf_counter() - started

    def reference_sweep():
        return [sequential_query(index, q, k=k) for q in queries]

    reference_results = reference_sweep()
    vectorized_results = index.query_batch(queries, k=k)
    identical = all(
        a.ids == b.ids for a, b in zip(reference_results, vectorized_results)
    )
    batch_invariant = all(
        (a.ids, a.distances) == (b.ids, b.distances)
        for size in (1, 4)
        for a, b in zip(_in_blocks(index, queries, k, size), vectorized_results)
    )

    gt_ids, _ = exact_knn(queries, data, k)
    rec_reference = float(np.mean([
        recall(r.ids, gt_ids[i]) for i, r in enumerate(reference_results)
    ]))
    rec_vectorized = float(np.mean([
        recall(r.ids, gt_ids[i]) for i, r in enumerate(vectorized_results)
    ]))

    m = queries.shape[0]
    reference_s = _median_seconds(reference_sweep, reps)
    vec_s = _median_seconds(lambda: index.query_batch(queries, k=k), reps)

    return {
        "t": t,
        "budget_per_query": 2 * t * 5 + k,
        "build_seconds": round(build_seconds, 3),
        "qps_reference": round(m / reference_s, 1),
        "qps_vectorized": round(m / vec_s, 1),
        "query_ms_reference": round(reference_s / m * 1e3, 4),
        "query_ms_vectorized": round(vec_s / m * 1e3, 4),
        "speedup": round(reference_s / vec_s, 2),
        "recall_reference": round(rec_reference, 4),
        "recall_vectorized": round(rec_vectorized, 4),
        "neighbors_identical": bool(identical),
        "batch_invariant": bool(batch_invariant),
        "mean_candidates": round(float(np.mean(
            [r.stats.candidates_verified for r in vectorized_results])), 1),
        "mean_rounds": round(float(np.mean(
            [r.stats.rounds for r in vectorized_results])), 2),
    }


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
                        help="output JSON path (default: BENCH_query_engine.json; "
                             "smoke runs write BENCH_query_engine.smoke.json so "
                             "they never clobber a recorded full run)")
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

    print(f"workload: n={n} dim={args.dim} queries={m} k={args.k}")
    data = gaussian_mixture(n, args.dim, n_clusters=20, seed=1)
    rng = np.random.default_rng(2)
    queries = (data[rng.choice(n, m, replace=False)]
               + 0.05 * rng.standard_normal((m, args.dim)))

    report = {
        "benchmark": "query_engine",
        "n": n,
        "dim": args.dim,
        "n_queries": m,
        "k": args.k,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "regimes": {},
    }
    exact_s = _median_seconds(lambda: exact_knn(queries, data, args.k), reps)
    report["exact_ms_per_query"] = round(exact_s / m * 1e3, 4)
    print(f"  exact scan (blocked GEMM): {report['exact_ms_per_query']} ms/query")
    for name, t in [("fixed_t", 16), ("scaled_t", budget_t(n, l_spaces=5))]:
        regime = bench_regime(data, queries, args.k, t, reps)
        report["regimes"][name] = regime
        print(f"  {name:8s} (t={t}): reference {regime['qps_reference']} qps -> "
              f"vectorized {regime['qps_vectorized']} qps "
              f"({regime['speedup']}x, identical={regime['neighbors_identical']}, "
              f"batch_invariant={regime['batch_invariant']})")
    report["speedup"] = report["regimes"]["scaled_t"]["speedup"]

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
