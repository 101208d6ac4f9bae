"""Pinned end-to-end benchmark of the DB-LSH query stack.

One pinned index shape (n, d, k, L, K, t, shards below) is served
over HTTP in two traffic mixes, one per ``--workload``:

``http``
    A read-only ``SnapshotServer`` (one worker process per shard) behind
    ``HttpGateway``: ``HTTP_CLIENTS`` keep-alive clients in a closed
    loop, one query per ``POST /query``, so the gateway's micro-batcher
    coalesces them.
``http-rw``
    The ``http`` read traffic against a ``MutableSnapshotServer`` whose
    delta and tombstones are filled before the window, plus ``WRITERS``
    open-loop HTTP writers: every query also sweeps the delta and
    filters tombstones, and every write waits for a WAL group fsync
    that the writers due at the same instant share.

Where the traffic comes from:

* 4 query clients, as in ``benchmarks/bench_serve.py``'s supervision run.
* 16 concurrent writers, as in ``benchmarks/bench_mutations.py``'s
  group-commit section.  Writer ``w`` has one write due every
  ``WRITE_PERIOD`` seconds, all writers on the same instants, so each
  burst arrives together as those 16 writers do there.  The period is
  chosen, not observed: no workload in the repository fixes a rate.
* One delete per four inserts: ``evaluate_mutable_workload``'s default
  ``delete_fraction=0.25``, deleting rows inserted earlier.
* The pending mutations filled before the window are half the mutable
  server's default count trigger (``compact_threshold=4096``), the mean
  pending count between two count-triggered compactions.  Compaction is
  off inside the window, so the state measured stays that one.

Usage, from the repository root::

    python3 perfbench/run.py --workload http --seed 1 --seconds 10 --trace 0

The indexed data is pinned; the seed draws the query pool, the written
points and which rows are deleted.  The program only sees those inputs.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to
end; with ``--trace 1`` the run records spans around the benchmark's own
calls into each layer and reports per-layer figures instead.  Sample
counts and the http-rw write figures (ack time from the due instant,
generator lateness) go to stderr.  Answers are checked on every run:
served ones must be bit-identical to the in-process index, and mutable
ones exact against the live point set.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

N = 20_000
DIM = 50
K = 10
L_SPACES = 5
K_PER_SPACE = 10
SHARDS = 2
# Verification budget 2tL matched to 8% of n, as the repository's
# Table IV benchmarks size it.
T = math.ceil(0.08 * N / (2 * L_SPACES))
CLUSTERS = 20
DATA_SEED = 0
POOL = 512  # held-out queries per seed, cycled through during the run
HTTP_CLIENTS = 4
SETUP_REPS = 11
QPS_BLOCK = 100  # answers per block of the steady throughput
WARMUP_QUERIES = 64
WRITERS = 16
WRITE_PERIOD = 0.25  # seconds between one writer's due instants
DELETE_EVERY = 5  # write g is a delete when g % 5 == 4: 1 delete per 4 inserts
PREFILL_INSERTS = 1640  # with their 410 deletes: 2050 pending before the window
PREFILL_DELETES = PREFILL_INSERTS // (DELETE_EVERY - 1)
MAX_SECONDS = 60
MAX_WRITES = WRITERS * int(MAX_SECONDS / WRITE_PERIOD)
SWEEP_CHUNK = 64  # final-sweep queries per POST, below the shm threshold
RECALL_FLOOR = 0.5
HTTP_TIMEOUT = 60.0

WORKLOADS = ("http", "http-rw")


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _import_repro() -> None:
    """Import the package from this checkout's ``src``, never elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro resolved to {repro.__file__}, not {SRC}")


def _tail(values):
    """(percentile, value) at the highest of p99/p95/p90 with at least
    ten samples beyond it, else the maximum."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return 100, max(values)


def steady_qps(finished, window) -> float:
    """Median rate over consecutive blocks of QPS_BLOCK answers.

    A median of block rates, not answers over the whole window, so a few
    seconds in which the host lent the CPUs elsewhere do not set it.
    """
    start, end = window
    times = sorted(t for t in finished if start <= t <= end)
    rates = [QPS_BLOCK / (times[i + QPS_BLOCK] - times[i])
             for i in range(0, len(times) - QPS_BLOCK, QPS_BLOCK)]
    return statistics.median(rates) if rates else len(times) / (end - start)


def _describe(name: str, seconds) -> str:
    if not seconds:
        return f"{name}: no samples"
    pct, value = _tail(seconds)
    return (f"{name}: median {statistics.median(seconds) * 1e3:.2f} ms, "
            f"p{pct} {value * 1e3:.2f} ms over {len(seconds)} samples")


# ----------------------------------------------------------------------
# Inputs and reference answers (benchmark-owned, independent of repro)
# ----------------------------------------------------------------------


def make_inputs(seed: int, np):
    """Indexed data, then queries, points to insert and deletion order.

    The indexed data is pinned (``DATA_SEED``) so every seed measures the
    same index; the seed draws the query pool and the writes from the
    same mixture, and the order in which prefilled inserts are deleted.
    """

    def draw(rng, centers, count):
        labels = rng.integers(0, CLUSTERS, size=count)
        return centers[labels] + rng.standard_normal((count, DIM))

    pinned = np.random.default_rng(DATA_SEED)
    centers = pinned.standard_normal((CLUSTERS, DIM)) * 10.0
    data = draw(pinned, centers, N)
    rng = np.random.default_rng(seed)
    queries = draw(rng, centers, POOL)
    points = draw(rng, centers, PREFILL_INSERTS + MAX_WRITES)
    doomed = rng.permutation(PREFILL_INSERTS)  # indexes into points
    return data, queries, points, doomed


def exact_knn(queries, rows, ids, np):
    """Exact k nearest neighbours among ``rows`` (labelled ``ids``) per query."""
    norms = np.einsum("ij,ij->i", rows, rows)
    out = []
    for start in range(0, queries.shape[0], 128):
        block = queries[start : start + 128]
        d2 = norms[None, :] - 2.0 * (block @ rows.T)
        for query, cols in zip(block, np.argpartition(d2, K - 1, axis=1)[:, :K]):
            dist = np.sqrt(((rows[cols] - query) ** 2).sum(axis=1))
            out.append([int(ids[c]) for c in cols[np.argsort(dist, kind="stable")]])
    return out


def recall(answers, truth) -> float:
    hits = sum(len(set(a) & set(t)) for a, t in zip(answers, truth))
    return hits / float(K * len(truth))


def answer_is_exact(ids, dists, query, vectors, np) -> bool:
    """k distinct ids, ascending distances, each the true distance."""
    if len(ids) != K or len(set(ids)) != K:
        return False
    if any(b < a for a, b in zip(dists, dists[1:])):
        return False
    rows = np.array([vectors[i] for i in ids])
    true = np.sqrt(((rows - query) ** 2).sum(axis=1))
    return bool(np.allclose(dists, true, rtol=1e-9, atol=1e-9))


# ----------------------------------------------------------------------
# Tracing: spans around the benchmark's calls into the layer below
# ----------------------------------------------------------------------


class Spans:
    """Backend-call spans of the timed window and the work their answers carry.

    Every client request holds one query; every request in a backend
    call waits for the whole call.
    """

    def __init__(self) -> None:
        self.active = False
        self._lock = threading.Lock()
        # (seconds, queries, candidates, distances, rounds, budget stops)
        self.calls = []

    def record(self, seconds: float, results) -> None:
        if not self.active:
            return
        row = (
            seconds,
            len(results),
            sum(r.stats.candidates_verified for r in results),
            sum(r.stats.distance_computations for r in results),
            sum(r.stats.rounds for r in results),
            sum("budget" in r.stats.terminated_by for r in results),
        )
        with self._lock:
            self.calls.append(row)


class TracedBackend:
    """Forwards to the layer below, timing every ``query_batch`` call.

    Exposes what ``HttpGateway`` reads from a server (``dim``,
    ``status`` and, only when the wrapped server has them, the mutation
    verbs), so the gateway serves it exactly as the bare server.
    """

    def __init__(self, inner, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans
        self.dim = inner.dim
        if hasattr(inner, "insert"):
            self.insert = inner.insert
            self.delete = inner.delete
            self.compact = inner.compact

    def status(self):
        return self._inner.status()

    def query_batch(self, queries, k=1, **kwargs):
        started = time.perf_counter()
        results = self._inner.query_batch(queries, k, **kwargs)
        self._spans.record(time.perf_counter() - started, results)
        return results


# ----------------------------------------------------------------------
# Set-up: build, persist, serve
# ----------------------------------------------------------------------


class Stack:
    """What one set-up produced; ``close`` stops every thread and process."""

    def __init__(self) -> None:
        self.snapshot = None
        self.server = None
        self.gateway = None

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
        if self.server is not None:
            self.server.close()
        self.gateway = self.server = None


def build_stack(workload: str, data, workdir: str, rep: int, spans) -> Stack:
    from repro import ShardedDBLSH
    from repro.io import save_index
    from repro.serve import HttpGateway, MutableSnapshotServer, SnapshotServer

    stack = Stack()
    try:
        index = ShardedDBLSH(
            shards=SHARDS, c=1.5, l_spaces=L_SPACES, k_per_space=K_PER_SPACE,
            t=T, seed=0, auto_initial_radius=True,
        ).fit(data)
        stack.snapshot = os.path.join(workdir, f"index{rep}.npz")
        save_index(index, stack.snapshot)
        if workload == "http-rw":
            # No compaction: a background fold inside the window would be
            # a one-off stall, not the steady read/write state measured.
            stack.server = MutableSnapshotServer(
                stack.snapshot, wal_path=os.path.join(workdir, f"index{rep}.wal"),
                compact_threshold=0,
            ).start()
        else:
            stack.server = SnapshotServer(stack.snapshot).start()
        backend = stack.server if spans is None else TracedBackend(stack.server, spans)
        stack.gateway = HttpGateway(backend).start()
        return stack
    except BaseException:
        stack.close()
        raise


def set_up(workload: str, data, workdir: str, spans):
    """Median seconds of SETUP_REPS full set-ups; keeps the last stack."""
    seconds = []
    stack = None
    for rep in range(SETUP_REPS):
        if stack is not None:
            stack.close()
        started = time.perf_counter()
        stack = build_stack(workload, data, workdir, rep, spans)
        seconds.append(time.perf_counter() - started)
    _log(f"set-up seconds: {[round(s, 3) for s in seconds]}")
    return stack, statistics.median(seconds)


class LiveSet:
    """The benchmark's own record of the served point set."""

    def __init__(self, data) -> None:
        self.vectors = dict(enumerate(data))  # id -> point, deleted ones too
        self.prefilled = []  # id of each prefilled insert, by point index
        self.deleted = []  # ids acked by delete, in ack order


def _in_threads(count: int, target) -> None:
    """Run ``target(w)`` for w in range(count) on threads; re-raise the first error."""
    errors = []

    def guarded(w):
        try:
            target(w)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def prefill(server, points, doomed, live: LiveSet) -> None:
    """Before the window: PREFILL_INSERTS inserts, then PREFILL_DELETES
    of them deleted, each from WRITERS threads so they share group fsyncs."""
    ids = [None] * PREFILL_INSERTS

    def insert(w):
        for i in range(w, PREFILL_INSERTS, WRITERS):
            ids[i] = server.insert(points[i])

    def delete(w):
        for i in doomed[w:PREFILL_DELETES:WRITERS]:
            if not server.delete(ids[i]):
                raise RuntimeError(f"prefill: delete of {ids[i]} was not applied")

    _in_threads(WRITERS, insert)
    for i, point_id in enumerate(ids):
        live.vectors[point_id] = points[i]
    live.prefilled = ids
    _in_threads(WRITERS, delete)
    live.deleted.extend(ids[i] for i in doomed[:PREFILL_DELETES])


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------


class Outcome:
    """Everything the timed window produced, checked after it ends."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies = []  # seconds per answered query request
        self.finished = []  # perf_counter instant of each answer
        self.window = (0.0, 0.0)  # instants the query clients sent in
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.answers = []  # (pool index, answer, deletes acked at send)
        self.write_acks = []  # seconds from due instant to ack
        self.write_lateness = []  # seconds from due instant to send

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)


def _connect(port: int):
    return http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)


def _post(conn, path: str, body: bytes):
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def run_http(port: int, bodies, seconds: float, outcome: Outcome, deleted=None) -> None:
    """HTTP_CLIENTS keep-alive clients, closed loop, one query per POST.

    Client ``c`` starts at pool offset ``c * POOL / HTTP_CLIENTS``.
    ``deleted`` (http-rw) is the writers' list of acked deletes; its
    length at send time bounds which ids an answer may no longer hold.
    """
    began = time.perf_counter()
    deadline = began + seconds

    def client(c: int) -> None:
        conn = _connect(port)
        latencies, finished, answers, sent_count = [], [], [], 0
        i = c * POOL // HTTP_CLIENTS
        try:
            while time.perf_counter() < deadline:
                q = i % POOL
                i += 1
                acked = len(deleted) if deleted is not None else 0
                sent_count += 1
                sent = time.perf_counter()
                try:
                    status, raw = _post(conn, "/query", bodies[q])
                except (OSError, http.client.HTTPException) as exc:
                    outcome.fail(f"query {q}: {exc!r}")
                    conn.close()
                    conn = _connect(port)
                    continue
                done = time.perf_counter()
                if status != 200:
                    outcome.fail(f"query {q}: HTTP {status}: {raw[:200]!r}")
                    continue
                latencies.append(done - sent)
                finished.append(done)
                answers.append((q, raw, acked))
        finally:
            conn.close()
            with outcome.lock:
                outcome.latencies.extend(latencies)
                outcome.finished.extend(finished)
                outcome.answers.extend(answers)
                outcome.queries += len(answers)
                outcome.attempted += sent_count

    threads = [threading.Thread(target=client, args=(c,)) for c in range(HTTP_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.window = (began, deadline)


def run_writers(port: int, points, doomed, seconds: float, outcome: Outcome,
                live: LiveSet) -> None:
    """WRITERS open-loop writers on one schedule, one connection each.

    Write ``g = j * WRITERS + w`` is writer ``w``'s ``j``-th, due
    ``j * WRITE_PERIOD`` seconds in.  It deletes the next prefilled
    insert in ``doomed`` order when ``g % DELETE_EVERY`` is the last
    residue, and inserts the next held-out point otherwise.  Ack time
    runs from the due instant, so a writer still waiting on its last
    reply makes its next write late and that wait is counted.
    """
    began = time.perf_counter()
    bursts = math.ceil(seconds / WRITE_PERIOD)

    def writer(w: int) -> None:
        conn = _connect(port)
        acks, lateness = [], []
        try:
            for j in range(bursts):
                due = began + j * WRITE_PERIOD
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                g = j * WRITERS + w
                victim = None
                if g % DELETE_EVERY == DELETE_EVERY - 1:
                    victim = live.prefilled[doomed[PREFILL_DELETES + g // DELETE_EVERY]]
                    path, body = "/delete", json.dumps({"id": victim}).encode()
                else:
                    point = points[PREFILL_INSERTS + g - g // DELETE_EVERY]
                    path, body = "/insert", json.dumps({"point": point.tolist()}).encode()
                with outcome.lock:
                    outcome.attempted += 1
                lateness.append(time.perf_counter() - due)
                try:
                    status, raw = _post(conn, path, body)
                except (OSError, http.client.HTTPException) as exc:
                    outcome.fail(f"{path}: {exc!r}")
                    conn.close()
                    conn = _connect(port)
                    continue
                if status != 200:
                    outcome.fail(f"{path}: HTTP {status}: {raw[:200]!r}")
                    continue
                acked = time.perf_counter() - due
                reply = json.loads(raw)
                if victim is None:
                    live.vectors[reply["id"]] = point
                elif reply.get("deleted") is True:
                    live.deleted.append(victim)
                else:
                    outcome.fail(f"delete {victim}: not applied: {reply}")
                    continue
                acks.append(acked)
        finally:
            conn.close()
            with outcome.lock:
                outcome.write_acks.extend(acks)
                outcome.write_lateness.extend(lateness)

    _in_threads(WRITERS, writer)


# ----------------------------------------------------------------------
# Checks and figures
# ----------------------------------------------------------------------


def final_sweep(stack, queries, live: LiveSet, np):
    """After the window: every pool query over HTTP, scored exactly
    against the live set (snapshot + inserts - deletes)."""
    gone = set(live.deleted)
    ids = [i for i in live.vectors if i not in gone]
    truth = exact_knn(queries, np.array([live.vectors[i] for i in ids]), ids, np)
    rows = []
    conn = _connect(stack.gateway.port)
    try:
        for start in range(0, POOL, SWEEP_CHUNK):
            block = queries[start : start + SWEEP_CHUNK]
            body = json.dumps({"queries": block.tolist(), "k": K}).encode()
            status, raw = _post(conn, "/query", body)
            if status != 200:
                _log(f"final sweep: HTTP {status}: {raw[:200]!r}")
                return 0.0, False
            rows.extend(json.loads(raw)["results"])
    finally:
        conn.close()
    ok = all(
        not gone.intersection(row["ids"])
        and answer_is_exact(row["ids"], row["distances"], q, live.vectors, np)
        for row, q in zip(rows, queries)
    )
    ok &= stack.server.status()["live_points"] == len(ids)
    return recall([row["ids"] for row in rows], truth), ok


def layer_metrics(spans: Spans, outcome: Outcome, server, groups_before: int) -> dict:
    """Per-layer figures from the window's backend-call spans.

    ``front_ms`` is the part of a request spent above the backend call
    (client, parse, admission wait, batch window and encode), as the
    mean request latency minus the mean time a request waited inside
    its backend call.
    """
    calls = spans.calls
    queries = sum(c[1] for c in calls)
    backend_ms = sum(c[0] * c[1] for c in calls) / queries * 1e3
    writes = len(outcome.write_acks)
    if hasattr(server, "insert"):
        status = server.status()
        groups = status["wal_groups_committed"] - groups_before
        sweep_share = status["sweep_overhead_ema"]
    else:
        groups, sweep_share = 0, 0.0
    return {
        "front_ms": (statistics.fmean(outcome.latencies) * 1e3 - backend_ms, "ms"),
        "backend_ms": (backend_ms, "ms"),
        "backend_ms_per_query": (sum(c[0] for c in calls) / queries * 1e3, "ms"),
        "batch_queries": (queries / len(calls), "count"),
        "candidates_per_query": (sum(c[2] for c in calls) / queries, "count"),
        "distances_per_query": (sum(c[3] for c in calls) / queries, "count"),
        "rounds_per_query": (sum(c[4] for c in calls) / queries, "count"),
        "budget_stop_share": (sum(c[5] for c in calls) / queries, "ratio"),
        "delta_sweep_share": (sweep_share, "ratio"),
        "writes_acked": (writes, "count"),
        "writes_per_fsync": (writes / groups if groups else 0.0, "count"),
    }


def run(args) -> dict:
    import numpy as np

    from repro.io import load_index

    data, queries, points, doomed = make_inputs(args.seed, np)
    live = LiveSet(data)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    spans = Spans() if args.trace else None
    stack = None
    try:
        stack, setup_s = set_up(args.workload, data, workdir, spans)
        outcome = Outcome()
        correct = True
        groups_before = 0
        if args.workload == "http":
            expected = load_index(stack.snapshot).query_batch(queries, K)
            correct = all(answer_is_exact(r.ids, r.distances, q, live.vectors, np)
                          for r, q in zip(expected, queries))
            answer_recall = recall([r.ids for r in expected],
                                   exact_knn(queries, data, range(N), np))
        else:
            started = time.perf_counter()
            prefill(stack.server, points, doomed, live)
            _log(f"prefill: {PREFILL_INSERTS} inserts + {PREFILL_DELETES} deletes "
                 f"in {time.perf_counter() - started:.2f}s")
            groups_before = stack.server.status()["wal_groups_committed"]
        bodies = [json.dumps({"query": q.tolist(), "k": K}).encode() for q in queries]
        conn = _connect(stack.gateway.port)
        try:
            for body in bodies[:WARMUP_QUERIES]:
                status, raw = _post(conn, "/query", body)
                if status != 200:
                    raise RuntimeError(f"warm-up query: HTTP {status}: {raw!r}")
        finally:
            conn.close()

        if spans is not None:
            spans.active = True
        if args.workload == "http":
            run_http(stack.gateway.port, bodies, args.seconds, outcome)
        else:
            writer_errors = []

            def write():
                try:
                    run_writers(stack.gateway.port, points, doomed, args.seconds,
                                outcome, live)
                except BaseException as exc:  # re-raised once the readers finish
                    writer_errors.append(exc)

            writers = threading.Thread(target=write)
            writers.start()
            try:
                run_http(stack.gateway.port, bodies, args.seconds, outcome, live.deleted)
            finally:
                writers.join()
            if writer_errors:
                raise writer_errors[0]
        if spans is not None:
            spans.active = False
        _log(f"{outcome.attempted} requests ({outcome.failed} failed), "
             f"{outcome.queries} queries")
        _log(_describe("query latency", outcome.latencies))
        if args.workload == "http-rw":
            _log(_describe("write ack from due instant", outcome.write_acks))
            _log(_describe("writer lateness", outcome.write_lateness)
                 + f", max {max(outcome.write_lateness) * 1e3:.2f} ms")
        for error in outcome.errors:
            _log(f"failure: {error}")

        if args.workload == "http":
            for q, raw, _ in outcome.answers:
                row = json.loads(raw)["results"][0]
                correct &= row["ids"] == expected[q].ids
                correct &= row["distances"] == expected[q].distances
        else:
            for q, raw, acked in outcome.answers:
                row = json.loads(raw)["results"][0]
                correct &= not set(live.deleted[:acked]).intersection(row["ids"])
                correct &= answer_is_exact(row["ids"], row["distances"], queries[q],
                                           live.vectors, np)
            answer_recall, swept_ok = final_sweep(stack, queries, live, np)
            correct &= swept_ok
        correct &= answer_recall >= RECALL_FLOOR and outcome.failed == 0
        if not correct:
            _log("correctness check FAILED")

        if spans is not None:
            metrics = layer_metrics(spans, outcome, stack.server, groups_before)
        else:
            latencies = outcome.latencies
            metrics = {
                "latency_ms": (statistics.median(latencies) * 1e3, "ms"),
                "latency_p95_ms": (statistics.quantiles(latencies, n=100)[94] * 1e3, "ms"),
                "qps": (steady_qps(outcome.finished, outcome.window), "1/s"),
                "recall": (answer_recall, "ratio"),
                "setup_s": (setup_s, "s"),
            }
        return {
            "correct": bool(correct),
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        if stack is not None:
            stack.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still holds its own directory there


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    _import_repro()
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
