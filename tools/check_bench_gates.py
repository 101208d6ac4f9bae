"""CI bench gates: assert the parity/robustness flags in BENCH_*.smoke.json.

Every benchmark smoke run records *correctness flags* next to its
timings — transport parity, crash-recovery exactness, shed accounting.
This checker is the single place those flags become CI gates: one
checker function per benchmark file, each returning a list of
violations (empty = the gate holds), so a red run names every broken
gate at once instead of stopping at the first assert.

Usage::

    python tools/check_bench_gates.py                  # all eight, repo root
    python tools/check_bench_gates.py BENCH_serve.smoke.json [...]

Exit status 0 when every gate in every file holds; 1 otherwise (missing
or unparseable files are violations too — a smoke run that silently
wrote nothing must not pass).  Run from the repo root, or pass paths.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Dict, List

from chaos_sweep import SCENARIOS


def check_query_engine(report: dict) -> List[str]:
    """Both query engines (loop and GEMM) must return identical neighbors
    in every measured regime — the PR 1 equivalence that everything
    downstream (sharding, serving, HTTP) inherits — and the engine's
    answers must not depend on how the queries were split into blocks."""
    violations = [
        f"regime {name}: engines diverged (neighbors_identical is false)"
        for name, regime in report["regimes"].items()
        if not regime["neighbors_identical"]
    ]
    violations += [
        f"regime {name}: answers changed with the query block size "
        f"(batch_invariant is false)"
        for name, regime in report["regimes"].items()
        if not regime["batch_invariant"]
    ]
    return violations


def check_sharding(report: dict) -> List[str]:
    """Sharded answers must agree with unsharded: exact top-k set parity,
    or strictly-no-worse recall (per-shard budgets may verify candidates
    the unsharded budget truncated).  Snapshots must round-trip."""
    violations = [
        f"shards={shards}: worse neighbors than unsharded "
        f"(sets differ and recall {row['recall']} < {report['unsharded_recall']})"
        for shards, row in report["shards"].items()
        if not (row["topk_sets_match_unsharded"]
                or row["recall"] >= report["unsharded_recall"])
    ]
    if not report["snapshot"]["results_identical_after_reload"]:
        violations.append("snapshot: results changed across save/load")
    return violations


def check_build(report: dict) -> List[str]:
    """Bulk builders must answer identically to incremental fit; every
    shard of a sharded fit must equal a standalone fit of its slice;
    snapshots must round-trip."""
    violations = [
        f"n={n}: bulk and incremental builders diverged"
        for n, row in report["single"].items() if not row["answers_identical"]
    ]
    violations += [
        f"shards={shards}: sharded build != standalone shard fits"
        for shards, row in report["sharded"].items()
        if not row["shards_match_standalone"]
    ]
    if not report["snapshot"]["results_identical_after_reload"]:
        violations.append("snapshot: results changed across save/load")
    return violations


def check_serve(report: dict) -> List[str]:
    """Served answers must be bit-identical to the in-process snapshot
    sweep (shared merge planner — any gap is a transport bug); the
    full-budget rows must also match unsharded sets; concurrent clients
    must reassemble exactly; the supervision scenario (SIGKILL + hot
    reload under 4 clients) must hold all four of its flags."""
    violations = []
    for workers, row in report["workers"].items():
        if not row["server_matches_inprocess"]:
            violations.append(
                f"workers={workers}: served answers != in-process snapshot"
            )
        if not row["server_sets_match_unsharded"]:
            violations.append(
                f"workers={workers}: served sets != unsharded query_batch"
            )
    violations += [
        f"workers={workers} (budget=split): served answers != in-process"
        for workers, row in report["workers_budget_split"].items()
        if not row["server_matches_inprocess"]
    ]
    violations += [
        f"clients={clients}: concurrent answers != single-client answers"
        for clients, row in report["concurrent_clients"].items()
        if not row["matches_inprocess"]
    ]
    sup = report["supervision"]
    if not sup["all_answers_bit_identical_to_a_generation"]:
        violations.append(
            f"supervision: answers match neither generation: {sup['failures']}"
        )
    if sup["worker_restarts"] < 1:
        violations.append("supervision: the SIGKILL never exercised a restart")
    if not sup["post_reload_matches_new_snapshot"]:
        violations.append(
            "supervision: post-reload answers != new snapshot's answers"
        )
    if not sup["no_orphans_after_close"]:
        violations.append("supervision: worker processes outlived close()")
    return violations


def check_mutations(report: dict) -> List[str]:
    """A WAL-mutated server must answer exactly like a from-scratch refit
    on the surviving rows — before and after compaction — and a restart
    after an injected mid-append kill must recover exactly the acked
    mutations, nothing more, nothing less.  Group commit must amortize
    fsyncs: 16 concurrent writers >= 3x the insert throughput of one
    serial writer at an injected fsync latency >= 2ms, and the serial
    run must prove it paid one fsync per record (mean group of 1.0)."""
    violations = []
    mut = report["mutations"]
    if not mut["mutation_parity_vs_refit"]:
        violations.append("mutations: mutated server != refit on surviving rows")
    if not mut["post_compaction_parity_vs_refit"]:
        violations.append("mutations: post-compaction answers != refit")
    if not mut["answers_stable_across_compaction"]:
        violations.append("mutations: compaction changed the served neighbors")
    rec = report["recovery"]
    if rec["killed_with_exitcode"] != 9:
        violations.append(
            f"recovery: injected WAL fault exited "
            f"{rec['killed_with_exitcode']}, not SIGKILL's 9"
        )
    if not rec["recovered_exactly_acked"]:
        violations.append("recovery: restart lost or invented acked mutations")
    group = report["group_commit"]
    if group["speedup"] < 3.0:
        violations.append(
            f"group commit: {group['clients']} concurrent writers only "
            f"x{group['speedup']} over one serial writer (>= 3.0 required; "
            f"the bench injects {group['fsync_delay_ms']}ms fsync latency "
            f"into both runs, so this ratio cannot be excused by a fast "
            f"disk)"
        )
    if group["fsync_delay_ms"] < 2.0:
        violations.append(
            f"group commit: bench injected a {group['fsync_delay_ms']}ms "
            f"fsync — the gate is defined at >= 2ms"
        )
    if group["clients"] != 16:
        violations.append(
            f"group commit: bench ran {group['clients']} concurrent "
            f"writers — the gate is defined at 16"
        )
    if group["serial_mean_group_records"] != 1.0:
        violations.append(
            f"group commit: the serial writer's mean group was "
            f"{group['serial_mean_group_records']} records, not 1.0 — the "
            f"baseline did not pay one fsync per record"
        )
    return violations


def check_http(report: dict) -> List[str]:
    """Every cell of the clients × batch-window grid must answer
    bit-identically to the in-process query_batch (micro-batching must
    be invisible in the results), and the overload scenario must have
    shed at least once while dropping zero admitted requests."""
    violations = [
        f"window={window}ms clients={clients}: HTTP answers != in-process "
        f"query_batch ({row['failures'] or 'results diverged'})"
        for window, column in report["grid"].items()
        for clients, row in column.items()
        if not row["matches_inprocess"]
    ]
    over = report["overload"]
    if over["sheds"] < 1:
        violations.append(
            "overload: no request was ever shed — admission control untested"
        )
    if over["dropped_inflight"] != 0:
        violations.append(
            f"overload: {over['dropped_inflight']} admitted requests dropped "
            f"({over['dropped']})"
        )
    if not over["completed_match_inprocess"]:
        violations.append("overload: completed answers != in-process answers")
    return violations


def check_chaos(report: dict) -> List[str]:
    """The chaos sweep's resilience invariants: every admitted request
    terminated with an answer or a typed error, every answer matched the
    in-process reference, the server came back ready after every fault
    iteration, acked mutations survived the WAL kills, nothing leaked a
    process — and the sweep actually exercised the watchdog (a run that
    never killed a hung worker gates nothing).  A smoke sweep is one
    pass over every scenario, so each of ``chaos_sweep.SCENARIOS`` must
    have run at least once: a renamed or dropped scenario cannot fall
    out of the sweep silently."""
    inv = report["invariants"]
    violations = []
    if not inv["all_requests_terminated"]:
        violations.append(
            f"chaos: requests never terminated or failed untyped: "
            f"{inv['undetermined_requests'][:3]}"
        )
    if not inv["answers_bit_identical"]:
        violations.append(
            f"chaos: answers diverged from the in-process reference: "
            f"{inv['mismatches'][:3]}"
        )
    if not inv["server_ready_after_each_iteration"]:
        violations.append(
            f"chaos: server did not return to ready: {inv['not_ready'][:3]}"
        )
    violations += [
        f"chaos: {overrun}" for overrun in inv["deadline_overruns"]
    ]
    if not inv["acked_mutations_survived"]:
        violations.append(
            f"chaos: acked mutations lost: {inv['wal_failures'][:3]}"
        )
    if not inv["zero_orphans"]:
        violations.append(
            f"chaos: orphan processes survived the sweep: {inv['orphan_pids']}"
        )
    if report["counters"]["watchdog_kills"] < 1:
        violations.append(
            "chaos: the watchdog never killed a hung worker — the hang "
            "scenarios did not run"
        )
    if report["config"]["smoke"]:
        runs = report["scenarios"]
        violations += [
            f"chaos: scenario {name} never ran in the smoke sweep"
            for name in SCENARIOS if not runs.get(name)
        ]
    return violations


def check_memory(report: dict) -> List[str]:
    """The arena snapshot's physical claims: a mapped load must allocate
    almost nothing (< 10% of the payload bytes — the copying control,
    ``np.array(copy=True)`` of every member, must allocate ≥ 30%,
    proving the tracemalloc probe measures real copies), the loaded
    arena must answer bit-identically to the fitted index and to the
    served path, and the replica fleet must actually share pages
    (snapshot PSS/RSS < 0.75) whenever the platform can measure it."""
    violations = []
    zero = report["zero_copy"]
    if zero["arena_alloc_fraction"] >= 0.10:
        violations.append(
            f"zero-copy: mapped load allocated "
            f"{zero['arena_alloc_fraction']:.1%} of the payload bytes "
            f"(>= 10% — the arena load is copying)"
        )
    if zero["copy_alloc_fraction"] < 0.30:
        violations.append(
            f"zero-copy: copy control allocated only "
            f"{zero['copy_alloc_fraction']:.1%} of the payload — the "
            f"allocation probe is not measuring copies"
        )
    if not zero["arena_is_mapped"]:
        violations.append("zero-copy: arena load did not report is_mapped")
    parity = report["parity"]
    if not parity["loaded_matches_fitted"]:
        violations.append(
            "parity: the loaded arena and the fitted index answered differently"
        )
    if not parity["served_matches_inprocess"]:
        violations.append(
            "parity: served arena answers != in-process load_index answers"
        )
    sharing = report["sharing"]
    if sharing["available"]:
        if not sharing["all_workers_mapped"]:
            violations.append(
                "sharing: a replica worker served a private copy, not the "
                "mapped arena"
            )
        ratio = sharing["pss_over_rss"]
        if ratio is None or ratio >= 0.75:
            violations.append(
                f"sharing: snapshot PSS/RSS is {ratio} across "
                f"{sharing['servers']} replicas (>= 0.75 — physical pages "
                f"are not shared)"
            )
    return violations


#: filename -> checker; also the default set of files the CI job expects.
CHECKERS: Dict[str, Callable[[dict], List[str]]] = {
    "BENCH_query_engine.smoke.json": check_query_engine,
    "BENCH_sharding.smoke.json": check_sharding,
    "BENCH_build.smoke.json": check_build,
    "BENCH_serve.smoke.json": check_serve,
    "BENCH_mutations.smoke.json": check_mutations,
    "BENCH_http.smoke.json": check_http,
    "BENCH_chaos.smoke.json": check_chaos,
    "BENCH_memory.smoke.json": check_memory,
}


def check_file(path: str) -> List[str]:
    """All violations for one smoke file (missing/corrupt file included)."""
    name = path.rsplit("/", 1)[-1]
    checker = CHECKERS.get(name)
    if checker is None:
        return [f"no gate checker registered for {name!r}"]
    try:
        with open(path) as handle:
            report = json.load(handle)
    except FileNotFoundError:
        return [f"{name}: missing — did the smoke run write it?"]
    except json.JSONDecodeError as exc:
        return [f"{name}: unparseable JSON ({exc})"]
    try:
        return [f"{name}: {violation}" for violation in checker(report)]
    except (KeyError, TypeError) as exc:
        return [
            f"{name}: malformed report — expected field missing ({exc!r}); "
            f"benchmark output schema and gate checker have drifted apart"
        ]


def main(argv: List[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        paths = list(CHECKERS)
    violations = [v for path in paths for v in check_file(path)]
    for violation in violations:
        print(f"GATE FAILED: {violation}", file=sys.stderr)
    if violations:
        print(f"{len(violations)} bench gate(s) failed", file=sys.stderr)
        return 1
    print(f"bench gates OK ({len(paths)} file(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
