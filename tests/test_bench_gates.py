"""Tier-1 coverage for tools/check_bench_gates.py.

The gate checker is first-class code now (it used to be an inline CI
heredoc), so it gets what every other module gets: tests that feed it
known-good and deliberately broken smoke reports and pin down exactly
which violations it raises — plus the file-level failure modes (missing
file, corrupt JSON, schema drift) that an inline heredoc handled with a
bare traceback.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import chaos_sweep  # noqa: E402
import check_bench_gates as gates  # noqa: E402

# ----------------------------------------------------------------------
# Minimal passing fixtures: one per benchmark, just the gated fields.
# ----------------------------------------------------------------------

GOOD = {
    "BENCH_query_engine.smoke.json": {
        "regimes": {
            "easy": {"neighbors_identical": True, "batch_invariant": True},
            "hard": {"neighbors_identical": True, "batch_invariant": True},
        },
    },
    "BENCH_sharding.smoke.json": {
        "unsharded_recall": 0.9,
        "shards": {
            "2": {"topk_sets_match_unsharded": True, "recall": 0.9},
            "4": {"topk_sets_match_unsharded": False, "recall": 0.95},
        },
        "snapshot": {"results_identical_after_reload": True},
    },
    "BENCH_build.smoke.json": {
        "single": {"1000": {"answers_identical": True}},
        "sharded": {"2": {"shards_match_standalone": True}},
        "snapshot": {"results_identical_after_reload": True},
    },
    "BENCH_serve.smoke.json": {
        "workers": {
            "1": {"server_matches_inprocess": True,
                  "server_sets_match_unsharded": True},
        },
        "workers_budget_split": {
            "1": {"server_matches_inprocess": True},
        },
        "concurrent_clients": {
            "2": {"matches_inprocess": True},
        },
        "supervision": {
            "all_answers_bit_identical_to_a_generation": True,
            "worker_restarts": 1,
            "post_reload_matches_new_snapshot": True,
            "no_orphans_after_close": True,
            "failures": [],
        },
    },
    "BENCH_mutations.smoke.json": {
        "mutations": {
            "mutation_parity_vs_refit": True,
            "post_compaction_parity_vs_refit": True,
            "answers_stable_across_compaction": True,
        },
        "recovery": {
            "killed_with_exitcode": 9,
            "recovered_exactly_acked": True,
        },
        "group_commit": {
            "speedup": 7.5,
            "clients": 16,
            "fsync_delay_ms": 2.0,
            "concurrent_qps": 3000.0,
            "serial_qps": 400.0,
            "serial_mean_group_records": 1.0,
        },
    },
    "BENCH_http.smoke.json": {
        "grid": {
            "0": {"1": {"matches_inprocess": True, "failures": []}},
            "2": {"4": {"matches_inprocess": True, "failures": []}},
        },
        "overload": {
            "sheds": 3,
            "dropped_inflight": 0,
            "dropped": [],
            "completed_match_inprocess": True,
        },
    },
    "BENCH_chaos.smoke.json": {
        "config": {"smoke": True},
        "scenarios": {name: 1 for name in chaos_sweep.SCENARIOS},
        "invariants": {
            "all_requests_terminated": True,
            "undetermined_requests": [],
            "answers_bit_identical": True,
            "mismatches": [],
            "server_ready_after_each_iteration": True,
            "not_ready": [],
            "deadline_overruns": [],
            "acked_mutations_survived": True,
            "wal_failures": [],
            "zero_orphans": True,
            "orphan_pids": [],
        },
        "counters": {
            "watchdog_kills": 2,
            "deadline_hits": 3,
            "supervision_restarts": 4,
            "wal_kills": 1,
        },
    },
    "BENCH_memory.smoke.json": {
        "zero_copy": {
            "arena_alloc_fraction": 0.05,
            "copy_alloc_fraction": 1.1,
            "arena_is_mapped": True,
        },
        "parity": {
            "loaded_matches_fitted": True,
            "served_matches_inprocess": True,
        },
        "sharing": {
            "available": True,
            "servers": 4,
            "all_workers_mapped": True,
            "pss_over_rss": 0.25,
        },
    },
}

#: (file, mutation breaking one gate, substring the violation must name)
BREAKS = [
    ("BENCH_query_engine.smoke.json",
     lambda r: r["regimes"]["hard"].update(neighbors_identical=False),
     "engines diverged"),
    ("BENCH_query_engine.smoke.json",
     lambda r: r["regimes"]["easy"].update(batch_invariant=False),
     "query block size"),
    ("BENCH_sharding.smoke.json",
     lambda r: r["shards"]["4"].update(recall=0.5),
     "worse neighbors"),
    ("BENCH_sharding.smoke.json",
     lambda r: r["snapshot"].update(results_identical_after_reload=False),
     "save/load"),
    ("BENCH_build.smoke.json",
     lambda r: r["single"]["1000"].update(answers_identical=False),
     "builders diverged"),
    ("BENCH_build.smoke.json",
     lambda r: r["sharded"]["2"].update(shards_match_standalone=False),
     "standalone shard fits"),
    ("BENCH_serve.smoke.json",
     lambda r: r["workers"]["1"].update(server_matches_inprocess=False),
     "in-process snapshot"),
    ("BENCH_serve.smoke.json",
     lambda r: r["workers_budget_split"]["1"].update(
         server_matches_inprocess=False),
     "budget=split"),
    ("BENCH_serve.smoke.json",
     lambda r: r["concurrent_clients"]["2"].update(matches_inprocess=False),
     "concurrent answers"),
    ("BENCH_serve.smoke.json",
     lambda r: r["supervision"].update(worker_restarts=0),
     "never exercised a restart"),
    ("BENCH_serve.smoke.json",
     lambda r: r["supervision"].update(no_orphans_after_close=False),
     "outlived close()"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["mutations"].update(mutation_parity_vs_refit=False),
     "refit"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["recovery"].update(killed_with_exitcode=1),
     "exited 1"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["recovery"].update(recovered_exactly_acked=False),
     "lost or invented"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["group_commit"].update(speedup=1.2),
     "only x1.2"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["group_commit"].update(fsync_delay_ms=0.5),
     "0.5ms fsync"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["group_commit"].update(clients=4),
     "ran 4 concurrent writers"),
    ("BENCH_mutations.smoke.json",
     lambda r: r["group_commit"].update(serial_mean_group_records=1.5),
     "not 1.0"),
    ("BENCH_http.smoke.json",
     lambda r: r["grid"]["2"]["4"].update(matches_inprocess=False),
     "window=2ms clients=4"),
    ("BENCH_http.smoke.json",
     lambda r: r["overload"].update(sheds=0),
     "admission control untested"),
    ("BENCH_http.smoke.json",
     lambda r: r["overload"].update(dropped_inflight=2, dropped=["x", "y"]),
     "2 admitted requests dropped"),
    ("BENCH_http.smoke.json",
     lambda r: r["overload"].update(completed_match_inprocess=False),
     "completed answers"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["invariants"].update(
         all_requests_terminated=False,
         undetermined_requests=["iter3/hang-deadline: untyped KeyError"]),
     "never terminated or failed untyped"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["invariants"].update(
         server_ready_after_each_iteration=False,
         not_ready=["iter5/worker-die: post-fault probe did not answer"]),
     "did not return to ready"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["invariants"].update(
         deadline_overruns=["iter2/hang-deadline: typed failure took 9.00s"]),
     "typed failure took"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["invariants"].update(zero_orphans=False,
                                      orphan_pids=[4242]),
     "orphan processes"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["invariants"].update(
         acked_mutations_survived=False,
         wal_failures=["iter7/wal-kill: acked insert 700 lost"]),
     "acked mutations lost"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["counters"].update(watchdog_kills=0),
     "watchdog never killed"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["scenarios"].update({"hang-deadline": 0}),
     "scenario hang-deadline never ran"),
    ("BENCH_chaos.smoke.json",
     lambda r: r["scenarios"].pop("hang-deadline"),
     "hang-deadline never ran in the smoke sweep"),
    ("BENCH_memory.smoke.json",
     lambda r: r["zero_copy"].update(arena_alloc_fraction=0.5),
     "the arena load is copying"),
    ("BENCH_memory.smoke.json",
     lambda r: r["zero_copy"].update(copy_alloc_fraction=0.01),
     "probe is not measuring copies"),
    ("BENCH_memory.smoke.json",
     lambda r: r["parity"].update(loaded_matches_fitted=False),
     "answered differently"),
    ("BENCH_memory.smoke.json",
     lambda r: r["parity"].update(served_matches_inprocess=False),
     "served arena answers"),
    ("BENCH_memory.smoke.json",
     lambda r: r["sharing"].update(pss_over_rss=0.98),
     "physical pages are not shared"),
    ("BENCH_memory.smoke.json",
     lambda r: r["sharing"].update(all_workers_mapped=False),
     "private copy"),
]


def test_every_benchmark_has_a_checker_and_a_good_fixture():
    assert set(GOOD) == set(gates.CHECKERS)


def test_good_fixtures_pass_every_checker():
    for name, report in GOOD.items():
        assert gates.CHECKERS[name](report) == [], name


@pytest.mark.parametrize(
    "name,mutate,expected", BREAKS,
    ids=[f"{n.split('.')[0][6:]}-{s[:18]}" for n, _, s in BREAKS],
)
def test_broken_fixture_raises_the_named_violation(name, mutate, expected):
    report = copy.deepcopy(GOOD[name])
    mutate(report)
    violations = gates.CHECKERS[name](report)
    assert violations, f"{name}: broken report produced no violation"
    assert any(expected in v for v in violations), violations


def test_memory_sharing_gate_skipped_when_smaps_unavailable():
    """Platforms without smaps record available=False; the sharing gate
    must skip rather than fail on counters that are all zero."""
    report = copy.deepcopy(GOOD["BENCH_memory.smoke.json"])
    report["sharing"].update(
        available=False, all_workers_mapped=False, pss_over_rss=None
    )
    assert gates.CHECKERS["BENCH_memory.smoke.json"](report) == []


def test_chaos_scenario_coverage_is_gated_on_smoke_runs_only():
    """A full sweep draws scenarios at random, so a short one may miss
    some; only the one-pass smoke sweep promises every scenario ran."""
    report = copy.deepcopy(GOOD["BENCH_chaos.smoke.json"])
    report["config"]["smoke"] = False
    report["scenarios"]["hang-deadline"] = 0
    assert gates.CHECKERS["BENCH_chaos.smoke.json"](report) == []


def test_one_break_means_exactly_one_violation():
    """Gates are independent: breaking one flag does not cascade."""
    report = copy.deepcopy(GOOD["BENCH_serve.smoke.json"])
    report["supervision"]["worker_restarts"] = 0
    assert len(gates.CHECKERS["BENCH_serve.smoke.json"](report)) == 1


def test_multiple_breaks_are_all_reported():
    report = copy.deepcopy(GOOD["BENCH_http.smoke.json"])
    report["overload"].update(sheds=0, completed_match_inprocess=False)
    report["grid"]["0"]["1"]["matches_inprocess"] = False
    assert len(gates.CHECKERS["BENCH_http.smoke.json"](report)) == 3


# ----------------------------------------------------------------------
# File-level behavior (check_file + main)
# ----------------------------------------------------------------------


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_check_file_passes_and_fails_on_disk(tmp_path):
    good = _write(tmp_path, "BENCH_http.smoke.json",
                  GOOD["BENCH_http.smoke.json"])
    assert gates.check_file(good) == []
    broken = copy.deepcopy(GOOD["BENCH_http.smoke.json"])
    broken["overload"]["sheds"] = 0
    bad = _write(tmp_path, "BENCH_http.smoke.json", broken)
    violations = gates.check_file(bad)
    assert len(violations) == 1
    assert violations[0].startswith("BENCH_http.smoke.json:")


def test_check_file_missing_corrupt_and_unknown(tmp_path):
    missing = gates.check_file(str(tmp_path / "BENCH_serve.smoke.json"))
    assert missing and "missing" in missing[0]
    corrupt = tmp_path / "BENCH_serve.smoke.json"
    corrupt.write_text("{not json")
    assert "unparseable" in gates.check_file(str(corrupt))[0]
    unknown = gates.check_file(str(tmp_path / "BENCH_novel.smoke.json"))
    assert "no gate checker" in unknown[0]


def test_check_file_reports_schema_drift_not_traceback(tmp_path):
    path = _write(tmp_path, "BENCH_serve.smoke.json", {"workers": {}})
    violations = gates.check_file(path)
    assert violations and "drifted" in violations[0]


def test_main_exit_codes(tmp_path, capsys):
    paths = [_write(tmp_path, name, report) for name, report in GOOD.items()]
    assert gates.main(paths) == 0
    assert f"bench gates OK ({len(GOOD)} file(s))" in capsys.readouterr().out

    broken = copy.deepcopy(GOOD["BENCH_mutations.smoke.json"])
    broken["recovery"]["recovered_exactly_acked"] = False
    paths[-3] = _write(tmp_path, "BENCH_mutations.smoke.json", broken)
    assert gates.main(paths) == 1
    err = capsys.readouterr().err
    assert "GATE FAILED" in err and "lost or invented" in err


def test_main_default_set_requires_all_files(tmp_path, monkeypatch, capsys):
    """No arguments = the full CI set; absent files are violations."""
    monkeypatch.chdir(tmp_path)
    assert gates.main([]) == 1
    assert capsys.readouterr().err.count("missing") == len(gates.CHECKERS)


# ----------------------------------------------------------------------
# The committed full runs, through the same gates
# ----------------------------------------------------------------------

#: Committed full reports that have a checker (keyed by their smoke name).
FULL_RUNS = sorted(
    path.name for path in REPO.glob("BENCH_*.json")
    if path.name.replace(".json", ".smoke.json") in gates.CHECKERS
)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="workers=4: served sets != unsharded query_batch"))
    if name == "BENCH_serve.json" else name
    for name in FULL_RUNS
])
def test_committed_full_run_passes_its_gate(name):
    report = json.loads((REPO / name).read_text())
    assert gates.CHECKERS[name.replace(".json", ".smoke.json")](report) == []


# ----------------------------------------------------------------------
# Real smoke runs of the benchmark scripts, through their gates
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "script,checker",
    [("bench_query_engine", gates.check_query_engine), ("bench_build", gates.check_build)],
)
def test_smoke_run_passes_its_gate(script, checker, tmp_path):
    """The scripts themselves (not just fixtures) must produce reports
    whose parity gates hold: the engine agrees with the per-candidate
    reference, and the array-native build with the pointer tree."""
    spec = importlib.util.spec_from_file_location(
        f"smoke_{script}", REPO / "benchmarks" / f"{script}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / f"{script}.smoke.json"
    assert module.main(["--smoke", "--out", str(out)]) == 0
    assert checker(json.loads(out.read_text())) == []
