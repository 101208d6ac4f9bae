"""Tier-1 + slow coverage for tools/chaos_sweep.py.

The chaos sweep is CI-critical code (its report feeds the bench gates),
so it is tested like any other module.  Tier-1 runs the smoke sweep —
one deterministic iteration per scenario, seconds — and pins that its
report satisfies its own gate checker.  The slow tier runs the seeded
200-iteration sweep the issue asks for: every admitted request
terminates with an answer or a typed error and the server returns to
ready, across every fault combination the RNG deals.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import chaos_sweep  # noqa: E402
import check_bench_gates as gates  # noqa: E402


def _assert_invariants(report: dict) -> None:
    inv = report["invariants"]
    assert inv["all_requests_terminated"], inv["undetermined_requests"]
    assert inv["answers_bit_identical"], inv["mismatches"]
    assert inv["server_ready_after_each_iteration"], inv["not_ready"]
    assert inv["deadline_overruns"] == []
    assert inv["acked_mutations_survived"], inv["wal_failures"]
    assert inv["zero_orphans"], inv["orphan_pids"]


def test_smoke_sweep_holds_every_invariant(capsys):
    report = chaos_sweep.run_sweep(iterations=0, seed=0,
                                   smoke=True)
    _assert_invariants(report)
    # Smoke mode covers every scenario exactly once.
    assert all(runs == 1 for runs in report["scenarios"].values()), (
        report["scenarios"]
    )
    # The fault hooks actually fired: hangs were killed, deaths were
    # restarted, and the WAL victim died once at every armed fault
    # point (smoke covers the whole matrix, group/segment kills
    # included).
    assert report["counters"]["watchdog_kills"] >= 2  # hang-retry + hang-deadline
    assert report["counters"]["supervision_restarts"] >= 1
    assert (report["counters"]["wal_kills"]
            == len(chaos_sweep.WAL_KILL_POINTS))
    # The report is exactly what the CI gate checker expects.
    assert gates.check_chaos(report) == []


def test_gate_checker_rejects_a_quiet_watchdog():
    """A sweep whose hang scenarios never ran must not pass the gate."""
    report = chaos_sweep.run_sweep(iterations=0, seed=0,
                                   smoke=True)
    report["counters"]["watchdog_kills"] = 0
    assert any("watchdog" in v for v in gates.check_chaos(report))


@pytest.mark.slow
def test_seeded_200_iteration_sweep():
    report = chaos_sweep.run_sweep(iterations=200, seed=0,
                                   smoke=False)
    _assert_invariants(report)
    assert sum(report["scenarios"].values()) == 200
    # 200 seeded draws over 8 scenarios: every scenario ran.
    assert all(runs > 0 for runs in report["scenarios"].values()), (
        report["scenarios"]
    )
    assert gates.check_chaos(report) == []
