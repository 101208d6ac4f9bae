"""Fault-injection tests for serving supervision (`repro.serve`).

The supervision contract (two dispatch attempts per request):

* a worker that **dies** mid-query is restarted from its snapshot shard
  and the affected query block is re-scattered once — the caller gets
  the correct answers **exactly once**, bit-identical to
  ``load_index(path).query_batch(...)``, and never sees the failure;
* a worker that dies **twice** for one request exhausts both attempts
  and surfaces the existing :class:`~repro.serve.ServerError`, naming
  the worker and its exit code;
* every scenario ends with **no orphan worker processes** — the
  restarted incarnations included.

Deterministically killing a worker *mid-request* (after the scatter, so
the coordinator is already waiting on its pipe) needs cooperation from
the worker itself: the ``REPRO_SERVE_FAULT`` one-shot hooks documented
in :mod:`repro.serve.worker` arm a specific (shard, spawn) incarnation
to exit on its next query.  ``os.kill`` from the test covers the
between-requests death.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import ShardedDBLSH
from repro.data.generators import gaussian_mixture
from repro.io import load_index, save_index
from repro.serve import ServerError, SnapshotServer

COMMON = dict(
    c=1.5, l_spaces=3, k_per_space=6, t=32, seed=0, auto_initial_radius=True
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _assert_all_dead(pids, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids):
        assert time.monotonic() < deadline, (
            f"orphan worker processes: {[p for p in pids if _alive(p)]}"
        )
        time.sleep(0.05)


def _same(results, expected) -> bool:
    return len(results) == len(expected) and all(
        r.ids == e.ids and r.distances == e.distances
        for r, e in zip(results, expected)
    )


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(900, 12, n_clusters=5, seed=11)
    rng = np.random.default_rng(13)
    queries = data[rng.choice(900, 6, replace=False)] + 0.02
    return data, queries


@pytest.fixture(scope="module")
def snapshot_path(workload, tmp_path_factory):
    data, _ = workload
    path = str(tmp_path_factory.mktemp("faults") / "sharded.npz")
    save_index(ShardedDBLSH(shards=2, **COMMON).fit(data), path)
    return path


@pytest.fixture(scope="module")
def expected(workload, snapshot_path):
    _, queries = workload
    return load_index(snapshot_path).query_batch(queries, k=5)


class TestSigkillRecovery:
    def test_sigkill_between_requests_recovers_bit_identical(
            self, workload, snapshot_path, expected):
        _, queries = workload
        server = SnapshotServer(snapshot_path, query_timeout=30).start()
        seen_pids = set(server.worker_pids)
        try:
            victim = server.worker_pids[1]
            os.kill(victim, 9)
            got = server.query_batch(queries, k=5)
            # Exactly once, and exactly right: the retry's answers are
            # the answers, not a duplicate or a partial set.
            assert _same(got, expected)
            assert server.status()["restarts"] == 1
            assert victim not in server.worker_pids
            seen_pids |= set(server.worker_pids)
            # The server is healthy, not limping: next query needs no retry.
            assert _same(server.query_batch(queries, k=5), expected)
            assert server.status()["restarts"] == 1
            assert server.serving
        finally:
            server.close()
        _assert_all_dead(seen_pids)

    def test_status_tracks_restart(self, workload, snapshot_path, expected):
        _, queries = workload
        server = SnapshotServer(snapshot_path, query_timeout=30).start()
        seen_pids = set(server.worker_pids)
        try:
            os.kill(server.worker_pids[0], 9)
            assert _same(server.query_batch(queries, k=5), expected)
            status = server.status()
            assert status["serving"] is True
            assert status["restarts"] == 1
            assert [w["state"] for w in status["workers"]] == ["ready", "ready"]
            # The restarted slot records its incarnation count.
            assert [w["spawn"] for w in status["workers"]] == [1, 0]
            seen_pids |= {w["pid"] for w in status["workers"]}
        finally:
            server.close()
        _assert_all_dead(seen_pids)


class TestMidQueryDeath:
    def test_worker_dying_on_receipt_recovers(self, workload, snapshot_path,
                                              expected, monkeypatch):
        """The worker dies *after* the scatter, with the coordinator
        already committed to gathering from it — the genuinely
        mid-request death that os.kill from a test cannot time."""
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT", "die-on-query:0:0")
        server = SnapshotServer(snapshot_path, query_timeout=30).start()
        seen_pids = set(server.worker_pids)
        try:
            got = server.query_batch(queries, k=5)
            assert _same(got, expected)
            assert server.status()["restarts"] == 1
            seen_pids |= set(server.worker_pids)
        finally:
            server.close()
        _assert_all_dead(seen_pids)

    def test_worker_dying_twice_surfaces_server_error(
            self, workload, snapshot_path, monkeypatch):
        """Original worker dies on the query, its restarted incarnation
        dies on the re-scatter: the bounded retry gives up with the
        worker id and exit code, and the server is broken."""
        _, queries = workload
        monkeypatch.setenv(
            "REPRO_SERVE_FAULT", "die-on-query:1:0:7,die-on-query:1:1:7"
        )
        server = SnapshotServer(snapshot_path, query_timeout=30).start()
        seen_pids = set(server.worker_pids)
        try:
            with pytest.raises(ServerError, match=r"worker 1 .*code 7"):
                server.query_batch(queries, k=5)
            seen_pids |= set(server.worker_pids)
            with pytest.raises(ServerError, match="broken"):
                server.query_batch(queries, k=5)
        finally:
            server.close()
        _assert_all_dead(seen_pids)

    def test_close_after_exhausted_retry_leaves_no_orphans(
            self, workload, snapshot_path, monkeypatch):
        _, queries = workload
        monkeypatch.setenv(
            "REPRO_SERVE_FAULT", "die-on-query:0:0,die-on-query:0:1"
        )
        server = SnapshotServer(snapshot_path, query_timeout=30).start()
        seen_pids = set(server.worker_pids)
        with pytest.raises(ServerError):
            server.query_batch(queries, k=5)
        seen_pids |= set(server.worker_pids)
        server.close()
        _assert_all_dead(seen_pids)
        # And the same object restarts cleanly after the failure was
        # acted on — the broken state does not outlive close().
        monkeypatch.delenv("REPRO_SERVE_FAULT")
        server.start()
        try:
            assert server.query(queries[0], k=1).neighbors
        finally:
            server.close()
