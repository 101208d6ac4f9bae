"""End-to-end deadline and hung-worker watchdog tests (`repro.serve`).

The resilience contract under test:

* every query either answers — bit-identical to
  ``load_index(path).query_batch(...)`` — or fails with the *typed*
  :class:`~repro.serve.DeadlineExceeded` within its budget;
* a worker that hangs mid-query is SIGKILLed by the watchdog and
  restarted from the immutable shard snapshot; when the request still
  has budget it is re-dispatched once and answers exactly, and when the
  hang ate its deadline the caller gets the typed error within 2x the
  budget and the *next* request answers exactly (lazy revival keeps the
  failure path fast);
* a hang never marks the server broken — the snapshot is immutable, so
  a fresh worker serves correctly; broken stays reserved for
  unrecoverable death-retry exhaustion;
* requests that expire while *waiting for dispatch* fail typed without
  ever touching a worker (the FIFO ticket lock honors deadlines).

Hangs are injected with the one-shot ``hang-on-query`` spec of the
``REPRO_SERVE_FAULT`` hook documented in :mod:`repro.serve.worker`,
aimed at a deterministic (shard, spawn) incarnation.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import ShardedDBLSH
from repro.data.generators import gaussian_mixture
from repro.io import load_index, save_index
from repro.serve import (
    DeadlineExceeded,
    MutableSnapshotServer,
    ServerError,
    SnapshotServer,
)

COMMON = dict(
    c=1.5, l_spaces=3, k_per_space=6, t=32, seed=0, auto_initial_radius=True
)


def _same(results, expected) -> bool:
    return len(results) == len(expected) and all(
        r.ids == e.ids and r.distances == e.distances
        for r, e in zip(results, expected)
    )


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(900, 12, n_clusters=5, seed=21)
    rng = np.random.default_rng(23)
    queries = data[rng.choice(900, 6, replace=False)] + 0.02
    return data, queries


@pytest.fixture(scope="module")
def snapshot_path(workload, tmp_path_factory):
    data, _ = workload
    path = str(tmp_path_factory.mktemp("deadline") / "sharded.npz")
    save_index(ShardedDBLSH(shards=2, **COMMON).fit(data), path)
    return path


@pytest.fixture(scope="module")
def expected(workload, snapshot_path):
    _, queries = workload
    return load_index(snapshot_path).query_batch(queries, k=5)


class TestValidation:
    def test_timeout_must_be_positive(self, workload, snapshot_path):
        _, queries = workload
        with SnapshotServer(snapshot_path) as server:
            for bad in (0, -1, -0.5):
                with pytest.raises(ValueError, match="timeout"):
                    server.query_batch(queries, k=5, timeout=bad)
            with pytest.raises(ValueError, match="timeout"):
                server.query(queries[0], k=5, timeout=0)

    def test_status_reports_the_resilience_counters(self, snapshot_path):
        with SnapshotServer(snapshot_path) as server:
            status = server.status()
        assert status["hang_kills"] == 0
        assert status["deadline_hits"] == 0


class TestFifoLockDeadline:
    def test_expired_waiter_abandons_and_is_skipped_on_release(self):
        from repro.serve.server import _FifoLock

        lock = _FifoLock()
        assert lock.acquire()  # ticket 0: held for the whole test
        # Ticket 1 arrives already out of budget: it must give up
        # instead of waiting, leaving an abandoned ticket behind.
        assert not lock.acquire(deadline=time.monotonic() - 0.01)
        acquired = threading.Event()

        def waiter():
            assert lock.acquire(deadline=time.monotonic() + 30.0)
            acquired.set()
            lock.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()  # FIFO: ticket 2 waits behind 0
        lock.release()  # serving advances 0 -> skips abandoned 1 -> 2
        assert acquired.wait(5.0), "release() never skipped the abandoned ticket"
        thread.join(timeout=5.0)


class TestWatchdogFaultMatrix:
    """Every fault hook under the one recovery policy (kill, revive,
    re-dispatch once): the caller sees an exact answer — never a hang,
    never an untyped crash."""

    @pytest.mark.parametrize("fault", ["die-on-query", "sleep-on-query",
                                       "hang-on-query"],
                             ids=lambda fault: f"{fault}-retry")
    def test_fault_times_policy(self, fault, workload, snapshot_path,
                                expected, monkeypatch):
        _, queries = workload
        arg = ":0.2" if fault == "sleep-on-query" else ""
        monkeypatch.setenv("REPRO_SERVE_FAULT", f"{fault}:1:0{arg}")
        with SnapshotServer(snapshot_path,
                            query_timeout=1.0) as server:
            # die: supervision restarts and re-dispatches; sleep: 0.2s
            # < the 1s silence bound, the answer just arrives; hang:
            # watchdog kill, revive, re-dispatch, exact answer.
            results = server.query_batch(queries, k=5)
            assert _same(results, expected)
            if fault == "hang-on-query":
                assert server.status()["hang_kills"] == 1
            monkeypatch.delenv("REPRO_SERVE_FAULT")
            # Recovery invariant, every cell: the next request answers
            # bit-identically and the server reports itself serving.
            assert _same(server.query_batch(queries, k=5), expected)
            status = server.status()
            assert status["serving"] and status["broken"] is None


class TestHangFailDeadlineBound:
    def test_typed_failure_lands_within_twice_the_budget(
            self, workload, snapshot_path, expected, monkeypatch):
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT", "hang-on-query:0:0")
        budget = 0.8
        with SnapshotServer(snapshot_path,
                            query_timeout=120.0) as server:
            before = set(server.worker_pids)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                server.query_batch(queries, k=5, timeout=budget)
            elapsed = time.monotonic() - started
            assert elapsed < 2 * budget, (
                f"typed failure took {elapsed:.2f}s for a {budget}s budget"
            )
            assert server.status()["hang_kills"] == 1
            assert server.status()["deadline_hits"] >= 1
            monkeypatch.delenv("REPRO_SERVE_FAULT")
            # The killed worker is revived lazily: the next request
            # restarts it and answers exactly.
            assert _same(server.query_batch(queries, k=5), expected)
            after = set(server.worker_pids)
            assert after != before, "the hung worker was never replaced"
            assert server.status()["restarts"] >= 1

    def test_deadline_under_retry_policy_still_fails_typed(
            self, workload, snapshot_path, expected, monkeypatch):
        """With the budget spent there is nothing left to re-dispatch
        with: the watchdog kill must answer the typed error."""
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT", "hang-on-query:0:0")
        with SnapshotServer(snapshot_path,
                            query_timeout=120.0) as server:
            with pytest.raises(DeadlineExceeded):
                server.query_batch(queries, k=5, timeout=0.5)
            monkeypatch.delenv("REPRO_SERVE_FAULT")
            assert _same(server.query_batch(queries, k=5), expected)

    def test_generous_deadline_is_invisible(self, workload, snapshot_path,
                                            expected):
        _, queries = workload
        with SnapshotServer(snapshot_path) as server:
            assert _same(server.query_batch(queries, k=5, timeout=60.0),
                         expected)
            assert server.status()["deadline_hits"] == 0


class TestCloseWithHungWorker:
    def test_close_escalates_within_its_timeout(self, workload, snapshot_path,
                                                monkeypatch):
        """A hung worker ignores the polite shutdown; close() must give
        up waiting after its timeout and kill it, not wait for the hang
        to end (the worker closed the pipe behind ``join``)."""
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT", "hang-on-query:0:0:60")
        server = SnapshotServer(snapshot_path, query_timeout=120.0).start()
        outcome = []

        def query():
            try:
                server.query_batch(queries, k=5)
            except ServerError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=query, daemon=True)
        thread.start()
        time.sleep(0.5)  # worker 0 is now inside its hang
        started = time.monotonic()
        server.close(timeout=0.5)
        assert time.monotonic() - started < 10.0
        thread.join(30.0)
        assert not thread.is_alive() and outcome


class TestHangRetryExhaustion:
    def test_replacement_that_also_hangs_exhausts_the_retry(
            self, workload, snapshot_path, expected, monkeypatch):
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT",
                           "hang-on-query:0:0,hang-on-query:0:1")
        with SnapshotServer(snapshot_path,
                            query_timeout=0.5) as server:
            with pytest.raises(DeadlineExceeded):
                server.query_batch(queries, k=5)
            assert server.status()["hang_kills"] == 2
            # Unlike death-retry exhaustion, hang exhaustion does NOT
            # break the server: the snapshot is immutable, a fresh
            # worker (spawn 2, unarmed) serves exactly.
            monkeypatch.delenv("REPRO_SERVE_FAULT")
            assert _same(server.query_batch(queries, k=5), expected)
            status = server.status()
            assert status["serving"] and status["broken"] is None


class TestQueueExpiry:
    def test_request_expiring_in_the_dispatch_queue_fails_typed(
            self, workload, snapshot_path, expected, monkeypatch):
        """A slow head-of-line request must not drag short-deadline
        waiters past their budgets: they fail in the queue, typed."""
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT", "sleep-on-query:0:0:0.6")
        outcomes = {}
        with SnapshotServer(snapshot_path) as server:
            def head():
                outcomes["head"] = server.query_batch(queries, k=5)

            def waiter():
                try:
                    server.query_batch(queries, k=5, timeout=0.15)
                except DeadlineExceeded as exc:
                    outcomes["waiter"] = str(exc)

            head_thread = threading.Thread(target=head)
            head_thread.start()
            time.sleep(0.15)  # the head owns dispatch before the waiter queues
            waiter_thread = threading.Thread(target=waiter)
            waiter_thread.start()
            head_thread.join(timeout=30.0)
            waiter_thread.join(timeout=30.0)
            assert _same(outcomes["head"], expected)
            assert "waiting for dispatch" in outcomes["waiter"]
            # The expired waiter never reached a worker: no kills.
            assert server.status()["hang_kills"] == 0


class TestMutablePassThrough:
    def test_mutable_server_honors_the_deadline(self, workload, snapshot_path,
                                                expected, tmp_path,
                                                monkeypatch):
        _, queries = workload
        wal = str(tmp_path / "deadline.wal")
        # Armed before the server exists: the fault spec is read by the
        # worker incarnation at startup, not per query.
        monkeypatch.setenv("REPRO_SERVE_FAULT", "hang-on-query:0:0")
        with MutableSnapshotServer(snapshot_path, wal_path=wal,
                                   query_timeout=120.0) as server:
            with pytest.raises(DeadlineExceeded):
                server.query_batch(queries, k=5, timeout=0.5)
            monkeypatch.delenv("REPRO_SERVE_FAULT")
            assert _same(server.query_batch(queries, k=5), expected)
            assert _same(server.query_batch(queries, k=5, timeout=60.0),
                         expected)


class TestDieStaysServerError:
    def test_death_retry_exhaustion_is_not_a_deadline(self, workload,
                                                      snapshot_path,
                                                      monkeypatch):
        """die-twice keeps its existing typed failure: ServerError (and a
        broken server), never misreported as a deadline problem."""
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT",
                           "die-on-query:0:0,die-on-query:0:1")
        with SnapshotServer(snapshot_path) as server:
            with pytest.raises(ServerError) as excinfo:
                server.query_batch(queries, k=5)
            assert not isinstance(excinfo.value, DeadlineExceeded)
            assert server.status()["broken"] is not None
