"""Concurrent-serving stress tests: many clients, one worker pool.

Contract under concurrency:

* the server multiplexes any number of client threads/connections onto
  the shared worker pool (FIFO dispatch — arrival order, no starvation),
  and **every** answer any client receives is bit-identical to the
  in-process ``load_index(path).query_batch(...)`` result for the
  generation that answered it;
* ``query`` / ``status`` / ``reload`` interleave freely: a reload flips
  new requests to the new generation while requests already checked out
  answer from the old one, so attribution is always to exactly one
  generation's expected answers;
* the CLI ``query --server`` client retries its connection with bounded
  exponential backoff, so racing a ``serve`` that is still starting up
  is not flaky.

The tier-1 versions here are smoke-sized; the ``slow``-marked stress run
(bigger dataset, more clients, kills a worker mid-run) is excluded from
the default ``-m "not slow"`` selection and runs as its own CI step.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro import ShardedDBLSH
from repro.data.generators import gaussian_mixture
from repro.io import load_index, save_index
from repro.serve import SnapshotServer

COMMON = dict(
    c=1.5, l_spaces=3, k_per_space=6, t=32, seed=0, auto_initial_radius=True
)
DIM = 12


def _same(results, expected) -> bool:
    return len(results) == len(expected) and all(
        r.ids == e.ids and r.distances == e.distances
        for r, e in zip(results, expected)
    )


def _matches_one_generation(results, *expected_sets) -> bool:
    return any(_same(results, expected) for expected in expected_sets)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(51)
    return rng.standard_normal((5, DIM))


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    root = tmp_path_factory.mktemp("concurrency")
    data_a = gaussian_mixture(700, DIM, n_clusters=5, seed=61)
    data_b = gaussian_mixture(900, DIM, n_clusters=6, seed=67)
    path_a = str(root / "gen_a.npz")
    path_b = str(root / "gen_b.npz")
    save_index(ShardedDBLSH(shards=2, **COMMON).fit(data_a), path_a)
    save_index(ShardedDBLSH(shards=3, **COMMON).fit(data_b), path_b)
    return path_a, path_b


@pytest.fixture(scope="module")
def expected(snapshots, queries):
    path_a, path_b = snapshots
    return (
        load_index(path_a).query_batch(queries, k=4),
        load_index(path_b).query_batch(queries, k=4),
    )


def _run_clients(n_threads, target):
    """Start n threads over ``target(idx, failures)``; join; return failures."""
    failures = []
    threads = [
        threading.Thread(target=target, args=(idx, failures), daemon=True)
        for idx in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "client thread hung"
    return failures


class TestSharedServerThreads:
    def test_concurrent_threads_bit_identical(self, snapshots, queries,
                                              expected):
        path_a, _ = snapshots
        expected_a, _ = expected
        with SnapshotServer(path_a) as server:
            def client(idx, failures):
                try:
                    for _ in range(4):
                        got = server.query_batch(queries, k=4)
                        if not _same(got, expected_a):
                            failures.append(f"client {idx} diverged")
                except Exception as exc:  # surfaced after join
                    failures.append(f"client {idx}: {exc!r}")

            failures = _run_clients(4, client)
        assert failures == []

    def test_threads_with_interleaved_reload(self, snapshots, queries,
                                             expected):
        """Queries racing a reload must each match exactly one
        generation's expected answers — never a mix, never a drop."""
        path_a, path_b = snapshots
        expected_a, expected_b = expected
        with SnapshotServer(path_a) as server:
            def client(idx, failures):
                try:
                    for _ in range(4):
                        got = server.query_batch(queries, k=4)
                        if not _matches_one_generation(
                                got, expected_a, expected_b):
                            failures.append(f"client {idx} got answers "
                                            f"matching neither generation")
                        server.status()  # interleave a status probe
                except Exception as exc:
                    failures.append(f"client {idx}: {exc!r}")

            flip = {}
            def reloader(idx, failures):
                try:
                    time.sleep(0.05)  # land mid-run
                    flip.update(server.reload(path_b))
                except Exception as exc:
                    failures.append(f"reload: {exc!r}")

            failures = []
            threads = [
                threading.Thread(target=client, args=(i, failures), daemon=True)
                for i in range(3)
            ] + [threading.Thread(target=reloader, args=(0, failures),
                                  daemon=True)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert failures == []
            assert flip.get("generation") == 2
            # Settled state: everything now answers from generation 2.
            assert _same(server.query_batch(queries, k=4), expected_b)


class TestCLIClients:
    def test_interleaved_clients_over_http(self, snapshots, queries, expected,
                                           tmp_path, serve_in_thread):
        path_a, path_b = snapshots
        expected_a, expected_b = expected
        live = str(tmp_path / "live.npz")
        staged = str(tmp_path / "staged.npz")
        for src_path, dst_path in ((path_a, live), (path_b, staged)):
            with open(src_path, "rb") as src, open(dst_path, "wb") as dst:
                dst.write(src.read())
        serve = serve_in_thread("--index", live)
        serve.connect().close()  # wait for the bind
        batch = {"queries": queries.tolist(), "k": 4}

        def client(idx, failures):
            conn = serve.connect()  # one keep-alive connection per client
            try:
                for round_no in range(3):
                    status, body = serve.post(conn, "/query", batch)
                    if status != 200:
                        failures.append(f"client {idx}: {status} {body}")
                        return
                    if not _matches_one_generation(
                            serve.rows(body), expected_a, expected_b):
                        failures.append(
                            f"client {idx} round {round_no}: answers "
                            f"match neither generation"
                        )
                    status, info = serve.get(conn, "/status")
                    if status != 200 or info["generation"] < 1:
                        failures.append(f"client {idx}: bad status {info}")
                    if idx == 0 and round_no == 0:
                        # One client swaps the served file and reloads
                        # mid-run; the others keep querying across the flip.
                        os.replace(staged, live)
                        status, info = serve.post(conn, "/reload")
                        if status != 200 or info["generation"] != 2:
                            failures.append(f"reload failed: {info}")
            except Exception as exc:
                failures.append(f"client {idx}: {exc!r}")
            finally:
                conn.close()

        failures = _run_clients(3, client)
        assert failures == []
        # Settled check on a fresh connection, then shutdown.
        conn = serve.connect()
        try:
            status, body = serve.post(conn, "/query", batch)
        finally:
            conn.close()
        assert status == 200
        assert _same(serve.rows(body), expected_b)
        assert serve.shutdown() == 0


class TestConnectRetry:
    """Regression: `query --server` must not flake when racing startup."""

    def test_backoff_schedule_doubles_to_cap_then_raises(self, free_port,
                                                         monkeypatch):
        from repro import cli

        sleeps = []
        clock = {"now": 0.0}
        monkeypatch.setattr(cli.time, "monotonic", lambda: clock["now"])

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        with pytest.raises(ConnectionRefusedError):
            cli._connect_with_retry(("127.0.0.1", free_port), timeout=3.0,
                                    _sleep=fake_sleep)
        # Doubles from 50 ms, caps at 1 s, and the tail sleep is clipped
        # to the remaining budget instead of overshooting the deadline.
        assert sleeps == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 0.45])

    def test_connect_retry_covers_late_server_bind(self, snapshots,
                                                   serve_in_thread):
        path_a, _ = snapshots
        # The client dials into nothing first; the dial retries until
        # the serve binds.
        serve = serve_in_thread("--index", path_a, delay=0.4)
        conn = serve.connect()
        try:
            status, info = serve.get(conn, "/status")
            assert status == 200 and info["serving"] is True
            assert serve.post(conn, "/shutdown")[0] == 200
        finally:
            conn.close()
        assert serve.join() == 0


@pytest.mark.slow
class TestStressSlow:
    """The full acceptance scenario at stress scale: many clients, a
    SIGKILLed worker, and a hot reload in one run — every answer set
    bit-identical to the corresponding generation.  Excluded from tier-1
    by the ``-m "not slow"`` default; CI runs it as a separate step."""

    def test_clients_kill_and_reload_in_one_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stress-slow")
        rng = np.random.default_rng(71)
        data_a = gaussian_mixture(4000, 16, n_clusters=8, seed=73)
        data_b = gaussian_mixture(5000, 16, n_clusters=9, seed=79)
        queries = rng.standard_normal((12, 16))
        path_a = str(root / "a.npz")
        path_b = str(root / "b.npz")
        save_index(ShardedDBLSH(shards=2, **COMMON).fit(data_a), path_a)
        save_index(ShardedDBLSH(shards=4, **COMMON).fit(data_b), path_b)
        expected_a = load_index(path_a).query_batch(queries, k=8)
        expected_b = load_index(path_b).query_batch(queries, k=8)

        server = SnapshotServer(path_a, query_timeout=60).start()
        seen_pids = set(server.worker_pids)
        try:
            def client(idx, failures):
                try:
                    for round_no in range(6):
                        got = server.query_batch(queries, k=8)
                        if not _matches_one_generation(
                                got, expected_a, expected_b):
                            failures.append(
                                f"client {idx} round {round_no}: neither "
                                f"generation's answers"
                            )
                        server.status()
                except Exception as exc:
                    failures.append(f"client {idx}: {exc!r}")

            failures = []
            threads = [
                threading.Thread(target=client, args=(i, failures), daemon=True)
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.1)
            os.kill(server.worker_pids[0], 9)   # supervision restarts it
            server.query_batch(queries[:1], k=1)  # force the recovery now
            seen_pids |= set(server.worker_pids)
            server.reload(path_b)               # flip mid-run
            seen_pids |= set(server.worker_pids)
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
            assert failures == []
            assert server.status()["restarts"] >= 1
            assert server.generation == 2
            assert _same(server.query_batch(queries, k=8), expected_b)
        finally:
            server.close()
        deadline = time.monotonic() + 15
        while True:
            leftover = [p for p in seen_pids if _pid_alive(p)]
            if not leftover:
                break
            assert time.monotonic() < deadline, f"orphans: {leftover}"
            time.sleep(0.05)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
