"""Tests for repro.serve: parity across transports, server lifecycle.

The serving layer's contract has two halves:

* **answers** — a served snapshot returns exactly what the same snapshot
  returns when loaded in process (shared merge planner, different
  transport), for single queries and batches, ties across shards
  included;
* **lifecycle** — start/close are explicit and safe (double-start
  refused, query-before-start refused, close idempotent, restart after
  close works), and failure surfaces as a prompt
  :class:`~repro.serve.ServerError` instead of a hang: a killed worker
  is reported with its exit code within the query timeout, and a closed
  server leaves no worker processes behind.
"""

from __future__ import annotations

import http.client
import os
import time

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.core.plan import merge_shard_results
from repro.core.result import Neighbor, QueryResult
from repro.io import load_index, save_index
from repro.cli import _post_json
from repro.serve import HttpGateway, ServerError, SnapshotServer
from repro.serve.protocol import decode_result, encode_result
from repro.data.generators import gaussian_mixture

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


def _serve_and_sleep(path, conn):
    """Child-process helper: start a server, report worker pids, hang."""
    from repro.serve import SnapshotServer

    server = SnapshotServer(path).start()
    conn.send(server.worker_pids)
    time.sleep(60)  # until SIGKILLed by the test


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(1200, 16, n_clusters=6, seed=3)
    rng = np.random.default_rng(7)
    queries = data[rng.choice(1200, 8, replace=False)] + 0.02
    return data, queries


@pytest.fixture(scope="module")
def snapshot_path(workload, tmp_path_factory):
    data, _ = workload
    path = str(tmp_path_factory.mktemp("serve") / "sharded.npz")
    save_index(ShardedDBLSH(shards=2, **COMMON).fit(data), path)
    return path


@pytest.fixture(scope="module")
def server(snapshot_path):
    server = SnapshotServer(snapshot_path, query_timeout=30)
    server.start()
    yield server
    server.close()


class TestParity:
    """Served answers == in-process answers on the same snapshot."""

    def test_batch_matches_inprocess_load(self, workload, snapshot_path, server):
        _, queries = workload
        expected = load_index(snapshot_path).query_batch(queries, k=5)
        got = server.query_batch(queries, k=5)
        assert [r.ids for r in got] == [r.ids for r in expected]
        assert [r.distances for r in got] == [r.distances for r in expected]

    def test_single_query_matches_batch(self, workload, server):
        _, queries = workload
        batch = server.query_batch(queries, k=3)
        singles = [server.query(q, k=3) for q in queries]
        assert [r.ids for r in singles] == [r.ids for r in batch]

    def test_matches_unsharded_sets(self, workload, server):
        data, queries = workload
        unsharded = DBLSH(**COMMON).fit(data)
        for q, got in zip(queries, server.query_batch(queries, k=5)):
            assert set(got.ids) == set(unsharded.query(q, k=5).ids)

    def test_unsharded_snapshot_served_as_single_worker(self, workload, tmp_path):
        data, queries = workload
        index = DBLSH(**COMMON).fit(data)
        path = str(tmp_path / "single.npz")
        save_index(index, path)
        expected = index.query_batch(queries, k=4)
        with SnapshotServer(path) as server:
            assert server.num_shards == 1
            got = server.query_batch(queries, k=4)
        assert [r.ids for r in got] == [r.ids for r in expected]

    def test_merged_stats_aggregate_work(self, workload, server):
        _, queries = workload
        result = server.query(queries[0], k=5)
        assert result.stats.candidates_verified > 0
        assert result.stats.window_queries >= server.num_shards
        assert result.stats.hash_evaluations == server.num_hash_functions
        assert result.stats.terminated_by

    def test_empty_batch(self, server):
        assert server.query_batch(np.empty((0, server.dim)), k=3) == []


class TestTiesAcrossShards:
    """Exact duplicates of the query that land in different shards tie at
    distance 0; the merge orders them by ``(distance, global id)`` — in
    process, through the worker pool, and through the HTTP gateway."""

    DUPLICATES = [30, 100, 170, 230, 300, 370]

    @pytest.fixture(scope="class")
    def tie_workload(self):
        data = np.random.default_rng(11).standard_normal((400, 8))
        query = np.full(8, 8.0)  # far from the Gaussian bulk
        data[self.DUPLICATES] = query
        return data, query[None, :]

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_lowest_global_ids_win_ties(self, tie_workload, shards, tmp_path):
        data, queries = tie_workload
        index = ShardedDBLSH(shards=shards, **COMMON).fit(data)
        path = str(tmp_path / f"ties{shards}.npz")
        save_index(index, path)
        in_process = index.query_batch(queries, k=3)[0]
        with SnapshotServer(path) as server:
            served = server.query_batch(queries, k=3)[0]
            with HttpGateway(server, batch_window=0.0) as gateway:
                conn = http.client.HTTPConnection("127.0.0.1", gateway.port,
                                                  timeout=30)
                try:
                    status, body = _post_json(
                        conn, "/query", {"queries": queries.tolist(), "k": 3}
                    )
                finally:
                    conn.close()
        assert served.ids == in_process.ids
        assert served.distances == in_process.distances == [0.0] * 3
        # JSON floats round-trip exactly, so the gateway's answer is the
        # served answer, ties and all.
        assert status == 200
        [row] = body["results"]
        assert row["ids"] == served.ids
        assert row["distances"] == served.distances
        # Every shard's own answer, mapped to global ids: the merge keeps
        # the three lowest of their union.
        per_shard = set()
        for offset, shard in zip(index.shard_offsets, index.shard_indexes):
            answer = shard.query_batch(queries, k=3)[0]
            per_shard.update(offset + i for i, d in zip(answer.ids,
                                                        answer.distances)
                             if d == 0.0)
        assert in_process.ids == sorted(per_shard)[:3]
        assert set(in_process.ids) <= set(self.DUPLICATES)
        if shards > 1:
            # No shard holds more than k duplicates, so every duplicate
            # reaches the merge and the global answer is the lowest three.
            assert in_process.ids == self.DUPLICATES[:3]


class TestLifecycle:
    def test_query_before_start(self, snapshot_path):
        server = SnapshotServer(snapshot_path)
        with pytest.raises(ServerError, match="not serving"):
            server.query(np.zeros(server.dim), k=1)

    def test_double_start(self, snapshot_path):
        server = SnapshotServer(snapshot_path).start()
        try:
            with pytest.raises(ServerError, match="already started"):
                server.start()
        finally:
            server.close()

    def test_close_idempotent_and_restartable(self, snapshot_path, workload):
        _, queries = workload
        server = SnapshotServer(snapshot_path).start()
        server.close()
        server.close()  # second close is a no-op
        with pytest.raises(ServerError, match="not serving"):
            server.query_batch(queries, k=1)
        server.start()  # a closed server can come back
        try:
            assert server.query(queries[0], k=1).neighbors
        finally:
            server.close()

    def test_clean_shutdown_leaves_no_orphans(self, snapshot_path):
        server = SnapshotServer(snapshot_path).start()
        pids = server.worker_pids
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        server.close()
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, f"orphan workers: {pids}"
            time.sleep(0.05)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_sigkilled_coordinator_leaves_no_orphan_workers(self, snapshot_path):
        """SIGKILL skips every graceful path (daemon reaping, close()):
        workers must notice the dead coordinator via pipe EOF and exit."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        coordinator = ctx.Process(
            target=_serve_and_sleep, args=(snapshot_path, child_conn)
        )
        coordinator.start()
        child_conn.close()
        try:
            assert parent_conn.poll(30), "coordinator never started serving"
            worker_pids = parent_conn.recv()
            assert len(worker_pids) == 2
            os.kill(coordinator.pid, 9)
            coordinator.join(10)
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in worker_pids):
                assert time.monotonic() < deadline, (
                    f"workers orphaned after coordinator SIGKILL: {worker_pids}"
                )
                time.sleep(0.05)
        finally:
            if coordinator.is_alive():
                coordinator.kill()
                coordinator.join(5)

    def test_context_manager(self, snapshot_path, workload):
        _, queries = workload
        with SnapshotServer(snapshot_path) as server:
            pids = server.worker_pids
            assert server.serving
            assert server.query(queries[0], k=1).neighbors
        assert not server.serving
        assert not any(_alive(pid) for pid in pids)

    def test_invalid_k(self, server):
        with pytest.raises(ValueError, match="k must be"):
            server.query_batch(np.zeros((1, server.dim)), k=0)

    def test_wrong_dim_rejected_in_coordinator(self, server):
        with pytest.raises(ValueError, match="dimension"):
            server.query_batch(np.zeros((2, server.dim + 3)), k=1)

    def test_bad_snapshot_rejected_eagerly(self, tmp_path):
        from repro.io import SnapshotError

        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            SnapshotServer(str(junk))

    def test_invalid_timeouts(self, snapshot_path):
        with pytest.raises(ValueError, match="timeout"):
            SnapshotServer(snapshot_path, query_timeout=0)


class TestFailureSurfacing:
    """A dead or silent worker must raise promptly — never hang.

    Supervision restarts a dead worker and re-scatters the block once, so
    a failure only surfaces when the worker dies on **both** attempts.
    These tests arm exactly that (``REPRO_SERVE_FAULT`` kills the
    original incarnation and its replacement, as the chaos sweep's
    ``die-twice`` scenario does): the death surfaces as a prompt
    :class:`ServerError` and breaks the server.  A single death is
    survived invisibly, which ``tests/test_serve_faults.py`` pins.
    """

    def test_killed_worker_surfaces_within_timeout(self, snapshot_path,
                                                   workload, monkeypatch):
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT",
                           "die-on-query:1:0,die-on-query:1:1")
        server = SnapshotServer(snapshot_path, query_timeout=10).start()
        try:
            started = time.monotonic()
            with pytest.raises(ServerError, match="worker 1"):
                server.query_batch(queries, k=3)
            assert time.monotonic() - started < 10.0
        finally:
            server.close()

    def test_broken_server_refuses_further_queries(self, snapshot_path,
                                                   workload, monkeypatch):
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT",
                           "die-on-query:0:0,die-on-query:0:1")
        server = SnapshotServer(snapshot_path, query_timeout=10).start()
        try:
            with pytest.raises(ServerError):
                server.query_batch(queries, k=3)
            with pytest.raises(ServerError, match="broken"):
                server.query_batch(queries, k=3)
        finally:
            server.close()

    def test_crash_then_restart_recovers(self, snapshot_path, workload,
                                         monkeypatch):
        _, queries = workload
        baseline = load_index(snapshot_path).query_batch(queries, k=3)
        monkeypatch.setenv("REPRO_SERVE_FAULT",
                           "die-on-query:0:0,die-on-query:0:1")
        server = SnapshotServer(snapshot_path, query_timeout=10).start()
        try:
            with pytest.raises(ServerError):
                server.query_batch(queries, k=3)
            server.close()
            monkeypatch.delenv("REPRO_SERVE_FAULT")
            server.start()
            again = server.query_batch(queries, k=3)
            assert [r.ids for r in again] == [r.ids for r in baseline]
            assert [r.distances for r in again] == [
                r.distances for r in baseline
            ]
        finally:
            server.close()


class TestProtocol:
    def test_result_roundtrip(self):
        result = QueryResult(neighbors=[Neighbor(3, 0.5), Neighbor(9, 1.25)])
        result.stats.candidates_verified = 17
        result.stats.terminated_by = "radius"
        back = decode_result(encode_result(result))
        assert back.neighbors == result.neighbors
        assert back.stats == result.stats

    def test_planner_merge_maps_local_ids_to_global(self):
        a = QueryResult(neighbors=[Neighbor(0, 1.0), Neighbor(2, 3.0)])
        b = QueryResult(neighbors=[Neighbor(1, 2.0)])
        merged = merge_shard_results([a, b], offsets=[0, 100], k=3,
                                     elapsed=0.0, hash_evaluations=5)
        assert [n.id for n in merged.neighbors] == [0, 101, 2]
        assert merged.stats.hash_evaluations == 5

    def test_planner_rejects_ragged_shard_batches(self):
        """A transport bug delivering mismatched per-shard batch sizes
        must fail loud, not zip-truncate into plausible results."""
        from repro.core.plan import merge_shard_batches

        full = [QueryResult(neighbors=[Neighbor(0, 1.0)])] * 2
        short = [QueryResult(neighbors=[Neighbor(1, 2.0)])]
        with pytest.raises(ValueError, match="ragged"):
            merge_shard_batches([full, short], offsets=[0, 10], k=1,
                                elapsed_per_query=0.0)


class TestCLI:
    """``repro serve`` and ``repro query`` talk HTTP end to end."""

    def test_serve_and_query_over_http(self, snapshot_path, workload,
                                       serve_in_thread, capsys):
        from repro.cli import main

        serve = serve_in_thread("--index", snapshot_path)
        rc = main([
            "query", "--server", serve.address, "--dataset", "audio",
            "--scale", "0.02", "--queries", "4", "--k", "3",
            "--connect-timeout", "30",
        ])
        # The snapshot is 16-d but the audio stand-in is 192-d: the
        # gateway answers 400 with a clean dimension error and the
        # client exits nonzero.
        err = capsys.readouterr().err
        assert rc == 1
        assert "400" in err and "dimension" in err
        # A bad query must not kill the server: it keeps answering.
        _, queries = workload
        conn = serve.connect()
        try:
            status, body = serve.post(conn, "/query",
                                      {"queries": queries.tolist(), "k": 3})
        finally:
            conn.close()
        assert status == 200
        assert len(body["results"]) == queries.shape[0]
        assert serve.shutdown() == 0

    def test_query_round_trip_with_matching_dims(self, tmp_path, serve_in_thread,
                                                 capsys, monkeypatch):
        from repro import cli
        from repro.cli import main
        from repro.data.datasets import make_dataset

        # Build server-side snapshot from the same registry stand-in the
        # query command samples, so dimensions line up.
        out_npz = str(tmp_path / "audio.npz")
        assert main(["save", "--dataset", "audio", "--scale", "0.02",
                     "--t", "8", "--queries", "4", "--shards", "2",
                     "--out", out_npz]) == 0
        fetched = []
        post_json = cli._post_json

        def spy(conn, path, payload, headers=None):
            status, body = post_json(conn, path, payload, headers)
            if path == "/query":
                fetched.append((status, body))
            return status, body

        monkeypatch.setattr(cli, "_post_json", spy)
        serve = serve_in_thread("--index", out_npz, "--max-requests", "1")
        # --shutdown against a server that stops on its own after this
        # very request (--max-requests 1): the client must still print
        # its table and exit 0, not traceback on the shutdown round trip.
        rc = main([
            "query", "--server", serve.address, "--dataset", "audio",
            "--scale", "0.02", "--queries", "4", "--k", "3",
            "--connect-timeout", "30", "--shutdown",
        ])
        assert rc == 0
        assert serve.join() == 0
        out = capsys.readouterr().out
        assert "Served answers" in out
        assert "served 1 request(s)" in out
        # The answers fetched over HTTP are the in-process answers.
        queries = make_dataset("audio", n_queries=4, seed=0, scale=0.02).queries
        expected = load_index(out_npz).query_batch(queries, k=3)
        [(status, body)] = fetched
        assert status == 200
        assert [row["ids"] for row in body["results"]] == [r.ids for r in expected]
        assert ([row["distances"] for row in body["results"]]
                == [r.distances for r in expected])


class TestListenAddress:
    @pytest.mark.parametrize("addr, expected", [
        ("10.0.0.5:7007", ("10.0.0.5", 7007)),
        (":7007", ("127.0.0.1", 7007)),
        ("7007", ("127.0.0.1", 7007)),
        ("[::1]:7007", ("::1", 7007)),
    ])
    def test_address_forms(self, addr, expected):
        from repro.cli import _parse_http_address

        assert _parse_http_address(addr) == expected

    def test_serve_and_query_on_ipv6_loopback(self, tmp_path, serve_in_thread,
                                              capsys):
        """``--listen [::1]:PORT`` binds and ``--server [::1]:PORT``
        connects: the brackets are the operator's, not the socket's."""
        import socket

        from repro.cli import main

        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        out_npz = str(tmp_path / "audio.npz")
        assert main(["save", "--dataset", "audio", "--scale", "0.02",
                     "--t", "8", "--out", out_npz]) == 0
        serve = serve_in_thread("--index", out_npz, host="[::1]")
        assert serve.address.startswith("[::1]:")
        rc = main([
            "query", "--server", serve.address, "--dataset", "audio",
            "--scale", "0.02", "--queries", "1", "--k", "3",
            "--connect-timeout", "30", "--shutdown",
        ])
        assert rc == 0
        assert serve.join() == 0
        out = capsys.readouterr().out
        assert f"listening on http://{serve.address} " in out
        assert "Served answers" in out

    def test_socket_path_is_refused_before_any_worker_starts(self,
                                                             snapshot_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["serve", "--index", snapshot_path,
                  "--listen", "/tmp/repro.sock"])


class TestCLIFailurePaths:
    def test_serve_survives_half_open_connections(self, snapshot_path,
                                                  serve_in_thread):
        """Probes that connect and vanish (port scanners, health checks
        that give up mid-request) and malformed requests must not kill
        the serve."""
        import socket

        serve = serve_in_thread("--index", snapshot_path)
        conn = serve.connect()
        host, port = serve.address.rsplit(":", 1)
        try:
            for partial in (b"", b"POST /query HTTP/1.1\r\nContent-Le"):
                with socket.create_connection((host, int(port))) as probe:
                    probe.sendall(partial)
            for bad in ({}, {"queries": "nope", "k": 1},
                        {"queries": [["a", "b"]], "k": "x"}):
                status, body = serve.post(conn, "/query", bad)
                assert status == 400, (bad, body)
            status, described = serve.get(conn, "/status")
            assert status == 200 and described["serving"] is True
        finally:
            conn.close()
        assert serve.shutdown() == 0

    def test_query_reports_an_unresolvable_host(self, workload, tmp_path,
                                                 capsys, monkeypatch):
        """A host name that does not resolve fails at once, and says so:
        it is not a server that missed the connect timeout."""
        import socket

        from repro.cli import main
        from repro.data.loaders import write_fvecs

        def no_such_host(host, *args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", no_such_host)
        fvecs = str(tmp_path / "queries.fvecs")
        write_fvecs(fvecs, workload[1])
        started = time.monotonic()
        rc = main([
            "query", "--server", "no-such-host.invalid:8080", "--fvecs", fvecs,
            "--queries", "1", "--k", "1", "--connect-timeout", "30",
        ])
        assert rc == 1
        assert time.monotonic() - started < 10  # not retried to the timeout
        err = capsys.readouterr().err
        assert "cannot resolve no-such-host.invalid:" in err
        assert "within" not in err

    def test_serve_exits_nonzero_when_server_breaks(self, snapshot_path,
                                                    workload, tmp_path,
                                                    serve_in_thread, capsys,
                                                    monkeypatch):
        from repro.cli import main
        from repro.data.loaders import write_fvecs

        def boom(self, queries, k=1, timeout=None):
            raise ServerError("worker 0 (pid 0) died")

        monkeypatch.setattr(SnapshotServer, "query_batch", boom)
        # Queries of the served dimensionality, so the request passes
        # validation and reaches the (broken) engine.
        fvecs = str(tmp_path / "queries.fvecs")
        write_fvecs(fvecs, workload[1])
        serve = serve_in_thread("--index", snapshot_path)
        rc = main([
            "query", "--server", serve.address, "--fvecs", fvecs,
            "--queries", "2", "--k", "1", "--connect-timeout", "30",
        ])
        assert rc == 1  # client saw the 503
        assert serve.join() == 1  # serve exited nonzero, not "clean shutdown"
        err = capsys.readouterr().err
        assert "503" in err
        assert "serving failed" in err

    def test_serve_exits_nonzero_when_wal_fails_on_insert(
            self, snapshot_path, tmp_path, serve_in_thread, capsys,
            monkeypatch):
        """A mutation that could not be made durable must stop the serve
        instead of leaving it to ack writes after a failed fsync."""
        from repro.io import WALError
        from repro.serve import MutableSnapshotServer

        def broken_fsync(self, point):
            raise WALError("fsync failed: no space left on device")

        monkeypatch.setattr(MutableSnapshotServer, "insert", broken_fsync)
        serve = serve_in_thread("--index", snapshot_path, "--mutable",
                                "--wal", str(tmp_path / "serve.wal"))
        conn = serve.connect()
        try:
            status, body = serve.post(conn, "/insert", {"point": [0.0] * 16})
        finally:
            conn.close()
        assert status == 500
        assert "WALError" in body["error"]
        assert serve.join() == 1
        assert "serving failed" in capsys.readouterr().err


class TestEvalRunner:
    def test_evaluate_server_reports_sane_metrics(self, snapshot_path, workload):
        from repro.eval import evaluate_server

        _, queries = workload
        result = evaluate_server(snapshot_path, queries, k=5,
                                 dataset_name="toy")
        assert result.method == "DB-LSH-serve[2p]"
        assert result.recall > 0.5
        assert result.candidates_per_query > 0
        assert result.build_seconds > 0  # worker start-up time

    def test_evaluate_server_with_supplied_ground_truth(self, snapshot_path,
                                                        workload):
        from repro.data.groundtruth import exact_knn
        from repro.eval import evaluate_server

        data, queries = workload
        gt_ids, gt_dists = exact_knn(queries, data, 5)
        result = evaluate_server(snapshot_path, queries, k=5,
                                 gt_ids=gt_ids, gt_dists=gt_dists)
        # The report still carries real workload shape even though the
        # stored coordinates were never read on this path.
        assert (result.n, result.dim) == data.shape
        assert result.recall > 0.5

    def test_evaluate_server_with_concurrent_clients(self, snapshot_path,
                                                     workload):
        from repro.eval import evaluate_server

        _, queries = workload
        solo = evaluate_server(snapshot_path, queries, k=5,
                               dataset_name="toy")
        fanned = evaluate_server(snapshot_path, queries, k=5,
                                 dataset_name="toy", clients=3)
        assert fanned.method == "DB-LSH-serve[2p]x3c"
        # Chunked-and-reassembled answers carry the same quality as the
        # single-client batch (same server, same snapshot).
        assert fanned.recall == solo.recall
        assert fanned.ratio == solo.ratio

    def test_evaluate_server_rejects_unbatched_concurrent_clients(
            self, snapshot_path, workload):
        from repro.eval import evaluate_server

        _, queries = workload
        with pytest.raises(ValueError, match="clients"):
            evaluate_server(snapshot_path, queries, k=5, clients=2,
                            batch=False)
