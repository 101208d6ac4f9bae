"""Tests for the HTTP front door: parity, batching, shedding, metrics.

The gateway's contract, in the order the classes below pin it:

* **parity** — answers served over HTTP (micro-batched or not, one
  client or many) are bit-identical to ``load_index(path).query_batch``
  in process: same ids, same distances, surviving the JSON float round
  trip (``repr`` shortest-round-trip on both ends);
* **batching** — requests arriving within the window coalesce into one
  dispatch (observable in the batch-size histogram), a zero window
  never waits, ``max_batch`` caps coalescing, and mixed ``k`` values
  share a window but dispatch separately;
* **admission control** — a full queue sheds with ``429`` +
  ``Retry-After`` while every admitted request still completes (zero
  dropped in-flight work);
* **metrics** — the registry's counts reconcile exactly with the
  requests made against it;
* **health** — ``/healthz`` flips 200/503 with the serving state
  machine, through reloads and brokenness;
* **operator endpoints** — ``POST /reload`` re-reads the served file
  (409 on refusal, old generation still serving) and ``POST /shutdown``
  is loopback-only and exists only when an ``on_request`` hook does;
* **inheritance** — a worker forked mid-serve (reload, compaction,
  supervision restart) holds none of the gateway's sockets or the WAL's
  files, so closed connections EOF and a closed gateway frees its port.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro import DBLSH
from repro.data.generators import gaussian_mixture
from repro.io import load_index, save_index
from repro.serve import (
    GatewayError,
    GatewayMetrics,
    HttpGateway,
    MutableSnapshotServer,
    SnapshotServer,
)
from repro.serve import http as gateway_module
from repro.serve.metrics import Counter, Histogram

COMMON = dict(c=1.5, l_spaces=3, k_per_space=6, t=32, seed=0, auto_initial_radius=True)


# ----------------------------------------------------------------------
# HTTP helpers (stdlib http.client: keep-alive by default, like a real
# client fleet would behave)
# ----------------------------------------------------------------------


def _request(port, method, path, payload=None, timeout=30.0, headers=None):
    """One HTTP request; returns (status, parsed body, headers dict)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data), dict(response.getheaders())
    finally:
        conn.close()


def _post(port, path, payload, timeout=30.0):
    return _request(port, "POST", path, payload, timeout)


def _get(port, path, timeout=30.0):
    return _request(port, "GET", path, None, timeout)


def _raw(port, data: bytes, timeout=10.0) -> bytes:
    """Send raw bytes, return everything the server answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
    return b"".join(chunks)


def _results_match(json_results, expected) -> bool:
    """JSON rows == QueryResult rows, ids and distances exactly."""
    return len(json_results) == len(expected) and all(
        row["ids"] == r.ids and row["distances"] == r.distances
        for row, r in zip(json_results, expected)
    )


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(1000, 12, n_clusters=5, seed=3)
    rng = np.random.default_rng(7)
    queries = data[rng.choice(1000, 12, replace=False)] + 0.02
    return data, queries


@pytest.fixture(scope="module")
def snapshot_path(workload, tmp_path_factory):
    data, _ = workload
    path = str(tmp_path_factory.mktemp("http") / "index.npz")
    save_index(DBLSH(**COMMON).fit(data), path)
    return path


@pytest.fixture(scope="module")
def server(snapshot_path):
    server = SnapshotServer(snapshot_path, query_timeout=60)
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def gateway(server):
    gateway = HttpGateway(server, batch_window=0.01, max_batch=16).start()
    yield gateway
    gateway.close()


class _FakeServer:
    """A stand-in server: controllable blocking, real in-process answers.

    ``query_batch`` signals ``entered``, waits for ``release``, then
    answers from a real in-process index — so shedding tests can hold
    the dispatch open deterministically while parity still holds for
    everything admitted.
    """

    def __init__(self, index):
        self.index = index
        self.dim = index.dim
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()
        self.calls = []

    def query_batch(self, queries, k=1, timeout=None):
        self.calls.append(queries.shape[0])
        self.entered.set()
        assert self.release.wait(30), "test never released the fake server"
        return self.index.query_batch(queries, k=k)

    def status(self):
        return {"serving": True, "generation": 1, "broken": None}


@pytest.fixture()
def fake_server(snapshot_path):
    return _FakeServer(load_index(snapshot_path))


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------


class TestParity:
    def test_batch_matches_inprocess(self, workload, snapshot_path, gateway):
        _, queries = workload
        expected = load_index(snapshot_path).query_batch(queries, k=5)
        status, body, _ = _post(
            gateway.port, "/query", {"queries": queries.tolist(), "k": 5}
        )
        assert status == 200
        assert _results_match(body["results"], expected)

    def test_single_query_matches_batch(self, workload, snapshot_path, gateway):
        _, queries = workload
        expected = load_index(snapshot_path).query_batch(queries, k=3)
        for q, exp in zip(queries, expected):
            status, body, _ = _post(
                gateway.port, "/query", {"query": q.tolist(), "k": 3}
            )
            assert status == 200
            assert _results_match(body["results"], [exp])

    def test_concurrent_clients_reassemble_bit_identical(
        self, workload, snapshot_path, gateway
    ):
        """N clients, one slice each, answers coalesced by the batcher:
        reassembled answers equal the in-process batch exactly."""
        _, queries = workload
        expected = load_index(snapshot_path).query_batch(queries, k=4)
        slices = np.array_split(np.arange(queries.shape[0]), 4)
        answers = {}
        failures = []

        def run(idx, rows):
            try:
                status, body, _ = _post(
                    gateway.port,
                    "/query",
                    {"queries": queries[rows].tolist(), "k": 4},
                )
                assert status == 200, body
                answers[idx] = body["results"]
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [
            threading.Thread(target=run, args=(i, rows))
            for i, rows in enumerate(slices)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not failures
        reassembled = [row for i in range(len(slices)) for row in answers[i]]
        assert _results_match(reassembled, expected)


# ----------------------------------------------------------------------
# Micro-batching semantics
# ----------------------------------------------------------------------


def _open_connections(gateway, count):
    """``count`` keep-alive connections the gateway has registered."""
    conns = [
        http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        for _ in range(count)
    ]
    for conn in conns:
        conn.connect()
    deadline = time.monotonic() + 10
    while gateway.metrics.snapshot()["connections"]["open"] < count:
        assert time.monotonic() < deadline, "gateway never saw the connections"
        time.sleep(0.005)
    return conns


def _send_query(conn, query, k=2):
    conn.request("POST", "/query", body=json.dumps({"query": query.tolist(), "k": k}))


def _read_status(conn):
    response = conn.getresponse()
    response.read()
    return response.status


class TestBatching:
    def test_window_coalesces_concurrent_requests(self, workload, fake_server):
        """Two requests inside one window -> one dispatch of 2 requests."""
        _, queries = workload
        with HttpGateway(fake_server, batch_window=0.5, max_batch=2) as gateway:
            # Both connections are open before either request is sent:
            # a window closes once every open connection is in the batch.
            conns = _open_connections(gateway, 2)
            results = []

            def post_one(i):
                _send_query(conns[i], queries[i])
                results.append(_read_status(conns[i]))

            threads = [threading.Thread(target=post_one, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            for conn in conns:
                conn.close()
            assert results == [200, 200]
            snap = gateway.metrics.snapshot()
            # max_batch=2 closed the window as soon as both arrived; the
            # histogram must have seen the coalesced pair.
            assert snap["batch"]["max"] == 2
            # ...and the server saw them as ONE query_batch call of 2 rows.
            assert 2 in fake_server.calls

    def test_lone_connection_skips_the_window(self, workload, fake_server):
        """With one open connection the batch is complete at its first
        request: it dispatches at once, not after ``batch_window``."""
        _, queries = workload
        with HttpGateway(fake_server, batch_window=5.0) as gateway:
            (conn,) = _open_connections(gateway, 1)
            try:
                started = time.monotonic()
                _send_query(conn, queries[0])
                assert _read_status(conn) == 200
                assert time.monotonic() - started < 1.0
            finally:
                conn.close()
        assert fake_server.calls == [1]

    def test_window_closes_once_every_open_connection_joined(
        self, workload, fake_server
    ):
        """Conn A's request waits for conn B's; then both go as one call."""
        _, queries = workload
        with HttpGateway(fake_server, batch_window=5.0) as gateway:
            a, b = _open_connections(gateway, 2)
            try:
                started = time.monotonic()
                _send_query(a, queries[0])
                time.sleep(0.3)
                assert fake_server.calls == []  # A is held for B
                _send_query(b, queries[1])
                assert _read_status(a) == 200
                assert _read_status(b) == 200
                assert time.monotonic() - started < 2.5
            finally:
                a.close()
                b.close()
        assert fake_server.calls == [2]

    def test_idle_connection_keeps_the_window_open(self, workload, fake_server):
        """An open connection that sends nothing could still join, so the
        window runs its full length."""
        _, queries = workload
        with HttpGateway(fake_server, batch_window=0.3) as gateway:
            busy, idle = _open_connections(gateway, 2)
            try:
                started = time.monotonic()
                _send_query(busy, queries[0])
                assert _read_status(busy) == 200
                assert time.monotonic() - started >= 0.3
            finally:
                busy.close()
                idle.close()
        assert fake_server.calls == [1]

    def test_zero_window_serves_sequential_requests_alone(
        self, workload, fake_server
    ):
        _, queries = workload
        with HttpGateway(fake_server, batch_window=0.0) as gateway:
            for i in range(3):
                status, _, _ = _post(
                    gateway.port, "/query", {"query": queries[i].tolist(), "k": 2}
                )
                assert status == 200
            snap = gateway.metrics.snapshot()
            assert snap["batch"]["count"] == 3
            assert snap["batch"]["max"] == 1

    def test_mixed_k_share_window_but_dispatch_separately(
        self, workload, snapshot_path, fake_server
    ):
        _, queries = workload
        index = load_index(snapshot_path)
        with HttpGateway(fake_server, batch_window=0.5, max_batch=2) as gateway:
            results = {}

            def post_one(i, k):
                results[k] = _post(
                    gateway.port, "/query", {"query": queries[i].tolist(), "k": k}
                )

            threads = [
                threading.Thread(target=post_one, args=(0, 3)),
                threading.Thread(target=post_one, args=(1, 7)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            for k, i in ((3, 0), (7, 1)):
                status, body, _ = results[k]
                assert status == 200
                assert _results_match(
                    body["results"], index.query_batch(queries[i][None, :], k=k)
                )
            # One window, two dispatches of one request each (distinct k).
            assert gateway.metrics.snapshot()["batch"]["max"] == 1
            assert sorted(fake_server.calls) == [1, 1]

    def test_max_batch_caps_coalescing(self, workload, fake_server):
        _, queries = workload
        with HttpGateway(
            fake_server, batch_window=0.5, max_batch=2, queue_limit=16
        ) as gateway:
            statuses = []

            def post_one(i):
                status, _, _ = _post(
                    gateway.port, "/query", {"query": queries[i].tolist(), "k": 2}
                )
                statuses.append(status)

            threads = [threading.Thread(target=post_one, args=(i,)) for i in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert statuses == [200] * 5
            assert gateway.metrics.snapshot()["batch"]["max"] <= 2


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestShedding:
    def test_full_queue_sheds_429_and_inflight_completes(
        self, workload, snapshot_path, fake_server
    ):
        """queue_limit pending + 1 -> 429 with Retry-After; everything
        admitted before and during the overload still answers exactly."""
        _, queries = workload
        index = load_index(snapshot_path)
        fake_server.release.clear()  # hold the first dispatch open
        admitted = {}
        failures = []

        def post_one(i):
            try:
                admitted[i] = _post(
                    gateway.port,
                    "/query",
                    {"query": queries[i].tolist(), "k": 2},
                    timeout=60.0,
                )
            except Exception as exc:
                failures.append(exc)

        with HttpGateway(
            fake_server, batch_window=0.0, max_batch=8, queue_limit=2
        ) as gateway:
            # R0 is pulled by the batcher and blocks inside the fake
            # server; the queue is empty again once it is dispatched.
            t0 = threading.Thread(target=post_one, args=(0,))
            t0.start()
            assert fake_server.entered.wait(30)
            # R1, R2 fill the bounded queue while the dispatch is held.
            waiters = [threading.Thread(target=post_one, args=(i,)) for i in (1, 2)]
            for t in waiters:
                t.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if gateway.metrics.snapshot()["queue_depth"] >= 2:
                    break
                time.sleep(0.005)
            assert gateway.metrics.snapshot()["queue_depth"] == 2

            # R3 finds the queue full: shed, not parked.
            status, body, headers = _post(
                gateway.port, "/query", {"query": queries[3].tolist(), "k": 2}
            )
            assert status == 429
            assert "admission queue full" in body["error"]
            assert int(headers["Retry-After"]) >= 1

            # Release: every admitted request completes, bit-identical.
            fake_server.release.set()
            t0.join(60)
            for t in waiters:
                t.join(60)
            assert not failures
            for i in range(3):
                status, body, _ = admitted[i]
                assert status == 200
                assert _results_match(
                    body["results"], index.query_batch(queries[i][None, :], k=2)
                )
            snap = gateway.metrics.snapshot()
            assert snap["shed_total"] == 1
            assert snap["endpoints"]["query"]["statuses"]["429"] == 1
            assert snap["endpoints"]["query"]["statuses"]["200"] == 3


# ----------------------------------------------------------------------
# Metrics accounting
# ----------------------------------------------------------------------


class TestMetrics:
    def test_registry_reconciles_with_requests_made(self, workload, server):
        _, queries = workload
        with HttpGateway(server, batch_window=0.0) as gateway:
            for i in range(3):
                status, _, _ = _post(
                    gateway.port, "/query", {"query": queries[i].tolist(), "k": 2}
                )
                assert status == 200
            assert _get(gateway.port, "/healthz")[0] == 200
            assert _get(gateway.port, "/status")[0] == 200
            assert _post(gateway.port, "/query", {"bad": 1})[0] == 400
            _get(gateway.port, "/metrics")
            _, snap, _ = _get(gateway.port, "/metrics")

        query = snap["endpoints"]["query"]
        assert query["count"] == 4
        assert query["statuses"] == {"200": 3, "400": 1}
        assert snap["endpoints"]["healthz"]["statuses"] == {"200": 1}
        assert snap["endpoints"]["status"]["statuses"] == {"200": 1}
        # The second /metrics read sees exactly the first one recorded.
        assert snap["endpoints"]["metrics"]["count"] == 1
        assert snap["requests_total"] == 4 + 1 + 1 + 1
        assert snap["shed_total"] == 0
        assert snap["queue_depth"] == 0
        assert snap["batch"]["count"] == 3  # the 400 never reached the batcher
        latency = query["latency_seconds"]
        assert latency["count"] == 4
        assert 0 <= latency["p50"] <= latency["p90"] <= latency["p99"]
        assert latency["sum"] > 0

    def test_histogram_quantiles_interpolate_and_saturate(self):
        h = Histogram((1.0, 2.0, 4.0))
        assert h.quantile(0.5) == 0.0  # empty
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.count == 4 and h.sum == pytest.approx(6.5)
        # Rank 2 of 4 lands mid-bucket (1, 2]: interpolated inside it.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert 2.0 <= h.quantile(0.99) <= 4.0
        h.observe(1000.0)  # overflow bucket
        assert h.quantile(1.0) == 4.0  # saturates at the last bound
        snap = h.snapshot()
        assert snap["buckets"]["le_inf"] == 1
        assert snap["max"] == 1000.0
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_counter_and_bad_depth_probe(self):
        c = Counter()
        c.add()
        c.add(4)
        assert c.value == 5
        m = GatewayMetrics()
        m.set_queue_depth_probe(lambda: 1 / 0)
        m.set_connections_probe(lambda: -7)
        snap = m.snapshot()
        # A raising probe clamps its gauge and counts the failure; a
        # negative sample is clamped too — dashboards doing arithmetic
        # on the gauges must never see a sentinel.
        assert snap["queue_depth"] == 0
        assert snap["connections"]["open"] == 0
        assert snap["probe_errors_total"] == 1
        assert m.snapshot()["probe_errors_total"] == 2


# ----------------------------------------------------------------------
# Health and lifecycle
# ----------------------------------------------------------------------


class TestHealth:
    def test_healthz_tracks_reload_generations(self, snapshot_path, server):
        with HttpGateway(server, batch_window=0.0) as gateway:
            status, body, _ = _get(gateway.port, "/healthz")
            assert (status, body["ok"]) == (200, True)
            generation = body["generation"]
            server.reload(snapshot_path)
            status, body, _ = _get(gateway.port, "/healthz")
            assert (status, body["ok"]) == (200, True)
            assert body["generation"] == generation + 1

    def test_healthz_503_when_stopped_or_broken(self, snapshot_path, workload):
        stopped = SnapshotServer(snapshot_path)  # never started
        with HttpGateway(stopped, batch_window=0.0) as gateway:
            status, body, _ = _get(gateway.port, "/healthz")
            assert (status, body["ok"]) == (503, False)

        class _Broken:
            dim = workload[0].shape[1]

            def status(self):
                return {
                    "serving": False,
                    "generation": 3,
                    "broken": "worker 0 (pid 1) died",
                }

        with HttpGateway(_Broken(), batch_window=0.0) as gateway:
            status, body, _ = _get(gateway.port, "/healthz")
            assert status == 503
            assert body["broken"] == "worker 0 (pid 1) died"

    def test_query_on_stopped_server_is_503_not_hang(self, snapshot_path, workload):
        _, queries = workload
        stopped = SnapshotServer(snapshot_path)
        with HttpGateway(stopped, batch_window=0.0) as gateway:
            status, body, _ = _post(
                gateway.port, "/query", {"query": queries[0].tolist(), "k": 2}
            )
            assert status == 503
            assert "not serving" in body["error"]
            status, body, _ = _post(gateway.port, "/reload", {})
            assert status == 503
            assert "not serving" in body["error"]

    def test_status_carries_gateway_block(self, gateway, server):
        status, body, _ = _get(gateway.port, "/status")
        assert status == 200
        assert body["serving"] is True
        block = body["gateway"]
        assert block["address"] == gateway.address
        assert block["max_batch"] == gateway.max_batch
        assert block["queue_limit"] == gateway.queue_limit
        assert block["mutable"] is False

    def test_lifecycle_double_start_and_conflicting_bind(self, server):
        gateway = HttpGateway(server).start()
        try:
            with pytest.raises(GatewayError, match="already started"):
                gateway.start()
            with pytest.raises(GatewayError, match="could not listen"):
                HttpGateway(server, port=gateway.port).start()
        finally:
            gateway.close()
        gateway.close()  # idempotent
        # A closed gateway can be started again (fresh port).
        reopened = gateway.start()
        try:
            assert _get(reopened.port, "/healthz")[0] == 200
        finally:
            gateway.close()

    def test_constructor_validation(self, server):
        with pytest.raises(ValueError, match="batch_window"):
            HttpGateway(server, batch_window=-1)
        with pytest.raises(ValueError, match="max_batch"):
            HttpGateway(server, max_batch=0)
        with pytest.raises(ValueError, match="queue_limit"):
            HttpGateway(server, queue_limit=0)


# ----------------------------------------------------------------------
# Protocol edges
# ----------------------------------------------------------------------


class TestProtocol:
    def test_unknown_path_and_wrong_methods(self, gateway):
        assert _get(gateway.port, "/nope")[0] == 404
        assert _get(gateway.port, "/query")[0] == 405
        assert _post(gateway.port, "/healthz", {})[0] == 405
        assert _post(gateway.port, "/metrics", {})[0] == 405
        assert _get(gateway.port, "/reload")[0] == 405
        # No on_request hook supplied: /shutdown does not exist here.
        assert _post(gateway.port, "/shutdown", {})[0] == 404
        assert _get(gateway.port, "/shutdown")[0] == 404

    def test_malformed_bodies_are_400(self, gateway, workload):
        _, queries = workload
        q = queries[0].tolist()
        cases = [
            {"k": 2},  # neither query nor queries
            {"query": q, "queries": [q], "k": 2},  # both
            {"query": q, "k": 0},  # bad k
            {"query": q, "k": True},  # bool is not an int here
            {"query": [[1.0, 2.0]], "k": 2},  # nested single query
            {"query": q[:-1], "k": 2},  # wrong dimensionality
            {"queries": [], "k": 2},  # empty batch
            {"query": ["a"] * len(q), "k": 2},  # non-numeric
            {"query": [float("nan")] * len(q), "k": 2},  # non-finite
            {"query": [1e154] * len(q), "k": 2},  # squared norm overflows
            {"queries": [q, [1e300] * len(q)], "k": 2},
        ]
        for payload in cases:
            status, body, _ = _post(gateway.port, "/query", payload)
            assert status == 400, payload
            assert "error" in body
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            conn.request("POST", "/query", body="{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_raw_protocol_violations(self, gateway):
        assert b"400" in _raw(gateway.port, b"NONSENSE\r\n\r\n").split(b"\r\n")[0]
        assert (
            b"411"
            in _raw(
                gateway.port, b"POST /query HTTP/1.1\r\nHost: x\r\n\r\n"
            ).split(b"\r\n")[0]
        )
        # chunked is supported now; anything else stays 501.
        assert (
            b"501"
            in _raw(
                gateway.port,
                b"POST /query HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            ).split(b"\r\n")[0]
        )

    def test_chunked_request_bodies(self, gateway, workload):
        _, queries = workload
        payload = json.dumps({"query": queries[0].tolist(), "k": 2}).encode()

        def chunked(body: bytes, size: int) -> bytes:
            pieces = [body[i : i + size] for i in range(0, len(body), size)]
            framed = b"".join(
                b"%x\r\n%s\r\n" % (len(p), p) for p in pieces
            )
            return (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                + framed
                + b"0\r\n\r\n"
            )

        # A body split across many small chunks parses and answers 200.
        response = _raw(gateway.port, chunked(payload, 7))
        assert b"200" in response.split(b"\r\n")[0]
        assert b'"results"' in response
        # Chunk extensions are tolerated, trailers are discarded.
        exotic = (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            + b"%x;ext=1\r\n%s\r\n" % (len(payload), payload)
            + b"0\r\nX-Trailer: ignored\r\n\r\n"
        )
        assert b"200" in _raw(gateway.port, exotic).split(b"\r\n")[0]
        # Malformed chunk size is a 400, not a hang or a 500.
        garbage = (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            b"zz\r\n"
        )
        assert b"400" in _raw(gateway.port, garbage).split(b"\r\n")[0]

    def test_chunked_body_hits_the_413_cap_without_buffering(
        self, workload, server, monkeypatch
    ):
        monkeypatch.setattr(gateway_module, "_MAX_BODY_BYTES", 64)
        with HttpGateway(server, batch_window=0.0) as gateway:
            # Declared chunk sizes alone trip the cap: the data bytes for
            # the oversized chunk are never sent, yet the refusal arrives.
            request = (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                b"1000\r\n"
            )
            assert b"413" in _raw(gateway.port, request).split(b"\r\n")[0]

    def test_oversized_body_is_413(self, workload, server, monkeypatch):
        _, queries = workload
        monkeypatch.setattr(gateway_module, "_MAX_BODY_BYTES", 64)
        with HttpGateway(server, batch_window=0.0) as gateway:
            status, body, _ = _post(
                gateway.port, "/query", {"queries": queries.tolist(), "k": 2}
            )
            assert status == 413

    def test_keep_alive_reuses_one_connection(self, gateway, workload):
        _, queries = workload
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            for i in range(3):
                conn.request(
                    "POST",
                    "/query",
                    body=json.dumps({"query": queries[i].tolist(), "k": 2}),
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()  # drain so the connection can be reused
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Resilience: deadlines, connection lifecycle, drain, request counting
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_x_timeout_ms_answers_504_within_twice_the_budget(
        self, workload, fake_server
    ):
        """A stuck backend must not hold a deadlined request hostage:
        the gateway itself fails it with 504 on time, and serving
        resumes once the backend unblocks."""
        _, queries = workload
        fake_server.release.clear()
        with HttpGateway(fake_server, batch_window=0.0) as gateway:
            started = time.monotonic()
            status, body, _ = _request(
                gateway.port, "POST", "/query",
                {"query": queries[0].tolist(), "k": 2},
                headers={"X-Timeout-Ms": "300"},
            )
            elapsed = time.monotonic() - started
            assert status == 504
            assert "deadline" in body["error"]
            assert elapsed < 0.6, f"504 took {elapsed:.2f}s for a 0.3s budget"
            fake_server.release.set()
            status, _, _ = _post(
                gateway.port, "/query", {"query": queries[1].tolist(), "k": 2}
            )
            assert status == 200
            snap = gateway.metrics.snapshot()
            assert snap["deadline_exceeded_total"] == 1
            assert snap["endpoints"]["query"]["statuses"]["504"] == 1

    def test_generous_budget_is_invisible(self, workload, snapshot_path,
                                          gateway):
        _, queries = workload
        expected = load_index(snapshot_path).query_batch(queries[:1], k=3)
        status, body, _ = _request(
            gateway.port, "POST", "/query",
            {"query": queries[0].tolist(), "k": 3},
            headers={"X-Timeout-Ms": "30000"},
        )
        assert status == 200
        assert _results_match(body["results"], expected)

    def test_invalid_timeout_header_is_400(self, workload, gateway):
        _, queries = workload
        payload = {"query": queries[0].tolist(), "k": 2}
        for bad in ("nope", "-5", "0", "inf"):
            status, body, _ = _request(
                gateway.port, "POST", "/query", payload,
                headers={"X-Timeout-Ms": bad},
            )
            assert status == 400, bad
            assert "X-Timeout-Ms" in body["error"]

    def test_server_side_deadline_maps_to_504_not_503(self, workload):
        """A typed DeadlineExceeded from the engine is a deadline miss
        (504), not a serving failure (503) — even though the exception
        subclasses ServerError."""
        from repro.serve import DeadlineExceeded

        _, queries = workload

        class _Expired:
            dim = queries.shape[1]

            def query_batch(self, queries, k=1, timeout=None):
                raise DeadlineExceeded("request spent its budget")

            def status(self):
                return {"serving": True, "generation": 1, "broken": None}

        with HttpGateway(_Expired(), batch_window=0.0) as gateway:
            status, body, _ = _request(
                gateway.port, "POST", "/query",
                {"query": queries[0].tolist(), "k": 2},
                headers={"X-Timeout-Ms": "5000"},
            )
            assert status == 504
            # The engine's own typed message is surfaced verbatim.
            assert "spent its budget" in body["error"]

    def test_retry_after_hint_tracks_observed_batch_latency(self, server):
        with HttpGateway(server, batch_window=0.002, max_batch=8) as gateway:
            # Cold gateway: nothing observed yet, fall back to a small
            # constant derived from the batch window.
            assert gateway._retry_after_hint() == 1
            for _ in range(10):
                gateway.metrics.batch_latency.observe(2.0)
            # p50 ~ 1.75s (bucket interpolation), one batch of backlog.
            assert gateway._retry_after_hint() == 2
            # Dispatched-but-unanswered requests count as backlog even
            # though they are invisible to queue.qsize().
            gateway._dispatched = 16
            assert gateway._retry_after_hint() == 4  # 2 batches x ~1.75s
            gateway._dispatched = 0
            for _ in range(50):
                gateway.metrics.batch_latency.observe(100.0)
            # Saturated histogram still clamps into [1, 60].
            assert 1 <= gateway._retry_after_hint() <= 60


class TestConnectionLifecycle:
    def test_idle_connections_are_reaped(self, server, monkeypatch):
        monkeypatch.setattr(gateway_module, "_IDLE_TIMEOUT", 0.3)
        with HttpGateway(server, batch_window=0.0) as gateway:
            with socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=10.0
            ) as idle:
                idle.settimeout(10.0)
                assert idle.recv(1) == b"", "idle connection was not closed"
            snap = gateway.metrics.snapshot()
            assert snap["connections"]["reaped_idle"] >= 1

    def test_connection_cap_evicts_least_recently_active(self, server,
                                                         monkeypatch):
        monkeypatch.setattr(gateway_module, "_MAX_CONNECTIONS", 1)
        with HttpGateway(server, batch_window=0.0) as gateway:
            first = socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=10.0
            )
            try:
                first.settimeout(10.0)
                time.sleep(0.1)  # let the loop register the connection
                with socket.create_connection(
                    ("127.0.0.1", gateway.port), timeout=10.0
                ):
                    # Admitting the second evicts the idle first.
                    assert first.recv(1) == b"", "over-cap connection survived"
            finally:
                first.close()
            snap = gateway.metrics.snapshot()
            assert snap["connections"]["reaped_overflow"] >= 1

    def test_open_connections_are_reported(self, gateway):
        _, snap, _ = _get(gateway.port, "/metrics")
        # The probing connection itself is open at snapshot time.
        assert snap["connections"]["open"] >= 1

    def test_status_reports_the_lifecycle_knobs(self, workload, fake_server,
                                                monkeypatch):
        monkeypatch.setattr(gateway_module, "_IDLE_TIMEOUT", 7.0)
        monkeypatch.setattr(gateway_module, "_MAX_CONNECTIONS", 9)
        with HttpGateway(fake_server, batch_window=0.0) as gateway:
            _, body, _ = _get(gateway.port, "/status")
            block = body["gateway"]
            assert "default_timeout_seconds" not in block
            assert block["idle_timeout_seconds"] == 7.0
            assert block["max_connections"] == 9
            assert block["draining"] is False


class TestGracefulDrain:
    def test_inflight_request_finishes_during_drain(self, workload,
                                                    snapshot_path,
                                                    fake_server):
        """close() stops admitting but lets the admitted request finish:
        the client gets its exact answer, not a reset."""
        _, queries = workload
        index = load_index(snapshot_path)
        fake_server.release.clear()
        gateway = HttpGateway(fake_server, batch_window=0.0).start()
        outcome = {}

        def post_one():
            outcome["answer"] = _post(
                gateway.port, "/query",
                {"query": queries[0].tolist(), "k": 2}, timeout=60.0,
            )

        thread = threading.Thread(target=post_one)
        thread.start()
        assert fake_server.entered.wait(30)
        closer = threading.Thread(target=gateway.close)
        closer.start()
        time.sleep(0.1)
        fake_server.release.set()
        closer.join(30)
        thread.join(30)
        status, body, _ = outcome["answer"]
        assert status == 200
        assert _results_match(
            body["results"], index.query_batch(queries[0][None, :], k=2)
        )
        assert gateway.metrics.snapshot()["drain_seconds"] is not None


class TestRequestCounting:
    def test_on_request_counts_engine_work_only(self, workload, snapshot_path,
                                                server):
        """The hook sees every work verb with its status (what serve
        counts --max-requests and fails loud by), never the probes."""
        _, queries = workload
        counted = []
        with HttpGateway(server, batch_window=0.0,
                         on_request=lambda *seen: counted.append(seen)) as gateway:
            assert _post(gateway.port, "/query",
                         {"query": queries[0].tolist(), "k": 2})[0] == 200
            assert _post(gateway.port, "/query", {"bad": 1})[0] == 400
            assert _get(gateway.port, "/healthz")[0] == 200
            assert _get(gateway.port, "/status")[0] == 200
            assert _get(gateway.port, "/metrics")[0] == 200
            assert _post(gateway.port, "/insert",
                         {"point": [0.0] * 12})[0] == 403
        assert counted == [("query", 200), ("query", 400), ("insert", 403)]


# ----------------------------------------------------------------------
# Operator endpoints: /reload and /shutdown
# ----------------------------------------------------------------------


@pytest.fixture()
def reload_setup(workload, snapshot_path, tmp_path):
    """A server on its own copy of the snapshot, plus a same-dim successor."""
    live = str(tmp_path / "live.npz")
    with open(snapshot_path, "rb") as src, open(live, "wb") as dst:
        dst.write(src.read())
    successor = str(tmp_path / "successor.npz")
    other = gaussian_mixture(700, workload[0].shape[1], n_clusters=4, seed=29)
    save_index(DBLSH(**COMMON).fit(other), successor)
    server = SnapshotServer(live, query_timeout=60).start()
    yield live, successor, server
    server.close()


class TestOperatorEndpoints:
    def test_reload_rereads_the_served_file(self, workload, reload_setup):
        _, queries = workload
        live, successor, server = reload_setup
        with HttpGateway(server, batch_window=0.0) as gateway:
            generation = _get(gateway.port, "/status")[1]["generation"]
            os.replace(successor, live)
            status, body, _ = _post(gateway.port, "/reload", {})
            assert status == 200
            assert body["generation"] == generation + 1
            status, body, _ = _post(
                gateway.port, "/query", {"queries": queries.tolist(), "k": 4}
            )
            assert status == 200
            assert _results_match(
                body["results"], load_index(live).query_batch(queries, k=4)
            )

    def test_refused_reload_is_409_and_keeps_serving(self, workload,
                                                     reload_setup):
        _, queries = workload
        live, _, server = reload_setup
        expected = load_index(live).query_batch(queries, k=4)
        with HttpGateway(server, batch_window=0.0) as gateway:
            generation = _get(gateway.port, "/status")[1]["generation"]
            junk = live + ".junk"
            with open(junk, "wb") as fh:
                fh.write(b"not a snapshot at all")
            os.replace(junk, live)
            status, body, _ = _post(gateway.port, "/reload", {})
            assert status == 409
            assert "error" in body
            assert _get(gateway.port, "/status")[1]["generation"] == generation
            status, body, _ = _post(
                gateway.port, "/query", {"queries": queries.tolist(), "k": 4}
            )
            assert status == 200
            assert _results_match(body["results"], expected)

    def test_shutdown_is_loopback_only_and_reported(self, server, monkeypatch):
        seen = []
        with HttpGateway(server, batch_window=0.0,
                         on_request=lambda *hit: seen.append(hit)) as gateway:
            assert _get(gateway.port, "/shutdown")[0] == 405
            status, body, _ = _post(gateway.port, "/shutdown", {})
            assert (status, body) == (200, {"shutting_down": True})
            monkeypatch.setattr(HttpGateway, "_peer_host",
                                staticmethod(lambda writer: "203.0.113.7"))
            status, body, _ = _post(gateway.port, "/shutdown", {})
            assert status == 403
            assert "loopback" in body["error"]
        # The gateway only reports; stopping is the embedding CLI's call.
        assert seen == [("shutdown", 405), ("shutdown", 200), ("shutdown", 403)]


# ----------------------------------------------------------------------
# Mutations over HTTP
# ----------------------------------------------------------------------


@pytest.fixture()
def mutable_setup(tmp_path):
    data = gaussian_mixture(400, 8, n_clusters=3, seed=11)
    path = str(tmp_path / "mutable.npz")
    save_index(DBLSH(c=1.5, l_spaces=3, k_per_space=6, t=16, seed=0,
                     auto_initial_radius=True).fit(data), path)
    server = MutableSnapshotServer(path, compact_threshold=0)
    server.start()
    yield data, server
    server.close()


class TestMutableHttp:
    def test_insert_query_delete_roundtrip(self, mutable_setup):
        data, server = mutable_setup
        with HttpGateway(server, batch_window=0.0) as gateway:
            point = (data.mean(axis=0) + 5.0).tolist()
            status, body, _ = _post(gateway.port, "/insert", {"point": point})
            assert status == 200
            new_id = body["id"]
            assert new_id >= data.shape[0]

            status, body, _ = _post(
                gateway.port, "/query", {"query": point, "k": 1}
            )
            assert status == 200
            assert body["results"][0]["ids"] == [new_id]
            assert body["results"][0]["distances"] == [0.0]

            status, body, _ = _post(gateway.port, "/delete", {"id": new_id})
            assert (status, body["deleted"]) == (200, True)
            status, body, _ = _post(gateway.port, "/delete", {"id": new_id})
            assert (status, body["deleted"]) == (200, False)

            status, body, _ = _post(
                gateway.port, "/query", {"query": point, "k": 1}
            )
            assert status == 200
            assert body["results"][0]["ids"] != [new_id]

            status, body, _ = _post(gateway.port, "/compact", {})
            assert status == 200
            assert body["compacted"] is True

            # Each acked mutation recorded its group-fsync wait time.
            snap = _get(gateway.port, "/metrics")[1]
            ack = snap["mutation_ack_latency_seconds"]
            assert ack["count"] == 3  # 1 insert + 2 deletes
            assert ack["sum"] > 0

    def test_mutation_validation_errors(self, mutable_setup):
        _, server = mutable_setup
        with HttpGateway(server, batch_window=0.0) as gateway:
            assert _post(gateway.port, "/insert", {})[0] == 400
            assert _post(gateway.port, "/insert", {"point": [1.0]})[0] == 400
            assert _post(gateway.port, "/delete", {})[0] == 400
            assert _post(gateway.port, "/delete", {"id": "x"})[0] == 400
            status, body, _ = _post(gateway.port, "/delete", {"id": 10**9})
            assert status == 400
            assert "out of range" in body["error"]
            assert _get(gateway.port, "/status")[1]["gateway"]["mutable"] is True

    def test_read_only_serves_refuse_mutations_with_403(self, gateway):
        # A read-only serve is a plain SnapshotServer: the verbs do not
        # exist -> 403.
        status, body, _ = _post(gateway.port, "/insert", {"point": [0.0] * 12})
        assert status == 403
        assert "read-only" in body["error"]
        assert _post(gateway.port, "/delete", {"id": 1})[0] == 403
        assert _post(gateway.port, "/compact", {})[0] == 403


# ----------------------------------------------------------------------
# Descriptors a worker forked mid-serve inherits
# ----------------------------------------------------------------------


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def _read_response(sock) -> int:
    """Read one HTTP response off ``sock``, leaving the socket open."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    response.read()
    return response.status


def _close_after(port, first: bytes, between) -> bool:
    """Send ``first`` on a keep-alive connection, run ``between()``, then
    send a ``Connection: close`` request: does EOF follow its response
    within 1 s?"""
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(first)
        assert _read_response(sock) == 200
        between()
        sock.sendall(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        assert _read_response(sock) == 200
        sock.settimeout(1.0)
        try:
            return sock.recv(1) == b""
        except socket.timeout:
            return False


class TestInheritedDescriptors:
    def test_connection_close_sees_eof_after_reload(self, snapshot_path):
        with SnapshotServer(snapshot_path) as server, \
                HttpGateway(server, batch_window=0.0) as gateway:
            assert _close_after(gateway.port, _HEALTHZ, server.reload)

    def test_closed_gateway_port_rebinds_after_reload(self, snapshot_path):
        with SnapshotServer(snapshot_path) as server:
            gateway = HttpGateway(server, batch_window=0.0).start()
            port = gateway.port
            server.reload()
            gateway.close()
            with HttpGateway(server, port=port, batch_window=0.0) as again:
                assert _get(again.port, "/healthz", timeout=5.0)[0] == 200

    def test_connection_close_sees_eof_after_supervision_restart(
        self, snapshot_path, workload, monkeypatch
    ):
        _, queries = workload
        monkeypatch.setenv("REPRO_SERVE_FAULT", "die-on-query:0:0")
        body = json.dumps({"query": queries[0].tolist(), "k": 3}).encode()
        query = (
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json"
            b"\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        with SnapshotServer(snapshot_path) as server, \
                HttpGateway(server, batch_window=0.0) as gateway:
            # The query kills worker 0; supervision forks its replacement
            # while this connection is open.
            assert _close_after(gateway.port, query, lambda: None)
            assert server.status()["restarts"] == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="reads /proc/<pid>/fd")
    def test_workers_hold_no_socket_or_wal_file_after_compaction(
        self, mutable_setup
    ):
        _, server = mutable_setup
        wal = os.path.realpath(server.wal_path)
        with HttpGateway(server, batch_window=0.0) as gateway, \
                socket.create_connection(("127.0.0.1", gateway.port)) as client:
            client.sendall(_HEALTHZ)
            assert _read_response(client) == 200
            server.insert(np.full(server.dim, 50.0))
            assert server.compact()["compacted"] is True
            for pid in server.worker_pids:
                fd_dir = f"/proc/{pid}/fd"
                links = [os.readlink(os.path.join(fd_dir, fd))
                         for fd in os.listdir(fd_dir)]
                sockets = [link for link in links if link.startswith("socket:")]
                assert len(sockets) == 1, links  # its own pipe
                assert not [link for link in links
                            if link.startswith(wal + os.sep)], links
