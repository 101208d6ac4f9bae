"""Hot-reload tests: snapshot generations flip without dropping anything.

The reload contract of :meth:`repro.serve.SnapshotServer.reload`:

* the new generation may have a **different shard count** (and point
  count, and budget mode) — the worker pool is rebuilt to match;
* a reload **mid-query** never disturbs the in-flight request: it
  answers from the generation it checked out, then the old workers
  retire (drained, not killed under the request);
* a reload to a **corrupt/junk file**, a **legacy ``.npz``** container
  or a snapshot written under a different **format version** is refused
  with
  :class:`~repro.io.SnapshotError`, and one of different
  **dimensionality** with :class:`~repro.serve.ServerError` — in every
  refusal case the old generation keeps serving;
* answers always stay bit-identical to ``load_index().query_batch()``
  on whichever generation answered;
* the CLI surfaces the same machinery as ``serve --watch`` (mtime poll)
  and the gateway's ``POST /reload`` (exercised in
  ``tests/test_serve_http.py`` and ``tests/test_serve_concurrency.py``).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time

import numpy as np
import pytest

from repro import ShardedDBLSH
from repro.data.generators import gaussian_mixture
from repro.io import SnapshotError, load_index, save_index
from repro.io.snapshot import ARENA_MAGIC, ARENA_VERSION, SNAPSHOT_FORMAT
from repro.serve import ServerError, SnapshotServer

COMMON = dict(
    c=1.5, l_spaces=3, k_per_space=6, t=32, seed=0, auto_initial_radius=True
)
DIM = 12


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
def queries():
    rng = np.random.default_rng(23)
    return rng.standard_normal((6, DIM))


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """Two generations over *different* data (same dim), so answers
    attribute a response to its generation unambiguously."""
    root = tmp_path_factory.mktemp("reload")
    data_a = gaussian_mixture(800, DIM, n_clusters=5, seed=31)
    data_b = gaussian_mixture(1000, DIM, n_clusters=7, seed=37)
    path_a = str(root / "gen_a.npz")
    path_b = str(root / "gen_b.npz")
    save_index(ShardedDBLSH(shards=2, **COMMON).fit(data_a), path_a)
    save_index(ShardedDBLSH(shards=3, **COMMON).fit(data_b), path_b)
    return path_a, path_b


@pytest.fixture(scope="module")
def expected(snapshots, queries):
    path_a, path_b = snapshots
    return (
        load_index(path_a).query_batch(queries, k=5),
        load_index(path_b).query_batch(queries, k=5),
    )


class TestReloadFlip:
    def test_reload_to_different_shard_count(self, snapshots, queries, expected):
        path_a, path_b = snapshots
        expected_a, expected_b = expected
        with SnapshotServer(path_a) as server:
            assert (server.generation, server.num_shards) == (1, 2)
            assert _same(server.query_batch(queries, k=5), expected_a)
            old_pids = server.worker_pids
            info = server.reload(path_b)
            assert info["generation"] == 2
            assert info["shards"] == 3
            assert server.num_shards == 3
            assert server.num_points == 1000
            assert _same(server.query_batch(queries, k=5), expected_b)
            # The retired generation drains immediately (nothing was in
            # flight) — its workers must not linger behind the new pool.
            _assert_all_dead(old_pids)
            new_pids = server.worker_pids
        _assert_all_dead(new_pids)

    def test_reload_same_path_picks_up_overwrite(self, snapshots, queries,
                                                 expected, tmp_path):
        path_a, path_b = snapshots
        expected_a, expected_b = expected
        path = str(tmp_path / "live.npz")
        with open(path_a, "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
        with SnapshotServer(path) as server:
            assert _same(server.query_batch(queries, k=5), expected_a)
            with open(path_b, "rb") as src, open(path, "wb") as dst:
                dst.write(src.read())
            info = server.reload()  # no argument: re-read the served path
            assert info["generation"] == 2
            assert _same(server.query_batch(queries, k=5), expected_b)

    def test_close_start_resumes_reloaded_snapshot(self, snapshots, queries,
                                                   expected):
        """After a reload, close()/start() must come back serving the
        reloaded snapshot — not silently revert to the constructor-time
        path."""
        path_a, path_b = snapshots
        _, expected_b = expected
        server = SnapshotServer(path_a).start()
        try:
            server.reload(path_b)
            server.close()
            server.start()
            assert server.num_shards == 3
            assert server.path == path_b
            assert _same(server.query_batch(queries, k=5), expected_b)
        finally:
            server.close()

    def test_reload_mid_query_answers_from_old_generation(
            self, snapshots, queries, expected, monkeypatch):
        path_a, path_b = snapshots
        expected_a, expected_b = expected
        # Arm gen 1's shard-0 worker to stall its first query long
        # enough for the reload to flip underneath it.
        monkeypatch.setenv("REPRO_SERVE_FAULT", "sleep-on-query:0:0:0.6")
        server = SnapshotServer(path_a, start_timeout=30,
                                query_timeout=30).start()
        monkeypatch.delenv("REPRO_SERVE_FAULT")  # gen 2 spawns clean
        old_pids = server.worker_pids
        box = {}
        try:
            thread = threading.Thread(
                target=lambda: box.update(got=server.query_batch(queries, k=5))
            )
            thread.start()
            deadline = time.monotonic() + 10
            while server.status()["inflight"] < 1:
                assert time.monotonic() < deadline, "query never checked out"
                time.sleep(0.01)
            info = server.reload(path_b)  # flips while the query sleeps
            assert info["generation"] == 2
            thread.join(timeout=30)
            assert not thread.is_alive()
            # The in-flight request answered from the generation it
            # started on — not the one serving by the time it finished.
            assert _same(box["got"], expected_a)
            # ... and the old pool drained after it: no orphans.
            _assert_all_dead(old_pids)
            assert _same(server.query_batch(queries, k=5), expected_b)
        finally:
            server.close()


class TestReloadRefusals:
    def test_corrupt_file_keeps_old_generation(self, snapshots, queries,
                                               expected, tmp_path):
        path_a, _ = snapshots
        expected_a, _ = expected
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"definitely not a snapshot")
        with SnapshotServer(path_a) as server:
            pids = server.worker_pids
            with pytest.raises(SnapshotError):
                server.reload(str(junk))
            assert server.generation == 1
            assert server.worker_pids == pids  # same pool, untouched
            assert _same(server.query_batch(queries, k=5), expected_a)

    def test_version_mismatch_refused(self, snapshots, queries, expected,
                                      tmp_path):
        path_a, _ = snapshots
        expected_a, _ = expected
        # Rewrite the arena preamble's version field (the u32 right after
        # the magic); the header CRC does not cover it.
        stale = str(tmp_path / "version999.npz")
        with open(path_a, "rb") as src, open(stale, "wb") as dst:
            dst.write(src.read())
        with open(stale, "r+b") as handle:
            handle.seek(len(ARENA_MAGIC))
            handle.write(struct.pack("<I", 999))
        with SnapshotServer(path_a) as server:
            with pytest.raises(SnapshotError, match="version"):
                server.reload(stale)
            assert server.generation == 1
            assert _same(server.query_batch(queries, k=5), expected_a)

    def test_legacy_npz_container_refused(self, snapshots, queries,
                                          expected, tmp_path):
        path_a, _ = snapshots
        expected_a, _ = expected
        legacy = str(tmp_path / "legacy.npz")
        header = {"format": SNAPSHOT_FORMAT, "version": 1, "kind": "sharded"}
        np.savez(legacy, header=np.bytes_(json.dumps(header).encode()),
                 data=np.zeros((4, DIM)))
        with pytest.raises(SnapshotError, match=r"legacy v1 \.npz"):
            SnapshotServer(legacy)
        with SnapshotServer(path_a) as server:
            pids = server.worker_pids
            with pytest.raises(SnapshotError,
                               match=rf"legacy v1 \.npz.*only arena version {ARENA_VERSION}"):
                server.reload(legacy)
            assert server.generation == 1
            assert server.worker_pids == pids
            assert _same(server.query_batch(queries, k=5), expected_a)

    def test_dimensionality_mismatch_refused(self, snapshots, queries,
                                             expected, tmp_path):
        path_a, _ = snapshots
        expected_a, _ = expected
        other = gaussian_mixture(500, DIM + 3, n_clusters=4, seed=41)
        path_other = str(tmp_path / "wider.npz")
        save_index(ShardedDBLSH(shards=2, **COMMON).fit(other), path_other)
        with SnapshotServer(path_a) as server:
            with pytest.raises(ServerError, match=f"{DIM}-d"):
                server.reload(path_other)
            assert server.generation == 1
            assert _same(server.query_batch(queries, k=5), expected_a)

    def test_reload_before_start_refused(self, snapshots):
        path_a, path_b = snapshots
        server = SnapshotServer(path_a)
        with pytest.raises(ServerError, match="not serving"):
            server.reload(path_b)


class TestWatch:
    def test_serve_watch_reloads_on_overwrite(self, snapshots, queries,
                                              expected, tmp_path,
                                              serve_in_thread):
        path_a, path_b = snapshots
        expected_a, expected_b = expected
        live = str(tmp_path / "watched.npz")
        with open(path_a, "rb") as src, open(live, "wb") as dst:
            dst.write(src.read())
        serve = serve_in_thread("--index", live, "--watch",
                                "--watch-interval", "0.1")
        batch = {"queries": queries.tolist(), "k": 5}
        conn = serve.connect()
        try:
            status, body = serve.post(conn, "/query", batch)
            assert status == 200
            assert _same(serve.rows(body), expected_a)
            # Overwrite the watched file; the watcher must flip within
            # a few poll intervals.
            with open(path_b, "rb") as src, open(live, "wb") as dst:
                dst.write(src.read())
            deadline = time.monotonic() + 30
            while True:
                status, info = serve.get(conn, "/status")
                assert status == 200
                if info["generation"] >= 2:
                    break
                assert time.monotonic() < deadline, "watcher never reloaded"
                time.sleep(0.05)
            assert info["shards"] == 3
            status, body = serve.post(conn, "/query", batch)
            assert status == 200
            assert _same(serve.rows(body), expected_b)
        finally:
            conn.close()
        assert serve.shutdown() == 0
