"""Crash-recovery acceptance for mutable serving (repro.serve.mutable).

The invariant under test — the PR's headline contract — is: after a
SIGKILL-equivalent death at *any* injected point (mid-WAL-append, before
/ after a compaction's snapshot flip, after its log swap), a restarted
server serves **exactly the acked mutations**: every acked insert/delete
is visible, no unacked mutation is invented (the one fsync'd-but-unacked
record a ``post-fsync`` kill can leave is the only tolerated extra, and
only for that fault).

The dying server runs in a spawned child process driven over a pipe;
faults are armed through the ``REPRO_WAL_FAULT`` / ``REPRO_COMPACT_FAULT``
environment contracts of :mod:`repro.io.wal` and
:mod:`repro.serve.mutable`.
"""

from __future__ import annotations

import http.client
import multiprocessing
import os

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.cli import _post_json
from repro.data.generators import gaussian_mixture
from repro.io import WALError, WriteAheadLog, load_index, read_header, save_index
from repro.serve import HttpGateway, MutableSnapshotServer
from repro.serve import mutable as mutable_module
from repro.serve.server import ServerError

N, DIM = 400, 12
PARAMS = dict(
    c=1.5, l_spaces=3, k_per_space=6, t=32, seed=0, auto_initial_radius=True
)


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(N, DIM, n_clusters=5, seed=0)
    inserts = data[:8] + 60.0  # far from the data: unambiguous top-1 hits
    return data, inserts


@pytest.fixture
def snapshot(tmp_path, workload):
    data, _ = workload
    path = str(tmp_path / "base.npz")
    save_index(DBLSH(**PARAMS).fit(data), path)
    return path


def _mutation_driver(snapshot, wal, env, conn):
    """Child-process serve loop (module-level for spawn picklability)."""
    os.environ.update(env)
    server = MutableSnapshotServer(
        snapshot, wal_path=wal, compact_threshold=0,
    )
    server.start()
    conn.send(("ready", None))
    while True:
        message = conn.recv()
        kind = message[0]
        try:
            if kind == "insert":
                value = server.insert(np.asarray(message[1]))
            elif kind == "delete":
                value = server.delete(int(message[1]))
            elif kind == "compact":
                value = server.compact()
            elif kind == "stop":
                server.close()
                conn.send(("ok", None))
                return
            else:
                raise ValueError(f"unknown driver verb {kind!r}")
        except Exception as exc:  # surfaced to the test, not swallowed
            conn.send(("error", repr(exc)))
        else:
            conn.send(("ok", value))


class _Child:
    """Drive a mutable serve in a spawned child; record what it acks."""

    def __init__(self, snapshot, wal, env=None):
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(
            target=_mutation_driver,
            args=(snapshot, wal, env or {}, child_end),
        )
        self.process.start()
        child_end.close()
        kind, _ = self.conn.recv()
        assert kind == "ready"
        self.acked_inserts = []
        self.acked_deletes = []

    def call(self, *message):
        """Send one verb; returns the ack value, or None if the child died."""
        self.conn.send(message)
        try:
            kind, value = self.conn.recv()
        except EOFError:
            return None  # the armed fault killed the child mid-verb
        assert kind == "ok", value
        if message[0] == "insert":
            self.acked_inserts.append((value, np.asarray(message[1])))
        elif message[0] == "delete" and value:
            self.acked_deletes.append(int(message[1]))
        return value

    def join_dead(self, expected_exitcode=9):
        self.process.join(60)
        assert self.process.exitcode == expected_exitcode

    def stop(self):
        self.call("stop")
        self.process.join(30)


def _assert_exactly_acked(snapshot, wal, child, *, tolerate_inflight=0):
    """Restart from disk and check the served state == the acked mutations."""
    server = MutableSnapshotServer(
        snapshot, wal_path=wal, compact_threshold=0,
    )
    server.start()
    try:
        info = server.status()
        acked_ids = {pid for pid, _ in child.acked_inserts}
        recovered = info["delta_rows"] + (info["num_points"] - N)
        assert len(acked_ids) <= recovered <= len(acked_ids) + tolerate_inflight
        # Every acked insert answers as its own exact nearest neighbor.
        for pid, point in child.acked_inserts:
            result = server.query(point, k=1)
            assert result.ids == [pid]
            assert result.distances[0] == pytest.approx(0.0)
        # Every acked delete stays deleted (idempotent re-delete: False).
        for pid in child.acked_deletes:
            assert pid not in server.query(np.zeros(DIM), k=N).ids
            assert server.delete(pid) is False
    finally:
        server.close()


class TestKillMidAppend:
    def test_torn_append_recovers_exactly_acked(self, snapshot, tmp_path,
                                                workload):
        _, inserts = workload
        wal = str(tmp_path / "m.wal")
        # Appends 0,1 (insert, delete) ack; append 2 dies half-written.
        child = _Child(snapshot, wal, env={"REPRO_WAL_FAULT": "torn:2"})
        assert child.call("insert", inserts[0]) == N
        assert child.call("delete", 3) is True
        assert child.call("insert", inserts[1]) is None  # killed mid-append
        child.join_dead()
        _assert_exactly_acked(snapshot, wal, child)

    def test_pre_append_kill_loses_nothing_acked(self, snapshot, tmp_path,
                                                 workload):
        _, inserts = workload
        wal = str(tmp_path / "m.wal")
        child = _Child(snapshot, wal, env={"REPRO_WAL_FAULT": "pre-append:3"})
        for i in range(3):
            assert child.call("insert", inserts[i]) == N + i
        assert child.call("insert", inserts[3]) is None
        child.join_dead()
        _assert_exactly_acked(snapshot, wal, child)

    def test_post_fsync_kill_may_keep_the_inflight_record(
        self, snapshot, tmp_path, workload
    ):
        _, inserts = workload
        wal = str(tmp_path / "m.wal")
        child = _Child(snapshot, wal, env={"REPRO_WAL_FAULT": "post-fsync:1"})
        assert child.call("insert", inserts[0]) == N
        assert child.call("insert", inserts[1]) is None  # durable, unacked
        child.join_dead()
        # The durable-but-unacked insert is the classic WAL ambiguity:
        # it may legitimately survive, but nothing acked may be lost and
        # nothing else may be invented.
        _assert_exactly_acked(snapshot, wal, child, tolerate_inflight=1)


class TestKillMidCompaction:
    def _mutate(self, child, inserts):
        assert child.call("insert", inserts[0]) == N
        assert child.call("insert", inserts[1]) == N + 1
        assert child.call("delete", 7) is True

    @pytest.mark.parametrize("point", [
        "pre-snapshot-replace", "post-snapshot-replace", "post-wal-replace",
    ])
    def test_kill_at_compaction_point(self, snapshot, tmp_path, workload,
                                      point):
        _, inserts = workload
        wal = str(tmp_path / "m.wal")
        uid_before = read_header(snapshot)["uid"]
        child = _Child(snapshot, wal, env={"REPRO_COMPACT_FAULT": point})
        self._mutate(child, inserts)
        assert child.call("compact") is None  # killed at the armed point
        child.join_dead()

        uid_after = read_header(snapshot)["uid"]
        if point == "pre-snapshot-replace":
            assert uid_after == uid_before  # old generation intact
        else:
            assert uid_after != uid_before  # new generation landed
            assert read_header(snapshot)["parent_uid"] == uid_before
        _assert_exactly_acked(snapshot, wal, child)

    def test_recovery_rebinds_a_parent_bound_wal(self, snapshot, tmp_path,
                                                 workload):
        # A crash between the snapshot flip and the log swap leaves the
        # WAL bound to the parent generation; recovery must accept it,
        # replay idempotently, and rebind it to the live uid.
        _, inserts = workload
        wal = str(tmp_path / "m.wal")
        child = _Child(
            snapshot, wal, env={"REPRO_COMPACT_FAULT": "post-snapshot-replace"}
        )
        self._mutate(child, inserts)
        assert child.call("compact") is None
        child.join_dead()
        live_uid = read_header(snapshot)["uid"]
        with WriteAheadLog.open(wal) as stale:
            assert stale.snapshot_uid != live_uid
        _assert_exactly_acked(snapshot, wal, child)
        with WriteAheadLog.open(wal) as rebound:
            assert rebound.snapshot_uid == live_uid


class TestRecoveryGuards:
    def test_wal_for_another_snapshot_refused(self, snapshot, tmp_path,
                                              workload):
        data, _ = workload
        wal = str(tmp_path / "m.wal")
        server = MutableSnapshotServer(snapshot, wal_path=wal,
                                       compact_threshold=0)
        server.start()
        server.insert(data[0] + 9.0)
        server.close()
        # Overwrite the snapshot with an unrelated build (fresh uid, no
        # lineage): replaying the old log onto it would be corruption.
        save_index(DBLSH(**PARAMS).fit(data[:200]), snapshot)
        fresh = MutableSnapshotServer(snapshot, wal_path=wal,
                                      compact_threshold=0)
        with pytest.raises(WALError, match="refusing to replay"):
            fresh.start()
        assert not fresh.serving  # the refused start left no live pool

    def test_status_reports_mutation_state(self, snapshot, tmp_path,
                                           workload):
        _, inserts = workload
        wal = str(tmp_path / "m.wal")
        server = MutableSnapshotServer(snapshot, wal_path=wal,
                                      compact_threshold=0)
        server.start()
        try:
            server.insert(inserts[0])
            server.insert(inserts[1])
            server.delete(5)
            info = server.status()
            assert info["delta_rows"] == 2
            assert info["tombstones"] == 1
            assert info["live_points"] == N + 2 - 1
            assert info["next_id"] == N + 2
            wal_disk_bytes = sum(
                os.path.getsize(os.path.join(wal, name))
                for name in os.listdir(wal)
                if name.startswith("wal.") and name.endswith(".seg")
            )
            assert info["wal_bytes"] == wal_disk_bytes
            assert info["wal_segments"] >= 1
            assert info["compactions"] == 0
            out = server.compact()
            info = server.status()
            assert info["compactions"] == 1
            assert info["last_compaction_uid"] == out["generation_uid"]
            assert info["delta_rows"] == 0 and info["tombstones"] == 0
            assert info["live_points"] == N + 1
        finally:
            server.close()

    def test_concurrent_inserts_share_group_fsyncs_and_recover(
        self, snapshot, tmp_path, monkeypatch
    ):
        """Concurrent mutators queued behind a (slow, injected) fsync
        amortize fsyncs (groups < records) and every acked insert
        survives a clean restart bit-exactly."""
        import threading

        monkeypatch.setenv("REPRO_WAL_SLOW_FSYNC_MS", "20")
        wal = str(tmp_path / "m.wal")
        server = MutableSnapshotServer(
            snapshot, wal_path=wal, compact_threshold=0,
        )
        server.start()
        points = {i: np.full(DIM, 80.0 + 3.0 * i) for i in range(24)}
        acked = {}
        lock = threading.Lock()

        def insert(i):
            pid = server.insert(points[i])
            with lock:
                acked[pid] = points[i]

        try:
            threads = [
                threading.Thread(target=insert, args=(i,)) for i in points
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(acked) == list(range(N, N + 24))
            info = server.status()
            assert info["wal_groups_committed"] < 24  # fsyncs were shared
            assert info["wal_mean_group_records"] > 1.0
        finally:
            server.close()
        # Restart: every concurrently-acked insert is served exactly.
        back = MutableSnapshotServer(
            snapshot, wal_path=wal, compact_threshold=0,
        )
        back.start()
        try:
            assert back.status()["delta_rows"] == 24
            for pid, point in acked.items():
                result = back.query(point, k=1)
                assert result.ids == [pid]
                assert result.distances[0] == pytest.approx(0.0)
        finally:
            back.close()

    def test_auto_compaction_triggers_at_threshold(self, snapshot, tmp_path,
                                                   workload):
        data, _ = workload
        wal = str(tmp_path / "m.wal")
        server = MutableSnapshotServer(snapshot, wal_path=wal,
                                      compact_threshold=4)
        server.start()
        try:
            for i in range(4):
                server.insert(data[i] + 50.0 + i)
            deadline = 30.0
            import time

            waited = 0.0
            while server.status()["compactions"] == 0 and waited < deadline:
                time.sleep(0.1)
                waited += 0.1
            info = server.status()
            assert info["compactions"] >= 1
            assert info["delta_rows"] < 4
            # The folded inserts still answer exactly.
            result = server.query(data[0] + 50.0, k=1)
            assert result.ids == [N]
        finally:
            server.close()


class TestAdaptiveCompaction:
    """The WAL-bytes trigger beside the fixed count, and the measured
    delta-sweep overhead that ``status()`` reports."""

    def test_wal_bytes_trigger_fires_and_is_reported(self, snapshot, tmp_path,
                                                     workload, monkeypatch):
        data, _ = workload
        wal = str(tmp_path / "m.wal")
        # Count trigger far away; the byte budget trips after a few
        # ~120-byte insert records.
        monkeypatch.setattr(mutable_module, "_COMPACT_WAL_BYTES", 700)
        server = MutableSnapshotServer(
            snapshot, wal_path=wal, compact_threshold=100_000,
        )
        server.start()
        try:
            for i in range(8):
                server.insert(data[i] + 50.0 + i)
            import time

            waited = 0.0
            while server.status()["compactions"] == 0 and waited < 30.0:
                time.sleep(0.1)
                waited += 0.1
            info = server.status()
            assert info["compactions"] >= 1
            assert info["last_compaction_trigger"] == "wal-bytes"
            assert info["wal_bytes"] < 700 + 200  # rolled onto a checkpoint
        finally:
            server.close()

    def test_live_queries_feed_the_sweep_overhead_ema(self, snapshot, tmp_path,
                                                      workload):
        """The EMA is a measurement only: live queries feed it, and a hot
        value never schedules a fold — count and wal-bytes do."""
        data, _ = workload
        wal = str(tmp_path / "m.wal")
        server = MutableSnapshotServer(
            snapshot, wal_path=wal, compact_threshold=100_000,
        )
        server.start()
        try:
            for i in range(64):
                server.insert(data[i % len(data)] + 70.0 + i)
            server.query_batch(data[:4], k=2)
            assert server._overhead_samples >= 1
            assert 0.0 <= server.status()["sweep_overhead_ema"] <= 1.0
            with server._mutation_lock:
                server._sweep_overhead_ema = 0.9
                assert server._compaction_due() is None
        finally:
            server.close()

    def test_compact_threshold_zero_disables_every_trigger(
        self, snapshot, tmp_path, workload, monkeypatch
    ):
        data, _ = workload
        wal = str(tmp_path / "m.wal")
        monkeypatch.setattr(mutable_module, "_COMPACT_WAL_BYTES", 1)
        server = MutableSnapshotServer(
            snapshot, wal_path=wal, compact_threshold=0,
        )
        server.start()
        try:
            for i in range(6):
                server.insert(data[i] + 90.0)
            with server._mutation_lock:
                assert server._compaction_due() is None
            assert server.status()["compactions"] == 0
        finally:
            server.close()


# ----------------------------------------------------------------------
# The misuse contract: one typed outcome per misuse, state untouched
# ----------------------------------------------------------------------

SMALL = 30  # rows in the misuse snapshot: deleting all of them is cheap
DELETED = 3  # id already deleted before each misuse runs


@pytest.fixture
def misuse_server(tmp_path):
    """A served 30-row snapshot with id 3 deleted, plus the path of a
    snapshot of another dimensionality (the reload misuse)."""
    path = str(tmp_path / "small.npz")
    other = str(tmp_path / "other.npz")
    save_index(DBLSH(**PARAMS).fit(
        gaussian_mixture(SMALL, DIM, n_clusters=3, seed=0)), path)
    save_index(DBLSH(**PARAMS).fit(
        gaussian_mixture(SMALL, DIM - 7, n_clusters=3, seed=0)), other)
    server = MutableSnapshotServer(
        path, compact_threshold=0,
    ).start()
    try:
        assert server.delete(DELETED) is True
        yield server, other
    finally:
        server.close()


def _observable(server):
    info = server.status()
    return (server.generation, info["live_points"], info["wal_bytes"],
            info["next_id"], info["tombstones"], info["snapshot_uid"])


#: misuse -> (call, expected): an exception type it must raise, or the
#: value it must return.  Either way the served state must not change.
MISUSES = {
    "insert-wrong-dimension": (
        lambda server, other: server.insert(np.zeros(DIM - 1)), ValueError),
    "delete-unknown-id": (
        lambda server, other: server.delete(SMALL + 5), ValueError),
    "delete-repeated": (
        lambda server, other: server.delete(DELETED), False),
    "reload-mismatched-dimension": (
        lambda server, other: server.reload(other), ServerError),
    "k-above-live-count": (
        lambda server, other: len(server.query(np.zeros(DIM),
                                               k=SMALL + 10).ids),
        SMALL - 1),
}


class TestMisuseContract:
    @pytest.mark.parametrize("name", sorted(MISUSES))
    def test_misuse_has_one_outcome_and_changes_nothing(self, misuse_server,
                                                        name):
        server, other = misuse_server
        call, expected = MISUSES[name]
        before = _observable(server)
        if isinstance(expected, type) and issubclass(expected, Exception):
            with pytest.raises(expected):
                call(server, other)
        else:
            assert call(server, other) == expected
        assert _observable(server) == before

    def test_every_row_deleted_then_compacted_then_restarted(
        self, misuse_server
    ):
        """Deleting every row leaves an empty (not broken) index: queries
        answer [], compaction folds to an empty generation, and a
        restart recovers zero live points."""
        server, _ = misuse_server
        for pid in range(SMALL):
            server.delete(pid)
        probe = np.zeros((2, DIM))
        assert server.query(probe[0], k=5).ids == []
        assert [r.ids for r in server.query_batch(probe, k=3)] == [[], []]

        fold = server.compact()
        assert fold["compacted"] and fold["folded_tombstones"] == SMALL
        info = server.status()
        assert info["live_points"] == 0 and info["tombstones"] == 0
        assert server.query(probe[0], k=5).ids == []

        path, wal = server.path, server.wal_path
        server.close()
        with MutableSnapshotServer(path, wal_path=wal, compact_threshold=0) as back:
            assert back.status()["live_points"] == 0
            assert back.query(probe[0], k=5).ids == []

    @pytest.mark.parametrize("segment_bytes", [0, -5])
    def test_non_positive_segment_bytes_refused(self, snapshot,
                                                segment_bytes):
        with pytest.raises(ValueError, match="segment_bytes"):
            MutableSnapshotServer(snapshot, segment_bytes=segment_bytes)


# ----------------------------------------------------------------------
# One delete rule: served answers equal the in-process engine's
# ----------------------------------------------------------------------


class TestServedDeleteParity:
    """Workers skip deleted rows exactly as ``DBLSH.delete`` does in
    process, so after deletes the mutable server — directly and through
    the gateway — answers like ``load_index(path)`` + ``.delete(ids)`` +
    ``.query_batch``: same ids, distances, verification work and stop
    reason.  A server that widened its ask to ``k + deletes`` and
    filtered afterwards would verify more candidates and fail here."""

    K = 5

    @pytest.fixture
    def sharded(self, tmp_path, workload):
        data, _ = workload
        path = str(tmp_path / "sharded.npz")
        index = ShardedDBLSH(shards=2, **PARAMS).fit(data)
        save_index(index, path)
        rng = np.random.default_rng(5)
        edges = set()
        for offset, shard in zip(index.shard_offsets, index.shard_indexes):
            edges.update((offset, offset + shard.num_points - 1))  # first, last
        doomed = sorted(edges | {int(i) for i in rng.choice(N, 24, replace=False)})
        # Query at the deleted points themselves (each would be its own
        # nearest neighbour) and at a few untouched ones.
        queries = np.vstack([data[doomed], data[rng.choice(N, 6, replace=False)]])
        return path, doomed, queries

    @staticmethod
    def _gateway_rows(server, queries, k):
        with HttpGateway(server, batch_window=0.0) as gateway:
            conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
            try:
                status, body = _post_json(
                    conn, "/query", {"queries": queries.tolist(), "k": k}
                )
            finally:
                conn.close()
        assert status == 200
        return body["results"]

    @pytest.mark.parametrize("fault", [None, "die-on-query:0:0"])
    def test_deletes_served_like_in_process(self, sharded, tmp_path,
                                            monkeypatch, fault):
        path, doomed, queries = sharded
        reference = load_index(path)
        reference.delete(doomed)
        expected = reference.query_batch(queries, k=self.K)
        if fault is not None:
            # Shard 0's first worker dies on its first query: the revived
            # worker loads the snapshot without the deletes and must
            # still honour them.
            monkeypatch.setenv("REPRO_SERVE_FAULT", fault)
        server = MutableSnapshotServer(
            path, wal_path=str(tmp_path / "p.wal"), compact_threshold=0,
        ).start()
        try:
            for pid in doomed:
                assert server.delete(pid) is True
            served = server.query_batch(queries, k=self.K)
            if fault is not None:
                assert server.status()["restarts"] == 1
            assert [r.ids for r in served] == [r.ids for r in expected]
            assert [r.distances for r in served] == [r.distances for r in expected]
            assert [r.stats.candidates_verified for r in served] == [
                r.stats.candidates_verified for r in expected
            ]
            assert [r.stats.terminated_by for r in served] == [
                r.stats.terminated_by for r in expected
            ]
            rows = self._gateway_rows(server, queries, self.K)
            assert [row["ids"] for row in rows] == [r.ids for r in expected]
            assert [row["distances"] for row in rows] == [
                r.distances for r in expected
            ]

            assert server.compact()["folded_tombstones"] == len(doomed)
            gone = set(doomed)
            for result in server.query_batch(queries, k=self.K):
                assert not gone.intersection(result.ids)
            for row in self._gateway_rows(server, queries, self.K):
                assert not gone.intersection(row["ids"])
        finally:
            server.close()


class TestServedInsertParity:
    """The engine keeps inserts in the same delta buffer as the server and
    merges its sweep after the round loop the same way, so after inserts
    and deletes (of snapshot rows and of inserted rows) the mutable
    server — directly and through the gateway, at 1 and 2 shards —
    answers like ``load_index(path)`` + ``.add(points)`` + ``.delete(ids)``
    + ``.query_batch``: same ids, distances, verification work and stop
    reason.  An engine that swept its inserts into the heap before the
    probe rounds would stop those rounds earlier and fail here."""

    K = 5

    @pytest.fixture(params=[1, 2], ids=["shards=1", "shards=2"])
    def mutated(self, request, tmp_path, workload):
        data, _ = workload
        path = str(tmp_path / "base.npz")
        if request.param == 1:
            index = DBLSH(**PARAMS).fit(data)
        else:
            index = ShardedDBLSH(shards=request.param, **PARAMS).fit(data)
        save_index(index, path)
        rng = np.random.default_rng(13)
        # Inserts right next to snapshot rows, so they compete with the
        # rows the probe rounds find; queries sit among both.
        anchors = rng.choice(N, 24, replace=False)
        inserts = data[anchors] + 0.01 * rng.standard_normal((24, DIM))
        doomed = sorted(
            {int(i) for i in rng.choice(N, 8, replace=False)}
            | {N + int(i) for i in rng.choice(24, 6, replace=False)}
        )
        queries = np.vstack([
            data[anchors] + 0.005 * rng.standard_normal((24, DIM)),
            data[rng.choice(N, 6, replace=False)],
        ])
        return path, inserts, doomed, queries

    @staticmethod
    def _assert_same(served, expected):
        assert [r.ids for r in served] == [r.ids for r in expected]
        assert [r.distances for r in served] == [r.distances for r in expected]
        assert [r.stats.candidates_verified for r in served] == [
            r.stats.candidates_verified for r in expected
        ]
        assert [r.stats.terminated_by for r in served] == [
            r.stats.terminated_by for r in expected
        ]

    def test_inserts_served_like_in_process(self, mutated, tmp_path):
        path, inserts, doomed, queries = mutated
        reference = load_index(path)
        reference.add(inserts)
        reference.delete(doomed)
        expected = reference.query_batch(queries, k=self.K)
        server = MutableSnapshotServer(
            path, wal_path=str(tmp_path / "i.wal"), compact_threshold=0,
        ).start()
        try:
            assert [server.insert(p) for p in inserts] == list(
                range(N, N + len(inserts))
            )
            for pid in doomed:
                assert server.delete(pid) is True
            self._assert_same(server.query_batch(queries, k=self.K), expected)
            rows = TestServedDeleteParity._gateway_rows(server, queries, self.K)
            assert [row["ids"] for row in rows] == [r.ids for r in expected]
            assert [row["distances"] for row in rows] == [
                r.distances for r in expected
            ]
        finally:
            server.close()
