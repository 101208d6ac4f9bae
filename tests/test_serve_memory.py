"""Shared-memory regression tests for arena-snapshot serving.

The whole point of the v3 arena container is that worker processes
*share* the snapshot's physical pages instead of each holding a private
copy.  RSS cannot see that — every worker's mapping is resident — so
these tests read PSS (proportional set size) from ``/proc/*/smaps``:
with N processes mapping the same resident pages, each one's PSS charge
for the mapping is ~1/N of its RSS, so summed PSS stays far below
summed RSS.  Everything here is gated on Linux + smaps availability
(the :mod:`repro.utils.meminfo` probes report ``available=False``
elsewhere and the tests skip).

The replica scenario uses N *single-worker servers on one unsharded
arena* on purpose: a sharded pool's workers map disjoint byte ranges of
the file and have nothing to share — whole-file replicas are the fleet
deployment the arena exists for.
"""

from __future__ import annotations

import sys

import pytest

from repro import DBLSH
from repro.data.generators import gaussian_mixture
from repro.io import save_index
from repro.serve import SnapshotServer
from repro.utils.meminfo import mapping_memory, process_memory

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="PSS accounting needs /proc smaps"
)

N_SERVERS = 4


@pytest.fixture(scope="module")
def arena_snapshot(tmp_path_factory):
    # Big enough that the data pages dominate any per-mapping overhead:
    # ~4 MB of coordinates plus the frozen traversals.
    data = gaussian_mixture(10_000, 48, n_clusters=8, seed=0)
    index = DBLSH(l_spaces=3, k_per_space=6, t=24, seed=0,
                  auto_initial_radius=True).fit(data)
    path = str(tmp_path_factory.mktemp("arena") / "snapshot.npz")
    save_index(index, path)
    queries = data[:5] + 0.01
    return path, queries


def _smaps_available() -> bool:
    return process_memory()["available"]


class TestSharedPhysicalPages:
    def test_replica_workers_share_the_snapshot_pages(self, arena_snapshot):
        if not _smaps_available():
            pytest.skip("smaps_rollup not readable on this kernel")
        path, queries = arena_snapshot
        servers = [SnapshotServer(path) for _ in range(N_SERVERS)]
        try:
            for server in servers:
                server.start()
                # Fault the probed pages in: identical queries touch
                # identical pages in every worker.
                server.query_batch(queries, k=10)
            statuses = [server.memory_status() for server in servers]
        finally:
            for server in servers:
                server.close()

        assert all(status["available"] for status in statuses)
        for status in statuses:
            assert all(worker["mapped"] for worker in status["workers"])
        total_rss = sum(s["total_snapshot_rss_kb"] for s in statuses)
        total_pss = sum(s["total_snapshot_pss_kb"] for s in statuses)
        assert total_rss > 0, "no worker has snapshot pages resident"
        # 4 private copies would give PSS == RSS; full sharing gives
        # PSS == RSS / 4.  Demand well below the private-copy line.
        assert total_pss <= 0.6 * total_rss, (
            f"snapshot pages are not shared: summed PSS {total_pss} kB vs "
            f"summed RSS {total_rss} kB across {N_SERVERS} replicas"
        )

    def test_mapping_memory_isolates_the_snapshot_file(self, arena_snapshot):
        path, queries = arena_snapshot
        with SnapshotServer(path) as server:
            server.query_batch(queries, k=10)
            pid = server.worker_pids[0]
            snap = mapping_memory(path, pid)
            proc = process_memory(pid)
        if not snap["available"]:
            pytest.skip("smaps not readable on this kernel")
        assert snap["mappings"] >= 1
        # The mapping view must be a strict subset of the process view.
        assert 0 < snap["rss_kb"] <= proc["rss_kb"]

    def test_mapping_memory_unknown_path_counts_nothing(self, tmp_path):
        probe = mapping_memory(str(tmp_path / "never-mapped"), None)
        if not probe["available"]:
            pytest.skip("smaps not readable on this kernel")
        assert probe["mappings"] == 0
        assert probe["rss_kb"] == 0


class TestMemoryStatus:
    def test_memory_status_shape_and_mapped_flags(self, arena_snapshot):
        path, queries = arena_snapshot
        with SnapshotServer(path) as server:
            server.query_batch(queries, k=5)
            status = server.memory_status()
        assert status["snapshot_path"] == path
        assert len(status["workers"]) == 1
        worker = status["workers"][0]
        assert worker["mapped"] is True
        assert set(worker) >= {
            "shard", "pid", "rss_kb", "pss_kb",
            "snapshot_rss_kb", "snapshot_pss_kb", "snapshot_mappings",
        }
        assert status["total_rss_kb"] == worker["rss_kb"]

    def test_memory_status_before_start_is_empty(self, arena_snapshot):
        path, _ = arena_snapshot
        server = SnapshotServer(path)
        status = server.memory_status()
        assert status["workers"] == []
        assert status["total_snapshot_pss_kb"] == 0


def test_drop_page_cache_best_effort(arena_snapshot):
    from repro.utils.meminfo import drop_page_cache

    path, _ = arena_snapshot
    # Must never raise; on Linux with fadvise it reports delivery.
    result = drop_page_cache(path)
    assert result in (True, False)
    assert drop_page_cache(path + ".does-not-exist") is False
