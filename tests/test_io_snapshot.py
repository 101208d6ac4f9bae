"""Tests for the versioned index snapshots (repro.io)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.data.generators import gaussian_mixture
from repro.index.flat import FlatRStarTree
from repro.io import (
    ARENA_VERSION,
    SnapshotError,
    load_index,
    load_shard,
    read_header,
    save_index,
)
from repro.io.snapshot import SNAPSHOT_FORMAT, _ArenaArchive, _write_arena


def _rewrite_arena(path, edit):
    """Re-write the arena at ``path`` after ``edit(header, arrays)``.

    ``_write_arena`` records fresh member CRCs and offsets, so the result
    is a structurally consistent arena whose only defect is the edit.
    """
    with _ArenaArchive(path) as archive:
        header = {k: v for k, v in archive.header.items() if k != "members"}
        arrays = {name: np.array(archive[name]) for name in archive.files}
    edit(header, arrays)
    _write_arena(path, header, arrays)


def _legacy_npz(path, data):
    """A zip archive shaped like the legacy v1 container: a JSON
    ``header`` member next to plain ``.npy`` payload members."""
    header = {"format": SNAPSHOT_FORMAT, "version": 1, "kind": "dblsh"}
    np.savez(path, header=np.bytes_(json.dumps(header).encode()), data=data)


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(600, 16, n_clusters=6, seed=0)
    queries = data[:8] + 0.05
    return data, queries


@pytest.fixture(scope="module")
def fitted(workload):
    data, _ = workload
    return DBLSH(
        c=1.5, l_spaces=4, k_per_space=8, t=32, seed=0, auto_initial_radius=True
    ).fit(data)


class TestRoundtrip:
    def test_identical_query_results(self, workload, fitted, tmp_path):
        _, queries = workload
        path = str(tmp_path / "index.npz")
        save_index(fitted, path)
        restored = load_index(path)
        assert isinstance(restored, DBLSH)
        assert restored.describe() == fitted.describe()
        for q in queries:
            before = fitted.query(q, k=7)
            after = restored.query(q, k=7)
            assert after.ids == before.ids
            assert after.distances == pytest.approx(before.distances)

    def test_zero_rebuild_on_rstar_backend(self, workload, fitted, tmp_path):
        """Loading adopts the frozen arrays; no pointer tree is built."""
        _, queries = workload
        path = str(tmp_path / "index.npz")
        save_index(fitted, path)
        restored = load_index(path)
        assert isinstance(restored._forest, FlatRStarTree)
        assert restored._tables == []
        forest = restored._forest
        restored.query(queries[0], k=3)  # queries run off the flat arrays
        assert restored._forest is forest

    def test_batch_queries_after_load(self, workload, fitted, tmp_path):
        _, queries = workload
        path = str(tmp_path / "index.npz")
        save_index(fitted, path)
        restored = load_index(path)
        batch = restored.query_batch(queries, k=5)
        assert [r.ids for r in batch] == [fitted.query(q, k=5).ids for q in queries]

    def test_non_flat_backend_roundtrip(self, workload, tmp_path):
        data, queries = workload
        index = DBLSH(
            backend="kdtree", l_spaces=3, k_per_space=6, t=32, seed=1,
            auto_initial_radius=True,
        ).fit(data)
        path = str(tmp_path / "kdtree.npz")
        save_index(index, path)
        restored = load_index(path)
        assert not read_header(path)["index"]["has_flat"]
        for q in queries[:3]:
            assert restored.query(q, k=5).ids == index.query(q, k=5).ids

    def test_header_is_inspectable(self, fitted, tmp_path):
        path = str(tmp_path / "index.npz")
        save_index(fitted, path)
        header = read_header(path)
        assert header["version"] == ARENA_VERSION
        assert header["kind"] == "dblsh"
        assert header["index"]["n"] == fitted.num_points
        assert header["index"]["k_per_space"] == fitted.params.k_per_space


class TestArrayNativeRoundtrip:
    """Snapshots of array-built indexes (fit never made a pointer tree)."""

    def test_save_does_not_materialize_pointer_trees(self, workload, tmp_path):
        data, queries = workload
        index = DBLSH(
            l_spaces=4, k_per_space=8, t=32, seed=0, auto_initial_radius=True
        ).fit(data)
        forest = index._forest
        assert isinstance(forest, FlatRStarTree)
        path = str(tmp_path / "array.npz")
        save_index(index, path)
        # Saving a compacted index serializes its forest; nothing is rebuilt.
        assert index._forest is forest
        assert index._tables == []
        restored = load_index(path)
        batch = restored.query_batch(queries, k=5)
        assert [r.ids for r in batch] == [
            r.ids for r in index.query_batch(queries, k=5)
        ]

    def test_flat_arrays_survive_roundtrip_byte_identical(self, workload, tmp_path):
        data, _ = workload
        index = DBLSH(
            l_spaces=3, k_per_space=6, t=32, seed=2, auto_initial_radius=True
        ).fit(data)
        path = str(tmp_path / "bytes.npz")
        save_index(index, path)
        restored = load_index(path)
        assert index._forest is not None and restored._forest is not None
        a, b = index._forest.to_arrays(), restored._forest.to_arrays()
        assert set(a) == set(b)
        assert all(np.array_equal(a[key], b[key]) for key in a)

    def test_pointer_builder_survives_roundtrip(self, workload, fitted, tmp_path):
        """Snapshots written while DBLSH still had a pointer builder (their
        headers carry ``engine`` and ``builder`` fields) keep loading; the
        fields are ignored."""
        _, queries = workload
        path = str(tmp_path / "old.npz")
        save_index(fitted, path)
        _rewrite_arena(
            path,
            lambda header, _: header["index"].update(
                {"engine": "legacy", "builder": "pointer"}
            ),
        )
        assert read_header(path)["index"]["builder"] == "pointer"
        restored = load_index(path)
        for q in queries[:4]:
            assert restored.query(q, k=5).ids == fitted.query(q, k=5).ids


class TestShardedRoundtrip:
    def test_identical_query_results(self, workload, tmp_path):
        data, queries = workload
        index = ShardedDBLSH(
            shards=3, l_spaces=4, k_per_space=8, t=32, seed=0,
            auto_initial_radius=True,
        ).fit(data)
        path = str(tmp_path / "sharded.npz")
        save_index(index, path)
        restored = load_index(path)
        assert isinstance(restored, ShardedDBLSH)
        assert restored.describe() == index.describe()
        assert restored.shard_offsets == index.shard_offsets
        for q in queries:
            assert restored.query(q, k=5).ids == index.query(q, k=5).ids

    def test_split_budget_and_parent_t_survive_roundtrip(self, workload, tmp_path):
        data, queries = workload
        index = ShardedDBLSH(
            shards=3, l_spaces=3, k_per_space=6, t=32, seed=0, budget="split",
            auto_initial_radius=True,
        ).fit(data)
        path = str(tmp_path / "split.npz")
        save_index(index, path)
        restored = load_index(path)
        assert restored.budget == "split"
        assert restored.t == 32
        assert restored.shard_t == index.shard_t
        assert restored.describe() == index.describe()
        for q in queries[:4]:
            assert restored.query(q, k=5).ids == index.query(q, k=5).ids

    def test_class_load_helpers_enforce_kind(self, workload, fitted, tmp_path):
        data, _ = workload
        sharded_path = str(tmp_path / "sharded.npz")
        ShardedDBLSH(shards=2, l_spaces=3, k_per_space=6, t=16, seed=0).fit(
            data
        ).save(sharded_path)
        flat_path = str(tmp_path / "flat.npz")
        save_index(fitted, flat_path)
        with pytest.raises(SnapshotError, match="ShardedDBLSH snapshot"):
            DBLSH.load(sharded_path)
        with pytest.raises(SnapshotError, match="DBLSH snapshot"):
            ShardedDBLSH.load(flat_path)


class TestRejection:
    def test_non_snapshot_npz_rejected(self, tmp_path):
        path = str(tmp_path / "random.npz")
        np.savez(path, data=np.zeros((3, 2)))
        with pytest.raises(SnapshotError, match="not a"):
            load_index(path)
        with pytest.raises(SnapshotError, match="not a"):
            read_header(path)

    def test_legacy_npz_container_rejected(self, fitted, tmp_path):
        """A zip archive carrying a ``header`` member is the legacy v1
        container; every reader names it instead of guessing."""
        path = str(tmp_path / "legacy.npz")
        _legacy_npz(path, fitted.data)
        for read in (load_index, read_header, lambda p: load_shard(p, 0)):
            with pytest.raises(SnapshotError,
                               match=rf"legacy v1 \.npz.*only arena version {ARENA_VERSION}"):
                read(path)

    def test_unfitted_index_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="fit"):
            save_index(DBLSH(), str(tmp_path / "x.npz"))

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot snapshot"):
            save_index(object(), str(tmp_path / "x.npz"))


class TestEvaluateSnapshot:
    def test_runner_evaluates_loaded_index(self, workload, fitted, tmp_path):
        from repro.eval import evaluate_snapshot

        data, queries = workload
        path = str(tmp_path / "eval.npz")
        save_index(fitted, path)
        result = evaluate_snapshot(path, queries, k=5, dataset_name="snap")
        assert result.dataset == "snap"
        assert result.n == data.shape[0]
        assert result.recall > 0.5
        assert result.candidates_per_query > 0

    def test_header_payload_mismatch_rejected_without_checksums(
        self, fitted, tmp_path
    ):
        # Every member CRC is fresh, so only the header-vs-payload shape
        # validation can catch a tensor that disagrees with (L, K, d).
        path = str(tmp_path / "mismatch.npz")
        save_index(fitted, path)

        def drop_space(_, arrays):
            arrays["tensor"] = arrays["tensor"][:-1]

        _rewrite_arena(path, drop_space)
        with pytest.raises(SnapshotError, match="disagrees with its header"):
            load_index(path)

    def test_missing_payload_member_rejected(self, fitted, tmp_path):
        path = str(tmp_path / "truncated.npz")
        save_index(fitted, path)
        _rewrite_arena(path, lambda _, arrays: arrays.pop("forest.meta"))
        with pytest.raises(SnapshotError, match="missing snapshot payload"):
            load_index(path)

    def test_crash_mid_save_leaves_old_snapshot_intact(
        self, workload, fitted, tmp_path, monkeypatch
    ):
        # save_index writes to a temp file and renames; a failure at the
        # rename (the last possible instant) must leave the previous
        # snapshot byte-identical and clean up the temp file.
        import os as os_module

        _, queries = workload
        path = str(tmp_path / "stable.npz")
        save_index(fitted, path)
        before_bytes = open(path, "rb").read()

        real_replace = os_module.replace

        def exploding_replace(src, dst):
            if dst == path:
                raise OSError("disk full at the worst moment")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.io.snapshot.os.replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            save_index(fitted, path)
        monkeypatch.undo()
        assert open(path, "rb").read() == before_bytes
        assert [p for p in os_module.listdir(tmp_path) if ".tmp." in p] == []
        restored = load_index(path)
        assert restored.query(queries[0], k=5).ids == fitted.query(
            queries[0], k=5
        ).ids

    def test_numpy_integer_seed_survives_roundtrip(self, workload, tmp_path):
        data, _ = workload
        index = DBLSH(l_spaces=3, k_per_space=6, t=16, seed=np.int64(7)).fit(data)
        path = str(tmp_path / "npseed.npz")
        save_index(index, path)
        restored = load_index(path)
        assert restored.seed == 7
        assert read_header(path)["index"]["seed"] == 7
