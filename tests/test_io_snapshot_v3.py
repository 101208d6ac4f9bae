"""Tests for the arena snapshot container (repro.io.snapshot).

Three layers of guarantees:

* **Round-trip properties** (hypothesis): arbitrary member dicts —
  random names, dtypes, shapes, including empty arrays — survive
  ``_write_arena`` → ``_ArenaArchive`` byte-identically, every member
  lands on a 64-byte-aligned file offset, and the loaded views are
  *genuinely* zero-copy: the base chain bottoms out in an ``np.memmap``,
  ``writeable`` is False, and in-place writes raise.  The same holds
  end-to-end through ``DBLSH``/``ShardedDBLSH`` save → load.
* **Corruption matrix**: truncation at every member boundary and
  single-bit flips in the preamble, header, and every member's data
  region must raise :class:`SnapshotError` naming the damaged part —
  with expected-vs-recovered sizes for truncation, at open time for
  structural damage and via :func:`verify_snapshot` for data-page
  damage (the open path deliberately never faults data pages).
* **Tombstones**: logically deleted rows survive the round trip.
* **Version 4**: the L per-space trees are stored as one stacked forest
  that loads zero-copy and answers bit-identically; a version-3 arena
  is refused with a message naming both versions.
"""

from __future__ import annotations

import os
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DBLSH, ShardedDBLSH
from repro.data.generators import gaussian_mixture
from repro.io import (
    ARENA_VERSION,
    SnapshotError,
    load_index,
    load_shard,
    read_header,
    save_index,
    verify_snapshot,
)
from repro.io.snapshot import (
    ARENA_ALIGN,
    ARENA_MAGIC,
    SNAPSHOT_FORMAT,
    _ARENA_PREAMBLE_LEN,
    _ArenaArchive,
    _write_arena,
)


def _is_memmap_backed(array: np.ndarray) -> bool:
    base = array
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


def _minimal_header() -> dict:
    return {"format": SNAPSHOT_FORMAT, "version": ARENA_VERSION}


# ----------------------------------------------------------------------
# Property tests: the raw arena writer/reader pair
# ----------------------------------------------------------------------

_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]

_member_strategy = st.dictionaries(
    keys=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789._",
        min_size=1,
        max_size=20,
    ),
    values=st.tuples(
        st.sampled_from(range(len(_DTYPES))),
        st.lists(st.integers(min_value=0, max_value=7), min_size=0,
                 max_size=3),
    ),
    min_size=1,
    max_size=8,
)


class TestArenaRoundtripProperties:
    @given(spec=_member_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_members_roundtrip_byte_identical_aligned_zero_copy(
        self, spec, seed, tmp_path
    ):
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, (dtype_i, shape) in spec.items():
            dtype = _DTYPES[dtype_i]
            values = rng.integers(0, 2, size=tuple(shape)) if dtype == np.bool_ \
                else rng.integers(-100, 100, size=tuple(shape))
            arrays[name] = values.astype(dtype)
        path = str(tmp_path / f"arena-{seed}.npz")
        _write_arena(path, _minimal_header(), arrays)

        with _ArenaArchive(path) as archive:
            assert set(archive.files) == set(arrays)
            for name, original in arrays.items():
                loaded = archive[name]
                # Byte-identical: same dtype, shape, and contents.
                assert loaded.dtype == original.dtype
                assert loaded.shape == original.shape
                assert np.array_equal(loaded, original)
                # 64-byte alignment of the absolute file offset.
                meta = archive.header["members"][name]
                assert meta["offset"] % ARENA_ALIGN == 0
                # Genuinely zero-copy: memmap-backed, frozen, write raises.
                if original.nbytes:
                    assert _is_memmap_backed(loaded)
                    assert not loaded.flags.writeable
                    with pytest.raises(ValueError):
                        loaded[(0,) * loaded.ndim] = 1

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_views_survive_archive_close(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        arrays = {"x": rng.standard_normal((17, 3))}
        path = str(tmp_path / f"close-{seed}.npz")
        _write_arena(path, _minimal_header(), arrays)
        archive = _ArenaArchive(path)
        view = archive["x"]
        archive.close()
        # The view holds the mapping through its base chain.
        assert np.array_equal(view, arrays["x"])


class TestIndexRoundtripProperties:
    @given(
        n=st.integers(min_value=40, max_value=200),
        dim=st.integers(min_value=3, max_value=12),
        shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10)
    def test_save_load_answers_identical_and_mapped(
        self, n, dim, shards, seed, tmp_path
    ):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim))
        common = dict(l_spaces=2, k_per_space=4, t=8, seed=0,
                      auto_initial_radius=True)
        if shards == 1:
            index = DBLSH(**common).fit(data)
        else:
            index = ShardedDBLSH(shards=shards, **common).fit(data)
        queries = data[:3] + 0.01
        before = [
            [(m.id, m.distance) for m in r.neighbors]
            for r in index.query_batch(queries, k=5)
        ]
        path = str(tmp_path / f"idx-{seed}.npz")
        save_index(index, path)
        restored = load_index(path)
        after = [
            [(m.id, m.distance) for m in r.neighbors]
            for r in restored.query_batch(queries, k=5)
        ]
        assert after == before
        assert restored.is_mapped
        header = read_header(path)
        assert header["version"] == ARENA_VERSION
        for meta in header["members"].values():
            assert meta["offset"] % ARENA_ALIGN == 0


# ----------------------------------------------------------------------
# Zero-copy details at the index level
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted():
    data = gaussian_mixture(400, 10, n_clusters=4, seed=0)
    return DBLSH(l_spaces=3, k_per_space=6, t=16, seed=0,
                 auto_initial_radius=True).fit(data)


@pytest.fixture()
def arena_path(fitted, tmp_path):
    path = str(tmp_path / "arena.npz")
    save_index(fitted, path)
    return path


class TestZeroCopyLoads:
    def test_loaded_buffer_is_frozen_mapped_view(self, arena_path):
        index = load_index(arena_path)
        assert index.is_mapped
        assert _is_memmap_backed(index._buffer)
        assert not index._buffer.flags.writeable
        with pytest.raises(ValueError):
            index._buffer[0, 0] = 0.0

    def test_norms2_shipped_not_recomputed(self, fitted, arena_path):
        header = read_header(arena_path)
        assert header["index"]["has_norms2"]
        assert "norms2" in header["members"]
        index = load_index(arena_path)
        assert _is_memmap_backed(index._norms2)
        np.testing.assert_array_equal(
            index._norms2[: index._n], fitted._norms2[: fitted._n]
        )

    def test_flat_coords_adopted_without_mirror_copy(self, arena_path):
        index = load_index(arena_path)
        forest = index._forest
        assert forest.roots.shape[0] == index.params.l_spaces
        for name, array in forest.to_arrays().items():
            if name != "meta" and array.size:  # meta is rebuilt from scalars
                assert _is_memmap_backed(array), name
                assert not array.flags.writeable

    def test_add_after_mapped_load_promotes_to_private(self, arena_path):
        index = load_index(arena_path)
        rng = np.random.default_rng(3)
        index.add(rng.standard_normal((5, index.dim)))
        assert not index.is_mapped
        assert index._buffer.flags.writeable
        assert index.num_points == 405


# ----------------------------------------------------------------------
# Corruption matrix
# ----------------------------------------------------------------------


def _absolute_ranges(path: str) -> dict:
    """name -> (absolute_start, nbytes) for every member, plus data_start."""
    archive = _ArenaArchive(path)
    data_start = archive._data_start
    return {
        name: (data_start + int(meta["offset"]), int(meta["nbytes"]))
        for name, meta in archive.header["members"].items()
    }


def _flip_bit(path: str, byte_offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(byte_offset)
        value = handle.read(1)[0]
        handle.seek(byte_offset)
        handle.write(bytes([value ^ 0x01]))


class TestArenaVersion4:
    def test_version_3_arena_refused_with_resave_hint(self, fitted, tmp_path):
        path = str(tmp_path / "v3.npz")
        save_index(fitted, path)
        with open(path, "r+b") as handle:  # the preamble's version u32
            handle.seek(len(ARENA_MAGIC))
            handle.write(struct.pack("<I", 3))
        for read in (load_index, read_header, lambda p: load_shard(p, 0)):
            with pytest.raises(
                SnapshotError,
                match=r"arena snapshot version 3; this build reads version 4 "
                r"\(re-save the index",
            ):
                read(path)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_save_load_answer_bit_identical(self, tmp_path, shards):
        data = gaussian_mixture(700, 12, n_clusters=5, seed=4)
        queries = data[::35] + 0.02
        common = dict(l_spaces=4, k_per_space=5, t=20, seed=0,
                      auto_initial_radius=True)
        index = (DBLSH(**common) if shards == 1
                 else ShardedDBLSH(shards=shards, **common)).fit(data)
        path = str(tmp_path / "v4.npz")
        save_index(index, path)
        restored = load_index(path)
        for a, b in zip(restored.query_batch(queries, k=7),
                        index.query_batch(queries, k=7)):
            assert (a.ids, a.distances) == (b.ids, b.distances)
            counters_a, counters_b = asdict(a.stats), asdict(b.stats)
            counters_a.pop("elapsed_seconds")
            counters_b.pop("elapsed_seconds")
            assert counters_a == counters_b
        subs = [index] if shards == 1 else index.shard_indexes
        loaded = [restored] if shards == 1 else restored.shard_indexes
        for before, after in zip(subs, loaded):
            for name, array in before._forest.to_arrays().items():
                assert np.array_equal(after._forest.to_arrays()[name], array), name
        members = read_header(path)["members"]
        assert not any("flat" in name for name in members)  # no v3 per-space trees


class TestCorruptionMatrix:
    def test_truncation_at_every_member_names_the_member(self, fitted,
                                                         tmp_path):
        ranges = _absolute_ranges(
            _fresh_arena(fitted, tmp_path, "ref")
        )
        for name, (start, nbytes) in ranges.items():
            if nbytes == 0:
                continue
            path = _fresh_arena(fitted, tmp_path, f"trunc-{name}")
            with open(path, "r+b") as handle:
                handle.truncate(start + nbytes // 2)
            with pytest.raises(
                SnapshotError,
                match=rf"{name!r}.*truncated or corrupt",
            ):
                load_index(path)
            with pytest.raises(SnapshotError, match=r"expected \d+ bytes"):
                load_index(path)

    def test_preamble_truncation_and_magic_flip(self, fitted, tmp_path):
        path = _fresh_arena(fitted, tmp_path, "preamble")
        with open(path, "r+b") as handle:
            handle.truncate(_ARENA_PREAMBLE_LEN - 4)
        with pytest.raises(SnapshotError, match="preamble is truncated"):
            load_index(path)
        path = _fresh_arena(fitted, tmp_path, "magic")
        _flip_bit(path, len(ARENA_MAGIC) // 2)
        # A damaged magic makes the file no arena at all.
        with pytest.raises(SnapshotError):
            load_index(path)

    def test_header_truncation_names_sizes(self, fitted, tmp_path):
        path = _fresh_arena(fitted, tmp_path, "header-trunc")
        ranges = _absolute_ranges(path)
        first_member_start = min(start for start, _ in ranges.values())
        with open(path, "r+b") as handle:
            handle.truncate(_ARENA_PREAMBLE_LEN + 10)
        with pytest.raises(SnapshotError,
                           match=r"header is truncated.*expected \d+"):
            load_index(path)
        assert first_member_start > _ARENA_PREAMBLE_LEN

    def test_header_bit_flip_fails_checksum(self, fitted, tmp_path):
        path = _fresh_arena(fitted, tmp_path, "header-flip")
        _flip_bit(path, _ARENA_PREAMBLE_LEN + 5)  # inside the JSON header
        with pytest.raises(SnapshotError, match="failed its checksum"):
            load_index(path)

    def test_version_field_flip_rejected(self, fitted, tmp_path):
        path = _fresh_arena(fitted, tmp_path, "version-flip")
        _flip_bit(path, len(ARENA_MAGIC))  # low byte of the version u32
        with pytest.raises(SnapshotError, match="version"):
            load_index(path)

    def test_bit_flip_in_every_member_caught_by_verify(self, fitted,
                                                       tmp_path):
        ref = _fresh_arena(fitted, tmp_path, "verify-ref")
        assert verify_snapshot(ref)["container"] == "arena"
        for name, (start, nbytes) in _absolute_ranges(ref).items():
            if nbytes == 0:
                continue
            path = _fresh_arena(fitted, tmp_path, f"flip-{name}")
            _flip_bit(path, start + nbytes // 2)
            # The open path never faults data pages, so the flip is only
            # seen by the explicit full-content verification pass.
            with pytest.raises(
                SnapshotError, match=rf"{name!r} failed its checksum"
            ):
                verify_snapshot(path)

    def test_verify_snapshot_summary_on_clean_file(self, arena_path):
        summary = verify_snapshot(arena_path)
        assert summary["container"] == "arena"
        assert summary["version"] == ARENA_VERSION
        assert summary["members"] == len(read_header(arena_path)["members"])
        assert summary["payload_bytes"] > 0


def _fresh_arena(index, tmp_path, tag: str) -> str:
    """A pristine arena file per corruption case."""
    path = str(tmp_path / f"{tag}.npz")
    save_index(index, path)
    return path


# ----------------------------------------------------------------------
# Tombstones
# ----------------------------------------------------------------------


class TestMigrationParity:
    def test_tombstones_survive_both_containers(self, tmp_path):
        data = gaussian_mixture(200, 6, n_clusters=2, seed=7)
        index = DBLSH(l_spaces=2, k_per_space=4, t=8, seed=0,
                      auto_initial_radius=True).fit(data)
        index.delete([0, 5, 11])
        path = str(tmp_path / "tomb.npz")
        save_index(index, path)
        restored = load_index(path)
        assert restored.num_tombstones == 3
        hits = restored.query(data[5], k=3)
        assert 5 not in hits.ids
