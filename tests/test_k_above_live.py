"""Edge case: ``k`` larger than the live row count.

With tombstones and pending (not yet folded) rows in play, a query for
more neighbours than there are live rows must return exactly the live
rows — none deleted, none missing, none twice — in ``(distance, id)``
order, and every path must agree on ids and distances: the in-process
index, a 2-shard index, the read-only server over a saved snapshot, and
the mutable server behind the HTTP gateway.  Distances are bit-identical
across transports of one state and agree to rounding otherwise.
"""

from __future__ import annotations

import http.client

import numpy as np
import pytest

from repro import DBLSH, ShardedDBLSH
from repro.cli import _post_json
from repro.data.generators import gaussian_mixture
from repro.io import load_index, save_index
from repro.serve import HttpGateway, MutableSnapshotServer, SnapshotServer

N, DIM, K = 60, 6, 100
PARAMS = dict(c=1.5, l_spaces=3, k_per_space=4, t=8, seed=0,
              auto_initial_radius=True)
#: Deleted ids: base rows at both shard edges and inside, plus one
#: pending (inserted) row.
DOOMED = [0, 7, 29, 30, 44, 59, N + 3]


@pytest.fixture(scope="module")
def workload():
    data = gaussian_mixture(N, DIM, n_clusters=3, seed=4)
    inserts = gaussian_mixture(8, DIM, n_clusters=2, seed=5)
    queries = np.vstack([data[[3, 30]], inserts[:1],
                         gaussian_mixture(2, DIM, n_clusters=1, seed=6)])
    return data, inserts, queries


def _mutated(index, inserts):
    index.add(inserts)
    assert index.delete(DOOMED) == len(DOOMED)
    assert index.num_pending == len(inserts)
    assert index.num_live == N + len(inserts) - len(DOOMED)
    return index


def _rows(results):
    return [(r.ids, r.distances) for r in results]


def test_k_above_live_count_returns_exactly_the_live_rows(workload,
                                                         tmp_path):
    data, inserts, queries = workload
    rows = np.vstack([data, inserts])
    live = np.setdiff1d(np.arange(len(rows)), DOOMED)
    assert K > live.size

    single = _mutated(DBLSH(**PARAMS).fit(data), inserts)
    sharded = _mutated(ShardedDBLSH(shards=2, **PARAMS).fit(data), inserts)
    answers = {
        "DBLSH": single.query_batch(queries, k=K),
        "ShardedDBLSH": sharded.query_batch(queries, k=K),
    }
    for results in answers.values():
        assert all(r.stats.terminated_by == "exhausted" for r in results)

    base = str(tmp_path / "base.npz")
    save_index(ShardedDBLSH(shards=2, **PARAMS).fit(data), base)
    # Saving folds the pending rows into the tables; tombstones travel.
    folded = str(tmp_path / "folded.npz")
    save_index(sharded, folded)
    with SnapshotServer(folded) as server:
        answers["SnapshotServer"] = server.query_batch(queries, k=K)

    with MutableSnapshotServer(base, wal_path=str(tmp_path / "m.wal"),
                               compact_threshold=0) as server:
        with HttpGateway(server, batch_window=0.0) as gateway:
            conn = http.client.HTTPConnection("127.0.0.1", gateway.port,
                                              timeout=60)
            try:
                for point in inserts:
                    status, _ = _post_json(conn, "/insert",
                                           {"point": point.tolist()})
                    assert status == 200
                for point_id in DOOMED:
                    status, body = _post_json(conn, "/delete",
                                              {"id": point_id})
                    assert (status, body) == (200, {"deleted": True})
                status, body = _post_json(
                    conn, "/query", {"queries": queries.tolist(), "k": K}
                )
            finally:
                conn.close()
    assert status == 200
    served = [(row["ids"], row["distances"]) for row in body["results"]]

    # Bit-identical across transports of one state: the mutable server
    # keeps the same shards and pending rows as the 2-shard index, and
    # the read-only server answers as its snapshot loaded in process.
    assert served == _rows(answers["ShardedDBLSH"])
    assert _rows(answers["SnapshotServer"]) == _rows(
        load_index(folded).query_batch(queries, k=K)
    )
    # Across shard counts and across the fold the GEMM groups rows
    # differently, so distances may differ in the last bits; ids may not.
    expected = _rows(answers["DBLSH"])
    for name, results in answers.items():
        for (ids, distances), (want_ids, want) in zip(_rows(results), expected):
            assert ids == want_ids, name
            np.testing.assert_allclose(distances, want, rtol=1e-12, atol=1e-12)
    for query, (ids, distances) in zip(queries, expected):
        assert sorted(ids) == live.tolist()
        assert list(zip(distances, ids)) == sorted(zip(distances, ids))
        exact = np.linalg.norm(rows[ids] - query, axis=1)
        np.testing.assert_allclose(distances, exact, rtol=1e-9, atol=1e-9)
