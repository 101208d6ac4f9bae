"""Public API surface tests: imports, exports, and version metadata.

A downstream user's first contact with the library is ``from repro import
DBLSH`` and the package-level ``__all__`` lists; these tests pin that
surface so refactors cannot silently break it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
import textwrap

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_dblsh_importable_from_top(self):
        from repro import DBLSH, Neighbor, QueryResult, QueryStats

        assert callable(DBLSH)
        assert all(callable(t) for t in (Neighbor, QueryResult, QueryStats))


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.core",
        "repro.hashing",
        "repro.index",
        "repro.io",
        "repro.serve",
        "repro.baselines",
        "repro.data",
        "repro.eval",
        "repro.utils",
    ],
)
def test_subpackage_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_thirteen_plus_methods_available():
    """The full §VI-A competitor roster plus extensions must be importable."""
    from repro import baselines

    expected = {
        "LinearScan", "FBLSH", "E2LSH", "MultiProbeLSH", "LSBForest",
        "C2LSH", "QALSH", "R2LSH", "VHP", "PMLSH", "SRS", "LCCSLSH", "ILSH",
    }
    assert expected <= set(baselines.__all__)


def test_every_public_module_has_docstring():
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        assert module.__doc__, f"{info.name} lacks a module docstring"


def _parameters(func):
    return list(inspect.signature(func).parameters)


class TestServingSurface:
    """The serving and index constructors take only what some caller
    outside the tests sets; fixed limits are module constants a test
    can ``monkeypatch.setattr``."""

    def test_signatures(self):
        from repro.core.delta import DeltaIndex
        from repro.index.flat import FlatRStarTree
        from repro.index.str_build import build_flat_str
        from repro.serve import (
            GatewayMetrics,
            HttpGateway,
            MutableSnapshotServer,
            SnapshotServer,
        )

        assert _parameters(HttpGateway) == [
            "server", "host", "port", "batch_window", "max_batch",
            "queue_limit", "on_request",
        ]
        assert _parameters(SnapshotServer) == ["path", "query_timeout"]
        assert _parameters(MutableSnapshotServer) == [
            "path", "wal_path", "compact_threshold", "segment_bytes",
            "query_timeout",
        ]
        assert _parameters(DeltaIndex) == ["dim"]
        assert _parameters(GatewayMetrics) == []
        assert _parameters(FlatRStarTree.from_build) == [
            "dim", "count", "height", "levels", "leaf_ptr", "leaf_ids",
            "leaf_cat", "coords_cat", "roots",
        ]
        assert _parameters(build_flat_str) == ["points", "ids", "max_entries"]

    def test_removed_parameters_and_accessors_stay_gone(self):
        from repro.core.delta import DeltaIndex
        from repro.eval import evaluate_server
        from repro.index.flat import FlatRStarTree
        from repro.index.rstar import RStarTree
        from repro.io import WriteAheadLog
        from repro.serve import SnapshotServer
        from repro.serve.metrics import Histogram

        assert _parameters(FlatRStarTree) == ["tree"]
        assert _parameters(RStarTree.freeze) == ["self"]
        assert _parameters(DeltaIndex.view) == ["self"]
        assert _parameters(Histogram.snapshot) == ["self"]
        assert not any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in inspect.signature(evaluate_server).parameters.values()
        )
        for name in ("restarts_total", "hang_kills_total", "deadline_hits_total"):
            assert not hasattr(SnapshotServer, name), name
        for name in ("append_insert", "append_delete", "append_checkpoint"):
            assert not hasattr(WriteAheadLog, name), name


def test_serving_path_never_imports_scipy():
    """Importing the CLI, fitting a sharded index and a snapshot round
    trip need no scipy: ``derive_parameters`` uses ``math.erf``, and
    only the baselines and the static/numeric probability helpers pull
    scipy in, when they run."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = textwrap.dedent(
        """
        import os, sys, tempfile
        import numpy as np
        import repro.serve, repro.io, repro.cli
        from repro import ShardedDBLSH
        from repro.io import load_index, save_index

        data = np.random.default_rng(0).standard_normal((300, 6))
        index = ShardedDBLSH(shards=2, l_spaces=2, k_per_space=3, t=8,
                             seed=0).fit(data)
        path = os.path.join(tempfile.mkdtemp(), "s.npz")
        save_index(index, path)
        assert len(load_index(path).query(data[5], k=3).ids) == 3
        print("scipy" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
