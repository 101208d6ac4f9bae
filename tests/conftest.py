"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One profile for the whole suite: numpy-heavy properties are fast per
# example but function-scoped fixtures would trip the health check.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests that need ad-hoc randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_clustered(rng: np.random.Generator) -> np.ndarray:
    """A small, well-clustered dataset where ANN methods should do well."""
    from repro.data.generators import gaussian_mixture

    return gaussian_mixture(
        600, 24, n_clusters=8, cluster_std=1.0, center_spread=8.0, seed=rng
    )


@pytest.fixture
def tiny_points() -> np.ndarray:
    """Twelve 2-D points echoing the paper's running example (Fig. 1/3)."""
    return np.array(
        [
            [1.0, 8.5], [2.0, 9.0], [2.5, 7.0], [4.3, 5.2], [1.5, 4.0],
            [5.0, 6.0], [2.0, 2.0], [6.5, 8.0], [5.5, 4.5], [8.0, 7.5],
            [6.0, 3.5], [8.5, 2.0],
        ]
    )


# ----------------------------------------------------------------------
# `repro serve` as a thread on a free loopback port (CLI serve tests)
# ----------------------------------------------------------------------


def _free_port(host: str = "127.0.0.1") -> int:
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with socket.socket(family) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


@pytest.fixture
def free_port() -> int:
    """A loopback port nobody is listening on right now."""
    return _free_port()


class ServeRun:
    """One ``repro serve`` main() running in a daemon thread.

    ``host`` is the ``--listen`` host as an operator types it: an IPv6
    address in brackets (``[::1]``).
    """

    def __init__(self, argv, delay: float = 0.0,
                 host: str = "127.0.0.1") -> None:
        from repro.cli import main

        self.address = f"{host}:{_free_port(host.strip('[]'))}"
        self.rc: list = []

        def target():
            time.sleep(delay)
            self.rc.append(main(["serve", *argv, "--listen", self.address]))

        self.thread = threading.Thread(target=target, daemon=True)
        self.thread.start()

    def connect(self, timeout: float = 30.0):
        """A keep-alive HTTP connection, retried until the serve binds."""
        from repro.cli import _connect_with_retry, _parse_http_address

        return _connect_with_retry(_parse_http_address(self.address), timeout,
                                   io_timeout=60.0)

    @staticmethod
    def rows(body: dict) -> list:
        """``POST /query`` JSON rows as objects with ``ids``/``distances``."""
        return [SimpleNamespace(**row) for row in body["results"]]

    @staticmethod
    def post(conn, path: str, payload=None, headers=None) -> tuple:
        from repro.cli import _post_json

        return _post_json(conn, path, payload or {}, headers)

    @staticmethod
    def get(conn, path: str) -> tuple:
        import json

        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def join(self, timeout: float = 60.0):
        """Wait for the serve to exit; returns its exit code."""
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "repro serve did not stop"
        return self.rc[0]

    def shutdown(self, timeout: float = 60.0):
        """POST /shutdown on a fresh connection, then join."""
        conn = self.connect()
        try:
            assert self.post(conn, "/shutdown")[0] == 200
        finally:
            conn.close()
        return self.join(timeout)


@pytest.fixture
def serve_in_thread():
    """``serve_in_thread(*argv)`` starts a :class:`ServeRun`; any run still
    alive at teardown is shut down so no test leaks worker processes."""
    runs = []

    def start(*argv, delay: float = 0.0, host: str = "127.0.0.1") -> ServeRun:
        run = ServeRun(argv, delay, host)
        runs.append(run)
        return run

    yield start
    for run in runs:
        if run.thread.is_alive():
            try:
                run.shutdown()
            except Exception:
                pass
