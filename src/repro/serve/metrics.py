"""Serving metrics: cheap counters and fixed-bucket histograms.

The HTTP gateway (:mod:`repro.serve.http`) records every request it
handles — which endpoint, which status, how long — plus the micro-batch
sizes it forms and the requests it sheds.  Operators read the whole
thing back as one JSON document from ``GET /metrics``.

Design constraints, in order:

* **Recording must be cheap.**  A record is one or two integer
  increments on the hot path.  Under CPython the increments are single
  bytecode read-modify-write cycles guarded by the GIL *per access* —
  concurrent recorders can interleave and lose the odd increment, never
  corrupt state ("lock-free-ish").  The gateway records from one event
  loop thread plus executor callbacks; an occasional lost count is an
  acceptable price for never blocking the serving path on a metrics
  lock.
* **Histograms are fixed-bucket.**  :class:`Histogram` holds one int per
  pre-chosen bucket boundary, so memory is constant no matter how many
  observations arrive, and quantiles (p50/p90/p99) are estimated by
  linear interpolation inside the bucket where the cumulative count
  crosses the rank — the standard Prometheus-style trade: bounded error
  (one bucket's width), zero per-observation allocation.
* **Snapshot-on-read.**  Readers get a plain-dict copy
  (:meth:`GatewayMetrics.snapshot`) assembled at read time; recording
  never waits for a reader and a reader never sees a half-updated
  structure it could mutate back into the live registry.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "GatewayMetrics",
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

#: Default latency buckets (seconds): log-spaced 100 µs → 10 s, the span
#: between "one GEMM on a small batch" and "something is badly wrong".
#: Observations above the last bound land in the implicit +inf bucket.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default micro-batch-size buckets (requests coalesced per GEMM).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)


class Counter:
    """A monotonically increasing event count.

    >>> c = Counter()
    >>> c.add(); c.add(2); c.value
    3
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def add(self, amount: int = 1) -> None:
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    Parameters
    ----------
    buckets:
        Ascending finite upper bounds.  An observation lands in the first
        bucket whose bound is >= the value; values above every bound land
        in the implicit overflow bucket (quantiles there report the last
        finite bound — the estimate saturates rather than inventing a
        value no bucket witnessed).

    >>> h = Histogram((1.0, 2.0, 4.0))
    >>> for v in (0.5, 1.5, 1.5, 3.0):
    ...     h.observe(v)
    >>> h.count
    4
    >>> round(h.quantile(0.5), 3)
    1.5
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_max")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly ascending, got {bounds}")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self._counts[bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the winning bucket, Prometheus
        ``histogram_quantile`` style: exact to within one bucket width.
        Returns ``0.0`` for an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if i >= len(self._bounds):
                    # Overflow bucket has no upper bound: saturate at the
                    # last finite boundary instead of extrapolating.
                    return self._bounds[-1]
                lower = self._bounds[i - 1] if i > 0 else 0.0
                upper = self._bounds[i]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self._bounds[-1]  # pragma: no cover - rank <= count always hits

    def snapshot(self) -> dict:
        """Plain-dict copy: count/sum/max, p50/p90/p99, buckets."""
        snap = {
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self._bounds, self._counts)},
                "le_inf": self._counts[-1],
            },
        }
        for q in (0.5, 0.9, 0.99):
            snap[f"p{round(q * 100):g}"] = self.quantile(q)
        return snap


class GatewayMetrics:
    """The HTTP gateway's metrics registry (one per gateway).

    Per endpoint: a latency histogram and per-status response counters.
    Gateway-wide: total sheds (429 responses from admission control),
    the micro-batch size histogram, the batch *dispatch latency*
    histogram (wall seconds per ``query_batch`` GEMM — the p50 here
    feeds the computed ``Retry-After``), the mutation ack-latency
    histogram (client wait for the group fsync), the resilience
    counters (deadline hits, connections reaped for idleness or by the
    max-connections cap), the last graceful-drain duration, and live
    queue-depth / open-connections probes sampled at snapshot time
    (both are properties of live structures, not accumulated series —
    a probe that raises clamps its gauge to zero and bumps
    ``probe_errors`` instead of publishing a negative sentinel).

    >>> m = GatewayMetrics()
    >>> m.observe_request("query", 200, 0.004)
    >>> m.observe_batch(3)
    >>> snap = m.snapshot()
    >>> snap["endpoints"]["query"]["statuses"]["200"]
    1
    >>> snap["batch"]["count"]
    1
    """

    def __init__(self) -> None:
        self._started = time.monotonic()
        self._latencies: Dict[str, Histogram] = {}
        self._statuses: Dict[str, Dict[int, Counter]] = {}
        self.shed = Counter()
        self.batch_sizes = Histogram(BATCH_SIZE_BUCKETS)
        #: Wall seconds per dispatched micro-batch (queue → answer).
        self.batch_latency = Histogram(LATENCY_BUCKETS)
        #: Requests that ran out of their deadline budget (HTTP 504s and
        #: server-side ``DeadlineExceeded`` surfaced through the gateway).
        self.deadline_hits = Counter()
        #: Connections closed for exceeding the keep-alive idle timeout.
        self.reaped_idle = Counter()
        #: Least-recently-active connections closed by the cap.
        self.reaped_overflow = Counter()
        #: Wall seconds a mutation client waited for its group fsync ack
        #: (insert/delete request → WAL durable → response).
        self.mutation_ack_latency = Histogram(LATENCY_BUCKETS)
        #: Snapshot-time probes (queue depth, open connections) that
        #: raised instead of returning a sample.  Gauges stay clamped at
        #: zero when a probe fails; this counter is the failure signal,
        #: so dashboards doing arithmetic on the gauges never ingest a
        #: sentinel like ``-1``.
        self.probe_errors = Counter()
        self._drain_seconds: Optional[float] = None
        self._queue_depth_probe: Optional[Callable[[], int]] = None
        self._connections_probe: Optional[Callable[[], int]] = None

    def set_queue_depth_probe(self, probe: Callable[[], int]) -> None:
        """Register a callable sampled for ``queue_depth`` at snapshot time."""
        self._queue_depth_probe = probe

    def set_connections_probe(self, probe: Callable[[], int]) -> None:
        """Register a callable sampled for open connections at snapshot time."""
        self._connections_probe = probe

    def observe_drain(self, seconds: float) -> None:
        """Record how long the last graceful shutdown drain took."""
        self._drain_seconds = float(seconds)

    def _endpoint(self, endpoint: str) -> Histogram:
        histogram = self._latencies.get(endpoint)
        if histogram is None:
            # Benign creation race: two first-requests to one endpoint may
            # both build a histogram and one observation lands in the
            # loser's — same lost-increment budget as the counters.
            histogram = Histogram(LATENCY_BUCKETS)
            self._latencies[endpoint] = histogram
            self._statuses[endpoint] = {}
        return histogram

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one handled request: endpoint, response status, latency."""
        self._endpoint(endpoint).observe(seconds)
        statuses = self._statuses[endpoint]
        counter = statuses.get(status)
        if counter is None:
            counter = statuses.setdefault(status, Counter())
        counter.add()
        if status == 429:
            self.shed.add()

    def observe_batch(self, size: int) -> None:
        """Record the size of one dispatched micro-batch."""
        self.batch_sizes.observe(size)

    def snapshot(self) -> dict:
        """Assemble the full registry as one plain-dict document.

        ``qps`` figures are lifetime averages (count / uptime): honest for
        a dashboard sampling deltas, deliberately free of sliding-window
        state on the recording path.
        """
        uptime = max(time.monotonic() - self._started, 1e-9)
        endpoints = {}
        total = 0
        for endpoint, histogram in sorted(self._latencies.items()):
            statuses = self._statuses.get(endpoint, {})
            count = histogram.count
            total += count
            endpoints[endpoint] = {
                "count": count,
                "qps": count / uptime,
                "statuses": {
                    str(status): counter.value
                    for status, counter in sorted(statuses.items())
                },
                "latency_seconds": histogram.snapshot(),
            }
        depth = 0
        if self._queue_depth_probe is not None:
            try:
                depth = max(0, int(self._queue_depth_probe()))
            except Exception:
                # A dying queue must not take /metrics with it, and a
                # sentinel such as -1 would poison dashboard arithmetic:
                # clamp the gauge and count the failure instead.
                self.probe_errors.add()
        open_connections = 0
        if self._connections_probe is not None:
            try:
                open_connections = max(0, int(self._connections_probe()))
            except Exception:
                self.probe_errors.add()
        return {
            "uptime_seconds": uptime,
            "requests_total": total,
            "qps": total / uptime,
            "queue_depth": depth,
            "probe_errors_total": self.probe_errors.value,
            "shed_total": self.shed.value,
            "deadline_exceeded_total": self.deadline_hits.value,
            "batch": self.batch_sizes.snapshot(),
            "batch_latency_seconds": self.batch_latency.snapshot(),
            "mutation_ack_latency_seconds": self.mutation_ack_latency.snapshot(),
            "connections": {
                "open": open_connections,
                "reaped_idle": self.reaped_idle.value,
                "reaped_overflow": self.reaped_overflow.value,
            },
            "drain_seconds": self._drain_seconds,
            "endpoints": endpoints,
        }
