"""Server metrics: counters, latency percentiles and fault-leakage accounting.

One :class:`ServerMetrics` instance per server, updated from the asyncio
loop and from backend completion callbacks (hence the lock).  ``/metrics``
exports :meth:`ServerMetrics.snapshot` merged with the admission, cache and
engine sections — the same counter-schema style as the perf-baseline files
(``schema`` tag + flat numeric sections), so the load generator and the CI
``server-smoke`` job can assert on it mechanically.

Fault leakage.  When the server runs with fault injection (the test/CI
configuration), every response is classified against the fault that was (or
was not) injected into its job:

* an injected ``crash`` must surface as ``status="failed"`` — a crash that
  reports ``ok`` leaked;
* a ``failed`` response with *no* injected crash is collateral damage —
  isolation leaked;
* ``timeout`` is never leakage: it is the documented deadline semantics
  (injected stalls on deadlined requests are *expected* to land here).

``leaked`` staying at zero under a seeded crash+stall schedule is the CI
gate that the server sheds or fails only the affected requests.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["METRICS_SCHEMA", "ServerMetrics", "classify_leak"]

METRICS_SCHEMA = "repro-server-metrics/v1"

#: Response statuses the server can emit for an admitted request.
TERMINAL_STATUSES = ("ok", "failed", "timeout", "cancelled")


def classify_leak(status: str, injected: str | None) -> bool:
    """Whether a response leaked an injected fault (or a fault leaked in).

    See the module docstring for the rule; with no injection active this
    reduces to "any ``failed`` response is a leak", which is what the clean
    server configuration asserts too.
    """
    if injected == "crash":
        return status == "ok"
    return status == "failed"


class _LatencyWindow:
    """The 8192 most recent request latencies, with nearest-rank percentiles."""

    def __init__(self) -> None:
        self._values: deque[float] = deque(maxlen=8192)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        self._values.append(seconds)
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)

    def percentile(self, q: float) -> float:
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


class ServerMetrics:
    """Aggregated request accounting for one server instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.statuses = {status: 0 for status in TERMINAL_STATUSES}
        self.requests_total = 0
        self.bad_requests = 0
        self.server_errors = 0
        self.cached_responses = 0
        self.injected = {"crash": 0, "stall": 0, "slow": 0}
        self.leaked = 0
        self.latency = _LatencyWindow()

    # ------------------------------------------------------------- recording
    def record_request(self) -> None:
        with self._lock:
            self.requests_total += 1

    def record_bad_request(self) -> None:
        with self._lock:
            self.bad_requests += 1

    def record_server_error(self) -> None:
        """An unhandled 500 — always counted into ``leaked`` as well."""
        with self._lock:
            self.server_errors += 1
            self.leaked += 1

    def record_response(
        self,
        status: str,
        latency_seconds: float,
        *,
        cached: bool = False,
        injected: str | None = None,
    ) -> None:
        """Record one admitted request's terminal outcome."""
        with self._lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if cached:
                self.cached_responses += 1
            if injected is not None:
                self.injected[injected] = self.injected.get(injected, 0) + 1
            if classify_leak(status, injected):
                self.leaked += 1
            self.latency.record(latency_seconds)

    # -------------------------------------------------------------- exporting
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "requests": {
                    "total": self.requests_total,
                    "bad_requests": self.bad_requests,
                    "server_errors": self.server_errors,
                    "cached_responses": self.cached_responses,
                    **dict(self.statuses),
                },
                "latency_seconds": self.latency.snapshot(),
                "faults": {
                    "injected": dict(self.injected),
                    "injected_total": sum(self.injected.values()),
                    "leaked": self.leaked,
                },
            }
