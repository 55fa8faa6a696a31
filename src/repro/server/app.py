"""The asyncio matching server: HTTP/JSON over the execution engine.

A deliberately small HTTP/1.1 implementation on ``asyncio`` streams (no
third-party web framework — the container ships none), serving four routes:

``GET /healthz``
    Liveness probe.
``GET /metrics``
    The full metrics document (see :mod:`repro.server.metrics`).
``POST /v1/match``
    One matching request; the response is one JSON result row.  Shed
    requests get HTTP 429 with a machine-readable ``reason``.
``POST /v1/batch``
    Many requests from one tenant; the response streams newline-delimited
    JSON rows **in completion order** (chunked transfer encoding), ending
    with a summary row.

Every job — a ``/v1/match`` request or one ``/v1/batch`` entry — is served
by one coroutine, :meth:`MatchingServer._serve_job`: admission, the
:meth:`~repro.service.MatchingService.dispatch` step, then a wait of at most
``grace`` past the job's deadline.  Execution runs on the engine's backend
threads/processes; the event loop only parses, admits, dispatches and
awaits.  Quota slots are released by the handle's done-callback, so a
request answered at its deadline keeps holding its slot until its worker
actually finishes — in-flight accounting never undercounts busy workers.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any

from repro.engine import Engine, EngineSaturatedError, create_backend
from repro.engine.faults import FaultInjectingBackend, FaultSchedule
from repro.matching import MatchingResult
from repro.server.admission import AdmissionController, AdmissionError, QuotaPolicy
from repro.server.metrics import METRICS_SCHEMA, ServerMetrics
from repro.server.protocol import (
    GraphCache,
    JobRequest,
    ProtocolError,
    build_job,
    handle_row,
    parse_request,
    result_row,
    summary_row,
)
from repro.service import MatchingService, ResultCache

__all__ = ["MatchingServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}
_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100
#: ``/v1/match`` HTTP status of a job the server did not run.
_UNRUN_STATUS = {"rejected": 429, "error": 500}


def _encode_response(status: int, body: bytes, *, content_type: str = "application/json") -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Any) -> bytes:
    return _encode_response(status, json.dumps(payload).encode("utf-8"))


def _row_chunk(row: dict) -> bytes:
    """One NDJSON row as an HTTP/1.1 chunk."""
    data = (json.dumps(row) + "\n").encode("utf-8")
    return f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n"


def _shed_row(request: JobRequest, reason: str, error: Exception) -> dict:
    return {
        "type": "result", **request.describe(),
        "status": "rejected", "reason": reason, "error": str(error),
    }


class _Request:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: dict, body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def close_requested(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one HTTP/1.1 request; ``None`` on EOF or malformed framing."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    try:
        method, path, _version = line.decode("ascii").split()
    except ValueError:
        return None
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        return None
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        return None
    if length < 0 or length > _MAX_BODY:
        return None
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
    return _Request(method, path.split("?", 1)[0], headers, body)


class MatchingServer:
    """A long-lived matching-as-a-service front end.

    Parameters
    ----------
    backend / workers:
        Engine execution backend (``"inline"`` / ``"thread"`` / ``"process"``)
        and its pool size.
    policy:
        The :class:`~repro.server.admission.QuotaPolicy`; its
        ``max_queue_depth`` is also installed as the engine's
        ``max_inflight`` backpressure bound (defense in depth — a bypass of
        admission still cannot queue without bound).
    default_deadline:
        Deadline in seconds for requests that do not carry one (``None`` =
        no deadline).
    default_profile / default_seed:
        Defaults for suite-instance graph references.
    max_cache_entries:
        Bound of the warm result cache.
    fault_schedule:
        A :class:`~repro.engine.faults.FaultSchedule` wrapping the backend in
        deterministic fault injection (the test/CI configuration); response
        rows then carry an ``injected_fault`` field for attribution.
    grace:
        Seconds past a job's deadline the server keeps awaiting the handle
        before answering ``timeout`` on its behalf, queued or running.
    """

    def __init__(
        self,
        *,
        backend: str = "thread",
        workers: int = 4,
        policy: QuotaPolicy | None = None,
        default_deadline: float | None = None,
        default_profile: str = "small",
        default_seed: int = 20130421,
        max_cache_entries: int = 1024,
        fault_schedule: FaultSchedule | None = None,
        grace: float = 0.25,
    ) -> None:
        self.policy = policy or QuotaPolicy()
        inner = create_backend(backend, max_workers=workers or None)
        self.fault_backend: FaultInjectingBackend | None = None
        if fault_schedule is not None and fault_schedule.any_faults:
            inner = FaultInjectingBackend(inner, fault_schedule)
            self.fault_backend = inner
        self.engine = Engine(
            backend=inner, own_backend=True, max_inflight=self.policy.max_queue_depth
        )
        self.admission = AdmissionController(self.policy)
        self.metrics = ServerMetrics()
        self.service = MatchingService(engine=self.engine, cache=ResultCache(max_cache_entries))
        self.graphs = GraphCache()
        self.defaults = {
            "profile": default_profile, "seed": default_seed, "deadline": default_deadline,
        }
        self.grace = grace
        self.host: str | None = None
        self.port: int | None = None
        self._request_counter = 0
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def fault_injection(self) -> bool:
        return self.fault_backend is not None

    # ------------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (``port=0`` = ephemeral)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(self._on_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_until_stopped(self, ttl: float | None = None) -> None:
        """Serve until :meth:`stop` is called (or ``ttl`` seconds elapse)."""
        assert self._stop_event is not None, "call start() first"
        try:
            await asyncio.wait_for(self._stop_event.wait(), ttl)
        except asyncio.TimeoutError:
            pass
        self._server.close()
        await self._server.wait_closed()

    def stop(self) -> None:
        """Request shutdown (thread-safe; usable from signal handlers and tests)."""
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and not loop.is_closed():
            loop.call_soon_threadsafe(event.set)

    def start_in_background(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Run the server on its own event loop in a daemon thread.

        Blocks until the socket is bound; returns ``(host, port)``.  Stop it
        with :meth:`shutdown`.  This is how the tests, the latency benchmark
        and embedded callers boot a server.
        """
        started = threading.Event()
        failures: list[BaseException] = []

        def run() -> None:
            async def main() -> None:
                await self.start(host, port)
                started.set()
                await self.serve_until_stopped()

            try:
                asyncio.run(main())
            except BaseException as exc:  # surface bind errors to the caller
                failures.append(exc)
                started.set()

        self._thread = threading.Thread(target=run, name="repro-server", daemon=True)
        self._thread.start()
        started.wait()
        if failures:
            raise failures[0]
        return self.host, self.port

    def shutdown(self) -> None:
        """Stop serving, join the background thread and tear the engine down."""
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.engine.shutdown()

    def __enter__(self) -> "MatchingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ connection
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                await self._route(request, writer)
                if request.close_requested:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: _Request, writer: asyncio.StreamWriter) -> None:
        self.metrics.record_request()
        try:
            if request.path == "/healthz" and request.method == "GET":
                writer.write(_json_response(200, {"status": "ok"}))
            elif request.path == "/metrics" and request.method == "GET":
                writer.write(_json_response(200, self.metrics_snapshot()))
            elif request.path == "/v1/match":
                if request.method != "POST":
                    writer.write(_json_response(405, {"error": "POST required"}))
                else:
                    status, payload = await self._serve_match(request.body)
                    writer.write(_json_response(status, payload))
            elif request.path == "/v1/batch":
                if request.method != "POST":
                    writer.write(_json_response(405, {"error": "POST required"}))
                else:
                    await self._serve_batch(request.body, writer)
            else:
                writer.write(_json_response(404, {"error": f"no route {request.path!r}"}))
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:  # a 500 is server breakage: counted as leakage
            self.metrics.record_server_error()
            writer.write(_json_response(500, {"error": f"{type(exc).__name__}: {exc}"}))
        await writer.drain()

    # ------------------------------------------------------------------- jobs
    def _next_request_id(self) -> str:
        self._request_counter += 1
        return f"req-{self._request_counter}"

    async def _serve_job(self, request: JobRequest, job, arrival: float, leaders: dict) -> dict:
        """Serve one job: admit, dispatch, await the deadline.

        Returns the job's response row; ``leaders`` is its request's table
        for :meth:`MatchingService.dispatch`.  A job shed by admission
        or refused by a saturated engine gets a ``rejected`` row; a job the
        engine cannot take (shut down) is a server error, an ``error`` row.
        A job not finished ``grace`` seconds past its deadline is answered
        ``timeout``, whether it is still queued or running.
        """
        try:
            ticket = self.admission.try_admit(request.tenant)
        except AdmissionError as exc:
            return _shed_row(request, exc.reason, exc)
        try:
            handle = self.service.dispatch(job, request.plan, leaders, request.deadline)
        except EngineSaturatedError as exc:
            ticket.release()
            self.admission.record_shed(request.tenant, "engine-saturated")
            return _shed_row(request, "engine-saturated", exc)
        except RuntimeError as exc:  # engine shut down mid-request
            ticket.release()
            self.metrics.record_server_error()
            return {"type": "result", **request.describe(), "status": "error", "error": str(exc)}
        if isinstance(handle, MatchingResult):  # a cache hit, not a handle
            ticket.release()
            latency = time.perf_counter() - arrival
            self.metrics.record_response("ok", latency, cached=True)
            return result_row(
                request, status="ok", result=handle, cached=True, worker="cache",
                server_seconds=latency, fault_injection=self.fault_injection,
            )
        loop = asyncio.get_running_loop()
        done = asyncio.Event()

        def on_done(_handle) -> None:
            ticket.release()
            try:
                loop.call_soon_threadsafe(done.set)
            except RuntimeError:
                pass  # loop already closed during shutdown

        handle._add_done_callback(on_done)
        wait = None
        if handle.deadline is not None:
            wait = max(0.0, handle.deadline - time.monotonic()) + self.grace
        try:
            await asyncio.wait_for(done.wait(), wait)
        except asyncio.TimeoutError:
            pass  # a handle still not done reads as ``timeout`` below
        latency = time.perf_counter() - arrival
        row = handle_row(
            request, handle, server_seconds=latency, fault_injection=self.fault_injection
        )
        if row["status"] == "timeout":
            # Take a queued job off the queue; a running one keeps its quota
            # slot until it drains.  A follower's handle is its own.
            handle.cancel()
        self.metrics.record_response(
            row["status"], latency, cached=row["cached"],
            injected=getattr(handle, "injected_fault", None),
        )
        return row

    async def _serve_match(self, body: bytes) -> tuple[int, dict]:
        arrival = time.perf_counter()
        try:
            payload = json.loads(body or b"null")
            request = parse_request(payload, self.defaults, self._next_request_id())
            job = await asyncio.get_running_loop().run_in_executor(
                None, build_job, request, self.graphs
            )
        except (ProtocolError, ValueError, OSError) as exc:
            # ValueError/OSError cover graph materialisation (malformed or
            # unreadable Matrix-Market content discovered on first read).
            self.metrics.record_bad_request()
            return 400, {"error": str(exc)}
        row = await self._serve_job(request, job, arrival, {})
        status = _UNRUN_STATUS.get(row["status"], 200)
        if status != 200:
            row = {key: row[key] for key in ("error", "reason", "id") if key in row}
        return status, row

    async def _serve_batch(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        arrival = time.perf_counter()
        try:
            payload = json.loads(body or b"null")
            if not isinstance(payload, dict):
                raise ProtocolError("batch payload must be an object")
            jobs_payload = payload.get("jobs")
            if not isinstance(jobs_payload, list) or not jobs_payload:
                raise ProtocolError("'jobs' must be a non-empty array")
            shared = {
                key: payload[key]
                for key in ("tenant", "deadline", "include_matching", "profile", "seed")
                if key in payload
            }
            requests, jobs = [], []
            loop = asyncio.get_running_loop()
            try:
                # Every job is validated before any graph is built.
                for index, entry in enumerate(jobs_payload):
                    requests.append(parse_request(
                        {**shared, **entry} if isinstance(entry, dict) else entry,
                        self.defaults, f"job-{index}",
                    ))
                for index, request in enumerate(requests):
                    jobs.append(
                        await loop.run_in_executor(None, build_job, request, self.graphs)
                    )
            except (ValueError, OSError) as exc:
                raise ProtocolError(f"jobs[{index}]: {exc}") from exc
        except (ProtocolError, ValueError, OSError) as exc:
            self.metrics.record_bad_request()
            writer.write(_json_response(400, {"error": str(exc)}))
            return

        writer.write(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n".encode("ascii")
        )
        # A task's first step admits and dispatches its job, so the tasks are
        # created in submission order (asyncio.as_completed would put them in
        # a set): a hit frees its slot before the next entry is admitted.
        leaders: dict = {}
        tasks = [
            asyncio.create_task(self._serve_job(request, job, arrival, leaders))
            for request, job in zip(requests, jobs, strict=True)
        ]
        rows = []
        for next_row in asyncio.as_completed(tasks):
            rows.append(await next_row)
            writer.write(_row_chunk(rows[-1]))
            await writer.drain()
        writer.write(_row_chunk(
            summary_row(rows, wall_seconds=time.perf_counter() - arrival)
        ) + b"0\r\n\r\n")

    # --------------------------------------------------------------- metrics
    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` document: counters + admission + caches + engine."""
        doc: dict[str, Any] = {"schema": METRICS_SCHEMA}
        doc.update(self.metrics.snapshot())
        admission = self.admission.snapshot()
        doc["admission"] = admission
        doc["queue"] = {"depth": admission["depth"], "peak_depth": admission["peak_depth"]}
        results = self.service.cache
        lookups = results.hits + results.misses
        doc["cache"] = {
            "result": {
                "hits": results.hits,
                "misses": results.misses,
                "entries": len(results),
                "hit_rate": results.hits / lookups if lookups else 0.0,
            },
            "graph": self.graphs.snapshot(),
        }
        doc["engine"] = {
            "backend": self.engine.backend.name,
            "jobs_submitted": self.engine.jobs_submitted,
            "inflight": self.engine.inflight,
            "max_inflight": self.engine.max_inflight,
        }
        doc["faults"]["enabled"] = self.fault_injection
        if self.fault_backend is not None:
            doc["faults"]["scheduled"] = dict(self.fault_backend.counts)
            doc["faults"]["scheduled_total"] = sum(self.fault_backend.counts.values())
        return doc
