"""Server tests: HTTP surface, admission invariants, lifecycle bugfixes.

Three layers:

* **HTTP** — a real :class:`MatchingServer` on an ephemeral port, driven
  with ``http.client``: match/caching, batch streaming, validation errors,
  the metrics document, 429 shedding under tiny quotas, and the one
  per-job path that answers deadlines and engine refusals alike on
  ``/v1/match`` and ``/v1/batch``.
* **Shared executions** — identical deterministic entries of one
  ``/v1/batch`` run once through the server's ``MatchingService.dispatch``
  step, and followers share the leader's result or failure.  Counted by
  wrapping ``repro.engine.execution.execute_job``, gated on an ``Event``.
* **Admission invariants** — seeded property-style campaigns against
  :class:`AdmissionController` directly (no sockets): per-tenant in-flight
  never exceeds its quota, global depth never exceeds the bound, release is
  idempotent, rejection consumes nothing; plus the end-to-end variant that
  every admitted request terminates in exactly one terminal status.
* **Lifecycle bugfixes** — regressions for the error-surface fixes that
  rode along with this layer: ``Engine.submit`` after shutdown and
  ``MatchingService`` double-close raise clear ``RuntimeError``s (not pool
  internals), the backend-shutdown race is wrapped, and cancelling a
  finished job is a no-op that still releases its quota slot.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

import repro.engine.execution as execution_mod
from repro.engine import Engine, EngineSaturatedError, FaultSchedule, MatchingJob, ThreadBackend
from repro.generators import uniform_random_bipartite
from repro.server import AdmissionController, AdmissionError, MatchingServer, QuotaPolicy
from repro.server.metrics import TERMINAL_STATUSES, classify_leak
from repro.service import MatchingService

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

GRAPH = "amazon0505"


def _request(port, method, path, payload=None, timeout=15.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        return response.status, raw
    finally:
        conn.close()


def _json(port, method, path, payload=None):
    status, raw = _request(port, method, path, payload)
    return status, json.loads(raw)


# --------------------------------------------------------------------- HTTP
@pytest.fixture(scope="module")
def server():
    instance = MatchingServer(backend="thread", workers=2, default_deadline=10.0,
                              default_profile="tiny")
    instance.start_in_background()
    yield instance
    instance.shutdown()


def test_healthz(server):
    assert _json(server.port, "GET", "/healthz") == (200, {"status": "ok"})


def test_match_then_cache_hit(server):
    payload = {"graph": GRAPH, "algorithm": "pr", "seed": 7, "include_matching": True}
    status, first = _json(server.port, "POST", "/v1/match", payload)
    assert status == 200
    assert first["status"] == "ok"
    assert first["cached"] is False
    assert first["cardinality"] > 0
    assert isinstance(first["row_match"], list)

    status, second = _json(server.port, "POST", "/v1/match", payload)
    assert status == 200
    assert second["cached"] is True
    assert second["worker"] == "cache"
    assert second["row_match"] == first["row_match"]


def test_validation_errors_are_400(server):
    for payload in (
        {"graph": "no-such-instance"},
        {"graph": GRAPH, "algorithm": "no-such-algorithm"},
        {"graph": GRAPH, "mtx": "/tmp/x.mtx"},
        {"graph": GRAPH, "deadline": -1},
        {"graph": GRAPH, "bogus_field": 1},
        [1, 2, 3],
    ):
        status, body = _json(server.port, "POST", "/v1/match", payload)
        assert status == 400, payload
        assert "error" in body


def test_unknown_route_and_method(server):
    assert _json(server.port, "GET", "/nope")[0] == 404
    assert _json(server.port, "GET", "/v1/match")[0] == 405


def test_batch_streams_rows_and_summary(server):
    payload = {
        "tenant": "batch-tenant",
        "jobs": [
            {"graph": GRAPH, "algorithm": "pr"},
            {"graph": GRAPH, "algorithm": "hk"},
            {"graph": "roadNet-PA", "algorithm": "karp-sipser"},
        ],
    }
    status, raw = _request(server.port, "POST", "/v1/batch", payload)
    assert status == 200
    rows = [json.loads(line) for line in raw.decode().strip().splitlines()]
    results, summaries = [r for r in rows if r["type"] == "result"], rows[-1:]
    assert len(results) == 3
    assert all(row["status"] == "ok" for row in results)
    assert {row["id"] for row in results} == {"job-0", "job-1", "job-2"}
    summary = summaries[0]
    assert summary["type"] == "summary"
    assert summary["jobs"] == 3 and summary["ok"] == 3 and summary["rejected"] == 0


def test_batch_validation_failure_rejects_whole_batch(server):
    status, body = _json(server.port, "POST", "/v1/batch", {
        "jobs": [{"graph": GRAPH}, {"graph": "no-such-instance"}],
    })
    assert status == 400
    # The error names the offending job, as manifest errors name path:line.
    assert body["error"].startswith("jobs[1]: unknown suite instance 'no-such-instance'")


def test_metrics_document(server):
    status, doc = _json(server.port, "GET", "/metrics")
    assert status == 200
    assert doc["schema"] == "repro-server-metrics/v1"
    for section in ("requests", "latency_seconds", "faults", "admission", "queue",
                    "cache", "engine"):
        assert section in doc, section
    assert doc["requests"]["ok"] >= 1
    assert doc["latency_seconds"]["p99"] >= doc["latency_seconds"]["p50"] >= 0
    assert doc["cache"]["result"]["hits"] >= 1  # the cache-hit test above
    assert doc["faults"]["enabled"] is False
    assert doc["engine"]["backend"] == "thread"
    assert doc["admission"]["depth"] == 0  # quiesced between requests


def test_tenant_quota_sheds_with_429():
    schedule = FaultSchedule(seed=1, stall_rate=1.0, stall_seconds=0.6)
    with MatchingServer(
        backend="thread", workers=2, default_profile="tiny",
        policy=QuotaPolicy(max_inflight_per_tenant=1, max_queue_depth=16),
        fault_schedule=schedule,
    ) as server:
        server.start_in_background()
        payload = {"tenant": "greedy", "graph": GRAPH, "algorithm": "pr"}
        outcome = {}

        def occupy():
            outcome["first"] = _json(server.port, "POST", "/v1/match", payload)

        thread = threading.Thread(target=occupy)
        thread.start()
        time.sleep(0.2)  # the stalled job now holds greedy's only slot
        status, body = _json(server.port, "POST", "/v1/match", payload)
        assert status == 429
        assert body["reason"] == "tenant-quota"
        # Another tenant is unaffected by greedy's quota.
        status, body = _json(server.port, "POST", "/v1/match",
                             {**payload, "tenant": "polite"})
        assert status == 200
        thread.join()
        assert outcome["first"][0] == 200
        doc = _json(server.port, "GET", "/metrics")[1]
        assert doc["admission"]["rejected_by_reason"] == {"tenant-quota": 1}
        assert doc["admission"]["tenants"]["greedy"]["rejected"] == 1


def test_queue_depth_sheds_with_429():
    schedule = FaultSchedule(seed=1, stall_rate=1.0, stall_seconds=0.6)
    with MatchingServer(
        backend="thread", workers=2, default_profile="tiny",
        policy=QuotaPolicy(max_inflight_per_tenant=8, max_queue_depth=1),
        fault_schedule=schedule,
    ) as server:
        server.start_in_background()
        payload = {"tenant": "t", "graph": GRAPH, "algorithm": "pr"}
        thread = threading.Thread(
            target=lambda: _json(server.port, "POST", "/v1/match", payload)
        )
        thread.start()
        time.sleep(0.2)
        status, body = _json(server.port, "POST", "/v1/match", payload)
        assert status == 429
        assert body["reason"] == "queue-depth"
        thread.join()


def _batch(port, payload):
    """A ``/v1/batch`` response as ``(result rows, summary row)``."""
    status, raw = _request(port, "POST", "/v1/batch", payload)
    assert status == 200
    rows = [json.loads(line) for line in raw.decode().strip().splitlines()]
    assert rows[-1]["type"] == "summary"
    return rows[:-1], rows[-1]


@pytest.mark.parametrize("endpoint", ["/v1/match", "/v1/batch"])
def test_wedged_job_is_answered_timeout_at_deadline_plus_grace(endpoint):
    # The stall outlives the 0.2 s deadline by 2 s: the worker is wedged.
    schedule = FaultSchedule(seed=1, stall_rate=1.0, stall_margin=2.0)
    with MatchingServer(backend="thread", workers=1, default_profile="tiny",
                        fault_schedule=schedule) as server:
        server.start_in_background()
        job = {"graph": GRAPH, "algorithm": "pr", "deadline": 0.2}
        started = time.perf_counter()
        if endpoint == "/v1/match":
            status, row = _json(server.port, "POST", endpoint, job)
            assert status == 200
        else:
            [row], summary = _batch(server.port, {"jobs": [job]})
            assert summary["timeout"] == 1
        assert time.perf_counter() - started < 1.0
        assert row["status"] == "timeout"
        assert row["server_seconds"] < 0.2 + server.grace + 0.2


@pytest.mark.parametrize("endpoint", ["/v1/match", "/v1/batch"])
def test_queued_job_is_answered_timeout_at_deadline_plus_grace(endpoint):
    # One worker, held for 1.5 s by a stalled job without a deadline; the
    # second job is still queued when its 0.2 s deadline and grace pass.
    schedule = FaultSchedule(seed=1, stall_rate=1.0, stall_seconds=1.5)
    with MatchingServer(backend="thread", workers=1, default_profile="tiny",
                        fault_schedule=schedule) as server:
        server.start_in_background()
        blocker = {"graph": GRAPH, "algorithm": "hk"}
        queued = {"graph": GRAPH, "algorithm": "pr", "deadline": 0.2}
        if endpoint == "/v1/match":
            thread = threading.Thread(
                target=_request, args=(server.port, "POST", endpoint, blocker)
            )
            thread.start()
            time.sleep(0.2)  # the blocker now holds the only worker
            status, row = _json(server.port, "POST", endpoint, queued)
            assert status == 200
            thread.join(timeout=15)
            assert not thread.is_alive()
        else:
            rows, _summary = _batch(server.port, {"jobs": [blocker, queued]})
            [row] = [row for row in rows if row["id"] == "job-1"]
        assert row["status"] == "timeout"
        assert row["server_seconds"] < 1.0
        doc = _json(server.port, "GET", "/metrics")[1]
        assert doc["requests"]["timeout"] == 1
        assert doc["requests"]["cancelled"] == 0


def _refuse_submissions(monkeypatch, server, error):
    def submit(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(server.engine, "submit", submit)


def test_engine_saturation_is_shed_alike_on_both_endpoints(monkeypatch):
    with MatchingServer(backend="thread", workers=1, default_profile="tiny") as server:
        server.start_in_background()
        _refuse_submissions(monkeypatch, server, EngineSaturatedError("engine full"))
        job = {"tenant": "t", "graph": GRAPH, "algorithm": "pr"}
        status, body = _json(server.port, "POST", "/v1/match", job)
        assert status == 429
        assert body == {"error": "engine full", "reason": "engine-saturated", "id": "req-1"}
        [row], summary = _batch(server.port, {"jobs": [job]})
        assert (row["status"], row["reason"]) == ("rejected", "engine-saturated")
        assert (summary["rejected"], summary["admitted"]) == (1, 0)
        admission = _json(server.port, "GET", "/metrics")[1]["admission"]
        assert admission["rejected"] == 2
        assert admission["rejected_by_reason"] == {"engine-saturated": 2}
        assert admission["tenants"]["t"]["rejected"] == 2
        assert admission["depth"] == 0  # the refused jobs' slots came back


def test_shut_down_engine_is_a_server_error_on_both_endpoints(monkeypatch):
    with MatchingServer(backend="thread", workers=1, default_profile="tiny") as server:
        server.start_in_background()
        _refuse_submissions(monkeypatch, server, RuntimeError("engine is shut down"))
        job = {"graph": GRAPH, "algorithm": "pr"}
        status, body = _json(server.port, "POST", "/v1/match", job)
        assert (status, body) == (500, {"error": "engine is shut down", "id": "req-1"})
        [row], summary = _batch(server.port, {"jobs": [job]})
        assert (row["status"], row["error"]) == ("error", "engine is shut down")
        assert summary["error"] == 1
        doc = _json(server.port, "GET", "/metrics")[1]
        assert doc["requests"]["server_errors"] == 2
        assert doc["faults"]["leaked"] == 2
        assert doc["admission"]["rejected"] == 0
        assert doc["admission"]["depth"] == 0


def test_batch_over_tenant_quota_sheds_its_trailing_jobs():
    schedule = FaultSchedule(seed=1, stall_rate=1.0, stall_seconds=0.3)
    with MatchingServer(
        backend="thread", workers=2, default_profile="tiny",
        policy=QuotaPolicy(max_inflight_per_tenant=2, max_queue_depth=16),
        fault_schedule=schedule,
    ) as server:
        server.start_in_background()
        jobs = [{"graph": GRAPH, "algorithm": "pr"}] * 5
        rows, summary = _batch(server.port, {"tenant": "t", "jobs": jobs})
        shed = {row["id"]: row["reason"] for row in rows if row["status"] == "rejected"}
        assert shed == {f"job-{i}": "tenant-quota" for i in (2, 3, 4)}
        assert (summary["admitted"], summary["ok"], summary["rejected"]) == (2, 2, 3)


# -------------------------------------------------------- shared executions
@pytest.fixture
def gate(monkeypatch):
    """Record each execution's algorithm and hold it until ``gate.open`` is set."""
    gate = SimpleNamespace(open=threading.Event(), calls=[])
    original = execution_mod.execute_job

    def gated(job, plan=None, initial_matching=None):
        gate.calls.append(job.algorithm)
        assert gate.open.wait(30)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", gated)
    yield gate
    gate.open.set()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


def _match_later(pool, server, payload):
    return pool.submit(_json, server.port, "POST", "/v1/match", payload)


def test_identical_batch_jobs_share_one_execution(gate):
    gate.open.set()
    with MatchingServer(backend="thread", workers=2, default_profile="tiny") as server:
        server.start_in_background()
        jobs = [{"graph": GRAPH, "algorithm": "hk", "id": f"j{i}"} for i in range(4)]
        rows, summary = _batch(server.port, {"jobs": jobs})
    assert gate.calls == ["hk"]
    assert sorted((row["cached"], row["worker"]) for row in rows) == (
        [(False, "thread")] + [(True, "dedup")] * 3
    )
    assert len({row["cardinality"] for row in rows}) == 1
    assert (summary["executed"], summary["deduplicated"], summary["ok"]) == (1, 3, 4)
    assert (summary["cache_hits"], summary["hit_rate"]) == (0, 0.75)


def test_failed_leader_hands_its_failure_to_every_follower(gate):
    gate.open.set()
    with MatchingServer(backend="thread", workers=2, default_profile="tiny") as server:
        server.start_in_background()
        job = {"graph": "roadNet-PA", "algorithm": "g-hkdw", "kwargs": {"max_phases": 1}}
        rows, summary = _batch(server.port, {"jobs": [job] * 3})
    assert gate.calls == ["g-hkdw"]
    assert [row["status"] for row in rows] == ["failed"] * 3
    assert len({row["error"] for row in rows}) == 1
    assert "exceeded 1 phases" in rows[0]["error"]
    assert (summary["failed"], summary["executed"], summary["deduplicated"]) == (3, 1, 2)


def test_crashed_leader_hands_its_fault_to_every_follower(gate):
    gate.open.set()
    schedule = FaultSchedule(seed=3, crash_rate=1.0)
    with MatchingServer(backend="thread", workers=2, default_profile="tiny",
                        fault_schedule=schedule) as server:
        server.start_in_background()
        rows, summary = _batch(server.port, {"jobs": [{"graph": GRAPH, "algorithm": "hk"}] * 3})
        doc = _json(server.port, "GET", "/metrics")[1]
    assert gate.calls == ["hk"]
    assert [(row["status"], row["injected_fault"]) for row in rows] == [("failed", "crash")] * 3
    assert (summary["executed"], summary["deduplicated"]) == (1, 2)
    assert doc["faults"]["scheduled"]["crash"] == 1
    assert doc["faults"]["leaked"] == 0


def test_unseeded_karp_sipser_runs_every_copy(gate):
    with MatchingServer(backend="thread", workers=3, default_profile="tiny") as server:
        server.start_in_background()
        job = {"graph": GRAPH, "algorithm": "karp-sipser"}
        with ThreadPoolExecutor(3) as pool:
            matches = [_match_later(pool, server, job) for _ in range(3)]
            _wait_for(lambda: len(gate.calls) == 3)  # all three in flight at once
            gate.open.set()
            rows = [future.result(30)[1] for future in matches]
        batch_rows, summary = _batch(server.port, {"jobs": [job] * 3})
    assert gate.calls == ["karp-sipser"] * 6
    assert {row["worker"] for row in rows + batch_rows} == {"thread"}
    assert (summary["executed"], summary["deduplicated"]) == (3, 0)


def test_warm_batch_entries_above_the_tenant_quota_are_all_served():
    # A cache hit releases its quota slot before the next entry is admitted.
    with MatchingServer(
        backend="thread", workers=2, default_profile="tiny",
        policy=QuotaPolicy(max_inflight_per_tenant=2, max_queue_depth=2),
    ) as server:
        server.start_in_background()
        job = {"graph": GRAPH, "algorithm": "hk"}
        assert _json(server.port, "POST", "/v1/match", job)[1]["status"] == "ok"
        rows, summary = _batch(server.port, {"tenant": "t", "jobs": [job] * 3})
        doc = _json(server.port, "GET", "/metrics")[1]
    assert [(row["status"], row["worker"]) for row in rows] == [("ok", "cache")] * 3
    assert (summary["cache_hits"], summary["rejected"]) == (3, 0)
    assert doc["queue"]["peak_depth"] == 1


# ------------------------------------------------------- admission invariants
def test_admission_invariants_under_seeded_campaign():
    """Random admit/release storms never violate the quota invariants."""
    rng = random.Random(20130421)
    policy = QuotaPolicy(max_inflight_per_tenant=3, max_queue_depth=7)
    controller = AdmissionController(policy)
    tenants = [f"tenant-{i}" for i in range(4)]
    live = []
    admitted = rejected = 0
    for _step in range(2000):
        tenant = rng.choice(tenants)
        if live and rng.random() < 0.45:
            ticket = live.pop(rng.randrange(len(live)))
            assert ticket.release() is True
            assert ticket.release() is False  # idempotent
        else:
            before = controller.snapshot()
            try:
                live.append(controller.try_admit(tenant))
                admitted += 1
            except AdmissionError as exc:
                rejected += 1
                after = controller.snapshot()
                # Rejection consumed nothing.
                assert after["depth"] == before["depth"]
                assert controller.tenant_inflight(tenant) <= policy.max_inflight_per_tenant
                assert exc.reason in ("tenant-quota", "queue-depth")
        # The invariants, checked at every step:
        snapshot = controller.snapshot()
        assert snapshot["depth"] == len(live) <= policy.max_queue_depth
        for name in tenants:
            assert controller.tenant_inflight(name) <= policy.max_inflight_per_tenant
    for ticket in live:
        ticket.release()
    snapshot = controller.snapshot()
    assert snapshot["depth"] == 0
    assert snapshot["admitted"] == admitted
    assert snapshot["rejected"] == rejected
    assert admitted > 0 and rejected > 0  # the campaign exercised both paths


def test_admission_invariants_hold_from_threads():
    policy = QuotaPolicy(max_inflight_per_tenant=4, max_queue_depth=10)
    controller = AdmissionController(policy)
    violations = []

    def storm(worker_seed):
        rng = random.Random(worker_seed)
        for _ in range(300):
            try:
                ticket = controller.try_admit(f"tenant-{rng.randrange(3)}")
            except AdmissionError:
                continue
            depth = controller.snapshot()["depth"]
            if depth > policy.max_queue_depth:
                violations.append(("depth", depth))
            if rng.random() < 0.5:
                time.sleep(0)
            ticket.release()

    threads = [threading.Thread(target=storm, args=(seed,)) for seed in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not violations
    assert controller.snapshot()["depth"] == 0


def test_every_admitted_request_terminates_exactly_once():
    """End-to-end with faults: each 200 row lands in one terminal status and
    the server quiesces back to depth 0 (every quota slot released once)."""
    schedule = FaultSchedule(seed=9, crash_rate=0.2, stall_rate=0.2,
                             stall_seconds=0.05, stall_margin=0.05)
    with MatchingServer(backend="thread", workers=2, default_profile="tiny",
                        default_deadline=2.0, fault_schedule=schedule,
                        grace=0.3) as server:
        server.start_in_background()
        statuses = []
        for index in range(16):
            status, row = _json(server.port, "POST", "/v1/match",
                                {"graph": GRAPH, "algorithm": "pr", "seed": index})
            assert status == 200
            assert row["status"] in TERMINAL_STATUSES
            assert not classify_leak(row["status"], row.get("injected_fault"))
            statuses.append(row["status"])
        assert "failed" in statuses  # faults actually fired
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            doc = _json(server.port, "GET", "/metrics")[1]
            if doc["admission"]["depth"] == 0 and doc["engine"]["inflight"] == 0:
                break
            time.sleep(0.05)
        assert doc["admission"]["depth"] == 0
        assert doc["engine"]["inflight"] == 0
        assert doc["faults"]["leaked"] == 0


# ------------------------------------------------------------------ lifecycle
@pytest.fixture()
def small_graph():
    return uniform_random_bipartite(60, 60, avg_degree=3.0, seed=5)


def test_engine_submit_after_shutdown_is_clear(small_graph):
    engine = Engine(backend="thread", max_workers=1)
    engine.shutdown()
    engine.shutdown()  # idempotent
    with pytest.raises(RuntimeError, match="engine is shut down"):
        engine.submit(MatchingJob(graph=small_graph, algorithm="pr"))


def test_backend_shutdown_race_is_wrapped(small_graph):
    """A backend pool torn down underneath the engine must not leak
    concurrent.futures internals ('cannot schedule new futures...')."""
    backend = ThreadBackend(max_workers=1)
    engine = Engine(backend=backend, own_backend=True)
    engine.submit(MatchingJob(graph=small_graph, algorithm="pr")).wait()
    backend.shutdown()  # out from under the engine, as a shared backend might
    with pytest.raises(RuntimeError, match="backend is shut down"):
        engine.submit(MatchingJob(graph=small_graph, algorithm="pr"))
    assert engine.inflight == 0  # the failed submission released its slot


def test_shutdown_with_a_keep_alive_connection_logs_no_error(caplog, monkeypatch):
    """``shutdown()`` cancels the task of a connection whose close is still
    pending in ``writer.wait_closed()``; that must not reach asyncio's error
    log.  The close is held pending here (as a peer that stops reading
    holds it) so the cancellation always lands inside it."""
    closing = threading.Event()

    async def pending_close(writer):
        closing.set()
        await asyncio.get_running_loop().create_future()

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", pending_close)
    instance = MatchingServer(backend="inline", default_profile="tiny")
    instance.start_in_background()
    conn = http.client.HTTPConnection("127.0.0.1", instance.port, timeout=15.0)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Connection", "keep-alive") == "keep-alive"
        response.read()
        conn.close()
        assert closing.wait(10.0)
        instance.shutdown()
    errors = [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]
    assert errors == []


def test_service_double_close_and_submit_after_close(small_graph):
    service = MatchingService(backend="inline")
    assert service.submit(MatchingJob(graph=small_graph, algorithm="pr")).ok
    service.close()
    service.close()  # idempotent, no pool internals
    with pytest.raises(RuntimeError, match="service is closed"):
        service.submit(MatchingJob(graph=small_graph, algorithm="pr"))


def test_cancel_finished_job_is_noop_and_releases_quota(small_graph):
    controller = AdmissionController(QuotaPolicy(max_inflight_per_tenant=1))
    ticket = controller.try_admit("tenant")
    with Engine(backend="inline") as engine:
        handle = engine.submit(MatchingJob(graph=small_graph, algorithm="pr"))
        handle._add_done_callback(lambda _h: ticket.release())
        assert handle.done()
        assert handle.cancel() is False  # finished: cancel is a no-op
        assert handle.status.value == "ok"
    assert ticket.released
    assert controller.tenant_inflight("tenant") == 0
    controller.try_admit("tenant")  # the slot is genuinely free again


def test_engine_max_inflight_saturation(small_graph):
    class ParkedBackend:
        """Holds every handle un-run until told to finish it."""

        name = "parked"

        def __init__(self):
            self.handles = []

        def submit(self, handle):
            self.handles.append(handle)

        def shutdown(self, wait=True):
            pass

    backend = ParkedBackend()
    engine = Engine(backend=backend, own_backend=True, max_inflight=2)
    job = MatchingJob(graph=small_graph, algorithm="pr")
    first, second = engine.submit(job), engine.submit(job)
    assert engine.inflight == 2
    with pytest.raises(EngineSaturatedError):
        engine.submit(job)
    first.cancel()  # a terminal handle frees its slot...
    assert engine.inflight == 1
    third = engine.submit(job)  # ...and submission works again
    assert engine.inflight == 2
    for handle in (second, third):
        handle.cancel()
    engine.shutdown()
