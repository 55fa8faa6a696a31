"""Tests for the execution engine (repro.engine): backends, futures, failures.

Backend parity reuses the invariant suite's generator families: the same job
list must yield bit-identical matchings on every backend.  The failure-path
tests use a job that resolves cleanly but raises at run time (G-HKDW with a
phase budget of one), so the whole submit-validation tier is unaffected.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.engine.execution as execution_mod
from repro.bench.harness import reference_device
from repro.core.api import resolve_algorithm
from repro.engine import (
    Engine,
    InlineBackend,
    JobCancelledError,
    JobFailedError,
    JobStatus,
    JobTimeoutError,
    MatchingJob,
    ProcessPoolBackend,
    ThreadBackend,
    as_completed,
    create_backend,
)
from repro.generators import (
    chung_lu_bipartite,
    rmat_bipartite,
    uniform_random_bipartite,
)

BACKEND_FACTORIES = {
    "inline": lambda: InlineBackend(),
    "thread": lambda: ThreadBackend(max_workers=2),
    "process": lambda: ProcessPoolBackend(max_workers=2),
}

# One instance per generator family, as in the invariant suite.
_FAMILY_GRAPHS = (
    lambda: uniform_random_bipartite(140, 150, avg_degree=4.0, seed=41),
    lambda: chung_lu_bipartite(120, 120, avg_degree=5.0, seed=42),
    lambda: rmat_bipartite(6, edge_factor=5.0, seed=43),
)


@pytest.fixture(scope="module")
def family_graphs():
    return [build() for build in _FAMILY_GRAPHS]


@pytest.fixture(scope="module")
def parity_jobs(family_graphs):
    return [
        MatchingJob(graph=g, algorithm=name, job_id=f"{i}/{name}")
        for i, g in enumerate(family_graphs)
        for name in ("g-pr", "p-dbfs", "pr", "hk")
    ]


def _boom_job(graph, job_id="boom"):
    """Resolves fine; raises RuntimeError at run time on every backend."""
    return MatchingJob(graph=graph, algorithm="g-hkdw", kwargs={"max_phases": 1}, job_id=job_id)


# ------------------------------------------------------------- backend parity
@pytest.fixture(scope="module")
def inline_reference(parity_jobs):
    with Engine(backend="inline") as engine:
        return [engine.run(job) for job in parity_jobs]


@pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
def test_backend_parity(backend, parity_jobs, inline_reference):
    with Engine(backend=BACKEND_FACTORIES[backend](), own_backend=True) as engine:
        handles = engine.map(parity_jobs)
        results = [handle.result() for handle in handles]
    for result, reference in zip(results, inline_reference, strict=True):
        assert result.cardinality == reference.cardinality
        assert np.array_equal(result.matching.row_match, reference.matching.row_match)
        assert np.array_equal(result.matching.col_match, reference.matching.col_match)


# ---------------------------------------------------------- failure isolation
@pytest.mark.parametrize("backend", sorted(BACKEND_FACTORIES))
def test_failing_job_leaves_siblings_completed(backend, family_graphs):
    g = family_graphs[0]
    jobs = [
        MatchingJob(graph=g, algorithm="pr", job_id="before"),
        _boom_job(g),
        MatchingJob(graph=g, algorithm="hk", job_id="after"),
    ]
    with Engine(backend=BACKEND_FACTORIES[backend](), own_backend=True) as engine:
        handles = engine.map(jobs)
        outcomes = {h.job.job_id: h for h in engine.as_completed(handles, timeout=120)}
    boom = outcomes["boom"]
    assert boom.status is JobStatus.FAILED
    assert boom.failure is not None and boom.failure.exc_type == "RuntimeError"
    assert "exceeded 1 phases" in boom.failure.message
    with pytest.raises(JobFailedError, match="exceeded 1 phases"):
        boom.result()
    assert outcomes["before"].status is JobStatus.OK
    assert outcomes["after"].status is JobStatus.OK
    assert outcomes["before"].result().cardinality == outcomes["after"].result().cardinality


def test_invalid_jobs_raise_at_submit(family_graphs):
    g = family_graphs[0]
    with Engine() as engine:
        with pytest.raises(ValueError, match="unknown algorithm"):
            engine.submit(MatchingJob(graph=g, algorithm="quantum"))
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.submit(MatchingJob(graph=g, algorithm="pr", kwargs={"bogus": 1}))
        with pytest.raises(TypeError, match="warm-start"):
            engine.submit(MatchingJob(graph=g, algorithm="cheap", initial="karp-sipser"))


def test_map_validates_every_job_before_executing_any(family_graphs, monkeypatch):
    # Regression: map() used to submit one-by-one, so jobs ahead of an
    # invalid one were already executing when the error raised; it now
    # validates the whole list before the first submission.
    executed = []
    original = execution_mod.execute_job

    def counting(job, plan=None, initial_matching=None):
        executed.append(job.job_id)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", counting)
    g = family_graphs[0]
    with Engine() as engine:
        with pytest.raises(ValueError, match="unknown algorithm"):
            engine.map([
                MatchingJob(graph=g, algorithm="hk", job_id="ok"),
                MatchingJob(graph=g, algorithm="quantum", job_id="bad"),
            ])
    assert executed == []


# --------------------------------------------------------------- cancellation
def test_cancel_pending_job(family_graphs, monkeypatch):
    g = family_graphs[0]
    release = threading.Event()
    original = execution_mod.execute_job

    def gated(job, plan=None, initial_matching=None):
        if job.job_id == "slow":
            assert release.wait(30)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", gated)
    engine = Engine(backend="thread", max_workers=1)
    try:
        slow = engine.submit(MatchingJob(graph=g, algorithm="hk", job_id="slow"))
        queued = engine.submit(MatchingJob(graph=g, algorithm="pr", job_id="queued"))
        assert queued.cancel()  # never started: the single worker is busy
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(JobCancelledError):
            queued.result()
        assert queued.cancel()  # idempotent
        release.set()
        assert slow.result(timeout=60).cardinality > 0
        assert not slow.cancel()  # already finished
    finally:
        release.set()
        engine.shutdown()


# ------------------------------------------------------------------ deadlines
def test_deadline_expired_before_start(family_graphs, monkeypatch):
    calls = []
    original = execution_mod.execute_job

    def counted(job, plan=None, initial_matching=None):
        calls.append(job)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", counted)
    with Engine(backend="inline") as engine:
        handle = engine.submit(
            MatchingJob(graph=family_graphs[0], algorithm="hk"), timeout=-1.0
        )
    assert handle.status is JobStatus.TIMEOUT
    assert calls == []  # expired jobs are never executed
    with pytest.raises(JobTimeoutError):
        handle.result()


def test_deadline_expired_before_start_process_backend(family_graphs):
    with Engine(backend="process", max_workers=1) as engine:
        handle = engine.submit(
            MatchingJob(graph=family_graphs[0], algorithm="hk"), timeout=-1.0
        )
        assert handle.wait(60)
    assert handle.status is JobStatus.TIMEOUT
    assert "before the job started" in handle.failure.message


def test_result_arriving_after_deadline_is_marked_timeout(family_graphs, monkeypatch):
    g = family_graphs[0]
    original = execution_mod.execute_job
    entered = threading.Event()
    release = threading.Event()

    def slow(job, plan=None, initial_matching=None):
        entered.set()
        assert release.wait(30)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", slow)
    engine = Engine(backend="thread", max_workers=1, default_timeout=0.05)
    try:
        handle = engine.submit(MatchingJob(graph=g, algorithm="hk"))
        assert entered.wait(30)  # the job did start (before its deadline)
        handle.wait(0.2)  # let the deadline pass while the job is running
        release.set()
        assert handle.wait(60)
        assert handle.status is JobStatus.TIMEOUT  # late result discarded
        assert "deadline exceeded" in handle.failure.message
    finally:
        release.set()
        engine.shutdown()


# ------------------------------------------------------------------ streaming
def test_as_completed_yields_in_completion_order(family_graphs, monkeypatch):
    g = family_graphs[0]
    original = execution_mod.execute_job
    release_slow = threading.Event()

    def gated(job, plan=None, initial_matching=None):
        if job.job_id == "slow":
            assert release_slow.wait(30)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", gated)
    engine = Engine(backend="thread", max_workers=2)
    try:
        slow = engine.submit(MatchingJob(graph=g, algorithm="hk", job_id="slow"))
        fast = engine.submit(MatchingJob(graph=g, algorithm="pr", job_id="fast"))
        stream = engine.as_completed([slow, fast], timeout=60)
        first = next(stream)
        assert first is fast  # completion order, not submission order
        release_slow.set()
        assert next(stream) is slow
    finally:
        release_slow.set()
        engine.shutdown()


def test_as_completed_timeout(family_graphs, monkeypatch):
    g = family_graphs[0]
    release = threading.Event()
    original = execution_mod.execute_job

    def gated(job, plan=None, initial_matching=None):
        assert release.wait(30)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", gated)
    engine = Engine(backend="thread", max_workers=1)
    try:
        handle = engine.submit(MatchingJob(graph=g, algorithm="hk"))
        with pytest.raises(TimeoutError, match="still pending"):
            list(as_completed([handle], timeout=0.05))
    finally:
        release.set()
        engine.shutdown()


# ------------------------------------------------------------------ API shape
def test_engine_map_preserves_submission_order(family_graphs):
    jobs = [
        MatchingJob(graph=family_graphs[0], algorithm=a, job_id=a) for a in ("pr", "hk", "pfp")
    ]
    with Engine(backend="thread", max_workers=2) as engine:
        handles = engine.map(jobs)
        assert [h.job.job_id for h in handles] == ["pr", "hk", "pfp"]
        assert len({h.result().cardinality for h in handles}) == 1


def test_engine_run_convenience(family_graphs):
    with Engine() as engine:
        result = engine.run(MatchingJob(graph=family_graphs[0], algorithm="pr"))
    assert result.cardinality > 0


def test_engine_rejects_submissions_after_shutdown(family_graphs):
    engine = Engine()
    engine.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        engine.submit(MatchingJob(graph=family_graphs[0], algorithm="pr"))


def test_create_backend_validation():
    # Removed backend names ("device", "compiled") fail like any unknown name.
    for name in ("quantum", "device", "compiled"):
        with pytest.raises(ValueError, match="unknown backend.*available: inline, thread, process$"):
            create_backend(name)
    with pytest.raises(TypeError, match="ExecutionBackend"):
        create_backend(42)
    backend = InlineBackend()
    assert create_backend(backend) is backend
    with pytest.raises(ValueError):
        ThreadBackend(max_workers=0)
    with pytest.raises(ValueError):
        ProcessPoolBackend(max_workers=-1)


def test_abandoned_engine_releases_its_pool(family_graphs):
    import gc

    engine = Engine(backend="thread", max_workers=1)
    engine.run(MatchingJob(graph=family_graphs[0], algorithm="pr"))
    backend = engine.backend
    assert not backend._closed
    del engine
    gc.collect()
    assert backend._closed  # the finalizer shut the abandoned pool down


@pytest.mark.parametrize("algorithm", ["g-pr", "g-hkdw"])
def test_plan_device_factory_gives_each_run_a_fresh_ledger(algorithm, family_graphs):
    # One plan reused across runs, as the benchmark harness reuses its plans:
    # every run builds its own device, so modelled time is per-run, not
    # cumulative over the plan's lifetime.
    g = family_graphs[0]
    plan = resolve_algorithm(algorithm, device_factory=reference_device)
    first = plan.run(g)
    second = plan.run(g)
    assert first.modeled_time > 0
    assert second.modeled_time == first.modeled_time
    assert second.counters == first.counters


def test_suite_runner_backend_parity():
    from repro.bench.harness import SuiteRunner

    instances = ("amazon0505", "roadNet-PA")
    inline = SuiteRunner(profile="tiny", instances=instances).run()
    threaded_runner = SuiteRunner(profile="tiny", instances=instances, backend="thread")
    try:
        threaded = threaded_runner.run()
    finally:
        threaded_runner.close()
    for a, b in zip(inline, threaded, strict=True):
        for name in a.runs:
            assert a.runs[name].cardinality == b.runs[name].cardinality
            assert a.runs[name].modeled_seconds == pytest.approx(b.runs[name].modeled_seconds)


def test_jobs_submitted_is_exact_under_concurrent_submission(family_graphs):
    """Regression (RPR003): ``jobs_submitted`` is incremented under the
    in-flight lock, so racing submitters cannot lose counts."""
    g = family_graphs[0]
    per_thread, n_threads = 25, 8
    with Engine(backend=ThreadBackend(max_workers=4), own_backend=True) as engine:
        start = threading.Barrier(n_threads)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                engine.submit(MatchingJob(graph=g, algorithm="cheap"))

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert engine.jobs_submitted == per_thread * n_threads
