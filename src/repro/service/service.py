"""Batched matching service: the one step where a job meets the cache and the engine.

:meth:`MatchingService.dispatch` serves every job of ``repro batch``
(through :meth:`MatchingService.submit_batch`), ``/v1/match`` and
``/v1/batch``: it follows an identical job earlier in the same call, else
reads the result cache (:class:`~repro.service.cache.ResultCache` or
:class:`~repro.service.cache.DiskCache`), else runs on the
:class:`~repro.engine.Engine` with the plan built during validation, so
batch and serial execution are bit-identical.  A job whose runner raises is
reported as ``status="failed"`` while its siblings complete.
"""

from __future__ import annotations

import functools
import time
import warnings
from collections.abc import Sequence

from repro.core.api import ExecutionPlan
from repro.engine import Engine, ExecutionBackend, JobHandle, JobStatus
from repro.engine.execution import resolve_job_plan
from repro.matching import MatchingResult
from repro.service.cache import DiskCache, ResultCache
from repro.service.jobs import BatchReport, JobResult, MatchingJob

__all__ = ["MatchingService"]


def _follow(leader: JobHandle, job: MatchingJob, plan: ExecutionPlan) -> JobHandle:
    """A handle for ``job`` that ends as ``leader`` ends, with ``worker="dedup"``;
    cancelling it leaves the leader alone, and an ok result is copied."""
    follower = JobHandle(job, plan, deadline=leader.deadline)
    follower.worker = "dedup"
    follower.injected_fault = getattr(leader, "injected_fault", None)

    def finish(done: JobHandle) -> None:
        result = done._result.copy() if done._result is not None else None
        follower._finish(done.status, result=result, failure=done.failure)

    leader._add_done_callback(finish)
    return follower


class MatchingService:
    """Executes batches of matching jobs with caching and optional parallelism.

    Parameters
    ----------
    workers:
        ``0`` / ``None`` — execute cache misses inline in this process;
        ``n > 0`` — execute them on a persistent pool of ``n`` workers
        (process pool unless ``backend`` says otherwise).
    cache:
        ``True`` (default) — a fresh in-memory :class:`ResultCache`;
        ``False`` / ``None`` — no caching and no sharing of executions;
        or a caller-supplied :class:`ResultCache` / :class:`DiskCache` to
        share across services or processes.
    backend:
        Execution backend name (``"inline"`` / ``"thread"`` / ``"process"``)
        or a ready :class:`~repro.engine.backends.ExecutionBackend`.  Default: derived
        from ``workers`` (``0`` → inline, ``n > 0`` → process pool).
    engine:
        A caller-owned :class:`~repro.engine.Engine` to execute on, mutually
        exclusive with ``backend``; the service will not shut it down.

    The cumulative counters ``jobs_submitted`` / ``jobs_executed`` /
    ``jobs_failed`` aggregate over every :meth:`submit_batch` call.  Services
    owning a pooled backend should be closed (:meth:`close` or ``with
    MatchingService(...) as service:``).
    """

    def __init__(
        self,
        workers: int | None = 0,
        cache: bool | ResultCache | DiskCache | None = True,
        max_cache_entries: int = 1024,
        backend: str | ExecutionBackend | None = None,
        engine: Engine | None = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = int(workers or 0)
        if engine is not None:
            if backend is not None:
                raise TypeError("pass either engine= or backend=, not both")
            self.engine = engine
            self._owns_engine = False
        else:
            if backend is None:
                backend = "process" if self.workers else "inline"
            self.engine = Engine(backend=backend, max_workers=self.workers or None)
            self._owns_engine = True
        if cache is True:
            self.cache: ResultCache | DiskCache | None = ResultCache(max_cache_entries)
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.jobs_submitted = 0
        self.jobs_executed = 0
        self.jobs_failed = 0
        self._closed = False

    # ----------------------------------------------------------------- public
    def submit(self, job: MatchingJob) -> JobResult:
        """Execute a single job (one-element batch).

        Parameters
        ----------
        job:
            The :class:`~repro.engine.job.MatchingJob` to execute.

        Returns
        -------
        JobResult
            The job's result with its cache/worker provenance.

        Raises
        ------
        ValueError / TypeError
            As :meth:`submit_batch` — invalid jobs fail before executing.
        """
        return self.submit_batch([job]).results[0]

    def submit_batch(self, jobs: Sequence[MatchingJob]) -> BatchReport:
        """Execute ``jobs`` through :meth:`dispatch` and wait for every result.

        Parameters
        ----------
        jobs:
            The jobs to execute.  Jobs on weighted graphs key their cache
            entries on the weights too (via
            :meth:`~repro.graph.bipartite.BipartiteGraph.content_hash`), so
            same-structure / different-weight graphs never collide.

        Returns
        -------
        BatchReport
            Per-job :class:`JobResult` objects in submission order plus the
            ``executed`` / ``cache_hits`` / ``deduplicated`` / ``failed``
            tallies and the batch wall time.

        Raises
        ------
        ValueError
            Unknown algorithm name on any job (nothing executes).
        TypeError
            Unknown keyword arguments or an inapplicable warm-start on any
            job (nothing executes).  *Runtime* failures never raise — they
            are isolated per job (``status="failed"`` with the captured
            error) while siblings complete normally.
        RuntimeError
            The service is closed, or its engine refused a submission.
        """
        if self._closed:
            raise RuntimeError("service is closed; create a new MatchingService to submit jobs")
        jobs = list(jobs)
        started = time.perf_counter()
        # Fail fast on malformed jobs so a bad manifest cannot waste a batch;
        # the plans are kept and shipped with each submission so backends
        # never re-resolve.
        plans = [resolve_job_plan(job) for job in jobs]
        leaders: dict = {}
        answers = [self.dispatch(job, plan, leaders) for job, plan in zip(jobs, plans, strict=True)]
        results = []
        for job, answer in zip(jobs, answers, strict=True):
            if isinstance(answer, MatchingResult):
                results.append(JobResult(job=job, result=answer, cached=True, worker="cache"))
                continue
            answer.wait()
            ok = answer.status is JobStatus.OK
            results.append(JobResult(
                job=job,
                result=answer.result() if ok else None,
                cached=ok and answer.worker == "dedup",
                worker=answer.worker,
                seconds=answer.seconds,
                status=answer.status.value,
                error=answer.failure,
            ))
        workers = [r.worker for r in results]
        report = BatchReport(
            results=results,
            executed=len(results) - workers.count("cache") - workers.count("dedup"),
            cache_hits=workers.count("cache"),
            deduplicated=workers.count("dedup"),
            wall_seconds=time.perf_counter() - started,
            failed=sum(not r.ok for r in results),
        )
        self.jobs_submitted += report.n_jobs
        self.jobs_executed += report.executed
        self.jobs_failed += report.failed
        return report

    def dispatch(
        self, job: MatchingJob, plan: ExecutionPlan, leaders: dict, timeout: float | None = None
    ) -> MatchingResult | JobHandle:
        """Serve ``job``: follow an identical job of the call, else the cache, else the engine.

        ``leaders`` is the call's table of submitted jobs (one ``dict`` per
        call).  It is read before the cache, so the duplicates of a job that
        an inline engine ran inside ``Engine.submit`` follow it, failure
        included.  Only a deterministic plan on a service with a cache is
        keyed, and so cached or shared.  ``timeout`` is in seconds; a
        ``RuntimeError`` from ``Engine.submit`` (saturated, shut down) propagates.
        """
        key = job.cache_key() if self.cache is not None and plan.deterministic else None
        if key is None:
            return self.engine.submit(job, plan=plan, timeout=timeout)
        leader = leaders.get((key, timeout))
        if leader is not None:
            return _follow(leader, job, plan)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        leader = self.engine.submit(job, plan=plan, timeout=timeout)
        leader._add_done_callback(functools.partial(self._store, key))
        leaders[key, timeout] = leader
        return leader

    # ---------------------------------------------------------------- helpers
    def _store(self, key: tuple, handle: JobHandle) -> None:
        """Cache an ``ok`` result: a done-callback, so it warns on a write error, never raises."""
        if handle.status is JobStatus.OK:
            try:
                self.cache.put(key, handle.result())
            except OSError as exc:  # the followers' callbacks run after this one
                warnings.warn(f"result not cached: {exc}", RuntimeWarning)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the service's engine (no-op for a caller-owned engine).

        Idempotent: closing twice (or re-exiting the context manager) is a
        no-op; submitting afterwards raises a plain ``RuntimeError`` instead
        of surfacing pool internals.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            self.engine.shutdown()

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
