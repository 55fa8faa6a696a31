"""Batched matching service: a caching facade over the execution engine.

The service keeps the batch-level concerns — cross-batch result caching,
intra-batch deduplication, accounting — and delegates all execution to a
:class:`repro.engine.Engine`:

* every job is resolved into an :class:`~repro.core.api.ExecutionPlan`
  through the same path as :func:`~repro.core.api.max_bipartite_matching`,
  so batch and serial execution are bit-identical;
* results are memoized on :meth:`MatchingJob.cache_key` (graph content hash
  + algorithm + kwargs + warm-start), both across batches (via a
  :class:`~repro.service.cache.ResultCache` or persistent
  :class:`~repro.service.cache.DiskCache`) and within a batch (identical
  jobs are deduplicated and executed once);
* cache misses run on the engine's backend — inline, thread pool or
  persistent process pool — and a job whose runner raises is reported as
  ``status="failed"`` with its captured error while its siblings complete
  normally.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.engine import Engine, ExecutionBackend, JobStatus
from repro.engine.execution import execute_job, resolve_job_plan
from repro.service.cache import DiskCache, ResultCache
from repro.service.jobs import BatchReport, JobResult, MatchingJob

__all__ = ["MatchingService", "execute_job"]


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
        ``False`` / ``None`` — no caching and no intra-batch deduplication;
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
    ``cache_hits`` / ``deduplicated`` / ``jobs_failed`` aggregate over every
    batch served by this instance.  Services owning a pooled backend should
    be closed (:meth:`close` or ``with MatchingService(...) as service:``).
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
        self.cache_hits = 0
        self.deduplicated = 0
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
        """Execute ``jobs`` and return their results in submission order.

        The batch is served in three tiers: cross-batch cache hits,
        intra-batch duplicates (executed once), and genuine misses (executed
        on the engine's backend).

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
        """
        if self._closed:
            raise RuntimeError("service is closed; create a new MatchingService to submit jobs")
        jobs = list(jobs)
        started = time.perf_counter()
        # Fail fast on malformed jobs so a bad manifest cannot waste a batch;
        # the plans are kept and shipped with each submission so backends
        # never re-resolve.
        plans = [resolve_job_plan(job) for job in jobs]

        results: list[JobResult | None] = [None] * len(jobs)
        pending: dict[tuple, list[int]] = {}
        uncacheable_keys: set[tuple] = set()
        n_cache_hits = 0
        for index, job in enumerate(jobs):
            # Non-deterministic plans (entropy-seeded heuristics without a
            # seed) draw a fresh sample per run: memoizing or deduplicating
            # them would silently replace independent samples with one.
            cacheable = self.cache is not None and plans[index].deterministic
            key = job.cache_key() if cacheable else ("uncached", index)
            if not cacheable:
                uncacheable_keys.add(key)
            hit = self.cache.get(key) if cacheable else None
            if hit is not None:
                results[index] = JobResult(job=job, result=hit, cached=True, worker="cache")
                n_cache_hits += 1
            else:
                pending.setdefault(key, []).append(index)

        representatives = [(key, indices[0]) for key, indices in pending.items()]
        handles = [
            self.engine.submit(jobs[index], plan=plans[index])
            for _, index in representatives
        ]
        for handle in handles:
            handle.wait()

        n_deduplicated = 0
        n_failed = 0
        for (key, _), handle in zip(representatives, handles, strict=True):
            ok = handle.status is JobStatus.OK
            result = handle.result() if ok else None
            if ok and self.cache is not None and key not in uncacheable_keys:
                self.cache.put(key, result)
            for position in pending[key]:
                first = position == pending[key][0]
                if not ok:
                    n_failed += 1
                results[position] = JobResult(
                    job=jobs[position],
                    # Duplicates get their own copy so sibling results never
                    # alias each other's (mutable) matching arrays.
                    result=result if first else (result.copy() if result is not None else None),
                    cached=not first and ok,
                    worker=(handle.worker or self.engine.backend.name) if first else "dedup",
                    seconds=handle.seconds if first else 0.0,
                    status="ok" if ok else handle.status.value,
                    error=handle.failure,
                )
                if not first:
                    n_deduplicated += 1

        self.jobs_submitted += len(jobs)
        self.jobs_executed += len(representatives)
        self.cache_hits += n_cache_hits
        self.deduplicated += n_deduplicated
        self.jobs_failed += n_failed
        return BatchReport(
            results=[r for r in results if r is not None],
            executed=len(representatives),
            cache_hits=n_cache_hits,
            deduplicated=n_deduplicated,
            wall_seconds=time.perf_counter() - started,
            failed=n_failed,
        )

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
