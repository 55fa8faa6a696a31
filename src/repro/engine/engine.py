"""The Engine: per-job futures over a pluggable execution backend.

::

    from repro.engine import Engine, MatchingJob

    with Engine(backend="thread", max_workers=4) as engine:
        handles = engine.map(jobs)
        for handle in engine.as_completed(handles):
            if handle.status is JobStatus.OK:
                use(handle.result())
            else:
                log(handle.failure)

The engine validates each job eagerly (unknown algorithms / kwargs raise at
``submit``), then delegates execution to its backend.  Runtime failures
never propagate out of the backend — each lands on its own handle — so one
raising job cannot abort a streamed batch.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
import weakref
from collections.abc import Iterable, Iterator, Sequence

from repro.core.api import ExecutionPlan
from repro.engine.backends import ExecutionBackend, InlineBackend, ThreadBackend
from repro.engine.execution import check_warm_start, resolve_job_plan
from repro.engine.handles import JobHandle, JobStatus
from repro.engine.job import MatchingJob
from repro.engine.process import ProcessPoolBackend
from repro.matching import Matching, MatchingResult

__all__ = [
    "BACKEND_NAMES",
    "Engine",
    "EngineSaturatedError",
    "as_completed",
    "create_backend",
]

#: Registry names accepted by :func:`create_backend` / ``Engine(backend=...)``.
BACKEND_NAMES = ("inline", "thread", "process")


class EngineSaturatedError(RuntimeError):
    """``Engine.submit`` refused a job: ``max_inflight`` jobs are already in flight.

    The backpressure signal for long-lived callers (the matching server maps
    it onto a 429-style shed); batch callers without an admission layer
    should treat it as "try again once something completes".
    """


def create_backend(
    backend: str | ExecutionBackend = "inline",
    *,
    max_workers: int | None = None,
) -> ExecutionBackend:
    """Build an :class:`ExecutionBackend` from a name (or pass one through).

    ``max_workers`` sizes the thread / process pools.
    """
    if not isinstance(backend, str):
        if isinstance(backend, ExecutionBackend):
            return backend
        raise TypeError(
            f"backend must be a name or an ExecutionBackend, got {type(backend).__name__}"
        )
    key = backend.strip().lower()
    if key == "inline":
        return InlineBackend()
    if key == "thread":
        return ThreadBackend(max_workers=max_workers)
    if key == "process":
        return ProcessPoolBackend(max_workers=max_workers)
    raise ValueError(f"unknown backend {backend!r}; available: {', '.join(BACKEND_NAMES)}")


def as_completed(
    handles: Iterable[JobHandle], timeout: float | None = None
) -> Iterator[JobHandle]:
    """Yield handles as their jobs finish, regardless of submission order.

    Like :func:`concurrent.futures.as_completed`, but failure-isolated: a
    ``failed`` / ``timeout`` / ``cancelled`` handle is *yielded*, never
    raised, so a streaming consumer sees every outcome.  ``timeout`` bounds
    the total wait; expiry raises :class:`TimeoutError` with the undelivered
    count.
    """
    pending = list(handles)
    ready: _queue.SimpleQueue = _queue.SimpleQueue()
    for handle in pending:
        handle._add_done_callback(ready.put)
    deadline = None if timeout is None else time.monotonic() + timeout
    for delivered in range(len(pending)):
        wait = None if deadline is None else deadline - time.monotonic()
        if wait is not None and wait <= 0:
            raise TimeoutError(f"{len(pending) - delivered} jobs still pending after {timeout}s")
        try:
            yield ready.get(timeout=wait)
        except _queue.Empty:
            raise TimeoutError(
                f"{len(pending) - delivered} jobs still pending after {timeout}s"
            ) from None


class Engine:
    """Submits :class:`MatchingJob` objects to an execution backend.

    Parameters
    ----------
    backend:
        A backend name (``"inline"`` / ``"thread"`` / ``"process"``) or a
        ready :class:`ExecutionBackend` instance.
    max_workers:
        Forwarded to :func:`create_backend` when ``backend`` is a name.
    default_timeout:
        Deadline in seconds applied to every job submitted without an
        explicit ``timeout``; ``None`` means no deadline.
    max_inflight:
        Backpressure bound: the maximum number of submitted-but-unfinished
        jobs.  :meth:`submit` raises :class:`EngineSaturatedError` instead of
        queueing past it; ``None`` (default) means unbounded.
    own_backend:
        Whether :meth:`shutdown` (and garbage collection of an abandoned
        engine) tears the backend down.  Default: the engine owns a backend
        it built from a name; a ready-made :class:`ExecutionBackend`
        instance is assumed shared and left running.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "inline",
        *,
        max_workers: int | None = None,
        default_timeout: float | None = None,
        max_inflight: int | None = None,
        own_backend: bool | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError("max_inflight must be positive (or None for unbounded)")
        self.backend = create_backend(backend, max_workers=max_workers)
        self.default_timeout = default_timeout
        self.max_inflight = max_inflight
        self.jobs_submitted = 0
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._closed = False
        self._owns_backend = isinstance(backend, str) if own_backend is None else own_backend
        # Reclaim pooled workers even if the engine is abandoned without an
        # explicit shutdown() / context exit (backend.shutdown is idempotent).
        self._finalizer = (
            weakref.finalize(self, self.backend.shutdown, False) if self._owns_backend else None
        )

    # ---------------------------------------------------------------- submit
    def submit(
        self,
        job: MatchingJob,
        *,
        plan: ExecutionPlan | None = None,
        timeout: float | None = None,
        initial_matching: Matching | None = None,
    ) -> JobHandle:
        """Validate and schedule one job; returns its :class:`JobHandle`.

        Invalid jobs raise here, before anything executes; *runtime* errors
        are captured on the handle instead, so one raising job can never
        abort a streamed batch.

        Parameters
        ----------
        job:
            The :class:`~repro.engine.job.MatchingJob` to execute.
        plan:
            Pre-built :class:`~repro.core.api.ExecutionPlan`, short-
            circuiting resolution (the batch service and the benchmark
            harness reuse their validation plans this way); takes precedence
            over the job's ``algorithm`` / ``kwargs``.
        timeout:
            Per-job deadline in seconds (default: the engine's
            ``default_timeout``).  A job that has not started by then is
            never run, and a result arriving later is discarded and the job
            marked ``timeout``.
        initial_matching:
            Explicit warm-start matching, overriding the job's *named*
            warm-start.

        Returns
        -------
        JobHandle
            The job's future: ``wait()`` / ``result()`` / ``cancel()``,
            typed ``status``, captured ``failure``, worker and timings.

        Raises
        ------
        ValueError
            Unknown algorithm name.
        TypeError
            Unknown keyword arguments or an inapplicable warm-start.
        RuntimeError
            The engine is shut down (or its shared backend was shut down
            underneath it).
        EngineSaturatedError
            ``max_inflight`` jobs are already in flight; retry after one
            completes.
        """
        if self._closed:
            raise RuntimeError("engine is shut down; create a new Engine to submit jobs")
        if plan is None:
            plan = resolve_job_plan(job)
        elif initial_matching is None:
            check_warm_start(plan, job.initial)
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        handle = JobHandle(job, plan, deadline=deadline, initial_matching=initial_matching)
        with self._inflight_lock:
            if self.max_inflight is not None and self._inflight >= self.max_inflight:
                raise EngineSaturatedError(
                    f"{self._inflight} jobs in flight >= max_inflight={self.max_inflight}"
                )
            self._inflight += 1
            self.jobs_submitted += 1
        # Registered before the backend sees the handle: the inline backend
        # finishes the job inside submit(), and the slot must drop with it.
        handle._add_done_callback(self._release_inflight)
        try:
            self.backend.submit(handle)
        except BaseException:
            # The job never entered the backend; finalise the handle so the
            # in-flight slot is released and waiters are not left hanging.
            handle._finish(JobStatus.CANCELLED)
            raise
        return handle

    def _release_inflight(self, handle: JobHandle) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Jobs submitted to this engine that have not reached a terminal status."""
        with self._inflight_lock:
            return self._inflight

    def map(
        self, jobs: Sequence[MatchingJob], *, timeout: float | None = None
    ) -> list[JobHandle]:
        """Submit every job; handles come back in submission order.

        Parameters
        ----------
        jobs:
            The jobs to schedule, all validated before any executes.
        timeout:
            Per-job deadline in seconds applied to every submission.

        Returns
        -------
        list[JobHandle]
            One handle per job, in submission order; stream them in
            completion order with :meth:`as_completed`.

        Raises
        ------
        ValueError / TypeError / RuntimeError
            As :meth:`submit`; every job is validated before the first one
            is scheduled, so nothing executes if any job is invalid.
        """
        plans = [resolve_job_plan(job) for job in jobs]
        return [
            self.submit(job, plan=plan, timeout=timeout) for job, plan in zip(jobs, plans, strict=True)
        ]

    def run(
        self,
        job: MatchingJob,
        *,
        plan: ExecutionPlan | None = None,
        timeout: float | None = None,
        initial_matching: Matching | None = None,
    ) -> MatchingResult:
        """Submit one job and block for its result (raising on failure)."""
        return self.submit(
            job, plan=plan, timeout=timeout, initial_matching=initial_matching
        ).result()

    def as_completed(
        self, handles: Iterable[JobHandle], *, timeout: float | None = None
    ) -> Iterator[JobHandle]:
        """Stream ``handles`` back in completion order (see :func:`as_completed`)."""
        return as_completed(handles, timeout=timeout)

    # -------------------------------------------------------------- lifecycle
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions; tear the backend down if this engine owns it.

        Idempotent: further calls (and context-manager re-exits) are no-ops,
        and later :meth:`submit` calls raise a plain ``RuntimeError`` rather
        than surfacing executor internals.
        """
        if self._closed:
            return
        # Benign data race: a monotonic flag — concurrent shutdowns at worst
        # both tear down, and backend.shutdown below is itself idempotent.
        self._closed = True  # repro-lint: disable=RPR003
        if self._owns_backend:
            self._finalizer.detach()
            self.backend.shutdown(wait=wait)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Engine(backend={self.backend.name!r}, jobs_submitted={self.jobs_submitted})"
