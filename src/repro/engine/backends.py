"""Pluggable execution backends: the protocol plus the in-process pair.

An :class:`ExecutionBackend` receives :class:`~repro.engine.handles.JobHandle`
objects and fulfils them; it never raises for a failing job — runner errors
are captured on the handle, which is what makes batches failure-isolated.
This module holds the protocol, the shared :func:`run_handle` driver and the
in-process backends (:class:`InlineBackend`, :class:`ThreadBackend`); the
process-pool backend lives in :mod:`repro.engine.process`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Protocol, runtime_checkable

from repro.engine import execution
from repro.engine.handles import JobFailure, JobHandle, JobStatus

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "PooledBackend",
    "ThreadBackend",
    "run_handle",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the :class:`~repro.engine.Engine` requires of a backend."""

    #: Short label used in provenance fields and CLI summaries.
    name: str

    def submit(self, handle: JobHandle) -> None:
        """Schedule ``handle``; must return promptly and never raise for job errors."""
        ...  # pragma: no cover - protocol stub

    def shutdown(self, wait: bool = True) -> None:
        """Release pools and workers; the backend is unusable afterwards."""
        ...  # pragma: no cover - protocol stub


def run_handle(handle: JobHandle, worker: str) -> None:
    """Execute one handle in the current thread, capturing any runner failure.

    The execution call goes through the :mod:`repro.engine.execution` module
    attribute so test monkeypatching reaches every in-process backend.
    """
    if not handle._mark_running(worker):
        return
    started = time.perf_counter()
    try:
        result = execution.execute_job(handle.job, handle.plan, handle.initial_matching)
    except Exception as exc:
        handle._finish(
            JobStatus.FAILED,
            failure=JobFailure.from_exception(exc),
            seconds=time.perf_counter() - started,
            worker=worker,
        )
    else:
        handle._finish(
            JobStatus.OK,
            result=result,
            seconds=time.perf_counter() - started,
            worker=worker,
        )


class InlineBackend:
    """Synchronous execution in the submitting thread (the default backend).

    ``submit`` blocks until the job finishes, so every handle returned by an
    inline engine is already terminal — zero concurrency, zero overhead, and
    still failure-isolated and deadline-aware.
    """

    name = "inline"

    def submit(self, handle: JobHandle) -> None:
        run_handle(handle, self.name)

    def shutdown(self, wait: bool = True) -> None:
        pass


class PooledBackend:
    """Shared lazy-pool lifecycle of the executor-backed backends.

    Subclasses implement :meth:`_make_pool`; the pool is created on first
    submit, guarded by one lock, and torn down exactly once by
    :meth:`shutdown` (idempotent — further submits raise ``RuntimeError``).
    """

    def __init__(self) -> None:
        self._pool = None
        self._lock = threading.Lock()
        self._closed = False

    def _make_pool(self):
        raise NotImplementedError  # pragma: no cover - subclass responsibility

    def _ensure_pool(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is shut down")
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def _pool_submit(self, fn, *args):
        """Submit ``fn(*args)`` to the pool, keeping the backend's own error contract.

        The executor can be shut down between :meth:`_ensure_pool` and its
        ``submit`` (a racing :meth:`shutdown` from another thread); the
        executor's own ``RuntimeError`` ("cannot schedule new futures...") is
        an internal detail, so it is re-raised as the same clear error a
        checked-first submit would have produced.
        """
        pool = self._ensure_pool()
        try:
            return pool.submit(fn, *args)
        except RuntimeError as exc:
            raise RuntimeError("backend is shut down") from exc

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


class ThreadBackend(PooledBackend):
    """A persistent :class:`~concurrent.futures.ThreadPoolExecutor` backend.

    Suited to mixed workloads on moderate graphs: NumPy releases the GIL in
    the vectorised kernels, and jobs share the caller's memory so nothing is
    pickled.  The pool is created lazily on first submit.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        super().__init__()
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-engine"
        )

    def submit(self, handle: JobHandle) -> None:
        future = self._pool_submit(run_handle, handle, self.name)
        handle._cancel_hook = future.cancel
