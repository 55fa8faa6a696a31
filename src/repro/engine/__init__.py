"""Execution engine: one job model, many interchangeable backends.

The paper maps the same matching computation onto heterogeneous execution
substrates (sequential CPU, multicore P-DBFS, GPU G-PR); this package gives
the library's execution surface the same shape:

* :class:`~repro.engine.job.MatchingJob` — one unit of work (graph +
  algorithm + kwargs + optional warm-start), hashable and picklable;
* :class:`~repro.engine.engine.Engine` — ``submit() -> JobHandle``,
  ``map()`` and an ``as_completed()`` streaming iterator, with per-job
  deadlines and cancellation;
* :class:`~repro.engine.handles.JobHandle` — a future with typed status
  (``ok`` / ``failed`` / ``cancelled`` / ``timeout``) and captured errors,
  so one raising job never aborts its batch;
* three :class:`~repro.engine.backends.ExecutionBackend` implementations
  that differ only in how they schedule work:
  :class:`~repro.engine.backends.InlineBackend` (synchronous),
  :class:`~repro.engine.backends.ThreadBackend` (persistent thread pool)
  and :class:`~repro.engine.process.ProcessPoolBackend` (persistent process
  pool shipping resolved plans, true per-job timings).

All backends produce bit-identical :class:`~repro.matching.MatchingResult`
objects for the same job list.  Every run of a GPU plan charges a fresh
:class:`~repro.gpusim.VirtualGPU` cost ledger, and the compiled kernel tier
is picked per function by :mod:`repro.compiled.dispatch`, so neither needs
a backend of its own.  The batched :mod:`repro.service` is a thin caching
facade over this package.

Quickstart
----------
>>> from repro.engine import Engine, MatchingJob
>>> from repro.generators import uniform_random_bipartite
>>> g = uniform_random_bipartite(200, 200, avg_degree=4, seed=1)
>>> with Engine(backend="thread", max_workers=2) as engine:
...     handles = engine.map([MatchingJob(graph=g, algorithm=a) for a in ("g-pr", "pr")])
...     cards = {h.result().cardinality for h in engine.as_completed(handles)}
>>> len(cards) == 1
True
"""

from repro.engine.backends import ExecutionBackend, InlineBackend, ThreadBackend
from repro.engine.engine import (
    BACKEND_NAMES,
    Engine,
    EngineSaturatedError,
    as_completed,
    create_backend,
)
from repro.engine.execution import execute_job, resolve_job_plan
from repro.engine.faults import FaultInjectingBackend, FaultSchedule, InjectedCrashError
from repro.engine.handles import (
    JobCancelledError,
    JobError,
    JobFailedError,
    JobFailure,
    JobHandle,
    JobStatus,
    JobTimeoutError,
)
from repro.engine.job import INITIAL_CHOICES, MatchingJob
from repro.engine.process import ProcessPoolBackend

__all__ = [
    "BACKEND_NAMES",
    "Engine",
    "EngineSaturatedError",
    "ExecutionBackend",
    "FaultInjectingBackend",
    "FaultSchedule",
    "INITIAL_CHOICES",
    "InjectedCrashError",
    "InlineBackend",
    "JobCancelledError",
    "JobError",
    "JobFailedError",
    "JobFailure",
    "JobHandle",
    "JobStatus",
    "JobTimeoutError",
    "MatchingJob",
    "ProcessPoolBackend",
    "ThreadBackend",
    "as_completed",
    "create_backend",
    "execute_job",
    "resolve_job_plan",
]
