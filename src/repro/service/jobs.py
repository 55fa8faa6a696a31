"""Job and result containers for the batched matching service.

:class:`MatchingJob` lives in :mod:`repro.engine.job` (the engine is the
base execution layer) and is re-exported here for backwards compatibility.
This module keeps the service-level containers: :class:`JobResult` — one
job's outcome with provenance and per-job status — and :class:`BatchReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.handles import JobFailure
from repro.engine.job import MatchingJob
from repro.matching import MatchingResult

__all__ = ["BatchReport", "JobResult", "MatchingJob"]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job, with provenance.

    ``status`` is ``"ok"`` for a computed (or cached) result, else the
    terminal :class:`~repro.engine.handles.JobStatus` value (``"failed"`` /
    ``"cancelled"`` / ``"timeout"``) with the captured ``error``; failed jobs
    carry ``result=None`` and never abort their batch.  ``cached`` tells
    whether the result was served without recomputation; ``worker`` records
    where the computation ran (``"inline"``, ``"thread"``, ``"process"``),
    or ``"cache"`` for a cache hit, or ``"dedup"`` for a job that shared the
    execution of an identical job (see :meth:`MatchingService.dispatch`).
    """

    job: MatchingJob
    result: MatchingResult | None
    cached: bool
    worker: str
    seconds: float = 0.0
    status: str = "ok"
    error: JobFailure | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cardinality(self) -> int:
        if self.result is None:
            raise ValueError(f"job {self.job.job_id!r} has no result (status={self.status!r})")
        return self.result.cardinality


@dataclass
class BatchReport:
    """All results of one :meth:`MatchingService.submit_batch` call.

    ``results`` preserves the submission order.  ``executed`` counts actual
    algorithm runs (including failed attempts); ``cache_hits`` the jobs
    served from the cache; ``deduplicated`` the jobs that shared the
    execution of an identical job; ``failed`` the jobs whose status is not
    ``"ok"``.  ``executed + cache_hits + deduplicated == n_jobs``.
    """

    results: list[JobResult]
    executed: int
    cache_hits: int
    deduplicated: int
    wall_seconds: float
    failed: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.results)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served without recomputation (cache + dedup)."""
        if not self.results:
            return 0.0
        return (self.cache_hits + self.deduplicated) / len(self.results)

    def failures(self) -> list[JobResult]:
        """The non-``ok`` results, in submission order."""
        return [r for r in self.results if not r.ok]

    def cardinalities(self) -> list[int | None]:
        """Matching cardinalities in submission order (``None`` for failed jobs)."""
        return [r.result.cardinality if r.result is not None else None for r in self.results]
