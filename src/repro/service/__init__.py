"""Batched matching service.

A thin caching facade over the execution engine (:mod:`repro.engine`):

* :class:`~repro.engine.job.MatchingJob` — one unit of work (graph +
  algorithm + kwargs + optional warm-start), hashable and picklable
  (re-exported here);
* :class:`~repro.service.service.MatchingService` — the one step where a
  job meets the result cache and an :class:`~repro.engine.Engine`:
  results are memoized on the graph's content hash, identical jobs of one
  call share one execution, and per-job failures are isolated
  (``status="failed"`` instead of a batch-wide exception);
* :class:`~repro.service.cache.ResultCache` /
  :class:`~repro.service.cache.DiskCache` — in-memory LRU and persistent
  result stores.

Quickstart
----------
>>> from repro.generators import uniform_random_bipartite
>>> from repro.service import MatchingJob, MatchingService
>>> g = uniform_random_bipartite(200, 200, avg_degree=4, seed=1)
>>> service = MatchingService()
>>> report = service.submit_batch([MatchingJob(graph=g, algorithm=a)
...                                for a in ("g-pr", "pr", "hk")])
>>> len(set(report.cardinalities())) == 1
True
"""

from repro.service.cache import DiskCache, ResultCache
from repro.service.jobs import BatchReport, JobResult, MatchingJob
from repro.service.service import MatchingService

__all__ = [
    "BatchReport",
    "DiskCache",
    "JobResult",
    "MatchingJob",
    "MatchingService",
    "ResultCache",
]
