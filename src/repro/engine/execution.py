"""The engine's single execution path over the shared dispatch pipeline.

Every backend — inline, thread pool, process pool — funnels through
:func:`execute_job`, so batch, streaming and serial dispatch are
bit-identical.  Tests monkeypatch this module's ``execute_job`` attribute to
count (or sabotage) actual computations; backends therefore always call it
through the module, never through a captured reference.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.api import ExecutionPlan, resolve_algorithm
from repro.engine.job import MatchingJob
from repro.matching import Matching, MatchingResult
from repro.seq.greedy import cheap_matching, karp_sipser_matching

__all__ = ["check_warm_start", "execute_job", "resolve_job_plan", "validate_job_args"]

#: Warm-start heuristic name → matching factory.
_INITIALIZERS: dict[str, Callable] = {
    "empty": Matching.empty,
    "cheap": lambda graph: cheap_matching(graph).matching,
    "karp-sipser": lambda graph: karp_sipser_matching(graph, seed=0).matching,
}


def check_warm_start(plan: ExecutionPlan, initial: str | None) -> None:
    """Raise ``TypeError`` if ``plan``'s algorithm cannot take the named warm-start.

    The single source of this rule — shared by :func:`resolve_job_plan`, the
    engine's plan-provided submit path and the job-request parser.
    """
    if initial is not None and not plan.spec.accepts_initial:
        raise TypeError(
            f"algorithm {plan.algorithm!r} produces an initial matching; "
            f"it does not accept the {initial!r} warm-start"
        )
    if initial is not None and plan.shards is not None:
        raise TypeError(
            f"sharded execution of {plan.algorithm!r} does not accept "
            f"the {initial!r} warm-start (shards start from their own local solves)"
        )


def validate_job_args(algorithm: str, kwargs=None, initial: str | None = None) -> ExecutionPlan:
    """Graph-free validation of a job's dispatch arguments.

    Resolves ``algorithm`` + ``kwargs`` into an
    :class:`~repro.core.api.ExecutionPlan` and checks the warm-start, without
    needing a :class:`~repro.engine.job.MatchingJob` (and therefore a graph):
    :func:`repro.server.protocol.parse_request` uses this to reject a bad job
    request before building its graph.
    Raises ``ValueError`` for an unknown algorithm, ``TypeError`` for unknown
    keyword arguments or an inapplicable warm-start.
    """
    plan = resolve_algorithm(algorithm, **(kwargs or {}))
    check_warm_start(plan, initial)
    return plan


def resolve_job_plan(job: MatchingJob) -> ExecutionPlan:
    """Resolve a job into an :class:`~repro.core.api.ExecutionPlan`, validating it.

    Raises ``ValueError`` for an unknown algorithm and ``TypeError`` for
    unknown keyword arguments or an inapplicable warm-start — before anything
    executes, so a bad job can never waste a batch.
    """
    return validate_job_args(job.algorithm, job.kwargs, job.initial)


def execute_job(
    job: MatchingJob,
    plan: ExecutionPlan | None = None,
    initial_matching: Matching | None = None,
) -> MatchingResult:
    """Run one job through the shared dispatch pipeline.

    ``plan`` lets callers reuse the :class:`~repro.core.api.ExecutionPlan`
    already built during validation (the engine always passes one, and the
    process-pool backend ships it to workers so they never re-resolve).
    ``initial_matching`` overrides the job's *named* warm-start with an
    explicit matching — the benchmark harness uses this to start every
    algorithm from one common cheap matching, as in the paper's protocol.
    """
    if plan is None:
        plan = resolve_job_plan(job)
    initial = initial_matching
    if initial is None and job.initial is not None:
        initial = _INITIALIZERS[job.initial](job.graph)
    return plan.run(job.graph, initial)
