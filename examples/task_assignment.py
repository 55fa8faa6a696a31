"""Task-to-worker assignment (the scheduling motivation of the paper).

Bipartite matching answers the basic feasibility question of scheduling: can
every task be assigned to a qualified worker, one task per worker?  This
example builds a skill-constrained assignment instance, then submits the
GPU, multicore and sequential solvers as jobs to the execution engine
(:mod:`repro.engine`) — streaming results back as each finishes via
``as_completed`` — and reports which tasks remain unassignable (and why —
the Hall violator witnessed by the distance labels of the final matching).

Run with::

    python examples/task_assignment.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import Engine, JobStatus, MatchingJob
from repro.graph import from_edges


def build_assignment_instance(n_workers: int = 1200, n_tasks: int = 1400, seed: int = 3):
    """Workers have 1-3 of 12 skills; a task needs one skill and accepts any worker having it."""
    rng = np.random.default_rng(seed)
    n_skills = 12
    worker_skills = [
        rng.choice(n_skills, size=rng.integers(1, 4), replace=False) for _ in range(n_workers)
    ]
    by_skill: dict[int, list[int]] = {s: [] for s in range(n_skills)}
    for worker, skills in enumerate(worker_skills):
        for s in skills:
            by_skill[int(s)].append(worker)
    # Skill demand is skewed: a few skills are requested far more often than others.
    demand = rng.zipf(1.6, size=n_tasks) % n_skills
    edges = []
    for task, skill in enumerate(demand):
        for worker in by_skill[int(skill)]:
            edges.append((worker, task))
    return from_edges(edges, n_rows=n_workers, n_cols=n_tasks, name="assignment"), demand


def main() -> None:
    graph, demand = build_assignment_instance()
    print(f"{graph.n_rows} workers, {graph.n_cols} tasks, {graph.n_edges} qualification edges")

    results = {}
    with Engine(backend="thread", max_workers=3) as engine:
        handles = engine.map(
            [MatchingJob(graph=graph, algorithm=name, job_id=name)
             for name in ("g-pr", "p-dbfs", "pr")]
        )
        # Stream outcomes in completion order; a failing solver would be
        # reported here without aborting its siblings.
        for handle in engine.as_completed(handles):
            name = handle.job.job_id
            if handle.status is not JobStatus.OK:
                print(f"{name:>7}: {handle.status.value} ({handle.failure})")
                continue
            result = handle.result()
            results[name] = result
            print(f"{name:>7}: assigned {result.cardinality} tasks, "
                  f"modelled time {result.modeled_time * 1e3:.3f} ms "
                  f"(ran on {handle.worker}, {handle.seconds * 1e3:.1f} ms wall)")

    if not results:
        raise SystemExit("no solver completed successfully")
    cardinalities = {r.cardinality for r in results.values()}
    assert len(cardinalities) == 1, "all algorithms must agree on the assignment size"

    # Prefer G-PR's matching for the analysis, but any survivor will do.
    best = results.get("g-pr") or next(iter(results.values()))
    unassigned = [t for t in range(graph.n_cols) if best.matching.col_match[t] < 0]
    print(f"unassigned tasks: {len(unassigned)}")
    if unassigned:
        # Explain the bottleneck: the most over-demanded skills among unassigned tasks.
        skills, counts = np.unique(demand[unassigned], return_counts=True)
        worst = skills[np.argsort(-counts)][:3]
        print(f"bottleneck skills (most unassigned demand): {worst.tolist()}")


if __name__ == "__main__":
    main()
