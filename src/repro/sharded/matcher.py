"""Coarse-grained sharded matching: per-shard Engine jobs + reconciliation.

The :class:`ShardedMatcher` runs in two acts:

1. **Local solves.**  Every non-empty shard becomes an ordinary
   :class:`~repro.engine.job.MatchingJob` (the shard *is* a
   :class:`BipartiteGraph`, built from its block of the global column CSR
   when its job is submitted), executed through an
   :class:`~repro.engine.Engine` on any backend — Inline, Thread or
   ProcessPool all work because shards and resolved plans are picklable.
   At most the graph's ``max_resident`` shard jobs are in flight at once.
   Local matchings merge into a global one with a deterministic conflict
   rule: a row matched in several shards keeps its lowest-shard assignment,
   the displaced columns go back to unmatched.  The merge is
   arrival-order-independent, so thread/process completion races cannot
   change the result.

2. **Reconciliation.**  The merged matching is maximal per shard but can
   miss augmenting paths that cross shard boundaries (pivoting on the
   graph's ``boundary_rows``).  Reconciliation runs HK's own
   phase loop, :func:`~repro.seq.hopcroft_karp.hopcroft_karp_phases`, over
   the sharded graph's one global column CSR: the level BFS over its
   arrays, the level-restricted DFS over memoryviews of them.  For an
   ingested graph ``col_ind`` is a read-only memory map, so a path's hop
   into another shard's columns is a page access, not a shard reload, and
   the reconciler's heap stays vertex-sized plus one BFS level.  Phases
   repeat until no augmenting path exists anywhere — at which point the
   matching is maximum on the *whole* graph, hence bit-identical in
   cardinality to the single-graph solver.

Every step is deterministic given a deterministic per-shard algorithm, so
the final matching is bit-identical across engine backends.  So is the
result's ``modeled_time``: the shards' modeled seconds, each as its own
result prices it (device, multicore or CPU model), summed in shard order,
plus the CPU cost model over the adjacency entries the reconcile scanned.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.engine import Engine, MatchingJob, as_completed
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.hopcroft_karp import hopcroft_karp_phases
from repro.sharded.partition import ShardedBipartiteGraph

__all__ = ["ShardedMatcher"]


class ShardedMatcher:
    """Match a :class:`ShardedBipartiteGraph` via per-shard jobs + reconcile.

    Parameters
    ----------
    sharded:
        The partitioned graph (see
        :func:`~repro.sharded.partition.partition_graph` /
        :func:`~repro.sharded.ingest.ingest_matrix_market_sharded`).
    plan:
        The resolved :class:`~repro.core.api.ExecutionPlan` of the per-shard
        kernel (:func:`~repro.core.api.resolve_algorithm`); it must not
        itself be sharded, and must be a maximum-cardinality algorithm
        (greedy heuristics would break the parity guarantee).
    engine:
        Engine for the per-shard jobs; ``None`` runs them on a private
        inline :class:`~repro.engine.Engine`, shut down afterwards.
    """

    def __init__(
        self,
        sharded: ShardedBipartiteGraph,
        plan,
        *,
        engine: Engine | None = None,
    ) -> None:
        if plan.shards is not None:
            raise ValueError("the per-shard plan must not itself be sharded")
        if not plan.spec.maximum or plan.spec.weighted:
            raise ValueError(
                f"sharded matching needs a maximum-cardinality algorithm, "
                f"got {plan.algorithm!r}"
            )
        self.sharded = sharded
        self._plan = plan
        self._engine = engine

    # ------------------------------------------------------------------ run
    def run(self) -> MatchingResult:
        t0 = time.perf_counter()
        sharded = self.sharded
        counters = {
            "shards": sharded.n_shards,
            "shard_jobs": 0,
            "shard_edges_max": int(sharded.shard_edge_counts.max(initial=0)),
            "boundary_rows": int(sharded.boundary_rows.size),
            "merge_conflicts": 0,
            "reconcile_phases": 0,
            "reconcile_augmentations": 0,
            "edges_scanned": 0,
        }
        row_match = np.full(sharded.n_rows, UNMATCHED, dtype=np.int64)
        col_match = np.full(sharded.n_cols, UNMATCHED, dtype=np.int64)

        engine = self._engine
        own_engine = engine is None
        if own_engine:
            engine = Engine()
        try:
            shard_seconds = self._solve_shards(engine, row_match, col_match, counters)
        finally:
            if own_engine:
                engine.shutdown()

        reconcile_edges = self._reconcile(row_match, col_match, counters)

        matching = Matching(row_match, col_match)
        wall = time.perf_counter() - t0
        return MatchingResult.create(
            f"sharded-{self._plan.algorithm}",
            matching,
            counters=counters,
            modeled_time=shard_seconds + CpuCostModel().seconds(reconcile_edges),
            wall_time=wall,
        )

    # ---------------------------------------------------- act 1: local solves
    def _solve_shards(self, engine, row_match, col_match, counters) -> float:
        """Solve and merge every non-empty shard; returns their modeled seconds."""
        sharded = self.sharded
        # Summed in shard order, so the total does not depend on arrival order.
        seconds = [0.0] * sharded.n_shards
        # The owner array makes the merge arrival-order independent: a row
        # always ends up with its lowest-shard assignment.
        row_owner = np.full(sharded.n_rows, np.iinfo(np.int64).max, dtype=np.int64)
        pending = deque(
            s for s in range(sharded.n_shards) if sharded.shard_edge_counts[s] > 0
        )
        inflight: dict[object, int] = {}
        # The window keeps an out-of-core run at O(largest shard) peak
        # memory: no more shards are in jobs than the graph keeps built.
        while pending or inflight:
            while pending and len(inflight) < sharded.max_resident:
                index = pending.popleft()
                job = MatchingJob(
                    graph=sharded.shard(index),
                    algorithm=self._plan.algorithm,
                    job_id=f"shard-{index}",
                )
                inflight[engine.submit(job, plan=self._plan)] = index
                counters["shard_jobs"] += 1
            handle = next(as_completed(list(inflight)))
            index = inflight.pop(handle)
            result = handle.result()  # propagate per-shard failures verbatim
            self._merge_shard(
                index, result, row_match, col_match, row_owner, counters
            )
            seconds[index] = result.modeled_time
            counters["edges_scanned"] += int(result.counters.get("edges_scanned", 0))
        return sum(seconds)

    def _merge_shard(self, index, result, row_match, col_match, row_owner, counters):
        offset = self.sharded.col_offset(index)
        local_col_match = result.matching.col_match
        matched_local = np.flatnonzero(local_col_match >= 0)
        if matched_local.size == 0:
            return
        rows = local_col_match[matched_local]
        cols = matched_local + offset
        current = row_match[rows]
        take = (current == UNMATCHED) | (row_owner[rows] > index)
        conflicts = take & (current != UNMATCHED)
        if conflicts.any():
            counters["merge_conflicts"] += int(np.count_nonzero(conflicts))
            col_match[current[conflicts]] = UNMATCHED
        row_match[rows[take]] = cols[take]
        row_owner[rows[take]] = index
        col_match[cols[take]] = rows[take]

    # ------------------------------------------------- act 2: reconciliation
    def _reconcile(self, row_match, col_match, counters) -> int:
        """HK phases over the global column CSR; returns the entries scanned.

        The DFS walks memoryviews of the arrays: a ``tolist()`` of a
        memory-mapped ``col_ind`` would put the whole edge list on the heap.
        """
        sharded = self.sharded
        hk = hopcroft_karp_phases(
            sharded.col_ptr, sharded.col_ind,
            memoryview(sharded.col_ptr), memoryview(sharded.col_ind), row_match, col_match,
        )
        counters["reconcile_phases"] = hk["phases"]
        counters["reconcile_augmentations"] = hk["augmentations"]
        counters["edges_scanned"] += hk["edges_scanned"]
        return hk["edges_scanned"]

