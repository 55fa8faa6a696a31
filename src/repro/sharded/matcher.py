"""Coarse-grained sharded matching: per-shard Engine jobs + reconciliation.

The :class:`ShardedMatcher` runs in two acts:

1. **Local solves.**  Every non-empty shard becomes an ordinary
   :class:`~repro.engine.job.MatchingJob` (the shard *is* a
   :class:`BipartiteGraph`), executed through an
   :class:`~repro.engine.Engine` on any backend — Inline, Thread or
   ProcessPool all work because shards and resolved plans are picklable.
   Local matchings merge into a global one with a deterministic conflict
   rule: a row matched in several shards keeps its lowest-shard assignment,
   the displaced columns go back to unmatched.  The merge is
   arrival-order-independent, so thread/process completion races cannot
   change the result.

2. **Frontier-exchange reconciliation.**  The merged matching is maximal
   per shard but can miss augmenting paths that cross shard boundaries
   (pivoting on the boundary rows indexed by the partition).  Reconciliation
   runs Hopcroft–Karp phases over the *sharded* adjacency: the level BFS
   expands each global column frontier shard by shard with
   :func:`~repro.graph.frontier.expand_frontier` and exchanges the
   discovered rows globally (rows keep global ids, so a row found in one
   shard seeds columns of every shard it touches); the level-restricted DFS
   then augments along vertex-disjoint shortest paths, hopping shards via
   per-shard column views that spilled stores serve *memory-mapped* — a
   cross-shard hop is a page access, not a shard reload, and the
   reconciler's heap stays vertex-sized.  Phases repeat until no
   augmenting path exists anywhere — at which point the matching is maximum
   on the *whole* graph, hence bit-identical in cardinality to the
   single-graph solver.

Every step is deterministic given a deterministic per-shard algorithm, so
the final matching is bit-identical across engine backends.  So is the
result's ``modeled_time``: the shards' modeled seconds, each as its own
result prices it (device, multicore or CPU model), summed in shard order,
plus the CPU cost model over the adjacency entries the reconcile scanned.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import deque

import numpy as np

from repro.engine import Engine, MatchingJob, as_completed
from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import expand_frontier, sorted_unique
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.sharded.partition import ShardedBipartiteGraph, partition_graph

__all__ = ["ShardedMatcher", "sharded_matching"]

_INF = np.iinfo(np.int64).max


class ShardedMatcher:
    """Match a :class:`ShardedBipartiteGraph` via per-shard jobs + reconcile.

    Parameters
    ----------
    sharded:
        The partitioned graph (see :func:`partition_graph` /
        :func:`~repro.sharded.ingest.ingest_matrix_market_sharded`).
    algorithm:
        Registry name of the per-shard kernel; must be a maximum-cardinality
        algorithm (greedy heuristics would break the parity guarantee).
    plan:
        A pre-resolved :class:`~repro.core.api.ExecutionPlan` for the
        per-shard kernel (must not itself be sharded); ``None`` resolves one
        from ``algorithm`` / ``kwargs``.
    engine:
        Engine for the per-shard jobs; ``None`` builds a private one from
        ``backend`` / ``workers`` and shuts it down afterwards.
    backend / workers:
        Used only when ``engine`` is ``None``.
    window:
        Maximum per-shard jobs in flight at once.  Defaults to all shards
        for resident stores and to the store's ``max_resident`` for spilled
        stores — the knob that keeps out-of-core runs at O(largest shard)
        peak memory.
    kwargs:
        Extra keyword arguments for the per-shard algorithm.
    """

    def __init__(
        self,
        sharded: ShardedBipartiteGraph,
        algorithm: str = "hk",
        *,
        plan=None,
        engine: Engine | None = None,
        backend: str = "inline",
        workers: int = 0,
        window: int | None = None,
        kwargs: dict | None = None,
    ) -> None:
        self.sharded = sharded
        self.algorithm = str(algorithm).strip().lower()
        self.kwargs = dict(kwargs or {})
        if plan is None:
            from repro.core.api import resolve_algorithm

            plan = resolve_algorithm(self.algorithm, **self.kwargs)
        elif getattr(plan, "shards", None) is not None:
            raise ValueError("the per-shard plan must not itself be sharded")
        else:
            self.algorithm = plan.algorithm
        if not plan.spec.maximum or plan.spec.weighted:
            raise ValueError(
                f"sharded matching needs a maximum-cardinality algorithm, "
                f"got {self.algorithm!r}"
            )
        self._plan = plan
        self._engine = engine
        self._backend = backend
        self._workers = workers
        if window is None:
            store = sharded.store
            if getattr(store, "resident", False):
                window = max(1, sharded.n_shards)
            else:
                window = max(1, getattr(store, "max_resident", 1))
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = int(window)

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
            "frontier_handoffs": 0,
            "edges_scanned": 0,
        }
        row_match = np.full(sharded.n_rows, UNMATCHED, dtype=np.int64)
        col_match = np.full(sharded.n_cols, UNMATCHED, dtype=np.int64)

        engine = self._engine
        own_engine = engine is None
        if own_engine:
            engine = Engine(
                backend=self._backend,
                max_workers=self._workers or None,
            )
        try:
            shard_seconds = self._solve_shards(engine, row_match, col_match, counters)
        finally:
            if own_engine:
                engine.shutdown()

        shard_edges = counters["edges_scanned"]
        self._reconcile(row_match, col_match, counters)
        reconcile_edges = counters["edges_scanned"] - shard_edges

        matching = Matching(row_match, col_match)
        wall = time.perf_counter() - t0
        return MatchingResult.create(
            f"sharded-{self.algorithm}",
            matching,
            counters=counters,
            modeled_time=shard_seconds + CpuCostModel().seconds(reconcile_edges),
            wall_time=wall,
        )

    # ---------------------------------------------------- act 1: local solves
    def _solve_shards(self, engine, row_match, col_match, counters) -> float:
        """Solve and merge every non-empty shard; returns their modeled seconds."""
        from repro.bench.harness import modeled_seconds_for

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
        while pending or inflight:
            while pending and len(inflight) < self._window:
                index = pending.popleft()
                job = MatchingJob(
                    graph=sharded.shard(index),
                    algorithm=self.algorithm,
                    kwargs=self.kwargs,
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
            seconds[index] = modeled_seconds_for(result)
            for key in ("edges_scanned",):
                if key in result.counters:
                    counters["edges_scanned"] += int(result.counters[key])
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

    # ------------------------------------------- act 2: frontier reconciliation
    def _reconcile(self, row_match, col_match, counters) -> None:
        views = self._column_views()
        while True:
            level, shortest, bfs_edges = self._level_bfs(
                row_match, col_match, counters, views
            )
            counters["edges_scanned"] += bfs_edges
            counters["reconcile_phases"] += 1
            if shortest == _INF:
                break
            augmented, dfs_edges = self._augment_phase(
                level, row_match, col_match, views
            )
            counters["edges_scanned"] += dfs_edges
            counters["reconcile_augmentations"] += augmented
            if augmented == 0:
                break

    def _column_views(self) -> list[tuple]:
        """Per-shard ``(col_ptr, col_ind, column offset)`` for reconciliation.

        Served by the store's ``column_csr``: resident stores hand out the
        graphs' own arrays; spilled stores a heap-loaded vertex-sized
        ``col_ptr`` plus a *memory-mapped* ``col_ind``.  Cross-shard
        augmenting paths hop shards essentially at random (a matched row's
        column can live anywhere), so the reconciler holds every shard's
        view for its whole run — at O(n_cols) heap, because the edge-sized
        side is file-backed and paged by the OS, never reloaded per hop.
        """
        sharded = self.sharded
        boundaries = sharded.partition.boundaries
        return [
            (*sharded.store.column_csr(index), int(boundaries[index]))
            for index in range(sharded.n_shards)
        ]

    def _level_bfs(self, row_match, col_match, counters, views):
        """Global alternating level BFS, one shard-frontier exchange per level.

        The column frontier is split by owning shard, each slice expands with
        the vectorized :func:`expand_frontier` over that shard's column CSR,
        and the discovered rows (global ids) are pooled — the *exchange* —
        before stepping to their matched columns, which may live in any
        shard.
        """
        sharded = self.sharded
        boundaries = sharded.partition.boundaries
        level = np.full(sharded.n_cols, _INF, dtype=np.int64)
        frontier = np.flatnonzero(col_match == UNMATCHED)
        level[frontier] = 0
        depth = 0
        shortest = _INF
        edges = 0
        while frontier.size:
            shard_ids = sharded.partition.shard_of(frontier)
            rows_parts: list[np.ndarray] = []
            handoffs = 0
            for index in np.unique(shard_ids):
                local = frontier[shard_ids == index] - boundaries[index]
                ptr, ind, _ = views[int(index)]
                targets = expand_frontier(ptr, ind, local)
                if targets.size:
                    rows_parts.append(targets)
                    mates = row_match[targets]
                    crossing = mates[mates >= 0]
                    if crossing.size:
                        handoffs += int(
                            np.count_nonzero(
                                sharded.partition.shard_of(crossing) != index
                            )
                        )
            counters["frontier_handoffs"] += handoffs
            if not rows_parts:
                break
            rows = np.concatenate(rows_parts)
            edges += rows.size
            mates = row_match[rows]
            if (mates == UNMATCHED).any():
                shortest = depth + 1
            next_cols = sorted_unique(mates[mates >= 0])
            next_cols = next_cols[level[next_cols] == _INF]
            level[next_cols] = depth + 1
            depth += 1
            if depth >= shortest:
                break
            frontier = next_cols
        return level, shortest, edges

    def _augment_phase(self, level_arr, row_match_arr, col_match_arr, views):
        """Vertex-disjoint level-restricted DFS round (HK semantics).

        Mirrors :func:`repro.seq.hopcroft_karp._augment_phase`, with one
        twist: a column's adjacency is looked up through the partition
        (``bisect`` on the boundaries) because the path may hop shards at
        every boundary row.  The hops land on the pre-opened ``views`` —
        array (or memory-map) indexing, never a shard load.
        """
        sharded = self.sharded
        boundary_list = sharded.partition.boundaries.tolist()
        level = level_arr.tolist()
        row_match = row_match_arr.tolist()
        col_match = col_match_arr.tolist()
        row_used = bytearray(sharded.n_rows)
        unmatched = UNMATCHED
        augmented = 0
        edges = 0
        roots = np.flatnonzero(col_match_arr == UNMATCHED).tolist()

        def frame(v: int) -> list:
            shard_index = bisect_right(boundary_list, v) - 1
            ptr, ind, offset = views[shard_index]
            local = v - offset
            return [v, ind, int(ptr[local]), int(ptr[local + 1])]

        for start in roots:
            stack = [frame(start)]
            path_rows: list[int] = []
            u = -1
            while stack:
                top = stack[-1]
                v, ind, idx, stop = top
                want = level[v] + 1
                advanced = False
                done = False
                while idx < stop:
                    u = int(ind[idx])
                    idx += 1
                    edges += 1
                    if row_used[u]:
                        continue
                    w = row_match[u]
                    if w != unmatched:
                        if level[w] != want:
                            continue
                        row_used[u] = True
                        top[2] = idx
                        path_rows.append(u)
                        stack.append(frame(w))
                        advanced = True
                        break
                    row_used[u] = True
                    done = True
                    break
                if advanced:
                    continue
                if done:
                    # Augment along the stack: flip every (col, row) pair.
                    row_match[u] = v
                    col_match[v] = u
                    for depth in range(len(stack) - 2, -1, -1):
                        prev_col = stack[depth][0]
                        prev_row = path_rows[depth]
                        row_match[prev_row] = prev_col
                        col_match[prev_col] = prev_row
                    augmented += 1
                    break
                top[2] = idx
                if idx >= stop:
                    stack.pop()
                    if path_rows:
                        path_rows.pop()

        row_match_arr[:] = row_match
        col_match_arr[:] = col_match
        return augmented, edges


def sharded_matching(
    graph: BipartiteGraph | ShardedBipartiteGraph,
    algorithm: str = "hk",
    *,
    shards: int | None = None,
    partition: str = "contiguous",
    engine: Engine | None = None,
    backend: str = "inline",
    workers: int = 0,
    window: int | None = None,
    **kwargs,
) -> MatchingResult:
    """One-call sharded matching.

    Accepts either an in-memory :class:`BipartiteGraph` (partitioned on the
    fly with ``shards`` / ``partition``) or a ready
    :class:`ShardedBipartiteGraph` (as produced by the out-of-core ingest),
    and returns a :class:`MatchingResult` whose cardinality equals the
    single-graph solver's.
    """
    if isinstance(graph, ShardedBipartiteGraph):
        sharded = graph
    else:
        if shards is None:
            raise ValueError("shards= is required when passing an in-memory graph")
        sharded = partition_graph(graph, shards, partition)
    matcher = ShardedMatcher(
        sharded,
        algorithm,
        engine=engine,
        backend=backend,
        workers=workers,
        window=window,
        kwargs=kwargs,
    )
    return matcher.run()
