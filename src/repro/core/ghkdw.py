"""G-HKDW: the GPU augmenting-path comparator.

The paper compares G-PR against the authors' earlier GPU implementation of
the HKDW algorithm (Hopcroft–Karp with the Duff–Wassel extra augmentation
round).  We reproduce it on the same virtual device:

* **BFS phase** — level-synchronous kernels build the shortest-augmenting-
  path level structure from all unmatched columns, one kernel launch per
  level (the frontier columns are the threads), exactly like the global
  relabeling of G-PR but starting from the column side.
* **Augmentation phase** — one logical thread per unmatched column walks a
  level-restricted alternating DFS and claims rows as it goes; claims are
  serialised within the launch (a legal interleaving of the lock-free
  kernel), so the per-thread work of the longest path bounds the kernel and
  the cost model charges the poor parallelism of this phase — which is the
  structural reason the paper finds G-PR ahead of G-HKDW on most instances.
* **Duff–Wassel round** — a second augmentation kernel without the level
  restriction, run from the columns that are still unmatched.

Phases repeat until the BFS proves no augmenting path exists.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compiled import dispatch as _compiled
from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import sorted_unique
from repro.gpusim.device import DeviceSpec, VirtualGPU
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["ghkdw_matching"]

_INF = np.iinfo(np.int64).max


def _bfs_phase(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    gpu: VirtualGPU,
) -> tuple[np.ndarray, bool]:
    """Level-synchronous BFS from unmatched columns; one kernel launch per level.

    Returns the column level array and whether an unmatched row was reached
    (i.e. an augmenting path exists).
    """
    n_cols = graph.n_cols
    level = gpu.shadow_wrap(np.full(n_cols, _INF, dtype=np.int64), "level")
    frontier = np.flatnonzero(mu_col == UNMATCHED)
    level[frontier] = 0
    reached_free_row = False
    current = 0
    col_ptr, col_ind = graph.col_ptr, graph.col_ind

    while len(frontier):
        degrees = col_ptr[frontier + 1] - col_ptr[frontier]
        # Like the paper's G-GR-KRNL, each BFS level launches one thread per
        # column vertex; only frontier columns scan their adjacency, the rest
        # just test their level.  This is what makes high-diameter graphs
        # expensive for the level-synchronous GPU codes.
        thread_work = np.ones(n_cols, dtype=np.float64)
        thread_work[frontier] += degrees.astype(np.float64)

        total = int(degrees.sum())
        if total == 0:
            gpu.charge_kernel("ghkdw-bfs", thread_work)
            break
        offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], degrees) + np.repeat(
            col_ptr[frontier], degrees
        )
        rows = col_ind[flat]
        row_matches = mu_row[rows]
        if np.any(row_matches == UNMATCHED):
            reached_free_row = True
        next_cols = row_matches[row_matches >= 0]
        next_cols = sorted_unique(next_cols)
        next_cols = next_cols[level[next_cols] == _INF]
        level[next_cols] = current + 1
        # Charge-after-access: this level's frontier scan and level writes
        # belong to the launch just completed (same value and order as the
        # golden counters — only the call site moved past the accesses).
        gpu.charge_kernel("ghkdw-bfs", thread_work)
        frontier = next_cols
        current += 1
        if reached_free_row:
            # HK stops the BFS at the level of the shortest augmenting path.
            break
    return level, reached_free_row


def _augment_phase(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    level: np.ndarray,
    gpu: VirtualGPU,
    restrict_levels: bool,
    kernel_name: str,
    shared_claims: bool = True,
    use_level: bool = True,
) -> int:
    """One augmentation kernel: a claim-based alternating DFS per unmatched column.

    ``shared_claims`` models the lock-free row claiming of the GPU kernel
    (claims persist across threads of the launch); the fallback pass used to
    guarantee progress gives each thread a fresh claim set and no level
    restriction (``shared_claims=False, use_level=False``), which corresponds
    to the correction sweep of the original G-HKDW implementation.

    Returns the number of augmentations performed.
    """
    col_ptr, col_ind = graph.col_ptr, graph.col_ind
    start_cols = np.flatnonzero(mu_col == UNMATCHED)
    if use_level:
        start_cols = start_cols[level[start_cols] != _INF]
    if len(start_cols) == 0:
        gpu.charge_kernel(kernel_name, np.ones(1))
        return 0
    fn = _compiled.implementation_for("ghkdw_augment")
    if fn is not None and not _compiled.recording(mu_row, mu_col, level):
        thread_work, augmented = fn(
            graph.col_ptr,
            graph.col_ind,
            mu_row,
            mu_col,
            level,
            start_cols,
            restrict_levels,
            use_level,
            shared_claims,
            graph.n_rows,
        )
        gpu.charge_kernel(kernel_name, thread_work)
        return int(augmented)
    row_claimed = np.zeros(graph.n_rows, dtype=bool)
    thread_work = np.ones(len(start_cols), dtype=np.float64)
    augmented = 0

    # hot-path compiled=ghkdw_augment
    for t, start in enumerate(start_cols):
        if not shared_claims:
            row_claimed = np.zeros(graph.n_rows, dtype=bool)
        stack: list[list[int]] = [[int(start), int(col_ptr[start])]]
        path_rows: list[int] = []
        work = 1.0
        success = False
        while stack and not success:
            v, idx = stack[-1]
            stop = int(col_ptr[v + 1])
            advanced = False
            while idx < stop:
                u = int(col_ind[idx])
                idx += 1
                work += 1.0
                if row_claimed[u]:
                    continue
                w = int(mu_row[u])
                if w == UNMATCHED:
                    row_claimed[u] = True
                    mu_row[u] = v
                    mu_col[v] = u
                    for depth in range(len(stack) - 2, -1, -1):
                        prev_col = stack[depth][0]
                        prev_row = path_rows[depth]
                        mu_row[prev_row] = prev_col
                        mu_col[prev_col] = prev_row
                    augmented += 1
                    success = True
                    break
                if use_level:
                    if restrict_levels and level[w] != level[v] + 1:
                        continue
                    if not restrict_levels and level[w] == _INF:
                        continue
                row_claimed[u] = True
                stack[-1][1] = idx
                path_rows.append(u)
                stack.append([w, int(col_ptr[w])])
                advanced = True
                break
            if success:
                break
            if advanced:
                continue
            stack[-1][1] = idx
            if idx >= stop:
                stack.pop()
                if path_rows:
                    path_rows.pop()
        thread_work[t] = work
    # end hot-path
    gpu.charge_kernel(kernel_name, thread_work)
    return augmented


def ghkdw_matching(
    graph: BipartiteGraph,
    initial: Matching | None = None,
    device: VirtualGPU | None = None,
    max_phases: int | None = None,
) -> MatchingResult:
    """Maximum cardinality matching with the GPU HKDW comparator.

    Parameters mirror :func:`repro.core.gpr.gpr_matching`; the result's
    ``modeled_time`` is the GPU cost-model time of all BFS and augmentation
    kernels.
    """
    gpu = device or VirtualGPU(DeviceSpec())
    t0 = time.perf_counter()
    if initial is None:
        initial = cheap_matching(graph).matching
    else:
        initial = initial.copy().canonical()
    mu_row = gpu.shadow_wrap(initial.row_match.copy(), "mu_row")
    mu_col = gpu.shadow_wrap(initial.col_match.copy(), "mu_col")
    initial_cardinality = int(np.count_nonzero(mu_row >= 0))
    limit = max_phases if max_phases is not None else 4 * (graph.n_rows + graph.n_cols) + 16

    phases = 0
    augmentations = 0
    while True:
        if phases >= limit:
            raise RuntimeError(f"G-HKDW exceeded {limit} phases on {graph.name!r}")
        level, has_path = _bfs_phase(graph, mu_row, mu_col, gpu)
        phases += 1
        if not has_path:
            break
        got = _augment_phase(graph, mu_row, mu_col, level, gpu, True, "ghkdw-augment")
        got += _augment_phase(graph, mu_row, mu_col, level, gpu, False, "ghkdw-dw-augment")
        if got == 0:
            # The claim-based kernels can be blocked by each other's claims even
            # though an augmenting path exists; run the correction sweep
            # (fresh claims, no level restriction) to guarantee progress.
            got = _augment_phase(
                graph,
                mu_row,
                mu_col,
                level,
                gpu,
                False,
                "ghkdw-correction",
                shared_claims=False,
                use_level=False,
            )
        augmentations += got
        if got == 0:
            break

    wall = time.perf_counter() - t0
    counters = {
        "phases": phases,
        "augmentations": augmentations,
        "initial_matching": initial_cardinality,
        **gpu.ledger.counters(),
    }
    return MatchingResult.create(
        "G-HKDW",
        Matching(np.asarray(mu_row), np.asarray(mu_col)),
        counters=counters,
        modeled_time=gpu.ledger.kernel_seconds,
        wall_time=wall,
    )
