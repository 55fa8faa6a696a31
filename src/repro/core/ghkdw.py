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

Phases repeat until the BFS proves no augmenting path exists.  A phase whose
BFS reached a free row always augments: before the first augmentation a row
is claimed only by entering its matched column, so no claim can stop the
root of the BFS's shortest path from reaching that row.  The loop therefore
needs no correction sweep, and a phase that augments nothing raises.

On the NumPy tier the augmentation kernels run the frontier layer's rounds,
which HK/HKDW run as well, over the cached ``csr_lists()`` and zero-copy
memoryviews of the device arrays: the level-restricted kernel is
:func:`repro.graph.frontier.restricted_round`, which, past a few thousand
BFS entries, walks only the threads that can still reach a free row and
prices the others' work exactly from the BFS level DAG; the Duff–Wassel
kernel is :func:`repro.graph.frontier.duff_wassel_round`.  The compiled
tier dispatches to the ``ghkdw_augment`` twin, which walks every thread
and charges the same work.  A BFS level is
:func:`repro.graph.frontier.column_step`, the level of HK's BFS, over the
same lists and views; each level starts from the columns the previous one
reached.  Every launch is charged as a
:class:`~repro.gpusim.costmodel.SparseWork`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compiled import dispatch as _compiled
from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import (
    column_step,
    duff_wassel_round,
    restricted_round,
    scalar_views,
)
from repro.gpusim.costmodel import SparseWork
from repro.gpusim.device import VirtualGPU
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["ghkdw_matching"]

_INF = np.iinfo(np.int64).max


def _bfs_phase(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    gpu: VirtualGPU,
) -> tuple[np.ndarray, bool, int]:
    """Level-synchronous BFS from unmatched columns; one kernel launch per level.

    Returns the column level array, whether an unmatched row was reached
    (i.e. an augmenting path exists) and the adjacency entries scanned.
    """
    n_cols = graph.n_cols
    level = gpu.shadow_wrap(np.full(n_cols, _INF, dtype=np.int64), "level")
    frontier = np.flatnonzero(mu_col == UNMATCHED)
    level[frontier] = 0
    views = (
        *graph.csr_lists("col"),
        *scalar_views(_compiled.recording(mu_row, level), mu_row, level),
    )
    depth = 0
    entries = 0
    reached_free_row = False
    # HK stops the BFS at the level of the shortest augmenting path.
    while len(frontier) and not reached_free_row:
        # Like the paper's G-GR-KRNL, each BFS level launches one thread per
        # column vertex; only frontier columns scan their adjacency, the rest
        # just test their level.  This is what makes high-diameter graphs
        # expensive for the level-synchronous GPU codes.
        next_cols, degrees, scanned, reached_free_row = column_step(
            graph.col_ptr, graph.col_ind, mu_row, level, frontier, depth, views
        )
        entries += scanned
        # Charge-after-access: this level's frontier scan and level writes
        # belong to the launch just completed.
        gpu.charge_kernel("ghkdw-bfs", SparseWork(n_cols, 1, frontier, degrees))
        frontier = next_cols
        depth += 1
    return level, reached_free_row, entries


def _augment_phase(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    level: np.ndarray,
    gpu: VirtualGPU,
    restrict_levels: bool,
    kernel_name: str,
    entries: int,
) -> int:
    """One augmentation kernel: a claim-based alternating DFS per unmatched column.

    Claims persist across the threads of the launch, which models the
    lock-free row claiming of the GPU kernel.  Each thread's work is the
    adjacency entries its walk scanned plus one; with no start column the
    launch is one thread of one operation.  ``entries`` is what the phase's
    BFS scanned; from :data:`~repro.graph.frontier.SWEEP_ENTRIES` up the
    level-restricted round sweeps the level DAG.  Returns the number of
    augmentations performed.
    """
    start_cols = np.flatnonzero(mu_col == UNMATCHED)
    start_cols = start_cols[level[start_cols] != _INF]
    n_starts = len(start_cols)
    if n_starts == 0:
        gpu.charge_kernel(kernel_name, SparseWork(1, 1))
        return 0
    fn = _compiled.implementation_for("ghkdw_augment")
    recording = _compiled.recording(mu_row, mu_col, level)
    if fn is not None and not recording:
        augmented, per_root = fn(
            graph.col_ptr,
            graph.col_ind,
            mu_row,
            mu_col,
            level,
            start_cols,
            restrict_levels,
            graph.n_rows,
        )
    else:
        ptr, ind = graph.csr_lists("col")
        rows, cols = scalar_views(recording, mu_row, mu_col)
        if restrict_levels:
            augmented, per_root = restricted_round(
                graph.col_ptr, graph.col_ind, ptr, ind, start_cols.tolist(), level, rows, cols,
                entries,
            )
        else:
            augmented, per_root = duff_wassel_round(
                ptr, ind, start_cols.tolist(), level, rows, cols
            )
    gpu.charge_kernel(kernel_name, SparseWork(n_starts, 1, np.arange(n_starts), per_root))
    return int(augmented)


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
    gpu = device or VirtualGPU()
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
        level, has_path, entries = _bfs_phase(graph, mu_row, mu_col, gpu)
        phases += 1
        if not has_path:
            break
        got = _augment_phase(graph, mu_row, mu_col, level, gpu, True, "ghkdw-augment", entries)
        got += _augment_phase(
            graph, mu_row, mu_col, level, gpu, False, "ghkdw-dw-augment", entries
        )
        if got == 0:
            # The root of the BFS's shortest path always reaches its free row
            # in the level-restricted pass (no claim can block it before the
            # first augmentation), so a phase with a path augments.
            raise RuntimeError(
                f"G-HKDW invariant violated: a phase with an augmenting path "
                f"augmented nothing on {graph.name!r}"
            )
        augmentations += got

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
