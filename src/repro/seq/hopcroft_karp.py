"""Hopcroft–Karp (HK) and HKDW augmenting-path baselines.

HK repeatedly (i) builds, with a BFS from all unmatched columns, the level
structure of shortest augmenting paths and (ii) augments along a maximal set
of vertex-disjoint shortest augmenting paths found with level-restricted DFS.
Its worst-case complexity is ``O(τ √(n + m))`` — the best known bound, as the
paper notes in §II-D.

HKDW (Duff–Wassel variant) adds, after each HK phase, an extra round of
unrestricted DFS augmentations from the remaining unmatched rows; it has the
same worst case but is often faster in practice.  The GPU comparator of the
paper, G-HKDW, parallelises this variant.

Both run one phase loop, :func:`hopcroft_karp_phases`, which the sharded
matcher's reconcile (:mod:`repro.sharded.matcher`) runs as well, over the
whole sharded graph's column CSR.  Hot paths follow the frontier-layer
split (:mod:`repro.graph.frontier`): the phase BFS is
:func:`~repro.graph.frontier.alternating_level_bfs`, whose levels are
vectorized when wide and scalar when narrow, and the vertex-disjoint DFS
runs as the frontier layer's rounds, which G-HKDW's augmentation kernels
run as well: :func:`~repro.graph.frontier.restricted_round`, which above a
few thousand BFS entries walks only the roots that can still reach an
unmatched row and prices the rest from the level DAG, and, for HKDW,
:func:`~repro.graph.frontier.duff_wassel_round`.  They walk the adjacency
as lists (HK's cached ``csr_lists()``) or memoryviews (the reconcile's
memory-mapped ``col_ind``), one call per *round* rather than per root.
The matching stays in two ``int64`` arrays for the whole solve: the BFS
reads them, and the rounds write through memoryviews of them.  Matchings
and counter end-values are bit-identical to the historical per-edge
implementation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import alternating_level_bfs, duff_wassel_round, restricted_round
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["hopcroft_karp_matching", "hopcroft_karp_phases", "hkdw_matching"]

_INF = np.iinfo(np.int64).max


def _prepare(graph: BipartiteGraph, initial: Matching | None):
    if initial is None:
        matching = cheap_matching(graph).matching
    else:
        matching = initial.copy().canonical()
    return matching.row_match, matching.col_match


def hopcroft_karp_phases(
    col_ptr: np.ndarray,
    col_ind: np.ndarray,
    dfs_ptr,
    dfs_ind,
    row_match: np.ndarray,
    col_match: np.ndarray,
    duff_wassel: bool = False,
) -> dict[str, int]:
    """Run Hopcroft–Karp phases until no augmenting path is left.

    Each phase builds the level structure with
    :func:`~repro.graph.frontier.alternating_level_bfs` over the column CSR
    arrays ``col_ptr``/``col_ind``, then augments along vertex-disjoint
    shortest paths with :func:`~repro.graph.frontier.restricted_round`,
    which walks ``dfs_ptr``/``dfs_ind``, the same CSR as lists or
    memoryviews.  With ``duff_wassel`` a
    :func:`~repro.graph.frontier.duff_wassel_round` from the columns still
    unmatched follows (HKDW).  ``row_match`` and ``col_match`` are ``int64``
    arrays, updated in place.

    Returns the counters ``edges_scanned``, ``phases`` and
    ``augmentations``, plus ``extra_augmentations`` with ``duff_wassel``.
    """
    counters = {"edges_scanned": 0, "phases": 0, "augmentations": 0}
    if duff_wassel:
        counters["extra_augmentations"] = 0
    # The rounds walk memoryviews; their writes land in the arrays the BFS reads.
    rows, cols = memoryview(row_match), memoryview(col_match)

    while True:
        level, shortest, bfs_edges = alternating_level_bfs(col_ptr, col_ind, row_match, col_match)
        counters["edges_scanned"] += bfs_edges
        counters["phases"] += 1
        if shortest == _INF:
            break
        roots = np.flatnonzero(col_match == UNMATCHED).tolist()
        augmented, per_root = restricted_round(
            col_ptr, col_ind, dfs_ptr, dfs_ind, roots, level, rows, cols, bfs_edges
        )
        counters["edges_scanned"] += sum(per_root)
        counters["augmentations"] += augmented
        extra = 0
        if duff_wassel:
            # Every unmatched column is a root of the restricted round, and no
            # column becomes unmatched, so its failed roots are this round's.
            roots = [v for v in roots if cols[v] == UNMATCHED]
            extra, per_root = duff_wassel_round(dfs_ptr, dfs_ind, roots, level, rows, cols)
            counters["edges_scanned"] += sum(per_root)
            counters["extra_augmentations"] += extra
        if augmented == 0 and extra == 0:
            break
    return counters


def _run(graph: BipartiteGraph, initial: Matching | None, duff_wassel: bool) -> MatchingResult:
    t0 = time.perf_counter()
    row_match, col_match = _prepare(graph, initial)
    counters = hopcroft_karp_phases(
        graph.col_ptr, graph.col_ind, *graph.csr_lists("col"), row_match, col_match,
        duff_wassel,
    )
    wall = time.perf_counter() - t0
    return MatchingResult.create(
        "HKDW" if duff_wassel else "HK", Matching(row_match, col_match), counters=counters,
        modeled_time=CpuCostModel().seconds(counters["edges_scanned"]), wall_time=wall,
    )


def hopcroft_karp_matching(
    graph: BipartiteGraph, initial: Matching | None = None
) -> MatchingResult:
    """Maximum cardinality matching with the Hopcroft–Karp algorithm."""
    return _run(graph, initial, duff_wassel=False)


def hkdw_matching(graph: BipartiteGraph, initial: Matching | None = None) -> MatchingResult:
    """Maximum cardinality matching with the HKDW (Hopcroft–Karp + Duff–Wassel) variant.

    Identical to :func:`hopcroft_karp_matching` but, after the level-restricted
    augmentation round of each phase, performs additional unrestricted DFS
    augmentations from the still-unmatched columns whose BFS level is finite.
    """
    return _run(graph, initial, duff_wassel=True)
