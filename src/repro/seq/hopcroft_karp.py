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

Hot paths follow the frontier-layer split (:mod:`repro.graph.frontier`): the
phase BFS is :func:`~repro.graph.frontier.alternating_level_bfs`, whose
levels are vectorized when wide and scalar when narrow, while the
vertex-disjoint DFS — whose working set is one small adjacency slice per
stack frame — is the shared
:func:`~repro.graph.frontier.augmenting_dfs`, which G-HKDW's augmentation
kernels run as well.  Here it walks the cached ``csr_lists()`` views with
the matching and level state held in plain Python lists, one call per
*round* rather than per root; the matching crosses to ndarrays once per
phase for the BFS.  Matchings and counter end-values are bit-identical to
the historical per-edge implementation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import alternating_level_bfs, augmenting_dfs
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["hopcroft_karp_matching", "hkdw_matching"]

_INF = np.iinfo(np.int64).max


def _prepare(graph: BipartiteGraph, initial: Matching | None):
    if initial is None:
        matching = cheap_matching(graph).matching
    else:
        matching = initial.copy().canonical()
    return matching.row_match, matching.col_match


def _run(graph: BipartiteGraph, initial: Matching | None, duff_wassel: bool):
    row_match_arr, col_match_arr = _prepare(graph, initial)
    counters = {"edges_scanned": 0, "phases": 0, "augmentations": 0}
    if duff_wassel:
        counters["extra_augmentations"] = 0
    col_ptr_l, col_ind_l = graph.csr_lists("col")
    row_match = row_match_arr.tolist()
    col_match = col_match_arr.tolist()
    n_cols = graph.n_cols

    while True:
        # The matching state crosses the list/ndarray boundary once per
        # phase: ndarrays for the whole-frontier BFS, lists for the DFS.
        row_match_arr = np.array(row_match, dtype=np.int64)
        col_match_arr = np.array(col_match, dtype=np.int64)
        level_arr, shortest, bfs_edges = alternating_level_bfs(
            graph.col_ptr, graph.col_ind, row_match_arr, col_match_arr
        )
        counters["edges_scanned"] += bfs_edges
        counters["phases"] += 1
        if shortest == _INF:
            break
        level = level_arr.tolist()
        roots = np.flatnonzero(col_match_arr == UNMATCHED).tolist()
        augmented, per_root = augmenting_dfs(
            col_ptr_l, col_ind_l, roots, level, row_match, col_match,
            bytearray(graph.n_rows), restrict_levels=True,
        )
        counters["edges_scanned"] += sum(per_root)
        counters["augmentations"] += augmented
        extra = 0
        if duff_wassel:
            # Duff–Wassel extra pass: unrestricted DFS for the remaining
            # unmatched columns with a finite BFS level.
            roots = [
                v for v in range(n_cols)
                if col_match[v] == UNMATCHED and level[v] != _INF
            ]
            extra, per_root = augmenting_dfs(
                col_ptr_l, col_ind_l, roots, level, row_match, col_match,
                bytearray(graph.n_rows), restrict_levels=False,
            )
            counters["edges_scanned"] += sum(per_root)
            counters["extra_augmentations"] += extra
        if augmented == 0 and extra == 0:
            break

    matching = Matching(
        np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64)
    )
    return matching, counters


def hopcroft_karp_matching(
    graph: BipartiteGraph, initial: Matching | None = None
) -> MatchingResult:
    """Maximum cardinality matching with the Hopcroft–Karp algorithm."""
    t0 = time.perf_counter()
    matching, counters = _run(graph, initial, duff_wassel=False)
    wall = time.perf_counter() - t0
    return MatchingResult.create("HK", matching, counters=counters, wall_time=wall)


def hkdw_matching(graph: BipartiteGraph, initial: Matching | None = None) -> MatchingResult:
    """Maximum cardinality matching with the HKDW (Hopcroft–Karp + Duff–Wassel) variant.

    Identical to :func:`hopcroft_karp_matching` but, after the level-restricted
    augmentation round of each phase, performs additional unrestricted DFS
    augmentations from the still-unmatched columns whose BFS level is finite.
    """
    t0 = time.perf_counter()
    matching, counters = _run(graph, initial, duff_wassel=True)
    wall = time.perf_counter() - t0
    return MatchingResult.create("HKDW", matching, counters=counters, wall_time=wall)
