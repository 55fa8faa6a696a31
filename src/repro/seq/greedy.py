"""Greedy initial-matching heuristics.

The paper initialises every algorithm (sequential, multicore and GPU) with
the *cheap matching* heuristic and compares runtimes only after that common
initialisation; Table I reports its cardinality as the ``IM`` column.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult

__all__ = ["cheap_matching", "karp_sipser_matching"]


def cheap_matching(graph: BipartiteGraph, seed: int | None = None) -> MatchingResult:
    """The cheap greedy matching heuristic.

    Scans the columns in order and matches each to its first unmatched
    neighbouring row.  This is the standard heuristic of Duff et al. used in
    the paper's experiments ("cheap matching").

    Parameters
    ----------
    graph:
        The bipartite graph.
    seed:
        When given, the columns are visited in a seeded random order instead
        of index order — useful for sensitivity tests; ``None`` reproduces the
        deterministic textbook variant.
    """
    col_ptr, col_ind = graph.csr_lists("col")

    if seed is not None:
        order = np.arange(graph.n_cols)
        np.random.default_rng(seed).shuffle(order)
        order = order.tolist()
    else:
        order = range(graph.n_cols)

    # Scalar walk over the cached list views (see the frontier-layer split in
    # repro.graph.frontier): the scan order — and hence the matching and the
    # scanned-edge total — is identical to the historical per-edge loop.
    unmatched = UNMATCHED
    row_match = [unmatched] * graph.n_rows
    col_match = [unmatched] * graph.n_cols
    edges_scanned = 0
    # hot-path
    for v in order:
        stop = col_ptr[v + 1]
        for idx in range(col_ptr[v], stop):
            edges_scanned += 1
            u = col_ind[idx]
            if row_match[u] == unmatched:
                row_match[u] = v
                col_match[v] = u
                break
    # end hot-path
    matching = Matching(
        np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64)
    )
    return MatchingResult.create(
        "cheap",
        matching,
        counters={"edges_scanned": edges_scanned, "phases": 1},
        modeled_time=CpuCostModel().seconds(edges_scanned),
    )


def karp_sipser_matching(graph: BipartiteGraph, seed: int | None = None) -> MatchingResult:
    """The Karp–Sipser heuristic.

    Repeatedly matches degree-1 vertices (whose pendant edge is always safe to
    take in some maximum matching) and falls back to a random edge when no
    degree-1 vertex remains.  Produces matchings with a smaller deficiency
    than :func:`cheap_matching` on most graph families; provided as the
    stronger initialisation option mentioned in the matching literature the
    paper builds on.
    """
    rng = np.random.default_rng(seed)
    matching = Matching.empty(graph)
    row_match, col_match = matching.row_match, matching.col_match

    # Dynamic degrees of both sides (only counting still-unmatched partners).
    row_deg = graph.row_degrees.astype(np.int64).copy()
    col_deg = graph.col_degrees.astype(np.int64).copy()
    edges_scanned = 0

    # Queue of degree-1 vertices encoded as (side, index); side 0 = row, 1 = column.
    def _initial_degree_one() -> list[tuple[int, int]]:
        ones: list[tuple[int, int]] = []
        ones.extend((0, int(u)) for u in np.flatnonzero(row_deg == 1))
        ones.extend((1, int(v)) for v in np.flatnonzero(col_deg == 1))
        return ones

    queue = _initial_degree_one()
    remaining_cols = list(np.flatnonzero(col_deg > 0))
    rng.shuffle(remaining_cols)
    cursor = 0

    def _match(u: int, v: int) -> None:
        nonlocal edges_scanned
        row_match[u] = v
        col_match[v] = u
        for w in graph.row_neighbors(u):
            edges_scanned += 1
            if col_match[w] == UNMATCHED:
                col_deg[w] -= 1
                if col_deg[w] == 1:
                    queue.append((1, int(w)))
        for w in graph.column_neighbors(v):
            edges_scanned += 1
            if row_match[w] == UNMATCHED:
                row_deg[w] -= 1
                if row_deg[w] == 1:
                    queue.append((0, int(w)))

    def _pick_unmatched_neighbor(side: int, idx: int) -> int | None:
        nonlocal edges_scanned
        neighbors = graph.row_neighbors(idx) if side == 0 else graph.column_neighbors(idx)
        partner_match = col_match if side == 0 else row_match
        for w in neighbors:
            edges_scanned += 1
            if partner_match[w] == UNMATCHED:
                return int(w)
        return None

    while True:
        while queue:
            side, idx = queue.pop()
            own_match = row_match if side == 0 else col_match
            if own_match[idx] != UNMATCHED:
                continue
            partner = _pick_unmatched_neighbor(side, idx)
            if partner is None:
                continue
            if side == 0:
                _match(idx, partner)
            else:
                _match(partner, idx)
        # No degree-1 vertices left: take a random still-unmatched column.
        progressed = False
        while cursor < len(remaining_cols):
            v = int(remaining_cols[cursor])
            cursor += 1
            if col_match[v] != UNMATCHED:
                continue
            u = _pick_unmatched_neighbor(1, v)
            if u is not None:
                _match(u, v)
                progressed = True
                break
        if not progressed and not queue:
            break

    return MatchingResult.create(
        "karp-sipser",
        matching,
        counters={"edges_scanned": edges_scanned, "phases": 1},
        modeled_time=CpuCostModel().seconds(edges_scanned),
    )
