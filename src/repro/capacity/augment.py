"""Direct degree-constrained augmenting-path b-matching solver.

Solves maximum b-matching *without* materializing the clone expansion of
:mod:`repro.capacity.expand`.  The implicit flow network is

    source ──(c_v)──▶ columns ──(1 per edge)──▶ rows ──(b_u)──▶ sink

and the solver runs alternating-path searches on its residual graph: from a
column with spare capacity, forward along an unselected edge to a row;
if the row is saturated, backward along one of its selected edges to
another column; until a row with spare capacity is found.  Augmenting flips
the path, raising the selected-edge count by one.

Searches are scalar DFS walks in the style of
:mod:`repro.dynamic.incremental` — explicit stacks, cached CSR lists,
per-search ``bytearray`` visited maps — and the selected edge set lives in
insertion-ordered per-vertex dicts plus integer load vectors, so runs are
deterministic.  Columns are swept in index order until a full sweep yields
no augmentation (the flow value is then maximum: no residual path exists
from any column with spare source capacity).

With every effective capacity at 1 the network *is* ordinary bipartite
matching, so the solver delegates to Hopcroft–Karp outright and returns its
bit-identical result.
"""

from __future__ import annotations

import time

import numpy as np

from repro.capacity.matching import CapacitatedMatching, effective_capacities
from repro.graph.bipartite import BipartiteGraph
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import Matching, MatchingResult

__all__ = ["capacitated_augment_matching"]


def _seed_pairs(graph, initial, b_row, b_col):
    """Validate a warm-start matching and return its pairs.

    Accepts either container (:class:`Matching` from the uncapacitated
    solvers or :class:`CapacitatedMatching`); every pair must be an edge of
    ``graph`` and the loads must respect the capacities, otherwise the warm
    start would silently corrupt the invariant every search relies on.
    """
    pairs = initial.pairs()
    row_load = np.zeros(graph.n_rows, dtype=np.int64)
    col_load = np.zeros(graph.n_cols, dtype=np.int64)
    for u, v in pairs:
        if not graph.has_edge(u, v):
            raise ValueError(
                f"warm-start matching selects ({u}, {v}), which is not an "
                f"edge of graph {graph.name!r}"
            )
        row_load[u] += 1
        col_load[v] += 1
    if np.any(row_load > b_row) or np.any(col_load > b_col):
        raise ValueError(
            "warm-start matching exceeds a vertex capacity of graph "
            f"{graph.name!r}"
        )
    return pairs


def capacitated_augment_matching(
    graph: BipartiteGraph,
    initial: Matching | CapacitatedMatching | None = None,
    config=None,
    device=None,
) -> MatchingResult:
    """Maximum b-matching of ``graph`` by residual augmenting-path search."""
    b_row, b_col = effective_capacities(graph)
    if int(b_row.max(initial=1)) == 1 and int(b_col.max(initial=1)) == 1:
        # Ordinary matching: delegate to Hopcroft–Karp (bit-identical).
        from repro.seq.hopcroft_karp import hopcroft_karp_matching

        if isinstance(initial, CapacitatedMatching):
            initial = Matching.from_pairs(graph, initial.pairs())
        result = hopcroft_karp_matching(graph, initial=initial)
        result.counters["capacity_delegated"] = 1
        return result

    start = time.perf_counter()
    n_rows, n_cols = graph.n_rows, graph.n_cols
    cptr, cind = graph.csr_lists("col")
    b_row_list, b_col_list = b_row.tolist(), b_col.tolist()

    # Selected edge set: per-row and per-column insertion-ordered dict-sets
    # plus integer loads (kept in lockstep).
    row_sel: list[dict[int, None]] = [dict() for _ in range(n_rows)]
    col_sel: list[dict[int, None]] = [dict() for _ in range(n_cols)]
    row_load = [0] * n_rows
    col_load = [0] * n_cols

    def select(u: int, v: int) -> None:
        row_sel[u][v] = None
        col_sel[v][u] = None
        row_load[u] += 1
        col_load[v] += 1

    def deselect(u: int, v: int) -> None:
        del row_sel[u][v]
        del col_sel[v][u]
        row_load[u] -= 1
        col_load[v] -= 1

    if initial is not None:
        for u, v in _seed_pairs(graph, initial, b_row, b_col):
            select(u, v)

    counters = {"edges_scanned": 0, "searches": 0, "augmentations": 0, "sweeps": 0}

    def try_augment(v0: int) -> bool:
        """One residual DFS from column ``v0``; flips the path on success."""
        counters["searches"] += 1
        scanned = 0
        visited_row = bytearray(n_rows)
        visited_col = bytearray(n_cols)
        visited_col[v0] = 1
        # Frame: [col, forward CSR cursor, entry_row, bwd_cols, bwd_idx,
        # pending_row].  ``entry_row`` is the saturated row whose selected
        # edge led into this column (None at the root); it is what
        # augmentation flips on the way back up.  ``bwd_cols``/``bwd_idx``
        # iterate the selected columns of ``pending_row`` (the saturated row
        # currently being explored), so a failed descent resumes with that
        # row's *next* selected column before the forward scan moves on.
        frames: list[list] = [[v0, cptr[v0], None, None, 0, -1]]
        try:
            while frames:
                frame = frames[-1]
                descended = False
                while frame[3] is not None:
                    # Resume the backward iteration of the pending row.
                    if frame[4] < len(frame[3]):
                        v2 = frame[3][frame[4]]
                        frame[4] += 1
                        if not visited_col[v2]:
                            visited_col[v2] = 1
                            frames.append([v2, cptr[v2], frame[5], None, 0, -1])
                            descended = True
                            break
                    else:
                        frame[3] = None
                if descended:
                    continue
                v, ptr = frame[0], frame[1]
                end = cptr[v + 1]
                while ptr < end:
                    u = cind[ptr]
                    ptr += 1
                    scanned += 1
                    if visited_row[u] or v in row_sel[u]:
                        continue  # already explored, or not a forward edge
                    visited_row[u] = 1
                    if row_load[u] < b_row_list[u]:
                        # Free row: flip the alternating path frame by frame.
                        select(u, v)
                        for depth in range(len(frames) - 1, 0, -1):
                            child = frames[depth]
                            parent = frames[depth - 1]
                            deselect(child[2], child[0])
                            select(child[2], parent[0])
                        return True
                    # Saturated row: descend through its selected columns
                    # (insertion order keeps this deterministic).
                    frame[1] = ptr
                    frame[3] = list(row_sel[u])
                    frame[4] = 0
                    frame[5] = u
                    descended = True
                    break
                if descended:
                    continue
                frame[1] = ptr
                frames.pop()
            return False
        finally:
            counters["edges_scanned"] += scanned

    while True:
        counters["sweeps"] += 1
        progress = False
        for v in range(n_cols):
            while col_load[v] < b_col_list[v] and try_augment(v):
                counters["augmentations"] += 1
                progress = True
        if not progress:
            break

    pairs = [(u, v) for u in range(n_rows) for v in row_sel[u]]
    matching = CapacitatedMatching.from_pairs(graph, pairs)
    return MatchingResult.create(
        "B-AUG",
        matching,
        counters=counters,
        modeled_time=CpuCostModel().seconds(counters["edges_scanned"]),
        wall_time=time.perf_counter() - start,
    )
