"""Sequential push-relabel bipartite matching (the paper's ``PR`` baseline).

This is Algorithm 1 of the paper with the standard practical refinements the
paper describes in §II-B/C:

* FIFO processing of active columns,
* full ``ψ`` arrays for both rows and columns,
* periodic **global relabeling** (Algorithm 2): a BFS from all unmatched rows
  that resets every label to the exact alternating-path distance, triggered
  every ``k × (n + m)`` pushes (the paper uses ``k = 0.5`` for its data set),
* optional **gap relabeling**: when some label value has no remaining column,
  every column above the gap is unreachable and is retired immediately.

The implementation counts its work (edges scanned, pushes, relabels, global
relabel traversals) so the benchmark harness can convert the counts into a
modelled sequential runtime comparable with the GPU cost model.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from collections import deque

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import distance_label_bfs
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["PushRelabelConfig", "push_relabel_matching"]


@dataclass(frozen=True)
class PushRelabelConfig:
    """Tuning knobs of the sequential push-relabel algorithm.

    A global relabel always runs before the first push, as the paper does
    for the GPU algorithm.

    Attributes
    ----------
    global_relabel_k:
        A global relabel is performed every ``global_relabel_k * (n + m)``
        pushes; a finite number > 0.  The paper reports ``k = 0.5`` as the
        best value for its data set and uses it in the experiments.
    gap_relabeling:
        Enable the gap heuristic (a bool).
    """

    global_relabel_k: float = 0.5
    gap_relabeling: bool = True

    def __post_init__(self) -> None:
        k = self.global_relabel_k
        if not (isinstance(k, numbers.Real) and not isinstance(k, bool)
                and math.isfinite(k) and k > 0):
            raise ValueError(f"global_relabel_k must be a finite number > 0, got {k!r}")
        if not isinstance(self.gap_relabeling, bool):
            raise ValueError(f"gap_relabeling must be a bool, got {self.gap_relabeling!r}")


def _global_relabel(
    graph: BipartiteGraph,
    row_match: np.ndarray,
    col_match: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    counters: dict,
) -> int:
    """Algorithm 2: exact distance labels via BFS from all unmatched rows.

    Runs as one whole-frontier :func:`~repro.graph.frontier.distance_label_bfs`
    per call — levels and scanned-edge totals are identical to the historical
    deque traversal.  Returns the maximum (finite) level reached, i.e. the
    paper's ``maxLevel`` quantity used by the adaptive GPU strategy.
    """
    max_level, edges = distance_label_bfs(
        graph.row_ptr,
        graph.row_ind,
        row_match,
        col_match,
        psi_row,
        psi_col,
        graph.infinity_label,
    )
    counters["global_relabels"] += 1
    counters["gr_edges_scanned"] += edges
    return max_level


def push_relabel_matching(
    graph: BipartiteGraph,
    initial: Matching | None = None,
    config: PushRelabelConfig | None = None,
) -> MatchingResult:
    """Compute a maximum cardinality matching with the sequential PR algorithm.

    Parameters
    ----------
    graph:
        The bipartite graph.
    initial:
        Starting matching; when ``None`` the cheap greedy matching is used, as
        in the paper's experimental setup.
    config:
        Algorithm parameters; defaults follow the paper (``k = 0.5``).

    Returns
    -------
    MatchingResult
        With counters ``pushes``, ``single_pushes``, ``double_pushes``,
        ``edges_scanned``, ``relabels``, ``global_relabels``,
        ``gr_edges_scanned``, ``gap_events`` and ``init_edges_scanned``.
    """
    config = config or PushRelabelConfig()
    t0 = time.perf_counter()

    if initial is None:
        init_result = cheap_matching(graph)
        matching = init_result.matching
        init_edges = init_result.counters["edges_scanned"]
    else:
        matching = initial.copy().canonical()
        init_edges = 0
    row_match_arr = matching.row_match
    col_match_arr = matching.col_match

    m, n = graph.n_rows, graph.n_cols
    infinity = graph.infinity_label
    col_ptr, col_ind = graph.csr_lists("col")

    counters = {
        "pushes": 0,
        "single_pushes": 0,
        "double_pushes": 0,
        "edges_scanned": 0,
        "relabels": 0,
        "global_relabels": 0,
        "gr_edges_scanned": 0,
        "gap_events": 0,
        "init_edges_scanned": int(init_edges),
    }

    psi_row_arr = np.zeros(m, dtype=np.int64)
    psi_col_arr = np.ones(n, dtype=np.int64)

    _global_relabel(graph, row_match_arr, col_match_arr, psi_row_arr, psi_col_arr, counters)

    # The push loop touches one adjacency slice and a handful of labels per
    # iteration, so it runs on plain list state (frontier-layer split, see
    # repro.graph.frontier); the ndarrays cross back only for the vectorized
    # global relabels.
    row_match = row_match_arr.tolist()
    col_match = col_match_arr.tolist()
    psi_row = psi_row_arr.tolist()
    psi_col = psi_col_arr.tolist()

    active: deque[int] = deque(
        v for v in range(n) if col_match[v] == UNMATCHED and psi_col[v] < infinity
    )

    # Gap heuristic bookkeeping: number of columns per label value.
    label_counts = [0] * (2 * infinity + 3)
    if config.gap_relabeling:
        for label in psi_col:
            if label < infinity:
                label_counts[label] += 1

    relabel_threshold = max(1, int(config.global_relabel_k * (n + m)))
    pushes_since_relabel = 0
    edges_scanned = 0

    # hot-path
    while active:
        v = active.popleft()
        if col_match[v] >= 0:
            continue  # matched meanwhile (can happen after a global relabel rebuild)
        psi_v = psi_col[v]
        if psi_v >= infinity:
            continue

        # Find the neighbouring row with minimum label (early exit at ψ(v) − 1).
        stop = col_ptr[v + 1]
        psi_min = infinity
        u_min = -1
        target = psi_v - 1
        for idx in range(col_ptr[v], stop):
            edges_scanned += 1
            pu = psi_row[col_ind[idx]]
            if pu < psi_min:
                psi_min = pu
                u_min = col_ind[idx]
                if psi_min == target:
                    break

        if psi_min < infinity:
            u = u_min
            w = row_match[u]
            counters["pushes"] += 1
            pushes_since_relabel += 1
            if w != UNMATCHED:
                counters["double_pushes"] += 1
                col_match[w] = UNMATCHED
                active.append(w)
            else:
                counters["single_pushes"] += 1
            row_match[u] = v
            col_match[v] = u
            # Relabel v and u (maintaining the neighbourhood invariant).
            old_label = psi_col[v]
            psi_col[v] = psi_min + 1
            psi_row[u] = psi_min + 2
            counters["relabels"] += 2
            if config.gap_relabeling:
                if old_label < infinity:
                    label_counts[old_label] -= 1
                    if label_counts[old_label] == 0 and old_label > 0:
                        # Gap: every column strictly above the gap is unreachable.
                        # Each label value present above the gap is decremented
                        # once — the (buffered) fancy-assignment semantics of
                        # the historical `label_counts[psi_col[gapped]] -= 1`,
                        # which dropped duplicate occurrences.
                        counters["gap_events"] += 1
                        decremented = set()
                        for c in range(n):
                            label = psi_col[c]
                            if old_label < label < infinity:
                                if label not in decremented:
                                    decremented.add(label)
                                    label_counts[label] -= 1
                                psi_col[c] = infinity
                if psi_col[v] < infinity:
                    label_counts[psi_col[v]] += 1
        else:
            # v cannot reach an unmatched row: retire it.
            psi_col[v] = infinity
            continue

        if pushes_since_relabel >= relabel_threshold:
            pushes_since_relabel = 0
            row_match_arr = np.array(row_match, dtype=np.int64)
            col_match_arr = np.array(col_match, dtype=np.int64)
            _global_relabel(
                graph, row_match_arr, col_match_arr, psi_row_arr, psi_col_arr, counters
            )
            psi_row = psi_row_arr.tolist()
            psi_col = psi_col_arr.tolist()
            if config.gap_relabeling:
                label_counts = [0] * (2 * infinity + 3)
                for label in psi_col:
                    if label < infinity:
                        label_counts[label] += 1
            active = deque(
                c for c in range(n) if col_match[c] == UNMATCHED and psi_col[c] < infinity
            )
    # end hot-path

    counters["edges_scanned"] += edges_scanned
    wall = time.perf_counter() - t0
    result = Matching(
        np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64)
    )
    # Priced work: the push loop's and the global relabels' adjacency scans
    # plus one operation per label update.
    work = counters["edges_scanned"] + counters["gr_edges_scanned"] + counters["relabels"]
    return MatchingResult.create(
        "PR", result, counters=counters,
        modeled_time=CpuCostModel().seconds(work), wall_time=wall,
    )
