"""Sequential shortest-augmenting-path (Hungarian / Jonker–Volgenant style)
weighted matching with dual variables.

The solver computes a **maximum-weight matching among the maximum-cardinality
matchings** of a weighted bipartite graph (or minimum-weight, with
``objective="min"``) by successive shortest augmenting paths:

* effective weights ``ŵ`` are turned into non-negative costs
  ``c = max(ŵ) − ŵ``; minimising cost per cardinality level is then
  equivalent to maximising effective weight per cardinality level (the
  constant shift cancels between matchings of equal cardinality);
* each *phase* runs one Dijkstra over reduced costs
  ``c(u, v) − π_row[u] − π_col[v]`` from **all** free rows simultaneously (a
  virtual super-source) and augments along the globally cheapest alternating
  path to a free column.  Starting from every free row at once is what makes
  the invariant "after ``k`` phases the matching is a minimum-cost matching
  of cardinality ``k``" hold on graphs where some rows are unmatchable;
* dual updates keep every reduced cost non-negative and every matched edge
  tight, so at termination the potentials convert directly into the
  reduced-form :class:`~repro.weighted.duals.DualCertificate` (conditions
  listed in :mod:`repro.weighted.duals`): every free row holds the same
  potential ``Δ`` (the sum of all phase distances — each phase adds ``δ`` to
  every still-free row), giving ``π = Δ − u ≥ 0`` with ``π = 0`` exactly on
  the free rows.

This is the exact-arithmetic reference solver; the ε-scaling auction in
:mod:`repro.weighted.auction` trades exactness guarantees for a massively
parallel structure.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.weighted.duals import (
    DualCertificate,
    _check_objective,
    effective_weights,
    matching_total_weight,
)

__all__ = ["SAPConfig", "weighted_sap_matching"]


@dataclass(frozen=True)
class SAPConfig:
    """Tuning knobs of the shortest-augmenting-path solver.

    Attributes
    ----------
    objective:
        ``"max"`` (default) maximises total weight, ``"min"`` minimises it —
        in both cases among *maximum-cardinality* matchings.
    """

    objective: str = "max"

    def __post_init__(self) -> None:
        _check_objective(self.objective)


def weighted_sap_matching(
    graph: BipartiteGraph, config: SAPConfig | None = None
) -> MatchingResult:
    """Optimal-weight maximum-cardinality matching via shortest augmenting paths.

    Parameters
    ----------
    graph:
        The bipartite graph.  Weightless graphs are solved with unit weights
        (plain maximum-cardinality matching).
    config:
        A :class:`SAPConfig`; defaults to weight maximisation.

    Returns
    -------
    MatchingResult
        ``counters["total_weight"]`` holds the matching's total weight under
        the graph's original weights, and ``result.duals`` carries the
        reduced-form :class:`~repro.weighted.duals.DualCertificate`.
    """
    t0 = time.perf_counter()
    cfg = config or SAPConfig()
    n_rows, n_cols = graph.n_rows, graph.n_cols
    what = effective_weights(graph, cfg.objective, row_aligned=True)
    w_max = float(what.max()) if len(what) else 0.0
    cost = w_max - what  # ≥ 0, parallel to graph.row_ind

    row_ptr, row_ind = graph.row_ptr, graph.row_ind
    row_match = np.full(n_rows, UNMATCHED, dtype=np.int64)
    col_match = np.full(n_cols, UNMATCHED, dtype=np.int64)
    u = np.zeros(n_rows, dtype=np.float64)  # row potentials
    v = np.zeros(n_cols, dtype=np.float64)  # column potentials
    delta_total = 0.0
    counters = {"phases": 0, "augmentations": 0, "edges_scanned": 0}

    dist = np.empty(n_cols, dtype=np.float64)
    prev_row = np.empty(n_cols, dtype=np.int64)
    entry = np.empty(n_rows, dtype=np.float64)

    while True:
        free_rows = np.flatnonzero(row_match == UNMATCHED)
        if len(free_rows) == 0:
            break
        counters["phases"] += 1
        # Multi-source Dijkstra over reduced costs, starting from every free
        # row at distance 0.
        dist.fill(np.inf)
        prev_row.fill(-1)
        entry.fill(np.inf)
        heap: list[tuple[float, int]] = []
        popped_cols: list[int] = []
        for i in free_rows:
            entry[i] = 0.0
            start, stop = row_ptr[i], row_ptr[i + 1]
            counters["edges_scanned"] += int(stop - start)
            for e in range(start, stop):
                j = row_ind[e]
                nd = cost[e] - u[i] - v[j]
                if nd < dist[j]:
                    dist[j] = nd
                    prev_row[j] = i
                    heapq.heappush(heap, (nd, int(j)))
        target = -1
        delta = np.inf
        matched_scanned: list[int] = []
        while heap:
            d, j = heapq.heappop(heap)
            if d > dist[j]:
                continue  # stale entry
            if col_match[j] == UNMATCHED:
                target = j
                delta = d
                break
            popped_cols.append(j)
            i = int(col_match[j])
            entry[i] = d
            matched_scanned.append(i)
            start, stop = row_ptr[i], row_ptr[i + 1]
            counters["edges_scanned"] += int(stop - start)
            for e in range(start, stop):
                j2 = row_ind[e]
                nd = d + cost[e] - u[i] - v[j2]
                if nd < dist[j2]:
                    dist[j2] = nd
                    prev_row[j2] = i
                    heapq.heappush(heap, (nd, int(j2)))
        if target < 0:
            break  # no augmenting path exists: the matching is maximum
        # Dual updates: columns finalised strictly below δ sink by δ − dist,
        # every scanned row (all free rows enter at distance 0) rises by
        # δ − entry.  Matched edges stay tight, reduced costs stay ≥ 0.
        for j in popped_cols:
            v[j] += dist[j] - delta
        u[free_rows] += delta
        for i in matched_scanned:
            u[i] += delta - entry[i]
        delta_total += delta
        # Augment along the shortest-path tree.
        j = target
        while True:
            i = int(prev_row[j])
            j_next = int(row_match[i])
            row_match[i] = j
            col_match[j] = i
            if j_next == UNMATCHED:
                break
            j = j_next
        counters["augmentations"] += 1

    duals = DualCertificate(
        objective=cfg.objective,
        lam=w_max - delta_total,
        row_duals=delta_total - u,
        col_duals=-v,
    )
    matching = Matching(row_match, col_match)
    counters["total_weight"] = matching_total_weight(graph, matching)
    counters["objective"] = cfg.objective
    return MatchingResult.create(
        "W-SAP",
        matching,
        counters=counters,
        modeled_time=CpuCostModel().seconds(counters["edges_scanned"]),
        wall_time=time.perf_counter() - t0,
        duals=duals,
    )
