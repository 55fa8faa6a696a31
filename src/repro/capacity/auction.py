"""Capacitated ε-scaling auction: many-to-one weighted assignment.

Reuses the Jacobi bidding rounds of :func:`repro.weighted.auction.
weighted_auction_matching` unchanged.  Column ``v`` (an *object* in auction
terms) with capacity ``c_v`` becomes ``c_v`` clone objects carrying the same
edge weights; rows bid on the clones exactly as in the 1-regular auction,
and the matched clones fold back to ``c_v``-many assignments on the
original column.  Row capacities must all be 1 — a row (a *person*) bids
for a single object per auction round, so one-to-many rows have no faithful
auction formulation here; general b-matchings go through ``b-expand`` or
``b-aug`` instead.

With every effective capacity at 1 the clone graph is the input graph, so
the solver delegates to the uncapacitated auction outright and returns its
bit-identical result (dual certificate included).  On the genuinely
capacitated path the certificate is dropped: the expanded duals price the
clone objects, not the original columns.
"""

from __future__ import annotations

import time

import numpy as np

from repro.capacity.matching import CapacitatedMatching, effective_capacities
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import from_edges
from repro.matching import MatchingResult
from repro.weighted.auction import AuctionConfig, weighted_auction_matching

__all__ = ["capacitated_auction_matching"]


def capacitated_auction_matching(
    graph: BipartiteGraph,
    initial=None,
    config: AuctionConfig | None = None,
    device=None,
) -> MatchingResult:
    """Maximum-cardinality, weight-optimal many-to-one assignment of ``graph``.

    The result's modelled seconds are the wrapped auction's: the device's
    when one is given, the CPU cost model's otherwise.
    """
    b_row, b_col = effective_capacities(graph)
    if int(b_row.max(initial=1)) == 1 and int(b_col.max(initial=1)) == 1:
        result = weighted_auction_matching(graph, config=config, device=device)
        result.counters["capacity_delegated"] = 1
        return result
    if int(b_row.max(initial=1)) > 1:
        offender = int(np.argmax(b_row))
        raise ValueError(
            "b-auction solves many-to-one assignment: every row capacity "
            f"must be 1, but b_row[{offender}]={int(b_row[offender])} on "
            f"graph {graph.name!r}; use 'b-expand' or 'b-aug' for general "
            "b-matchings"
        )

    start = time.perf_counter()
    # Expand each column into b_col[v] clone objects with replicated weights.
    edge_u = graph.col_ind
    edge_v = graph.edge_columns()
    base_col = np.concatenate([[0], np.cumsum(b_col)]).astype(np.int64)
    reps = b_col[edge_v]
    if graph.n_edges:
        csum = np.cumsum(reps)
        offsets = np.arange(int(csum[-1]), dtype=np.int64) - np.repeat(csum - reps, reps)
        rows_exp = np.repeat(edge_u, reps)
        cols_exp = np.repeat(base_col[edge_v], reps) + offsets
        weights_exp = np.repeat(graph.weights, reps) if graph.has_weights else None
        edges_exp = np.column_stack([rows_exp, cols_exp])
    else:
        edges_exp = np.empty((0, 2), dtype=np.int64)
        weights_exp = np.empty(0, dtype=np.float64) if graph.has_weights else None
    expanded = from_edges(
        edges_exp,
        n_rows=graph.n_rows,
        n_cols=int(base_col[-1]),
        name=f"{graph.name}:b-auction",
        weights=weights_exp,
    )

    result = weighted_auction_matching(expanded, config=config, device=device)

    # Fold clone objects back to their original columns.
    row_match = result.matching.row_match
    matched = np.flatnonzero(row_match >= 0)
    orig_cols = np.searchsorted(base_col, row_match[matched], side="right") - 1
    matching = CapacitatedMatching(
        matched.astype(np.int64), orig_cols.astype(np.int64), graph.n_rows, graph.n_cols
    )

    counters = dict(result.counters)
    counters.update(
        expansion_cols=expanded.n_cols,
        expansion_edges=expanded.n_edges,
        # Recomputed on the original graph; the clones replicate weights, so
        # this equals the expanded objective, but the original graph is the
        # contract the caller cares about.
        total_weight=float(
            sum(
                graph.edge_weight(u, v) if graph.has_weights else 1.0
                for u, v in matching.pairs()
            )
        ),
    )
    return MatchingResult.create(
        "B-AUC",
        matching,
        counters=counters,
        modeled_time=result.modeled_time,
        wall_time=time.perf_counter() - start,
    )
