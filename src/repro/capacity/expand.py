"""Capacitated b-matching by clone expansion.

The textbook reduction: replace row ``u`` by ``b_row[u]`` clones and column
``v`` by ``b_col[v]`` clones, then solve an ordinary maximum matching on the
expanded graph.  Cloning *both* endpoints of an edge would let the edge be
used ``min(b_u, c_v)`` times, which a b-matching forbids — so every edge
whose endpoints are both cloned goes through a 2-vertex *gadget* instead:

.. code-block:: text

    u_1 .. u_bu ──── c_e ──── r_e ──── v_1 .. v_cv

Row clones connect to the gadget column ``c_e``, the gadget row ``r_e``
connects to the column clones, and ``c_e — r_e`` is itself an edge.  A
maximum matching always matches each gadget at least once (``c_e — r_e`` is
free otherwise), and matches it **twice** exactly when the original edge is
selected, so

    ``max-matching(expansion) = n_gadgets + max-b-matching(G)``

and the selected edge set reads off the matched gadgets.  Edges with at most
one cloned endpoint skip the gadget and connect the clones directly.

The expansion is solved with any registered maximum-cardinality algorithm
(``inner``, default ``"hk"``); with all capacities at 1 the expansion *is*
the input graph, so the solver delegates to the inner algorithm outright and
returns its bit-identical result.
"""

from __future__ import annotations

import time

import numpy as np

from repro.capacity.matching import CapacitatedMatching, effective_capacities
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import from_edges
from repro.matching import MatchingResult

__all__ = ["build_expansion", "capacitated_expand_matching"]


def _inner_plan(inner: str):
    """Resolve and validate the inner (expansion) algorithm."""
    # Imported lazily: repro.core.api registers *this* module's runner.
    from repro.core.api import SPECS, resolve_algorithm

    key = str(inner).strip().lower()
    spec = SPECS.get(key)
    if spec is None:
        raise ValueError(
            f"unknown inner algorithm {inner!r} for b-expand; "
            f"available: {', '.join(sorted(SPECS))}"
        )
    if not spec.maximum or spec.weighted or spec.capacitated:
        raise ValueError(
            f"b-expand needs a maximum-cardinality, cardinality-only inner "
            f"algorithm to solve the expansion; {key!r} is not one"
        )
    return resolve_algorithm(key)


def build_expansion(
    graph: BipartiteGraph,
) -> tuple[BipartiteGraph, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clone-expansion of ``graph`` plus the bookkeeping to fold back.

    Returns ``(expansion, base_row, base_col, gadget_u, gadget_v)`` where
    ``base_row[u]`` is the first expansion row index of ``u``'s clones
    (``base_col`` likewise for columns), and gadget ``g`` — expansion row
    ``n_row_clones + g``, expansion column ``n_col_clones + g`` — stands for
    the original edge ``(gadget_u[g], gadget_v[g])``.
    """
    b_row, b_col = effective_capacities(graph)
    base_row = np.concatenate([[0], np.cumsum(b_row)]).astype(np.int64)
    base_col = np.concatenate([[0], np.cumsum(b_col)]).astype(np.int64)
    n_row_clones = int(base_row[-1])
    n_col_clones = int(base_col[-1])

    edge_u = graph.col_ind.tolist()
    edge_v = graph.edge_columns().tolist()
    b_row_list, b_col_list = b_row.tolist(), b_col.tolist()
    row_base, col_base = base_row.tolist(), base_col.tolist()

    exp_edges: list[tuple[int, int]] = []
    gadget_u: list[int] = []
    gadget_v: list[int] = []
    for u, v in zip(edge_u, edge_v):
        bu, cv = b_row_list[u], b_col_list[v]
        if bu > 1 and cv > 1:
            g = len(gadget_u)
            r_e = n_row_clones + g
            c_e = n_col_clones + g
            gadget_u.append(u)
            gadget_v.append(v)
            for i in range(bu):
                exp_edges.append((row_base[u] + i, c_e))
            for j in range(cv):
                exp_edges.append((r_e, col_base[v] + j))
            exp_edges.append((r_e, c_e))
        elif bu > 1:  # cv == 1: clone the row side only
            for i in range(bu):
                exp_edges.append((row_base[u] + i, col_base[v]))
        else:  # bu == 1: clone the column side only (or neither)
            for j in range(cv):
                exp_edges.append((row_base[u], col_base[v] + j))

    n_gadgets = len(gadget_u)
    expansion = from_edges(
        exp_edges,
        n_rows=n_row_clones + n_gadgets,
        n_cols=n_col_clones + n_gadgets,
        name=f"{graph.name}:b-expand",
    )
    return (
        expansion,
        base_row,
        base_col,
        np.asarray(gadget_u, dtype=np.int64),
        np.asarray(gadget_v, dtype=np.int64),
    )


def capacitated_expand_matching(
    graph: BipartiteGraph,
    initial=None,
    config=None,
    device=None,
    *,
    inner: str = "hk",
) -> MatchingResult:
    """Maximum b-matching of ``graph`` via the clone expansion.

    With every (effective) capacity equal to 1 the expansion is the input
    graph itself, so the call delegates to the ``inner`` algorithm and
    returns its result unchanged (bit-identical matching arrays).  Either
    way the result's modelled seconds are the inner solve's.
    """
    plan = _inner_plan(inner)
    b_row, b_col = effective_capacities(graph)
    if int(b_row.max(initial=1)) == 1 and int(b_col.max(initial=1)) == 1:
        result = plan.run(graph)
        result.counters["capacity_delegated"] = 1
        return result

    start = time.perf_counter()
    expansion, base_row, base_col, gadget_u, gadget_v = build_expansion(graph)
    inner_result = plan.run(expansion)

    n_row_clones = int(base_row[-1])
    n_col_clones = int(base_col[-1])
    n_gadgets = len(gadget_u)
    row_match = inner_result.matching.row_match  # canonical: row side is truth

    pairs: list[tuple[int, int]] = []
    # Direct clone edges: a matched (row-clone, column-clone) pair folds
    # straight back to its original endpoints.
    clone_rows = np.arange(n_row_clones, dtype=np.int64)
    clone_cols = row_match[:n_row_clones]
    direct = clone_cols >= 0
    direct &= clone_cols < n_col_clones
    orig_u = np.searchsorted(base_row, clone_rows[direct], side="right") - 1
    orig_v = np.searchsorted(base_col, clone_cols[direct], side="right") - 1
    pairs.extend(zip(orig_u.tolist(), orig_v.tolist()))
    # Gadgets: edge g is selected exactly when both gadget vertices are
    # matched *away* from each other (c_e to a row clone, r_e to a column
    # clone); c_e—r_e matched (or a half-matched gadget) means unselected.
    if n_gadgets:
        c_e_matched = np.zeros(n_gadgets, dtype=bool)
        gadget_col_hit = row_match[:n_row_clones] - n_col_clones
        hit = gadget_col_hit >= 0
        c_e_matched[gadget_col_hit[hit]] = True
        r_e_match = row_match[n_row_clones:]
        r_e_matched = (r_e_match >= 0) & (r_e_match < n_col_clones)
        selected = np.flatnonzero(c_e_matched & r_e_matched)
        pairs.extend(zip(gadget_u[selected].tolist(), gadget_v[selected].tolist()))

    matching = CapacitatedMatching.from_pairs(graph, pairs)
    counters = dict(inner_result.counters)
    counters.update(
        expansion_rows=expansion.n_rows,
        expansion_cols=expansion.n_cols,
        expansion_edges=expansion.n_edges,
        gadgets=n_gadgets,
    )
    return MatchingResult.create(
        f"B-EXP[{inner_result.algorithm}]",
        matching,
        counters=counters,
        modeled_time=inner_result.modeled_time,
        wall_time=time.perf_counter() - start,
    )
