"""Structural validation of bipartite graphs, and the solvers' integer check.

The builders in :mod:`repro.graph.builders` always produce valid graphs; this
module exists for graphs deserialised from disk or constructed manually, and
as the error-reporting backend of the property-based tests.
:func:`check_int` is the one test every integer solver option passes when
its config or plan is made.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = ["GraphValidationError", "check_int", "validate_graph"]


def check_int(name: str, value, minimum: int, *, optional: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= minimum``.

    A bool is not an integer here.  With ``optional``, ``None`` passes too.
    """
    if optional and value is None:
        return
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


class GraphValidationError(ValueError):
    """Raised when a graph violates a structural invariant."""


def validate_graph(graph: BipartiteGraph) -> None:
    """Check all CSR invariants of ``graph``.

    Raises
    ------
    GraphValidationError
        With a message naming the first violated invariant.  The checks are:
        monotone pointer arrays, in-range indices, sorted and duplicate-free
        adjacency lists, and agreement between the column-major and row-major
        structures (same edge set).
    """
    _check_csr(graph.col_ptr, graph.col_ind, graph.n_cols, graph.n_rows, side="column")
    _check_csr(graph.row_ptr, graph.row_ind, graph.n_rows, graph.n_cols, side="row")

    # The two CSR structures must describe the same edge set.
    col_edges = graph.edges()
    rows = np.repeat(np.arange(graph.n_rows, dtype=np.int64), graph.row_degrees)
    row_edges = np.column_stack([rows, graph.row_ind])
    col_sorted = col_edges[np.lexsort((col_edges[:, 1], col_edges[:, 0]))]
    row_sorted = row_edges[np.lexsort((row_edges[:, 1], row_edges[:, 0]))]
    if not np.array_equal(col_sorted, row_sorted):
        raise GraphValidationError(
            "column-major and row-major CSR structures describe different edge sets"
        )


def _check_csr(ptr: np.ndarray, ind: np.ndarray, n_outer: int, n_inner: int, side: str) -> None:
    if np.any(np.diff(ptr) < 0):
        raise GraphValidationError(f"{side} pointer array is not monotone non-decreasing")
    if len(ind) and (ind.min() < 0 or ind.max() >= n_inner):
        raise GraphValidationError(
            f"{side} adjacency contains an index outside [0, {n_inner})"
        )
    for outer in range(n_outer):
        seg = ind[ptr[outer] : ptr[outer + 1]]
        if len(seg) > 1:
            diffs = np.diff(seg)
            if np.any(diffs < 0):
                raise GraphValidationError(f"{side} adjacency list of vertex {outer} is not sorted")
            if np.any(diffs == 0):
                raise GraphValidationError(
                    f"{side} adjacency list of vertex {outer} contains duplicate edges"
                )
