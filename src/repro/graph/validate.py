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
from repro.graph.builders import _row_csr

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
    _check_csr(graph.col_ptr, graph.col_ind, graph.n_rows, side="column")
    _check_csr(graph.row_ptr, graph.row_ind, graph.n_cols, side="row")

    # Both sides are sorted and duplicate-free now, so they describe the
    # same edge set exactly when the column side, transposed, is the row side.
    row_ptr, row_ind = _row_csr(graph.col_ind, graph.edge_columns(), graph.n_rows, graph.n_cols)
    if not (np.array_equal(row_ptr, graph.row_ptr) and np.array_equal(row_ind, graph.row_ind)):
        raise GraphValidationError(
            "column-major and row-major CSR structures describe different edge sets"
        )


def _check_csr(ptr: np.ndarray, ind: np.ndarray, n_inner: int, side: str) -> None:
    if np.any(np.diff(ptr) < 0):
        raise GraphValidationError(f"{side} pointer array is not monotone non-decreasing")
    if len(ind) and (ind.min() < 0 or ind.max() >= n_inner):
        raise GraphValidationError(
            f"{side} adjacency contains an index outside [0, {n_inner})"
        )
    # Every step between neighbours of one list must go up; the first one
    # that does not names the first offending vertex.
    steps = np.diff(ind)
    inside = np.ones(len(steps), dtype=bool)
    cuts = ptr[1:-1] - 1  # the steps from one list into the next
    inside[cuts[(cuts >= 0) & (cuts < len(steps))]] = False
    bad = np.flatnonzero(inside & (steps <= 0))
    if len(bad):
        outer = int(np.searchsorted(ptr, bad[0], side="right")) - 1
        if np.any(steps[ptr[outer] : ptr[outer + 1] - 1] < 0):
            raise GraphValidationError(f"{side} adjacency list of vertex {outer} is not sorted")
        raise GraphValidationError(
            f"{side} adjacency list of vertex {outer} contains duplicate edges"
        )
