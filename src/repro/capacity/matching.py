"""The b-matching container shared by every capacitated solver.

A *b-matching* of a bipartite graph ``G = (VR ∪ VC, E)`` with per-vertex
capacities ``b_row`` / ``b_col`` is a set of edges ``S ⊆ E`` (each edge at
most once) such that row ``u`` is covered by at most ``b_row[u]`` edges of
``S`` and column ``v`` by at most ``b_col[v]``.  A 1-regular b-matching is an
ordinary matching, but in general a vertex pairs with *several* partners, so
the ``row_match`` / ``col_match`` arrays of :class:`repro.matching.Matching`
cannot represent it.  This container stores the selected edge set directly,
as two parallel index arrays kept in lexicographic ``(row, col)`` order so
that equal edge sets compare (and serialize) identically.

:class:`CapacitatedMatching` implements the same structural protocol the
result pipeline relies on for :class:`~repro.matching.Matching` —
``canonical()``, ``cardinality``, ``copy()``, ``pairs()`` and
``check_compatible()`` — so :class:`~repro.matching.MatchingResult` and the
engine backends (including pickling across process boundaries) handle both
containers uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = ["CapacitatedMatching", "effective_capacities"]


def effective_capacities(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's ``(b_row, b_col)``, defaulting to all-ones when absent.

    Every capacitated solver goes through this helper so a capacity-free
    graph uniformly means "ordinary matching" (b = 1 everywhere).
    """
    if graph.has_capacities:
        return graph.b_row, graph.b_col
    return (
        np.ones(graph.n_rows, dtype=np.int64),
        np.ones(graph.n_cols, dtype=np.int64),
    )


@dataclass
class CapacitatedMatching:
    """A (not necessarily maximum) b-matching stored as an explicit edge set.

    Attributes
    ----------
    edge_rows, edge_cols:
        Parallel ``int64`` arrays: the ``k``-th selected edge joins row
        ``edge_rows[k]`` and column ``edge_cols[k]``.  Kept sorted by
        ``(row, col)`` and duplicate-free (``__post_init__`` enforces both).
    n_rows, n_cols:
        Vertex counts of the graph the matching was built for, needed to
        size the load vectors and to validate compatibility.
    """

    edge_rows: np.ndarray
    edge_cols: np.ndarray
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        rows = np.asarray(self.edge_rows, dtype=np.int64)
        cols = np.asarray(self.edge_cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"edge_rows/edge_cols must be parallel 1-D arrays, "
                f"got shapes {rows.shape} and {cols.shape}"
            )
        if len(rows):
            # One sort of the (row, col) keys orders the edges and puts
            # repeats side by side.
            low = int(cols.min())
            width = int(cols.max()) - low + 1
            keys = rows * width + (cols - low)
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("a b-matching selects each edge at most once")
            rows, cols = np.divmod(keys, width)
            cols += low
        self.edge_rows = rows
        self.edge_cols = cols

    # ------------------------------------------------------------ constructors
    @classmethod
    def empty(cls, graph: BipartiteGraph) -> "CapacitatedMatching":
        """The empty b-matching of ``graph``."""
        zero = np.empty(0, dtype=np.int64)
        return cls(zero, zero.copy(), graph.n_rows, graph.n_cols)

    @classmethod
    def from_pairs(
        cls, graph: BipartiteGraph, pairs: Iterable[tuple[int, int]]
    ) -> "CapacitatedMatching":
        """Build a b-matching from ``(row, col)`` pairs, bounds-checked."""
        pair_list = [(int(u), int(v)) for u, v in pairs]
        for u, v in pair_list:
            if not 0 <= u < graph.n_rows:
                raise ValueError(
                    f"pair ({u}, {v}): row index {u} out of range [0, {graph.n_rows})"
                )
            if not 0 <= v < graph.n_cols:
                raise ValueError(
                    f"pair ({u}, {v}): column index {v} out of range [0, {graph.n_cols})"
                )
        rows = np.array([u for u, _ in pair_list], dtype=np.int64)
        cols = np.array([v for _, v in pair_list], dtype=np.int64)
        return cls(rows, cols, graph.n_rows, graph.n_cols)

    # -------------------------------------------------------------- properties
    @property
    def cardinality(self) -> int:
        """Number of selected edges (the objective of maximum b-matching)."""
        return int(len(self.edge_rows))

    def row_loads(self) -> np.ndarray:
        """How many selected edges cover each row vertex."""
        return np.bincount(self.edge_rows, minlength=self.n_rows).astype(np.int64)

    def col_loads(self) -> np.ndarray:
        """How many selected edges cover each column vertex."""
        return np.bincount(self.edge_cols, minlength=self.n_cols).astype(np.int64)

    def check_compatible(self, graph: BipartiteGraph, *, context: str = "matching") -> None:
        """Raise ``ValueError`` unless this b-matching fits ``graph``'s shape.

        Mirrors :meth:`repro.matching.Matching.check_compatible`: shape and
        index-range checks with a message naming the graph, so a matching
        built for a different graph fails loudly at the API boundary.
        """
        if self.n_rows != graph.n_rows or self.n_cols != graph.n_cols:
            raise ValueError(
                f"{context} has shape ({self.n_rows}, {self.n_cols}) "
                f"but graph {graph.name!r} has shape ({graph.n_rows}, {graph.n_cols}); "
                "was it built for a different graph?"
            )
        if len(self.edge_rows):
            if int(self.edge_rows.min()) < 0 or int(self.edge_rows.max()) >= graph.n_rows:
                raise ValueError(
                    f"{context} selects a row outside graph {graph.name!r}'s "
                    f"row range [0, {graph.n_rows})"
                )
            if int(self.edge_cols.min()) < 0 or int(self.edge_cols.max()) >= graph.n_cols:
                raise ValueError(
                    f"{context} selects a column outside graph {graph.name!r}'s "
                    f"column range [0, {graph.n_cols})"
                )

    # ------------------------------------------------------------------- utils
    def copy(self) -> "CapacitatedMatching":
        """Deep copy."""
        return CapacitatedMatching(
            self.edge_rows.copy(), self.edge_cols.copy(), self.n_rows, self.n_cols
        )

    def canonical(self) -> "CapacitatedMatching":
        """This b-matching in canonical form.

        ``__post_init__`` already sorts and rejects duplicates, so the
        canonical form is simply a copy — the method exists because
        :meth:`repro.matching.MatchingResult.create` canonicalises every
        matching it is handed, whichever container it is.
        """
        return self.copy()

    def pairs(self) -> list[tuple[int, int]]:
        """All selected ``(row, col)`` pairs in lexicographic order."""
        return [
            (int(u), int(v))
            for u, v in zip(self.edge_rows.tolist(), self.edge_cols.tolist())
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapacitatedMatching):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.edge_rows, other.edge_rows)
            and np.array_equal(self.edge_cols, other.edge_cols)
        )
