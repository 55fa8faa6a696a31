"""CSR bipartite graph container.

The paper works with bipartite graphs ``G = (VR ∪ VC, E)`` where ``VR`` is the
set of *rows* and ``VC`` the set of *columns* of a sparse matrix.  Both the
push-relabel kernels (which iterate over the neighbourhood ``Γ(v)`` of an
active column ``v``) and the global-relabeling BFS (which iterates over the
neighbourhood ``Γ(u)`` of a row ``u``) need fast adjacency access, so the
graph stores two CSR structures: columns→rows and rows→columns.

All index arrays use ``numpy.int64``.  The structure is immutable once built;
algorithms never modify it, they only allocate their own label / matching
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BipartiteGraph"]


def _as_int64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class BipartiteGraph:
    """An immutable bipartite graph in dual-CSR form.

    Attributes
    ----------
    n_rows:
        Number of row vertices (``m`` in the paper, the size of ``VR``).
    n_cols:
        Number of column vertices (``n`` in the paper, the size of ``VC``).
    col_ptr, col_ind:
        CSR adjacency of columns: the rows adjacent to column ``v`` are
        ``col_ind[col_ptr[v]:col_ptr[v + 1]]``.
    row_ptr, row_ind:
        CSR adjacency of rows: the columns adjacent to row ``u`` are
        ``row_ind[row_ptr[u]:row_ptr[u + 1]]``.
    weights:
        Optional ``float64`` edge weights, parallel to ``col_ind`` (one entry
        per edge, in column-CSR order).  ``None`` for purely structural
        graphs.  Weights participate in :meth:`content_hash`, so the result
        caches distinguish same-structure / different-weight graphs.
    b_row, b_col:
        Optional ``int64`` per-vertex capacities (the *b* of b-matching): row
        ``u`` may be matched to up to ``b_row[u]`` columns and column ``v``
        to up to ``b_col[v]`` rows.  Both are set together (or both
        ``None``); every capacity must be at least 1.  Like weights, the
        capacities participate in :meth:`content_hash`, and capacity-free
        graphs hash exactly as before capacities existed.

    Notes
    -----
    Use the builders in :mod:`repro.graph.builders` rather than constructing
    the arrays by hand; they deduplicate edges, sort adjacency lists and build
    the transposed CSR.

    **Hot-path convention** — the bounds-checked accessors
    (:meth:`column_neighbors` / :meth:`row_neighbors`) are the API for cold
    paths and user code.  Algorithm inner loops slice the CSR arrays
    directly (``col_ind[col_ptr[v]:col_ptr[v + 1]]``), use the whole-frontier
    helpers in :mod:`repro.graph.frontier`, and read degrees from the cached
    :attr:`col_degrees` / :attr:`row_degrees` properties; a Python-level
    bounds check per vertex is exactly the interpreter tax the vectorized
    frontier layer exists to avoid.
    """

    n_rows: int
    n_cols: int
    col_ptr: np.ndarray
    col_ind: np.ndarray
    row_ptr: np.ndarray
    row_ind: np.ndarray
    name: str = field(default="bipartite", compare=False)
    weights: np.ndarray | None = field(default=None, compare=False)
    b_row: np.ndarray | None = field(default=None, compare=False)
    b_col: np.ndarray | None = field(default=None, compare=False)

    # ------------------------------------------------------------------ init
    def __post_init__(self) -> None:
        object.__setattr__(self, "col_ptr", _as_int64(self.col_ptr))
        object.__setattr__(self, "col_ind", _as_int64(self.col_ind))
        object.__setattr__(self, "row_ptr", _as_int64(self.row_ptr))
        object.__setattr__(self, "row_ind", _as_int64(self.row_ind))
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("vertex counts must be non-negative")
        if len(self.col_ptr) != self.n_cols + 1:
            raise ValueError(
                f"col_ptr must have n_cols+1={self.n_cols + 1} entries, got {len(self.col_ptr)}"
            )
        if len(self.row_ptr) != self.n_rows + 1:
            raise ValueError(
                f"row_ptr must have n_rows+1={self.n_rows + 1} entries, got {len(self.row_ptr)}"
            )
        if self.col_ptr[0] != 0 or self.row_ptr[0] != 0:
            raise ValueError("CSR pointer arrays must start at 0")
        if self.col_ptr[-1] != len(self.col_ind):
            raise ValueError("col_ptr[-1] must equal len(col_ind)")
        if self.row_ptr[-1] != len(self.row_ind):
            raise ValueError("row_ptr[-1] must equal len(row_ind)")
        if len(self.col_ind) != len(self.row_ind):
            raise ValueError("column and row CSR structures must have the same edge count")
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=np.float64)
            if weights.ndim != 1:
                raise ValueError(f"weights must be a 1-D array, got shape {weights.shape}")
            if len(weights) != len(self.col_ind):
                raise ValueError(
                    f"weights must have one entry per edge ({len(self.col_ind)}), "
                    f"got {len(weights)}"
                )
            if not np.all(np.isfinite(weights)):
                raise ValueError("edge weights must be finite")
            object.__setattr__(self, "weights", weights)
        if (self.b_row is None) != (self.b_col is None):
            raise ValueError("capacities must be set on both sides (b_row and b_col) or neither")
        if self.b_row is not None:
            for label, caps, count in (
                ("b_row", self.b_row, self.n_rows),
                ("b_col", self.b_col, self.n_cols),
            ):
                arr = np.asarray(caps, dtype=np.int64)
                if arr.ndim != 1:
                    raise ValueError(f"{label} must be a 1-D array, got shape {arr.shape}")
                if len(arr) != count:
                    raise ValueError(
                        f"{label} must have one entry per vertex ({count}), got {len(arr)}"
                    )
                if len(arr) and int(arr.min()) < 1:
                    raise ValueError(f"{label} capacities must all be >= 1")
                object.__setattr__(self, label, arr)
        # Make the arrays read-only so accidental in-place edits by an
        # algorithm fail loudly instead of corrupting shared state.
        arrays = (self.col_ptr, self.col_ind, self.row_ptr, self.row_ind)
        for extra in (self.weights, self.b_row, self.b_col):
            if extra is not None:
                arrays = arrays + (extra,)
        for arr in arrays:
            arr.setflags(write=False)

    # ------------------------------------------------------------ properties
    @property
    def n_edges(self) -> int:
        """Number of (deduplicated) edges, ``τ`` in the paper."""
        return int(len(self.col_ind))

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_rows, n_cols)`` — matches the shape of the biadjacency matrix."""
        return (self.n_rows, self.n_cols)

    @property
    def n_vertices(self) -> int:
        """Total vertex count ``m + n``."""
        return self.n_rows + self.n_cols

    @property
    def infinity_label(self) -> int:
        """The label used by the paper to mark unreachable vertices, ``m + n``."""
        return self.n_rows + self.n_cols

    @property
    def has_weights(self) -> bool:
        """Whether the graph carries an edge-weight array."""
        return self.weights is not None

    @property
    def has_capacities(self) -> bool:
        """Whether the graph carries per-vertex b-matching capacities."""
        return self.b_row is not None

    @property
    def col_degrees(self) -> np.ndarray:
        """Degree of every column vertex (lazily computed, cached, read-only).

        Hot loops read this instead of re-deriving ``np.diff(col_ptr)`` —
        see the hot-path convention in :mod:`repro.graph.frontier`.
        """
        cached = self.__dict__.get("_col_degrees")
        if cached is None:
            cached = np.diff(self.col_ptr)
            cached.setflags(write=False)
            object.__setattr__(self, "_col_degrees", cached)
        return cached

    @property
    def row_degrees(self) -> np.ndarray:
        """Degree of every row vertex (lazily computed, cached, read-only)."""
        cached = self.__dict__.get("_row_degrees")
        if cached is None:
            cached = np.diff(self.row_ptr)
            cached.setflags(write=False)
            object.__setattr__(self, "_row_degrees", cached)
        return cached

    # ------------------------------------------------------------- accessors
    def column_neighbors(self, v: int) -> np.ndarray:
        """Rows adjacent to column ``v`` (the paper's ``Γ(v)`` for ``v ∈ VC``)."""
        if not 0 <= v < self.n_cols:
            raise IndexError(f"column index {v} out of range [0, {self.n_cols})")
        return self.col_ind[self.col_ptr[v] : self.col_ptr[v + 1]]

    def row_neighbors(self, u: int) -> np.ndarray:
        """Columns adjacent to row ``u`` (the paper's ``Γ(u)`` for ``u ∈ VR``)."""
        if not 0 <= u < self.n_rows:
            raise IndexError(f"row index {u} out of range [0, {self.n_rows})")
        return self.row_ind[self.row_ptr[u] : self.row_ptr[u + 1]]

    def row_aligned_weights(self) -> np.ndarray:
        """The edge weights permuted into row-CSR order (parallel to ``row_ind``).

        Computed once and cached (the arrays are immutable).  Raises
        ``ValueError`` when the graph carries no weights.
        """
        if self.weights is None:
            raise ValueError(f"graph {self.name!r} has no edge weights")
        cached = self.__dict__.get("_row_aligned_weights")
        if cached is None:
            # One stable sort of the (row, col) keys lists the edges row by row.
            keys = self.col_ind * self.n_cols + self.edge_columns()
            cached = self.weights[np.argsort(keys, kind="stable")]
            cached.setflags(write=False)
            object.__setattr__(self, "_row_aligned_weights", cached)
        return cached

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the edge between row ``u`` and column ``v``.

        Raises ``ValueError`` when the graph has no weights or ``(u, v)`` is
        not an edge.
        """
        if self.weights is None:
            raise ValueError(f"graph {self.name!r} has no edge weights")
        rows = self.column_neighbors(v)
        idx = np.searchsorted(rows, u)
        if not (idx < len(rows) and rows[idx] == u):
            raise ValueError(f"({u}, {v}) is not an edge of graph {self.name!r}")
        return float(self.weights[self.col_ptr[v] + idx])

    def edge_columns(self) -> np.ndarray:
        """Column index of every edge, parallel to ``col_ind`` (cached).

        Together with ``col_ind`` (the row index of every edge) this is the
        flat edge list in column-CSR order; the weighted solvers and the
        certificate checks use it for vectorised per-edge sweeps.
        """
        cached = self.__dict__.get("_edge_columns")
        if cached is None:
            cached = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.col_ptr))
            cached.setflags(write=False)
            object.__setattr__(self, "_edge_columns", cached)
        return cached

    def csr_lists(self, side: str = "col") -> tuple[list[int], list[int]]:
        """One side's CSR structure as cached plain Python lists.

        The vectorized frontier layer (:mod:`repro.graph.frontier`) covers
        the whole-frontier traversals; the *scalar* walks that remain (DFS
        descents, push-relabel's per-push scan, P-DBFS claim searches) index
        one element at a time, where a Python list is ~4× faster than
        ndarray scalar access (no ``numpy`` boxing per element — measured in
        ``docs/benchmarks.md``).  Computed once per side and cached; the
        arrays are immutable.

        Parameters
        ----------
        side:
            ``"col"`` for ``(col_ptr, col_ind)``, ``"row"`` for
            ``(row_ptr, row_ind)``.
        """
        if side not in ("col", "row"):
            raise ValueError(f"side must be 'col' or 'row', not {side!r}")
        key = f"_csr_lists_{side}"
        cached = self.__dict__.get(key)
        if cached is None:
            if side == "col":
                cached = (self.col_ptr.tolist(), self.col_ind.tolist())
            else:
                cached = (self.row_ptr.tolist(), self.row_ind.tolist())
            object.__setattr__(self, key, cached)
        return cached

    def content_hash(self) -> str:
        """SHA-256 hex digest of the graph content (shape + CSR arrays + weights).

        Two graphs with identical vertex counts, adjacency and edge weights
        hash equal regardless of :attr:`name` (so :meth:`with_name` copies
        share the hash).  Used by :mod:`repro.service` to memoize matching
        results across repeated graphs; folding the weights in keeps those
        caches correct for same-structure / different-weight graphs.
        Weightless graphs hash exactly as before weights existed, so
        persistent disk caches stay valid.  The digest is cached after the
        first call — the arrays are immutable.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            # Imported here: repro.graph.io imports this module.
            from repro.graph.io import ChunkedContentHasher

            hasher = ChunkedContentHasher(self.n_rows, self.n_cols)
            for section in ("col_ptr", "col_ind", "row_ptr", "row_ind"):
                hasher.update(section, getattr(self, section))
            if self.weights is not None:
                hasher.update("weights", self.weights)
            if self.b_row is not None:
                hasher.update("capacities", self.b_row)
                hasher.update("capacities", self.b_col)
            cached = hasher.hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def has_edge(self, u: int, v: int) -> bool:
        """Whether row ``u`` and column ``v`` are adjacent.

        Adjacency lists are kept sorted by the builders, so this is a binary
        search over the smaller of the two lists.
        """
        rows = self.column_neighbors(v)
        cols = self.row_neighbors(u)
        if len(rows) <= len(cols):
            idx = np.searchsorted(rows, u)
            return bool(idx < len(rows) and rows[idx] == u)
        idx = np.searchsorted(cols, v)
        return bool(idx < len(cols) and cols[idx] == v)

    def edges(self) -> np.ndarray:
        """All edges as an ``(n_edges, 2)`` array of ``(row, col)`` pairs."""
        return np.column_stack([self.col_ind, self.edge_columns()])

    def transpose(self) -> "BipartiteGraph":
        """The graph with the roles of rows and columns swapped."""
        return BipartiteGraph(
            n_rows=self.n_cols,
            n_cols=self.n_rows,
            col_ptr=self.row_ptr,
            col_ind=self.row_ind,
            row_ptr=self.col_ptr,
            row_ind=self.col_ind,
            name=f"{self.name}^T",
            weights=self.row_aligned_weights() if self.has_weights else None,
            b_row=self.b_col,
            b_col=self.b_row,
        )

    def with_name(self, name: str) -> "BipartiteGraph":
        """A copy of this graph (sharing arrays) under a different name."""
        return BipartiteGraph(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            col_ptr=self.col_ptr,
            col_ind=self.col_ind,
            row_ptr=self.row_ptr,
            row_ind=self.row_ind,
            name=name,
            weights=self.weights,
            b_row=self.b_row,
            b_col=self.b_col,
        )

    def with_weights(self, weights: np.ndarray | None) -> "BipartiteGraph":
        """A copy of this graph (sharing index arrays) with new edge weights.

        Parameters
        ----------
        weights:
            One ``float`` per edge in column-CSR order (parallel to
            ``col_ind``), or ``None`` to strip weights.

        Returns
        -------
        BipartiteGraph

        Raises
        ------
        ValueError
            If ``weights`` has the wrong length or non-finite entries.
        """
        return BipartiteGraph(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            col_ptr=self.col_ptr,
            col_ind=self.col_ind,
            row_ptr=self.row_ptr,
            row_ind=self.row_ind,
            name=self.name,
            weights=None if weights is None else np.array(weights, dtype=np.float64),
            b_row=self.b_row,
            b_col=self.b_col,
        )

    def with_capacities(
        self, b_row: np.ndarray | None, b_col: np.ndarray | None
    ) -> "BipartiteGraph":
        """A copy of this graph (sharing index arrays) with new vertex capacities.

        Parameters
        ----------
        b_row, b_col:
            One positive integer per row / column vertex, or ``None`` for
            both to strip capacities.

        Returns
        -------
        BipartiteGraph

        Raises
        ------
        ValueError
            If the arrays have the wrong length, a capacity below 1, or only
            one side is given.
        """
        return BipartiteGraph(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            col_ptr=self.col_ptr,
            col_ind=self.col_ind,
            row_ptr=self.row_ptr,
            row_ind=self.row_ind,
            name=self.name,
            weights=self.weights,
            b_row=None if b_row is None else np.array(b_row, dtype=np.int64),
            b_col=None if b_col is None else np.array(b_col, dtype=np.int64),
        )

    # ---------------------------------------------------------------- export
    def to_scipy_sparse(self):
        """Biadjacency matrix as a ``scipy.sparse.csc_matrix`` of shape (n_rows, n_cols).

        Weighted graphs export their edge weights as the matrix values;
        structural graphs export ones.
        """
        from scipy import sparse

        data = self.weights.copy() if self.has_weights else np.ones(self.n_edges, dtype=np.int8)
        return sparse.csc_matrix(
            (data, self.col_ind.copy(), self.col_ptr.copy()),
            shape=(self.n_rows, self.n_cols),
        )

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` with ``bipartite`` node attributes.

        Row vertex ``u`` becomes node ``("r", u)`` and column vertex ``v``
        becomes node ``("c", v)`` so the two sides never collide.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((("r", int(u)) for u in range(self.n_rows)), bipartite=0)
        g.add_nodes_from((("c", int(v)) for v in range(self.n_cols)), bipartite=1)
        for u, v in self.edges():
            g.add_edge(("r", int(u)), ("c", int(v)))
        return g

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        weighted = ", weighted" if self.has_weights else ""
        capacitated = ", capacitated" if self.has_capacities else ""
        return (
            f"BipartiteGraph(name={self.name!r}, n_rows={self.n_rows}, "
            f"n_cols={self.n_cols}, n_edges={self.n_edges}{weighted}{capacitated})"
        )
