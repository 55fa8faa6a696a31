"""Builders that construct :class:`~repro.graph.bipartite.BipartiteGraph` objects.

All builders deduplicate parallel edges, drop self-inconsistencies and sort
adjacency lists, so the resulting CSR structure is canonical: two graphs with
the same edge set produce bit-identical arrays.

Every graph is built by one key-sort CSR builder in two halves.  The column
half (:func:`_column_csr`) sorts the key ``col * n_rows + row`` of every
pair once: that groups the pairs by column with each column's rows
ascending, so dropping equal neighbours deduplicates them.  The row half
(:func:`_row_csr`) is the transpose, one sort of ``row * n_cols + col``.
Both keys are below ``n_rows * n_cols``, so both halves refuse a shape
whose product does not fit in ``int64`` before they allocate anything.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = [
    "from_edges",
    "from_dense",
    "from_scipy_sparse",
    "from_networkx",
    "empty_graph",
]

_INT64_MAX = np.iinfo(np.int64).max


def _check_key_range(n_rows: int, n_cols: int) -> None:
    """Raise ``ValueError`` unless the pair keys of the shape fit in ``int64``."""
    if int(n_rows) * int(n_cols) > _INT64_MAX:
        raise ValueError(
            f"cannot build a {n_rows} x {n_cols} graph: n_rows * n_cols must fit "
            "in int64 (at most 2**63 - 1)"
        )


def _column_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    n_rows: int,
    n_cols: int,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The column CSR of the distinct pairs among ``(rows, cols)``.

    Returns ``(col_ptr, col_ind, edge_cols, weights)``: ``edge_cols`` is the
    column of every edge, parallel to ``col_ind``, and ``weights`` (one
    entry per input pair) comes back deduplicated in the same order, each
    run of parallel edges keeping its maximum; ``None`` without weights.
    Every pair must lie in ``[0, n_rows) x [0, n_cols)``.
    """
    _check_key_range(n_rows, n_cols)
    keys = np.multiply(cols, n_rows, dtype=np.int64)
    keys += rows
    if weights is None:
        keys.sort()
    else:
        # Stable, so each run of parallel edges reduces in input order.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    out_weights = None
    if weights is not None:
        out_weights = np.maximum.reduceat(
            np.asarray(weights, dtype=np.float64)[order], np.flatnonzero(keep)
        )
    keys = keys[keep]
    col_ind = np.empty_like(keys)
    np.divmod(keys, n_rows, out=(keys, col_ind))  # keys become the edge columns
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_cols), out=col_ptr[1:])
    return col_ptr, col_ind, keys, out_weights


def _row_csr(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(row_ptr, row_ind)``: the pairs listed row by row, columns ascending.

    The transpose of a column CSR, from its edges ``(col_ind, edge_cols)``.
    Equal pairs have equal keys, so a plain sort of ``row * n_cols + col``
    orders them; every pair must lie in ``[0, n_rows) x [0, n_cols)``.
    """
    _check_key_range(n_rows, n_cols)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    keys = np.multiply(rows, n_cols, dtype=np.int64)
    keys += cols
    keys.sort()
    keys %= n_cols
    return row_ptr, keys


def _csr_from_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    n_rows: int,
    n_cols: int,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Build (col_ptr, col_ind, row_ptr, row_ind, weights) from pairs, deduplicated.

    Both halves of the builder: the column CSR, then its transpose.
    ``weights`` (one entry per input pair) comes back deduplicated in
    column-CSR order; parallel edges keep the maximum weight.
    """
    col_ptr, col_ind, edge_cols, out_weights = _column_csr(rows, cols, n_rows, n_cols, weights)
    row_ptr, row_ind = _row_csr(col_ind, edge_cols, n_rows, n_cols)
    return col_ptr, col_ind, row_ptr, row_ind, out_weights


def from_edges(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    n_rows: int | None = None,
    n_cols: int | None = None,
    name: str = "bipartite",
    weights: Iterable[float] | np.ndarray | None = None,
) -> BipartiteGraph:
    """Build a graph from an iterable of ``(row, col)`` pairs.

    Parameters
    ----------
    edges:
        Iterable of ``(row, col)`` index pairs, or an ``(k, 2)`` integer array.
    n_rows, n_cols:
        Vertex counts; inferred as ``max index + 1`` when omitted.
    name:
        Stored on the resulting graph; used in benchmark reports.
    weights:
        Optional edge weights, one per input pair.  Parallel edges are
        deduplicated keeping the *maximum* weight (for matching, only the
        best parallel edge can ever be used).

    Returns
    -------
    BipartiteGraph

    Raises
    ------
    ValueError
        If an edge references a vertex outside ``[0, n_rows) x [0, n_cols)``,
        indices are negative, or ``weights`` does not have one entry per pair.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be an iterable of (row, col) pairs, got shape {arr.shape}")
    if weights is not None:
        weights = np.asarray(
            list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64
        )
        if weights.shape != (len(arr),):
            raise ValueError(
                f"weights must have one entry per edge pair ({len(arr)}), "
                f"got shape {weights.shape}"
            )
    rows = arr[:, 0]
    cols = arr[:, 1]
    if len(rows) and (rows.min() < 0 or cols.min() < 0):
        raise ValueError("edge indices must be non-negative")
    inferred_rows = int(rows.max()) + 1 if len(rows) else 0
    inferred_cols = int(cols.max()) + 1 if len(cols) else 0
    n_rows = inferred_rows if n_rows is None else int(n_rows)
    n_cols = inferred_cols if n_cols is None else int(n_cols)
    if inferred_rows > n_rows or inferred_cols > n_cols:
        raise ValueError(
            f"edge indices exceed declared shape ({n_rows}, {n_cols}): "
            f"max row {inferred_rows - 1}, max col {inferred_cols - 1}"
        )
    col_ptr, col_ind, row_ptr, row_ind, col_weights = _csr_from_pairs(
        rows, cols, n_rows, n_cols, weights
    )
    return BipartiteGraph(
        n_rows=n_rows,
        n_cols=n_cols,
        col_ptr=col_ptr,
        col_ind=col_ind,
        row_ptr=row_ptr,
        row_ind=row_ind,
        name=name,
        weights=col_weights,
    )


def from_dense(matrix: Sequence[Sequence[float]] | np.ndarray, name: str = "dense") -> BipartiteGraph:
    """Build a graph from a dense biadjacency matrix (non-zero entries become edges)."""
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"biadjacency matrix must be 2-D, got {mat.ndim}-D")
    rows, cols = np.nonzero(mat)
    return from_edges(
        np.column_stack([rows, cols]), n_rows=mat.shape[0], n_cols=mat.shape[1], name=name
    )


def from_scipy_sparse(matrix, name: str = "scipy") -> BipartiteGraph:
    """Build a graph from a ``scipy.sparse`` biadjacency matrix.

    The sparsity pattern defines the edges; explicit zeros are dropped.
    """
    from scipy import sparse

    if not sparse.issparse(matrix):
        raise TypeError(f"expected a scipy sparse matrix, got {type(matrix).__name__}")
    coo = matrix.tocoo()
    mask = coo.data != 0
    edges = np.column_stack([coo.row[mask], coo.col[mask]])
    return from_edges(edges, n_rows=coo.shape[0], n_cols=coo.shape[1], name=name)


def from_networkx(graph, row_nodes=None, name: str = "networkx") -> BipartiteGraph:
    """Build a graph from a bipartite :class:`networkx.Graph`.

    Parameters
    ----------
    graph:
        An undirected networkx graph whose vertex set splits into two sides.
    row_nodes:
        The nodes forming the row side.  When omitted, nodes carrying
        ``bipartite=0`` are used (the networkx convention).
    """
    import networkx as nx

    if row_nodes is None:
        row_nodes = [node for node, data in graph.nodes(data=True) if data.get("bipartite") == 0]
        if not row_nodes and graph.number_of_nodes():
            raise ValueError(
                "row_nodes not given and no nodes carry the 'bipartite=0' attribute"
            )
    row_nodes = list(row_nodes)
    row_set = set(row_nodes)
    col_nodes = [node for node in graph.nodes if node not in row_set]
    if not nx.is_bipartite(graph):
        raise ValueError("graph is not bipartite")
    row_index = {node: i for i, node in enumerate(row_nodes)}
    col_index = {node: i for i, node in enumerate(col_nodes)}
    edges = []
    for a, b in graph.edges():
        if a in row_index and b in col_index:
            edges.append((row_index[a], col_index[b]))
        elif b in row_index and a in col_index:
            edges.append((row_index[b], col_index[a]))
        else:
            raise ValueError(f"edge ({a!r}, {b!r}) does not cross the declared bipartition")
    return from_edges(edges, n_rows=len(row_nodes), n_cols=len(col_nodes), name=name)


def empty_graph(n_rows: int, n_cols: int, name: str = "empty") -> BipartiteGraph:
    """A graph with the given shape and no edges."""
    return from_edges(np.empty((0, 2), dtype=np.int64), n_rows=n_rows, n_cols=n_cols, name=name)
