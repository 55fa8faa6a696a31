"""Bipartite graph substrate.

The matching algorithms in :mod:`repro` operate on a compressed sparse row
(CSR) representation of a bipartite graph, mirroring the data layout used by
the original CUDA implementation (the paper uses the matrix view of a
bipartite graph: rows ``VR`` and columns ``VC``).

Public classes / functions
--------------------------
:class:`BipartiteGraph`
    Immutable CSR bipartite graph with both column->row and row->column
    adjacency.
:func:`from_edges`, :func:`from_scipy_sparse`, :func:`from_networkx`,
:func:`from_dense`
    Builders.
:func:`read_matrix_market`, :func:`write_matrix_market`
    Matrix-Market I/O (the format of the UFL / SuiteSparse collection used in
    the paper's evaluation).
:class:`MatrixMarketStream`, :class:`MatrixMarketStreamWriter`,
:func:`chunked_content_hash`
    Streaming Matrix-Market I/O and incremental content hashing — the
    bounded-memory substrate of the out-of-core ingest
    (:mod:`repro.sharded`).
:func:`degree_statistics`, :func:`structure_summary`
    Descriptive degree and structure statistics of a graph, for user code.
:func:`validate_graph`
    Structural validation with informative errors.
:mod:`repro.graph.frontier`
    The shared frontier walks of the CPU baselines and G-HKDW:
    whole-frontier CSR expansion, the Hopcroft–Karp level BFS and
    push-relabel distance-label BFS, the P-DBFS claiming search and the
    vertex-disjoint augmenting DFS.
"""

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import (
    alternating_level_bfs,
    claiming_bfs,
    distance_label_bfs,
    expand_frontier,
)
from repro.graph.builders import (
    from_biadjacency,
    from_dense,
    from_edges,
    from_networkx,
    from_scipy_sparse,
)
from repro.graph.io import (
    ChunkedContentHasher,
    MatrixMarketHeader,
    MatrixMarketStream,
    MatrixMarketStreamWriter,
    chunked_content_hash,
    read_matrix_market,
    read_matrix_market_header,
    write_matrix_market,
)
from repro.graph.stats import GraphSummary, degree_statistics, structure_summary
from repro.graph.validate import GraphValidationError, validate_graph

__all__ = [
    "BipartiteGraph",
    "alternating_level_bfs",
    "claiming_bfs",
    "distance_label_bfs",
    "expand_frontier",
    "from_edges",
    "from_dense",
    "from_scipy_sparse",
    "from_networkx",
    "from_biadjacency",
    "read_matrix_market",
    "read_matrix_market_header",
    "write_matrix_market",
    "MatrixMarketHeader",
    "MatrixMarketStream",
    "MatrixMarketStreamWriter",
    "ChunkedContentHasher",
    "chunked_content_hash",
    "degree_statistics",
    "structure_summary",
    "GraphSummary",
    "validate_graph",
    "GraphValidationError",
]
