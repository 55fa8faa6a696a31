"""Column-block partitioning of the dual-CSR bipartite graph.

A :class:`ShardedBipartiteGraph` splits the column side into contiguous
blocks: shard ``s`` owns the global columns ``[boundaries[s],
boundaries[s+1])`` and is an ordinary :class:`BipartiteGraph` with *local*
column ids and *global* row ids.  Rows are replicated — a row adjacent to
columns in several shards appears in each of them — and ``boundary_rows``
lists exactly which rows those are, because they are the only place
augmenting paths can cross shards.

Two splitters produce the boundaries (:data:`PARTITION_METHODS`):

* ``contiguous`` — equal column counts per shard (no degree information
  needed, so the out-of-core ingest can use it in a single pass);
* ``degree`` — boundaries chosen on the cumulative column-degree curve so
  shards carry roughly equal *edge* counts (degree-balanced).

The graph stores one CSR, the whole graph's column CSR: ``col_ptr`` built
from the column degrees, and ``col_ind``, the partitioned graph's own array
or, after the out-of-core ingest (:mod:`repro.sharded.ingest`), a
read-only memory map of one file.  A shard is built on use from its block
of that CSR — the column side a view, the row side the block transposed —
and the graph keeps at most ``max_resident`` built shards in an LRU: all
of them for :func:`partition_graph`, the ingest's ``max_resident`` for an
out-of-core graph, which is the contract the CI memory gate relies on.
Always-resident heap is vertex-sized only (degrees, ``col_ptr``,
boundaries, boundary rows); the edge-sized ``col_ind`` of an ingested
graph stays a memory map.

``content_hash()`` reproduces the *unsharded* ``BipartiteGraph.content_hash``
byte for byte from the global arrays alone (the column side as stored; the
row side transposed from ``col_ind`` one row block at a time), so sharded
and in-memory representations of the same graph share one cache identity.
"""

from __future__ import annotations

import shutil
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import _row_csr, from_edges
from repro.graph.io import ChunkedContentHasher

__all__ = [
    "PARTITION_METHODS",
    "ColumnPartition",
    "ShardedBipartiteGraph",
    "make_partition",
    "partition_graph",
]

PARTITION_METHODS = ("contiguous", "degree")


@dataclass(frozen=True)
class ColumnPartition:
    """Contiguous column-block boundaries: shard ``s`` owns ``[b[s], b[s+1])``."""

    n_cols: int
    boundaries: np.ndarray
    method: str

    def __post_init__(self) -> None:
        boundaries = np.ascontiguousarray(np.asarray(self.boundaries, dtype=np.int64))
        boundaries.setflags(write=False)
        object.__setattr__(self, "boundaries", boundaries)
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise ValueError("boundaries must be a 1-D array with at least 2 entries")
        if boundaries[0] != 0 or boundaries[-1] != self.n_cols:
            raise ValueError(
                f"boundaries must span [0, n_cols={self.n_cols}], got "
                f"[{boundaries[0]}, {boundaries[-1]}]"
            )
        if np.any(np.diff(boundaries) < 0):
            raise ValueError("boundaries must be non-decreasing")

    @property
    def n_shards(self) -> int:
        return self.boundaries.size - 1

    def column_range(self, shard: int) -> tuple[int, int]:
        return int(self.boundaries[shard]), int(self.boundaries[shard + 1])

    def width(self, shard: int) -> int:
        lo, hi = self.column_range(shard)
        return hi - lo

    def shard_of(self, cols: np.ndarray) -> np.ndarray:
        """Owning shard of each global column id (vectorized)."""
        return np.searchsorted(self.boundaries, np.asarray(cols), side="right") - 1


def make_partition(
    method: str,
    n_cols: int,
    n_shards: int,
    col_degrees: np.ndarray | None = None,
) -> ColumnPartition:
    """Build a :class:`ColumnPartition` with the named splitter.

    ``degree`` places the boundaries on the cumulative column-degree curve
    (requires ``col_degrees``); ``contiguous`` splits the column range
    evenly.  ``n_shards`` may exceed ``n_cols`` — surplus shards come out
    zero-width (a supported boundary case, not an error).
    """
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r} (expected one of {PARTITION_METHODS})"
        )
    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if method == "degree":
        if col_degrees is None:
            raise ValueError("degree-balanced partitioning needs col_degrees")
        col_degrees = np.asarray(col_degrees, dtype=np.int64)
        if col_degrees.size != n_cols:
            raise ValueError(
                f"col_degrees has {col_degrees.size} entries for n_cols={n_cols}"
            )
        cumulative = np.concatenate([[0], np.cumsum(col_degrees)])
        total = int(cumulative[-1])
        targets = total * np.arange(1, n_shards, dtype=np.float64) / n_shards
        inner = np.searchsorted(cumulative, targets, side="left")
        boundaries = np.concatenate([[0], inner, [n_cols]])
        boundaries = np.maximum.accumulate(boundaries)
        boundaries = np.minimum(boundaries, n_cols)
    else:
        boundaries = (np.arange(n_shards + 1, dtype=np.int64) * n_cols) // n_shards
    return ColumnPartition(n_cols=n_cols, boundaries=boundaries, method=method)


# ---------------------------------------------------- the sharded container
class ShardedBipartiteGraph:
    """A column-block partitioned bipartite graph over one column CSR.

    The graph stores the global column CSR only: ``col_ptr`` from
    ``col_degrees`` and ``col_ind`` as given, uncopied (the partitioned
    graph's own array, or a read-only memory map after the out-of-core
    ingest).  :meth:`shard` builds shard ``s`` on use — an ordinary
    :class:`BipartiteGraph` over the global rows and the local columns
    ``[boundaries[s], boundaries[s+1])``, whose column CSR is its block of
    the global one (a view) and whose row CSR is that block transposed —
    and keeps at most ``max_resident`` built shards in an LRU.

    The constructor derives the vertex-sized metadata in one pass over
    ``col_ind``: per-shard edge counts, ``row_degrees`` and the boundary
    rows (rows adjacent to more than one shard — the only rows a
    cross-shard augmenting path can pivot on).  ``directory``, if given, is
    a spool directory the graph owns: it is removed on :meth:`close` (and
    by a finalizer as a backstop).
    """

    def __init__(
        self,
        *,
        partition: ColumnPartition,
        n_rows: int,
        col_degrees: np.ndarray,
        col_ind: np.ndarray,
        max_resident: int,
        directory: str | Path | None = None,
        name: str,
    ) -> None:
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.partition = partition
        self.n_rows = int(n_rows)
        self.n_cols = int(partition.n_cols)
        self.max_resident = int(max_resident)
        self.name = name
        self.col_degrees = np.ascontiguousarray(col_degrees, dtype=np.int64)
        if self.col_degrees.size != self.n_cols:
            raise ValueError("col_degrees must have one entry per column")
        self.col_ptr = np.concatenate([[0], np.cumsum(self.col_degrees)])
        self.col_ind = np.asarray(col_ind, dtype=np.int64)
        if self.col_ind.shape != (int(self.col_ptr[-1]),):
            raise ValueError("col_ind must have one entry per edge")
        self.shard_edge_counts = np.diff(self.col_ptr[partition.boundaries])
        self.row_degrees = np.zeros(self.n_rows, dtype=np.int64)
        shard_counts = np.zeros(self.n_rows, dtype=np.int64)
        for index in range(self.n_shards):
            degrees = np.bincount(self._shard_rows(index), minlength=self.n_rows)
            self.row_degrees += degrees
            shard_counts += degrees > 0
        self.boundary_rows = np.flatnonzero(shard_counts >= 2)
        self._shards: OrderedDict[int, BipartiteGraph] = OrderedDict()
        self._content_hash: str | None = None
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, str(directory), True)
            if directory is not None
            else None
        )

    # -- shape -------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    @property
    def n_edges(self) -> int:
        return int(self.col_ptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def col_offset(self, index: int) -> int:
        return int(self.partition.boundaries[index])

    def column_range(self, index: int) -> tuple[int, int]:
        return self.partition.column_range(index)

    def _shard_rows(self, index: int) -> np.ndarray:
        """Shard ``index``'s block of ``col_ind`` (a view)."""
        lo, hi = self.column_range(index)
        return self.col_ind[self.col_ptr[lo] : self.col_ptr[hi]]

    # -- shards ------------------------------------------------------------
    def shard(self, index: int) -> BipartiteGraph:
        """Shard ``index``: its column block plus that block transposed.

        The column CSR is a view of the global one; the row CSR lists each
        row's local columns, sorted, so the shard is exactly the canonical
        graph :func:`~repro.graph.builders.from_edges` builds from its edges.
        """
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index {index} out of range [0, {self.n_shards})")
        cached = self._shards.get(index)
        if cached is not None:
            self._shards.move_to_end(index)
            return cached
        lo, hi = self.column_range(index)
        col_ptr = self.col_ptr[lo : hi + 1] - self.col_ptr[lo]
        col_ind = self._shard_rows(index)
        local_cols = np.repeat(np.arange(hi - lo, dtype=np.int64), self.col_degrees[lo:hi])
        row_ptr, row_ind = _row_csr(col_ind, local_cols, self.n_rows, hi - lo)
        graph = BipartiteGraph(
            n_rows=self.n_rows,
            n_cols=hi - lo,
            col_ptr=col_ptr,
            col_ind=col_ind,
            row_ptr=row_ptr,
            row_ind=row_ind,
            name=f"{self.name}[s{index}]",
        )
        self._shards[index] = graph
        while len(self._shards) > self.max_resident:
            self._shards.popitem(last=False)
        return graph

    def close(self) -> None:
        """Drop the built shards and remove the spool directory, if owned."""
        self._shards.clear()
        if self._finalizer is not None:
            self._finalizer()

    # -- identity ----------------------------------------------------------
    def content_hash(self, *, row_block: int | None = None) -> str:
        """The digest of the *unsharded* graph, from the global arrays only.

        Column side: ``col_ptr``, then ``col_ind`` in slices of at most one
        shard's edge count (the hasher copies each chunk).  Row side:
        ``row_ptr`` from the row degrees, then ``row_ind`` transposed from
        ``col_ind`` in blocks of ``row_block`` rows (default: the row count
        over the shard count), so no shard is built and the working set
        stays O(largest shard) whatever the residency.
        """
        if self._content_hash is not None:
            return self._content_hash
        hasher = ChunkedContentHasher(self.n_rows, self.n_cols)
        hasher.update("col_ptr", self.col_ptr)
        step = max(1, int(self.shard_edge_counts.max(initial=0)))
        for start in range(0, self.n_edges, step):
            hasher.update("col_ind", self.col_ind[start : start + step])
        hasher.update("row_ptr", np.concatenate([[0], np.cumsum(self.row_degrees)]))
        for chunk in self._iter_row_ind_blocks(row_block):
            hasher.update("row_ind", chunk)

        self._content_hash = hasher.hexdigest()
        return self._content_hash

    def _iter_row_ind_blocks(self, row_block: int | None):
        if row_block is None:
            row_block = -(-self.n_rows // self.n_shards)
        row_block = max(1, int(row_block))
        for r0 in range(0, self.n_rows, row_block):
            r1 = min(self.n_rows, r0 + row_block)
            rows_parts: list[np.ndarray] = []
            cols_parts: list[np.ndarray] = []
            for index in range(self.n_shards):
                lo, hi = self.column_range(index)
                rows = self._shard_rows(index)
                keep = (rows >= r0) & (rows < r1)
                cols = np.repeat(np.arange(lo, hi, dtype=np.int64), self.col_degrees[lo:hi])
                rows_parts.append(rows[keep] - r0)
                cols_parts.append(cols[keep])
            _, row_ind = _row_csr(
                np.concatenate(rows_parts), np.concatenate(cols_parts), r1 - r0, self.n_cols
            )
            yield row_ind

    # -- materialization ---------------------------------------------------
    def to_graph(self, name: str | None = None) -> BipartiteGraph:
        """Reassemble the full in-memory graph (testing / small instances)."""
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), self.col_degrees)
        edges = np.column_stack([self.col_ind, cols])
        return from_edges(
            edges,
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            name=name if name is not None else self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedBipartiteGraph(name={self.name!r}, shape={self.shape}, "
            f"n_edges={self.n_edges}, n_shards={self.n_shards}, "
            f"method={self.partition.method!r})"
        )


def partition_graph(
    graph: BipartiteGraph,
    n_shards: int,
    method: str = "contiguous",
    *,
    name: str | None = None,
) -> ShardedBipartiteGraph:
    """Partition an in-memory graph into column-block shards.

    The sharded graph holds the parent's ``col_ind`` itself, so every
    shard's column CSR is a slice of the parent's arrays; every shard stays
    resident once built.  Weighted graphs are rejected — sharded matching
    is cardinality-only, strip the weights first
    (``graph.with_weights(None)``).
    """
    if graph.weights is not None:
        raise ValueError(
            "sharded matching is cardinality-only: strip the weights first "
            "(graph.with_weights(None))"
        )
    partition = make_partition(method, graph.n_cols, n_shards, col_degrees=graph.col_degrees)
    return ShardedBipartiteGraph(
        partition=partition,
        n_rows=graph.n_rows,
        col_degrees=graph.col_degrees,
        col_ind=graph.col_ind,
        max_resident=partition.n_shards,
        name=name if name is not None else f"{graph.name}@{partition.n_shards}",
    )
