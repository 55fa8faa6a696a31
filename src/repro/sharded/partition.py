"""Column-block partitioning of the dual-CSR bipartite graph.

A :class:`ShardedBipartiteGraph` splits the column side into contiguous
blocks: shard ``s`` owns the global columns ``[boundaries[s],
boundaries[s+1])`` and stores them as an ordinary :class:`BipartiteGraph`
with *local* column ids and *global* row ids.  Rows are replicated — a row
adjacent to columns in several shards appears in each of them — and
``boundary_rows`` lists exactly which rows those are, because they are the
only place augmenting paths can cross shards.

Two splitters produce the boundaries (:data:`PARTITION_METHODS`):

* ``contiguous`` — equal column counts per shard (no degree information
  needed, so the out-of-core ingest can use it in a single pass);
* ``degree`` — boundaries chosen on the cumulative column-degree curve so
  shards carry roughly equal *edge* counts (degree-balanced).

The graph also holds one global column CSR — the whole graph's, not per
shard: ``col_ptr`` built from the resident column degrees, and ``col_ind``,
the partitioned graph's own array or, after the out-of-core ingest, a
read-only memory map of one file.  The sharded matcher's reconcile walks
it, and shard ``s``'s column CSR is its slice ``[boundaries[s],
boundaries[s+1])``.

Shards are served by a store: :class:`MaterializedShardStore` keeps them in
memory (cheap views of an existing graph), :class:`SpilledShardStore` keeps
their row CSR on disk, cuts their column CSR out of the global one, and
loads at most ``max_resident`` at a time — the contract the out-of-core
ingest (:mod:`repro.sharded.ingest`) and the CI memory gate rely on.
Always-resident heap is vertex-sized only (degrees, ``col_ptr``,
boundaries, boundary rows); the edge-sized ``col_ind`` of a spilled graph
stays a memory map.

``content_hash()`` reproduces the *unsharded* ``BipartiteGraph.content_hash``
byte for byte (the column side read from the global arrays; the row side a
stable per-row-block merge streamed out of the shards), so sharded and
in-memory representations of the same graph share one cache identity.
"""

from __future__ import annotations

import shutil
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import _csr_from_pairs, from_edges
from repro.graph.io import ChunkedContentHasher

__all__ = [
    "PARTITION_METHODS",
    "ColumnPartition",
    "MaterializedShardStore",
    "ShardedBipartiteGraph",
    "SpilledShardStore",
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


# ------------------------------------------------------------- shard stores
class MaterializedShardStore:
    """All shards resident in memory (views over an in-memory graph)."""

    resident = True

    def __init__(self, shards: list[BipartiteGraph]) -> None:
        self._shards = list(shards)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def load(self, index: int) -> BipartiteGraph:
        return self._shards[index]

    def close(self) -> None:
        self._shards.clear()


class SpilledShardStore:
    """Disk-backed shards with an LRU of at most ``max_resident`` loaded.

    This is the piece that turns graph size into a per-shard bound.  A
    shard's row CSR lives in two raw ``.npy`` files (:meth:`spill`); its
    column CSR is a slice of the graph's global ``col_ptr`` and of the one
    ``col_ind`` file every shard appended to in shard order, which
    :meth:`map_col_ind` opens as a read-only memory map.  ``load`` keeps a
    small LRU, so a matcher walking shard by shard never holds more than
    ``max_resident`` shards' row arrays on the heap, and no shard's column
    indices at all.  With ``cleanup=True`` the directory is removed on
    :meth:`close` (and by a GC finalizer as a backstop).
    """

    resident = False

    #: The raw ``int64`` file holding every shard's ``col_ind``, in shard order.
    COL_IND_FILE = "col_ind.int64"
    #: Each shard's row CSR arrays, one raw ``.npy`` file each.
    _ROW_ARRAYS = ("row_ptr", "row_ind")

    def __init__(
        self,
        directory: str | Path,
        partition: ColumnPartition,
        col_ptr: np.ndarray,
        col_ind: np.ndarray,
        *,
        max_resident: int = 1,
        cleanup: bool = False,
    ) -> None:
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self._directory = Path(directory)
        self._partition = partition
        self._col_ptr = col_ptr
        self._col_ind = col_ind
        self.max_resident = int(max_resident)
        self._cache: OrderedDict[int, BipartiteGraph] = OrderedDict()
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, str(self._directory), True)
            if cleanup
            else None
        )

    @classmethod
    def spill(cls, graph: BipartiteGraph, directory: str | Path, index: int, col_file) -> None:
        """Write shard ``index``: its row CSR as ``.npy`` files in ``directory``,
        its ``col_ind`` appended to the open :data:`COL_IND_FILE` ``col_file``.

        ``ndarray.tofile`` writes the column indices without a heap copy.
        """
        graph.col_ind.tofile(col_file)
        for field in cls._ROW_ARRAYS:
            np.save(cls._row_path(directory, index, field), getattr(graph, field))

    @classmethod
    def map_col_ind(cls, directory: str | Path, n_edges: int) -> np.ndarray:
        """The :data:`COL_IND_FILE` in ``directory`` as a read-only memory map."""
        if n_edges == 0:
            # Zero-length files cannot be mmapped; an edgeless graph has no
            # column indices to map anyway.
            return np.empty(0, dtype=np.int64)
        return np.memmap(
            Path(directory) / cls.COL_IND_FILE, dtype=np.int64, mode="r", shape=(n_edges,)
        )

    @staticmethod
    def _row_path(directory: str | Path, index: int, field: str) -> Path:
        return Path(directory) / f"shard-{index:05d}.{field}.npy"

    @property
    def n_shards(self) -> int:
        return self._partition.n_shards

    def load(self, index: int) -> BipartiteGraph:
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index {index} out of range [0, {self.n_shards})")
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        lo, hi = self._partition.column_range(index)
        col_ptr = self._col_ptr[lo : hi + 1]
        row_ptr, row_ind = (
            np.load(self._row_path(self._directory, index, field)) for field in self._ROW_ARRAYS
        )
        graph = BipartiteGraph(
            n_rows=row_ptr.size - 1,
            n_cols=hi - lo,
            col_ptr=col_ptr - col_ptr[0],
            col_ind=self._col_ind[col_ptr[0] : col_ptr[-1]],
            row_ptr=row_ptr,
            row_ind=row_ind,
            name=f"shard{index}",
        )
        self._cache[index] = graph
        while len(self._cache) > self.max_resident:
            self._cache.popitem(last=False)
        return graph

    def close(self) -> None:
        self._cache.clear()
        if self._finalizer is not None and self._finalizer.alive:
            self._finalizer()


# ---------------------------------------------------- the sharded container
class ShardedBipartiteGraph:
    """A column-block partitioned dual-CSR bipartite graph.

    Shard ``s`` is an ordinary :class:`BipartiteGraph` over the global rows
    and the local columns ``[boundaries[s], boundaries[s+1])``; the store
    decides whether shards are resident or spilled.  The graph keeps the
    global column CSR (``col_ptr`` from ``col_degrees``; ``col_ind`` as
    given, uncopied — a memory map for a spilled graph), the global degree
    arrays, the partition boundaries and the boundary rows (rows adjacent
    to more than one shard — the only rows a cross-shard augmenting path
    can pivot on).  ``shard_rows`` lists, per shard, the rows with an edge
    in it.
    """

    def __init__(
        self,
        *,
        partition: ColumnPartition,
        store,
        n_rows: int,
        col_degrees: np.ndarray,
        row_degrees: np.ndarray,
        shard_edge_counts: np.ndarray,
        shard_rows: list[np.ndarray],
        col_ind: np.ndarray,
        name: str = "sharded",
    ) -> None:
        if store.n_shards != partition.n_shards:
            raise ValueError(
                f"store has {store.n_shards} shards, partition {partition.n_shards}"
            )
        self.partition = partition
        self.store = store
        self.n_rows = int(n_rows)
        self.n_cols = int(partition.n_cols)
        self.name = name
        self.col_degrees = np.ascontiguousarray(col_degrees, dtype=np.int64)
        self.row_degrees = np.ascontiguousarray(row_degrees, dtype=np.int64)
        self.shard_edge_counts = np.ascontiguousarray(shard_edge_counts, dtype=np.int64)
        if self.col_degrees.size != self.n_cols:
            raise ValueError("col_degrees must have one entry per column")
        if self.row_degrees.size != self.n_rows:
            raise ValueError("row_degrees must have one entry per row")
        if self.shard_edge_counts.size != partition.n_shards:
            raise ValueError("shard_edge_counts must have one entry per shard")
        self.col_ptr = np.concatenate([[0], np.cumsum(self.col_degrees)])
        self.col_ind = np.asarray(col_ind, dtype=np.int64)
        if self.col_ind.shape != (int(self.col_ptr[-1]),):
            raise ValueError("col_ind must have one entry per edge")
        shard_counts = np.zeros(self.n_rows, dtype=np.int64)
        for present in shard_rows:
            shard_counts[present] += 1
        self.boundary_rows = np.flatnonzero(shard_counts >= 2)
        self._content_hash: str | None = None

    # -- shape -------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    @property
    def n_edges(self) -> int:
        return int(self.shard_edge_counts.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def shard(self, index: int) -> BipartiteGraph:
        return self.store.load(index)

    def col_offset(self, index: int) -> int:
        return int(self.partition.boundaries[index])

    def column_range(self, index: int) -> tuple[int, int]:
        return self.partition.column_range(index)

    def close(self) -> None:
        self.store.close()

    # -- identity ----------------------------------------------------------
    def content_hash(self, *, row_block: int | None = None) -> str:
        """The digest of the *unsharded* graph.

        Column side: the global ``col_ptr`` and ``col_ind``, the latter fed
        in slices of at most one shard's edge count (the hasher copies each
        chunk).  Row side: global ``row_ptr`` comes from the resident
        degree array; global ``row_ind`` is reassembled in row blocks with a
        stable merge (shards are visited in column order, so each row's
        neighbours come out sorted).  With a spilled store the default
        block count equals the shard count, keeping the working set at
        O(largest shard).
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
            if getattr(self.store, "resident", False):
                row_block = self.n_rows
            else:
                row_block = -(-self.n_rows // max(1, self.n_shards))
        row_block = max(1, int(row_block))
        boundaries = self.partition.boundaries
        for r0 in range(0, self.n_rows, row_block):
            r1 = min(self.n_rows, r0 + row_block)
            rows_parts: list[np.ndarray] = []
            cols_parts: list[np.ndarray] = []
            for index in range(self.n_shards):
                shard = self.store.load(index)
                start = int(shard.row_ptr[r0])
                stop = int(shard.row_ptr[r1])
                if stop == start:
                    continue
                cols_parts.append(shard.row_ind[start:stop] + boundaries[index])
                degrees = np.diff(shard.row_ptr[r0 : r1 + 1])
                rows_parts.append(np.repeat(np.arange(r0, r1, dtype=np.int64), degrees))
            if not rows_parts:
                continue
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            # Stable by row: shards were appended in column order, so each
            # row's neighbours are already ascending within the merge.
            order = np.argsort(rows, kind="stable")
            yield cols[order]

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
    """Partition an in-memory graph into column-block shards (views).

    Each shard's column CSR is a slice of the parent's arrays; the row CSR
    is rebuilt per shard (rows keep their global ids).  Weighted graphs are
    rejected — sharded matching is cardinality-only, strip the weights
    first (``graph.with_weights(None)``).
    """
    if graph.weights is not None:
        raise ValueError(
            "sharded matching is cardinality-only: strip the weights first "
            "(graph.with_weights(None))"
        )
    partition = make_partition(method, graph.n_cols, n_shards, col_degrees=graph.col_degrees)
    shards: list[BipartiteGraph] = []
    shard_rows: list[np.ndarray] = []
    edge_counts = np.zeros(partition.n_shards, dtype=np.int64)
    for index in range(partition.n_shards):
        lo, hi = partition.column_range(index)
        ptr = graph.col_ptr[lo : hi + 1]
        base = int(ptr[0]) if ptr.size else 0
        width = hi - lo
        rows = graph.col_ind[base : int(ptr[-1])] if ptr.size else np.empty(0, dtype=np.int64)
        local_cols = np.repeat(np.arange(width, dtype=np.int64), np.diff(ptr))
        col_ptr, col_ind, row_ptr, row_ind, _ = _csr_from_pairs(
            rows, local_cols, graph.n_rows, width
        )
        shard = BipartiteGraph(
            n_rows=graph.n_rows,
            n_cols=width,
            col_ptr=col_ptr,
            col_ind=col_ind,
            row_ptr=row_ptr,
            row_ind=row_ind,
            name=f"{graph.name}[s{index}]",
        )
        shards.append(shard)
        shard_rows.append(np.flatnonzero(shard.row_degrees > 0))
        edge_counts[index] = shard.n_edges
    return ShardedBipartiteGraph(
        partition=partition,
        store=MaterializedShardStore(shards),
        n_rows=graph.n_rows,
        col_degrees=graph.col_degrees,
        row_degrees=graph.row_degrees,
        shard_edge_counts=edge_counts,
        shard_rows=shard_rows,
        col_ind=graph.col_ind,
        name=name if name is not None else f"{graph.name}@{partition.n_shards}",
    )
