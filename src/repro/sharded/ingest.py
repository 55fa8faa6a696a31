"""Out-of-core Matrix-Market ingest: stream ``.mtx``/``.mtx.gz`` into shards.

The full edge list never materializes.  The file is scanned in bounded
chunks (:class:`~repro.graph.io.MatrixMarketStream`):

* **Boundary pass** (``degree`` partitioning only) — accumulate the
  column-degree histogram, an O(n_cols) array, to place degree-balanced
  boundaries.  ``contiguous`` boundaries need only the header, so that
  method ingests in a single pass over the entries.
* **Routing pass** — each chunk is split by owning shard and appended as
  raw ``(row, local_col)`` int64 pairs to one spill file per shard.
* **Shard builds** — spill files are read back *one at a time*, each built
  into a canonical :class:`BipartiteGraph` (deduplicated, sorted — exactly
  like :func:`repro.graph.builders.from_edges`) and spilled for the
  :class:`~repro.sharded.partition.SpilledShardStore`: its row CSR as raw
  ``.npy`` arrays, its ``col_ind`` appended to the one column-index file
  all shards share, in shard order.  That file is the whole graph's
  ``col_ind``; the returned graph holds it as a read-only memory map.

Peak memory is O(chunk + largest shard + vertex arrays) — independent of
the total edge count, which is what the CI ``shard-smoke`` job asserts.
The exact global degree arrays fall out of the shard builds, so the
resulting :class:`ShardedBipartiteGraph` hashes identically to
``read_matrix_market(path).content_hash()`` without a dedicated full pass.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.graph.io import DEFAULT_CHUNK_ENTRIES, MatrixMarketStream
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import _csr_from_pairs
from repro.sharded.partition import (
    ColumnPartition,
    ShardedBipartiteGraph,
    SpilledShardStore,
    make_partition,
)

__all__ = ["ingest_matrix_market_sharded", "stream_random_bipartite_mtx"]


def _scan_col_degrees(path: Path, n_cols: int, chunk_entries: int) -> np.ndarray:
    """Degree-histogram pass (duplicates included — only boundaries use it)."""
    degrees = np.zeros(n_cols, dtype=np.int64)
    with MatrixMarketStream(path, chunk_entries=chunk_entries) as stream:
        for _, cols, _ in stream:
            degrees += np.bincount(cols, minlength=n_cols)
    return degrees


def _route_to_spools(
    path: Path,
    partition: ColumnPartition,
    spool_dir: Path,
    chunk_entries: int,
) -> None:
    """Append each entry chunk, split by owning shard, to the spill files."""
    boundaries = partition.boundaries
    spools = [
        open(spool_dir / f"shard-{index:05d}.edges", "wb")
        for index in range(partition.n_shards)
    ]
    try:
        with MatrixMarketStream(path, chunk_entries=chunk_entries) as stream:
            for rows, cols, _ in stream:
                shard_ids = partition.shard_of(cols)
                for index in np.unique(shard_ids):
                    mask = shard_ids == index
                    pairs = np.empty((int(mask.sum()), 2), dtype=np.int64)
                    pairs[:, 0] = rows[mask]
                    pairs[:, 1] = cols[mask] - boundaries[index]
                    spools[index].write(pairs.tobytes())
    finally:
        for handle in spools:
            handle.close()


def _build_shard(
    spool_path: Path, n_rows: int, width: int, name: str
) -> BipartiteGraph:
    raw = np.fromfile(spool_path, dtype=np.int64)
    pairs = raw.reshape(-1, 2)
    col_ptr, col_ind, row_ptr, row_ind, _ = _csr_from_pairs(
        pairs[:, 0], pairs[:, 1], n_rows, width
    )
    return BipartiteGraph(
        n_rows=n_rows,
        n_cols=width,
        col_ptr=col_ptr,
        col_ind=col_ind,
        row_ptr=row_ptr,
        row_ind=row_ind,
        name=name,
    )


def ingest_matrix_market_sharded(
    path: str | Path,
    n_shards: int,
    method: str = "contiguous",
    *,
    spool_dir: str | Path | None = None,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    max_resident: int = 1,
    name: str | None = None,
) -> ShardedBipartiteGraph:
    """Stream a Matrix-Market file into a disk-backed sharded graph.

    Parameters
    ----------
    path:
        ``.mtx`` or ``.mtx.gz`` file (pattern or value field; values are
        ignored — sharded matching is cardinality-only).
    n_shards / method:
        Partition shape (see :data:`~repro.sharded.partition.PARTITION_METHODS`).
    spool_dir:
        Directory for the spill files, the shards' row ``.npy`` arrays and
        the graph's column-index file.  ``None``
        creates a temporary directory that is removed when the returned
        graph is closed or garbage collected; an explicit directory is kept.
    chunk_entries:
        Entries parsed per chunk — the streaming working set.
    max_resident:
        How many built shards the store keeps in memory at a time.
    """
    path = Path(path)
    graph_name = (
        name
        if name is not None
        else path.name.removesuffix(".gz").removesuffix(".mtx") + f"@{int(n_shards)}"
    )
    with MatrixMarketStream(path, chunk_entries=chunk_entries) as stream:
        header = stream.header
    if method == "degree":
        boundary_degrees = _scan_col_degrees(path, header.n_cols, chunk_entries)
        partition = make_partition(
            "degree", header.n_cols, n_shards, col_degrees=boundary_degrees
        )
        del boundary_degrees
    else:
        partition = make_partition(method, header.n_cols, n_shards)

    cleanup = spool_dir is None
    if cleanup:
        spool_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
    else:
        spool_dir = Path(spool_dir)
        spool_dir.mkdir(parents=True, exist_ok=True)

    _route_to_spools(path, partition, spool_dir, chunk_entries)

    # Build + spill shards one at a time; exact global degrees fall out.
    col_degrees = np.zeros(header.n_cols, dtype=np.int64)
    row_degrees = np.zeros(header.n_rows, dtype=np.int64)
    edge_counts = np.zeros(partition.n_shards, dtype=np.int64)
    shard_rows: list[np.ndarray] = []
    with open(spool_dir / SpilledShardStore.COL_IND_FILE, "wb") as col_file:
        for index in range(partition.n_shards):
            lo, hi = partition.column_range(index)
            spool_path = spool_dir / f"shard-{index:05d}.edges"
            shard = _build_shard(spool_path, header.n_rows, hi - lo, f"shard{index}")
            spool_path.unlink()
            SpilledShardStore.spill(shard, spool_dir, index, col_file)
            col_degrees[lo:hi] = shard.col_degrees
            shard_row_degrees = shard.row_degrees
            row_degrees += shard_row_degrees
            shard_rows.append(np.flatnonzero(shard_row_degrees > 0))
            edge_counts[index] = shard.n_edges
            del shard

    col_ptr = np.concatenate([[0], np.cumsum(col_degrees)])
    col_ind = SpilledShardStore.map_col_ind(spool_dir, int(col_ptr[-1]))
    store = SpilledShardStore(
        spool_dir, partition, col_ptr, col_ind, max_resident=max_resident, cleanup=cleanup
    )
    return ShardedBipartiteGraph(
        partition=partition,
        store=store,
        n_rows=header.n_rows,
        col_degrees=col_degrees,
        row_degrees=row_degrees,
        shard_edge_counts=edge_counts,
        shard_rows=shard_rows,
        col_ind=col_ind,
        name=graph_name,
    )


def stream_random_bipartite_mtx(
    path: str | Path,
    n_rows: int,
    n_cols: int,
    n_entries: int,
    *,
    seed: int = 20130421,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
) -> Path:
    """Write a uniform-random bipartite ``.mtx``/``.mtx.gz`` chunk by chunk.

    The file declares ``n_entries`` coordinate lines (duplicates possible —
    readers deduplicate, exactly as SuiteSparse files may), generated and
    written in fixed-size chunks so arbitrarily large on-disk instances cost
    O(chunk) memory to produce.  This is the instance factory for the
    scaling benchmarks and the CI ``shard-smoke`` job.
    """
    from repro.graph.io import MatrixMarketStreamWriter

    if min(n_rows, n_cols) < 1 and n_entries > 0:
        raise ValueError("entries need at least one row and one column")
    rng = np.random.default_rng(seed)
    path = Path(path)
    with MatrixMarketStreamWriter(
        path,
        n_rows=n_rows,
        n_cols=n_cols,
        n_entries=n_entries,
        comment=f"uniform random bipartite, seed={seed}",
    ) as writer:
        remaining = int(n_entries)
        while remaining > 0:
            size = min(remaining, chunk_entries)
            rows = rng.integers(0, n_rows, size=size, dtype=np.int64)
            cols = rng.integers(0, n_cols, size=size, dtype=np.int64)
            writer.write_chunk(rows, cols)
            remaining -= size
    return path
