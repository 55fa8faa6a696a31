"""Out-of-core Matrix-Market ingest: stream ``.mtx``/``.mtx.gz`` into shards.

The full edge list never materializes.  The file is scanned in bounded
chunks (:class:`~repro.graph.io.MatrixMarketStream`):

* **Boundary pass** (``degree`` partitioning only) — accumulate the
  column-degree histogram, an O(n_cols) array, to place degree-balanced
  boundaries.  ``contiguous`` boundaries need only the header, so that
  method ingests in a single pass over the entries.
* **Routing pass** — each chunk is split by owning shard and appended as
  raw ``(row, local_col)`` int64 pairs to one spool file per shard.
* **Column blocks** — spool files are read back *one at a time*, each
  deduplicated and sorted into its canonical column CSR by the column half
  of the graph builder (the one :func:`repro.graph.builders.from_edges`
  runs), and its ``col_ind`` appended to the one column-index file, in
  shard order.  That file is the whole graph's ``col_ind`` and the only
  file left in the spool directory; the returned graph holds it as a
  read-only memory map and builds each shard from it on use
  (:meth:`~repro.sharded.partition.ShardedBipartiteGraph.shard`).

Peak memory is O(chunk + largest shard + vertex arrays) — independent of
the total edge count, which is what the CI ``shard-smoke`` job asserts.
The exact column degrees fall out of the column blocks, so the resulting
:class:`ShardedBipartiteGraph` hashes identically to
``read_matrix_market(path).content_hash()`` without a dedicated full pass.
A temporary spool directory is removed if the ingest fails.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.io import DEFAULT_CHUNK_ENTRIES, MatrixMarketStream
from repro.graph.builders import _column_csr
from repro.sharded.partition import ColumnPartition, ShardedBipartiteGraph, make_partition

__all__ = ["ingest_matrix_market_sharded", "stream_random_bipartite_mtx"]

#: The raw ``int64`` file holding every shard's ``col_ind``, in shard order.
COL_IND_FILE = "col_ind.int64"


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
    """Append each entry chunk, split by owning shard, to the spool files."""
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


def _write_col_ind(spool_dir: Path, partition: ColumnPartition, n_rows: int) -> np.ndarray:
    """Dedup each spooled shard into its column CSR, one shard at a time,
    and append its ``col_ind`` to :data:`COL_IND_FILE`; returns the column
    degrees.  ``ndarray.tofile`` writes the indices without a heap copy."""
    col_degrees = np.zeros(partition.n_cols, dtype=np.int64)
    with open(spool_dir / COL_IND_FILE, "wb") as col_file:
        for index in range(partition.n_shards):
            lo, hi = partition.column_range(index)
            spool_path = spool_dir / f"shard-{index:05d}.edges"
            pairs = np.fromfile(spool_path, dtype=np.int64).reshape(-1, 2)
            spool_path.unlink()
            col_ptr, col_ind, _, _ = _column_csr(pairs[:, 0], pairs[:, 1], n_rows, hi - lo)
            del pairs
            col_ind.tofile(col_file)
            col_degrees[lo:hi] = np.diff(col_ptr)
    return col_degrees


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
        Directory for the spool files and the graph's column-index file.
        ``None`` creates a temporary directory that is removed when the
        returned graph is closed or garbage collected, or when the ingest
        fails; an explicit directory is kept.
    chunk_entries:
        Entries parsed per chunk — the streaming working set.
    max_resident:
        How many built shards the graph keeps in memory at a time.
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

    owned = spool_dir is None
    if owned:
        spool_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
    else:
        spool_dir = Path(spool_dir)
        spool_dir.mkdir(parents=True, exist_ok=True)
    try:
        _route_to_spools(path, partition, spool_dir, chunk_entries)
        col_degrees = _write_col_ind(spool_dir, partition, header.n_rows)
        n_edges = int(col_degrees.sum())
        # Zero-length files cannot be mmapped; an edgeless graph has no
        # column indices to map anyway.
        col_ind = (
            np.memmap(spool_dir / COL_IND_FILE, dtype=np.int64, mode="r", shape=(n_edges,))
            if n_edges
            else np.empty(0, dtype=np.int64)
        )
        return ShardedBipartiteGraph(
            partition=partition,
            n_rows=header.n_rows,
            col_degrees=col_degrees,
            col_ind=col_ind,
            max_resident=max_resident,
            directory=spool_dir if owned else None,
            name=graph_name,
        )
    except BaseException:
        if owned:
            shutil.rmtree(spool_dir, ignore_errors=True)
        raise


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
