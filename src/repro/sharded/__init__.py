"""Sharded matching over column-block partitioned bipartite graphs.

This subsystem turns graph size from a per-process memory bound into a
per-shard one:

* :mod:`repro.sharded.partition` — :class:`ShardedBipartiteGraph`: the
  column-block partition of the dual-CSR representation (contiguous or
  degree-balanced splitters), per-shard :class:`BipartiteGraph` views, one
  global column CSR, the boundary rows, and a ``content_hash()`` identical
  to the unsharded graph's.
* :mod:`repro.sharded.matcher` — :class:`ShardedMatcher`: per-shard kernels
  as Engine jobs on any backend, then HK's phase loop over the global
  column CSR to reconcile cross-shard augmenting paths until the matching
  is maximum on the whole graph.
* :mod:`repro.sharded.ingest` — out-of-core Matrix-Market ingest that
  streams ``.mtx``/``.mtx.gz`` files directly into disk-backed shards with
  an O(largest shard) working set and the column indices in one
  memory-mapped file.

>>> from repro.generators import generate_instance
>>> from repro.sharded import sharded_matching
>>> graph = generate_instance("roadNet-PA", profile="tiny", seed=20130421)
>>> result = sharded_matching(graph, "hk", shards=4, partition="degree")
"""

from repro.sharded.ingest import ingest_matrix_market_sharded, stream_random_bipartite_mtx
from repro.sharded.matcher import ShardedMatcher, sharded_matching
from repro.sharded.partition import (
    PARTITION_METHODS,
    ColumnPartition,
    MaterializedShardStore,
    ShardedBipartiteGraph,
    SpilledShardStore,
    make_partition,
    partition_graph,
)

__all__ = [
    "PARTITION_METHODS",
    "ColumnPartition",
    "MaterializedShardStore",
    "ShardedBipartiteGraph",
    "ShardedMatcher",
    "SpilledShardStore",
    "ingest_matrix_market_sharded",
    "make_partition",
    "partition_graph",
    "sharded_matching",
    "stream_random_bipartite_mtx",
]
