"""Sharded matching over column-block partitioned bipartite graphs.

This subsystem turns graph size from a per-process memory bound into a
per-shard one:

* :mod:`repro.sharded.partition` — :class:`ShardedBipartiteGraph`: one
  global column CSR split into column blocks (contiguous or
  degree-balanced splitters), the boundary rows, a ``content_hash()``
  identical to the unsharded graph's, and ``shard(s)``, which builds shard
  ``s`` as a :class:`BipartiteGraph` from its block — the column side a
  view, the row side the block transposed — under an LRU of at most
  ``max_resident`` built shards.
* :mod:`repro.sharded.matcher` — :class:`ShardedMatcher`: per-shard kernels
  as Engine jobs on any backend, then HK's phase loop over the global
  column CSR to reconcile cross-shard augmenting paths until the matching
  is maximum on the whole graph.
* :mod:`repro.sharded.ingest` — out-of-core Matrix-Market ingest that
  streams ``.mtx``/``.mtx.gz`` files into one memory-mapped column-index
  file with an O(largest shard) working set.

Sharded matching runs through the registry:

>>> from repro import max_bipartite_matching
>>> from repro.generators import generate_instance
>>> graph = generate_instance("roadNet-PA", profile="tiny", seed=20130421)
>>> result = max_bipartite_matching(graph, "hk", shards=4, partition="degree")
"""

from repro.sharded.ingest import ingest_matrix_market_sharded, stream_random_bipartite_mtx
from repro.sharded.matcher import ShardedMatcher
from repro.sharded.partition import (
    PARTITION_METHODS,
    ColumnPartition,
    ShardedBipartiteGraph,
    make_partition,
    partition_graph,
)

__all__ = [
    "PARTITION_METHODS",
    "ColumnPartition",
    "ShardedBipartiteGraph",
    "ShardedMatcher",
    "ingest_matrix_market_sharded",
    "make_partition",
    "partition_graph",
    "stream_random_bipartite_mtx",
]
