"""Memory-scaling assertions for the out-of-core sharded pipeline.

The contract of :func:`repro.sharded.ingest_matrix_market_sharded` plus
:class:`repro.sharded.ShardedMatcher` is that peak memory follows the
*largest shard*, not the file: growing the instance while growing the shard
count in proportion must keep the per-run peak flat.  These tests measure
real allocation peaks with :mod:`tracemalloc` (NumPy reports its buffers
through it), so a regression that silently materializes the full edge list
— in the reader, the router or the reconciler — fails loudly here.

Sizes are kept modest (the largest file holds 180k entries) so the suite
stays fast; the CI ``shard-smoke`` job runs the same assertion at the
10^7-entry scale through ``scripts/shard_smoke.py``.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.api import max_bipartite_matching, resolve_algorithm
from repro.graph.io import read_matrix_market
from repro.sharded import (
    ShardedMatcher,
    ingest_matrix_market_sharded,
    stream_random_bipartite_mtx,
)

#: Entries parsed per streaming chunk — held constant across sizes so the
#: chunk buffers contribute the same constant to every measured peak.
CHUNK = 10_000
#: (n per side, total declared entries, shard count): entries per shard is
#: 15_000 for every point, while the total grows 6x end to end.
LADDER = [
    (500, 30_000, 2),
    (1_000, 90_000, 6),
    (1_500, 180_000, 12),
]


def _sharded_peak(path, n_shards: int) -> tuple[int, int]:
    """(tracemalloc peak bytes, cardinality) of ingest + sharded solve."""
    tracemalloc.start()
    sharded = ingest_matrix_market_sharded(
        path, n_shards, chunk_entries=CHUNK, max_resident=1
    )
    result = ShardedMatcher(sharded, resolve_algorithm("hk")).run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    sharded.close()
    return peak, result.cardinality


@pytest.fixture(scope="module")
def ladder_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharded-scaling")
    return [
        (
            stream_random_bipartite_mtx(
                directory / f"g{entries}.mtx",
                n,
                n,
                entries,
                seed=20130421,
                chunk_entries=CHUNK,
            ),
            n_shards,
        )
        for n, entries, n_shards in LADDER
    ]


def test_per_shard_peak_memory_stays_flat(ladder_files):
    peaks = []
    for path, n_shards in ladder_files:
        peak, cardinality = _sharded_peak(path, n_shards)
        assert cardinality > 0
        peaks.append(peak)
    # Edges grow 6x across the ladder while entries-per-shard are constant;
    # a flat profile means the peak must not follow the total.  2x headroom
    # absorbs allocator noise — the failure mode being guarded against
    # (materializing the file) would show up as ~6x.
    assert max(peaks) <= 2.0 * min(peaks), (
        f"per-shard peak memory is not flat across the ladder: {peaks}"
    )


def test_sharded_peak_is_far_below_in_memory_solve(ladder_files):
    path, n_shards = ladder_files[-1]
    sharded_peak, sharded_card = _sharded_peak(path, n_shards)

    tracemalloc.start()
    graph = read_matrix_market(path)
    result = max_bipartite_matching(graph, "hk")
    _, inmemory_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert sharded_card == result.cardinality
    # Measured locally the gap is ~10x; 2x keeps the assertion robust while
    # still failing if the out-of-core path starts holding the whole graph.
    assert sharded_peak * 2 < inmemory_peak, (
        f"sharded peak {sharded_peak} is not clearly below "
        f"in-memory peak {inmemory_peak}"
    )
