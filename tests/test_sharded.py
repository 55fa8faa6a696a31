"""Tests for the sharded matching subsystem (repro.sharded).

The load-bearing property is *cardinality parity*: for every generator
family, partition method, shard count and engine backend, the sharded
pipeline (per-shard solves + frontier-exchange reconciliation) must return
a maximum matching of the whole graph — the same cardinality as the
single-graph solver.  Around it sit the partition invariants, the exact
content-hash reconstruction, the out-of-core ingest and the API wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import max_bipartite_matching, resolve_algorithm
from repro.engine import Engine
from repro.engine.execution import validate_job_args
from repro.generators import generate_instance
from repro.gpusim.costmodel import CpuCostModel
from repro.graph import from_edges
from repro.seq.verify import is_valid_matching, is_maximum_matching, maximum_matching_cardinality
from repro.sharded import (
    PARTITION_METHODS,
    ColumnPartition,
    ShardedMatcher,
    ingest_matrix_market_sharded,
    make_partition,
    partition_graph,
    sharded_matching,
    stream_random_bipartite_mtx,
)

FAMILIES = ("roadNet-PA", "amazon0505", "delaunay_n20", "kron_g500-logn20")
SHARD_COUNTS = (1, 2, 4, 7)
BACKENDS = ("inline", "thread", "process")


@pytest.fixture(scope="module")
def suite_graphs():
    return {
        name: generate_instance(name, profile="tiny", seed=20130421)
        for name in FAMILIES
    }


@pytest.fixture(scope="module")
def expected_cardinality(suite_graphs):
    return {
        name: maximum_matching_cardinality(graph)
        for name, graph in suite_graphs.items()
    }


@pytest.fixture(scope="module")
def engines():
    """One shared engine per backend, so 90+ parity cases don't re-spawn pools."""
    built: dict[str, Engine] = {}

    def get(backend: str) -> Engine:
        if backend not in built:
            built[backend] = Engine(backend=backend, max_workers=2)
        return built[backend]

    yield get
    for engine in built.values():
        engine.shutdown()


# ------------------------------------------------------------- partitions
def test_partition_contiguous_spans_all_columns():
    part = make_partition("contiguous", 103, 4)
    assert part.boundaries[0] == 0 and part.boundaries[-1] == 103
    assert part.n_shards == 4
    widths = [part.width(s) for s in range(4)]
    assert sum(widths) == 103
    assert max(widths) - min(widths) <= 1


def test_partition_degree_balances_skewed_columns():
    # Column 0 carries half of all edges; degree balancing must isolate it.
    degrees = np.array([500] + [1] * 99, dtype=np.int64)
    part = make_partition("degree", 100, 4, col_degrees=degrees)
    edge_loads = [degrees[slice(*part.column_range(s))].sum() for s in range(4)]
    contiguous = make_partition("contiguous", 100, 4)
    contiguous_loads = [
        degrees[slice(*contiguous.column_range(s))].sum() for s in range(4)
    ]
    assert max(edge_loads) < max(contiguous_loads)


def test_partition_more_shards_than_columns_allows_zero_width():
    part = make_partition("contiguous", 5, 7)
    widths = [part.width(s) for s in range(7)]
    assert sum(widths) == 5
    assert 0 in widths


def test_partition_shard_of_is_inverse_of_column_range():
    part = make_partition("contiguous", 64, 5)
    cols = np.arange(64, dtype=np.int64)
    shard_ids = part.shard_of(cols)
    for s in range(5):
        lo, hi = part.column_range(s)
        assert (shard_ids[lo:hi] == s).all()


def test_partition_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        ColumnPartition(
            n_cols=10,
            boundaries=np.array([0, 5, 4, 10], dtype=np.int64),
            method="contiguous",
        )
    with pytest.raises(ValueError):
        ColumnPartition(
            n_cols=10, boundaries=np.array([1, 10], dtype=np.int64), method="contiguous"
        )


def test_partition_graph_rejects_weighted(suite_graphs):
    graph = suite_graphs["roadNet-PA"]
    weighted = graph.with_weights(np.ones(graph.n_edges))
    with pytest.raises(ValueError, match="cardinality-only"):
        partition_graph(weighted, 2)


# ------------------------------------------------------ cardinality parity
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_cardinality_parity(
    family, method, n_shards, backend, suite_graphs, expected_cardinality, engines
):
    graph = suite_graphs[family]
    result = sharded_matching(
        graph, "hk", shards=n_shards, partition=method, engine=engines(backend)
    )
    assert result.cardinality == expected_cardinality[family]
    assert is_valid_matching(graph, result.matching)
    assert result.counters["shards"] == n_shards


@pytest.mark.parametrize("family", FAMILIES)
def test_backends_are_bit_identical(family, suite_graphs, engines):
    graph = suite_graphs[family]
    results = [
        sharded_matching(
            graph, "hk", shards=4, partition="degree", engine=engines(backend)
        )
        for backend in ("inline", "thread")
    ]
    assert np.array_equal(
        results[0].matching.row_match, results[1].matching.row_match
    )
    assert np.array_equal(
        results[0].matching.col_match, results[1].matching.col_match
    )


@pytest.mark.parametrize("algorithm", ["hk", "pr", "pfp", "p-dbfs"])
def test_parity_across_shard_kernels(algorithm, suite_graphs, expected_cardinality):
    graph = suite_graphs["amazon0505"]
    result = sharded_matching(graph, algorithm, shards=3)
    assert result.cardinality == expected_cardinality["amazon0505"]
    assert result.algorithm == f"sharded-{algorithm}"


@pytest.mark.parametrize("algorithm", ["g-pr", "pr", "p-dbfs"])
def test_modeled_time_sums_the_shards_and_the_reconcile(algorithm, suite_graphs):
    """Each shard's modeled seconds, as its own result prices them (device,
    CPU or multicore model), summed in shard order, plus the CPU model over
    the adjacency entries the reconcile scanned."""
    sharded = partition_graph(suite_graphs["amazon0505"], 3, "contiguous")
    result = ShardedMatcher(sharded, algorithm).run()
    shard_seconds = 0.0
    shard_edges = 0
    for index in range(sharded.n_shards):
        if sharded.shard_edge_counts[index]:
            shard = max_bipartite_matching(sharded.shard(index), algorithm)
            shard_seconds += shard.modeled_time
            shard_edges += int(shard.counters.get("edges_scanned", 0))
    reconcile = CpuCostModel().seconds(result.counters["edges_scanned"] - shard_edges)
    assert shard_seconds > 0
    assert result.modeled_time == shard_seconds + reconcile


def test_result_is_maximum_on_whole_graph(suite_graphs):
    graph = suite_graphs["kron_g500-logn20"]
    result = sharded_matching(graph, "hk", shards=4, partition="degree")
    assert is_maximum_matching(graph, result.matching)


# ----------------------------------------------------------- boundary cases
def test_all_edges_in_one_shard():
    # 40 columns but every edge lives in columns 0-9: shard 0 owns them all.
    edges = [(r, r % 10) for r in range(30)] + [(r, (r + 3) % 10) for r in range(30)]
    graph = from_edges(edges, n_rows=30, n_cols=40, name="lopsided")
    sharded = partition_graph(graph, 4)
    assert sharded.shard_edge_counts[0] == graph.n_edges
    assert (sharded.shard_edge_counts[1:] == 0).all()
    result = sharded_matching(graph, "hk", shards=4)
    assert result.cardinality == maximum_matching_cardinality(graph)
    # Empty shards never become jobs.
    assert result.counters["shard_jobs"] == 1


def test_more_shards_than_columns_end_to_end():
    edges = [(r, r % 5) for r in range(12)]
    graph = from_edges(edges, n_rows=12, n_cols=5, name="narrow")
    result = sharded_matching(graph, "hk", shards=7)
    assert result.cardinality == maximum_matching_cardinality(graph)


def test_every_row_crosses_every_shard():
    # Each row has one edge in each of the four column blocks.
    edges = [(r, 10 * s + (r % 10)) for r in range(30) for s in range(4)]
    graph = from_edges(edges, n_rows=30, n_cols=40, name="crossing")
    sharded = partition_graph(graph, 4)
    assert sharded.boundary_rows.size == 30
    assert all(sharded.boundary_shards(r).size == 4 for r in range(30))
    result = sharded_matching(graph, "hk", shards=4)
    assert result.cardinality == maximum_matching_cardinality(graph)


def test_empty_graph():
    graph = from_edges([], n_rows=6, n_cols=6, name="empty")
    result = sharded_matching(graph, "hk", shards=3)
    assert result.cardinality == 0
    sharded = partition_graph(graph, 3)
    assert sharded.content_hash() == graph.content_hash()


# --------------------------------------------------------------- hash parity
@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_content_hash_matches_unsharded(family, method, suite_graphs):
    graph = suite_graphs[family]
    for n_shards in (1, 3, 7):
        sharded = partition_graph(graph, n_shards, method)
        assert sharded.content_hash() == graph.content_hash()


def test_content_hash_row_block_independent(suite_graphs):
    graph = suite_graphs["roadNet-PA"]
    sharded = partition_graph(graph, 4, "degree")
    assert sharded.content_hash(row_block=17) == graph.content_hash()


def test_to_graph_round_trips(suite_graphs):
    graph = suite_graphs["amazon0505"]
    rebuilt = partition_graph(graph, 5).to_graph()
    assert rebuilt.content_hash() == graph.content_hash()


# ------------------------------------------------------------ out-of-core
@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_ingest_matches_in_memory(tmp_path, method):
    path = stream_random_bipartite_mtx(
        tmp_path / "g.mtx.gz", 300, 280, 2500, seed=5
    )
    from repro.graph.io import read_matrix_market

    reference = read_matrix_market(path)
    sharded = ingest_matrix_market_sharded(path, 4, method)
    assert sharded.content_hash() == reference.content_hash()
    result = ShardedMatcher(sharded, "hk").run()
    assert result.cardinality == maximum_matching_cardinality(reference)
    sharded.close()


def test_ingest_window_defaults_to_max_resident(tmp_path):
    path = stream_random_bipartite_mtx(tmp_path / "g.mtx", 120, 120, 700, seed=9)
    sharded = ingest_matrix_market_sharded(path, 5, max_resident=2)
    matcher = ShardedMatcher(sharded, "hk")
    assert matcher._window == 2
    sharded.close()


def test_ingest_explicit_spool_dir_is_kept(tmp_path):
    path = stream_random_bipartite_mtx(tmp_path / "g.mtx", 60, 60, 300, seed=3)
    spool = tmp_path / "spool"
    sharded = ingest_matrix_market_sharded(path, 3, spool_dir=spool)
    sharded.close()
    arrays = ("col_ptr", "col_ind", "row_ptr", "row_ind")
    assert sorted(p.name for p in spool.iterdir()) == sorted(
        f"shard-{index:05d}.{field}.npy" for index in range(3) for field in arrays
    )


# ------------------------------------------------------------- API wiring
def test_resolve_algorithm_sharded_plan(suite_graphs, expected_cardinality):
    graph = suite_graphs["delaunay_n20"]
    plan = resolve_algorithm("hk", shards=4, partition="degree")
    assert plan.shards == 4 and plan.partition_method == "degree"
    result = plan.run(graph)
    assert result.algorithm == "sharded-hk"
    assert result.cardinality == expected_cardinality["delaunay_n20"]


def test_max_bipartite_matching_accepts_shards(suite_graphs, expected_cardinality):
    graph = suite_graphs["roadNet-PA"]
    result = max_bipartite_matching(graph, "pr", shards=2)
    assert result.cardinality == expected_cardinality["roadNet-PA"]


def test_resolve_algorithm_rejects_bad_sharding():
    with pytest.raises(TypeError, match="cannot run sharded"):
        resolve_algorithm("cheap", shards=2)
    with pytest.raises(TypeError, match="cannot run sharded"):
        resolve_algorithm("weighted-sap", shards=2)
    with pytest.raises(TypeError, match="partition= requires shards="):
        resolve_algorithm("hk", partition="degree")
    with pytest.raises(ValueError, match="shards must be >= 1"):
        resolve_algorithm("hk", shards=0)
    with pytest.raises(ValueError, match="unknown partition method"):
        resolve_algorithm("hk", shards=2, partition="zigzag")


def test_sharded_plan_rejects_warm_start(suite_graphs):
    graph = suite_graphs["roadNet-PA"]
    plan = resolve_algorithm("hk", shards=2)
    baseline = max_bipartite_matching(graph, "hk")
    with pytest.raises(TypeError, match="warm-start"):
        plan.run(graph, baseline.matching)
    with pytest.raises(TypeError, match="warm-start"):
        validate_job_args("hk", {"shards": 2}, "cheap")


def test_sharded_plan_rejects_weighted_graph(suite_graphs):
    graph = suite_graphs["roadNet-PA"]
    weighted = graph.with_weights(np.ones(graph.n_edges))
    plan = resolve_algorithm("hk", shards=2)
    with pytest.raises(ValueError, match="cardinality-only"):
        plan.run(weighted)


def test_sharded_matcher_rejects_nested_plan(suite_graphs):
    sharded = partition_graph(suite_graphs["roadNet-PA"], 2)
    plan = resolve_algorithm("hk", shards=2)
    with pytest.raises(ValueError, match="must not itself be sharded"):
        ShardedMatcher(sharded, plan=plan)


def test_sharded_matcher_rejects_non_maximum_kernel(suite_graphs):
    sharded = partition_graph(suite_graphs["roadNet-PA"], 2)
    with pytest.raises(ValueError, match="maximum-cardinality"):
        ShardedMatcher(sharded, "karp-sipser")


def test_sharded_matching_requires_shards_for_plain_graph(suite_graphs):
    with pytest.raises(ValueError, match="shards= is required"):
        sharded_matching(suite_graphs["roadNet-PA"], "hk")
