"""Tests for the sharded matching subsystem (repro.sharded).

The load-bearing property is *cardinality parity*: for every generator
family, partition method, shard count and engine backend, the sharded
pipeline (per-shard solves + frontier-exchange reconciliation) must return
a maximum matching of the whole graph — the same cardinality as the
single-graph solver.  Around it sit the partition invariants, the exact
content-hash reconstruction, the out-of-core ingest and the API wiring.
"""

from __future__ import annotations

import hashlib
import tempfile

import numpy as np
import pytest

from repro.core.api import max_bipartite_matching, resolve_algorithm
from repro.engine import Engine
from repro.engine.execution import validate_job_args
from repro.generators import generate_instance
from repro.gpusim.costmodel import CpuCostModel
from repro.graph import from_edges
from repro.graph.io import read_matrix_market
from repro.seq.verify import is_valid_matching, is_maximum_matching, maximum_matching_cardinality
from repro.sharded import (
    PARTITION_METHODS,
    ColumnPartition,
    ShardedMatcher,
    ingest_matrix_market_sharded,
    make_partition,
    partition_graph,
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
    result = ShardedMatcher(
        partition_graph(graph, n_shards, method),
        resolve_algorithm("hk"),
        engine=engines(backend),
    ).run()
    assert result.cardinality == expected_cardinality[family]
    assert is_valid_matching(graph, result.matching)
    assert result.counters["shards"] == n_shards


@pytest.mark.parametrize("family", FAMILIES)
def test_backends_are_bit_identical(family, suite_graphs, engines):
    graph = suite_graphs[family]
    results = [
        ShardedMatcher(
            partition_graph(graph, 4, "degree"),
            resolve_algorithm("hk"),
            engine=engines(backend),
        ).run()
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
    result = max_bipartite_matching(graph, algorithm, shards=3)
    assert result.cardinality == expected_cardinality["amazon0505"]
    assert result.algorithm == f"sharded-{algorithm}"


@pytest.mark.parametrize("algorithm", ["g-pr", "pr", "p-dbfs"])
def test_modeled_time_sums_the_shards_and_the_reconcile(algorithm, suite_graphs):
    """Each shard's modeled seconds, as its own result prices them (device,
    CPU or multicore model), summed in shard order, plus the CPU model over
    the adjacency entries the reconcile scanned."""
    sharded = partition_graph(suite_graphs["amazon0505"], 3, "contiguous")
    result = ShardedMatcher(sharded, resolve_algorithm(algorithm)).run()
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
    result = max_bipartite_matching(graph, "hk", shards=4, partition="degree")
    assert is_maximum_matching(graph, result.matching)


#: Per (family, shards, splitter, per-shard kernel): the SHA-1 of the sharded
#: result's ``row_match`` and its ``edges_scanned``, ``reconcile_phases`` and
#: ``reconcile_augmentations`` counters, recorded while the reconcile still
#: ran its own copy of the HK phase over per-shard column views.
SHARDED_PINS = {
    ("roadNet-PA", 1, "contiguous", "hk"):
        ("9ce4aae444477faeff9cdcc820cd21329032529d", 1751, 1, 0),
    ("roadNet-PA", 1, "contiguous", "pr"):
        ("a5405e2710799c6fd9e4aa4063cd3ecb30ea1832", 1078, 1, 0),
    ("roadNet-PA", 1, "degree", "hk"):
        ("9ce4aae444477faeff9cdcc820cd21329032529d", 1751, 1, 0),
    ("roadNet-PA", 1, "degree", "pr"):
        ("a5405e2710799c6fd9e4aa4063cd3ecb30ea1832", 1078, 1, 0),
    ("roadNet-PA", 3, "contiguous", "hk"):
        ("3da31f5b5f81852f5106276c90ba51f31275fc46", 4311, 7, 23),
    ("roadNet-PA", 3, "contiguous", "pr"):
        ("ab9f1f364d075bdd74222f3ddf814491823a5a83", 3714, 7, 23),
    ("roadNet-PA", 3, "degree", "hk"):
        ("7a1995e68ed4b18e30de68bd0767b254bf1dc36f", 3719, 6, 24),
    ("roadNet-PA", 3, "degree", "pr"):
        ("7bd61580dfab097d97b1ab7cc51515e4827cd463", 3210, 6, 24),
    ("roadNet-PA", 7, "contiguous", "hk"):
        ("c14a87342c2d8fa0c609600f6130faab633534d9", 4316, 7, 44),
    ("roadNet-PA", 7, "contiguous", "pr"):
        ("a0682f04c4afa9e11c36b5d59feb084c0bb84853", 4060, 7, 46),
    ("roadNet-PA", 7, "degree", "hk"):
        ("0fb2ecb2c9e5059ac8f1c374ffe0581e5bd6d6a6", 3661, 6, 46),
    ("roadNet-PA", 7, "degree", "pr"):
        ("867b5d808557ac45308e86262802e3cd587984fb", 3456, 6, 48),
    ("amazon0505", 1, "contiguous", "hk"):
        ("03f45d239633be3795289d9b3d41b95bbc11def7", 9380, 1, 0),
    ("amazon0505", 1, "contiguous", "pr"):
        ("e87bb653f42c47cae43cac9ca3fbd4a52a977c27", 3023, 1, 0),
    ("amazon0505", 1, "degree", "hk"):
        ("03f45d239633be3795289d9b3d41b95bbc11def7", 9380, 1, 0),
    ("amazon0505", 1, "degree", "pr"):
        ("e87bb653f42c47cae43cac9ca3fbd4a52a977c27", 3023, 1, 0),
    ("amazon0505", 3, "contiguous", "hk"):
        ("6a1cff7c6491ee730ca94b8bb6bfba01d791a4d1", 10685, 9, 88),
    ("amazon0505", 3, "contiguous", "pr"):
        ("98034504951a8cf70e3c779d39a5a441d2819b3a", 8006, 7, 87),
    ("amazon0505", 3, "degree", "hk"):
        ("52d2a3a934d6099e8a7ca866de7ad73442d0d9ad", 9274, 8, 89),
    ("amazon0505", 3, "degree", "pr"):
        ("1c205b22f607c2a167620b7d30ee3077bd65f5b3", 10738, 9, 89),
    ("amazon0505", 7, "contiguous", "hk"):
        ("992807957bbb335cca929acd5d8e79749626ccb4", 10824, 8, 113),
    ("amazon0505", 7, "contiguous", "pr"):
        ("fa593fd058b5e9c60366d8d1d690e79fc25fc383", 10632, 8, 113),
    ("amazon0505", 7, "degree", "hk"):
        ("9e86d63723afab15bed15b552f8face872faa5c3", 8923, 7, 109),
    ("amazon0505", 7, "degree", "pr"):
        ("ce0067e6e16ff0431c506678191c5608b7ede97b", 8865, 7, 111),
    ("delaunay_n20", 1, "contiguous", "hk"):
        ("e0b0d0d24bf5eeba770469568cd59d6c6027549c", 1921, 1, 0),
    ("delaunay_n20", 1, "contiguous", "pr"):
        ("fac137d5cd7e6b2389c0f42514adab46fccb65ed", 224, 1, 0),
    ("delaunay_n20", 1, "degree", "hk"):
        ("e0b0d0d24bf5eeba770469568cd59d6c6027549c", 1921, 1, 0),
    ("delaunay_n20", 1, "degree", "pr"):
        ("fac137d5cd7e6b2389c0f42514adab46fccb65ed", 224, 1, 0),
    ("delaunay_n20", 3, "contiguous", "hk"):
        ("c85fa62ca39c6da64974da78f746070ed568b452", 4818, 5, 145),
    ("delaunay_n20", 3, "contiguous", "pr"):
        ("c85fa62ca39c6da64974da78f746070ed568b452", 4795, 5, 145),
    ("delaunay_n20", 3, "degree", "hk"):
        ("70816451a1a16669d43afccd3d54c288fa60df04", 4170, 4, 145),
    ("delaunay_n20", 3, "degree", "pr"):
        ("70816451a1a16669d43afccd3d54c288fa60df04", 4147, 4, 145),
    ("delaunay_n20", 7, "contiguous", "hk"):
        ("f59c555ce47cf0f29b997b11549b05cfa6836148", 5520, 4, 179),
    ("delaunay_n20", 7, "contiguous", "pr"):
        ("f59c555ce47cf0f29b997b11549b05cfa6836148", 5520, 4, 179),
    ("delaunay_n20", 7, "degree", "hk"):
        ("00f65c600f12b9078b6768cbd859c6a8a7395a55", 4324, 4, 178),
    ("delaunay_n20", 7, "degree", "pr"):
        ("00f65c600f12b9078b6768cbd859c6a8a7395a55", 4324, 4, 178),
    ("kron_g500-logn20", 1, "contiguous", "hk"):
        ("ed1a29033a7638f2be624722dbdcb03ba126a7e5", 15384, 1, 0),
    ("kron_g500-logn20", 1, "contiguous", "pr"):
        ("ee314e712472d79732ea92d77c7bcb13e5c80b68", 4627, 1, 0),
    ("kron_g500-logn20", 1, "degree", "hk"):
        ("ed1a29033a7638f2be624722dbdcb03ba126a7e5", 15384, 1, 0),
    ("kron_g500-logn20", 1, "degree", "pr"):
        ("ee314e712472d79732ea92d77c7bcb13e5c80b68", 4627, 1, 0),
    ("kron_g500-logn20", 3, "contiguous", "hk"):
        ("a1b42a9866db2bc9f407073f1829c33071adaebb", 19420, 8, 140),
    ("kron_g500-logn20", 3, "contiguous", "pr"):
        ("a563735eabb596f8a6181d5326333da1fbf84e93", 16309, 7, 140),
    ("kron_g500-logn20", 3, "degree", "hk"):
        ("01c51d89a1d5efe47a04cb08c04c7e801d2d1b73", 18480, 7, 125),
    ("kron_g500-logn20", 3, "degree", "pr"):
        ("ff316046c9e2935a8401505a50f27d6954ef9cb7", 15662, 7, 122),
    ("kron_g500-logn20", 7, "contiguous", "hk"):
        ("694d01ca3a6e57cd02d268a396339b916574d970", 20250, 8, 206),
    ("kron_g500-logn20", 7, "contiguous", "pr"):
        ("ad6661f320d80eeb5e48e29a2ae6f78d7d6086a9", 19278, 7, 207),
    ("kron_g500-logn20", 7, "degree", "hk"):
        ("3216c36d8e80fc88866d2db4b71053321feaa896", 20349, 7, 187),
    ("kron_g500-logn20", 7, "degree", "pr"):
        ("62a3f90e7bd2878a2060b048f2db38290198a232", 19007, 7, 184),
}


@pytest.mark.parametrize("algorithm", ["hk", "pr"])
@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("n_shards", (1, 3, 7))
@pytest.mark.parametrize("family", FAMILIES)
def test_sharded_results_are_pinned(family, n_shards, method, algorithm, suite_graphs):
    sharded = partition_graph(suite_graphs[family], n_shards, method)
    result = ShardedMatcher(sharded, resolve_algorithm(algorithm)).run()
    row_match = np.ascontiguousarray(result.matching.row_match, dtype=np.int64)
    counters = result.counters
    assert (
        hashlib.sha1(row_match.tobytes()).hexdigest(),
        counters["edges_scanned"],
        counters["reconcile_phases"],
        counters["reconcile_augmentations"],
    ) == SHARDED_PINS[family, n_shards, method, algorithm]


# ----------------------------------------------------------- boundary cases
def test_all_edges_in_one_shard():
    # 40 columns but every edge lives in columns 0-9: shard 0 owns them all.
    edges = [(r, r % 10) for r in range(30)] + [(r, (r + 3) % 10) for r in range(30)]
    graph = from_edges(edges, n_rows=30, n_cols=40, name="lopsided")
    sharded = partition_graph(graph, 4)
    assert sharded.shard_edge_counts[0] == graph.n_edges
    assert (sharded.shard_edge_counts[1:] == 0).all()
    result = max_bipartite_matching(graph, "hk", shards=4)
    assert result.cardinality == maximum_matching_cardinality(graph)
    # Empty shards never become jobs.
    assert result.counters["shard_jobs"] == 1


def test_more_shards_than_columns_end_to_end():
    edges = [(r, r % 5) for r in range(12)]
    graph = from_edges(edges, n_rows=12, n_cols=5, name="narrow")
    result = max_bipartite_matching(graph, "hk", shards=7)
    assert result.cardinality == maximum_matching_cardinality(graph)


def test_every_row_crosses_every_shard():
    # Each row has one edge in each of the four column blocks.
    edges = [(r, 10 * s + (r % 10)) for r in range(30) for s in range(4)]
    graph = from_edges(edges, n_rows=30, n_cols=40, name="crossing")
    sharded = partition_graph(graph, 4)
    assert sharded.boundary_rows.size == 30
    result = max_bipartite_matching(graph, "hk", shards=4)
    assert result.cardinality == maximum_matching_cardinality(graph)


def test_empty_graph():
    graph = from_edges([], n_rows=6, n_cols=6, name="empty")
    result = max_bipartite_matching(graph, "hk", shards=3)
    assert result.cardinality == 0
    sharded = partition_graph(graph, 3)
    assert sharded.content_hash() == graph.content_hash()


# --------------------------------------------------------------- hash parity
@pytest.mark.parametrize("method", PARTITION_METHODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_content_hash_matches_unsharded(family, method, suite_graphs):
    graph = suite_graphs[family]
    edges = graph.edges()
    for n_shards in (1, 3, 7):
        sharded = partition_graph(graph, n_shards, method)
        assert sharded.content_hash() == graph.content_hash()
        for index in range(n_shards):
            lo, hi = sharded.column_range(index)
            own = edges[(edges[:, 1] >= lo) & (edges[:, 1] < hi)] - [0, lo]
            expected = from_edges(own, n_rows=graph.n_rows, n_cols=hi - lo)
            shard = sharded.shard(index)
            for field in ("col_ptr", "col_ind", "row_ptr", "row_ind"):
                assert np.array_equal(getattr(shard, field), getattr(expected, field))
            # The column side is a slice of the parent's arrays, not a copy.
            if shard.n_edges:
                assert np.shares_memory(shard.col_ind, sharded.col_ind)
                assert np.shares_memory(shard.col_ind, graph.col_ind)


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
    reference = read_matrix_market(path)
    sharded = ingest_matrix_market_sharded(path, 4, method)
    assert isinstance(sharded.col_ind.base, np.memmap)
    assert sharded.content_hash() == reference.content_hash()
    for index in range(sharded.n_shards):
        assert np.shares_memory(sharded.shard(index).col_ind, sharded.col_ind)
    hk = resolve_algorithm("hk")
    result = ShardedMatcher(sharded, hk).run()
    assert result.cardinality == maximum_matching_cardinality(reference)
    # The reconcile over the memory-mapped column CSR walks exactly what it
    # walks over the in-memory partition of the same graph.
    in_memory = ShardedMatcher(partition_graph(reference, 4, method), hk).run()
    assert np.array_equal(result.matching.row_match, in_memory.matching.row_match)
    assert np.array_equal(result.matching.col_match, in_memory.matching.col_match)
    assert result.counters == in_memory.counters
    sharded.close()


def test_ingest_edgeless_file(tmp_path):
    # A zero-length column-index file cannot be memory-mapped.
    path = stream_random_bipartite_mtx(tmp_path / "e.mtx", 5, 6, 0)
    sharded = ingest_matrix_market_sharded(path, 3)
    assert sharded.content_hash() == read_matrix_market(path).content_hash()
    assert ShardedMatcher(sharded, resolve_algorithm("hk")).run().cardinality == 0
    sharded.close()


def test_ingest_window_defaults_to_max_resident(tmp_path, monkeypatch):
    path = stream_random_bipartite_mtx(tmp_path / "g.mtx", 120, 120, 700, seed=9)
    sharded = ingest_matrix_market_sharded(path, 5, max_resident=2)
    # +1 per shard built into a job, -1 per shard result merged: the running
    # sum is the number of shard jobs in flight.
    events: list[int] = []
    build = sharded.shard
    monkeypatch.setattr(sharded, "shard", lambda index: events.append(1) or build(index))
    merge = ShardedMatcher._merge_shard
    monkeypatch.setattr(
        ShardedMatcher,
        "_merge_shard",
        lambda self, *args: events.append(-1) or merge(self, *args),
    )
    ShardedMatcher(sharded, resolve_algorithm("hk")).run()
    assert events.count(1) == 5
    assert max(np.cumsum(events)) == 2
    sharded.close()


def test_ingest_explicit_spool_dir_is_kept(tmp_path):
    path = stream_random_bipartite_mtx(tmp_path / "g.mtx", 60, 60, 300, seed=3)
    spool = tmp_path / "spool"
    sharded = ingest_matrix_market_sharded(path, 3, spool_dir=spool)
    sharded.close()
    assert [p.name for p in spool.iterdir()] == ["col_ind.int64"]


def test_failed_ingest_removes_only_its_own_spool_dir(tmp_path, monkeypatch):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 1\n2 2\n3 x\n"
    )
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ValueError, match="non-integer"):
        ingest_matrix_market_sharded(path, 2)
    assert list(tmp_path.glob("repro-shards-*")) == []
    spool = tmp_path / "spool"
    with pytest.raises(ValueError, match="non-integer"):
        ingest_matrix_market_sharded(path, 2, spool_dir=spool)
    assert spool.is_dir()


def test_content_hash_builds_no_shard(tmp_path, monkeypatch):
    path = stream_random_bipartite_mtx(tmp_path / "g.mtx", 200, 180, 1500, seed=11)
    expected = read_matrix_market(path).content_hash()
    sharded = ingest_matrix_market_sharded(path, 4, max_resident=1)
    loads: list[object] = []
    load = np.load
    monkeypatch.setattr(np, "load", lambda *args, **kw: loads.append(args) or load(*args, **kw))

    def no_shard(index):
        raise AssertionError(f"content_hash() built shard {index}")

    monkeypatch.setattr(sharded, "shard", no_shard)
    assert sharded.content_hash() == expected
    assert loads == []
    sharded.close()


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
        ShardedMatcher(sharded, plan)


def test_sharded_matcher_rejects_non_maximum_kernel(suite_graphs):
    sharded = partition_graph(suite_graphs["roadNet-PA"], 2)
    with pytest.raises(ValueError, match="maximum-cardinality"):
        ShardedMatcher(sharded, resolve_algorithm("karp-sipser"))
