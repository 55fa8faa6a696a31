"""Tests for the synthetic workload generators and the 28-instance suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.generators import (
    SUITE_SPECS,
    bubbles_graph,
    chung_lu_bipartite,
    delaunay_like_graph,
    generate_instance,
    generate_suite,
    grid_graph,
    instance_names,
    kronecker_graph,
    materialize_instance,
    perfect_matching_plus_noise,
    power_law_web_graph,
    rmat_bipartite,
    road_network_graph,
    trace_graph,
    uniform_random_bipartite,
)
from repro.graph.io import read_matrix_market, read_matrix_market_header
from repro.graph.validate import validate_graph
from repro.seq.verify import maximum_matching_cardinality


def test_uniform_determinism():
    a = uniform_random_bipartite(200, 210, avg_degree=3.0, seed=7)
    b = uniform_random_bipartite(200, 210, avg_degree=3.0, seed=7)
    assert np.array_equal(a.col_ind, b.col_ind)
    c = uniform_random_bipartite(200, 210, avg_degree=3.0, seed=8)
    assert not np.array_equal(a.col_ind, c.col_ind)


def test_uniform_shape_and_density():
    g = uniform_random_bipartite(500, 400, avg_degree=5.0, seed=1)
    assert g.shape == (500, 400)
    # duplicates are merged so the edge count is at most the request
    assert 0.8 * 400 * 5 <= g.n_edges <= 400 * 5


def test_uniform_rejects_bad_args():
    with pytest.raises(ValueError):
        uniform_random_bipartite(0, 10)
    with pytest.raises(ValueError):
        uniform_random_bipartite(10, 10, avg_degree=-1)


def test_perfect_matching_plus_noise_has_perfect_matching():
    g = perfect_matching_plus_noise(300, extra_degree=2.0, seed=3)
    assert maximum_matching_cardinality(g) == 300


def test_rmat_properties():
    g = rmat_bipartite(9, edge_factor=8.0, seed=5)
    assert g.n_rows == 512
    assert g.n_cols == 512
    validate_graph(g)
    # Kronecker degree distributions are heavily skewed.
    degs = g.col_degrees
    assert degs.max() > 4 * max(1.0, degs.mean())


def test_rmat_rejects_bad_scale():
    with pytest.raises(ValueError):
        rmat_bipartite(0)
    with pytest.raises(ValueError):
        rmat_bipartite(30)
    with pytest.raises(ValueError):
        rmat_bipartite(5, a=0.9, b=0.2, c=0.2)


def test_kronecker_alias():
    g = kronecker_graph(7, edge_factor=4.0, seed=2)
    assert g.n_rows == 128


def test_chung_lu_power_law_skew():
    g = chung_lu_bipartite(600, 600, avg_degree=8.0, exponent=2.0, seed=9)
    degs = np.concatenate([g.row_degrees, g.col_degrees])
    assert degs.max() > 5 * degs.mean()


def test_chung_lu_rejects_bad_exponent():
    with pytest.raises(ValueError):
        chung_lu_bipartite(10, 10, exponent=0.9)


def test_power_law_web_graph():
    g = power_law_web_graph(400, avg_degree=8.0, seed=4)
    assert g.shape == (400, 400)
    validate_graph(g)


def test_grid_graph_structure():
    g = grid_graph(5, 4)
    assert g.shape == (20, 20)
    # Interior vertices of a 4-neighbour grid have degree 4.
    assert g.row_degrees.max() == 4
    assert g.row_degrees.min() == 2


def test_grid_graph_diagonal_adds_edges():
    plain = grid_graph(6, 6)
    tri = grid_graph(6, 6, diagonal=True)
    assert tri.n_edges > plain.n_edges


def test_road_network_near_perfect_matching():
    g = road_network_graph(400, removal_fraction=0.2, seed=21)
    mm = maximum_matching_cardinality(g)
    assert 0.85 * g.n_rows <= mm <= g.n_rows


def test_delaunay_perfect_or_near_perfect():
    g = delaunay_like_graph(300, seed=22)
    assert g.shape == (300, 300)
    mm = maximum_matching_cardinality(g)
    assert mm >= 0.98 * g.n_rows
    # Delaunay triangulations have bounded average degree ~6.
    assert g.col_degrees.mean() < 8.5


def test_trace_graph_sparse_and_matchable():
    g = trace_graph(600, seed=23)
    assert g.col_degrees.mean() < 7
    mm = maximum_matching_cardinality(g)
    assert mm >= 0.97 * g.n_rows


def test_bubbles_graph():
    g = bubbles_graph(600, n_bubbles=4, seed=24)
    validate_graph(g)
    mm = maximum_matching_cardinality(g)
    assert mm >= 0.95 * g.n_rows


def test_generator_input_validation():
    with pytest.raises(ValueError):
        grid_graph(0, 3)
    with pytest.raises(ValueError):
        road_network_graph(-1)
    with pytest.raises(ValueError):
        road_network_graph(100, removal_fraction=1.5)
    with pytest.raises(ValueError):
        trace_graph(100, strip_height=1)
    with pytest.raises(ValueError):
        bubbles_graph(100, n_bubbles=0)
    with pytest.raises(ValueError):
        delaunay_like_graph(2)
    with pytest.raises(ValueError):
        perfect_matching_plus_noise(0)


# ----------------------------------------------------------------- suite


def test_suite_has_28_instances():
    assert len(SUITE_SPECS) == 28
    assert len(instance_names()) == 28
    assert instance_names()[0] == "amazon0505"
    assert instance_names()[-1] == "hugebubbles-00000"


def test_suite_paper_metadata_matches_table1():
    by_name = {spec.name: spec for spec in SUITE_SPECS}
    assert by_name["delaunay_n24"].paper.rows == 16_777_216
    assert by_name["delaunay_n24"].paper.time_pr == pytest.approx(23.01)
    assert by_name["hugetrace-00000"].paper.speedup_gpr_vs_pr == pytest.approx(0.31, abs=0.01)
    assert by_name["delaunay_n24"].paper.speedup_gpr_vs_pr == pytest.approx(12.57, abs=0.05)
    # Ordered by increasing row count, as in the paper.
    rows = [spec.paper.rows for spec in SUITE_SPECS]
    assert rows == sorted(rows)


def test_generate_instance_by_name_and_id():
    g1 = generate_instance("amazon0505", profile="tiny", seed=1)
    g2 = generate_instance(1, profile="tiny", seed=1)
    assert g1.name == "amazon0505"
    assert np.array_equal(g1.col_ind, g2.col_ind)


def test_generate_instance_deterministic():
    a = generate_instance("roadNet-PA", profile="tiny", seed=5)
    b = generate_instance("roadNet-PA", profile="tiny", seed=5)
    assert np.array_equal(a.col_ind, b.col_ind)


@pytest.mark.parametrize("gz", [True, False], ids=["gz", "plain"])
def test_materialize_instance_writes_reuses_and_overwrites(tmp_path, gz):
    graph = generate_instance("amazon0505", profile="tiny")

    def materialize(**kwargs):
        return materialize_instance(
            "amazon0505", profile="tiny", directory=tmp_path, gz=gz, **kwargs
        )

    path = materialize()
    header = read_matrix_market_header(path)
    assert (header.n_rows, header.n_cols, header.n_entries) == (
        graph.n_rows, graph.n_cols, graph.n_edges,
    )
    assert read_matrix_market(path).content_hash() == graph.content_hash()
    # Back-date the file so a rewrite cannot hide inside the clock's resolution.
    os.utime(path, ns=(0, 0))
    assert materialize() == path
    assert path.stat().st_mtime_ns == 0
    assert materialize(overwrite=True) == path
    assert path.stat().st_mtime_ns > 0
    assert read_matrix_market(path).content_hash() == graph.content_hash()


def test_generate_instance_unknown():
    with pytest.raises(KeyError):
        generate_instance("no-such-graph")
    with pytest.raises(KeyError):
        generate_instance(99)
    with pytest.raises(ValueError):
        generate_instance(1, profile="gigantic")


def test_suite_sizes_increase_with_paper_sizes():
    small = generate_instance(1, profile="tiny")
    large = generate_instance(28, profile="tiny")
    assert large.n_rows > small.n_rows


def test_generate_suite_family_filter():
    pairs = list(generate_suite(profile="tiny", families=("road",)))
    assert {spec.family for spec, _ in pairs} == {"road"}
    assert len(pairs) == 4


@pytest.mark.parametrize("spec", SUITE_SPECS, ids=lambda s: s.name)
def test_every_suite_instance_generates_valid_graph(spec):
    graph = spec.generate(150, seed=42)
    validate_graph(graph)
    assert graph.n_edges > 0
    assert graph.name == spec.name
