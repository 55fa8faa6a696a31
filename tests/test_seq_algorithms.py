"""Tests for the sequential baselines: greedy, PR, HK, HKDW, Pothen–Fan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import (
    chung_lu_bipartite,
    perfect_matching_plus_noise,
    uniform_random_bipartite,
)
from repro.graph import from_edges
from repro.graph.builders import empty_graph
from repro.matching import Matching
from repro.seq import (
    PushRelabelConfig,
    cheap_matching,
    hkdw_matching,
    hopcroft_karp_matching,
    is_maximal_matching,
    is_maximum_matching,
    is_valid_matching,
    karp_sipser_matching,
    maximum_matching_cardinality,
    pothen_fan_matching,
    push_relabel_matching,
)

ALGORITHMS = {
    "PR": push_relabel_matching,
    "HK": hopcroft_karp_matching,
    "HKDW": hkdw_matching,
    "PFP": pothen_fan_matching,
}


# ------------------------------------------------------------------ greedy
def test_cheap_matching_is_valid_and_maximal(family_graph):
    result = cheap_matching(family_graph)
    assert is_valid_matching(family_graph, result.matching)
    assert is_maximal_matching(family_graph, result.matching)
    assert result.counters["edges_scanned"] > 0


def test_cheap_matching_randomized_order(family_graph):
    a = cheap_matching(family_graph, seed=1)
    b = cheap_matching(family_graph, seed=1)
    assert a.cardinality == b.cardinality
    assert is_valid_matching(family_graph, a.matching)


def test_karp_sipser_valid_and_at_least_cheap(family_graph):
    ks = karp_sipser_matching(family_graph, seed=0)
    assert is_valid_matching(family_graph, ks.matching)
    assert is_maximal_matching(family_graph, ks.matching)
    mm = maximum_matching_cardinality(family_graph)
    # Karp–Sipser is near-optimal on sparse graphs.
    assert ks.cardinality >= 0.9 * mm


def test_greedy_on_empty_graph():
    g = empty_graph(5, 5)
    assert cheap_matching(g).cardinality == 0
    assert karp_sipser_matching(g).cardinality == 0


# ------------------------------------------------------------------ verify
def test_verify_detects_invalid(tiny_graph):
    m = Matching.empty(tiny_graph)
    m.row_match[3] = 3  # (3, 3) is not an edge
    m.col_match[3] = 3
    assert not is_valid_matching(tiny_graph, m)


def test_verify_detects_inconsistent(tiny_graph):
    m = Matching.empty(tiny_graph)
    m.row_match[0] = 0  # column 0 does not point back
    assert not is_valid_matching(tiny_graph, m)


def test_verify_wrong_sizes(tiny_graph):
    m = Matching(np.full(2, -1), np.full(4, -1))
    assert not is_valid_matching(tiny_graph, m)


def test_is_maximum_rejects_non_maximum(tiny_graph):
    assert not is_maximum_matching(tiny_graph, Matching.empty(tiny_graph))


def test_maximum_matching_cardinality_oracle(tiny_graph, perfect_graph):
    assert maximum_matching_cardinality(tiny_graph) == 3
    assert maximum_matching_cardinality(perfect_graph) == 5
    assert maximum_matching_cardinality(empty_graph(4, 4)) == 0


# -------------------------------------------------------------- optimality
@pytest.mark.parametrize("name,algorithm", ALGORITHMS.items())
def test_algorithms_reach_maximum_on_tiny(name, algorithm, tiny_graph):
    result = algorithm(tiny_graph)
    assert result.cardinality == 3
    assert is_maximum_matching(tiny_graph, result.matching)


@pytest.mark.parametrize("name,algorithm", ALGORITHMS.items())
def test_algorithms_reach_maximum_on_families(name, algorithm, family_graph):
    result = algorithm(family_graph)
    expected = maximum_matching_cardinality(family_graph)
    assert result.cardinality == expected
    assert is_valid_matching(family_graph, result.matching)


@pytest.mark.parametrize("name,algorithm", ALGORITHMS.items())
def test_algorithms_accept_initial_matching(name, algorithm, family_graph):
    initial = karp_sipser_matching(family_graph).matching
    result = algorithm(family_graph, initial=initial)
    assert result.cardinality == maximum_matching_cardinality(family_graph)


@pytest.mark.parametrize("name,algorithm", ALGORITHMS.items())
def test_algorithms_on_empty_graph(name, algorithm):
    result = algorithm(empty_graph(6, 3))
    assert result.cardinality == 0


@pytest.mark.parametrize("name,algorithm", ALGORITHMS.items())
def test_algorithms_on_rectangular_graphs(name, algorithm):
    g = uniform_random_bipartite(120, 260, avg_degree=3.0, seed=33)
    result = algorithm(g)
    assert result.cardinality == maximum_matching_cardinality(g)


@pytest.mark.parametrize("name,algorithm", ALGORITHMS.items())
def test_algorithms_on_perfect_matching_graph(name, algorithm):
    g = perfect_matching_plus_noise(250, extra_degree=2.0, seed=8)
    result = algorithm(g)
    assert result.cardinality == 250


def test_star_graph_matching():
    # One row connected to every column: maximum matching has cardinality 1.
    g = from_edges([(0, v) for v in range(50)], n_rows=1, n_cols=50)
    for algorithm in ALGORITHMS.values():
        assert algorithm(g).cardinality == 1


def test_disconnected_components():
    edges = [(0, 0), (1, 1), (2, 2), (5, 5), (6, 6)]
    g = from_edges(edges, n_rows=8, n_cols=8)
    for algorithm in ALGORITHMS.values():
        assert algorithm(g).cardinality == 5


# ---------------------------------------------------------------- PR knobs
def test_pr_counters_populated(family_graph):
    result = push_relabel_matching(family_graph)
    assert result.counters["global_relabels"] >= 1
    assert result.counters["pushes"] >= 0
    assert result.counters["edges_scanned"] >= 0
    assert result.wall_time > 0


def test_pr_without_gap_relabeling(family_graph):
    cfg = PushRelabelConfig(gap_relabeling=False)
    result = push_relabel_matching(family_graph, config=cfg)
    assert result.cardinality == maximum_matching_cardinality(family_graph)


@pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 100.0])
def test_pr_various_global_relabel_frequencies(k):
    g = chung_lu_bipartite(300, 300, avg_degree=5.0, seed=77)
    cfg = PushRelabelConfig(global_relabel_k=k)
    result = push_relabel_matching(g, config=cfg)
    assert result.cardinality == maximum_matching_cardinality(g)


def test_pr_from_empty_initial_matching(family_graph):
    result = push_relabel_matching(family_graph, initial=Matching.empty(family_graph))
    assert result.cardinality == maximum_matching_cardinality(family_graph)


def test_hk_counts_phases(family_graph):
    result = hopcroft_karp_matching(family_graph)
    assert result.counters["phases"] >= 1


def test_hkdw_extra_pass_counter(family_graph):
    result = hkdw_matching(family_graph)
    assert "extra_augmentations" in result.counters


def test_pfp_lookahead_counter():
    g = uniform_random_bipartite(200, 200, avg_degree=4.0, seed=3)
    result = pothen_fan_matching(g)
    assert result.counters["lookahead_hits"] + result.counters["augmentations"] >= 0
    assert result.cardinality == maximum_matching_cardinality(g)
