"""The vectorized frontier layer: property suite and counter-accounting goldens.

Three guarantees:

* the whole-frontier traversals (``multi_source_bfs`` and the
  matching-aware variants) are bit-identical to their kept deque
  references — levels, parents, shortest lengths, claim order and
  scanned-edge totals — across the generator families, seeds and the
  empty-frontier / all-matched edge cases;
* the bulk counter accounting of the rewritten CPU baselines reproduces
  the historical per-edge accounting exactly: ``tests/data/counter_goldens.json``
  records counter end-values, cardinalities and full matchings captured
  from the pre-rewrite per-edge implementations on seeded graphs;
* the scalar fallback of ``alternating_level_bfs`` agrees with the
  vectorized path.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.generators.mesh import road_network_graph
from repro.generators.powerlaw import chung_lu_bipartite
from repro.generators.random_bipartite import uniform_random_bipartite
from repro.generators.rmat import rmat_bipartite
from repro.graph.frontier import (
    alternating_level_bfs,
    claiming_bfs,
    distance_label_bfs,
    expand_frontier,
    first_free_offset,
    first_occurrence_mask,
    first_true,
    multi_source_bfs,
    reference_bfs,
    sorted_unique,
)
from repro.matching import UNMATCHED
from repro.multicore.pdbfs import pdbfs_matching
from repro.seq.greedy import cheap_matching
from repro.seq.hopcroft_karp import hkdw_matching, hopcroft_karp_matching
from repro.seq.pothen_fan import pothen_fan_matching
from repro.seq.push_relabel import push_relabel_matching

_INF = np.iinfo(np.int64).max

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "counter_goldens.json").read_text()
)

#: The exact generator calls the goldens were captured from.
FAMILY_FACTORIES = {
    "random": lambda: uniform_random_bipartite(300, 320, avg_degree=4.0, seed=11),
    "rmat": lambda: rmat_bipartite(8, edge_factor=6.0, seed=12),
    "powerlaw": lambda: chung_lu_bipartite(280, 280, avg_degree=5.0, exponent=2.1, seed=13),
    "mesh": lambda: road_network_graph(300, removal_fraction=0.3, seed=14),
}

ALGORITHMS = {
    "cheap": cheap_matching,
    "hk": hopcroft_karp_matching,
    "hkdw": hkdw_matching,
    "pr": push_relabel_matching,
    "pfp": pothen_fan_matching,
    "p-dbfs": pdbfs_matching,
}


@pytest.fixture(params=sorted(FAMILY_FACTORIES), ids=str)
def golden_graph(request):
    graph = FAMILY_FACTORIES[request.param]()
    record = GOLDENS[request.param]
    assert (graph.n_rows, graph.n_cols, graph.n_edges) == (
        record["n_rows"], record["n_cols"], record["n_edges"],
    ), "generator drift: regenerate tests/data/counter_goldens.json"
    return request.param, graph


# ---------------------------------------------------------------- primitives
def test_expand_frontier_orders_edges_like_a_fifo_scan(tiny_graph):
    targets, origins = expand_frontier(
        tiny_graph.col_ptr, tiny_graph.col_ind, np.array([1, 0])
    )
    expected_t, expected_o = [], []
    for v in (1, 0):
        for u in tiny_graph.column_neighbors(v):
            expected_t.append(int(u))
            expected_o.append(v)
    assert targets.tolist() == expected_t
    assert origins.tolist() == expected_o


def test_expand_frontier_empty_and_isolated():
    targets, origins = expand_frontier(np.array([0, 0, 0]), np.empty(0, np.int64), np.array([0, 1]))
    assert targets.size == 0 and origins.size == 0
    targets, _ = expand_frontier(np.array([0]), np.empty(0, np.int64), np.empty(0, np.int64))
    assert targets.size == 0


def test_first_occurrence_mask_keeps_scan_order():
    values = np.array([7, 3, 7, 1, 3, 1, 9])
    mask = first_occurrence_mask(values)
    assert values[mask].tolist() == [7, 3, 1, 9]
    assert first_occurrence_mask(np.empty(0, np.int64)).tolist() == []


_RNG = np.random.default_rng(20130421)
UNIQUE_CASES = {
    "empty": np.empty(0, np.int64),
    "one": np.array([42], np.int64),
    "all-equal": np.full(17, 5, np.int64),
    "sorted": np.array([0, 1, 1, 2, 3, 3, 3, 9], np.int64),
    "reversed": np.array([9, 3, 3, 3, 2, 1, 1, 0], np.int64),
    "negative": np.array([-3, 7, -3, 0, -9, 7, -1], np.int64),
    # Fewer distinct values than draws, so every random case has duplicates.
    **{
        f"random-{size}": _RNG.integers(-(size // 4) - 1, size // 4 + 1, size=size)
        for size in (5, 64, 800, 6000)
    },
}


@pytest.mark.parametrize("case", sorted(UNIQUE_CASES), ids=str)
def test_sorted_unique_equals_np_unique(case):
    values = UNIQUE_CASES[case]
    before = values.copy()
    got, expected = sorted_unique(values), np.unique(values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(values, before)  # the input is not sorted in place


def test_first_true_and_first_free_offset():
    assert first_true(np.array([False, False, True, True])) == 2
    assert first_true(np.array([False, False])) == -1
    assert first_true(np.empty(0, dtype=bool)) == -1
    match = np.array([0, UNMATCHED, 2, UNMATCHED])
    assert first_free_offset(np.array([0, 2, 3]), match) == 2
    assert first_free_offset(np.array([0, 2]), match) == -1
    assert first_free_offset(np.empty(0, np.int64), match) == -1


# ------------------------------------------------- multi-source BFS property
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("side", ["col", "row"])
def test_multi_source_bfs_matches_reference(golden_graph, side, seed):
    _, graph = golden_graph
    rng = np.random.default_rng(seed)
    bound = graph.n_cols if side == "col" else graph.n_rows
    sources = rng.choice(bound, size=min(5, bound), replace=False)
    fast = multi_source_bfs(graph, sources, side=side)
    ref = reference_bfs(graph, sources, side=side)
    np.testing.assert_array_equal(fast.row_level, ref.row_level)
    np.testing.assert_array_equal(fast.col_level, ref.col_level)
    np.testing.assert_array_equal(fast.row_parent, ref.row_parent)
    np.testing.assert_array_equal(fast.col_parent, ref.col_parent)
    assert fast.edges_scanned == ref.edges_scanned


def test_multi_source_bfs_empty_frontier(golden_graph):
    _, graph = golden_graph
    fast = multi_source_bfs(graph, np.empty(0, np.int64))
    ref = reference_bfs(graph, np.empty(0, np.int64))
    assert np.all(fast.row_level == _INF) and np.all(fast.col_level == _INF)
    np.testing.assert_array_equal(fast.row_parent, ref.row_parent)
    assert fast.edges_scanned == ref.edges_scanned == 0


def test_multi_source_bfs_all_matched_edge_case():
    # On a graph with a perfect matching, HK's source frontier (the unmatched
    # columns) is empty after the solve — the BFS layer must handle it.
    graph = uniform_random_bipartite(60, 60, avg_degree=8.0, seed=5)
    matching = hopcroft_karp_matching(graph).matching
    sources = np.flatnonzero(matching.col_match == UNMATCHED)
    fast = multi_source_bfs(graph, sources)
    ref = reference_bfs(graph, sources)
    np.testing.assert_array_equal(fast.col_level, ref.col_level)
    assert fast.edges_scanned == ref.edges_scanned


def test_multi_source_bfs_duplicate_sources_match_reference(tiny_graph):
    # The deque reference enqueues only the first occurrence of a duplicated
    # source; the vectorized frontier must not expand it twice.
    sources = np.array([1, 0, 1, 1])
    fast = multi_source_bfs(tiny_graph, sources)
    ref = reference_bfs(tiny_graph, sources)
    np.testing.assert_array_equal(fast.row_level, ref.row_level)
    np.testing.assert_array_equal(fast.row_parent, ref.row_parent)
    assert fast.edges_scanned == ref.edges_scanned


def test_multi_source_bfs_validates_inputs(tiny_graph):
    with pytest.raises(ValueError):
        multi_source_bfs(tiny_graph, [0], side="diagonal")
    with pytest.raises(IndexError):
        multi_source_bfs(tiny_graph, [tiny_graph.n_cols])
    with pytest.raises(IndexError):
        reference_bfs(tiny_graph, [-1])


# --------------------------------------- matching-aware BFS deque references
def _reference_alternating_levels(graph, row_match, col_match):
    """The pre-rewrite deque implementation of HK's ``_bfs_levels``."""
    level = np.full(graph.n_cols, _INF, dtype=np.int64)
    queue = deque()
    for v in np.flatnonzero(col_match == UNMATCHED):
        level[v] = 0
        queue.append(int(v))
    shortest = _INF
    edges = 0
    while queue:
        v = queue.popleft()
        if level[v] >= shortest:
            continue
        for u in graph.column_neighbors(v):
            edges += 1
            w = row_match[u]
            if w == UNMATCHED:
                shortest = min(shortest, level[v] + 1)
            elif level[w] == _INF:
                level[w] = level[v] + 1
                queue.append(int(w))
    return level, int(shortest), edges


@pytest.mark.parametrize("scalar_lists", [False, True], ids=["vectorized", "with-scalars"])
def test_alternating_level_bfs_matches_deque_reference(golden_graph, scalar_lists):
    _, graph = golden_graph
    matching = cheap_matching(graph).matching
    scalars = None
    if scalar_lists:
        ptr, ind = graph.csr_lists("col")
        scalars = (ptr, ind, matching.row_match.tolist())
    level, shortest, edges = alternating_level_bfs(
        graph.col_ptr, graph.col_ind, matching.row_match, matching.col_match,
        scalars=scalars,
    )
    ref_level, ref_shortest, ref_edges = _reference_alternating_levels(
        graph, matching.row_match, matching.col_match
    )
    np.testing.assert_array_equal(level, ref_level)
    assert (shortest, edges) == (ref_shortest, ref_edges)


def test_alternating_level_bfs_all_matched():
    graph = uniform_random_bipartite(50, 50, avg_degree=8.0, seed=6)
    matching = hopcroft_karp_matching(graph).matching
    assert matching.cardinality == 50  # sanity: perfect
    level, shortest, edges = alternating_level_bfs(
        graph.col_ptr, graph.col_ind, matching.row_match, matching.col_match
    )
    assert shortest == _INF and edges == 0 and np.all(level == _INF)


def _reference_distance_labels(graph, row_match, col_match):
    """The pre-rewrite deque implementation of PR's global relabel."""
    infinity = graph.infinity_label
    psi_row = np.full(graph.n_rows, infinity, dtype=np.int64)
    psi_col = np.full(graph.n_cols, infinity, dtype=np.int64)
    queue = deque()
    for u in np.flatnonzero(row_match == UNMATCHED):
        psi_row[u] = 0
        queue.append(int(u))
    max_level = 0
    edges = 0
    while queue:
        u = queue.popleft()
        level = psi_row[u]
        for v in graph.row_neighbors(u):
            edges += 1
            v = int(v)
            if psi_col[v] == infinity:
                psi_col[v] = level + 1
                w = col_match[v]
                if w >= 0 and psi_row[w] == infinity:
                    psi_row[w] = level + 2
                    max_level = max(max_level, level + 2)
                    queue.append(int(w))
    return psi_row, psi_col, int(max_level), edges


def test_distance_label_bfs_matches_deque_reference(golden_graph):
    _, graph = golden_graph
    matching = cheap_matching(graph).matching
    psi_row = np.zeros(graph.n_rows, dtype=np.int64)
    psi_col = np.zeros(graph.n_cols, dtype=np.int64)
    max_level, edges = distance_label_bfs(
        graph.row_ptr, graph.row_ind, matching.row_match, matching.col_match,
        psi_row, psi_col, graph.infinity_label,
    )
    ref_row, ref_col, ref_max, ref_edges = _reference_distance_labels(
        graph, matching.row_match, matching.col_match
    )
    np.testing.assert_array_equal(psi_row, ref_row)
    np.testing.assert_array_equal(psi_col, ref_col)
    assert (max_level, edges) == (ref_max, ref_edges)


def _reference_claiming_bfs(graph, start, mu_row, owner, thread_id):
    """The pre-rewrite deque implementation of P-DBFS's thread search."""
    parent_col = {start: -1}
    parent_row = {}
    queue = deque([start])
    work = 1.0
    atomics = 0
    while queue:
        v = queue.popleft()
        for u in graph.column_neighbors(v):
            u = int(u)
            work += 1.0
            if owner[u] != -1 and owner[u] != thread_id:
                continue
            if u in parent_row:
                continue
            atomics += 1
            owner[u] = thread_id
            parent_row[u] = v
            if mu_row[u] == UNMATCHED:
                path = [u]
                col = v
                while col != -1:
                    path.append(col)
                    row = parent_col[col]
                    if row == -1:
                        break
                    path.append(row)
                    col = parent_row[row]
                path.reverse()
                return path, work, atomics
            w = int(mu_row[u])
            if w not in parent_col:
                parent_col[w] = u
                queue.append(w)
    return None, work, atomics


def test_claiming_bfs_matches_deque_reference(golden_graph):
    _, graph = golden_graph
    matching = cheap_matching(graph).matching
    mu_row = matching.row_match.tolist()
    ptr, ind = graph.csr_lists("col")
    # Interleave several simulated threads so claims block later searches —
    # owner state must evolve identically on both implementations.
    owner_fast = [-1] * graph.n_rows
    owner_ref = [-1] * graph.n_rows
    free_cols = [v for v in range(graph.n_cols) if matching.col_match[v] == UNMATCHED]
    for thread_id, start in enumerate(free_cols[:12]):
        fast = claiming_bfs(ptr, ind, start, mu_row, owner_fast, thread_id)
        ref = _reference_claiming_bfs(graph, start, matching.row_match, owner_ref, thread_id)
        assert fast == ref
    assert owner_fast == owner_ref


def test_claiming_bfs_blocked_by_other_threads_claims():
    # One column, one row: thread 1 cannot claim what thread 0 owns.
    graph = uniform_random_bipartite(30, 30, avg_degree=2.0, seed=9)
    ptr, ind = graph.csr_lists("col")
    mu_row = [UNMATCHED] * graph.n_rows
    owner = [0] * graph.n_rows  # every row pre-claimed by thread 0
    start = 0
    path, work, atomics = claiming_bfs(ptr, ind, start, mu_row, owner, thread_id=1)
    assert path is None and atomics == 0
    assert work == 1.0 + (ptr[start + 1] - ptr[start])


# --------------------------------------------- counter-accounting regression
def test_counters_and_matchings_match_preexisting_per_edge_accounting(golden_graph):
    """The bulk counter rewrites reproduce the old per-edge end-values exactly.

    The goldens were captured from the pre-rewrite implementations (per-edge
    deque loops with per-edge dict increments) on these seeded graphs; every
    counter end-value, the cardinality and the full matching must survive
    the vectorized/bulk rewrite bit-for-bit.
    """
    name, graph = golden_graph
    for algo, fn in ALGORITHMS.items():
        expected = GOLDENS[name][algo]
        result = fn(graph)
        got_counters = {
            k: (int(v) if float(v) == int(v) else float(v))
            for k, v in result.counters.items()
        }
        assert got_counters == expected["counters"], f"{algo} counters drifted"
        assert result.cardinality == expected["cardinality"], f"{algo} cardinality drifted"
        assert result.matching.row_match.tolist() == expected["row_match"], (
            f"{algo} matching drifted"
        )


# ------------------------------------------------------------ degree caches
def test_degree_properties_cached_and_read_only(tiny_graph):
    first = tiny_graph.col_degrees
    assert first is tiny_graph.col_degrees  # cached, not recomputed
    assert tiny_graph.row_degrees is tiny_graph.row_degrees
    with pytest.raises(ValueError):
        first[0] = 99
    np.testing.assert_array_equal(first, np.diff(tiny_graph.col_ptr))
    np.testing.assert_array_equal(tiny_graph.row_degrees, np.diff(tiny_graph.row_ptr))


def test_csr_lists_cached_and_consistent(tiny_graph):
    ptr, ind = tiny_graph.csr_lists("col")
    assert ptr == tiny_graph.col_ptr.tolist()
    assert ind == tiny_graph.col_ind.tolist()
    assert tiny_graph.csr_lists("col")[1] is ind  # cached
    rptr, rind = tiny_graph.csr_lists("row")
    assert rptr == tiny_graph.row_ptr.tolist()
    assert rind == tiny_graph.row_ind.tolist()
    with pytest.raises(ValueError):
        tiny_graph.csr_lists("diagonal")
