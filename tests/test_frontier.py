"""The vectorized frontier layer: property suite and counter-accounting goldens.

Six guarantees:

* the matching-aware traversals (``alternating_level_bfs``,
  ``distance_label_bfs``, ``claiming_bfs``) are bit-identical to their
  kept deque references — levels, shortest lengths, claim order and
  scanned-edge totals — across the generator families, seeds and the
  all-matched edge case;
* the bulk counter accounting of the rewritten CPU baselines reproduces
  the historical per-edge accounting exactly: ``tests/data/counter_goldens.json``
  records counter end-values, cardinalities and full matchings captured
  from the pre-rewrite per-edge implementations on seeded graphs;
* the scalar and NumPy bodies of both level steps agree: HK's and PR's
  BFS match the deque references with every level on either path, and
  ``augmenting_dfs`` reproduces G-HKDW's old ndarray-scalar augmentation
  walk over lists, memoryviews and ndarrays;
* ``alternating_reach`` counts exactly the adjacency a deque alternating
  BFS scans, on narrow and wide levels alike;
* PFP and P-DBFS, which price the searches that cannot augment, match
  their walking references kept here (matchings, counters, modeled
  seconds), and price only where a search provably fails;
* every public primitive has a caller among the solvers, so none is kept
  alive by its tests alone.
"""

from __future__ import annotations

import ast
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.generators.mesh import road_network_graph
from repro.generators.powerlaw import chung_lu_bipartite
from repro.generators.random_bipartite import uniform_random_bipartite
from repro.generators.rmat import rmat_bipartite
from repro.bench.harness import modeled_seconds_for
from repro.generators.suite import generate_instance, instance_names
from repro.gpusim.costmodel import MulticoreCostModel
from repro.graph import from_edges
from repro.graph.frontier import (
    alternating_level_bfs,
    alternating_reach,
    augmenting_dfs,
    claiming_bfs,
    distance_label_bfs,
    expand_frontier,
    sorted_unique,
)
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.multicore.pdbfs import PDBFSConfig, pdbfs_matching
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
    targets = expand_frontier(
        tiny_graph.col_ptr, tiny_graph.col_ind, np.array([1, 0])
    )
    expected_t = []
    for v in (1, 0):
        for u in tiny_graph.column_neighbors(v):
            expected_t.append(int(u))
    assert targets.tolist() == expected_t


def test_expand_frontier_empty_and_isolated():
    targets = expand_frontier(np.array([0, 0, 0]), np.empty(0, np.int64), np.array([0, 1]))
    assert targets.size == 0 and targets.dtype == np.int64
    targets = expand_frontier(np.array([0]), np.empty(0, np.int64), np.empty(0, np.int64))
    assert targets.size == 0


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


#: ``NARROW_WIDTH`` values that force every level onto one path.
ALL_WIDE, ALL_NARROW = 0, 10**9


@pytest.mark.parametrize("width", [ALL_WIDE, ALL_NARROW], ids=["vectorized", "with-scalars"])
def test_alternating_level_bfs_matches_deque_reference(golden_graph, width, monkeypatch):
    """Every level gathered (``vectorized``) or walked by the scalar body."""
    import repro.graph.frontier as frontier

    monkeypatch.setattr(frontier, "NARROW_WIDTH", width)
    _, graph = golden_graph
    matching = cheap_matching(graph).matching
    level, shortest, edges = alternating_level_bfs(
        graph.col_ptr, graph.col_ind, matching.row_match, matching.col_match
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


def test_distance_label_bfs_matches_deque_reference(golden_graph, monkeypatch):
    """On all-wide and all-narrow levels alike (the row step's two bodies)."""
    import repro.graph.frontier as frontier

    _, graph = golden_graph
    matching = cheap_matching(graph).matching
    ref_row, ref_col, ref_max, ref_edges = _reference_distance_labels(
        graph, matching.row_match, matching.col_match
    )
    for width in (ALL_WIDE, ALL_NARROW):
        monkeypatch.setattr(frontier, "NARROW_WIDTH", width)
        psi_row = np.zeros(graph.n_rows, dtype=np.int64)
        psi_col = np.zeros(graph.n_cols, dtype=np.int64)
        max_level, edges = distance_label_bfs(
            graph.row_ptr, graph.row_ind, matching.row_match, matching.col_match,
            psi_row, psi_col, graph.infinity_label,
        )
        np.testing.assert_array_equal(psi_row, ref_row)
        np.testing.assert_array_equal(psi_col, ref_col)
        assert (max_level, edges) == (ref_max, ref_edges), width


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


# ----------------------------------------- augmenting DFS (HK/HKDW, G-HKDW)
def _reference_ghkdw_walk(graph, mu_row, mu_col, level, restrict_levels):
    """G-HKDW's ndarray-scalar augmentation walk, as it was before it moved
    onto ``augmenting_dfs``.  Mutates ``mu_row``/``mu_col``; returns the
    per-thread work vector and the augmentation count."""
    col_ptr, col_ind = graph.col_ptr, graph.col_ind
    start_cols = np.flatnonzero(mu_col == UNMATCHED)
    start_cols = start_cols[level[start_cols] != _INF]
    row_claimed = np.zeros(graph.n_rows, dtype=bool)
    thread_work = np.ones(len(start_cols), dtype=np.float64)
    augmented = 0
    for t, start in enumerate(start_cols):
        stack = [[int(start), int(col_ptr[start])]]
        path_rows = []
        work = 1.0
        success = False
        while stack and not success:
            v, idx = stack[-1]
            stop = int(col_ptr[v + 1])
            advanced = False
            while idx < stop:
                u = int(col_ind[idx])
                idx += 1
                work += 1.0
                if row_claimed[u]:
                    continue
                w = int(mu_row[u])
                if w == UNMATCHED:
                    row_claimed[u] = True
                    mu_row[u] = v
                    mu_col[v] = u
                    for depth in range(len(stack) - 2, -1, -1):
                        mu_row[path_rows[depth]] = stack[depth][0]
                        mu_col[stack[depth][0]] = path_rows[depth]
                    augmented += 1
                    success = True
                    break
                if restrict_levels and level[w] != level[v] + 1:
                    continue
                if not restrict_levels and level[w] == _INF:
                    continue
                row_claimed[u] = True
                stack[-1][1] = idx
                path_rows.append(u)
                stack.append([w, int(col_ptr[w])])
                advanced = True
                break
            if success or advanced:
                continue
            stack[-1][1] = idx
            if idx >= stop:
                stack.pop()
                if path_rows:
                    path_rows.pop()
        thread_work[t] = work
    return thread_work, augmented


def _random_warm_start(graph, seed):
    """A random partial matching: columns in random order take a random free
    neighbour with probability 0.7, so many augmenting phases remain."""
    rng = np.random.default_rng(seed)
    row_match = np.full(graph.n_rows, UNMATCHED, dtype=np.int64)
    col_match = np.full(graph.n_cols, UNMATCHED, dtype=np.int64)
    for v in rng.permutation(graph.n_cols):
        free = [int(u) for u in graph.column_neighbors(v) if row_match[u] == UNMATCHED]
        if free and rng.random() < 0.7:
            u = free[rng.integers(len(free))]
            row_match[u], col_match[v] = v, u
    return row_match, col_match


#: How a caller hands ``augmenting_dfs`` its per-vertex state: HK's lists,
#: G-HKDW's zero-copy memoryviews, and plain ndarrays (the sanitizer's case).
WALK_CONTAINERS = {
    "list": lambda array: array.tolist(),
    "memoryview": memoryview,
    "ndarray": lambda array: array,
}


@pytest.mark.parametrize("warm", ["cheap", "random"])
def test_augmenting_dfs_matches_ndarray_ghkdw_walk(golden_graph, warm):
    """Phase by phase, level-restricted round then unrestricted round, the
    shared walk reproduces the old G-HKDW walk on every container: the same
    matching, augmentation count and per-root work (scanned edges + 1)."""
    _, graph = golden_graph
    if warm == "cheap":
        matching = cheap_matching(graph).matching
        mu_row, mu_col = matching.row_match.copy(), matching.col_match.copy()
    else:
        mu_row, mu_col = _random_warm_start(graph, seed=graph.n_edges)
    ptr, ind = graph.csr_lists("col")
    phases = 0
    while True:
        level, shortest, _ = alternating_level_bfs(graph.col_ptr, graph.col_ind, mu_row, mu_col)
        if shortest == _INF:
            break
        phases += 1
        for restrict in (True, False):
            roots = np.flatnonzero(mu_col == UNMATCHED)
            roots = roots[level[roots] != _INF].tolist()
            ref_row, ref_col = mu_row.copy(), mu_col.copy()
            ref_work, ref_augmented = _reference_ghkdw_walk(
                graph, ref_row, ref_col, level, restrict
            )
            for kind, wrap in WALK_CONTAINERS.items():
                state = [wrap(array.copy()) for array in (level, mu_row, mu_col)]
                augmented, per_root = augmenting_dfs(
                    ptr, ind, roots, *state, bytearray(graph.n_rows), restrict
                )
                assert augmented == ref_augmented, kind
                np.testing.assert_array_equal(
                    np.asarray(per_root, dtype=np.float64) + 1.0, ref_work, err_msg=kind
                )
                np.testing.assert_array_equal(np.asarray(state[1]), ref_row, err_msg=kind)
                np.testing.assert_array_equal(np.asarray(state[2]), ref_col, err_msg=kind)
            mu_row, mu_col = ref_row, ref_col
    assert phases >= 2
    assert int(np.count_nonzero(mu_row >= 0)) == hopcroft_karp_matching(graph).cardinality


# ------------------------------------------------- alternating reach
def _reference_reach(graph, row_match, start):
    """A deque alternating BFS from ``start``: the columns it enters and
    whether it meets an unmatched row."""
    entered = [start]
    seen = {start}
    queue = deque([start])
    free = False
    while queue:
        v = queue.popleft()
        for u in graph.column_neighbors(v):
            w = int(row_match[u])
            if w == UNMATCHED:
                free = True
            elif w not in seen:
                seen.add(w)
                entered.append(w)
                queue.append(w)
    return entered, free


def _reach_cases(graph):
    """``(row_match, start)`` pairs: every unmatched column and some random
    columns, under a cheap and a random warm matching."""
    rng = np.random.default_rng(graph.n_edges)
    cheap = cheap_matching(graph).matching
    for row_match, col_match in (
        (cheap.row_match, cheap.col_match),
        _random_warm_start(graph, seed=graph.n_cols),
    ):
        for start in np.flatnonzero(col_match == UNMATCHED).tolist():
            yield row_match, start
        for start in rng.integers(0, graph.n_cols, size=20).tolist():
            yield row_match, start


@pytest.mark.parametrize("width", ["default", "all-wide", "all-narrow"])
def test_alternating_reach_matches_deque_bfs(golden_graph, width, monkeypatch):
    """The scanned-entry total is the degree sum of the columns a deque BFS
    enters, ``None`` exactly when that BFS meets an unmatched row, whichever
    path (scalar levels or whole-level gathers) expands the levels."""
    import repro.graph.frontier as frontier

    if width != "default":
        monkeypatch.setattr(frontier, "NARROW_WIDTH", ALL_WIDE if width == "all-wide" else ALL_NARROW)
    _, graph = golden_graph
    ptr, ind = graph.csr_lists("col")
    degrees = graph.col_degrees
    outcomes = {"none": 0, "priced": 0}
    for row_match, start in _reach_cases(graph):
        entered, free = _reference_reach(graph, row_match, start)
        got = alternating_reach(
            graph.col_ptr, graph.col_ind, row_match, start, (ptr, ind, row_match.tolist())
        )
        if free:
            assert got is None, start
            outcomes["none"] += 1
        else:
            assert got == int(degrees[entered].sum()), start
            outcomes["priced"] += 1
    assert outcomes["none"] and outcomes["priced"]


# ------------------------------------------- hopeless searches, priced
def _reference_pfp_phase(col_ptr, col_ind, row_match, col_match, lookahead, visited_round,
                         round_id):
    """PFP's phase as it was before failed searches were priced: every
    unmatched column's lookahead DFS is walked, including the ones that
    failed before."""
    unmatched = UNMATCHED
    n_cols = len(col_ptr) - 1
    augmentations = 0
    lookahead_hits = 0
    edges = 0
    for start in range(n_cols):
        if col_match[start] != unmatched:
            continue
        round_id += 1
        stack = [[start, col_ptr[start]]]
        path_rows = []
        while stack:
            v, idx = stack[-1]
            stop = col_ptr[v + 1]
            found_free = -1
            la = lookahead[v]
            while la < stop:
                u = col_ind[la]
                la += 1
                edges += 1
                if row_match[u] == unmatched:
                    found_free = u
                    break
            lookahead[v] = la
            if found_free >= 0:
                lookahead_hits += 1
                augmentations += 1
                u = found_free
                row_match[u] = v
                col_match[v] = u
                for depth in range(len(stack) - 2, -1, -1):
                    prev_col = stack[depth][0]
                    prev_row = path_rows[depth]
                    row_match[prev_row] = prev_col
                    col_match[prev_col] = prev_row
                break
            advanced = False
            done = False
            while idx < stop:
                u = col_ind[idx]
                idx += 1
                edges += 1
                if visited_round[u] == round_id:
                    continue
                visited_round[u] = round_id
                w = row_match[u]
                if w == unmatched:
                    done = True
                    break
                stack[-1][1] = idx
                path_rows.append(u)
                stack.append([w, col_ptr[w]])
                advanced = True
                break
            if advanced:
                continue
            if done:
                augmentations += 1
                row_match[u] = v
                col_match[v] = u
                for depth in range(len(stack) - 2, -1, -1):
                    prev_col = stack[depth][0]
                    prev_row = path_rows[depth]
                    row_match[prev_row] = prev_col
                    col_match[prev_col] = prev_row
                break
            stack[-1][1] = idx
            if idx >= stop:
                stack.pop()
                if path_rows:
                    path_rows.pop()
    return augmentations, lookahead_hits, edges, round_id


def _reference_pfp(graph, initial):
    """The walking PFP solve, phase by phase, as a ``MatchingResult``."""
    row_match = initial.row_match.tolist()
    col_match = initial.col_match.tolist()
    counters = {"edges_scanned": 0, "phases": 0, "augmentations": 0, "lookahead_hits": 0}
    col_ptr, col_ind = graph.csr_lists("col")
    lookahead = list(col_ptr[:-1])
    visited_round = [-1] * graph.n_rows
    round_id = 0
    while True:
        counters["phases"] += 1
        augmented, hits, edges, round_id = _reference_pfp_phase(
            col_ptr, col_ind, row_match, col_match, lookahead, visited_round, round_id
        )
        counters["augmentations"] += augmented
        counters["lookahead_hits"] += hits
        counters["edges_scanned"] += edges
        if augmented == 0:
            break
    matching = Matching(np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64))
    return MatchingResult.create("PFP", matching, counters=counters)


def _reference_pdbfs(graph, initial, n_threads):
    """P-DBFS as it was before its sweep was priced: a round that augments
    nothing is followed by a sweep that walks each unmatched column's
    claim-free BFS with a fresh owner list.  Returns the result and the
    number of round and sweep searches."""
    model = MulticoreCostModel(n_threads=n_threads)
    mu_row = initial.row_match.tolist()
    mu_col = initial.col_match.tolist()
    col_ptr, col_ind = graph.csr_lists("col")
    counters = {
        "rounds": 0, "sequential_sweeps": 0, "augmentations": 0, "edges_scanned": 0.0,
        "atomics": 0, "initial_matching": sum(1 for u in mu_row if u >= 0),
    }
    modeled = 0.0
    searches = {"round": 0, "sweep": 0}

    def augment(path):
        for i in range(0, len(path) - 1, 2):
            mu_col[path[i]] = path[i + 1]
            mu_row[path[i + 1]] = path[i]

    while True:
        unmatched = [v for v in range(graph.n_cols) if mu_col[v] == UNMATCHED]
        if len(unmatched) == 0:
            break
        counters["rounds"] += 1
        owner = [-1] * graph.n_rows
        thread_work = np.zeros(n_threads, dtype=np.float64)
        round_atomics = 0
        augmented = 0
        for batch_start in range(0, len(unmatched), n_threads):
            batch = unmatched[batch_start : batch_start + n_threads]
            for thread_id, v in enumerate(batch):
                if mu_col[v] != UNMATCHED:
                    continue
                searches["round"] += 1
                path, work, atomics = claiming_bfs(col_ptr, col_ind, v, mu_row, owner, thread_id)
                thread_work[thread_id] += work
                round_atomics += atomics
                if path is not None:
                    augment(path)
                    augmented += 1
        counters["edges_scanned"] += float(thread_work.sum())
        counters["atomics"] += round_atomics
        counters["augmentations"] += augmented
        modeled += model.round_seconds(
            total_ops=float(thread_work.sum()),
            max_thread_ops=float(thread_work.max()) if len(thread_work) else 0.0,
            atomics=float(round_atomics),
        )
        if augmented == 0:
            counters["sequential_sweeps"] += 1
            sweep_work = 0.0
            sweep_augmented = 0
            for v in range(graph.n_cols):
                if mu_col[v] != UNMATCHED:
                    continue
                searches["sweep"] += 1
                owner = [-1] * graph.n_rows
                path, work, _ = claiming_bfs(col_ptr, col_ind, v, mu_row, owner, 0)
                sweep_work += work
                if path is not None:
                    augment(path)
                    sweep_augmented += 1
            counters["edges_scanned"] += sweep_work
            counters["augmentations"] += sweep_augmented
            modeled += model.round_seconds(
                total_ops=sweep_work, max_thread_ops=sweep_work, atomics=0.0
            )
            if sweep_augmented == 0:
                break
    matching = Matching(np.array(mu_row, dtype=np.int64), np.array(mu_col, dtype=np.int64))
    result = MatchingResult.create("P-DBFS", matching, counters=counters, modeled_time=modeled)
    return result, searches


def _deficient_graph(seed):
    """A sparse seeded graph with more columns than rows, some of them isolated."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(3, 40))
    n_cols = n_rows + int(rng.integers(1, 16))
    live = np.flatnonzero(rng.random(n_cols) >= 0.15)
    if len(live) == 0:
        live = np.arange(n_cols)
    n_edges = int(rng.integers(n_cols // 2 + 1, 3 * n_cols))
    edges = np.column_stack(
        [rng.integers(0, n_rows, size=n_edges), rng.choice(live, size=n_edges)]
    )
    return from_edges(edges, n_rows=n_rows, n_cols=n_cols, name=f"deficient-{seed}")


def _start(graph, kind, seed):
    """The initial matching of a solve: ``cold`` (empty), ``cheap`` or ``warm``
    (:func:`_random_warm_start`)."""
    if kind == "cold":
        return Matching.empty(graph)
    if kind == "cheap":
        return cheap_matching(graph).matching
    return Matching(*_random_warm_start(graph, seed))


def _fingerprint(result):
    return (
        result.counters,
        modeled_seconds_for(result),
        result.cardinality,
        result.matching.row_match.tolist(),
    )


def _assert_priced_solvers_match_walks(graph, initial, label):
    """PFP and P-DBFS at 1, 2 and 8 threads against their walking references."""
    got = pothen_fan_matching(graph, initial.copy())
    assert _fingerprint(got) == _fingerprint(_reference_pfp(graph, initial.copy())), (
        f"pfp {label}"
    )
    for n_threads in (1, 2, 8):
        got = pdbfs_matching(graph, initial.copy(), PDBFSConfig(n_threads=n_threads))
        ref, _ = _reference_pdbfs(graph, initial.copy(), n_threads)
        assert _fingerprint(got) == _fingerprint(ref), f"p-dbfs/{n_threads} {label}"


DEFICIENT_SEEDS = range(1000, 1210)


@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_priced_searches_match_walks_on_deficient_graphs(kind):
    for seed in DEFICIENT_SEEDS:
        graph = _deficient_graph(seed)
        _assert_priced_solvers_match_walks(graph, _start(graph, kind, seed), f"seed {seed}")


@pytest.mark.parametrize("kind", ["cheap", "warm"])
def test_priced_searches_match_walks_on_golden_families(golden_graph, kind):
    name, graph = golden_graph
    _assert_priced_solvers_match_walks(graph, _start(graph, kind, graph.n_edges), name)


@pytest.mark.parametrize("seed", range(5))
def test_priced_searches_match_walks_on_tiny_analogs(seed):
    for name in instance_names():
        graph = generate_instance(name, profile="tiny", seed=seed)
        _assert_priced_solvers_match_walks(graph, _start(graph, "cheap", seed), name)


def _counting(monkeypatch, module, attr):
    """Wrap ``module.attr`` so its calls are counted; returns the counter."""
    calls = []
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_pfp_prices_only_after_a_search_fails(monkeypatch):
    import repro.seq.pothen_fan as pothen_fan

    calls = _counting(monkeypatch, pothen_fan, "alternating_reach")
    perfect = uniform_random_bipartite(50, 50, avg_degree=8.0, seed=6)
    for kind in ("cold", "cheap", "warm"):
        result = pothen_fan_matching(perfect, _start(perfect, kind, 6))
        assert result.cardinality == perfect.n_cols
    assert calls == []
    # One row shared by three columns: the second free column fails after a
    # walk, the third is priced.
    star = from_edges([(0, 0), (0, 1), (0, 2)], n_rows=1, n_cols=3, name="star")
    result = pothen_fan_matching(star, Matching.empty(star))
    assert result.cardinality == 1
    assert len(calls) == 1
    deficient = _deficient_graph(1003)
    assert deficient.n_cols > deficient.n_rows
    pothen_fan_matching(deficient, Matching.empty(deficient))
    assert len(calls) > 1


def test_pdbfs_claims_only_in_rounds(monkeypatch):
    import repro.multicore.pdbfs as pdbfs

    calls = _counting(monkeypatch, pdbfs, "claiming_bfs")
    graph = generate_instance("GL7d19", profile="tiny", seed=0)
    initial = cheap_matching(graph).matching
    ref, searches = _reference_pdbfs(graph, initial.copy(), 8)
    got = pdbfs_matching(graph, initial.copy())
    assert searches["sweep"] > 0 and got.counters["sequential_sweeps"] == 1
    assert len(calls) == searches["round"]
    assert _fingerprint(got) == _fingerprint(ref)


def test_pdbfs_sweep_reaching_a_free_row_raises(monkeypatch):
    import repro.multicore.pdbfs as pdbfs

    monkeypatch.setattr(pdbfs, "alternating_reach", lambda *args, **kwargs: None)
    graph = _deficient_graph(1003)
    with pytest.raises(RuntimeError, match="deficient-1003"):
        pdbfs_matching(graph, Matching.empty(graph))


@pytest.mark.parametrize("n_threads", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_pdbfs_round_proves_maximality(n_threads, kind):
    """No seeded solve reaches a free row in its sweep, and every one ends
    at Hopcroft–Karp's cardinality."""
    for seed in range(2000, 2060):
        graph = _deficient_graph(seed) if seed % 2 else uniform_random_bipartite(
            30, 30, avg_degree=1.5 + seed % 5, seed=seed
        )
        result = pdbfs_matching(graph, _start(graph, kind, seed), PDBFSConfig(n_threads))
        assert result.cardinality == hopcroft_karp_matching(graph).cardinality, seed


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


# ------------------------------------------------------------ solver callers
def test_every_frontier_primitive_is_imported_by_a_solver_module():
    """No public primitive is kept alive only by its tests and twins.

    Scans every module of the package outside ``repro/graph/`` and
    ``repro/compiled/`` for ``from repro.graph.frontier import ...`` and
    ``from repro.graph import ...``.
    """
    import repro
    import repro.graph.frontier as frontier

    package = Path(repro.__file__).parent
    imported: set[str] = set()
    for path in package.rglob("*.py"):
        if path.relative_to(package).parts[0] in ("graph", "compiled"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "repro.graph.frontier",
                "repro.graph",
            ):
                imported.update(alias.name for alias in node.names)
    assert sorted(set(frontier.__all__) - imported) == []
