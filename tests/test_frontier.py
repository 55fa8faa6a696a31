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
  both augmenting rounds (``restricted_round``, walked or swept, and
  ``duff_wassel_round``) reproduce G-HKDW's old ndarray-scalar
  augmentation walk over lists, memoryviews and ndarrays;
* ``alternating_reach_total`` sums exactly the adjacency deque
  alternating BFSs scan, per start and over whole start lists (cycles,
  repeated and zero-degree starts, several batches) or, with ``groups=``
  and ``weights=``, over the union of each group's BFSs times its weight,
  with ``columns=True`` counts those unions' columns too, stops at walls,
  and is ``None`` exactly when one of those BFSs meets an unmatched row;
* PFP and P-DBFS, which price the searches that cannot augment, match
  their walking references kept here (matchings, counters, modeled
  seconds), including hand-built PFP phases whose searches meet failed
  trees, hand-built P-DBFS rounds whose searches meet closed regions, and
  P-DBFS with every failed search closed, and price only where a search
  provably fails;
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
from repro.generators.suite import generate_instance, instance_names
from repro.gpusim.costmodel import CpuCostModel, MulticoreCostModel
from repro.graph import from_edges
from repro.graph.frontier import (
    SWEEP_BATCH,
    SWEEP_ENTRIES,
    WALL,
    alternating_level_bfs,
    alternating_reach_total,
    claiming_bfs,
    distance_label_bfs,
    duff_wassel_round,
    restricted_round,
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
    onto the frontier layer's rounds.  Mutates ``mu_row``/``mu_col``; returns the
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


#: How a caller hands the rounds its matching: lists, HK's and G-HKDW's
#: zero-copy memoryviews, and plain ndarrays (the sanitizer's case).
WALK_CONTAINERS = {
    "list": lambda array: array.tolist(),
    "memoryview": memoryview,
    "ndarray": lambda array: array,
}

#: The restricted round as its callers run it (swept from SWEEP_ENTRIES BFS
#: entries up), with every root walked, swept, and swept one column per
#: gathered run: ``(entries or None for the BFS's, SWEEP_BATCH)``.
ROUND_MODES = {
    "as-called": (None, SWEEP_BATCH),
    "walked": (0, SWEEP_BATCH),
    "swept": (SWEEP_ENTRIES, SWEEP_BATCH),
    "swept-per-column": (SWEEP_ENTRIES, 1),
}


def _assert_rounds_match_reference(graph, mu_row, mu_col, monkeypatch):
    """Phase by phase, the restricted round then the Duff–Wassel round from
    the still-unmatched columns, each round against the old G-HKDW walk in
    every mode and on every container: the same matching, augmentation
    count and per-root work (scanned entries + 1).  Returns ``(phases,
    swept, row_match)``: the phases run, those the callers sweep, and the
    final matching's row side."""
    ptr, ind = graph.csr_lists("col")
    phases = swept = 0
    while True:
        level, shortest, entries = alternating_level_bfs(
            graph.col_ptr, graph.col_ind, mu_row, mu_col
        )
        if shortest == _INF:
            break
        phases += 1
        swept += entries >= SWEEP_ENTRIES
        for restrict in (True, False):
            roots = np.flatnonzero(mu_col == UNMATCHED)
            assert (level[roots] == 0).all()
            ref_row, ref_col = mu_row.copy(), mu_col.copy()
            ref_work, ref_augmented = _reference_ghkdw_walk(
                graph, ref_row, ref_col, level, restrict
            )
            modes = ROUND_MODES if restrict else {"walked": None}
            for mode, setting in modes.items():
                for kind, wrap in WALK_CONTAINERS.items():
                    rows, cols = wrap(mu_row.copy()), wrap(mu_col.copy())
                    if restrict:
                        budget, batch = setting
                        monkeypatch.setattr("repro.graph.frontier.SWEEP_BATCH", batch)
                        augmented, per_root = restricted_round(
                            graph.col_ptr, graph.col_ind, ptr, ind, roots.tolist(), level,
                            rows, cols, entries if budget is None else budget,
                        )
                    else:
                        augmented, per_root = duff_wassel_round(
                            ptr, ind, roots.tolist(), level, rows, cols
                        )
                    where = f"phase {phases} {mode} {kind}"
                    assert augmented == ref_augmented, where
                    np.testing.assert_array_equal(
                        np.asarray(per_root, dtype=np.float64) + 1.0, ref_work, err_msg=where
                    )
                    np.testing.assert_array_equal(np.asarray(rows), ref_row, err_msg=where)
                    np.testing.assert_array_equal(np.asarray(cols), ref_col, err_msg=where)
            mu_row, mu_col = ref_row, ref_col
    return phases, swept, mu_row


@pytest.mark.parametrize("warm", ["cheap", "random"])
def test_augmenting_dfs_matches_ndarray_ghkdw_walk(golden_graph, warm, monkeypatch):
    """Both augmenting rounds reproduce the old G-HKDW walk phase by phase,
    walked and swept, on every container, from a cheap and a random warm
    start; the golden graphs sit below the sweep's crossover."""
    _, graph = golden_graph
    if warm == "cheap":
        matching = cheap_matching(graph).matching
        mu_row, mu_col = matching.row_match.copy(), matching.col_match.copy()
    else:
        mu_row, mu_col = _random_warm_start(graph, seed=graph.n_edges)
    phases, swept, mu_row = _assert_rounds_match_reference(graph, mu_row, mu_col, monkeypatch)
    assert phases >= 2 and swept == 0
    assert int(np.count_nonzero(mu_row >= 0)) == hopcroft_karp_matching(graph).cardinality


@pytest.mark.parametrize("warm", ["cheap", "random"])
def test_rounds_match_ndarray_ghkdw_walk_above_the_crossover(warm, monkeypatch):
    """The same on a medium analog, whose phases the callers sweep."""
    graph = generate_instance("roadNet-PA", profile="medium", seed=20130421)
    if warm == "cheap":
        matching = cheap_matching(graph).matching
        mu_row, mu_col = matching.row_match.copy(), matching.col_match.copy()
    else:
        mu_row, mu_col = _random_warm_start(graph, seed=graph.n_edges)
    phases, swept, mu_row = _assert_rounds_match_reference(graph, mu_row, mu_col, monkeypatch)
    assert swept >= 2
    assert int(np.count_nonzero(mu_row >= 0)) == hopcroft_karp_matching(graph).cardinality


def _hand_round(n_rows, n_cols, adjacency, matched):
    """A graph from ``{column: [rows in scan order]}`` and a matching from
    ``{row: column}``: ``(graph, mu_row, mu_col)``."""
    edges = [(u, v) for v, rows in adjacency.items() for u in rows]
    graph = from_edges(edges, n_rows=n_rows, n_cols=n_cols)
    for v, rows in adjacency.items():
        assert graph.column_neighbors(v).tolist() == rows, "scan order"
    mu_row = np.full(n_rows, UNMATCHED, dtype=np.int64)
    mu_col = np.full(n_cols, UNMATCHED, dtype=np.int64)
    for u, v in matched.items():
        mu_row[u], mu_col[v] = v, u
    return graph, mu_row, mu_col


#: Hand-built restricted rounds: ``(n_rows, n_cols, adjacency, matching,
#: augmentations, per-root work)``.  Columns 0 and 1 are the roots, and
#: rows 8 and 9 the unmatched rows.
HAND_ROUNDS = {
    # Root 0 is dead; its closure (columns 2 and 4) is what root 1's walk
    # meets first through row 2, so that record adds nothing and root 0
    # owns the closure.  Column 4 is dead at the last BFS level, which the
    # BFS labels without scanning.
    "dead-root-owns-closure": (
        10, 5,
        {0: [2], 1: [2, 3], 2: [2, 4], 3: [3, 9], 4: [4]},
        {2: 2, 3: 3, 4: 4},
        1, [1 + 2 + 1, 2 + 2],
    ),
    # Root 0 is live and records dead column 2, whose closure holds column
    # 5, before augmenting through column 3; root 1's walk meets column 5
    # again from live column 4, and that record adds nothing.
    "record-of-labelled-column": (
        10, 7,
        {0: [2, 3], 1: [4], 2: [2, 5], 3: [3, 9], 4: [4, 5, 6], 5: [5], 6: [6, 8]},
        {2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
        2, [2 + 2 + 1 + 2, 1 + 3 + 2],
    ),
    # Root 0 is dead, with two dead columns at the last BFS level (5 and
    # 6) in its closure; the free row hangs off column 4 on that level.
    "dead-at-last-level": (
        10, 7,
        {0: [2], 1: [3], 2: [2, 5, 6], 3: [3, 4], 4: [4, 9], 5: [5], 6: [6]},
        {2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
        1, [1 + 3 + 1 + 1, 1 + 2 + 2],
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_ROUNDS))
def test_swept_round_prices_dead_columns_by_first_root(case, monkeypatch):
    n_rows, n_cols, adjacency, matched, augmentations, expected = HAND_ROUNDS[case]
    graph, mu_row, mu_col = _hand_round(n_rows, n_cols, adjacency, matched)
    level, shortest, _ = alternating_level_bfs(graph.col_ptr, graph.col_ind, mu_row, mu_col)
    assert shortest != _INF
    ref_row, ref_col = mu_row.copy(), mu_col.copy()
    ref_work, _ = _reference_ghkdw_walk(graph, ref_row, ref_col, level, True)
    assert (ref_work - 1).tolist() == expected
    ptr, ind = graph.csr_lists("col")
    for batch in (SWEEP_BATCH, 1):
        monkeypatch.setattr("repro.graph.frontier.SWEEP_BATCH", batch)
        rows, cols = memoryview(mu_row.copy()), memoryview(mu_col.copy())
        augmented, per_root = restricted_round(
            graph.col_ptr, graph.col_ind, ptr, ind, [0, 1], level, rows, cols, SWEEP_ENTRIES
        )
        assert per_root == expected and augmented == augmentations
        np.testing.assert_array_equal(np.asarray(rows), ref_row)
        np.testing.assert_array_equal(np.asarray(cols), ref_col)


# ------------------------------------------------- alternating reach
def _reference_reach(graph, row_match, start):
    """A deque alternating BFS from ``start``: the columns it enters and
    whether it meets an unmatched row.  A row matched below -1 is a wall:
    scanned, not crossed."""
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
            elif w >= 0 and w not in seen:
                seen.add(w)
                entered.append(w)
                queue.append(w)
    return entered, free


def _reference_entries(graph, row_match, start):
    """The degree sum of the columns :func:`_reference_reach` enters from
    ``start``, or ``None`` if its BFS meets an unmatched row."""
    entered, free = _reference_reach(graph, row_match, start)
    return None if free else int(graph.col_degrees[entered].sum())


def _assert_reach_total(graph, row_match, starts):
    """The primitive against the references, per start, over the starts
    whose BFS meets no unmatched row, and over ``starts``.  Returns
    ``(priced, free)`` start counts."""
    ptr, ind = graph.csr_lists("col")
    match = np.asarray(row_match).tolist()
    entries = {s: _reference_entries(graph, row_match, s) for s in set(starts)}
    for start, expected in entries.items():
        assert alternating_reach_total(ptr, ind, match, [start]) == expected, start
    priced = [s for s in starts if entries[s] is not None]
    total = sum(entries[s] for s in priced)
    assert alternating_reach_total(ptr, ind, match, priced) == total
    free = len(starts) - len(priced)
    assert alternating_reach_total(ptr, ind, match, starts) == (None if free else total)
    return len(priced), free


def _reach_cases(graph):
    """``(row_match, starts)`` under a cheap and a random warm matching: every
    unmatched column, then 20 random columns (matched ones and repeats too)."""
    rng = np.random.default_rng(graph.n_edges)
    cheap = cheap_matching(graph).matching
    for row_match, col_match in (
        (cheap.row_match, cheap.col_match),
        _random_warm_start(graph, seed=graph.n_cols),
    ):
        starts = np.flatnonzero(col_match == UNMATCHED).tolist()
        yield row_match, starts + rng.integers(0, graph.n_cols, size=20).tolist()


#: Starts per Tarjan pass: the module's batch, one start, every start at once.
REACH_WIDTHS = {"all-narrow": 1, "all-wide": 10**9}


@pytest.mark.parametrize("width", ["default", "all-wide", "all-narrow"])
def test_alternating_reach_matches_deque_bfs(golden_graph, width, monkeypatch):
    """The reach total is the degree sum of the columns each deque BFS
    enters, ``None`` exactly when one of them meets an unmatched row, in
    batches of one start, of the module's width or of every start."""
    import repro.graph.frontier as frontier

    if width != "default":
        monkeypatch.setattr(frontier, "REACH_BATCH", REACH_WIDTHS[width])
    _, graph = golden_graph
    outcomes = {"priced": 0, "free": 0}
    for row_match, starts in _reach_cases(graph):
        priced, free = _assert_reach_total(graph, row_match, starts)
        outcomes["priced"] += priced
        outcomes["free"] += free
    assert outcomes["priced"] and outcomes["free"]


def test_alternating_reach_total_on_tiny_analogs():
    """Every tiny analog, GL7d19 (its trees meet in one giant component)
    and kron_g500-logn21 (mostly single-column components) among them:
    under a maximum matching every unmatched column is priced, under the
    cheap matching some starts reach a free row."""
    free = 0
    for name in instance_names():
        graph = generate_instance(name, profile="tiny", seed=0)
        maximum = hopcroft_karp_matching(graph).matching
        starts = np.flatnonzero(maximum.col_match == UNMATCHED).tolist()
        assert _assert_reach_total(graph, maximum.row_match, starts) == (len(starts), 0), name
        cheap = cheap_matching(graph).matching
        starts = np.flatnonzero(cheap.col_match == UNMATCHED).tolist()
        free += _assert_reach_total(graph, cheap.row_match, starts)[1]
    assert free


def _matched_graph(edges, n_rows, n_cols, pairs, name):
    """``(graph, row_match)`` with row ``u`` matched to column ``v`` for each
    ``(u, v)`` in ``pairs``."""
    graph = from_edges(edges, n_rows=n_rows, n_cols=n_cols, name=name)
    row_match = np.full(n_rows, UNMATCHED, dtype=np.int64)
    for u, v in pairs:
        row_match[u] = v
    return graph, row_match


def test_alternating_reach_total_on_cycles():
    """Two rings (columns 0-2 and 3-5, each column adjacent to its mate row
    and the next ring row) with ring A feeding ring B, entered from the free
    columns 6 (into A) and 7 (into B); column 8 loops onto itself."""
    ring_a = [(r, c) for c in range(3) for r in (c, (c + 1) % 3)]
    ring_b = [(r, c) for c in range(3, 6) for r in (c, 3 + (c + 1 - 3) % 3)]
    edges = ring_a + ring_b + [(3, 2), (0, 6), (1, 6), (4, 7), (6, 8)]
    pairs = [(u, u) for u in range(6)] + [(6, 8)]
    graph, row_match = _matched_graph(edges, 7, 9, pairs, "rings")
    ptr, ind = graph.csr_lists("col")
    match = row_match.tolist()
    ring_a_entries, ring_b_entries = 7, 6
    assert alternating_reach_total(ptr, ind, match, [7]) == 1 + ring_b_entries
    assert alternating_reach_total(ptr, ind, match, [6]) == 2 + ring_a_entries + ring_b_entries
    assert alternating_reach_total(ptr, ind, match, [8]) == 1
    for starts in ([6, 7], [7, 6], [6, 7, 6], [0, 3, 6], [5, 0, 7, 8, 2], list(range(9))):
        assert _assert_reach_total(graph, row_match, starts)[1] == 0, starts
    # A free row next to ring B: every start that reaches B meets it.
    graph, row_match = _matched_graph(edges + [(7, 4)], 8, 9, pairs, "rings-free")
    assert _assert_reach_total(graph, row_match, [8, 6, 7, 0]) == (1, 3)


def test_alternating_reach_total_zero_degree_and_empty_starts():
    graph, row_match = _matched_graph([(0, 1), (0, 2)], 1, 4, [(0, 1)], "isolated")
    ptr, ind = graph.csr_lists("col")
    match = row_match.tolist()
    assert alternating_reach_total(ptr, ind, match, []) == 0
    assert alternating_reach_total(ptr, ind, match, [0]) == 0
    assert alternating_reach_total(ptr, ind, match, [0, 3, 0]) == 0
    assert alternating_reach_total(ptr, ind, match, [3, 2, 0]) == 2
    assert _assert_reach_total(graph, row_match, [0, 1, 2, 3, 2]) == (5, 0)


def test_alternating_reach_total_spans_batches():
    """One row shared by 3,000 columns: each free column reaches the row's
    mate, column 0, and every batch walks that tree again."""
    import repro.graph.frontier as frontier

    n = 3000
    graph, row_match = _matched_graph([(0, c) for c in range(n)], 1, n, [(0, 0)], "star-3000")
    ptr, ind = graph.csr_lists("col")
    starts = list(range(1, n))
    assert len(starts) > 2 * frontier.REACH_BATCH
    assert alternating_reach_total(ptr, ind, row_match.tolist(), starts) == 2 * len(starts)
    assert alternating_reach_total(ptr, ind, row_match.tolist(), [0] + starts) == 2 * len(starts) + 1
    # A free row seen only from the last start makes the whole total None.
    graph, row_match = _matched_graph(
        [(0, c) for c in range(n)] + [(1, n - 1)], 2, n, [(0, 0)], "star-3000-free"
    )
    ptr, ind = graph.csr_lists("col")
    assert alternating_reach_total(ptr, ind, row_match.tolist(), starts) is None
    assert alternating_reach_total(ptr, ind, row_match.tolist(), starts[:-1]) == 2 * (n - 2)


def _reference_union_entries(graph, row_match, group):
    """The degree sum of the union of the columns :func:`_reference_reach`
    enters from each start of ``group``, or ``None`` if one meets an
    unmatched row."""
    union = set()
    for start in group:
        entered, free = _reference_reach(graph, row_match, start)
        if free:
            return None
        union.update(entered)
    return int(graph.col_degrees[sorted(union)].sum())


def _grouped_total(graph, row_match, group_list, weights=None):
    """``alternating_reach_total`` over ``group_list`` passed as CSR groups,
    and the deque reference: the weighted sum of each group's union."""
    ptr, ind = graph.csr_lists("col")
    starts = [s for group in group_list for s in group]
    bounds = np.cumsum([0] + [len(group) for group in group_list]).tolist()
    got = alternating_reach_total(ptr, ind, np.asarray(row_match).tolist(), starts,
                                  groups=bounds, weights=weights)
    costs = [_reference_union_entries(graph, row_match, group) for group in group_list]
    if None in costs:
        return got, None
    return got, sum(c * w for c, w in zip(costs, weights or [1] * len(costs), strict=True))


def test_grouped_reach_total_on_cycles():
    """The rings of :func:`test_alternating_reach_total_on_cycles`: column 6
    reaches rings A and B, column 7 ring B only."""
    ring_a = [(r, c) for c in range(3) for r in (c, (c + 1) % 3)]
    ring_b = [(r, c) for c in range(3, 6) for r in (c, 3 + (c + 1 - 3) % 3)]
    edges = ring_a + ring_b + [(3, 2), (0, 6), (1, 6), (4, 7), (6, 8)]
    pairs = [(u, u) for u in range(6)] + [(6, 8)]
    graph, row_match = _matched_graph(edges, 7, 9, pairs, "rings")
    union = 2 + 1 + 7 + 6  # columns 6 and 7, then rings A and B once
    # Overlapping trees count once per group.
    assert _grouped_total(graph, row_match, [[6, 7]]) == (union, union)
    assert _grouped_total(graph, row_match, [[7, 6, 3, 0]]) == (union, union)
    # A column repeated inside one group counts once.
    assert _grouped_total(graph, row_match, [[6, 6]]) == (15, 15)
    assert _grouped_total(graph, row_match, [[7, 6, 7, 6]]) == (union, union)
    # The same group listed twice counts twice.
    assert _grouped_total(graph, row_match, [[6, 7], [6, 7]]) == (2 * union, 2 * union)
    # A weight multiplies its group's cost.
    assert _grouped_total(graph, row_match, [[6, 7]], weights=[2]) == (2 * union, 2 * union)
    assert _grouped_total(graph, row_match, [[6, 7], [7], [8]], weights=[2, 1, 2]) == (
        2 * union + 7 + 2, 2 * union + 7 + 2
    )
    # An empty group costs nothing.
    assert _grouped_total(graph, row_match, [[], [8], []]) == (1, 1)
    # A free row next to ring B: a group whose union reaches B is None,
    # though the group's other start does not reach it.
    graph, row_match = _matched_graph(edges + [(7, 4)], 8, 9, pairs, "rings-free")
    assert _grouped_total(graph, row_match, [[8], [8, 7]]) == (None, None)
    assert _grouped_total(graph, row_match, [[8], [8, 8]], weights=[1, 2]) == (3, 3)


def test_grouped_reach_total_matches_deque_bfs(golden_graph):
    """Random groups of the priced starts of :func:`_reach_cases` (repeats
    and shared trees included), weights 1 to 3, against the deque unions."""
    _, graph = golden_graph
    rng = np.random.default_rng(graph.n_cols)
    for row_match, starts in _reach_cases(graph):
        free = {s for s in starts if _reference_entries(graph, row_match, s) is None}
        priced = [s for s in starts if s not in free]
        group_list = [
            rng.choice(priced, size=int(rng.integers(1, 6))).tolist() for _ in range(40)
        ] if priced else []
        weights = rng.integers(1, 4, size=len(group_list)).tolist()
        got, expected = _grouped_total(graph, row_match, group_list, weights)
        assert got == expected
        if free:
            assert _grouped_total(graph, row_match, group_list + [[min(free)]])[0] is None


def test_grouped_reach_total_spans_batches():
    """More than ``REACH_BATCH`` groups of each weight: the star of
    :func:`test_alternating_reach_total_spans_batches`, where every group of
    free columns reaches column 0 once."""
    import repro.graph.frontier as frontier

    n = 3000
    graph, row_match = _matched_graph([(0, c) for c in range(n)], 1, n, [(0, 0)], "star-3000")
    group_list = [[c, c + 1, c] for c in range(1, n - 1)]
    assert len(group_list) > 2 * frontier.REACH_BATCH
    weights = [1 + c % 2 for c in range(len(group_list))]
    got, expected = _grouped_total(graph, row_match, group_list, weights)
    assert got == expected == 3 * sum(weights)
    assert _grouped_total(graph, row_match, group_list) == (3 * len(group_list),) * 2
    # Batches over disjoint trees: 2,400 paths of two matched columns, each
    # entered from its own free column, grouped in pairs of neighbouring
    # paths, so each batch reaches only its own part of the condensation.
    paths = 2400
    edges = [(r, c) for p in range(paths) for r, c in
             ((2 * p, 3 * p), (2 * p + 1, 3 * p), (2 * p + 1, 3 * p + 1), (2 * p, 3 * p + 2))]
    pairs = [(2 * p + r, 3 * p + r) for p in range(paths) for r in (0, 1)]
    graph, row_match = _matched_graph(edges, 2 * paths, 3 * paths, pairs, "disjoint-paths")
    group_list = [[3 * p + 2, 3 * p + 5] for p in range(0, paths - 1, 2)]
    assert len(group_list) > frontier.REACH_BATCH
    assert _grouped_total(graph, row_match, group_list) == (8 * len(group_list),) * 2


def test_reach_total_counts_columns_and_stops_at_walls(golden_graph):
    """``columns=True`` returns each group's entries and the columns of its
    union, and a row whose entry is ``WALL`` is scanned but not crossed:
    random groups under a third of the matched rows walled off, against the
    deque unions."""
    _, graph = golden_graph
    rng = np.random.default_rng(graph.n_rows)
    ptr, ind = graph.csr_lists("col")
    for row_match, starts in _reach_cases(graph):
        walled = np.where((row_match >= 0) & (rng.random(graph.n_rows) < 0.3), WALL, row_match)
        reaches = {s: _reference_reach(graph, walled, s) for s in set(starts)}
        priced = [s for s in starts if not reaches[s][1]]
        group_list = [rng.choice(priced, size=int(rng.integers(1, 5))).tolist()
                      for _ in range(30)]
        unions = [set().union(*(reaches[s][0] for s in group)) for group in group_list]
        expected = (sum(int(graph.col_degrees[sorted(u)].sum()) for u in unions),
                    sum(len(u) for u in unions))
        flat = [s for group in group_list for s in group]
        bounds = np.cumsum([0] + [len(group) for group in group_list]).tolist()
        match = walled.tolist()
        assert alternating_reach_total(ptr, ind, match, flat, groups=bounds,
                                       columns=True) == expected
        assert alternating_reach_total(ptr, ind, match, flat, groups=bounds) == expected[0]
        free = [s for s in starts if reaches[s][1]]
        if free:
            assert alternating_reach_total(ptr, ind, match, free, columns=True) is None


def test_reach_total_groups_default_to_each_start_on_tiny_analogs():
    """``groups=None`` and ``weights=None`` price each start alone, as the
    per-start deque sum does, on every tiny analog."""
    for name in instance_names():
        graph = generate_instance(name, profile="tiny", seed=0)
        maximum = hopcroft_karp_matching(graph).matching
        starts = np.flatnonzero(maximum.col_match == UNMATCHED).tolist()
        ptr, ind = graph.csr_lists("col")
        match = maximum.row_match.tolist()
        expected = sum(_reference_entries(graph, maximum.row_match, s) for s in starts)
        singles = list(range(len(starts) + 1))
        assert alternating_reach_total(ptr, ind, match, starts, groups=None, weights=None) == (
            expected
        ), name
        assert alternating_reach_total(ptr, ind, match, starts, groups=singles,
                                       weights=[1] * len(starts)) == expected, name


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
    return MatchingResult.create(
        "PFP", matching, counters=counters,
        modeled_time=CpuCostModel().seconds(counters["edges_scanned"]),
    )


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
        result.modeled_time,
        result.cardinality,
        result.matching.row_match.tolist(),
    )


def _assert_pdbfs_matches_walk(graph, initial, label, threads=(1, 2, 8)):
    """P-DBFS at each thread count against its walking reference."""
    for n_threads in threads:
        got = pdbfs_matching(graph, initial.copy(), PDBFSConfig(n_threads=n_threads))
        ref, _ = _reference_pdbfs(graph, initial.copy(), n_threads)
        assert _fingerprint(got) == _fingerprint(ref), f"p-dbfs/{n_threads} {label}"


def _assert_priced_solvers_match_walks(graph, initial, label):
    """PFP and P-DBFS at 1, 2 and 8 threads against their walking references."""
    got = pothen_fan_matching(graph, initial.copy())
    assert _fingerprint(got) == _fingerprint(_reference_pfp(graph, initial.copy())), (
        f"pfp {label}"
    )
    _assert_pdbfs_matches_walk(graph, initial, label)


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


#: Hand-built PFP phases whose searches meet failed trees: ``(edges, n_rows,
#: n_cols, matched (row, col) pairs, the phase's pricing call as (starts,
#: groups, weights))``.  Columns are searched in order.
PFP_DETOUR_CASES = {
    # Columns 1 and 2 fail (2 after entering 1's tree at row 0).  Column 4
    # passes rows 0 and 1, one of each failed tree, where 2's tree reaches
    # column 0 of 1's tree too, then augments through column 5.
    "augmenting-search-passes-two-overlapping-trees": (
        [(0, 0), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4), (2, 5),
         (3, 5)],
        4, 6, [(0, 0), (1, 3), (2, 5)],
        ([0, 0, 3], [0, 1, 3], [2, 1]),
    ),
    # Column 2 fails after entering column 1's failed tree; column 4
    # augments, so 2's detour and the hopeless column 5 recur in a second phase.
    "failed-search-enters-an-older-tree": (
        [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (0, 5)],
        3, 6, [(0, 0), (1, 3)],
        ([0, 5], [0, 1, 2], [2, 2]),
    ),
    # The same failures and a hopeless column 4, but nothing augments.
    "failing-phase-augments-nothing": (
        [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (0, 4)],
        2, 5, [(0, 0), (1, 3)],
        ([0, 4], [0, 1, 2], None),
    ),
}


@pytest.mark.parametrize("case", sorted(PFP_DETOUR_CASES))
def test_priced_searches_match_walks_on_failed_tree_detours(case, monkeypatch):
    import repro.seq.pothen_fan as pothen_fan

    edges, n_rows, n_cols, pairs, expected = PFP_DETOUR_CASES[case]
    graph, row_match = _matched_graph(edges, n_rows, n_cols, pairs, case)
    initial = Matching(row_match, np.full(n_cols, UNMATCHED, dtype=np.int64)).canonical()
    calls = []
    inner = pothen_fan.alternating_reach_total

    def recording(col_ptr, col_ind, dead, starts, **kwargs):
        calls.append((list(starts), list(kwargs["groups"]), kwargs["weights"]))
        return inner(col_ptr, col_ind, dead, starts, **kwargs)

    monkeypatch.setattr(pothen_fan, "alternating_reach_total", recording)
    _assert_priced_solvers_match_walks(graph, initial, case)
    assert calls == [expected]


#: Hand-built P-DBFS rounds whose searches meet closed regions, with every
#: failed search closing: ``(edges, n_rows, n_cols, matched (row, col)
#: pairs, the round-end pricing calls as (starts, groups), the successful
#: searches' detours as (records, path columns))``.  Both lists hold the
#: runs at 1, 2 and 8 threads, in that order; free columns are dealt to
#: the threads in order.
PDBFS_DETOUR_CASES = {
    # Column 3 fails and closes rows 0-2.  On one thread, column 4 then
    # meets rows 0 and 1, whose reaches (columns 0, 2 and 1, 2) share
    # column 2; on two threads those rows are thread 0's and column 4 fails
    # at once.
    "failed-search-enters-two-overlapping-reaches": (
        [(0, 3), (1, 3), (0, 0), (2, 0), (1, 1), (2, 1), (2, 2), (0, 4), (1, 4)],
        3, 5, [(0, 0), (1, 1), (2, 2)],
        [([0, 1], [0, 2])], [],
    ),
    # Column 3 fails through the chain 0 -> 1 -> 2 and closes it.  Column
    # 4 meets row 0 before row 3, then augments through columns 5 and 6:
    # the walk pops column 0 and then 1 before column 6, and claims row 2
    # without popping column 2.  The next round fails column 3 again.
    "augmenting-search-pops-part-of-a-region": (
        [(0, 3), (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 4), (3, 4), (3, 5), (4, 5),
         (4, 6), (5, 6)],
        6, 7, [(0, 0), (1, 1), (2, 2), (3, 5), (4, 6)],
        [], [([(0, 1)], [4, 5, 6])],
    ),
    # Thread 1's column 1 claims row 0 (matched to column 5) and fails.
    # Thread 0's column 2 closes row 1 (column 6), which borders row 0, and
    # its column 4 meets row 1: the pricing stops at row 0.  On one thread
    # row 0 is the thread's own and column 2's detour crosses it.
    "region-borders-another-threads-row": (
        [(0, 1), (0, 5), (1, 2), (1, 6), (0, 6), (1, 4)],
        2, 7, [(0, 5), (1, 6)],
        [([5, 6], [0, 1, 2]), ([6], [0, 1])], [],
    ),
    # One thread: column 0 closes rows 0 and 1 (columns 4 and 5), column 1
    # closes row 2 (column 6) after meeting row 1, column 2 meets rows 0
    # and 2, and column 3 pops column 4 before augmenting through column 7.
    # Columns 0-2 fail again in the next round.
    "single-thread-chain-of-regions": (
        [(0, 0), (0, 4), (1, 4), (1, 5), (2, 1), (1, 1), (2, 6), (0, 2), (2, 2), (0, 3),
         (3, 3), (3, 7), (4, 7)],
        5, 8, [(0, 4), (1, 5), (2, 6), (3, 7)],
        [([5, 4, 6], [0, 1, 3])] * 2 + [([4], [0, 1])] * 2, [([(0, 1)], [3, 7])],
    ),
}


@pytest.mark.parametrize("case", sorted(PDBFS_DETOUR_CASES))
def test_priced_searches_match_walks_on_closed_region_detours(case, monkeypatch):
    import repro.graph.frontier as frontier
    import repro.multicore.pdbfs as pdbfs

    monkeypatch.setattr(frontier, "CLOSING_ENTRIES", 0)
    edges, n_rows, n_cols, pairs, priced, passed = PDBFS_DETOUR_CASES[case]
    graph, row_match = _matched_graph(edges, n_rows, n_cols, pairs, case)
    initial = Matching(row_match, np.full(n_cols, UNMATCHED, dtype=np.int64)).canonical()
    calls = {"priced": [], "passed": []}
    inner_priced = pdbfs.alternating_reach_total
    inner_passed = frontier._passed_detours

    def recording_priced(col_ptr, col_ind, mates, starts, **kwargs):
        if kwargs:  # the sweep's call takes none
            calls["priced"].append((list(starts), list(kwargs["groups"])))
        return inner_priced(col_ptr, col_ind, mates, starts, **kwargs)

    def recording_passed(*args):
        calls["passed"].append((list(args[5]), list(args[7])))
        return inner_passed(*args)

    monkeypatch.setattr(pdbfs, "alternating_reach_total", recording_priced)
    monkeypatch.setattr(frontier, "_passed_detours", recording_passed)
    _assert_priced_solvers_match_walks(graph, initial, case)
    assert calls == {"priced": priced, "passed": passed}


def _forcing_every_closing(monkeypatch):
    """Close every failed P-DBFS round search; returns the counts of the
    round-end pricing calls and of the successful searches' detours."""
    import repro.graph.frontier as frontier
    import repro.multicore.pdbfs as pdbfs

    monkeypatch.setattr(frontier, "CLOSING_ENTRIES", 0)
    return (_counting(monkeypatch, pdbfs, "_price_detours"),
            _counting(monkeypatch, frontier, "_passed_detours"))


@pytest.mark.parametrize("kind", ["cold", "warm"])
def test_forced_closing_matches_walks_on_deficient_graphs(kind, monkeypatch):
    """With every failed search closed, even the small ones the crossover
    leaves open, P-DBFS still equals its walk at 1, 2, 3 and 8 threads."""
    priced, passed = _forcing_every_closing(monkeypatch)
    for seed in DEFICIENT_SEEDS:
        graph = _deficient_graph(seed)
        _assert_pdbfs_matches_walk(graph, _start(graph, kind, seed), f"seed {seed}",
                                   threads=(1, 2, 3, 8))
    assert priced and passed


@pytest.mark.parametrize("seed", range(5))
def test_forced_closing_matches_walks_on_tiny_analogs(seed, monkeypatch):
    priced, passed = _forcing_every_closing(monkeypatch)
    for name in instance_names():
        graph = generate_instance(name, profile="tiny", seed=seed)
        _assert_pdbfs_matches_walk(graph, _start(graph, "cheap", seed), name,
                                   threads=(1, 2, 3, 8))
    assert priced and passed


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

    calls = _counting(monkeypatch, pothen_fan, "alternating_reach_total")

    def priced():
        return sum(len(starts) for *_, starts in calls)

    perfect = uniform_random_bipartite(50, 50, avg_degree=8.0, seed=6)
    for kind in ("cold", "cheap", "warm"):
        result = pothen_fan_matching(perfect, _start(perfect, kind, 6))
        assert result.cardinality == perfect.n_cols
    assert priced() == 0
    # One row shared by three columns: the second free column fails after a
    # walk, the third is priced.
    star = from_edges([(0, 0), (0, 1), (0, 2)], n_rows=1, n_cols=3, name="star")
    result = pothen_fan_matching(star, Matching.empty(star))
    assert result.cardinality == 1
    assert priced() == 1
    deficient = _deficient_graph(1003)
    assert deficient.n_cols > deficient.n_rows
    pothen_fan_matching(deficient, Matching.empty(deficient))
    assert priced() > 1


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

    monkeypatch.setattr(pdbfs, "alternating_reach_total", lambda *args, **kwargs: None)
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
