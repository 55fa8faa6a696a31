"""Wall-clock floor for the level-restricted round that prices its dead part.

:func:`repro.graph.frontier.restricted_round` walks only the roots that can
still reach an unmatched row through the BFS level DAG and prices the
searches into the rest of the DAG from two sweeps by level.  It replaced a
walk of every root, kept here.  This replays every restricted launch of a
G-HKDW solve (one per phase, from the cheap matching) on the two ``medium``
analogs with the most restricted launches above the sweep's crossover:

* ``ljournal-2008``, a power-law graph: 21 launches;
* ``delaunay_n24``, a mesh whose phases run deeper level DAGs: 9 launches.

Per-root work, augmentation counts and matchings must be bit-equal, and the
round must beat the walk by at least 1.5x (see "The level-restricted round,
priced" in docs/benchmarks.md).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.generators.suite import generate_instance
from repro.graph.frontier import alternating_level_bfs, duff_wassel_round, restricted_round
from repro.matching import UNMATCHED
from repro.seq.greedy import cheap_matching

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20130421"))

#: Deliberately below the measured gaps to keep CI unflaky.
_MIN_SPEEDUP = 1.5


def _walk_every_root(ptr, ind, roots, level, row_match, col_match, row_used):
    """The restricted round as a walk of every root: each root's DFS enters
    a matched row's mate one level down, claims every row it enters and
    augments at the first unclaimed unmatched row."""
    augmented = 0
    per_root = []
    for start in roots:
        edges = 0
        stack = [[start, ptr[start]]]
        path_rows = []
        while stack:
            v, idx = stack[-1]
            stop = ptr[v + 1]
            want = level[v] + 1
            advanced = done = False
            while idx < stop:
                u = ind[idx]
                idx += 1
                edges += 1
                if row_used[u]:
                    continue
                w = row_match[u]
                if w != UNMATCHED:
                    if level[w] != want:
                        continue
                    row_used[u] = True
                    stack[-1][1] = idx
                    path_rows.append(u)
                    stack.append([w, ptr[w]])
                    advanced = True
                    break
                row_used[u] = True
                done = True
                break
            if advanced:
                continue
            if done:
                row_match[u] = v
                col_match[v] = u
                for depth in range(len(stack) - 2, -1, -1):
                    row_match[path_rows[depth]] = stack[depth][0]
                    col_match[stack[depth][0]] = path_rows[depth]
                augmented += 1
                break
            stack[-1][1] = idx
            if idx >= stop:
                stack.pop()
                if path_rows:
                    path_rows.pop()
        per_root.append(edges)
    return augmented, per_root


@pytest.fixture(scope="module", params=["ljournal-2008", "delaunay_n24"])
def launches(request):
    """``(graph, [(row_match, col_match, level, roots, entries)])``: the
    state before every restricted launch of a G-HKDW solve."""
    graph = generate_instance(request.param, profile="medium", seed=BENCH_SEED)
    ptr, ind = graph.csr_lists("col")
    matching = cheap_matching(graph).matching
    row_match, col_match = matching.row_match.copy(), matching.col_match.copy()
    rows, cols = memoryview(row_match), memoryview(col_match)
    states = []
    while True:
        level, shortest, entries = alternating_level_bfs(
            graph.col_ptr, graph.col_ind, row_match, col_match
        )
        if shortest == np.iinfo(np.int64).max:
            return graph, states
        roots = np.flatnonzero(col_match == UNMATCHED).tolist()
        states.append((row_match.copy(), col_match.copy(), level, roots, entries))
        restricted_round(graph.col_ptr, graph.col_ind, ptr, ind, roots, level, rows, cols, entries)
        roots = [v for v in roots if cols[v] == UNMATCHED]
        duff_wassel_round(ptr, ind, roots, level, rows, cols)


def _best_of_interleaved(first, second, repeats=3):
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(repeats):
        for k, fn in enumerate((first, second)):
            t0 = time.perf_counter()
            results[k] = fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best, results


def test_priced_round_matches_and_beats_walking_every_root(launches, benchmark):
    graph, states = launches
    ptr, ind = graph.csr_lists("col")

    def replay(round_fn):
        def run():
            out = []
            for row_match, col_match, level, roots, entries in states:
                row_match, col_match = row_match.copy(), col_match.copy()
                got = round_fn(level, roots, entries, memoryview(row_match), memoryview(col_match))
                out.append((got, row_match, col_match))
            return out
        return run

    priced = replay(lambda level, roots, entries, rows, cols: restricted_round(
        graph.col_ptr, graph.col_ind, ptr, ind, roots, level, rows, cols, entries
    ))
    walked = replay(lambda level, roots, entries, rows, cols: _walk_every_root(
        ptr, ind, roots, memoryview(level), rows, cols, bytearray(graph.n_rows)
    ))
    (priced_s, walked_s), (got, expected) = _best_of_interleaved(priced, walked)
    assert len(got) == len(expected) == len(states) >= 5
    for (mine, row_a, col_a), (ref, row_b, col_b) in zip(got, expected, strict=True):
        assert mine == ref
        np.testing.assert_array_equal(row_a, row_b)
        np.testing.assert_array_equal(col_a, col_b)
    speedup = walked_s / priced_s
    benchmark.extra_info.update(
        graph=graph.name, launches=len(states), speedup=round(speedup, 2),
        entries=sum(sum(per_root) for (_, per_root), _, _ in got),
    )
    benchmark.pedantic(priced, rounds=3, iterations=1)
    assert speedup >= _MIN_SPEEDUP, (
        f"{graph.name}: priced round only {speedup:.2f}x faster than walking every root "
        f"({priced_s * 1e3:.1f} ms vs {walked_s * 1e3:.1f} ms over {len(states)} launches)"
    )
