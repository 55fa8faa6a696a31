"""Wall-clock floors for pricing the searches PFP and P-DBFS know will fail.

:func:`repro.graph.frontier.alternating_reach_total` sums, over a list of
starts, the adjacency each start's alternating BFS would scan, in one Tarjan
pass over the union of their trees.  It replaced one reach per start, a
BFS that gathered its wide levels with whole-array ops and walked a tree
shared by k starts k times.  P-DBFS's cleanup sweep prices every unmatched
column of a maximum matching, so this replays that sweep on the two
``medium`` analogs where the per-start walks repeated most:

* ``GL7d19``: 111 starts whose trees all lead into one strongly connected
  component of 4,811 of the 4,922 columns;
* ``kron_g500-logn21``: 3,851 starts over 4,352 components, all but one of
  them single columns.

The total must equal a per-start deque BFS sum, and beat the per-start
gather walk, kept here, by at least 3x.

PFP's phase records the rows of failed trees its searches meet and prices
those detours in one grouped call at the phase end.  It replaced a phase
that walked into the trees, kept here.  On the ``medium`` analogs where the
detours are most of the phase (``ljournal-2008`` and ``kron_g500-logn21``,
from the cheap matching), counters and matching must equal the walk's, and
the phase must beat it by at least 2x (see "Closed trees, priced at the
phase end" in docs/benchmarks.md).

P-DBFS's round searches skip their own thread's closed regions and price
those detours per thread at the round end.  That replaced rounds whose
searches walked the regions again, kept here.  On ``GL7d19`` and
``kron_g500-logn21``, from the cheap matching, counters, modeled seconds
and matching must equal the walk's, and the solve must beat it by at least
2.5x and 1.5x (see "Closed regions of a P-DBFS round" in
docs/benchmarks.md).
"""

from __future__ import annotations

import os
import time
from collections import deque

import numpy as np
import pytest

from repro.generators.suite import generate_instance
from repro.gpusim.costmodel import MulticoreCostModel
from repro.graph.frontier import (
    NARROW_WIDTH,
    alternating_reach_total,
    claiming_bfs,
    sorted_unique,
)
from repro.matching import UNMATCHED
from repro.multicore.pdbfs import pdbfs_matching
from repro.seq.greedy import cheap_matching
from repro.seq.hopcroft_karp import hopcroft_karp_matching
from repro.seq.pothen_fan import _pfp_phase

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20130421"))

#: Deliberately below the measured gaps (see "Hopeless searches, one pass per
#: batch" in docs/benchmarks.md) to keep CI unflaky.
_MIN_SPEEDUP = 3.0

#: PFP's phase against the walk into failed trees, likewise below the gaps.
_MIN_PFP_SPEEDUP = 2.0

#: P-DBFS against rounds that walk the closed regions, per analog, likewise
#: below the gaps.
_MIN_PDBFS_SPEEDUP = {"GL7d19": 2.5, "kron_g500-logn21": 1.5}


def _deque_reach(ptr, ind, row_match, start):
    """Entries a deque alternating BFS from ``start`` scans, or ``None`` at
    an unmatched row."""
    seen = {start}
    queue = deque([start])
    entries = 0
    while queue:
        v = queue.popleft()
        entries += ptr[v + 1] - ptr[v]
        for u in ind[ptr[v]:ptr[v + 1]]:
            w = row_match[u]
            if w == UNMATCHED:
                return None
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return entries


def _gathered_reach(graph, lists, row_match, start):
    """The per-start reach the total replaced: narrow levels walked over
    lists, wider ones gathered with whole-array ops (the ``np.repeat`` gather
    of the frontier layer's level steps) and deduplicated with
    ``sorted_unique``, columns marked in a ``bytearray``."""
    ptr, ind, match = lists
    seen = bytearray(graph.n_cols)
    marks = np.frombuffer(seen, dtype=np.uint8)
    seen[start] = 1
    frontier = [start]
    entries = 0
    while len(frontier):
        if len(frontier) < NARROW_WIDTH:
            nxt = []
            for v in frontier:
                entries += ptr[v + 1] - ptr[v]
                for idx in range(ptr[v], ptr[v + 1]):
                    w = match[ind[idx]]
                    if w < 0:
                        return None
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            frontier = nxt
        else:
            frontier = np.asarray(frontier, dtype=np.int64)
            begins = graph.col_ptr[frontier]
            degrees = graph.col_ptr[frontier + 1] - begins
            offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
            np.cumsum(degrees, out=offsets[1:])
            flat = np.arange(offsets[-1], dtype=np.int64) - np.repeat(
                offsets[:-1] - begins, degrees
            )
            rows = graph.col_ind[flat]
            entries += len(rows)
            mates = row_match[rows]
            if np.any(mates < 0):
                return None
            fresh = sorted_unique(mates[marks[mates] == 0])
            marks[fresh] = 1
            frontier = fresh.tolist() if len(fresh) < NARROW_WIDTH else fresh
    return entries


@pytest.fixture(scope="module", params=["GL7d19", "kron_g500-logn21"])
def sweep(request):
    """``(graph, row_match, starts)``: a P-DBFS cleanup sweep's input."""
    graph = generate_instance(request.param, profile="medium", seed=BENCH_SEED)
    matching = hopcroft_karp_matching(graph).matching
    starts = np.flatnonzero(matching.col_match == UNMATCHED).tolist()
    assert starts
    return graph, matching.row_match, starts


def _best_of_interleaved(first, second, repeats=3):
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(repeats):
        for k, fn in enumerate((first, second)):
            t0 = time.perf_counter()
            results[k] = fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best, results


def test_reach_total_matches_and_beats_per_start_walks(sweep, benchmark):
    graph, row_match, starts = sweep
    ptr, ind = graph.csr_lists("col")
    match = row_match.tolist()
    lists = (ptr, ind, match)

    def total():
        return alternating_reach_total(ptr, ind, match, starts)

    def per_start():
        return sum(_gathered_reach(graph, lists, row_match, s) for s in starts)

    expected = sum(_deque_reach(ptr, ind, match, s) for s in starts)
    (total_s, per_start_s), (got, walked) = _best_of_interleaved(total, per_start)
    assert got == walked == expected
    speedup = per_start_s / total_s
    benchmark.extra_info.update(
        graph=graph.name, starts=len(starts), entries=expected, speedup=round(speedup, 2)
    )
    benchmark.pedantic(total, rounds=3, iterations=1)
    assert speedup >= _MIN_SPEEDUP, (
        f"{graph.name}: reach total only {speedup:.2f}x faster than per-start walks "
        f"({total_s * 1e3:.1f} ms vs {per_start_s * 1e3:.1f} ms)"
    )


def _walking_pfp_phase(col_ptr, col_ind, row_match, col_match):
    """PFP's phase as it was before detours into failed trees were priced:
    a search walks every failed tree it meets.  Hopeless starts are priced
    alike, and the second phase adds each failed search's walk again when
    this one augmented.  Returns ``(augmentations, lookahead_hits, edges)``."""
    n_cols = len(col_ptr) - 1
    lookahead = list(col_ptr[:-1])
    visited_round = [-1] * len(row_match)
    dead = [UNMATCHED] * len(row_match)
    round_id = 0
    augmentations = lookahead_hits = edges = failed_edges = 0
    any_failed = False
    hopeless = []
    for start in range(n_cols):
        if col_match[start] != UNMATCHED:
            continue
        stop = col_ptr[start + 1]
        if any_failed and all(dead[u] >= 0 for u in col_ind[col_ptr[start]:stop]):
            hopeless.append(start)
            edges += stop - lookahead[start]
            lookahead[start] = stop
            continue
        round_id += 1
        tree = [start]
        stack = [[start, col_ptr[start]]]
        path_rows = []
        while stack:
            v, idx = stack[-1]
            stop = col_ptr[v + 1]
            free = -1
            while lookahead[v] < stop:
                u = col_ind[lookahead[v]]
                lookahead[v] += 1
                edges += 1
                if row_match[u] == UNMATCHED:
                    free = u
                    lookahead_hits += 1
                    break
            while free < 0 and idx < stop:
                u = col_ind[idx]
                idx += 1
                edges += 1
                if visited_round[u] == round_id:
                    continue
                visited_round[u] = round_id
                w = row_match[u]
                if w == UNMATCHED:
                    free = u
                    break
                stack[-1][1] = idx
                path_rows.append(u)
                stack.append([w, col_ptr[w]])
                tree.append(w)
                break
            else:
                if free < 0:
                    stack.pop()
                    if path_rows:
                        path_rows.pop()
                    continue
            if free < 0:
                continue
            augmentations += 1
            row_match[free], col_match[v] = v, free
            for (prev_col, _), prev_row in zip(stack[:-1], path_rows, strict=True):
                row_match[prev_row], col_match[prev_col] = prev_col, prev_row
            break
        else:
            any_failed = True
            failed_edges += sum(col_ptr[c + 1] - col_ptr[c] for c in tree)
            for c in tree[1:]:
                dead[col_match[c]] = c
    reach = alternating_reach_total(col_ptr, col_ind, dead, hopeless)
    failed_edges += reach
    return augmentations, lookahead_hits, edges + reach + (failed_edges if augmentations else 0)


@pytest.fixture(scope="module", params=["ljournal-2008", "kron_g500-logn21"])
def pfp_input(request):
    """``(graph, matching)``: a PFP solve's input, the cheap matching."""
    graph = generate_instance(request.param, profile="medium", seed=BENCH_SEED)
    return graph, cheap_matching(graph).matching


def test_pfp_phase_matches_and_beats_walking_failed_trees(pfp_input, benchmark):
    graph, matching = pfp_input
    ptr, ind = graph.csr_lists("col")

    def solve(phase):
        def run():
            row_match, col_match = matching.row_match.tolist(), matching.col_match.tolist()
            return phase(ptr, ind, row_match, col_match), row_match, col_match
        return run

    (priced_s, walked_s), (got, expected) = _best_of_interleaved(
        solve(_pfp_phase), solve(_walking_pfp_phase)
    )
    assert got == expected
    assert got[0][0] > 0  # the phase augmented: failed searches are charged twice
    speedup = walked_s / priced_s
    benchmark.extra_info.update(
        graph=graph.name, edges=got[0][2], speedup=round(speedup, 2)
    )
    benchmark.pedantic(solve(_pfp_phase), rounds=3, iterations=1)
    assert speedup >= _MIN_PFP_SPEEDUP, (
        f"{graph.name}: PFP phase only {speedup:.2f}x faster than walking failed trees "
        f"({priced_s * 1e3:.1f} ms vs {walked_s * 1e3:.1f} ms)"
    )


def _walking_pdbfs(graph, initial, n_threads=8):
    """P-DBFS as it was before round searches skipped their thread's closed
    regions: every search walks them.  The sweep after a round that augments
    nothing is priced as before.  Returns ``(counters, modeled_seconds,
    row_match)``."""
    model = MulticoreCostModel(n_threads=n_threads)
    mu_row = initial.row_match.tolist()
    mu_col = initial.col_match.tolist()
    col_ptr, col_ind = graph.csr_lists("col")
    counters = {"rounds": 0, "sequential_sweeps": 0, "augmentations": 0, "edges_scanned": 0.0,
                "atomics": 0, "initial_matching": sum(1 for u in mu_row if u >= 0)}
    modeled = 0.0
    while True:
        unmatched = [v for v in range(graph.n_cols) if mu_col[v] == UNMATCHED]
        if not unmatched:
            break
        counters["rounds"] += 1
        owner = [-1] * graph.n_rows
        thread_work = np.zeros(n_threads, dtype=np.float64)
        atomics = augmented = 0
        for first in range(0, len(unmatched), n_threads):
            for thread_id, v in enumerate(unmatched[first:first + n_threads]):
                if mu_col[v] != UNMATCHED:
                    continue
                path, work, claims = claiming_bfs(col_ptr, col_ind, v, mu_row, owner, thread_id)
                thread_work[thread_id] += work
                atomics += claims
                if path is not None:
                    for i in range(0, len(path) - 1, 2):
                        mu_col[path[i]], mu_row[path[i + 1]] = path[i + 1], path[i]
                    augmented += 1
        counters["edges_scanned"] += float(thread_work.sum())
        counters["atomics"] += atomics
        counters["augmentations"] += augmented
        modeled += model.round_seconds(total_ops=float(thread_work.sum()),
                                       max_thread_ops=float(thread_work.max()),
                                       atomics=float(atomics))
        if augmented == 0:
            counters["sequential_sweeps"] += 1
            sweep = float(len(unmatched) + alternating_reach_total(col_ptr, col_ind, mu_row,
                                                                   unmatched))
            counters["edges_scanned"] += sweep
            modeled += model.round_seconds(total_ops=sweep, max_thread_ops=sweep, atomics=0.0)
            break
    return counters, modeled, mu_row


@pytest.fixture(scope="module", params=sorted(_MIN_PDBFS_SPEEDUP))
def pdbfs_input(request):
    """``(graph, matching)``: a P-DBFS solve's input, the cheap matching."""
    graph = generate_instance(request.param, profile="medium", seed=BENCH_SEED)
    return graph, cheap_matching(graph).matching


def test_pdbfs_matches_and_beats_walking_closed_regions(pdbfs_input, benchmark):
    graph, matching = pdbfs_input

    def priced():
        result = pdbfs_matching(graph, matching.copy())
        return result.counters, result.modeled_time, result.matching.row_match.tolist()

    def walked():
        return _walking_pdbfs(graph, matching.copy())

    (priced_s, walked_s), (got, expected) = _best_of_interleaved(priced, walked)
    assert got == expected
    speedup = walked_s / priced_s
    benchmark.extra_info.update(
        graph=graph.name, edges=got[0]["edges_scanned"], speedup=round(speedup, 2)
    )
    benchmark.pedantic(priced, rounds=3, iterations=1)
    assert speedup >= _MIN_PDBFS_SPEEDUP[graph.name], (
        f"{graph.name}: P-DBFS only {speedup:.2f}x faster than walking closed regions "
        f"({priced_s * 1e3:.1f} ms vs {walked_s * 1e3:.1f} ms)"
    )
