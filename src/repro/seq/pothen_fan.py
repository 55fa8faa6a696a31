"""Pothen–Fan (PFP) augmenting-path matching with lookahead.

PFP performs, for every unmatched column, a DFS that first tries the
*lookahead*: scanning the column's adjacency for a directly unmatched row
before descending.  A phase visits all unmatched columns; phases repeat until
one makes no progress.  This is the third sequential algorithm used in §IV of
the paper to filter out instances every sequential code solves in under a
second ("Pothen-Fan-Plus").

The whole DFS — lookahead and descent — works one small adjacency slice at
a time, so per the frontier-layer split (:mod:`repro.graph.frontier`) it
runs as a scalar walk over the cached ``csr_lists()`` views with matching,
lookahead and visited state in plain Python lists (one function call per
*phase*, locals only in the per-edge scans): no per-edge ndarray boxing,
bulk counter updates per phase, end-values identical to the historical
implementation.

A search that fails is never walked again.  Its alternating tree is closed
(every row in it is matched to a column in it), so no later augmenting
path enters the tree, and a later search from the same start meets the
same tree with every lookahead pointer at its end: it scans each of the
tree's columns' adjacency once and fails.  The phase therefore memoizes
each failed start's descent count and charges it on the next visit, which
makes the last phase O(unmatched columns).  The dead trees' rows and their
mates are recorded in an array; a start whose every neighbour row is in a
dead tree must fail too, and is charged its own lookahead remainder plus
:func:`~repro.graph.frontier.alternating_reach` over that array.  Until a
search fails, the bookkeeping is one list append per descent (the columns
the search enters) and one dict lookup per start; after that, each new
start also checks its neighbour rows against the dead marks.

This deviates from Pothen and Fan on purpose: the visited marks reset per
search (``round_id`` advances per start, not per phase), so the DFSs of a
phase are not vertex-disjoint.  A start that fails therefore has no
augmenting path at all, and every solve that augments reports
``phases: 2``.  It stays so, because vertex-disjoint phases would move the
frozen modeled figures of Table I.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import alternating_reach
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["pothen_fan_matching"]


def _pfp_phase(
    col_ptr: list[int],
    col_ind: list[int],
    row_match: list[int],
    col_match: list[int],
    lookahead: list[int],
    visited_round: list[int],
    round_id: int,
    failed: dict[int, int],
    dead_mates: np.ndarray,
    arrays: tuple[np.ndarray, np.ndarray],
) -> tuple[int, int, int, int]:
    """One PFP phase: a lookahead DFS from every currently unmatched column.

    A start that fails is recorded in ``failed`` (start -> the adjacency
    entries its descent scanned) and its tree's rows in ``dead_mates``
    (row -> its mate, ``-1`` for rows outside every failed tree); a start
    that provably fails is charged its walk instead of walking it (see the
    module docstring).  ``arrays`` is ``(col_ptr, col_ind)`` as ndarrays.

    Returns ``(augmentations, lookahead_hits, edges_scanned, round_id)``.
    """
    unmatched = UNMATCHED
    n_cols = len(col_ptr) - 1
    augmentations = 0
    lookahead_hits = 0
    edges = 0
    dead = memoryview(dead_mates)
    scalars = (col_ptr, col_ind, dead)
    # hot-path
    for start in range(n_cols):
        if col_match[start] != unmatched:
            continue
        # A start that failed before fails again, scanning the same entries.
        memo = failed.get(start)
        if memo is not None:
            edges += memo
            continue
        if failed:
            stop = col_ptr[start + 1]
            for idx in range(col_ptr[start], stop):
                if dead[col_ind[idx]] < 0:
                    break
            else:
                # Every neighbour row lies in a failed tree: the walk would
                # fail after its own lookahead and one scan of each column
                # it reaches.
                memo = alternating_reach(arrays[0], arrays[1], dead_mates, start, scalars)
                failed[start] = memo
                edges += memo + stop - lookahead[start]
                lookahead[start] = stop
                continue
        round_id += 1
        tree = [start]  # the columns this search enters
        stack: list[list[int]] = [[start, col_ptr[start]]]
        path_rows: list[int] = []
        while stack:
            v, idx = stack[-1]
            stop = col_ptr[v + 1]
            # Lookahead: scan for an immediately free row first.
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
            # Regular DFS descent over matched rows not yet visited this round.
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
                    # The lookahead pointer already passed this row in an
                    # earlier call; treat it as a direct augmentation anyway.
                    done = True
                    break
                stack[-1][1] = idx
                path_rows.append(u)
                stack.append([w, col_ptr[w]])
                tree.append(w)
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
        else:
            # The stack emptied without augmenting: the search failed.
            failed[start] = sum(col_ptr[c + 1] - col_ptr[c] for c in tree)
            for c in tree[1:]:
                dead[col_match[c]] = c
    # end hot-path
    return augmentations, lookahead_hits, edges, round_id


def pothen_fan_matching(graph: BipartiteGraph, initial: Matching | None = None) -> MatchingResult:
    """Maximum cardinality matching with the Pothen–Fan algorithm (with lookahead)."""
    t0 = time.perf_counter()
    if initial is None:
        matching = cheap_matching(graph).matching
    else:
        matching = initial.copy().canonical()
    row_match = matching.row_match.tolist()
    col_match = matching.col_match.tolist()
    counters = {"edges_scanned": 0, "phases": 0, "augmentations": 0, "lookahead_hits": 0}

    col_ptr, col_ind = graph.csr_lists("col")
    # Lookahead pointer: next adjacency offset to inspect for a free row, per column.
    lookahead = list(col_ptr[:-1])
    visited_round = [-1] * graph.n_rows
    round_id = 0
    failed: dict[int, int] = {}
    dead_mates = np.full(graph.n_rows, UNMATCHED, dtype=np.int64)
    arrays = (graph.col_ptr, graph.col_ind)

    while True:
        counters["phases"] += 1
        augmented, hits, edges, round_id = _pfp_phase(
            col_ptr, col_ind, row_match, col_match, lookahead, visited_round, round_id,
            failed, dead_mates, arrays,
        )
        counters["augmentations"] += augmented
        counters["lookahead_hits"] += hits
        counters["edges_scanned"] += edges
        if augmented == 0:
            break

    wall = time.perf_counter() - t0
    result = Matching(
        np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64)
    )
    return MatchingResult.create("PFP", result, counters=counters, wall_time=wall)
