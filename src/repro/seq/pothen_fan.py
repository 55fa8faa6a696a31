"""Pothen–Fan (PFP) augmenting-path matching with lookahead.

PFP performs, for every unmatched column, a DFS that first tries the
*lookahead*: scanning the column's adjacency for a directly unmatched row
before descending.  A phase visits all unmatched columns; phases repeat until
one makes no progress.  Here only the first phase is walked (see below).
This is the third sequential algorithm used in §IV of
the paper to filter out instances every sequential code solves in under a
second ("Pothen-Fan-Plus").

The whole DFS — lookahead and descent — works one small adjacency slice at
a time, so per the frontier-layer split (:mod:`repro.graph.frontier`) it
runs as a scalar walk over the cached ``csr_lists()`` views with matching,
lookahead and visited state in plain Python lists (one function call for
the phase, locals only in the per-edge scans): no per-edge ndarray boxing,
bulk counter updates, end-values identical to the historical
implementation.

A search that fails is never walked again.  Its alternating tree is closed
(every row in it is matched to a column in it), so no later augmenting
path enters the tree, and a later search from the same start meets the
same tree with every lookahead pointer at its end: it scans each of the
tree's columns' adjacency once and fails.  The visited marks reset per
search (``round_id`` advances per start, not per phase), so a start that
fails has no augmenting path at all, and a second phase would find every
column still unmatched among the first phase's failed starts.  The solve
therefore runs one phase and, when that phase augmented, charges the
second phase's failed searches as one running total of their descent
counts instead of walking them: every solve that augments reports
``phases: 2``.  The dead trees' rows and their mates are recorded in a
list; a start whose every neighbour row is in a dead tree must fail too,
and is charged its own lookahead remainder at once and, at the phase end,
its reach over that list: :func:`~repro.graph.frontier.alternating_reach_total`
prices all such starts in one pass over their trees.  Until a search fails,
the bookkeeping is one list append per descent (the columns the search
enters); after that, each new start also checks its neighbour rows against
the dead marks.

This deviates from Pothen and Fan on purpose: with vertex-disjoint phases
a failed start could still have an augmenting path, and the frozen
modeled figures of Table I would move.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import alternating_reach_total
from repro.gpusim.costmodel import CpuCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["pothen_fan_matching"]


def _pfp_phase(
    col_ptr: list[int],
    col_ind: list[int],
    row_match: list[int],
    col_match: list[int],
) -> tuple[int, int, int, int]:
    """PFP's one phase: a lookahead DFS from every currently unmatched column.

    A failed start's tree rows are recorded in ``dead`` (row -> its mate,
    ``-1`` for rows outside every failed tree); a start that provably fails
    is charged its walk instead of walking it (see the module docstring).

    Returns ``(augmentations, lookahead_hits, edges_scanned, failed_edges)``,
    where ``failed_edges`` sums what the failed starts' searches scan.
    """
    unmatched = UNMATCHED
    n_cols = len(col_ptr) - 1
    # Lookahead pointer: next adjacency offset to inspect for a free row, per column.
    lookahead = list(col_ptr[:-1])
    visited_round = [-1] * len(row_match)
    dead = [unmatched] * len(row_match)
    round_id = 0
    any_failed = False
    augmentations = 0
    lookahead_hits = 0
    edges = 0
    failed_edges = 0
    hopeless: list[int] = []
    # hot-path
    for start in range(n_cols):
        if col_match[start] != unmatched:
            continue
        if any_failed:
            stop = col_ptr[start + 1]
            for idx in range(col_ptr[start], stop):
                if dead[col_ind[idx]] < 0:
                    break
            else:
                # Every neighbour row lies in a failed tree: the walk would
                # fail after its own lookahead and one scan of each column
                # it reaches, priced at the phase end.
                hopeless.append(start)
                edges += stop - lookahead[start]
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
            any_failed = True
            failed_edges += sum(col_ptr[c + 1] - col_ptr[c] for c in tree)
            for c in tree[1:]:
                dead[col_match[c]] = c
    # end hot-path
    reach = alternating_reach_total(col_ptr, col_ind, dead, hopeless)
    if reach is None:
        raise RuntimeError("PFP: a start priced as hopeless reaches an unmatched row")
    return augmentations, lookahead_hits, edges + reach, failed_edges + reach


def pothen_fan_matching(graph: BipartiteGraph, initial: Matching | None = None) -> MatchingResult:
    """Maximum cardinality matching with the Pothen–Fan algorithm (with lookahead)."""
    t0 = time.perf_counter()
    if initial is None:
        matching = cheap_matching(graph).matching
    else:
        matching = initial.copy().canonical()
    row_match = matching.row_match.tolist()
    col_match = matching.col_match.tolist()
    col_ptr, col_ind = graph.csr_lists("col")
    augmented, hits, edges, failed_edges = _pfp_phase(col_ptr, col_ind, row_match, col_match)
    counters = {
        "edges_scanned": edges, "phases": 1, "augmentations": augmented, "lookahead_hits": hits,
    }
    if augmented:
        # The second phase: every start that failed fails again, scanning
        # the same entries, and nothing augments.
        counters["phases"] = 2
        counters["edges_scanned"] += failed_edges

    wall = time.perf_counter() - t0
    result = Matching(
        np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64)
    )
    return MatchingResult.create(
        "PFP", result, counters=counters,
        modeled_time=CpuCostModel().seconds(counters["edges_scanned"]), wall_time=wall,
    )
