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

A search that fails leaves a closed alternating tree: every row in it is
matched to a column in it.  No later augmenting path enters the tree, so
its matching, and the reach of each of its columns, never change again,
and every one of its columns has its lookahead pointer at its end (each
lookahead ran out without a free row).  A later search that meets one of
the tree's rows would walk into the tree and back out with nothing: it
scans no lookahead entry there, the full degree of each tree column it
reaches in the descent, and augments nowhere.  So the descent records the
row's mate in the search's *group*, marks the row visited and scans on
instead of entering it; every such detour is priced at the phase end,
exactly, as the summed degree of the union of the group's reaches.

The visited marks reset per search (``round_id`` advances per start, not
per phase), so a start that fails has no augmenting path at all, and a
second phase would find every column still unmatched among the first
phase's failed starts and fail them again over the same entries.  The solve
therefore runs one phase and, when that phase augmented, charges the second
phase's failed searches instead of walking them: every solve that augments
reports ``phases: 2``.  A start whose every neighbour row lies in a failed
tree must fail too; it is charged its lookahead remainder at once and
becomes a one-column group.  One call to
:func:`~repro.graph.frontier.alternating_reach_total` prices every group
of the phase, with weight 2 on the failed and hopeless ones when the phase
augmented (the second phase's walk of the same detours); the failed
searches' own trees add their degree sum to the second phase.

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
) -> tuple[int, int, int]:
    """PFP's one phase: a lookahead DFS from every currently unmatched column.

    A failed start's tree rows are recorded in ``dead`` (row -> its mate,
    ``-1`` for rows outside every failed tree).  A search records the mates
    of the dead rows it meets instead of entering them, and a start that
    provably fails is recorded instead of walked; all of it is priced in one
    call at the phase end (see the module docstring).

    Returns ``(augmentations, lookahead_hits, edges_scanned)``, the last
    including the second phase's rescan when this one augmented.
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
    rescan = 0  # what the failed searches' own trees cost a second phase
    entries: list[int] = []  # the priced groups' columns, group after group
    groups = [0]
    failed: list[bool] = []  # per group: its search fails again in a second phase
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
                entries.append(start)
                groups.append(len(entries))
                failed.append(True)
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
                w = dead[u]
                if w >= 0:
                    # A failed tree's row: the detour through it fails,
                    # priced at the phase end instead of walked.
                    entries.append(w)
                    continue
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
            rescan += sum(col_ptr[c + 1] - col_ptr[c] for c in tree)
            for c in tree[1:]:
                dead[col_match[c]] = c
        if groups[-1] < len(entries):
            groups.append(len(entries))
            failed.append(not stack)  # the stack empties only when the search fails
    # end hot-path
    weights = None
    if augmentations:
        # A second phase walks every failed search again and augments nothing.
        edges += rescan
        weights = [1 + again for again in failed]
    reach = alternating_reach_total(col_ptr, col_ind, dead, entries, groups=groups, weights=weights)
    if reach is None:
        raise RuntimeError("PFP: a detour priced as failing reaches an unmatched row")
    return augmentations, lookahead_hits, edges + reach


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
    augmented, hits, edges = _pfp_phase(col_ptr, col_ind, row_match, col_match)
    counters = {
        "edges_scanned": edges, "phases": 2 if augmented else 1, "augmentations": augmented,
        "lookahead_hits": hits,
    }

    wall = time.perf_counter() - t0
    result = Matching(
        np.array(row_match, dtype=np.int64), np.array(col_match, dtype=np.int64)
    )
    return MatchingResult.create(
        "PFP", result, counters=counters,
        modeled_time=CpuCostModel().seconds(counters["edges_scanned"]), wall_time=wall,
    )
