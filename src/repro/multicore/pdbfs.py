"""P-DBFS: the multicore disjoint-BFS matching baseline.

The paper compares against the best multicore algorithm of Azad et al.,
``P-DBFS``, which assigns unmatched columns to OpenMP threads; each thread
grows a BFS that claims vertices atomically so the concurrent searches stay
vertex-disjoint, and augments as soon as its BFS reaches an unmatched row.
Rounds repeat until no augmenting path remains.

We execute the same decomposition on a simulated ``n_threads``-core machine:
within a round the threads are interleaved deterministically (claims made by
one simulated thread block the others — a legal schedule of the atomic
claiming), per-thread work is recorded, and the
:class:`~repro.gpusim.costmodel.MulticoreCostModel` converts each round's
work profile (critical path, total work, number of atomics) into modelled
seconds.  A round that finds no augmentation is followed by a sequential
sweep, mirroring the serial cleanup phase of the original code.

Closed regions
--------------
A thread passes its own claims, so within a round it would walk the tree of
each of its failed searches again for every later search that meets it.
Take a search by thread ``t`` that fails.  Every row next to a column it
entered was claimed by it or is owned by another thread.  Claims are never
released within a round and only ``t`` passes ``t``'s rows, so no augmenting
path crosses the search's *region* (its columns and claimed rows): its rows
keep their mates until the round ends, and claiming them again leaves
``owner`` unchanged.  A later search of ``t`` that meets one of those rows
would enter exactly the columns reachable from the row's mate through
``t``'s closed rows, scan each one's full degree, claim each one's mate row
once and find no free row; no closed column leads out, so the rest of the
search walks in the same FIFO order.

:func:`~repro.graph.frontier.claiming_bfs` therefore closes a failed search
that scanned at least :data:`~repro.graph.frontier.CLOSING_ENTRIES`
entries (tagging its rows ``-2 - t``), and a later search of ``t`` records
each closed row it meets and scans on.  A successful search charges the part
of its detours the walk would have scanned before it reached its free row.
A failed one is priced at the round end: one
:func:`~repro.graph.frontier.alternating_reach_total` call per thread
condenses the reaches of the thread's recorded rows through its closed rows
(every other row a wall) and charges each search the summed degree of the
union of its rows' reaches to ``t``'s work and the union's column count to
the round's atomics.  A region's reach is fixed once it closes, so pricing
at the round end is exact, and counters and modelled seconds equal the walk's.

The sweep
---------
The round before the sweep has already proved the matching maximum.  A
column with no augmenting path has a closed alternating tree: every row in
it is matched to a column in it, so no augmenting path from another column
enters it.  Until a round first augments, a search from such a column
claims only rows of its tree, so the round's first search from a column
that has an augmenting path meets no claim on that path and reaches a free
row.  Every search of the sweep therefore fails.  Each is charged the
claim-free BFS it would walk (one plus the summed degree of the columns it
reaches) instead of walking it:
:func:`~repro.graph.frontier.alternating_reach_total` sums those degrees
over the sweep's columns in one pass over their trees, and a reach that
meets a free row raises ``RuntimeError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import WALL, alternating_reach_total, claiming_bfs
from repro.graph.validate import check_int
from repro.gpusim.costmodel import MulticoreCostModel
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["PDBFSConfig", "pdbfs_matching"]


@dataclass(frozen=True)
class PDBFSConfig:
    """Configuration of the P-DBFS run (defaults follow the paper: 8 threads)."""

    n_threads: int = 8

    def __post_init__(self) -> None:
        check_int("n_threads", self.n_threads, 1)


def _augment(path: list[int], mu_row: list[int], mu_col: list[int]) -> None:
    """Apply an augmenting path given as ``[col, row, col, row, ..., row]``."""
    for i in range(0, len(path) - 1, 2):
        v, u = path[i], path[i + 1]
        mu_col[v] = u
        mu_row[u] = v


def _price_detours(col_ptr, col_ind, mu_row, region, searches) -> tuple[int, int]:
    """``(entries, claims)`` of one thread's failed searches' detours into
    its closed ``region``, each search's recorded rows as one group; every
    row outside the region is a wall."""
    mates = [WALL] * len(mu_row)
    for u in region:
        mates[u] = mu_row[u]
    starts: list[int] = []
    groups = [0]
    for records in searches:
        starts.extend(mates[u] for u, _ in records)
        groups.append(len(starts))
    priced = alternating_reach_total(col_ptr, col_ind, mates, starts, groups=groups,
                                     columns=True)
    if priced is None:
        raise RuntimeError("P-DBFS: a detour priced as failing reaches an unmatched row")
    return priced


def pdbfs_matching(
    graph: BipartiteGraph,
    initial: Matching | None = None,
    config: PDBFSConfig | None = None,
) -> MatchingResult:
    """Maximum cardinality matching with the multicore P-DBFS baseline.

    The returned ``modeled_time`` is the multicore cost-model time of all
    rounds (including the sequential cleanup sweeps).
    """
    config = config or PDBFSConfig()
    model = MulticoreCostModel(n_threads=config.n_threads)
    t0 = time.perf_counter()
    if initial is None:
        initial = cheap_matching(graph).matching
    else:
        initial = initial.copy().canonical()
    # All searches are scalar claim walks (frontier-layer split, see
    # repro.graph.frontier.claiming_bfs), so the matching and ownership
    # state lives in plain Python lists for the duration of the run.
    mu_row = initial.row_match.tolist()
    mu_col = initial.col_match.tolist()
    col_ptr, col_ind = graph.csr_lists("col")
    n_cols = graph.n_cols

    counters = {
        "rounds": 0,
        "sequential_sweeps": 0,
        "augmentations": 0,
        "edges_scanned": 0.0,
        "atomics": 0,
        "initial_matching": sum(1 for u in mu_row if u >= 0),
    }
    modeled = 0.0

    while True:
        unmatched = [v for v in range(n_cols) if mu_col[v] == UNMATCHED]
        if len(unmatched) == 0:
            break
        counters["rounds"] += 1
        owner = [-1] * graph.n_rows
        thread_work = [0.0] * config.n_threads
        round_atomics = 0
        augmented = 0
        # Per thread: the rows its failed searches closed, and the records of
        # each failed search that met closed rows, priced at the round end.
        regions: list[list[int]] = [[] for _ in range(config.n_threads)]
        failed: list[list[list[tuple[int, int]]]] = [[] for _ in range(config.n_threads)]
        # Unmatched columns are dealt to the threads round-robin; the simulated
        # threads run interleaved by taking one column each in turn.
        for batch_start in range(0, len(unmatched), config.n_threads):
            batch = unmatched[batch_start : batch_start + config.n_threads]
            for thread_id, v in enumerate(batch):
                if mu_col[v] != UNMATCHED:
                    continue
                records: list[tuple[int, int]] = []
                path, work, atomics = claiming_bfs(
                    col_ptr, col_ind, v, mu_row, owner, thread_id, records, regions[thread_id]
                )
                thread_work[thread_id] += work
                round_atomics += atomics
                if path is not None:
                    _augment(path, mu_row, mu_col)
                    augmented += 1
                elif records:
                    failed[thread_id].append(records)
        for thread_id, searches in enumerate(failed):
            if searches:
                entries, claims = _price_detours(
                    col_ptr, col_ind, mu_row, regions[thread_id], searches
                )
                thread_work[thread_id] += entries
                round_atomics += claims
        round_work = sum(thread_work)
        counters["edges_scanned"] += round_work
        counters["atomics"] += round_atomics
        counters["augmentations"] += augmented
        modeled += model.round_seconds(
            total_ops=round_work,
            max_thread_ops=max(thread_work),
            atomics=float(round_atomics),
        )
        if augmented == 0:
            # The round proved the matching maximum (module docstring), so
            # the sequential sweep's searches all fail; each is charged the
            # alternating tree its claim-free BFS would walk.
            counters["sequential_sweeps"] += 1
            reach = alternating_reach_total(col_ptr, col_ind, mu_row, unmatched)
            if reach is None:
                column = next(v for v in unmatched
                              if alternating_reach_total(col_ptr, col_ind, mu_row, [v]) is None)
                raise RuntimeError(
                    f"P-DBFS on graph {graph.name!r}: column {column} has an augmenting "
                    "path after a round that augmented nothing"
                )
            sweep_work = float(len(unmatched) + reach)
            counters["edges_scanned"] += sweep_work
            modeled += model.round_seconds(
                total_ops=sweep_work, max_thread_ops=sweep_work, atomics=0.0
            )
            break

    wall = time.perf_counter() - t0
    matching = Matching(np.array(mu_row, dtype=np.int64), np.array(mu_col, dtype=np.int64))
    return MatchingResult.create(
        "P-DBFS",
        matching,
        counters=counters,
        modeled_time=modeled,
        wall_time=wall,
    )
