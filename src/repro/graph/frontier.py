"""Shared frontier operations for the CPU baselines: vectorized where
frontiers are wide, scalar-on-lists where they are not.

The sequential and multicore baselines (HK/HKDW, PR, PFP, P-DBFS, the cheap
greedy initialisation and the dynamic incremental matcher) all walk the same
dual-CSR structure.  Before this module existed every one of them popped one
vertex at a time from a ``deque`` and crossed the NumPy scalar-boxing
boundary once per *edge* (``int(col_ind[idx])``, ``row_match[u]``, a dict
counter increment) — a ~170 ns/edge interpreter tax on the exact loops the
paper times.

Two granularities replace that, chosen by how wide the frontier actually is
(whole-array NumPy only wins past ~64 elements; see ``docs/benchmarks.md``
for the measurement):

* **Whole-frontier array ops** for the level-synchronous traversals, whose
  frontiers hold hundreds of vertices: :func:`expand_frontier` gathers every
  out-edge of a frontier in one shot (``np.repeat`` on the CSR pointer
  diffs), :func:`first_occurrence_mask` deduplicates while preserving scan
  order (:func:`sorted_unique` where ascending order will do), and on top of
  them :func:`multi_source_bfs` (plain BFS),
  :func:`alternating_level_bfs` (the Hopcroft–Karp level structure) and
  :func:`distance_label_bfs` (push-relabel global relabeling, Algorithm 2)
  assign levels and count scanned edges in bulk.
* **Scalar walks over plain Python lists** for the traversals whose working
  set is one adjacency slice at a time (DFS descents, the per-push minimum
  scan, P-DBFS claim searches): :func:`claiming_bfs` and the algorithm-side
  loops index :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists`
  instead of ndarrays, which removes the per-element boxing (~4× on the
  same loop body).

:func:`reference_bfs` is the deque twin of :func:`multi_source_bfs`, kept
(not deprecated) as the executable specification the property tests compare
against.  :func:`first_true` / :func:`first_free_offset` are the vectorized
"first unmatched / first admissible neighbour" selectors for the callers
that do hold an ndarray burst.

Every function is bit-compatible with the historical per-edge loops: same
levels, same parents, same matchings, same counter end-values
(``tests/test_frontier.py`` pins all of it, golden values included).

Counter convention
------------------
Work (``edges_scanned`` and friends) is accumulated in bulk — per frontier
(``+= len(frontier_edges)``) or per finished search — never by bumping a
Python dict entry inside a per-edge loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.compiled import dispatch as _compiled

__all__ = [
    "BFSResult",
    "alternating_level_bfs",
    "claiming_bfs",
    "distance_label_bfs",
    "expand_frontier",
    "first_free_offset",
    "first_occurrence_mask",
    "first_true",
    "multi_source_bfs",
    "reference_bfs",
    "sorted_unique",
]

#: Mirrors :data:`repro.matching.UNMATCHED` (kept local: ``repro.matching``
#: imports the graph layer, not the other way around).
_UNMATCHED = -1

_INF = np.iinfo(np.int64).max

_EMPTY = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------- primitives
def expand_frontier(ptr: np.ndarray, ind: np.ndarray, frontier: np.ndarray):
    """All out-edges of ``frontier``, flattened in scan order.

    Parameters
    ----------
    ptr, ind:
        A CSR structure (``col_ptr``/``col_ind`` or ``row_ptr``/``row_ind``).
    frontier:
        Vertex indices to expand, in processing order.

    Returns
    -------
    (targets, origins):
        Parallel ``int64`` arrays with one entry per scanned edge:
        ``targets[k]`` is the ``k``-th neighbour a deque BFS would scan and
        ``origins[k]`` the frontier vertex it was scanned from.  The order is
        frontier-major, adjacency-minor — exactly the order a FIFO traversal
        visits edges, which the dedup helpers below rely on.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    if len(frontier) == 0:
        return _EMPTY, _EMPTY
    fn = _compiled.implementation_for("expand_frontier")
    if fn is not None and not _compiled.recording(ptr, ind, frontier):
        return fn(ptr, ind, frontier)
    starts = ptr[frontier]
    degrees = ptr[frontier + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1] - starts, degrees)
    return ind[flat], np.repeat(frontier, degrees)


def first_occurrence_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the *first* occurrence of each value, in order.

    ``values[first_occurrence_mask(values)]`` deduplicates while preserving
    scan order — the vectorized equivalent of a ``seen``-set guard inside a
    per-edge loop.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=bool)
    fn = _compiled.implementation_for("first_occurrence_mask")
    if (
        fn is not None
        and isinstance(values, np.ndarray)
        and values.dtype == np.int64
        and not _compiled.recording(values)
    ):
        return fn(values)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    lead = np.empty(n, dtype=bool)
    lead[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=lead[1:])
    mask = np.zeros(n, dtype=bool)
    mask[order[lead]] = True
    return mask


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D integer array, ascending.

    The same array as plain ``np.unique(values)``, computed by sorting and
    keeping the head of every run of equal values.  NumPy 2 sends plain
    integer ``np.unique`` through a hash table, which costs several times
    more from a few hundred ids up (see ``docs/benchmarks.md``).  A mark
    array would be cheaper still, but costs O(vertices) per level; this
    keeps a level's dedup at O(frontier log frontier).
    """
    ranked = np.sort(values)
    lead = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=lead[1:])
    return ranked[lead]


def first_true(mask: np.ndarray) -> int:
    """Offset of the first ``True`` in a boolean array, or ``-1``."""
    if not mask.size:
        return -1
    k = int(np.argmax(mask))
    return k if mask[k] else -1


def first_free_offset(targets: np.ndarray, partner_match: np.ndarray) -> int:
    """Offset of the first unmatched vertex in ``targets``, or ``-1``.

    The vectorized "first unmatched neighbour" selection over an adjacency
    burst — one ``argmax`` instead of a per-edge loop.
    """
    if not targets.size:
        return -1
    return first_true(partner_match[targets] == _UNMATCHED)


# ----------------------------------------------------------- plain multi-BFS
@dataclass(frozen=True)
class BFSResult:
    """Levels and parents of a (multi-source) bipartite BFS.

    ``row_parent[u]`` is the column that first discovered row ``u`` (``-1``
    when undiscovered or a source); ``col_parent`` mirrors it.  Levels count
    hops from the nearest source (``row_level``/``col_level``; unreached
    vertices keep ``numpy.iinfo(int64).max``).  ``edges_scanned`` is the
    total adjacency entries a deque BFS would have touched.
    """

    row_level: np.ndarray
    col_level: np.ndarray
    row_parent: np.ndarray
    col_parent: np.ndarray
    edges_scanned: int


def _bfs_state(graph):
    row_level = np.full(graph.n_rows, _INF, dtype=np.int64)
    col_level = np.full(graph.n_cols, _INF, dtype=np.int64)
    row_parent = np.full(graph.n_rows, -1, dtype=np.int64)
    col_parent = np.full(graph.n_cols, -1, dtype=np.int64)
    return row_level, col_level, row_parent, col_parent


def _check_sources(sources: np.ndarray, bound: int, side: str) -> np.ndarray:
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= bound):
        raise IndexError(f"BFS {side} sources out of range [0, {bound})")
    return sources


def multi_source_bfs(graph, sources, side: str = "col") -> BFSResult:
    """Level-synchronous multi-source BFS over the bipartite graph.

    Starts from ``sources`` on ``side`` (``"col"`` or ``"row"``) and explores
    structural adjacency in both directions, one whole frontier per step: the
    frontier's out-edges are gathered with :func:`expand_frontier`, already
    visited targets are masked out, and :func:`first_occurrence_mask` picks
    each new vertex's parent — the same parent a FIFO/deque BFS assigns,
    which :func:`reference_bfs` (the kept executable specification) asserts.

    An empty ``sources`` array is valid and returns an all-unreached result.
    """
    if side not in ("col", "row"):
        raise ValueError(f"side must be 'col' or 'row', not {side!r}")
    bound = graph.n_cols if side == "col" else graph.n_rows
    frontier = _check_sources(sources, bound, side)
    fn = _compiled.implementation_for("multi_source_bfs")
    if fn is not None and not _compiled.recording(
        graph.col_ptr, graph.col_ind, graph.row_ptr, graph.row_ind, frontier
    ):
        # The twin dedups the sources internally (level-0 check) and uses
        # the same first-encounter parent rule as the vectorized path.
        if side == "col":
            col_level, row_level, col_parent, row_parent, edges = fn(
                graph.col_ptr, graph.col_ind, graph.row_ptr, graph.row_ind,
                frontier, graph.n_cols, graph.n_rows,
            )
        else:
            row_level, col_level, row_parent, col_parent, edges = fn(
                graph.row_ptr, graph.row_ind, graph.col_ptr, graph.col_ind,
                frontier, graph.n_rows, graph.n_cols,
            )
        return BFSResult(row_level, col_level, row_parent, col_parent, int(edges))
    row_level, col_level, row_parent, col_parent = _bfs_state(graph)
    structures = {
        "col": (graph.col_ptr, graph.col_ind, col_level, row_level, row_parent),
        "row": (graph.row_ptr, graph.row_ind, row_level, col_level, col_parent),
    }
    # Dedupe the sources in scan order — the deque reference enqueues only
    # the first occurrence (its level check guards re-enqueueing), so a
    # duplicated source must not be expanded twice here either.
    frontier = frontier[first_occurrence_mask(frontier)]
    structures[side][2][frontier] = 0
    edges = 0
    depth = 0
    while len(frontier):
        ptr, ind, _, target_level, target_parent = structures[side]
        targets, origins = expand_frontier(ptr, ind, frontier)
        edges += len(targets)
        new = target_level[targets] == _INF
        keep = new & first_occurrence_mask(targets)
        fresh = targets[keep]
        target_level[fresh] = depth + 1
        target_parent[fresh] = origins[keep]
        frontier = fresh
        side = "row" if side == "col" else "col"
        depth += 1
    return BFSResult(row_level, col_level, row_parent, col_parent, int(edges))


def reference_bfs(graph, sources, side: str = "col") -> BFSResult:
    """Deque reference for :func:`multi_source_bfs` (kept as the executable
    specification; the property suite compares the two bit-for-bit)."""
    if side not in ("col", "row"):
        raise ValueError(f"side must be 'col' or 'row', not {side!r}")
    row_level, col_level, row_parent, col_parent = _bfs_state(graph)
    level = {"col": col_level, "row": row_level}
    parent = {"col": col_parent, "row": row_parent}
    bound = graph.n_cols if side == "col" else graph.n_rows
    sources = _check_sources(sources, bound, side)
    queue: deque[tuple[str, int]] = deque()
    for v in sources:
        if level[side][v] == _INF:
            level[side][v] = 0
            queue.append((side, int(v)))
    edges = 0
    while queue:
        at, v = queue.popleft()
        neighbors = graph.column_neighbors(v) if at == "col" else graph.row_neighbors(v)
        other = "row" if at == "col" else "col"
        for u in neighbors:
            edges += 1
            u = int(u)
            if level[other][u] == _INF:
                level[other][u] = level[at][v] + 1
                parent[other][u] = v
                queue.append((other, u))
    return BFSResult(row_level, col_level, row_parent, col_parent, edges)


# ----------------------------------------------------- matching-aware BFS'es
#: Below this frontier width the level-synchronous BFS variants expand the
#: level with a scalar walk instead of whole-array gathers — array ops only
#: amortise their per-call overhead past a few dozen elements (see the
#: measurement in docs/benchmarks.md).  Results are identical either way.
SCALAR_FRONTIER_MAX = 32


def alternating_level_bfs(
    col_ptr: np.ndarray,
    col_ind: np.ndarray,
    row_match: np.ndarray,
    col_match: np.ndarray,
    scalars: tuple[list[int], list[int], list[int]] | None = None,
) -> tuple[np.ndarray, int, int]:
    """Hopcroft–Karp level structure from all unmatched columns, vectorized.

    One BFS step is the *alternating-level expansion*: a whole column
    frontier crosses its adjacency to the row side, and matched rows contract
    to their partner columns (level ``d + 1``).  Reaching any unmatched row
    fixes the shortest augmenting length; the level being completed still
    labels its discoveries (a deque BFS also finishes the level — enqueued
    columns at the cut-off level are skipped unscanned).

    When ``scalars`` supplies ``(col_ptr, col_ind, row_match)`` as plain
    lists, levels narrower than :data:`SCALAR_FRONTIER_MAX` are expanded
    with a scalar walk over them instead — BFS frontiers shrink toward the
    tail of a phase, and below that width the array gathers cost more than
    they save.  Levels, shortest length and edge totals are identical on
    both paths.

    Returns ``(col_level, shortest, edges_scanned)`` with ``shortest`` in
    column levels (``numpy.iinfo(int64).max`` when no augmenting path
    exists) — exactly the values the historical per-edge loop produced.
    """
    fn = _compiled.implementation_for("alternating_level_bfs")
    if fn is not None and not _compiled.recording(col_ptr, col_ind, row_match, col_match):
        # The twin is scalar end to end, so the ``scalars`` views (the
        # narrow-frontier fallback of the NumPy path) are not needed.
        level, shortest, edges = fn(col_ptr, col_ind, row_match, col_match)
        return level, int(shortest), int(edges)
    n_cols = len(col_ptr) - 1
    level = np.full(n_cols, _INF, dtype=np.int64)
    frontier = np.flatnonzero(col_match == _UNMATCHED)
    level[frontier] = 0
    shortest = _INF
    edges = 0
    depth = 0
    while len(frontier):
        if scalars is not None and len(frontier) <= SCALAR_FRONTIER_MAX:
            lptr, lind, lmatch = scalars
            hit = False
            nxt: list[int] = []
            # hot-path compiled=alternating_level_bfs
            for v in frontier.tolist():
                begin, stop = lptr[v], lptr[v + 1]
                edges += stop - begin
                for idx in range(begin, stop):
                    w = lmatch[lind[idx]]
                    if w < 0:
                        hit = True
                    elif level[w] == _INF:
                        level[w] = depth + 1
                        nxt.append(w)
            # end hot-path
            if hit:
                shortest = depth + 1
            next_cols = np.array(nxt, dtype=np.int64)
        else:
            rows, _ = expand_frontier(col_ptr, col_ind, frontier)
            edges += len(rows)
            mates = row_match[rows]
            if np.any(mates == _UNMATCHED):
                shortest = depth + 1
            next_cols = mates[mates >= 0]
            next_cols = next_cols[level[next_cols] == _INF]
            next_cols = sorted_unique(next_cols)
            level[next_cols] = depth + 1
        depth += 1
        if depth >= shortest:
            break
        frontier = next_cols
    return level, int(shortest), int(edges)


def distance_label_bfs(
    row_ptr: np.ndarray,
    row_ind: np.ndarray,
    row_match: np.ndarray,
    col_match: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    infinity: int,
) -> tuple[int, int]:
    """Global relabeling (Algorithm 2) as a vectorized level-synchronous BFS.

    Resets ``psi_row``/``psi_col`` in place to the exact alternating-path
    distances from the unmatched rows: a whole row frontier crosses its
    adjacency (columns get ``level + 1``), and consistently matched columns
    contract to their partner rows (``level + 2``).

    Returns ``(max_level, edges_scanned)`` — the paper's ``maxLevel`` and
    the adjacency entries a deque BFS would have scanned.
    """
    fn = _compiled.implementation_for("distance_label_bfs")
    if fn is not None and not _compiled.recording(
        row_ptr, row_ind, row_match, col_match, psi_row, psi_col
    ):
        max_level, edges = fn(row_ptr, row_ind, row_match, col_match, psi_row, psi_col, infinity)
        return int(max_level), int(edges)
    psi_row.fill(infinity)
    psi_col.fill(infinity)
    frontier = np.flatnonzero(row_match == _UNMATCHED)
    psi_row[frontier] = 0
    max_level = 0
    edges = 0
    level = 0
    while len(frontier):
        cols, _ = expand_frontier(row_ptr, row_ind, frontier)
        edges += len(cols)
        fresh = cols[psi_col[cols] == infinity]
        if len(fresh) == 0:
            break
        fresh = sorted_unique(fresh)
        psi_col[fresh] = level + 1
        mates = col_match[fresh]
        mates = mates[mates >= 0]
        mates = mates[psi_row[mates] == infinity]
        if len(mates) == 0:
            break
        psi_row[mates] = level + 2
        max_level = level + 2
        frontier = mates
        level += 2
    return int(max_level), int(edges)


def claiming_bfs(
    col_ptr: list[int],
    col_ind: list[int],
    start: int,
    row_match: list[int],
    owner: list[int],
    thread_id: int,
) -> tuple[list[int] | None, float, int]:
    """P-DBFS vertex-disjoint search from unmatched column ``start``.

    The scalar member of the frontier layer: a P-DBFS thread search is
    *single*-source and usually terminates within a few claims, so its
    frontiers stay far below the ~64-element break-even of whole-array
    gathers — this walk therefore runs over the cached
    :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` views (plain
    list indexing, no per-element ndarray boxing) and keeps the claim
    bookkeeping of Azad et al. exactly: rows owned by another thread are
    skipped, the first claimable occurrence of a row costs one atomic
    (claims persist in ``owner`` and block the other simulated threads),
    and the search stops at the first claimed row that is unmatched — rows
    after that edge in scan order stay unclaimed.

    All parameters are Python lists (``owner`` is mutated in place).
    Returns ``(path, work, atomics)`` with ``path`` alternating
    ``[col, row, ..., row]`` or ``None``, and ``work`` the scanned adjacency
    entries plus the constant the reference implementation charged.
    """
    parent_col: dict[int, int] = {start: -1}
    parent_row: dict[int, int] = {}
    queue: deque[int] = deque([start])
    work = 0
    atomics = 0
    # hot-path
    while queue:
        v = queue.popleft()
        begin, stop = col_ptr[v], col_ptr[v + 1]
        work += stop - begin
        for idx in range(begin, stop):
            u = col_ind[idx]
            own = owner[u]
            if own != -1 and own != thread_id:
                continue  # claimed by another thread's BFS
            if u in parent_row:
                continue
            atomics += 1  # compare-and-swap claiming the row
            owner[u] = thread_id
            parent_row[u] = v
            w = row_match[u]
            if w == _UNMATCHED:
                # Early exit mid-scan: edges after this one stay unscanned
                # and rows after it unclaimed.
                work -= stop - idx - 1
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
                return path, 1.0 + work, atomics
            if w not in parent_col:
                parent_col[w] = u
                queue.append(w)
    # end hot-path
    return None, 1.0 + work, atomics
