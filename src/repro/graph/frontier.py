"""Shared frontier operations for the CPU baselines and G-HKDW's
augmentation walk: vectorized where frontiers are wide, scalar where they
are not.

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
  diffs), :func:`sorted_unique` deduplicates a level, and on top of them
  :func:`alternating_level_bfs` (the Hopcroft–Karp level structure) and
  :func:`distance_label_bfs` (push-relabel global relabeling, Algorithm 2)
  assign levels and count scanned edges in bulk, and
  :func:`alternating_reach` counts the adjacency a full alternating BFS
  scans, which prices the PFP and P-DBFS searches that provably fail.
* **Scalar walks over lists or zero-copy memoryviews** for the traversals
  whose working set is one adjacency slice at a time (DFS descents, the
  per-push minimum scan, P-DBFS claim searches): :func:`claiming_bfs`,
  :func:`augmenting_dfs` and the algorithm-side loops index
  :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` instead of
  ndarrays, which removes the per-element boxing (~4× on the same loop
  body).  Per-vertex state that already lives in an ``int64`` array and is
  read by the next whole-array step is walked through a ``memoryview`` of
  that array instead: O(1) to make, cheaper per read than ndarray
  indexing, and writes land in the array itself, where a list would cost
  an O(vertices) ``tolist()`` and ``np.array()`` per call.
  :func:`augmenting_dfs` is the vertex-disjoint augmenting DFS of HK/HKDW
  (over lists) and of G-HKDW's augmentation kernels (over memoryviews).

Every function is bit-compatible with the historical per-edge loops: same
levels, same claim order, same matchings, same counter end-values
(``tests/test_frontier.py`` pins all of it against deque references and
golden values).

Counter convention
------------------
Work (``edges_scanned`` and friends) is accumulated in bulk — per frontier
(``+= len(frontier_edges)``) or per finished search — never by bumping a
Python dict entry inside a per-edge loop.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.compiled import dispatch as _compiled

__all__ = [
    "alternating_level_bfs",
    "alternating_reach",
    "augmenting_dfs",
    "claiming_bfs",
    "distance_label_bfs",
    "expand_frontier",
    "sorted_unique",
]

#: Mirrors :data:`repro.matching.UNMATCHED` (kept local: ``repro.matching``
#: imports the graph layer, not the other way around).
_UNMATCHED = -1

_INF = np.iinfo(np.int64).max

_EMPTY = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------- primitives
def expand_frontier(ptr: np.ndarray, ind: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """All out-edges of ``frontier``, flattened in scan order.

    Parameters
    ----------
    ptr, ind:
        A CSR structure (``col_ptr``/``col_ind`` or ``row_ptr``/``row_ind``).
    frontier:
        Vertex indices to expand, in processing order.

    Returns
    -------
    targets:
        One ``int64`` entry per scanned edge: ``targets[k]`` is the ``k``-th
        neighbour a deque BFS would scan.  The order is frontier-major,
        adjacency-minor — exactly the order a FIFO traversal visits edges.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    if len(frontier) == 0:
        return _EMPTY
    fn = _compiled.implementation_for("expand_frontier")
    if fn is not None and not _compiled.recording(ptr, ind, frontier):
        return fn(ptr, ind, frontier)
    starts = ptr[frontier]
    degrees = ptr[frontier + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY
    offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1] - starts, degrees)
    return ind[flat]


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
            rows = expand_frontier(col_ptr, col_ind, frontier)
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
        cols = expand_frontier(row_ptr, row_ind, frontier)
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


def alternating_reach(
    col_ptr: np.ndarray,
    col_ind: np.ndarray,
    row_match: np.ndarray,
    start: int,
    scalars: tuple[list[int], list[int], list[int]],
) -> int | None:
    """Adjacency entries a full alternating BFS from column ``start`` scans.

    The BFS enters ``start``, crosses its adjacency to the row side and
    follows every matched row to its partner column, until no new column
    turns up.  It returns the summed degree of the columns it entered, or
    ``None`` as soon as it reaches an unmatched row (an augmenting path
    exists, so no search from ``start`` fails).  This prices a search that
    provably cannot augment without walking it: a failed DFS or claiming
    BFS enters the same columns and scans each one's whole adjacency.

    ``scalars`` supplies ``(col_ptr, col_ind, row_match)`` as plain lists
    (or a memoryview for ``row_match``); levels up to
    :data:`SCALAR_FRONTIER_MAX` columns wide are walked over them, wider
    ones are gathered with :func:`expand_frontier` and :func:`sorted_unique`
    over the arrays.  On ``GL7d19``, whose hopeless trees span nearly the
    whole graph, the gathers make the reach about 5x faster than a scalar
    walk alone; on small trees the two cost the same (see
    ``docs/benchmarks.md``).
    """
    lptr, lind, lmatch = scalars
    seen = bytearray(len(lptr) - 1)
    marks = np.frombuffer(seen, dtype=np.uint8)
    seen[start] = 1
    frontier = [start]
    edges = 0
    while len(frontier):
        if len(frontier) <= SCALAR_FRONTIER_MAX:
            nxt: list[int] = []
            # hot-path
            for v in frontier:
                begin, stop = lptr[v], lptr[v + 1]
                edges += stop - begin
                for idx in range(begin, stop):
                    w = lmatch[lind[idx]]
                    if w < 0:
                        return None
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            # end hot-path
            frontier = nxt
        else:
            rows = expand_frontier(col_ptr, col_ind, frontier)
            edges += len(rows)
            mates = row_match[rows]
            if np.any(mates < 0):
                return None
            fresh = sorted_unique(mates[marks[mates] == 0])
            marks[fresh] = 1
            frontier = fresh.tolist() if len(fresh) <= SCALAR_FRONTIER_MAX else fresh
    return edges


def claiming_bfs(
    col_ptr: list[int],
    col_ind: list[int],
    start: int,
    row_match: list[int],
    owner: list[int],
    thread_id: int,
) -> tuple[list[int] | None, float, int]:
    """P-DBFS vertex-disjoint search from unmatched column ``start``.

    The scalar member of the frontier layer: a P-DBFS round search is
    *single*-source and usually terminates within a few claims (the
    cleanup sweep, whose searches would walk whole trees, is priced with
    :func:`alternating_reach` instead), so its frontiers stay far below
    the ~64-element break-even of whole-array gathers — this walk
    therefore runs over the cached
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


def augmenting_dfs(
    col_ptr: list[int],
    col_ind: list[int],
    roots: list[int],
    level,
    row_match,
    col_match,
    row_used: bytearray,
    restrict_levels: bool,
) -> tuple[int, list[int]]:
    """One round of vertex-disjoint augmenting DFS from the columns ``roots``.

    The scalar walk shared by HK/HKDW and G-HKDW's augmentation kernels.
    Each root runs an iterative DFS (explicit stack, so long paths hit no
    recursion limit) over the cached
    :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` views, claiming
    every row it passes in ``row_used``; claims persist across roots, so the
    paths found are vertex-disjoint.  A search stops at the first unclaimed
    unmatched row and flips the path in place.  With ``restrict_levels`` a
    matched row is followed only into the column one ``level`` deeper (HK's
    shortest-path round), otherwise into any column of finite level (the
    Duff–Wassel round).  The two rounds scan in separate loops and the
    level comparand is hoisted per stack frame, so a scanned edge pays no
    mode test.

    ``level``, ``row_match`` and ``col_match`` may be plain lists, zero-copy
    ``memoryview``s of ``int64`` arrays (writes land in the arrays
    themselves) or the ndarrays, e.g. the sanitizer's recording arrays,
    which log every access.  Every root needs a finite level.  Returns
    ``(augmentations, per_root_edges)``, the adjacency entries each root's
    search scanned, in ``roots`` order.
    """
    unmatched = _UNMATCHED
    inf = _INF
    augmented = 0
    per_root: list[int] = []
    # hot-path
    for start in roots:
        edges = 0
        # Stack of (column, next neighbour offset); path_rows[i] is the row
        # taken out of stack[i].
        stack: list[list[int]] = [[start, col_ptr[start]]]
        path_rows: list[int] = []
        while stack:
            v, idx = stack[-1]
            stop = col_ptr[v + 1]
            advanced = False
            done = False
            if restrict_levels:
                want = level[v] + 1
                while idx < stop:
                    u = col_ind[idx]
                    idx += 1
                    edges += 1
                    if row_used[u]:
                        continue
                    w = row_match[u]
                    if w != unmatched:
                        if level[w] != want:
                            continue
                        row_used[u] = True
                        stack[-1][1] = idx
                        path_rows.append(u)
                        stack.append([w, col_ptr[w]])
                        advanced = True
                        break
                    row_used[u] = True
                    done = True
                    break
            else:
                while idx < stop:
                    u = col_ind[idx]
                    idx += 1
                    edges += 1
                    if row_used[u]:
                        continue
                    w = row_match[u]
                    if w != unmatched:
                        if level[w] == inf:
                            continue
                        row_used[u] = True
                        stack[-1][1] = idx
                        path_rows.append(u)
                        stack.append([w, col_ptr[w]])
                        advanced = True
                        break
                    row_used[u] = True
                    done = True
                    break
            if advanced:
                continue
            if done:
                # Augment along the stack.
                row_match[u] = v
                col_match[v] = u
                for depth in range(len(stack) - 2, -1, -1):
                    prev_col = stack[depth][0]
                    prev_row = path_rows[depth]
                    row_match[prev_row] = prev_col
                    col_match[prev_col] = prev_row
                augmented += 1
                break
            stack[-1][1] = idx
            if idx >= stop:
                stack.pop()
                if path_rows:
                    path_rows.pop()
        per_root.append(edges)
    # end hot-path
    return augmented, per_root
