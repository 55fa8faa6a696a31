"""Shared frontier operations for the CPU baselines and the GPU solvers'
BFS levels: vectorized where frontiers are wide, scalar where they are not.

The sequential and multicore baselines (HK/HKDW, PR, PFP, P-DBFS, the cheap
greedy initialisation and the dynamic incremental matcher) all walk the same
dual-CSR structure.  Before this module existed every one of them popped one
vertex at a time from a ``deque`` and crossed the NumPy scalar-boxing
boundary once per *edge* (``int(col_ind[idx])``, ``row_match[u]``, a dict
counter increment) — a ~170 ns/edge interpreter tax on the exact loops the
paper times.

Two kinds of walk replace that:

* **Level steps.**  Every level-synchronous BFS runs one of two steps per
  level: :func:`column_step` (frontier columns → rows → mates) under
  Hopcroft–Karp's :func:`alternating_level_bfs` and G-HKDW's BFS launches,
  and :func:`row_step` (frontier rows → columns → consistently matched
  rows) under push-relabel's :func:`distance_label_bfs` (Algorithm 2) and
  G-GR's launches (Algorithm 5).  A step walks a frontier narrower than
  :data:`NARROW_WIDTH` as a scalar loop over lists or memoryviews and
  gathers a wider one with whole-array ops (``np.repeat`` on the CSR
  pointer diffs, :func:`sorted_unique` per level).  Both bodies do every
  read before the first write, so they are lockstep kernel bodies as well.
* **Scalar walks over lists or zero-copy memoryviews** for the traversals
  whose working set is one adjacency slice at a time (DFS descents, the
  per-push minimum scan, P-DBFS claim searches, the pricing of searches
  that provably fail): :func:`claiming_bfs`, :func:`augmenting_dfs`,
  :func:`alternating_reach_total` and the algorithm-side loops index
  :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` instead of
  ndarrays, which removes the per-element boxing (~4× on the same loop
  body).  Per-vertex state that already lives in an ``int64`` array and is
  read by the next whole-array step is walked through a ``memoryview`` of
  that array instead (:func:`scalar_views`): O(1) to make, cheaper per
  read than ndarray indexing, and writes land in the array itself, where a
  list would cost an O(vertices) ``tolist()`` and ``np.array()`` per call.
  :func:`augmenting_dfs` is the vertex-disjoint augmenting DFS of HK/HKDW
  (over lists), of the sharded reconcile, which runs HK's phase loop (over
  memoryviews of the sharded graph's column CSR), and of G-HKDW's
  augmentation kernels (over memoryviews).

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
    "alternating_reach_total",
    "augmenting_dfs",
    "claiming_bfs",
    "column_step",
    "distance_label_bfs",
    "row_step",
    "scalar_views",
    "sorted_unique",
]

#: Mirrors :data:`repro.matching.UNMATCHED` (kept local: ``repro.matching``
#: imports the graph layer, not the other way around).
_UNMATCHED = -1

_INF = np.iinfo(np.int64).max

_EMPTY = np.empty(0, dtype=np.int64)


#: Levels with fewer frontier vertices than this run as scalar loops over
#: lists or memoryviews; wider ones run NumPy gathers.  A scalar loop costs a
#: few hundred nanoseconds per vertex, a NumPy body tens of microseconds of
#: fixed overhead (measured crossovers: "The per-launch host path" in
#: ``docs/benchmarks.md``).  :mod:`repro.core.kernels` reads it at call time
#: for its push waves and list repairs too.  Both paths give identical results.
NARROW_WIDTH = 32


# ---------------------------------------------------------------- primitives
def scalar_views(recording: bool, *arrays):
    """What the scalar bodies index: zero-copy memoryviews of ``arrays``.

    Memoryviews read faster than ndarray scalars and write straight into the
    arrays the next whole-array step reads.  Under the race sanitizer
    (``recording``) the recording arrays are walked as they are, so every
    scalar access lands in its log.
    """
    return arrays if recording else tuple(map(memoryview, arrays))


def _gather(ptr: np.ndarray, ind: np.ndarray, frontier: np.ndarray):
    """``(targets, degrees)``: every out-edge of ``frontier`` in scan order,
    and each frontier vertex's degree."""
    starts = ptr[frontier]
    degrees = ptr[frontier + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY, degrees
    offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1] - starts, degrees)
    return ind[flat], degrees


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


# ------------------------------------------------------ level-synchronous BFS
def column_step(col_ptr, col_ind, row_match, level, frontier, depth: int, views):
    """One BFS level from the column side: frontier columns → rows → mates.

    The frontier columns (labelled ``depth``) scan their adjacency; every
    mate of a matched row met whose ``level`` is still ``int64`` max gets
    ``depth + 1``.  This is one level of Hopcroft–Karp's BFS
    (:func:`alternating_level_bfs`) and one G-HKDW BFS launch.  Every read
    happens before the first write, and each label is written once.

    ``views`` holds ``(col_ptr, col_ind, row_match, level)`` as lists or
    memoryviews (see :func:`scalar_views`); a frontier narrower than
    :data:`NARROW_WIDTH` is walked over them, a wider one gathered over the
    arrays.  Returns ``(next_cols, degrees, edges, hit)``: the newly
    labelled columns ascending (a list on the scalar path, an ``int64``
    array otherwise), each frontier column's degree, their sum, and whether
    an unmatched row was met.
    """
    if len(frontier) < NARROW_WIDTH:
        if isinstance(frontier, np.ndarray):
            frontier = frontier.tolist()
        return _column_step_scalar(*views, frontier, depth)
    rows, degrees = _gather(col_ptr, col_ind, np.asarray(frontier, dtype=np.int64))
    mates = row_match[rows]
    fresh = mates[mates >= 0]
    fresh = sorted_unique(fresh[level[fresh] == _INF])
    level[fresh] = depth + 1
    return fresh, degrees, len(rows), bool((mates == _UNMATCHED).any())


def _column_step_scalar(col_ptr, col_ind, row_match, level, frontier, depth):
    """:func:`column_step` for a narrow frontier."""
    # hot-path
    bounds = [(col_ptr[v], col_ptr[v + 1]) for v in frontier]
    degrees = [stop - begin for begin, stop in bounds]
    mates = {row_match[u] for begin, stop in bounds for u in col_ind[begin:stop]}
    fresh = [w for w in mates if w >= 0 and level[w] == _INF]
    for w in fresh:
        level[w] = depth + 1
    # end hot-path
    fresh.sort()
    return fresh, degrees, sum(degrees), _UNMATCHED in mates


def row_step(row_ptr, row_ind, row_match, col_match, psi_row, psi_col, frontier, level: int,
             infinity: int, views):
    """One BFS level from the row side: frontier rows → columns → their rows.

    The frontier rows (labelled ``level``) scan their adjacency; every column
    met whose ``psi_col`` is still ``infinity`` gets ``level + 1``, and the
    row it is consistently matched to (``µ(µ(c)) = c``) gets ``level + 2``
    if unlabelled.  This is one level of push-relabel's global relabeling
    (:func:`distance_label_bfs`) and one G-GR launch (Algorithm 5).  Every
    read happens before the first write, and each label is written once: a
    fused loop would re-read labels it wrote, a read-after-write the race
    sanitizer reports.

    ``views`` holds ``(row_ptr, row_ind, row_match, col_match, psi_row,
    psi_col)`` as lists or memoryviews, walked below :data:`NARROW_WIDTH`
    frontier rows.  Returns ``(next_rows, degrees, edges)``: the rows
    labelled ``level + 2`` ascending (a list on the scalar path, an ``int64``
    array otherwise), each frontier row's degree, and their sum.
    """
    if len(frontier) < NARROW_WIDTH:
        if isinstance(frontier, np.ndarray):
            frontier = frontier.tolist()
        return _row_step_scalar(*views, frontier, level, infinity)
    cols, degrees = _gather(row_ptr, row_ind, np.asarray(frontier, dtype=np.int64))
    fresh = sorted_unique(cols[psi_col[cols] == infinity])
    mates = col_match[fresh]
    matched = mates >= 0
    rows = mates[matched]
    rows = rows[(row_match[rows] == fresh[matched]) & (psi_row[rows] == infinity)]
    psi_col[fresh] = level + 1
    psi_row[rows] = level + 2
    rows.sort()
    return rows, degrees, len(cols)


def _row_step_scalar(row_ptr, row_ind, row_match, col_match, psi_row, psi_col, frontier,
                     level, infinity):
    """:func:`row_step` for a narrow frontier."""
    # hot-path
    bounds = [(row_ptr[u], row_ptr[u + 1]) for u in frontier]
    degrees = [stop - begin for begin, stop in bounds]
    neighbours = {c for begin, stop in bounds for c in row_ind[begin:stop]}
    cols = [c for c in neighbours if psi_col[c] == infinity]
    rows = [
        w for c in cols
        if (w := col_match[c]) >= 0 and row_match[w] == c and psi_row[w] == infinity
    ]
    for c in cols:
        psi_col[c] = level + 1
    for w in rows:
        psi_row[w] = level + 2
    # end hot-path
    rows.sort()
    return rows, degrees, sum(degrees)


def alternating_level_bfs(
    col_ptr: np.ndarray,
    col_ind: np.ndarray,
    row_match: np.ndarray,
    col_match: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Hopcroft–Karp level structure from all unmatched columns.

    Runs :func:`column_step` from the unmatched columns until a level meets
    an unmatched row, which fixes the shortest augmenting length; that
    level still labels its discoveries (a deque BFS also finishes the level
    — enqueued columns at the cut-off level are skipped unscanned).

    Returns ``(col_level, shortest, edges_scanned)`` with ``shortest`` in
    column levels (``numpy.iinfo(int64).max`` when no augmenting path
    exists) — exactly the values the historical per-edge loop produced.
    """
    recording = _compiled.recording(col_ptr, col_ind, row_match, col_match)
    fn = _compiled.implementation_for("alternating_level_bfs")
    if fn is not None and not recording:
        level, shortest, edges = fn(col_ptr, col_ind, row_match, col_match)
        return level, int(shortest), int(edges)
    level = np.full(len(col_ptr) - 1, _INF, dtype=np.int64)
    frontier = np.flatnonzero(col_match == _UNMATCHED)
    level[frontier] = 0
    views = scalar_views(recording, col_ptr, col_ind, row_match, level)
    edges = 0
    depth = 0
    while len(frontier):
        frontier, _, scanned, hit = column_step(
            col_ptr, col_ind, row_match, level, frontier, depth, views
        )
        edges += scanned
        depth += 1
        if hit:
            return level, depth, edges
    return level, int(_INF), edges


def distance_label_bfs(
    row_ptr: np.ndarray,
    row_ind: np.ndarray,
    row_match: np.ndarray,
    col_match: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    infinity: int,
) -> tuple[int, int]:
    """Global relabeling (Algorithm 2) as a level-synchronous BFS.

    Resets ``psi_row``/``psi_col`` in place to the exact alternating-path
    distances from the unmatched rows, one :func:`row_step` per level.

    Returns ``(max_level, edges_scanned)`` — the paper's ``maxLevel`` and
    the adjacency entries a deque BFS would have scanned.
    """
    recording = _compiled.recording(row_ptr, row_ind, row_match, col_match, psi_row, psi_col)
    fn = _compiled.implementation_for("distance_label_bfs")
    if fn is not None and not recording:
        max_level, edges = fn(row_ptr, row_ind, row_match, col_match, psi_row, psi_col, infinity)
        return int(max_level), int(edges)
    psi_row.fill(infinity)
    psi_col.fill(infinity)
    frontier = np.flatnonzero(row_match == _UNMATCHED)
    psi_row[frontier] = 0
    views = scalar_views(recording, row_ptr, row_ind, row_match, col_match, psi_row, psi_col)
    max_level = 0
    edges = 0
    level = 0
    while len(frontier):
        frontier, _, scanned = row_step(
            row_ptr, row_ind, row_match, col_match, psi_row, psi_col, frontier, level,
            infinity, views,
        )
        edges += scanned
        level += 2
        if len(frontier):
            max_level = level
    return max_level, edges


#: Starts per Tarjan pass of :func:`alternating_reach_total`.  A batch's
#: bitsets hold up to one bit per start for every component of its union,
#: and a tree shared by starts of several batches is walked once per batch
#: (see "Hopeless searches, one pass per batch" in ``docs/benchmarks.md``).
REACH_BATCH = 1024

#: Tags of closed components in :func:`_reach_batch`'s ``index``: above every
#: DFS number, so an edge into a closed component never lowers a low-link.
_CLOSED = 1 << 62


def alternating_reach_total(col_ptr, col_ind, row_match, starts) -> int | None:
    """Summed over ``starts``, the adjacency entries a full alternating BFS
    from each start scans, or ``None`` if one of them meets an unmatched row.

    The BFS from a column enters it, crosses its adjacency to the row side
    and follows every matched row to its partner column until no new column
    turns up; it scans the whole adjacency of every column it enters, so
    its entries are the summed degree of those columns.  This prices a
    search that provably cannot augment without walking it: a failed DFS
    or claiming BFS enters the same columns and scans the same entries.
    ``None`` means some start has an augmenting path.

    Overlapping trees are walked once, not once per start.  The starts go in
    batches of :data:`REACH_BATCH`; each batch runs one iterative Tarjan pass
    (Tarjan, SIAM J. Comput. 1(2), 1972) over the union of its trees, in
    which column ``v``'s successors are the mates of its neighbour rows.
    Tarjan closes the strongly connected components in reverse topological
    order, so a second pass over them in closing order reversed ORs a bitset
    of the batch's starts (a Python ``int``, one bit per start position)
    into each successor component, and each component adds its degree times
    the number of starts that reach it (per-component reachability sets as
    in Nuutila, "Efficient transitive closure computation in large
    digraphs", 1995, over starts instead of components).  A repeated start
    is counted once per occurrence.

    ``col_ptr``, ``col_ind`` and ``row_match`` are lists or memoryviews
    (:meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists`); ``row_match``
    holds each row's column, negative for an unmatched row.
    """
    index = [0] * (len(col_ptr) - 1)
    total = 0
    for first in range(0, len(starts), REACH_BATCH):
        batch = _reach_batch(col_ptr, col_ind, row_match, starts[first:first + REACH_BATCH], index)
        if batch is None:
            return None
        total += batch
    return total


def _reach_batch(col_ptr, col_ind, row_match, starts, index) -> int | None:
    """:func:`alternating_reach_total` of one batch.

    ``index`` is all zeros on entry, and again on a numeric return.  During
    the walk it holds each column's DFS number while its component is open
    and ``_CLOSED`` plus the component's closing rank once it is closed.
    """
    closed = _CLOSED
    stack: list[int] = []  # Tarjan's stack of columns in open components
    cross: list[int] = []  # tags of closed components met from open ones
    degrees: list[int] = []  # per component, in closing order
    successors: list[list[int]] = []  # closed-component tags, per component
    entered: list[int] = []  # every column of the union, to clear ``index``
    counter = 0
    # hot-path
    for s in starts:
        if index[s]:
            continue
        counter += 1
        index[s] = counter
        stack.append(s)
        entered.append(s)
        # Suspended DFS frames: (column, next offset, end offset, low-link,
        # its first entry in ``cross``).
        frames: list[tuple] = []
        v, idx, stop, low, mark = s, col_ptr[s], col_ptr[s + 1], counter, len(cross)
        while True:
            while idx < stop:
                w = row_match[col_ind[idx]]
                idx += 1
                if w < 0:
                    return None
                state = index[w]
                if not state:
                    frames.append((v, idx, stop, low, mark))
                    counter += 1
                    index[w] = counter
                    stack.append(w)
                    entered.append(w)
                    v, idx, stop, low, mark = w, col_ptr[w], col_ptr[w + 1], counter, len(cross)
                elif state >= closed:
                    cross.append(state)
                elif state < low:
                    low = state
            if low == index[v]:
                # v roots a component: the columns above it on the stack.
                tag = closed + len(degrees)
                degree = 0
                while True:
                    m = stack.pop()
                    index[m] = tag
                    degree += col_ptr[m + 1] - col_ptr[m]
                    if m == v:
                        break
                degrees.append(degree)
                successors.append(cross[mark:])
                del cross[mark:]
                if not frames:
                    break
                v, idx, stop, low, mark = frames.pop()
                cross.append(tag)
            else:
                child = low
                v, idx, stop, low, mark = frames.pop()
                if child < low:
                    low = child
    reached = [0] * len(degrees)
    for position, s in enumerate(starts):
        reached[index[s] - closed] |= 1 << position
    total = 0
    for component in range(len(degrees) - 1, -1, -1):
        bits = reached[component]
        total += degrees[component] * bits.bit_count()
        for tag in successors[component]:
            reached[tag - closed] |= bits
    for v in entered:
        index[v] = 0
    # end hot-path
    return total


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
    :func:`alternating_reach_total` instead), so its frontiers stay far below
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

    The scalar walk shared by HK/HKDW (and so the sharded reconcile) and
    G-HKDW's augmentation kernels.  Each root runs an iterative DFS
    (explicit stack, so long paths hit no recursion limit) over the column
    CSR as lists (the cached
    :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` views) or
    memoryviews, claiming
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
