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
  that provably fail): :func:`claiming_bfs`, the augmenting rounds,
  :func:`alternating_reach_total` (one condensation of every priced
  tree, then each search's group of entry columns priced as the union of
  their reaches) and the algorithm-side loops index
  :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` instead of
  ndarrays, which removes the per-element boxing (~4× on the same loop
  body).  Per-vertex state that already lives in an ``int64`` array and is
  read by the next whole-array step is walked through a ``memoryview`` of
  that array instead (:func:`scalar_views`): O(1) to make, cheaper per
  read than ndarray indexing, and writes land in the array itself, where a
  list would cost an O(vertices) ``tolist()`` and ``np.array()`` per call.

The vertex-disjoint augmenting DFS of HK/HKDW, of the sharded reconcile
(which runs HK's phase loop over memoryviews of the sharded graph's column
CSR) and of G-HKDW's augmentation kernels runs as two rounds that share one
walk, each scanned entry reading one per-row gate from a list:

* :func:`restricted_round`, Hopcroft–Karp's shortest-path round over the
  BFS level DAG (Hopcroft & Karp, SIAM J. Comput. 2(4), 1973).  Above
  :data:`SWEEP_ENTRIES` BFS entries a sweep by descending level first finds
  the *dead* columns, which reach no unmatched row through the DAG even
  with nothing claimed; only the other roots are walked, and the dead part
  of every search is priced by a second sweep by ascending level instead
  of walked.  Both sweeps gather the columns in level order a bounded
  run at a time, however wide a level is.
* :func:`duff_wassel_round`, the Duff–Wassel round, whose filter graph has
  cycles: every root is walked.

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

from bisect import bisect_left
from collections import deque

import numpy as np

from repro.compiled import dispatch as _compiled

__all__ = [
    "alternating_level_bfs",
    "alternating_reach_total",
    "claiming_bfs",
    "column_step",
    "distance_label_bfs",
    "duff_wassel_round",
    "restricted_round",
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


#: Groups priced per pass over the condensation in
#: :func:`alternating_reach_total`: its bitsets hold up to one bit per group
#: for every component (see "Closed trees, priced at the phase end" in
#: ``docs/benchmarks.md``).
REACH_BATCH = 1024

#: Tags of closed components in :func:`_condense`'s ``index``: above every
#: DFS number, so an edge into a closed component never lowers a low-link.
_CLOSED = 1 << 62

#: A ``row_match`` entry of :func:`alternating_reach_total` for a row that is
#: scanned but not crossed (any value below -1 reads the same).
WALL = -2

#: What one column adds to a component's degree when
#: :func:`alternating_reach_total` counts columns too: the batch pass then
#: sums entries below this bit and columns above it in one product.
_COLUMN_UNIT = 1 << 64


def alternating_reach_total(col_ptr, col_ind, row_match, starts, *, groups=None,
                            weights=None, columns=False) -> int | tuple[int, int] | None:
    """Summed over ``starts``, the adjacency entries a full alternating BFS
    from each start scans, or ``None`` if one of them meets an unmatched row.

    The BFS from a column enters it, crosses its adjacency to the row side
    and follows every matched row to its partner column until no new column
    turns up; it scans the whole adjacency of every column it enters, so
    its entries are the summed degree of those columns.  This prices a
    search that provably cannot augment without walking it: a failed DFS
    or claiming BFS enters the same columns and scans the same entries.
    ``None`` means some start has an augmenting path.  A row whose
    ``row_match`` entry is :data:`WALL` (or any value below -1) is scanned
    but not crossed: P-DBFS prices one thread's detours with the other
    threads' rows as walls.  With ``columns=True`` the result is the pair
    ``(entries, columns)``, where ``columns`` counts the columns each BFS
    enters the same way, from the same pass.

    ``groups`` (CSR bounds into ``starts``: group ``g`` is
    ``starts[groups[g]:groups[g + 1]]``) prices one search that would enter
    several columns' trees: a group costs the summed degree of the union of
    its starts' reaches, so a column repeated in a group, or reached from
    two of its starts, counts once.  ``weights`` multiplies each group's
    cost.  By default every start is its own group of weight 1, and a
    repeated start counts once per occurrence.

    Overlapping trees are walked once, not once per group.  One iterative
    Tarjan pass (Tarjan, SIAM J. Comput. 1(2), 1972) condenses the union of
    every start's tree, in which column ``v``'s successors are the mates of
    its neighbour rows.  Tarjan closes the strongly connected components in
    reverse topological order, so a pass over them in closing order reversed
    ORs a bitset of up to :data:`REACH_BATCH` groups of one weight (a Python
    ``int``, one bit per group) into each successor component, and each
    component adds its degree times the number of groups that reach it
    (per-component reachability sets as in Nuutila, "Efficient transitive
    closure computation in large digraphs", 1995, over groups instead of
    components).  Each batch's bitsets are dropped before the next, and a
    batch's pass starts at the highest rank among its starts' components:
    successors close first, so nothing above it is reached.

    ``col_ptr``, ``col_ind`` and ``row_match`` are lists or memoryviews
    (:meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists`); ``row_match``
    holds each row's column, -1 for an unmatched row.
    """
    unit = _COLUMN_UNIT if columns else 0
    index = [0] * (len(col_ptr) - 1)
    condensation = _condense(col_ptr, col_ind, row_match, starts, index, unit)
    if condensation is None:
        return None
    degrees, successors = condensation
    closed = _CLOSED
    components = [index[s] - closed for s in starts]
    # Each group as the components of its starts, listed per weight.
    by_weight: dict[int, list] = {}
    if groups is None:
        by_weight[1] = [(c,) for c in components]
    else:
        for g in range(len(groups) - 1):
            if groups[g] < groups[g + 1]:
                by_weight.setdefault(1 if weights is None else weights[g], []).append(
                    components[groups[g]:groups[g + 1]]
                )
    total = 0
    # hot-path
    for weight, members in by_weight.items():
        for first in range(0, len(members), REACH_BATCH):
            reached = [0] * len(degrees)
            top = 0
            for position, group in enumerate(members[first:first + REACH_BATCH]):
                bit = 1 << position
                for component in group:
                    reached[component] |= bit
                    if component > top:
                        top = component
            subtotal = 0
            for component in range(top, -1, -1):
                bits = reached[component]
                if bits:
                    subtotal += degrees[component] * bits.bit_count()
                    for successor in successors[component]:
                        reached[successor] |= bits
            total += weight * subtotal
    # end hot-path
    if columns:
        count, entries = divmod(total, unit)
        return entries, count
    return total


def _condense(col_ptr, col_ind, row_match, starts, index, unit):
    """``(degrees, successors)`` of the components of the union of the
    starts' trees, in closing order, or ``None`` at an unmatched row.

    ``index`` is all zeros on entry.  During the walk it holds each column's
    DFS number while its component is open; on return it holds ``_CLOSED``
    plus the closing rank of the component of every column the walk
    entered.  A component's degree adds ``unit`` per column.
    ``successors[k]`` lists the ranks of the components that component
    ``k``'s columns point into, once per edge.
    """
    closed = _CLOSED
    stack: list[int] = []  # Tarjan's stack of columns in open components
    cross: list[int] = []  # ranks of closed components met from open ones
    degrees: list[int] = []  # per component, in closing order
    successors: list[list[int]] = []  # closed-component ranks, per component
    counter = 0
    # hot-path
    for s in starts:
        if index[s]:
            continue
        counter += 1
        index[s] = counter
        stack.append(s)
        # Suspended DFS frames: (column, next offset, end offset, low-link,
        # its first entry in ``cross``).
        frames: list[tuple] = []
        v, idx, stop, low, mark = s, col_ptr[s], col_ptr[s + 1], counter, len(cross)
        while True:
            while idx < stop:
                w = row_match[col_ind[idx]]
                idx += 1
                if w < 0:
                    if w == _UNMATCHED:
                        return None
                    continue  # a wall
                state = index[w]
                if not state:
                    frames.append((v, idx, stop, low, mark))
                    counter += 1
                    index[w] = counter
                    stack.append(w)
                    v, idx, stop, low, mark = w, col_ptr[w], col_ptr[w + 1], counter, len(cross)
                elif state >= closed:
                    cross.append(state - closed)
                elif state < low:
                    low = state
            if low == index[v]:
                # v roots a component: the columns above it on the stack.
                rank = len(degrees)
                tag = closed + rank
                degree = 0
                while True:
                    m = stack.pop()
                    index[m] = tag
                    degree += col_ptr[m + 1] - col_ptr[m] + unit
                    if m == v:
                        break
                degrees.append(degree)
                successors.append(cross[mark:])
                del cross[mark:]
                if not frames:
                    break
                v, idx, stop, low, mark = frames.pop()
                cross.append(rank)
            else:
                child = low
                v, idx, stop, low, mark = frames.pop()
                if child < low:
                    low = child
    # end hot-path
    return degrees, successors


#: Adjacency entries a failed :func:`claiming_bfs` search must have scanned
#: before it closes its region.  Pricing detours into small regions costs
#: more than the short re-walks it replaces (measured crossover: "Closed
#: regions of a P-DBFS round" in ``docs/benchmarks.md``).
CLOSING_ENTRIES = 256


def claiming_bfs(
    col_ptr: list[int],
    col_ind: list[int],
    start: int,
    row_match: list[int],
    owner: list[int],
    thread_id: int,
    records: list[tuple[int, int]] | None = None,
    region: list[int] | None = None,
) -> tuple[list[int] | None, float, int]:
    """P-DBFS vertex-disjoint search from unmatched column ``start``.

    The scalar member of the frontier layer: a P-DBFS round search is
    *single*-source and walks one adjacency slice at a time, so it runs
    over the cached
    :meth:`~repro.graph.bipartite.BipartiteGraph.csr_lists` views (plain
    list indexing, no per-element ndarray boxing) and keeps the claim
    bookkeeping of Azad et al. exactly: rows owned by another thread are
    skipped, the first claimable occurrence of a row costs one atomic
    (claims persist in ``owner`` and block the other simulated threads),
    and the search stops at the first claimed row that is unmatched — rows
    after that edge in scan order stay unclaimed.  Most searches end within
    a few claims, but a failed one walks its whole alternating tree under
    the claims: the failed searches of the ``medium`` GL7d19 analog, from
    the cheap matching, would walk about 10,900 entries each.

    With ``records`` and ``region`` (lists) the search runs against its
    thread's *closed region*.  A failed search that scanned at least
    :data:`CLOSING_ENTRIES` entries closes: its claimed rows are tagged
    ``-2 - thread_id`` in ``owner`` (the other threads read any tag but
    ``-1`` and their own id as a claim) and appended to ``region``.  No
    augmenting path crosses a closed region for the rest of the round, so a
    later search of the thread that meets a closed row appends ``(row,
    columns enqueued so far)`` to ``records`` the first time and scans on
    instead of entering the row.  A failed search returns its work and
    atomics without those detours, for the caller to price
    (``multicore.pdbfs``); a successful one adds the part of them the walk
    would have scanned and claimed before it reached the free row
    (:func:`_passed_detours`), so its result equals the walk's.

    All parameters are Python lists (``owner`` is mutated in place).
    Returns ``(path, work, atomics)`` with ``path`` alternating
    ``[col, row, ..., row]`` or ``None``, and ``work`` the scanned adjacency
    entries plus the constant the reference implementation charged.
    """
    parent_col: dict[int, int] = {start: -1}
    parent_row: dict[int, int] = {}
    queue: deque[int] = deque([start])
    closed = -2 - thread_id
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
                if own == closed and u not in parent_row:
                    parent_row[u] = -1  # recorded once; never on a path
                    records.append((u, len(parent_col)))
                continue  # claimed by another thread's BFS, or closed
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
                if records:
                    entries, claims = _passed_detours(
                        col_ptr, col_ind, row_match, owner, closed, records, list(parent_col),
                        path[::2],
                    )
                    work += entries
                    atomics += claims
                return path, 1.0 + work, atomics
            if w not in parent_col:
                parent_col[w] = u
                queue.append(w)
    # end hot-path
    if records is not None and work >= CLOSING_ENTRIES:
        # The recorded rows are closed already; tagging them again is harmless.
        for u in parent_row:
            owner[u] = closed
        region.extend(parent_row)
    return None, 1.0 + work, atomics


def _passed_detours(col_ptr, col_ind, row_match, owner, closed, records, order, path_cols):
    """``(entries, claims)``: what the detours into a closed region that a
    successful search skipped would have cost the walk.

    The walk would have claimed each recorded row, enqueued its mate, and
    from every closed column it popped claimed the closed rows next to it
    and enqueued their mates, all before popping the terminal column (the
    last of ``path_cols``).  No closed column leads out of the region, so
    the search's own columns, ``order`` (in enqueue order), keep their
    order in the walk's FIFO, and a closed column is popped before the
    terminal iff it was enqueued first.

    A record made when ``m`` of the search's columns were enqueued puts its
    mate between columns ``m - 1`` and ``m`` of ``order``: the walk pops
    it before the terminal iff ``m <= p_0``, the terminal's position.  The
    closed columns it enqueues then land behind every column enqueued so
    far, so they precede the terminal iff the terminal was not enqueued
    yet, that is iff its parent on the path, at position ``p_1``, was not
    popped yet: iff ``m <= p_1``.  By induction the closed columns ``g``
    steps from a record are popped iff ``m <= p_g``, the position of the
    terminal's ``g``-th ancestor; a record's *depth* is the largest such
    ``g``.  A closed column is popped iff some record reaches it within its
    depth, and its mate row is claimed iff it was recorded or is next to a
    popped column, so one bucketed BFS, deepest depth first, prices both.
    """
    positions = []
    position = 0
    for col in path_cols:
        position = order.index(col, position)
        positions.append(position)
    last = len(positions) - 1
    claimed = {u for u, _ in records}
    buckets: list[list[int]] = [[] for _ in positions]
    for u, enqueued in records:
        if enqueued > positions[-1]:
            break  # this and every later record were made after the terminal was enqueued
        buckets[last - bisect_left(positions, enqueued)].append(row_match[u])
    popped = set()
    entries = 0
    for depth in range(last, -1, -1):
        for c in buckets[depth]:
            if c in popped:
                continue
            popped.add(c)
            begin, stop = col_ptr[c], col_ptr[c + 1]
            entries += stop - begin
            for u in col_ind[begin:stop]:
                if owner[u] == closed:
                    claimed.add(u)
                    if depth:
                        buckets[depth - 1].append(row_match[u])
    return entries, len(claimed)


#: Adjacency entries the phase BFS scanned below which a level-restricted round
#: walks every root.  Sweeping the level DAG costs a few NumPy calls per level,
#: which a walk over a small reached region undercuts (measured crossover:
#: "The level-restricted round, priced" in ``docs/benchmarks.md``).
SWEEP_ENTRIES = 3800

#: Adjacency entries the sweeps gather at once: a run of consecutive columns
#: in level order starts every this many entries, so a run holds at most
#: this many plus one column's degree, however wide its levels.
SWEEP_BATCH = 1 << 14

#: Row gates of an augmenting round, read once per scanned entry.  A claimed
#: row, or one whose mate has no level, is shut; an unmatched row is above
#: every bar.  In the restricted round a row whose mate is at level ``L`` has
#: gate ``2L + 1``, or ``2L`` once a sweep found the mate dead; in the
#: Duff–Wassel round it is :data:`_OPEN`.
_SHUT = 0
_OPEN = 2
_FREE = _INF


def _gates(level, row_match, scale: int, bias: int) -> np.ndarray:
    """Each row's gate at the start of a round, as an ``int64`` array:
    ``scale * level + bias`` of its mate, :data:`_SHUT` if the mate has no
    level, :data:`_FREE` if the row is unmatched."""
    finite = level != _INF
    key = np.full(len(level) + 1, _SHUT, dtype=np.int64)
    key[:-1][finite] = level[finite] * scale + bias
    key[-1] = _FREE  # what an unmatched row's -1 picks
    return np.take(key, row_match)


def restricted_round(col_ptr, col_ind, ptr, ind, roots, level, row_match, col_match,
                     entries: int) -> tuple[int, list[int]]:
    """Hopcroft–Karp's level-restricted round of vertex-disjoint augmenting DFS.

    Each root runs a DFS over the column CSR that enters a matched row's mate
    only from a column one ``level`` above it, claims every row it enters,
    and stops at the first unclaimed unmatched row, flipping the path in
    place; claims persist across roots, so the paths are vertex-disjoint.
    ``roots`` are level-0 columns (the unmatched columns the phase BFS
    started from), walked in order.

    Below :data:`SWEEP_ENTRIES` BFS ``entries`` every root is walked.  Above,
    :func:`_sweep` first marks the columns that can reach an unmatched row
    through the level DAG (*live*); only live roots are walked, and a walk
    that meets an unclaimed row whose mate is dead records it instead of
    entering.  A DFS that enters a dead column scans the column's whole
    closure minus what was claimed before, so every dead column reached is
    scanned once, by the first root that reaches it; :func:`_price_dead`
    charges it to that root without walking it.

    ``col_ptr``/``col_ind`` are the CSR arrays (the sweeps gather over
    them), ``ptr``/``ind`` the same CSR as lists or memoryviews (the walk
    indexes them), ``level`` the phase BFS's ``int64`` level array.
    ``row_match`` and ``col_match`` are lists, zero-copy memoryviews of
    ``int64`` arrays, or the arrays (the sanitizer's recording arrays log
    every access); they are updated in place.  Returns ``(augmentations,
    per_root_edges)``: the adjacency entries each root's search scanned, in
    ``roots`` order, exactly as a walk of every root scans them.
    """
    row_array = np.asanyarray(row_match)
    # A root's mates are at level 1 (gate 3, or 2 if dead): its bar is 2, and
    # each level down adds 2.
    if entries < SWEEP_ENTRIES:
        gate = _gates(level, row_array, 2, 1)
        return _walk(ptr, ind, roots, gate.tolist(), row_match, col_match, 2, 2, [], [])
    gate = _gates(level, row_array, 2, 0)
    dag = _LevelDag(col_ptr, col_ind, level)
    live = _sweep(dag, gate, np.asanyarray(col_match))
    roots = np.asarray(roots, dtype=np.int64)
    walked = np.flatnonzero(live[roots])
    records: list[int] = []
    owners: list[int] = []
    augmented, steps = _walk(ptr, ind, roots[walked].tolist(), gate.tolist(), row_match,
                             col_match, 2, 2, records, owners)
    label = np.full(len(live), len(roots), dtype=np.int64)
    dead = np.flatnonzero(~live[roots])
    label[roots[dead]] = dead
    label[np.take(row_array, records)] = walked[owners]
    per_root = _price_dead(dag, gate, row_array, live, label, len(roots))
    per_root[walked] += steps
    return augmented, per_root.tolist()


def duff_wassel_round(ptr, ind, roots, level, row_match, col_match) -> tuple[int, list[int]]:
    """The Duff–Wassel round: vertex-disjoint augmenting DFS from ``roots``
    that enters a matched row's mate from any column, if it has a level.

    The filter graph has cycles, so no sweep by level prices it: every root
    is walked, each scanned entry reading one gate.  Arguments and result as
    in :func:`restricted_round`.
    """
    gate = _gates(level, np.asanyarray(row_match), 0, _OPEN)
    return _walk(ptr, ind, roots, gate.tolist(), row_match, col_match, _OPEN - 1, 0, [], [])


class _LevelDag:
    """The columns of a phase's level DAG in level order, in runs.

    ``cols`` holds the columns of finite level, level 0 first, ``depth``
    their levels and ``degrees`` their degrees.  ``runs`` cuts ``cols`` into
    runs of consecutive columns, a new run starting every
    :data:`SWEEP_BATCH` adjacency entries; a sweep gathers one run at a
    time, so its temporaries stay that small however wide a level is.
    """

    def __init__(self, col_ptr, col_ind, level) -> None:
        reached = np.flatnonzero(level != _INF)
        depth = level[reached]
        # NumPy radix-sorts 16-bit keys; only a path of 2^16 levels needs more.
        key = depth.astype(np.uint16) if int(depth.max()) <= 0xFFFF else depth
        order = np.argsort(key, kind="stable")
        self.cols = reached[order]
        self.depth = depth[order]
        self.col_ptr = col_ptr
        self.col_ind = col_ind
        self.degrees = col_ptr[self.cols + 1] - col_ptr[self.cols]
        first = np.cumsum(self.degrees) - self.degrees
        cuts = (np.flatnonzero(np.diff(first // SWEEP_BATCH)) + 1).tolist()
        self.runs = list(zip([0, *cuts], [*cuts, len(self.cols)], strict=True))

    def gather(self, lo: int, hi: int, keep=None):
        """Run ``cols[lo:hi]``, or its columns flagged in ``keep``, as
        ``(cols, depth, ends, rows, levels)``: the columns, their levels,
        where each one's entries end, every adjacency entry in scan order,
        and the levels the whole run spans."""
        cols, depth, degrees = self.cols[lo:hi], self.depth[lo:hi], self.degrees[lo:hi]
        levels = range(int(depth[0]), int(depth[-1]) + 1)
        if keep is not None:
            cols, depth, degrees = cols[keep], depth[keep], degrees[keep]
        rows, _ = _gather(self.col_ptr, self.col_ind, cols)
        return cols, depth, np.cumsum(degrees), rows, levels


def _level_cuts(depth, levels) -> np.ndarray:
    """Where each of ``levels`` ends in the ascending ``depth``."""
    return np.searchsorted(depth, np.add(levels, 1))


def _sweep(dag: _LevelDag, gate, col_match) -> np.ndarray:
    """Mark the live columns, from the deepest level up; returns the mask.

    A column is live if a neighbour row is unmatched, or enterable and its
    mate (one level deeper) is live.  On entry ``gate`` is the restricted
    gates with every mate dead (``2L``); a live mate's row becomes ``2L + 1``.
    """
    live = np.zeros(len(dag.col_ptr) - 1, dtype=bool)
    for lo, hi in reversed(dag.runs):
        cols, depth, ends, rows, levels = dag.gather(lo, hi)
        bounds = [0, *np.append(0, ends)[_level_cuts(depth, levels)].tolist()]
        for d in reversed(levels):
            start, end = bounds[d - levels.start], bounds[d - levels.start + 1]
            # No row met at level d has a mate deeper than d + 1, so an
            # unmatched row or a live mate one level down gates 2d + 3 or more.
            hits = np.flatnonzero(gate[rows[start:end]] >= 2 * d + 3) + start
            alive = cols[np.searchsorted(ends, hits, side="right")]
            live[alive] = True
            if d:
                gate[col_match[alive]] = 2 * d + 1
    return live


def _price_dead(dag: _LevelDag, gate, row_match, live, label, n_roots: int) -> np.ndarray:
    """Each root's entries in dead columns, as an ``int64`` array in root order.

    ``label`` holds, per column, the position of the first root known to
    reach it, or ``n_roots``.  The smallest label flows down the level DAG's
    edges between dead columns, level by level, and each labelled column's
    degree is charged to its label.
    """
    for lo, hi in dag.runs:
        cols, depth, ends, rows, levels = dag.gather(lo, hi, ~live[dag.cols[lo:hi]])
        # An edge of the DAG between dead columns: a row whose mate is dead
        # one level down.
        steps = np.flatnonzero(gate[rows] == np.repeat(2 * depth + 2, np.diff(ends, prepend=0)))
        owner = np.searchsorted(ends, steps, side="right")
        sources = cols[owner]
        targets = np.take(row_match, rows[steps])
        start = 0
        for end in np.searchsorted(owner, _level_cuts(depth, levels)).tolist():
            if end > start:
                np.minimum.at(label, targets[start:end], label[sources[start:end]])
            start = end
    priced = np.flatnonzero(label < n_roots)
    return np.bincount(label[priced], weights=dag.col_ptr[priced + 1] - dag.col_ptr[priced],
                       minlength=n_roots).astype(np.int64)


def _walk(ptr, ind, roots, gate, row_match, col_match, bar: int, step: int, records, owners):
    """The walk both rounds share: an iterative DFS per root over ``gate``.

    A column scans its adjacency for a row whose gate is at or above its
    bar, one comparison per entry: ``bar`` at a root, ``step`` more per level
    down.  A gate of ``bar + 1`` enters the row's mate, :data:`_FREE`
    augments; either claims the row (its gate becomes :data:`_SHUT`).  A
    gate equal to the bar marks a dead mate: the row goes to ``records``,
    the index of its root among ``roots`` to ``owners``, and the row shuts,
    so each dead column is recorded once, by its first root.  A column's
    entries count as scanned when it is entered; an augmentation takes back
    the ones its path left unscanned.  One frame stack serves the whole
    round, so a root that fails on its own adjacency allocates nothing.
    Returns ``(augmentations, per_root_edges)``.
    """
    augmented = 0
    per_root: list[int] = []
    frames: list[tuple] = []  # suspended (column, resume offset, end offset, row taken)
    # hot-path
    for v in roots:
        idx = ptr[v]
        stop = ptr[v + 1]
        edges = stop - idx
        least = bar
        while True:
            while idx < stop:
                if gate[ind[idx]] >= least:
                    break
                idx += 1
            else:
                if frames:
                    v, idx, stop, _ = frames.pop()
                    least -= step
                    continue
                break
            u = ind[idx]
            g = gate[u]
            gate[u] = _SHUT
            idx += 1
            if g == least:
                records.append(u)
                owners.append(len(per_root))
                continue
            if g == _FREE:
                edges -= stop - idx
                row_match[u] = v
                col_match[v] = u
                for v, idx, stop, u in frames:
                    edges -= stop - idx
                    row_match[u] = v
                    col_match[v] = u
                frames.clear()
                augmented += 1
                break
            frames.append((v, idx, stop, u))
            v = row_match[u]
            idx = ptr[v]
            stop = ptr[v + 1]
            edges += stop - idx
            least += step
        per_root.append(edges)
    # end hot-path
    return augmented, per_root
