"""Lockstep implementations of the paper's GPU kernels.

Every function in this module corresponds to one CUDA kernel of the paper
and follows the *lockstep* execution semantics described in
:mod:`repro.gpusim.kernel`: all reads observe the state of device memory at
launch time, and conflicting writes to the same location are resolved
last-writer-wins — a legal interleaving of the lock- and atomic-free CUDA
launch, and the exact scenario §III-B of the paper analyses for correctness.
Every body gets the launch-time-read guarantee structurally — each wave
performs its entire read phase before its first write — so no kernel
snapshots (copies) its inputs; a kernel would only need a copy if it read an
array *after* writing it within one wave, which none does
(``tests/test_core_kernels.py`` pins the conflict semantics).

Each lockstep kernel returns, besides its outputs, its **per-thread work**
as a :class:`~repro.gpusim.costmodel.SparseWork`: the launch's thread count,
the constant every thread pays (its activity test) and the adjacency
entries the active threads scanned on top.  The caller charges it to the
:class:`~repro.gpusim.device.VirtualGPU` ledger, which prices it exactly as
the equivalent dense vector, in time proportional to the active threads.
(The serialized reference kernel returns the dense vector.)

The host cost of a launch follows its active threads, not its width:

* **Carried frontiers.**  :func:`init_relabel_kernel` and each
  :func:`global_relabel_kernel` level return the rows they labelled, the
  next level's frontier; :func:`push_kernel_all_columns` returns the next
  launch's candidates (its active columns plus the previous mates of the
  rows it pushed onto, the only columns a push can make active).  No
  launch rescans every row or column to find its threads.
* **Narrow launches.**  A G-GR level, a push wave or an active-list repair
  with fewer than :data:`NARROW_WIDTH` active threads runs as a scalar loop
  over the cached ``csr_lists("col")`` (the row side through memoryviews of
  the CSR arrays) and zero-copy memoryviews of the device arrays, with the
  same read-then-write wave structure; wider ones run vectorized.  Under the
  race sanitizer the scalar loops walk the recording arrays themselves, so
  every access is still logged.

With numba installed, G-GR levels and push waves of every width dispatch to
the compiled twins (:mod:`repro.compiled.kernels_jit`), which return the
same frontiers, candidates and work; their scalar paths then run only under
the race sanitizer, whose recording arrays keep every kernel on this tier.

Kernel map (paper → here):

=======================  =====================================
Algorithm 5  G-GR-KRNL   :func:`global_relabel_kernel`
(§III-A)     INITRELABEL :func:`init_relabel_kernel`
Algorithm 6  G-PR-KRNL   :func:`push_kernel_all_columns`
Algorithm 8  G-PR-INITKRNL :func:`init_active_kernel`
Algorithm 9  G-PR-PUSHKRNL :func:`push_kernel_active_list`
§III-C2      G-PR-SHRKRNL  :func:`shrink_kernel`
§III         FIXMATCHING   :func:`fix_matching_kernel`
=======================  =====================================
"""

from __future__ import annotations

import numpy as np

from repro.compiled import dispatch as _compiled
from repro.graph.bipartite import BipartiteGraph
from repro.graph.frontier import sorted_unique
from repro.gpusim.costmodel import SparseWork
from repro.gpusim.kernel import wave_barrier
from repro.matching import UNMATCHABLE, UNMATCHED

__all__ = [
    "NARROW_WIDTH",
    "active_columns_mask",
    "init_relabel_kernel",
    "global_relabel_kernel",
    "push_kernel_all_columns",
    "push_kernel_all_columns_serialized",
    "init_active_kernel",
    "push_kernel_active_list",
    "shrink_kernel",
    "fix_matching_kernel",
]

#: Launches (G-GR and G-HKDW BFS levels, push waves, active-list repairs)
#: with fewer active threads than this run as scalar loops; wider ones run
#: vectorized.  A scalar loop costs a few hundred nanoseconds per thread, a
#: vectorized body tens of microseconds of fixed NumPy overhead.  Measured
#: crossovers are in "The per-launch host path" of ``docs/benchmarks.md``.
#: Both paths give identical results and work.
NARROW_WIDTH = 32


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def scalar_views(recording: bool, *arrays):
    """What the scalar paths index: zero-copy memoryviews of ``arrays``.

    Memoryviews read faster than ndarray scalars and write straight into the
    arrays the next launch reads.  Under the race sanitizer (``recording``)
    the recording arrays are walked as they are, so every scalar access
    lands in its log.
    """
    return arrays if recording else tuple(map(memoryview, arrays))


def active_columns_mask(mu_row: np.ndarray, mu_col: np.ndarray) -> np.ndarray:
    """Boolean mask of *active* columns.

    A column ``v`` is active when it is not consistently matched and has not
    been retired: ``µ(v) = −1``, or ``µ(v) ≥ 0`` but ``µ(µ(v)) ≠ v`` (the
    matching inconsistency the lock-free pushes leave behind).  Retired
    columns (``µ(v) = −2``) are inactive.
    """
    active = mu_col == UNMATCHED
    pointed = np.flatnonzero(mu_col >= 0)
    if len(pointed):
        active[pointed] = mu_row[mu_col[pointed]] != pointed
    return active


def _active_among(mu_row, mu_col, cols, recording: bool):
    """The active columns among ``cols``, in order (see :func:`active_columns_mask`)."""
    if len(cols) < NARROW_WIDTH:
        if isinstance(cols, np.ndarray):
            cols = cols.tolist()
        row_match, col_match = scalar_views(recording, mu_row, mu_col)
        # hot-path
        active = [
            v for v in cols
            if (m := col_match[v]) == UNMATCHED or (m >= 0 and row_match[m] != v)
        ]
        # end hot-path
        return active
    cols = np.asarray(cols, dtype=np.int64)
    matches = mu_col[cols]
    active = matches == UNMATCHED
    pointed = np.flatnonzero(matches >= 0)
    if len(pointed):
        active[pointed] = mu_row[matches[pointed]] != cols[pointed]
    return cols[active]


def _first_true_per_segment(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Index (into ``flags``) of the first ``True`` per segment, or ``-1``.

    ``offsets`` delimits the segments (length ``S + 1``, strictly increasing).
    """
    total = len(flags)
    candidates = np.where(flags, np.arange(total, dtype=np.int64), total)
    first = np.minimum.reduceat(candidates, offsets[:-1]) if total else np.empty(0, np.int64)
    return np.where(first < total, first, -1)


def _min_neighbor_scan(
    graph: BipartiteGraph,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lines 4–11 of Algorithm 6 for a batch of columns.

    For each column ``v`` in ``cols`` returns the minimum neighbouring row
    label ``ψmin``, the first row attaining it, and the number of adjacency
    entries the sequential scan with early exit (stop at ``ψ = ψ(v) − 1``)
    would have touched — the per-thread work of this part of the kernel.
    """
    infinity = graph.infinity_label
    col_ptr, col_ind = graph.col_ptr, graph.col_ind
    starts = col_ptr[cols]
    degrees = col_ptr[cols + 1] - starts

    psi_min = np.full(len(cols), infinity, dtype=np.int64)
    u_min = np.full(len(cols), -1, dtype=np.int64)
    scanned = np.zeros(len(cols), dtype=np.int64)

    nonempty = np.flatnonzero(degrees > 0)
    if len(nonempty) == 0:
        return psi_min, u_min, scanned

    seg_starts = starts[nonempty]
    seg_lens = degrees[nonempty]
    offsets = np.zeros(len(nonempty) + 1, dtype=np.int64)
    np.cumsum(seg_lens, out=offsets[1:])
    total = int(offsets[-1])
    # Flat gather of every neighbour of every selected column.
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], seg_lens) + np.repeat(
        seg_starts, seg_lens
    )
    nbr_rows = col_ind[flat]
    nbr_psi = psi_row[nbr_rows]
    seg_id = np.repeat(np.arange(len(nonempty), dtype=np.int64), seg_lens)

    mins = np.minimum.reduceat(nbr_psi, offsets[:-1])
    psi_min[nonempty] = mins
    first_min = _first_true_per_segment(nbr_psi == mins[seg_id], offsets)
    u_min[nonempty] = np.where(first_min >= 0, nbr_rows[np.clip(first_min, 0, None)], -1)

    # Early-exit work: stop at the first neighbour whose label equals ψ(v) − 1.
    target = psi_col[cols[nonempty]] - 1
    first_hit = _first_true_per_segment(nbr_psi == target[seg_id], offsets)
    scanned[nonempty] = np.where(first_hit >= 0, first_hit - offsets[:-1] + 1, seg_lens)
    return psi_min, u_min, scanned


def _min_neighbor_scan_scalar(col_ptr, col_ind, psi_row, psi_col, cols, infinity):
    """:func:`_min_neighbor_scan` for a narrow wave, as lists; reads only.

    ``col_ptr`` / ``col_ind`` are the ``csr_lists("col")`` cache.  A column's
    labels are gathered once; ``min`` and ``list.index`` then find the
    minimum, its first row and the early-exit position in C.
    """
    psi_min: list = []
    u_min: list = []
    scanned: list = []
    # hot-path
    for v in cols:
        begin = col_ptr[v]
        stop = col_ptr[v + 1]
        if begin == stop:
            psi_min.append(infinity)
            u_min.append(-1)
            scanned.append(0)
            continue
        rows = col_ind[begin:stop]
        labels = [psi_row[u] for u in rows]
        best = min(labels)
        first = labels.index(best)
        target = psi_col[v] - 1
        if best == target:
            scanned.append(first + 1)
        elif best < target and target in labels:
            scanned.append(labels.index(target) + 1)
        else:
            scanned.append(stop - begin)
        psi_min.append(best)
        u_min.append(rows[first])
    # end hot-path
    return psi_min, u_min, scanned


# --------------------------------------------------------------------------
# global relabeling kernels (Algorithms 4 and 5)
# --------------------------------------------------------------------------
def init_relabel_kernel(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
) -> tuple[np.ndarray, SparseWork]:
    """``INITRELABEL``: unmatched rows get label 0, every other vertex gets ``m + n``.

    Returns ``(frontier, work)``: the rows labelled 0, which are the first
    :func:`global_relabel_kernel` level's frontier, and one operation per
    vertex.
    """
    infinity = graph.infinity_label
    psi_row.fill(infinity)
    psi_col.fill(infinity)
    frontier = np.flatnonzero(mu_row == UNMATCHED)
    psi_row[frontier] = 0
    return frontier, SparseWork(graph.n_rows + graph.n_cols, 1)


def global_relabel_kernel(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    c_level: int,
    frontier,
):
    """``G-GR-KRNL`` (Algorithm 5): one BFS level of the global relabeling.

    Every row whose label equals ``c_level`` relaxes its unvisited neighbour
    columns to ``c_level + 1`` and, if such a column is consistently matched,
    its matched row to ``c_level + 2``.  Several threads may write the same
    entry, but always with the same value, so the races are benign (as the
    paper notes).

    ``frontier`` holds exactly the rows labelled ``c_level``: what
    :func:`init_relabel_kernel` or the previous level returned.  The launch
    still has one thread per row (each tests its label), so the work is one
    operation per row plus the degree of every frontier row.

    Returns ``(next_frontier, work)``: the distinct rows labelled
    ``c_level + 2`` in ascending order (a list on the scalar path, an
    ``int64`` array otherwise; empty ends Algorithm 4's loop) and the
    launch's :class:`~repro.gpusim.costmodel.SparseWork`.
    """
    infinity = graph.infinity_label
    fn = _compiled.implementation_for("global_relabel")
    recording = _compiled.recording(mu_row, mu_col, psi_row, psi_col)
    if fn is not None and not recording:
        frontier = np.asarray(frontier, dtype=np.int64)
        next_rows, degrees = fn(
            graph.row_ptr,
            graph.row_ind,
            mu_row,
            mu_col,
            psi_row,
            psi_col,
            c_level,
            infinity,
            frontier,
        )
    elif len(frontier) < NARROW_WIDTH:
        if isinstance(frontier, np.ndarray):
            frontier = frontier.tolist()
        # The row side is read through memoryviews of the CSR arrays:
        # cached lists would hold some 43 more bytes per edge and read no
        # faster in this loop.
        next_rows, degrees = _relabel_level_scalar(
            memoryview(graph.row_ptr),
            memoryview(graph.row_ind),
            *scalar_views(recording, mu_row, mu_col, psi_row, psi_col),
            c_level,
            infinity,
            frontier,
        )
    else:
        frontier = np.asarray(frontier, dtype=np.int64)
        next_rows, degrees = _relabel_level(
            graph, mu_row, mu_col, psi_row, psi_col, c_level, frontier
        )
    return next_rows, SparseWork(graph.n_rows, 1, frontier, degrees)


def _relabel_level(graph, mu_row, mu_col, psi_row, psi_col, c_level, frontier):
    """Vectorized :func:`global_relabel_kernel` body: ``(next_rows, degrees)``."""
    infinity = graph.infinity_label
    row_ptr, row_ind = graph.row_ptr, graph.row_ind
    degrees = row_ptr[frontier + 1] - row_ptr[frontier]
    no_rows = np.empty(0, dtype=np.int64)
    total = int(degrees.sum())
    if total == 0:
        return no_rows, degrees
    offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], degrees) + np.repeat(
        row_ptr[frontier], degrees
    )
    nbr_cols = row_ind[flat]

    unvisited = psi_col[nbr_cols] == infinity
    to_set = sorted_unique(nbr_cols[unvisited])
    if len(to_set) == 0:
        return no_rows, degrees
    psi_col[to_set] = c_level + 1

    matches = mu_col[to_set]
    has_match = matches >= 0
    consistent = np.zeros(len(to_set), dtype=bool)
    if has_match.any():
        idx = np.flatnonzero(has_match)
        consistent[idx] = mu_row[matches[idx]] == to_set[idx]
    next_rows = matches[consistent]
    if len(next_rows):
        next_rows = next_rows[psi_row[next_rows] == infinity]
        if len(next_rows):
            psi_row[next_rows] = c_level + 2
            # Ascending, so the next level's work prices without a sort.
            next_rows.sort()
    return next_rows, degrees


def _relabel_level_scalar(
    row_ptr, row_ind, mu_row, mu_col, psi_row, psi_col, c_level, infinity, frontier
):
    """Scalar :func:`global_relabel_kernel` body for a narrow frontier (lists).

    Two phases, like the vectorized body: every read, then every write.  A
    fused loop that labels a column and goes on to the next row would
    re-read ``psi_col`` entries this launch already wrote — a read-after-
    write the race sanitizer reports.
    """
    # hot-path
    bounds = [(row_ptr[u], row_ptr[u + 1]) for u in frontier]
    degrees = [stop - begin for begin, stop in bounds]
    neighbours = {c for begin, stop in bounds for c in row_ind[begin:stop]}
    cols = [c for c in neighbours if psi_col[c] == infinity]
    next_rows = [
        w for c in cols
        if (w := mu_col[c]) >= 0 and mu_row[w] == c and psi_row[w] == infinity
    ]
    for c in cols:
        psi_col[c] = c_level + 1
    for w in next_rows:
        psi_row[w] = c_level + 2
    # end hot-path
    next_rows.sort()
    return next_rows, degrees


# --------------------------------------------------------------------------
# push kernel over all columns (Algorithm 6, variant G-PR-First)
# --------------------------------------------------------------------------
def _push_wave(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    wave_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Push for one *wave* of concurrently resident threads (lockstep within the wave).

    No defensive snapshot of ``psi_row`` is needed: the vectorized engine
    performs the wave's entire read phase (the min-neighbour scan and the
    gather of the rows' current mates below) before its first write, so
    every read already observes launch-time state — copying the array would
    only model the same semantics slower.

    Returns ``(scanned, displaced)``: per column, the scanned-edge count and
    the mate its chosen row had before the wave (``-1`` for an unmatched row
    or a retired column).
    """
    psi_min, u_min, scanned = _min_neighbor_scan(graph, psi_row, psi_col, wave_cols)
    pushable = psi_min < graph.infinity_label
    push_rows = u_min[pushable]
    displaced = np.full(len(wave_cols), UNMATCHED, dtype=np.int64)
    displaced[pushable] = mu_row[push_rows]
    # Columns whose every neighbour is unreachable are retired (µ(v) ← −2).
    mu_col[wave_cols[~pushable]] = UNMATCHABLE
    push_cols = wave_cols[pushable]
    push_min = psi_min[pushable]
    # Each thread matches its column; conflicting writes to the same row are
    # resolved last-writer-wins, leaving the losers' µ(v) inconsistent — they
    # become active again in the next launch.
    mu_col[push_cols] = push_rows
    psi_col[push_cols] = push_min + 1
    mu_row[push_rows] = push_cols
    psi_row[push_rows] = push_min + 2
    return scanned, displaced


def _push_wave_scalar(col_ptr, col_ind, mu_row, mu_col, psi_row, psi_col, wave_cols, infinity):
    """:func:`_push_wave` for a narrow wave, as lists.

    The read phase (scan, then the chosen rows' mates) completes before the
    first write; the writes run in wave order, so a contended row keeps the
    last pushing column, as NumPy's fancy assignment does.
    """
    psi_min, u_min, scanned = _min_neighbor_scan_scalar(
        col_ptr, col_ind, psi_row, psi_col, wave_cols, infinity
    )
    # hot-path
    displaced = [
        mu_row[u] if p < infinity else UNMATCHED for u, p in zip(u_min, psi_min)
    ]
    for v, u, p in zip(wave_cols, u_min, psi_min):
        if p < infinity:
            mu_col[v] = u
            psi_col[v] = p + 1
        else:
            mu_col[v] = UNMATCHABLE
    for v, u, p in zip(wave_cols, u_min, psi_min):
        if p < infinity:
            mu_row[u] = v
            psi_row[u] = p + 2
    # end hot-path
    return scanned, displaced


def _wave_slices(n_items: int, wave_size: int | None) -> list[slice]:
    """Split ``n_items`` logical threads into resident-wave slices."""
    if not n_items:
        return []
    if wave_size is None or wave_size >= n_items:
        return [slice(0, n_items)]
    return [slice(start, min(start + wave_size, n_items)) for start in range(0, n_items, wave_size)]


def _joined(parts: list):
    """Per-wave results as one sequence (a single wave's list stays a list)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def push_kernel_all_columns(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    wave_size: int | None = None,
    candidates=None,
):
    """``G-PR-KRNL`` (Algorithm 6): one thread per column of the graph.

    Mutates ``mu_row``, ``mu_col``, ``psi_row`` and ``psi_col`` in place with
    lockstep semantics.

    ``wave_size`` models the number of threads that are simultaneously
    resident on the device (``waves × cores``): threads within a wave observe
    the launch-time snapshot, threads of later waves observe the writes of
    earlier waves — exactly the visibility a real launch with more threads
    than cores provides.  ``None`` treats the whole launch as one wave.

    ``candidates`` are the columns that may be active, distinct and in
    ascending order: what the previous launch returned.  ``None`` tests every
    column, which the first launch of a run must do.  A column is only ever
    made active by a push onto its row, so the candidates hold every active
    column; the global relabeling between launches moves no match.

    Returns ``(act_exists, work, next_candidates)``: whether any column was
    active, the launch's :class:`~repro.gpusim.costmodel.SparseWork` (every
    thread performs the activity test of line 3, two reads of µ; only
    active threads go on to scan their adjacency) and the next launch's
    candidates — this launch's active columns plus the previous mates of the
    rows it pushed onto, distinct and ascending.
    """
    n = graph.n_cols
    fn = _compiled.implementation_for("push_wave")
    recording = _compiled.recording(mu_row, mu_col, psi_row, psi_col)
    use_compiled = fn is not None and not recording
    if candidates is None:
        act_cols = np.flatnonzero(active_columns_mask(mu_row, mu_col))
    else:
        act_cols = _active_among(mu_row, mu_col, candidates, recording)
    if len(act_cols) == 0:
        return False, SparseWork(n, 2), act_cols
    infinity = graph.infinity_label
    if not use_compiled:
        col_ptr, col_ind = graph.csr_lists("col")
        views = scalar_views(recording, mu_row, mu_col, psi_row, psi_col)
    scanned_parts: list = []
    displaced_parts: list = []
    for wave in _wave_slices(len(act_cols), wave_size):
        wave_cols = act_cols[wave]
        if use_compiled:
            scanned, displaced = fn(
                graph.col_ptr,
                graph.col_ind,
                psi_row,
                psi_col,
                mu_row,
                mu_col,
                np.asarray(wave_cols, dtype=np.int64),
                infinity,
            )
        elif len(wave_cols) < NARROW_WIDTH:
            if isinstance(wave_cols, np.ndarray):
                wave_cols = wave_cols.tolist()
            scanned, displaced = _push_wave_scalar(
                col_ptr, col_ind, *views, wave_cols, infinity
            )
        else:
            scanned, displaced = _push_wave(graph, mu_row, mu_col, psi_row, psi_col, wave_cols)
        scanned_parts.append(scanned)
        displaced_parts.append(displaced)
        wave_barrier(mu_row, mu_col, psi_row, psi_col)
    displaced = _joined(displaced_parts)
    if isinstance(displaced, list):
        next_candidates = sorted({v for v in displaced if v >= 0}.union(act_cols))
    else:
        next_candidates = sorted_unique(np.concatenate((act_cols, displaced[displaced >= 0])))
    return True, SparseWork(n, 2, act_cols, _joined(scanned_parts)), next_candidates


def push_kernel_all_columns_serialized(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[bool, np.ndarray]:
    """Reference (per-thread, live-memory) implementation of Algorithm 6.

    Executes one Python "thread" per column, one at a time, in index order or
    in a random permutation — a different legal interleaving than the
    lockstep engine.  Used by the race-tolerance tests; far too slow for the
    benchmark suite.
    """
    from repro.gpusim.kernel import launch_serialized

    infinity = graph.infinity_label
    col_ptr, col_ind = graph.col_ptr, graph.col_ind
    act_exists = False

    def body(v: int) -> float:
        nonlocal act_exists
        work = 1.0
        mv = mu_col[v]
        is_active = mv == UNMATCHED or (mv >= 0 and mu_row[mv] != v)
        if not is_active:
            return work
        act_exists = True
        psi_min = infinity
        u_min = -1
        target = psi_col[v] - 1
        for idx in range(col_ptr[v], col_ptr[v + 1]):
            work += 1.0
            u = col_ind[idx]
            if psi_row[u] < psi_min:
                psi_min = psi_row[u]
                u_min = u
                if psi_min == target:
                    break
        if psi_min < infinity:
            mu_row[u_min] = v
            mu_col[v] = u_min
            psi_col[v] = psi_min + 1
            psi_row[u_min] = psi_min + 2
        else:
            mu_col[v] = UNMATCHABLE
        return work

    thread_work = launch_serialized(body, graph.n_cols, rng=rng)
    return act_exists, thread_work


# --------------------------------------------------------------------------
# active-list kernels (Algorithms 8 and 9) and the shrink kernel (§III-C2)
# --------------------------------------------------------------------------
def init_active_kernel(
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    ac: np.ndarray,
    ap: np.ndarray,
    ia: np.ndarray,
    loop: int,
) -> tuple[bool, SparseWork]:
    """``G-PR-INITKRNL`` (Algorithm 8): repair the active list before a push round.

    ``ap`` holds the columns processed in the previous push round and ``ac``
    the new active columns those pushes produced.  A previously processed
    column that is still unmatched lost its push to a conflict and is rolled
    back into ``ac``; every surviving entry of ``ac`` is registered in ``ia``
    with the current ``loop`` stamp.  Duplicate occurrences of the same
    column (possible when two conflicting pushes both re-activated the same
    victim) are cleared so a column is processed by exactly one thread.

    Returns ``(act_exists, work)``: two operations per slot.
    """
    size = len(ap)
    work = SparseWork(size, 2)
    if size == 0:
        return False, work
    if size < NARROW_WIDTH:
        recording = _compiled.recording(mu_row, mu_col, ac, ap, ia)
        registered = _init_active_scalar(
            *scalar_views(recording, mu_row, mu_col, ac, ap, ia), size, loop
        )
        return registered > 0, work

    def _still_unmatched(cols: np.ndarray) -> np.ndarray:
        unmatched = mu_col[cols] == UNMATCHED
        pointed = np.flatnonzero(mu_col[cols] >= 0)
        if len(pointed):
            unmatched[pointed] = mu_row[mu_col[cols[pointed]]] != cols[pointed]
        return unmatched

    # Roll back conflicting pushes of the previous round.
    prev_slots = np.flatnonzero(ap >= 0)
    if len(prev_slots):
        rollback = _still_unmatched(ap[prev_slots])
        ac[prev_slots[rollback]] = ap[prev_slots[rollback]]

    # Drop candidates that are in fact consumed (consistently matched or retired).
    cand_slots = np.flatnonzero(ac >= 0)
    if len(cand_slots):
        keep = _still_unmatched(ac[cand_slots])
        ac[cand_slots[~keep]] = -1

    # Deduplicate: the first slot holding a column keeps it.
    reg_slots = np.flatnonzero(ac >= 0)
    if len(reg_slots):
        cols = ac[reg_slots]
        _, first_idx = np.unique(cols, return_index=True)
        duplicate = np.ones(len(cols), dtype=bool)
        duplicate[first_idx] = False
        ac[reg_slots[duplicate]] = -1
        reg_slots = reg_slots[~duplicate]
        ia[ac[reg_slots]] = loop
    return len(reg_slots) > 0, work


def _init_active_scalar(mu_row, mu_col, ac, ap, ia, size: int, loop: int) -> int:
    """:func:`init_active_kernel` for a short list, one slot at a time.

    Rollback and drop touch only their own slot and read µ, which the
    kernel never writes, so the three vectorized passes fuse per slot; slots
    run in ascending order, so the first slot holding a column keeps it.
    Returns the number of registered columns.
    """
    registered: set = set()
    # hot-path
    for slot in range(size):
        col = ap[slot]
        if col >= 0:
            m = mu_col[col]
            if m == UNMATCHED or (m >= 0 and mu_row[m] != col):
                ac[slot] = col
        col = ac[slot]
        if col < 0:
            continue
        m = mu_col[col]
        if (m == UNMATCHED or (m >= 0 and mu_row[m] != col)) and col not in registered:
            registered.add(col)
            ia[col] = loop
        else:
            ac[slot] = -1
    # end hot-path
    return len(registered)


def _push_active_wave(graph, mu_row, mu_col, psi_row, psi_col, ac, ap, ia, slots, loop):
    """Vectorized wave of :func:`push_kernel_active_list`; returns the scanned counts."""
    infinity = graph.infinity_label
    cols = ac[slots]
    # All of the wave's reads of mu_row / psi_row (the scan and the
    # old-match gather below) complete before its first write, so the
    # live arrays already show launch-time state — no snapshot copies.
    psi_min, u_min, scanned = _min_neighbor_scan(graph, psi_row, psi_col, cols)
    pushable = psi_min < infinity

    # Unreachable columns are retired and their slots cleared (lines 19–22).
    retire_slots = slots[~pushable]
    mu_col[ac[retire_slots]] = UNMATCHABLE
    ac[retire_slots] = -1
    ap[retire_slots] = -1

    push_slots = slots[pushable]
    push_cols = cols[pushable]
    push_rows = u_min[pushable]
    push_min = psi_min[pushable]
    old_match = mu_row[push_rows]

    # Line 13: postpone the push when the row's current match is active this round.
    allowed = (old_match < 0) | (ia[np.clip(old_match, 0, None)] != loop)
    postponed = push_slots[~allowed]
    ap[postponed] = -1  # the column stays in ac and is rolled back next round

    ok_slots = push_slots[allowed]
    ok_cols = push_cols[allowed]
    ok_rows = push_rows[allowed]
    ok_min = push_min[allowed]
    ok_old = old_match[allowed]

    mu_col[ok_cols] = ok_rows
    psi_col[ok_cols] = ok_min + 1
    mu_row[ok_rows] = ok_cols
    psi_row[ok_rows] = ok_min + 2
    # Line 18: record the column displaced by a double push (or −1 for a single push).
    ap[ok_slots] = np.where(ok_old >= 0, ok_old, -1)
    return scanned


def _push_active_wave_scalar(
    col_ptr, col_ind, mu_row, mu_col, psi_row, psi_col, ac, ap, ia, slots, loop, infinity
):
    """:func:`_push_active_wave` for a narrow wave, as lists.

    Reads (the slots' columns, the scan, the chosen rows' mates and their
    ``ia`` stamps, which this kernel never writes) complete before the first
    write; the writes run in slot order, so a contended row keeps the last
    pushing column.
    """
    # hot-path
    cols = [ac[slot] for slot in slots]
    psi_min, u_min, scanned = _min_neighbor_scan_scalar(
        col_ptr, col_ind, psi_row, psi_col, cols, infinity
    )
    old = [mu_row[u] if p < infinity else UNMATCHED for u, p in zip(u_min, psi_min)]
    postponed = [w >= 0 and ia[w] == loop for w in old]
    for slot, v, u, p, w, wait in zip(slots, cols, u_min, psi_min, old, postponed):
        if p >= infinity:
            # Lines 19–22: retire the column and clear the slot.
            mu_col[v] = UNMATCHABLE
            ac[slot] = -1
            ap[slot] = -1
        elif wait:
            ap[slot] = -1
        else:
            mu_col[v] = u
            psi_col[v] = p + 1
            mu_row[u] = v
            psi_row[u] = p + 2
            ap[slot] = w  # the displaced column, or −1 after a single push
    # end hot-path
    return scanned


def push_kernel_active_list(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    ac: np.ndarray,
    ap: np.ndarray,
    ia: np.ndarray,
    loop: int,
    wave_size: int | None = None,
) -> SparseWork:
    """``G-PR-PUSHKRNL`` (Algorithm 9): push-relabel over the active list only.

    One thread per active-list slot.  Differences to Algorithm 6: the thread
    count is ``|Ac|`` instead of ``n``; a successful double push records the
    newly activated column in ``ap`` (slot-local, no atomics); and a push
    onto a row whose current match is itself active in this round
    (``ia(µ(u)) = loop``) is postponed, which prevents the same column from
    ending up in two slots of the next round.

    ``wave_size`` has the same meaning as in :func:`push_kernel_all_columns`.

    Returns the launch's :class:`~repro.gpusim.costmodel.SparseWork` (one
    operation per slot plus the scanned edges of the occupied ones);
    ``ac``/``ap`` are updated in place.
    """
    size = len(ac)
    # Dispatch decision hoisted out of the wave loop (RPR004 flags lookups
    # inside hot-path regions); the compiled twin keeps the same
    # read-before-write wave structure as the NumPy bodies below.
    fn = _compiled.implementation_for("push_active_wave")
    recording = _compiled.recording(mu_row, mu_col, psi_row, psi_col, ac, ap, ia)
    use_compiled = fn is not None and not recording
    if not use_compiled:
        col_ptr, col_ind = graph.csr_lists("col")
        views = scalar_views(recording, mu_row, mu_col, psi_row, psi_col, ac, ap, ia)
    # Empty slots produce no new active column (Algorithm 9, line 24).
    if size < NARROW_WIDTH and not use_compiled:
        ac_view, ap_view = views[4:6]
        slots = []
        # hot-path
        for slot in range(size):
            if ac_view[slot] < 0:
                ap_view[slot] = -1
            else:
                slots.append(slot)
        # end hot-path
    else:
        ap[ac < 0] = -1
        slots = np.flatnonzero(ac >= 0)
    if len(slots) == 0:
        return SparseWork(size, 1)
    infinity = graph.infinity_label
    scanned_parts: list = []
    for wave in _wave_slices(len(slots), wave_size):
        wave_slots = slots[wave]
        if use_compiled:
            scanned = fn(
                graph.col_ptr,
                graph.col_ind,
                psi_row,
                psi_col,
                mu_row,
                mu_col,
                ac,
                ap,
                ia,
                wave_slots,
                loop,
                infinity,
            )
        elif len(wave_slots) < NARROW_WIDTH:
            if isinstance(wave_slots, np.ndarray):
                wave_slots = wave_slots.tolist()
            scanned = _push_active_wave_scalar(
                col_ptr, col_ind, *views, wave_slots, loop, infinity
            )
        else:
            scanned = _push_active_wave(
                graph, mu_row, mu_col, psi_row, psi_col, ac, ap, ia, wave_slots, loop
            )
        scanned_parts.append(scanned)
        wave_barrier(mu_row, mu_col, psi_row, psi_col, ac, ap)
    return SparseWork(size, 1, slots, _joined(scanned_parts))


def shrink_kernel(
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    ac: np.ndarray,
    ap: np.ndarray,
    ia: np.ndarray,
    loop: int,
) -> tuple[bool, np.ndarray, np.ndarray, SparseWork]:
    """``G-PR-SHRKRNL`` (§III-C2): repair *and compact* the active list.

    Performs the same repair as :func:`init_active_kernel`, then compacts the
    surviving columns into freshly sized ``ac``/``ap`` arrays with a
    count-pass / prefix-sum / write-pass sequence (each thread owns a private
    output region), so the next push round launches exactly one thread per
    active column.

    Returns ``(act_exists, new_ac, new_ap, work)``: per slot, the repair's
    work, two operations for the count and write passes and two for its
    share of a work-efficient (Blelloch) prefix sum, whose up- and
    down-sweep cost about two operations per element.
    """
    act_exists, repair_work = init_active_kernel(mu_row, mu_col, ac, ap, ia, loop)
    survivors = ac[ac >= 0]
    work = SparseWork(len(ap), repair_work.base + 2 + 2)
    new_ac = survivors.astype(np.int64).copy()
    new_ap = np.full(len(survivors), -1, dtype=np.int64)
    return act_exists, new_ac, new_ap, work


# --------------------------------------------------------------------------
# FIXMATCHING
# --------------------------------------------------------------------------
def fix_matching_kernel(mu_row: np.ndarray, mu_col: np.ndarray) -> SparseWork:
    """``FIXMATCHING``: clear every column entry that its row does not confirm.

    ``µ(v) ← −1`` for any ``v`` with ``µ(µ(v)) ≠ v`` (including retired
    columns, whose ``−2`` marker is cleared as well).  The row side is left
    untouched — the paper proves it is correct at termination.  Returns the
    launch's work, one operation per column.
    """
    pointed = np.flatnonzero(mu_col >= 0)
    stale = pointed[mu_row[mu_col[pointed]] != pointed]
    mu_col[stale] = UNMATCHED
    mu_col[mu_col == UNMATCHABLE] = UNMATCHED
    return SparseWork(len(mu_col), 1)
