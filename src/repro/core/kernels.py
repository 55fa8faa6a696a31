"""Lockstep (vectorised) implementations of the paper's GPU kernels.

Every function in this module corresponds to one CUDA kernel of the paper
and follows the *lockstep* execution semantics described in
:mod:`repro.gpusim.kernel`: all reads observe the state of device memory at
launch time, and conflicting writes to the same location are resolved
last-writer-wins — a legal interleaving of the lock- and atomic-free CUDA
launch, and the exact scenario §III-B of the paper analyses for correctness.
The vectorized bodies get the launch-time-read guarantee structurally — each
wave performs its entire read phase before its first write — so no kernel
snapshots (copies) its inputs; a kernel would only need a copy if it read an
array *after* writing it within one wave, which none does
(``tests/test_core_kernels.py`` pins the conflict semantics).

Each kernel returns, besides its outputs, a **per-thread work vector**: the
number of elementary operations (adjacency entries scanned plus a small
constant) performed by every logical thread.  The caller charges that vector
to the :class:`~repro.gpusim.device.VirtualGPU` ledger, which converts it to
modelled seconds.

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
from repro.gpusim.kernel import wave_barrier
from repro.gpusim.primitives import device_exclusive_scan
from repro.matching import UNMATCHABLE, UNMATCHED

__all__ = [
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


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def active_columns_mask(mu_row: np.ndarray, mu_col: np.ndarray) -> np.ndarray:
    """Boolean mask of *active* columns.

    A column ``v`` is active when it is not consistently matched and has not
    been retired: ``µ(v) = −1``, or ``µ(v) ≥ 0`` but ``µ(µ(v)) ≠ v`` (the
    matching inconsistency the lock-free pushes leave behind).  Retired
    columns (``µ(v) = −2``) are inactive.
    """
    n = len(mu_col)
    active = mu_col == UNMATCHED
    pointed = np.flatnonzero(mu_col >= 0)
    if len(pointed):
        active[pointed] = mu_row[mu_col[pointed]] != pointed
    return active


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
    scanned = np.zeros(len(cols), dtype=np.float64)

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


# --------------------------------------------------------------------------
# global relabeling kernels (Algorithms 4 and 5)
# --------------------------------------------------------------------------
def init_relabel_kernel(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
) -> np.ndarray:
    """``INITRELABEL``: unmatched rows get label 0, every other vertex gets ``m + n``."""
    infinity = graph.infinity_label
    psi_row.fill(infinity)
    psi_col.fill(infinity)
    psi_row[mu_row == UNMATCHED] = 0
    return np.ones(graph.n_rows + graph.n_cols, dtype=np.float64)


def global_relabel_kernel(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    c_level: int,
) -> tuple[bool, np.ndarray]:
    """``G-GR-KRNL`` (Algorithm 5): one BFS level of the global relabeling.

    Every row whose label equals ``c_level`` relaxes its unvisited neighbour
    columns to ``c_level + 1`` and, if such a column is consistently matched,
    its matched row to ``c_level + 2``.  Several threads may write the same
    entry, but always with the same value, so the races are benign (as the
    paper notes).

    Returns ``(u_added, thread_work)`` where ``u_added`` reports whether any
    row received a new label (the loop-continuation flag of Algorithm 4).
    """
    fn = _compiled.implementation_for("global_relabel")
    if fn is not None and not _compiled.recording(mu_row, mu_col, psi_row, psi_col):
        u_added, thread_work = fn(
            graph.row_ptr,
            graph.row_ind,
            mu_row,
            mu_col,
            psi_row,
            psi_col,
            c_level,
            graph.infinity_label,
        )
        return bool(u_added), thread_work
    infinity = graph.infinity_label
    thread_work = np.ones(graph.n_rows, dtype=np.float64)
    frontier = np.flatnonzero(psi_row == c_level)
    if len(frontier) == 0:
        return False, thread_work

    row_ptr, row_ind = graph.row_ptr, graph.row_ind
    degrees = row_ptr[frontier + 1] - row_ptr[frontier]
    thread_work[frontier] += degrees

    total = int(degrees.sum())
    if total == 0:
        return False, thread_work
    offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], degrees) + np.repeat(
        row_ptr[frontier], degrees
    )
    nbr_cols = row_ind[flat]

    unvisited = psi_col[nbr_cols] == infinity
    to_set = sorted_unique(nbr_cols[unvisited])
    if len(to_set) == 0:
        return False, thread_work
    psi_col[to_set] = c_level + 1

    matches = mu_col[to_set]
    has_match = matches >= 0
    consistent = np.zeros(len(to_set), dtype=bool)
    if has_match.any():
        idx = np.flatnonzero(has_match)
        consistent[idx] = mu_row[matches[idx]] == to_set[idx]
    next_rows = matches[consistent]
    u_added = False
    if len(next_rows):
        fresh = psi_row[next_rows] == infinity
        next_rows = next_rows[fresh]
        if len(next_rows):
            psi_row[next_rows] = c_level + 2
            u_added = True
    return u_added, thread_work


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
) -> np.ndarray:
    """Push for one *wave* of concurrently resident threads (lockstep within the wave).

    No defensive snapshot of ``psi_row`` is needed: the vectorized engine
    performs the wave's entire read phase (the min-neighbour scan below)
    before its first write, so every read already observes launch-time
    state — copying the array would only model the same semantics slower.

    Returns the per-column scanned-edge counts for the wave.
    """
    fn = _compiled.implementation_for("push_wave")
    if fn is not None and not _compiled.recording(mu_row, mu_col, psi_row, psi_col):
        return fn(
            graph.col_ptr,
            graph.col_ind,
            psi_row,
            psi_col,
            mu_row,
            mu_col,
            wave_cols,
            graph.infinity_label,
        )
    psi_min, u_min, scanned = _min_neighbor_scan(graph, psi_row, psi_col, wave_cols)
    pushable = psi_min < graph.infinity_label
    # Columns whose every neighbour is unreachable are retired (µ(v) ← −2).
    mu_col[wave_cols[~pushable]] = UNMATCHABLE
    push_cols = wave_cols[pushable]
    push_rows = u_min[pushable]
    push_min = psi_min[pushable]
    # Each thread matches its column; conflicting writes to the same row are
    # resolved last-writer-wins, leaving the losers' µ(v) inconsistent — they
    # become active again in the next launch.
    mu_col[push_cols] = push_rows
    psi_col[push_cols] = push_min + 1
    mu_row[push_rows] = push_cols
    psi_row[push_rows] = push_min + 2
    return scanned


def _wave_slices(n_items: int, wave_size: int | None) -> list[slice]:
    """Split ``n_items`` logical threads into resident-wave slices."""
    if not n_items:
        return []
    if wave_size is None or wave_size >= n_items:
        return [slice(0, n_items)]
    return [slice(start, min(start + wave_size, n_items)) for start in range(0, n_items, wave_size)]


def push_kernel_all_columns(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    wave_size: int | None = None,
) -> tuple[bool, np.ndarray]:
    """``G-PR-KRNL`` (Algorithm 6): one thread per column of the graph.

    Mutates ``mu_row``, ``mu_col``, ``psi_row`` and ``psi_col`` in place with
    lockstep semantics and returns ``(act_exists, thread_work)``.

    ``wave_size`` models the number of threads that are simultaneously
    resident on the device (``waves × cores``): threads within a wave observe
    the launch-time snapshot, threads of later waves observe the writes of
    earlier waves — exactly the visibility a real launch with more threads
    than cores provides.  ``None`` treats the whole launch as one wave.
    """
    n = graph.n_cols
    # Every thread — active or not — performs the activity test of line 3
    # (two reads of µ); only active threads go on to scan their adjacency.
    thread_work = np.full(n, 2.0, dtype=np.float64)
    active = active_columns_mask(mu_row, mu_col)
    act_cols = np.flatnonzero(active)
    if len(act_cols) == 0:
        return False, thread_work
    for wave in _wave_slices(len(act_cols), wave_size):
        wave_cols = act_cols[wave]
        scanned = _push_wave(graph, mu_row, mu_col, psi_row, psi_col, wave_cols)
        thread_work[wave_cols] += scanned
        wave_barrier(mu_row, mu_col, psi_row, psi_col)
    return True, thread_work


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
) -> tuple[bool, np.ndarray]:
    """``G-PR-INITKRNL`` (Algorithm 8): repair the active list before a push round.

    ``ap`` holds the columns processed in the previous push round and ``ac``
    the new active columns those pushes produced.  A previously processed
    column that is still unmatched lost its push to a conflict and is rolled
    back into ``ac``; every surviving entry of ``ac`` is registered in ``ia``
    with the current ``loop`` stamp.  Duplicate occurrences of the same
    column (possible when two conflicting pushes both re-activated the same
    victim) are cleared so a column is processed by exactly one thread.

    Returns ``(act_exists, thread_work)``.
    """
    size = len(ap)
    thread_work = np.full(size, 2.0, dtype=np.float64)
    if size == 0:
        return False, thread_work

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
    return len(reg_slots) > 0, thread_work


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
) -> np.ndarray:
    """``G-PR-PUSHKRNL`` (Algorithm 9): push-relabel over the active list only.

    One thread per active-list slot.  Differences to Algorithm 6: the thread
    count is ``|Ac|`` instead of ``n``; a successful double push records the
    newly activated column in ``ap`` (slot-local, no atomics); and a push
    onto a row whose current match is itself active in this round
    (``ia(µ(u)) = loop``) is postponed, which prevents the same column from
    ending up in two slots of the next round.

    ``wave_size`` has the same meaning as in :func:`push_kernel_all_columns`.

    Returns the per-thread work vector; ``ac``/``ap`` are updated in place.
    """
    size = len(ac)
    thread_work = np.ones(size, dtype=np.float64)
    # Empty slots produce no new active column (Algorithm 9, line 24).
    ap[ac < 0] = -1
    all_slots = np.flatnonzero(ac >= 0)
    if len(all_slots) == 0:
        return thread_work
    infinity = graph.infinity_label

    # Dispatch decision hoisted out of the wave loop (RPR004 flags lookups
    # inside hot-path regions); the compiled twin keeps the same
    # read-before-write wave structure as the vectorized body below.
    fn = _compiled.implementation_for("push_active_wave")
    use_compiled = fn is not None and not _compiled.recording(
        mu_row, mu_col, psi_row, psi_col, ac, ap, ia
    )

    for wave in _wave_slices(len(all_slots), wave_size):
        slots = all_slots[wave]
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
                slots,
                loop,
                infinity,
            )
            thread_work[slots] += scanned
            wave_barrier(mu_row, mu_col, psi_row, psi_col, ac, ap)
            continue
        cols = ac[slots]
        # All of the wave's reads of mu_row / psi_row (the scan and the
        # old-match gather below) complete before its first write, so the
        # live arrays already show launch-time state — no snapshot copies.
        psi_min, u_min, scanned = _min_neighbor_scan(graph, psi_row, psi_col, cols)
        thread_work[slots] += scanned

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
        wave_barrier(mu_row, mu_col, psi_row, psi_col, ac, ap)
    return thread_work


def shrink_kernel(
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    ac: np.ndarray,
    ap: np.ndarray,
    ia: np.ndarray,
    loop: int,
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """``G-PR-SHRKRNL`` (§III-C2): repair *and compact* the active list.

    Performs the same repair as :func:`init_active_kernel`, then compacts the
    surviving columns into freshly sized ``ac``/``ap`` arrays with a
    count-pass / prefix-sum / write-pass sequence (each thread owns a private
    output region), so the next push round launches exactly one thread per
    active column.

    Returns ``(act_exists, new_ac, new_ap, thread_work)``.
    """
    act_exists, repair_work = init_active_kernel(mu_row, mu_col, ac, ap, ia, loop)
    survivors = ac[ac >= 0]
    # Count pass + write pass: two extra operations per slot, plus the scan.
    _, scan_work = device_exclusive_scan(np.ones(len(ap), dtype=np.int64))
    thread_work = repair_work + 2.0
    if len(scan_work):
        thread_work = thread_work + scan_work
    new_ac = survivors.astype(np.int64).copy()
    new_ap = np.full(len(survivors), -1, dtype=np.int64)
    return act_exists, new_ac, new_ap, thread_work


# --------------------------------------------------------------------------
# FIXMATCHING
# --------------------------------------------------------------------------
def fix_matching_kernel(mu_row: np.ndarray, mu_col: np.ndarray) -> np.ndarray:
    """``FIXMATCHING``: clear every column entry that its row does not confirm.

    ``µ(v) ← −1`` for any ``v`` with ``µ(µ(v)) ≠ v`` (including retired
    columns, whose ``−2`` marker is cleared as well).  The row side is left
    untouched — the paper proves it is correct at termination.
    """
    thread_work = np.ones(len(mu_col), dtype=np.float64)
    pointed = np.flatnonzero(mu_col >= 0)
    stale = pointed[mu_row[mu_col[pointed]] != pointed]
    mu_col[stale] = UNMATCHED
    mu_col[mu_col == UNMATCHABLE] = UNMATCHED
    return thread_work
