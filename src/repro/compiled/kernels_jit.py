"""Numba twins of the lockstep wave kernels in :mod:`repro.core`.

The vectorized kernels get the paper's lockstep semantics structurally:
each wave performs its entire read phase before its first write, and
conflicting writes resolve last-writer-wins (NumPy fancy assignment keeps
the last occurrence).  A naive fused per-thread loop would instead be the
*serialized* interleaving — a different legal schedule with different
results — so every push twin here keeps the two phases explicit: local
buffers collect all launch-time reads for the whole wave, then
ascending-index write loops reproduce the last-occurrence-wins resolution
exactly.  ``global_relabel`` may fuse them, because a label it writes never
changes what a later read of the same launch decides.

The twins share their NumPy counterparts' contract: ``global_relabel``
takes a level's frontier and returns the rows it labelled,
``push_wave`` also returns the mates its pushes displaced, and every
scanned-edge count is an ``int64``, so the callers build the same
:class:`~repro.gpusim.costmodel.SparseWork` on either tier.

``ghkdw_augment`` is the exception: the augmentation kernel's claims are
serialized within the launch by design (see :mod:`repro.core.ghkdw`), so
its twin is a literal port of the sequential DFS, returning the same
per-root ``int64`` scanned-edge counts.

Sentinel constants are mirrored locally (this module must not import the
core/graph layers; the dispatch arrow points the other way).
"""

from __future__ import annotations

import numpy as np

from repro.compiled._jit import jit

_UNMATCHED = -1  # mirrors repro.matching.UNMATCHED
_UNMATCHABLE = -2  # mirrors repro.matching.UNMATCHABLE
_INF = np.iinfo(np.int64).max


@jit
def _scan_columns(col_ptr, col_ind, psi_row, psi_col, cols, infinity, psi_min, u_min, scanned):
    """Read phase of Algorithms 6/9: the min-neighbour scan for one wave.

    Fills ``psi_min`` (full-segment minimum row label), ``u_min`` (first
    row attaining it) and ``scanned`` (early-exit work: entries up to and
    including the first neighbour whose label equals ``psi_col[v] - 1``,
    or the full degree).  All arrays are read, none written -- callers
    run this for the whole wave before their first write.
    """
    for i in range(cols.shape[0]):
        v = cols[i]
        begin = col_ptr[v]
        stop = col_ptr[v + 1]
        best = infinity
        best_row = np.int64(-1)
        target = psi_col[v] - 1
        hit = np.int64(-1)
        for idx in range(begin, stop):
            u = col_ind[idx]
            p = psi_row[u]
            if p < best:
                best = p
                best_row = u
            if hit < 0 and p == target:
                hit = idx - begin + 1
        psi_min[i] = best
        u_min[i] = best_row
        if hit >= 0:
            scanned[i] = hit
        else:
            scanned[i] = stop - begin


@jit
def push_wave(col_ptr, col_ind, psi_row, psi_col, mu_row, mu_col, wave_cols, infinity):
    """Twin of :func:`repro.core.kernels._push_wave` (Algorithm 6, one wave).

    Mutates the matching and label arrays in place with lockstep
    semantics and returns ``(scanned, displaced)``: per column, the
    scanned-edge count and the pre-wave mate of the row it pushed onto
    (``-1`` for an unmatched row or a retired column).
    """
    n = wave_cols.shape[0]
    psi_min = np.empty(n, np.int64)
    u_min = np.empty(n, np.int64)
    scanned = np.zeros(n, np.int64)
    _scan_columns(col_ptr, col_ind, psi_row, psi_col, wave_cols, infinity, psi_min, u_min, scanned)
    displaced = np.empty(n, np.int64)
    for i in range(n):
        if psi_min[i] < infinity:
            displaced[i] = mu_row[u_min[i]]
        else:
            displaced[i] = _UNMATCHED
    # Write phase: column-indexed writes target distinct entries; the
    # row-indexed loop runs ascending so a contended row keeps the last
    # pushing column, matching NumPy fancy assignment.
    for i in range(n):
        v = wave_cols[i]
        if psi_min[i] < infinity:
            mu_col[v] = u_min[i]
            psi_col[v] = psi_min[i] + 1
        else:
            mu_col[v] = _UNMATCHABLE
    for i in range(n):
        if psi_min[i] < infinity:
            mu_row[u_min[i]] = wave_cols[i]
            psi_row[u_min[i]] = psi_min[i] + 2
    return scanned, displaced


@jit
def push_active_wave(
    col_ptr, col_ind, psi_row, psi_col, mu_row, mu_col, ac, ap, ia, slots, loop, infinity
):
    """Twin of the wave body of ``push_kernel_active_list`` (Algorithm 9).

    ``slots`` indexes the active-list entries of one wave.  Returns the
    per-slot scanned counts; the matching, label and list arrays are
    updated in place with the same read-before-write structure as the
    vectorized path (the old-match gather happens before any write).
    """
    n = slots.shape[0]
    cols = np.empty(n, np.int64)
    for i in range(n):
        cols[i] = ac[slots[i]]
    psi_min = np.empty(n, np.int64)
    u_min = np.empty(n, np.int64)
    scanned = np.zeros(n, np.int64)
    _scan_columns(col_ptr, col_ind, psi_row, psi_col, cols, infinity, psi_min, u_min, scanned)
    old_match = np.empty(n, np.int64)
    for i in range(n):
        if psi_min[i] < infinity:
            old_match[i] = mu_row[u_min[i]]
    # Write phase (ascending slot order = NumPy's last-occurrence-wins on
    # contended rows; column and slot targets are distinct).
    for i in range(n):
        s = slots[i]
        v = cols[i]
        if psi_min[i] >= infinity:
            # Lines 19-22: retire the column, clear the slot.
            mu_col[v] = _UNMATCHABLE
            ac[s] = -1
            ap[s] = -1
            continue
        old = old_match[i]
        if old >= 0 and ia[old] == loop:
            # Line 13: the row's match is active this round -- postpone.
            ap[s] = -1
            continue
        mu_col[v] = u_min[i]
        psi_col[v] = psi_min[i] + 1
        mu_row[u_min[i]] = v
        psi_row[u_min[i]] = psi_min[i] + 2
        if old >= 0:
            ap[s] = old
        else:
            ap[s] = -1
    return scanned


@jit
def global_relabel(row_ptr, row_ind, mu_row, mu_col, psi_row, psi_col, c_level, infinity, frontier):
    """Twin of :func:`repro.core.kernels.global_relabel_kernel` (Algorithm 5).

    ``frontier`` holds the rows labelled ``c_level``.  The fused scalar
    loop is launch-time-equivalent to the vectorized kernel: written values
    (``c_level + 1`` / ``c_level + 2``) can never re-qualify a vertex for
    this launch's first-encounter tests, and a consistent matching makes
    the relabeled rows distinct.  Returns ``(next_rows, degrees)``: the rows
    labelled ``c_level + 2``, in discovery order, and each frontier row's
    degree.
    """
    n = frontier.shape[0]
    degrees = np.empty(n, np.int64)
    total = 0
    for i in range(n):
        u = frontier[i]
        degrees[i] = row_ptr[u + 1] - row_ptr[u]
        total += degrees[i]
    next_rows = np.empty(total, np.int64)
    count = 0
    for i in range(n):
        u = frontier[i]
        for idx in range(row_ptr[u], row_ptr[u + 1]):
            c = row_ind[idx]
            if psi_col[c] != infinity:
                continue
            psi_col[c] = c_level + 1
            w = mu_col[c]
            if w >= 0 and mu_row[w] == c and psi_row[w] == infinity:
                psi_row[w] = c_level + 2
                next_rows[count] = w
                count += 1
    return next_rows[:count], degrees


@jit
def ghkdw_augment(
    col_ptr,
    col_ind,
    mu_row,
    mu_col,
    level,
    start_cols,
    restrict_levels,
    n_rows,
):
    """Twin of the NumPy-tier walk of :func:`repro.core.ghkdw._augment_phase`.

    A literal port of the claim-based alternating DFS
    (:func:`repro.graph.frontier.augmenting_dfs`), one sequential logical
    thread per start column (the claims serialize the launch by design).
    Mutates ``mu_row`` / ``mu_col`` in place and returns, as
    ``augmenting_dfs`` does, ``(augmented, per_root)`` with each start
    column's scanned edges as ``int64``.
    """
    n_starts = start_cols.shape[0]
    per_root = np.zeros(n_starts, np.int64)
    augmented = np.int64(0)
    row_claimed = np.zeros(n_rows, np.bool_)
    cap = n_rows + 2
    stack_col = np.empty(cap, np.int64)
    stack_idx = np.empty(cap, np.int64)
    path_rows = np.empty(cap, np.int64)
    for t in range(n_starts):
        start = start_cols[t]
        depth = 0
        stack_col[0] = start
        stack_idx[0] = col_ptr[start]
        edges = 0
        success = False
        while depth >= 0 and not success:
            v = stack_col[depth]
            idx = stack_idx[depth]
            stop = col_ptr[v + 1]
            advanced = False
            while idx < stop:
                u = col_ind[idx]
                idx += 1
                edges += 1
                if row_claimed[u]:
                    continue
                w = mu_row[u]
                if w == _UNMATCHED:
                    row_claimed[u] = True
                    mu_row[u] = v
                    mu_col[v] = u
                    for d in range(depth - 1, -1, -1):
                        prev_col = stack_col[d]
                        prev_row = path_rows[d]
                        mu_row[prev_row] = prev_col
                        mu_col[prev_col] = prev_row
                    augmented += 1
                    success = True
                    break
                if restrict_levels and level[w] != level[v] + 1:
                    continue
                if not restrict_levels and level[w] == _INF:
                    continue
                row_claimed[u] = True
                stack_idx[depth] = idx
                path_rows[depth] = u
                depth += 1
                stack_col[depth] = w
                stack_idx[depth] = col_ptr[w]
                advanced = True
                break
            if success:
                break
            if advanced:
                continue
            stack_idx[depth] = idx
            if idx >= stop:
                depth -= 1
        per_root[t] = edges
    return augmented, per_root


__all__ = [
    "ghkdw_augment",
    "global_relabel",
    "push_active_wave",
    "push_wave",
]
