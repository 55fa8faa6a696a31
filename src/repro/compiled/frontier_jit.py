"""Numba twins of the hot frontier primitives in :mod:`repro.graph.frontier`.

One twin per vectorized primitive a solver runs: ``alternating_level_bfs``
(HK/HKDW and the sharded reconcile, which runs HK's phase loop) and
``distance_label_bfs`` (PR's global relabeling).  Every function here is a
scalar-loop port of a NumPy path and must be *bit-identical* to it: same
output arrays, same dtypes, same ``edges_scanned`` counters.  The ports
deliberately mirror the NumPy semantics rather than "improving" them --
e.g. ``alternating_level_bfs`` marks a hit under the exact mate comparison
the level step uses, and ``distance_label_bfs`` follows only consistently
matched mates, as the row step does.

The module never imports :mod:`repro.graph` (the dependency points the
other way: the frontier shims look these twins up through
:mod:`repro.compiled.dispatch`), so the sentinel constants are mirrored
locally.
"""

from __future__ import annotations

import numpy as np

from repro.compiled._jit import jit

_UNMATCHED = -1  # mirrors repro.graph.matching.UNMATCHED
_INF = np.iinfo(np.int64).max


@jit
def alternating_level_bfs(col_ptr, col_ind, row_match, col_match):
    """Scalar twin of :func:`repro.graph.frontier.alternating_level_bfs`.

    Same contract as the NumPy path: ``level`` over columns, shortest
    augmenting-path length (or ``_INF``), and total edges scanned.
    """
    n_cols = col_ptr.shape[0] - 1
    level = np.full(n_cols, _INF, np.int64)
    frontier = np.empty(n_cols, np.int64)
    nxt = np.empty(n_cols, np.int64)
    fsize = 0
    for v in range(n_cols):
        if col_match[v] == _UNMATCHED:
            level[v] = 0
            frontier[fsize] = v
            fsize += 1
    shortest = _INF
    edges = np.int64(0)
    depth = np.int64(0)
    while fsize > 0:
        nsize = 0
        hit = False
        for i in range(fsize):
            v = frontier[i]
            for idx in range(col_ptr[v], col_ptr[v + 1]):
                edges += 1
                u = col_ind[idx]
                w = row_match[u]
                if w == _UNMATCHED:
                    hit = True
                elif w >= 0 and level[w] == _INF:
                    level[w] = depth + 1
                    nxt[nsize] = w
                    nsize += 1
        if hit and shortest == _INF:
            shortest = depth + 1
        frontier, nxt = nxt, frontier
        fsize = nsize
        depth += 1
        if depth >= shortest:
            break
    return level, shortest, edges


@jit
def distance_label_bfs(row_ptr, row_ind, row_match, col_match, psi_row, psi_col, infinity):
    """Scalar twin of :func:`repro.graph.frontier.distance_label_bfs`.

    Fills ``psi_row`` / ``psi_col`` in place and returns
    ``(max_level, edges_scanned)``.  Per level: pass 1 labels the
    first-encounter set of fresh columns (identical to the NumPy
    ``unique`` of unlabeled targets), pass 2 first *collects* the
    consistently matched mates (``row_match[w] == c``, as
    :func:`repro.graph.frontier.row_step` requires) against the pre-write
    ``psi_row`` state, and only then writes their labels.
    """
    n_rows = row_ptr.shape[0] - 1
    n_cols = psi_col.shape[0]
    psi_row[:] = infinity
    psi_col[:] = infinity
    frontier = np.empty(n_rows, np.int64)
    nxt = np.empty(n_rows, np.int64)
    fresh = np.empty(n_cols, np.int64)
    fsize = 0
    for u in range(n_rows):
        if row_match[u] == _UNMATCHED:
            psi_row[u] = 0
            frontier[fsize] = u
            fsize += 1
    level = np.int64(0)
    max_level = np.int64(0)
    edges = np.int64(0)
    while fsize > 0:
        nfresh = 0
        for i in range(fsize):
            u = frontier[i]
            for idx in range(row_ptr[u], row_ptr[u + 1]):
                edges += 1
                c = row_ind[idx]
                if psi_col[c] == infinity:
                    psi_col[c] = level + 1
                    fresh[nfresh] = c
                    nfresh += 1
        if nfresh == 0:
            break
        nsize = 0
        for i in range(nfresh):
            c = fresh[i]
            w = col_match[c]
            if w >= 0 and row_match[w] == c and psi_row[w] == infinity:
                nxt[nsize] = w
                nsize += 1
        if nsize == 0:
            break
        for i in range(nsize):
            psi_row[nxt[i]] = level + 2
        max_level = level + 2
        frontier, nxt = nxt, frontier
        fsize = nsize
        level += 2
    return max_level, edges


__all__ = [
    "alternating_level_bfs",
    "distance_label_bfs",
]
