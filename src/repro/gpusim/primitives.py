"""Device-style parallel primitive with cost accounting.

The shrink kernel of the paper (G-PR-SHRKRNL, §III-C2) compacts the active
column list with a count pass, a parallel prefix sum over the per-thread
counts, and a scatter pass into each thread's private output region.  This
module provides the prefix sum together with the work vector a
work-efficient GPU implementation (Blelloch scan) would incur, so the cost
model charges the compaction realistically.
"""

from __future__ import annotations

import numpy as np

__all__ = ["device_exclusive_scan"]


def _scan_work(n: int) -> np.ndarray:
    """Per-thread work of a work-efficient exclusive scan over ``n`` items.

    A Blelloch scan performs an up-sweep and a down-sweep; the total work is
    O(n) (about two operations per element amortised over the log2(n)
    passes), so each logical thread is charged a constant.
    """
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    return np.full(n, 2.0, dtype=np.float64)


def device_exclusive_scan(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive prefix sum.

    Returns
    -------
    (scan, thread_work)
        ``scan[i] = sum(values[:i])`` and a per-thread work vector for the
        cost ledger.
    """
    values = np.asarray(values)
    scan = np.zeros(len(values), dtype=values.dtype if values.dtype.kind in "iu" else np.int64)
    if len(values):
        np.cumsum(values[:-1], out=scan[1:])
    return scan, _scan_work(len(values))
