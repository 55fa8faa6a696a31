"""Per-function dispatch between the NumPy paths and their compiled twins.

Seven functions carry a small shim: the three vectorized frontier
primitives the CPU baselines and the sharded reconcile run
(:mod:`repro.graph.frontier`) and the four lockstep wave kernels of G-PR
and G-HKDW (:mod:`repro.core`).  Each shim asks :func:`implementation_for`
for a compiled twin and falls back to the vectorized NumPy body when it
returns ``None``.  The answer is ``None`` whenever

* numba is not installed (the ``[compiled]`` extra; a numpy-only install
  runs the NumPy paths unchanged), or
* dispatch is force-disabled via :func:`override` (parity tests diff the
  two tiers inside one process), or
* the function has no registered twin.

Shims additionally guard with :func:`recording`: when any participating
array is shadow-wrapped by the race sanitizer
(:mod:`repro.analysis.hazards`), the NumPy path runs so the access log
stays complete -- machine code cannot report its reads and writes.  The
sanitizer therefore always certifies the NumPy tier; the parity suites
prove the compiled tier bit-identical to it.

Cost-ledger charges are unchanged by construction: the shims return the
same per-thread work vectors and counters either way, and the callers
charge those to the :class:`~repro.gpusim.device.VirtualGPU` ledger
exactly as before -- only wall time drops.

:func:`warm_up` compiles every registered twin on micro inputs with the
production dtypes, so min-of-repeats measurements never include one-time
JIT compile cost (see :func:`repro.bench.perfbaseline.capture`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.compiled import frontier_jit, kernels_jit
from repro.compiled._jit import NUMBA_AVAILABLE, NUMBA_VERSION

__all__ = [
    "CAPABILITY_SCHEMA",
    "NUMBA_AVAILABLE",
    "NUMBA_VERSION",
    "Entry",
    "capability_report",
    "enabled",
    "entries",
    "implementation_for",
    "override",
    "recording",
    "registered",
    "warm_up",
]

#: Schema tag of :func:`capability_report` payloads.
CAPABILITY_SCHEMA = "repro-backends/1"


@dataclass(frozen=True)
class Entry:
    """One dispatchable function: its compiled twin plus a warm-up call."""

    name: str
    impl: Callable
    warm: Callable[[], None]


def _micro_graph() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A 2x2 dual-CSR path graph with production dtypes (all int64)."""
    col_ptr = np.array([0, 2, 3], dtype=np.int64)
    col_ind = np.array([0, 1, 1], dtype=np.int64)
    row_ptr = np.array([0, 1, 3], dtype=np.int64)
    row_ind = np.array([0, 0, 1], dtype=np.int64)
    return col_ptr, col_ind, row_ptr, row_ind


def _warm_expand_frontier() -> None:
    col_ptr, col_ind, _, _ = _micro_graph()
    frontier_jit.expand_frontier(col_ptr, col_ind, np.array([0, 1], dtype=np.int64))


def _warm_alternating_level_bfs() -> None:
    col_ptr, col_ind, _, _ = _micro_graph()
    row_match = np.array([0, -1], dtype=np.int64)
    col_match = np.array([0, -1], dtype=np.int64)
    frontier_jit.alternating_level_bfs(col_ptr, col_ind, row_match, col_match)


def _warm_distance_label_bfs() -> None:
    _, _, row_ptr, row_ind = _micro_graph()
    row_match = np.array([0, -1], dtype=np.int64)
    col_match = np.array([0, -1], dtype=np.int64)
    psi_row = np.empty(2, dtype=np.int64)
    psi_col = np.empty(2, dtype=np.int64)
    frontier_jit.distance_label_bfs(row_ptr, row_ind, row_match, col_match, psi_row, psi_col, 4)


def _warm_push_wave() -> None:
    col_ptr, col_ind, _, _ = _micro_graph()
    psi_row = np.array([0, 0], dtype=np.int64)
    psi_col = np.array([4, 4], dtype=np.int64)
    mu_row = np.array([-1, -1], dtype=np.int64)
    mu_col = np.array([-1, -1], dtype=np.int64)
    wave_cols = np.array([0, 1], dtype=np.int64)
    kernels_jit.push_wave(col_ptr, col_ind, psi_row, psi_col, mu_row, mu_col, wave_cols, 4)


def _warm_push_active_wave() -> None:
    col_ptr, col_ind, _, _ = _micro_graph()
    psi_row = np.array([0, 0], dtype=np.int64)
    psi_col = np.array([4, 4], dtype=np.int64)
    mu_row = np.array([-1, -1], dtype=np.int64)
    mu_col = np.array([-1, -1], dtype=np.int64)
    ac = np.array([0, 1], dtype=np.int64)
    ap = np.array([-1, -1], dtype=np.int64)
    ia = np.array([-1, -1], dtype=np.int64)
    slots = np.array([0, 1], dtype=np.int64)
    kernels_jit.push_active_wave(
        col_ptr, col_ind, psi_row, psi_col, mu_row, mu_col, ac, ap, ia, slots, 1, 4
    )


def _warm_global_relabel() -> None:
    _, _, row_ptr, row_ind = _micro_graph()
    mu_row = np.array([-1, 0], dtype=np.int64)
    mu_col = np.array([1, -1], dtype=np.int64)
    psi_row = np.array([0, 4], dtype=np.int64)
    psi_col = np.array([4, 4], dtype=np.int64)
    kernels_jit.global_relabel(row_ptr, row_ind, mu_row, mu_col, psi_row, psi_col, 0, 4)


def _warm_ghkdw_augment() -> None:
    col_ptr, col_ind, _, _ = _micro_graph()
    mu_row = np.array([-1, -1], dtype=np.int64)
    mu_col = np.array([-1, -1], dtype=np.int64)
    level = np.array([0, 0], dtype=np.int64)
    start_cols = np.array([0, 1], dtype=np.int64)
    kernels_jit.ghkdw_augment(col_ptr, col_ind, mu_row, mu_col, level, start_cols, False, 2)


_REGISTRY: dict[str, Entry] = {
    entry.name: entry
    for entry in (
        Entry("expand_frontier", frontier_jit.expand_frontier, _warm_expand_frontier),
        Entry(
            "alternating_level_bfs",
            frontier_jit.alternating_level_bfs,
            _warm_alternating_level_bfs,
        ),
        Entry("distance_label_bfs", frontier_jit.distance_label_bfs, _warm_distance_label_bfs),
        Entry("push_wave", kernels_jit.push_wave, _warm_push_wave),
        Entry("push_active_wave", kernels_jit.push_active_wave, _warm_push_active_wave),
        Entry("global_relabel", kernels_jit.global_relabel, _warm_global_relabel),
        Entry("ghkdw_augment", kernels_jit.ghkdw_augment, _warm_ghkdw_augment),
    )
}

#: Test hook: ``None`` follows numba availability, a bool forces the tier.
_FORCED: bool | None = None


def enabled() -> bool:
    """Whether dispatch currently routes to the compiled twins."""
    return NUMBA_AVAILABLE if _FORCED is None else _FORCED


@contextmanager
def override(flag: bool | None):
    """Force-enable or force-disable dispatch within a ``with`` block.

    ``override(False)`` runs the NumPy paths even with numba installed
    (the parity and speedup suites diff the tiers in one process);
    ``override(True)`` routes to the twins even without numba -- they
    then execute as plain Python, which is how the numpy-only test
    environment proves the scalar ports bit-identical.  ``None`` restores
    the default (follow numba availability).
    """
    global _FORCED
    previous = _FORCED
    _FORCED = flag
    try:
        yield
    finally:
        _FORCED = previous


def registered() -> tuple[str, ...]:
    """Names of every dispatchable function, sorted."""
    return tuple(sorted(_REGISTRY))


def entries() -> tuple[Entry, ...]:
    """The registered entries, in registration order."""
    return tuple(_REGISTRY.values())


def implementation_for(name: str) -> Callable | None:
    """The compiled twin for ``name``, or ``None`` to use the NumPy path.

    Shims call this once per function call, *outside* any loop (the
    RPR004 lint rule flags lookups inside ``# hot-path`` regions).
    Unknown names return ``None`` rather than raising so a shim can never
    take down the NumPy tier.
    """
    if not enabled():
        return None
    entry = _REGISTRY.get(name)
    return entry.impl if entry is not None else None


def recording(*arrays) -> bool:
    """``True`` when any array is shadow-wrapped by the race sanitizer.

    Compiled twins cannot record their accesses, so shims keep the NumPy
    path whenever an access log is attached (``shadow_log`` is the
    attribute :class:`repro.analysis.hazards.ShadowArray` carries).
    """
    for array in arrays:
        if getattr(array, "shadow_log", None) is not None:
            return True
    return False


def warm_up(registry: Mapping[str, Entry] | None = None) -> int:
    """Compile every registered twin on micro inputs; returns the count.

    A no-op (returning 0) when dispatch is disabled.  ``registry`` is a
    test hook; the default is the module registry.
    """
    if not enabled():
        return 0
    reg = _REGISTRY if registry is None else registry
    count = 0
    for entry in reg.values():
        entry.warm()
        count += 1
    return count


def capability_report() -> dict:
    """Which execution tiers this install can run (for ``repro perf``)."""
    return {
        "schema": CAPABILITY_SCHEMA,
        "numpy": {"available": True, "version": np.__version__},
        "numba": {"available": NUMBA_AVAILABLE, "version": NUMBA_VERSION},
        "compiled_dispatch_enabled": enabled(),
        "functions": list(registered()),
    }
