"""Kernel execution engines.

Two engines model the behaviour of a lock- and atomic-free CUDA launch:

``lockstep``
    The vectorised production engine.  It is not a function in this module —
    every kernel in :mod:`repro.core.kernels` *is* its lockstep
    implementation: reads observe the launch-time snapshot of device memory
    and conflicting writes to the same location are resolved by NumPy's
    fancy-assignment rule (the last occurrence wins).  This corresponds to
    the interleaving where every thread performs all reads before any thread
    performs a write — a legal schedule of a lock-free launch, and exactly
    the situation Section III-B of the paper analyses ("If both v and v'
    select u at the same time ...").

``serialized``
    A reference interpreter (:func:`launch_serialized`) that runs one Python
    callable per logical thread, one thread at a time, over *live* device
    memory — i.e. the fully serialised interleaving, optionally in a permuted
    thread order.  It is orders of magnitude slower and exists for the
    test-suite: the paper's correctness argument says *any* interleaving must
    yield a maximum matching, so the tests execute the same algorithm under
    both engines (and several permutations) and compare cardinalities.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = ["launch_serialized", "wave_barrier"]


def wave_barrier(*arrays) -> None:
    """Mark a resident-wave boundary for the race sanitizer.

    The lockstep engines process launches wider than the device in *waves*
    of resident threads; writes of an earlier wave are legitimately visible
    to later waves and must not be reported as intra-wave hazards.  Kernels
    call this at the end of each wave iteration with the arrays they touch.
    A no-op (zero cost, no effect on results) unless the arrays are
    shadow-recording views handed out by ``VirtualGPU(shadow=...)``.
    """
    seen: list = []
    for arr in arrays:
        log = getattr(arr, "shadow_log", None)
        if log is not None and not any(log is s for s in seen):
            seen.append(log)
            log.wave_barrier()


def launch_serialized(
    kernel_body: Callable[[int], float],
    n_threads: int,
    order: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Execute ``kernel_body(tid)`` once per logical thread, serially.

    Parameters
    ----------
    kernel_body:
        Per-thread function.  It receives the thread id and must return the
        number of elementary operations the thread performed (its work).  It
        mutates device arrays captured by closure — exactly like a CUDA
        kernel body mutates global memory.
    n_threads:
        Number of logical threads in the launch.
    order:
        Optional explicit execution order (a permutation of ``range(n_threads)``).
    rng:
        When given (and ``order`` is not), threads execute in a random
        permutation drawn from this generator — used by the race-tolerance
        property tests.

    Returns
    -------
    numpy.ndarray
        Per-thread work vector (indexed by thread id, not execution order),
        suitable for :meth:`repro.gpusim.device.VirtualGPU.charge_kernel`.
    """
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(n_threads)):
            raise ValueError("order must be a permutation of range(n_threads)")
    elif rng is not None:
        order = rng.permutation(n_threads)
    else:
        order = np.arange(n_threads)
    work = np.zeros(n_threads, dtype=np.float64)
    for tid in order:
        work[tid] = float(kernel_body(int(tid)))
    return work
