"""Cost model of the virtual SIMT device.

Every kernel launch reports its *work*: the number of elementary operations
(adjacency entries scanned plus a small constant) each logical thread
performs, as a :class:`SparseWork` (a constant per thread plus extras on
the threads that did more).  The model converts it into modelled seconds
with three ingredients:

``launch overhead``
    Fixed host-side cost per kernel launch.  This is what makes graphs with
    long augmenting paths GPU-hostile: the paper's worst instances
    (``hugetrace-00000``, ``italy_osm``) need thousands of launches with only
    a handful of active columns each.

``throughput term``
    Threads are grouped into warps (``warp_size`` consecutive thread ids).
    SIMT lock-step execution means every thread of a warp pays for the
    slowest thread of that warp (divergence).  The resulting warp work is
    spread over all scalar cores of the device.

``critical-path term``
    A kernel can never finish before its longest-running thread; with few
    resident threads the device is latency-bound, not throughput-bound.

``kernel_seconds = overhead + cycles_per_op × max(divergent_work / cores,
max_thread_work) / clock``.

Host↔device transfers are not modelled: the paper measures matching time
after the common greedy initialisation, with the graph already resident on
the device, so a run's modelled time is its kernel time alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelStats",
    "CostLedger",
    "GpuCostModel",
    "CpuCostModel",
    "MulticoreCostModel",
    "SparseWork",
]

#: :meth:`GpuCostModel.launch_seconds` prices a :class:`SparseWork` with at
#: most this many (thread, extra) pairs in a plain Python loop, and with
#: NumPy above it: the loop costs about 0.2 µs per pair, the NumPy form some
#: 20 µs up to a few hundred pairs; see "The per-launch host path" in
#: ``docs/benchmarks.md``.  Both forms give identical results.
SPARSE_LOOP_MAX_PAIRS = 64


class SparseWork:
    """The work of one launch.

    Each of ``n_threads`` threads performs ``base`` operations, and thread
    ``threads[i]`` performs ``extras[i]`` more.  ``threads`` and ``extras``
    are equally long sequences (lists or integer arrays) of non-negative
    integers; the thread indices are distinct and below ``n_threads``, in
    any order.  :meth:`dense` is the equivalent per-thread work vector;
    :class:`GpuCostModel` prices the launch in time proportional to the
    number of pairs instead of the number of threads.
    """

    __slots__ = ("n_threads", "base", "threads", "extras")

    def __init__(self, n_threads: int, base: int, threads=(), extras=()) -> None:
        self.n_threads = n_threads
        self.base = base
        self.threads = threads
        self.extras = extras

    def dense(self) -> np.ndarray:
        """The per-thread work vector this launch stands for."""
        work = np.full(self.n_threads, float(self.base))
        if len(self.threads):
            work[np.asarray(self.threads, dtype=np.int64)] += np.asarray(
                self.extras, dtype=np.float64
            )
        return work

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseWork(n_threads={self.n_threads}, base={self.base}, "
            f"pairs={len(self.threads)})"
        )


def _as_int(value, what: str) -> int:
    """``value`` as a Python int, or ``ValueError`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _as_count(value, what: str) -> int:
    """``value`` as a non-negative Python int, or ``ValueError``."""
    count = _as_int(value, what)
    if count < 0:
        raise ValueError(f"{what} must be non-negative, got {count}")
    return count


def _sparse_terms(work: SparseWork, warp_size: int) -> tuple[int, int, int, int, int]:
    """Validate ``work`` and return its exact integer terms.

    ``(n_threads, base, sum of extras, sum of per-warp maximum extras,
    largest extra)``.  A warp's maximum is ``base`` plus its largest extra
    (extras are non-negative), so these five integers determine every
    :class:`KernelStats` field without touching the untouched threads.
    """
    n, base, threads, extras = work.n_threads, work.base, work.threads, work.extras
    if type(n) is not int or type(base) is not int or n < 0 or base < 0:
        n = _as_count(n, "n_threads")
        base = _as_count(base, "base work")
    k = len(threads)
    if len(extras) != k:
        raise ValueError(f"{k} thread indices but {len(extras)} extras")
    if k == 0:
        return n, base, 0, 0, 0
    if k <= SPARSE_LOOP_MAX_PAIRS:
        if isinstance(threads, np.ndarray):
            threads = threads.tolist()
        if isinstance(extras, np.ndarray):
            extras = extras.tolist()
        total = sum(extras)
        if type(total) is not int or type(sum(threads)) is not int:
            # Only integers are work and thread indices; NumPy integer
            # scalars (read off the sanitizer's recording arrays) count.
            extras = [_as_int(e, "extra work") for e in extras]
            threads = [_as_int(t, "thread index") for t in threads]
            total = sum(extras)
        if min(extras) < 0:
            raise ValueError(f"extra work must be non-negative, got {min(extras)}")
        if any(map(operator.ge, threads, threads[1:])):
            threads, extras = zip(*sorted(zip(threads, extras)))
            if any(map(operator.ge, threads, threads[1:])):
                raise ValueError("duplicate thread index")
        if threads[0] < 0 or threads[-1] >= n:
            raise ValueError(f"thread index out of range for {n} threads")
        # Ascending threads: each warp's extras are one run.
        warp_extra = top = 0
        last_warp = -1
        for t, e in zip(threads, extras):
            w = t // warp_size
            if w != last_warp:
                warp_extra += top
                last_warp = w
                top = e
            elif e > top:
                top = e
        return n, base, total, warp_extra + top, max(extras)
    t = np.asarray(threads)
    e = np.asarray(extras)
    if t.ndim != 1 or e.ndim != 1 or t.dtype.kind not in "iu" or e.dtype.kind not in "iu":
        raise ValueError("thread indices and extra work must be 1-D integer sequences")
    if not np.less(t[:-1], t[1:]).all():
        order = np.argsort(t, kind="stable")
        t = t[order]
        e = e[order]
        if not np.less(t[:-1], t[1:]).all():
            raise ValueError("duplicate thread index")
    if t[0] < 0 or t[-1] >= n:
        raise ValueError(f"thread index out of range for {n} threads")
    low = int(e.min())
    if low < 0:
        raise ValueError(f"extra work must be non-negative, got {low}")
    total = int(e.sum())
    warps = t // warp_size
    shared = np.equal(warps[1:], warps[:-1])
    if not shared.any():
        return n, base, total, total, int(e.max())
    # Threads are ascending, so each warp's extras are one run; reduce the
    # runs at their first index.
    first = np.empty(k, dtype=bool)
    first[0] = True
    np.logical_not(shared, out=first[1:])
    warp_max = np.maximum.reduceat(e, first.nonzero()[0])
    return n, base, total, int(warp_max.sum()), int(warp_max.max())


@dataclass(frozen=True)
class KernelStats:
    """Accounting record of a single kernel launch."""

    name: str
    n_threads: int
    total_work: float
    divergent_work: float
    max_thread_work: float
    seconds: float


@dataclass
class CostLedger:
    """Accumulated modelled cost of a sequence of kernel launches."""

    launches: list[KernelStats] = field(default_factory=list)

    @property
    def kernel_seconds(self) -> float:
        """Total modelled kernel time."""
        return float(sum(k.seconds for k in self.launches))

    @property
    def n_launches(self) -> int:
        return len(self.launches)

    def by_kernel(self) -> dict[str, float]:
        """Modelled seconds aggregated per kernel name."""
        out: dict[str, float] = {}
        for k in self.launches:
            out[k.name] = out.get(k.name, 0.0) + k.seconds
        return out

    def counters(self) -> dict:
        """Flat counter dictionary for :class:`repro.matching.MatchingResult`.

        ``transfer_bytes`` is always ``0`` (transfers are not modelled); the
        key stays so the counter schema of GPU results does not change.
        """
        return {
            "kernel_launches": self.n_launches,
            "kernel_total_work": float(sum(k.total_work for k in self.launches)),
            "kernel_seconds": self.kernel_seconds,
            "transfer_bytes": 0,
            "per_kernel_seconds": self.by_kernel(),
        }


class GpuCostModel:
    """Converts the work of each launch into modelled GPU seconds."""

    def __init__(self, spec) -> None:
        self.spec = spec

    def launch_seconds(self, work: SparseWork) -> tuple[float, float, float, float]:
        """Model one launch.

        Warp divergence: every thread of a warp pays for the slowest one, so
        ``divergent_work`` is ``warp_size`` times the sum of the per-warp
        maxima (a short last warp is a warp of its own).  Every field is
        bit-identical to the padded ``reshape(-1, warp_size).max(axis=1)``
        formula over :meth:`SparseWork.dense` that ``tests/test_gpusim.py``
        keeps as its reference.

        ``work`` is validated (``ValueError`` on anything but a
        :class:`SparseWork`, on non-integer or negative work and on
        duplicate or out-of-range thread indices) and priced in closed form
        in O(pairs): a warp without extras has maximum ``base``.  Its terms
        are exact integers, so the floats do not depend on the order of the
        pairs.  :data:`SPARSE_LOOP_MAX_PAIRS` picks a Python loop or NumPy
        for the per-warp maxima of the extras.

        Returns
        -------
        (seconds, total_work, divergent_work, max_thread_work)
        """
        return self._price(work)[1:]

    def _price(self, work: SparseWork) -> tuple[int, float, float, float, float]:
        """``(n_threads, seconds, total, divergent, max_thread)`` of one launch."""
        if not isinstance(work, SparseWork):
            raise ValueError(f"work must be a SparseWork, got {type(work).__name__}")
        spec = self.spec
        ws = spec.warp_size
        n_threads, base, extra, warp_extra, top_extra = _sparse_terms(work, ws)
        if n_threads == 0:
            return 0, spec.kernel_launch_overhead_s, 0.0, 0.0, 0.0
        n_warps = -(-n_threads // ws)
        total = float(base * n_threads + extra)
        max_thread = float(base + top_extra)
        divergent = float((base * n_warps + warp_extra) * ws)
        cycles = spec.cycles_per_op * max(divergent / spec.total_cores, max_thread)
        seconds = spec.kernel_launch_overhead_s + cycles / (spec.clock_ghz * 1e9)
        return n_threads, seconds, total, divergent, max_thread

    def record(self, ledger: CostLedger, name: str, work: SparseWork) -> KernelStats:
        """Model a launch (see :meth:`launch_seconds`) and append it to ``ledger``.

        Nothing is appended when the launch is rejected.
        """
        n_threads, seconds, total, divergent, max_thread = self._price(work)
        stats = KernelStats(
            name=name,
            n_threads=n_threads,
            total_work=total,
            divergent_work=divergent,
            max_thread_work=max_thread,
            seconds=seconds,
        )
        ledger.launches.append(stats)
        return stats


@dataclass(frozen=True)
class CpuCostModel:
    """Single-core CPU model used for the sequential baselines (PR, HK, ...).

    Matches the paper's CPU: a 2.27 GHz Xeon core.  ``cycles_per_op`` bundles
    the average cost of one adjacency-scan step of a pointer-chasing graph
    algorithm (load, compare, branch, plus its share of cache misses).
    """

    clock_ghz: float = 2.27
    cycles_per_op: float = 7.0

    def seconds(self, total_ops: float) -> float:
        """Modelled seconds for ``total_ops`` elementary operations."""
        return float(total_ops) * self.cycles_per_op / (self.clock_ghz * 1e9)


@dataclass(frozen=True)
class MulticoreCostModel:
    """Model of the paper's 8-thread OpenMP machine for P-DBFS.

    Each BFS round costs the maximum of (i) the per-thread critical path and
    (ii) the round's total work divided over the threads, plus a
    synchronisation barrier.
    """

    n_threads: int = 8
    clock_ghz: float = 2.27
    cycles_per_op: float = 7.0
    barrier_overhead_s: float = 2e-6
    atomic_penalty_cycles: float = 20.0

    def round_seconds(self, total_ops: float, max_thread_ops: float, atomics: float = 0.0) -> float:
        """Modelled seconds for one parallel round."""
        cycles = self.cycles_per_op * max(total_ops / self.n_threads, max_thread_ops)
        cycles += self.atomic_penalty_cycles * atomics / self.n_threads
        return self.barrier_overhead_s + cycles / (self.clock_ghz * 1e9)
