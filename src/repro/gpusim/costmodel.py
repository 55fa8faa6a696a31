"""Cost model of the virtual SIMT device.

Every kernel launch reports a *work vector*: one entry per logical thread
giving the number of elementary operations (adjacency entries scanned plus a
small constant) that thread performs.  The model converts the vector into
modelled seconds with three ingredients:

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

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KernelStats", "CostLedger", "GpuCostModel", "CpuCostModel", "MulticoreCostModel"]

#: :meth:`GpuCostModel.launch_seconds` takes the per-warp maxima lane by lane
#: (one ``np.maximum`` over all warps per lane) once a launch has at least
#: this many warps per lane, and with ``np.maximum.reduceat`` at the warp
#: starts below that.  The lane-wise form costs ``warp_size`` NumPy calls,
#: ``reduceat`` a fixed step per warp, so the threshold is in warps per lane
#: (``warp_size²`` threads per unit).  Measured crossovers: 32–40 warps per
#: lane at ``warp_size`` 8 (2k–2.5k threads, the scaled reference device)
#: and 64–96 at ``warp_size`` 32, where strided lanes cost more per element;
#: see "The per-launch host path" in ``docs/benchmarks.md``.  Both forms give
#: identical results.
LANEWISE_MIN_WARPS_PER_LANE = 32


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
    """Converts per-launch work vectors into modelled GPU seconds."""

    def __init__(self, spec) -> None:
        self.spec = spec

    def launch_seconds(self, thread_work: np.ndarray) -> tuple[float, float, float, float]:
        """Model one launch.

        Warp divergence: every thread of a warp pays for the slowest one, so
        ``divergent_work`` is ``warp_size`` times the sum of the per-warp
        maxima (a short last warp is a warp of its own).  The maxima are
        built without a zero-padded copy and without a ``max(axis=1)``
        reduce, whose per-row NumPy overhead dominates along an axis only
        ``warp_size`` long; :data:`LANEWISE_MIN_WARPS_PER_LANE` picks one of
        two forms by launch width.  Every field is bit-identical to the
        padded ``reshape(-1, warp_size).max(axis=1)`` formula that
        ``tests/test_gpusim.py`` keeps as its reference, because the same
        per-warp maxima are summed once, as one vector in warp order.

        Parameters
        ----------
        thread_work:
            A one-dimensional ``float64`` array with one non-negative entry
            per logical thread: elementary operations performed.
            :meth:`VirtualGPU.charge_kernel <repro.gpusim.device.VirtualGPU.charge_kernel>`
            converts and checks the caller's vector once before it gets here.

        Returns
        -------
        (seconds, total_work, divergent_work, max_thread_work)
        """
        spec = self.spec
        n_threads = thread_work.size
        if n_threads == 0:
            return spec.kernel_launch_overhead_s, 0.0, 0.0, 0.0
        ws = spec.warp_size
        full, rest = divmod(n_threads, ws)
        if full >= LANEWISE_MIN_WARPS_PER_LANE * ws:
            warp_max = np.empty(full + (rest > 0))
            lanes = thread_work[: full * ws].reshape(full, ws)
            body = warp_max[:full]
            # First and last lane in one call, then the lanes in between
            # (for a warp of one, the "pair" is that lane twice).
            np.maximum(lanes[:, 0], lanes[:, -1], out=body)
            for lane in range(1, ws - 1):
                np.maximum(body, lanes[:, lane], out=body)
            if rest:
                warp_max[full] = thread_work[full * ws :].max()
        else:
            warp_max = np.maximum.reduceat(thread_work, np.arange(0, n_threads, ws))
        total = float(thread_work.sum())
        max_thread = float(warp_max.max())
        divergent = float(warp_max.sum() * ws)
        cycles = spec.cycles_per_op * max(divergent / spec.total_cores, max_thread)
        seconds = spec.kernel_launch_overhead_s + cycles / (spec.clock_ghz * 1e9)
        return seconds, total, divergent, max_thread

    def record(self, ledger: CostLedger, name: str, thread_work: np.ndarray) -> KernelStats:
        """Model a launch (see :meth:`launch_seconds`) and append it to ``ledger``."""
        seconds, total, divergent, max_thread = self.launch_seconds(thread_work)
        stats = KernelStats(
            name=name,
            n_threads=thread_work.size,
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
