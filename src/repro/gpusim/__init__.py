"""Virtual SIMT device — the substitute for the paper's NVIDIA Tesla C2050.

The original system runs CUDA kernels on a physical GPU.  Nothing in the
paper's algorithmic contribution depends on real hardware: what matters is

1. the *data-parallel execution semantics* — many logical threads execute the
   same kernel body, reads may observe stale values written by other threads
   of the same launch, conflicting writes are resolved arbitrarily (lock- and
   atomic-free), and the algorithm must tolerate any such interleaving; and
2. the *cost structure* — a fixed kernel-launch overhead, massive throughput
   when many threads are resident, and serialisation when a kernel has only a
   handful of threads or a single very long-running thread (divergence).

This package provides both:

* :class:`~repro.gpusim.device.DeviceSpec` /
  :class:`~repro.gpusim.device.VirtualGPU` — the device description (SM
  count, cores, clock, launch overhead) and a handle that owns the cost
  ledger of one run;
* :mod:`~repro.gpusim.kernel` — the two execution engines: ``lockstep``
  (vectorised: all reads see the launch-time snapshot, conflicting writes are
  resolved last-writer-wins) and ``serialized`` (a per-thread reference
  interpreter that executes threads one at a time on live data, optionally in
  a permuted order).  Both are legal interleavings of a lock-free CUDA
  launch; the test-suite checks the algorithms produce maximum matchings
  under either engine.
* :mod:`~repro.gpusim.costmodel` — converts the per-thread work of each
  launch, a :class:`~repro.gpusim.costmodel.SparseWork`, into modelled
  seconds.
"""

from repro.gpusim.costmodel import CostLedger, GpuCostModel, KernelStats, SparseWork
from repro.gpusim.device import DeviceSpec, VirtualGPU
from repro.gpusim.kernel import launch_serialized

__all__ = [
    "DeviceSpec",
    "VirtualGPU",
    "GpuCostModel",
    "CostLedger",
    "KernelStats",
    "SparseWork",
    "launch_serialized",
]
