"""Device description and the :class:`VirtualGPU` handle."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.gpusim.costmodel import CostLedger, GpuCostModel, SparseWork

__all__ = ["DeviceSpec", "VirtualGPU", "reference_device"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of the simulated device.

    The defaults describe the paper's NVIDIA Tesla C2050 (14 SMs × 32 CUDA
    cores at 1.15 GHz).  ``cycles_per_op`` is the modelled cost of one
    elementary kernel operation — an adjacency entry scanned by one thread,
    dominated by an uncoalesced global-memory access on this workload.

    Use :meth:`scaled` to derive a device matched to the scaled-down
    reproduction suite: the synthetic instances are two to four orders of
    magnitude smaller than the UFL originals, so the launch overhead and core
    count are reduced proportionally to keep the device-vs-instance balance
    of the original experiments.
    """

    name: str = "virtual-tesla-c2050"
    num_sms: int = 14
    cores_per_sm: int = 32
    warp_size: int = 32
    clock_ghz: float = 1.15
    kernel_launch_overhead_s: float = 6.0e-6
    cycles_per_op: float = 24.0

    @property
    def total_cores(self) -> int:
        """Total scalar cores (448 on the C2050)."""
        return self.num_sms * self.cores_per_sm

    def scaled(self, factor: float = 0.025) -> "DeviceSpec":
        """A device shrunk to match the scaled-down reproduction suite.

        The synthetic suite instances are two to four orders of magnitude
        smaller than the UFL matrices of the paper, while a real GPU's core
        count and launch overhead are fixed.  Running the full-size device
        against the tiny instances would make every graph launch-overhead
        bound and hide the effects the paper measures, so the reproduction
        device shrinks three quantities together:

        * **core count** (``448 → 448·factor``, floor 16) so the ratio of
          available threads to active columns — what decides whether the push
          kernels are throughput- or latency-bound — stays close to the
          original experiments;
        * **launch overhead** by the same factor, keeping the overhead-to-
          useful-work ratio of a launch roughly constant;
        * **cycles per operation** (reduced to 9) so the *aggregate*
          GPU-to-CPU throughput ratio lands near 25×, the regime in which the
          paper's observed speedups (0.3× – 12.6×) are produced by the
          work-ratio differences between graph families rather than by raw
          device speed.

        The warp width shrinks with the SM width so the divergence penalty
        keeps its relative weight.
        """
        if not 0 < factor <= 1:
            raise ValueError("scale factor must be in (0, 1]")
        total = max(16, int(round(self.total_cores * factor * 6)))
        cores_per_sm = 8
        num_sms = max(1, total // cores_per_sm)
        return replace(
            self,
            name=f"{self.name}-scaled",
            num_sms=num_sms,
            cores_per_sm=cores_per_sm,
            warp_size=8,
            cycles_per_op=9.0,
            kernel_launch_overhead_s=self.kernel_launch_overhead_s * factor,
        )


class VirtualGPU:
    """A handle owning the cost ledger of one algorithm run.

    Kernels work on plain host ndarrays and only their launches are charged
    (see :mod:`repro.gpusim.costmodel`).

    Parameters
    ----------
    spec:
        Device description; default is the scaled reference device,
        ``DeviceSpec().scaled()``, behind every published figure.
    shadow:
        Optional :class:`~repro.analysis.hazards.AccessLog`.  When set, the
        device hands out shadow-recording views (see :meth:`shadow_wrap`)
        and every :meth:`charge_kernel` closes a sanitizer segment, so the
        unmodified kernel code records its per-wave read/write sets for the
        race sanitizer.
    """

    def __init__(self, spec: DeviceSpec | None = None, shadow=None) -> None:
        self.spec = spec or DeviceSpec().scaled()
        self.model = GpuCostModel(self.spec)
        self.ledger = CostLedger()
        self.shadow = shadow

    # --------------------------------------------------------------- launches
    def charge_kernel(self, name: str, thread_work) -> None:
        """Account one kernel launch given its per-thread work.

        ``thread_work`` takes one of two forms:

        * a :class:`~repro.gpusim.costmodel.SparseWork` — a thread count, an
          integer base work per thread and (thread, extra) pairs.  This is
          what the kernels in :mod:`repro.core.kernels` and G-HKDW's BFS
          return, so a launch with few active threads costs host time in
          proportion to those threads, not to the launch width;
        * a dense one-dimensional array (or list) with one non-negative
          entry per logical thread, converted to ``float64`` once here.  The
          serialized reference engine, the G-HKDW augmentation kernels and
          the auction charge this form, and it may hold fractional work.

        Both forms are priced bit for bit alike (see
        :meth:`GpuCostModel.launch_seconds
        <repro.gpusim.costmodel.GpuCostModel.launch_seconds>`).  A malformed
        launch — a scalar or multi-dimensional dense array; sparse work that
        is not a non-negative integer; a duplicate or out-of-range thread
        index — raises ``ValueError`` naming the kernel, and nothing is
        charged.

        Under shadow mode the charge also closes the sanitizer segment: the
        repo convention is charge-after-access, so everything recorded since
        the previous charge is attributed to this kernel, and the launch
        boundary acts as a device-wide barrier.
        """
        if not isinstance(thread_work, SparseWork):
            thread_work = np.asarray(thread_work, dtype=np.float64)
            if thread_work.ndim != 1:
                raise ValueError(
                    f"kernel {name!r}: thread_work must be a 1-D vector with one entry "
                    f"per thread, got shape {thread_work.shape}"
                )
        try:
            self.model.record(self.ledger, name, thread_work)
        except ValueError as exc:
            raise ValueError(f"kernel {name!r}: {exc}") from None
        if self.shadow is not None:
            self.shadow.close_segment(name)

    # ------------------------------------------------------------ shadow mode
    def shadow_wrap(self, array: np.ndarray, name: str = "array") -> np.ndarray:
        """Register ``array`` with the sanitizer, if shadow mode is on.

        Returns a recording :class:`~repro.analysis.hazards.ShadowArray` view
        sharing the buffer; without shadow mode this is a no-op returning
        ``array`` itself.
        """
        if self.shadow is None:
            return array
        from repro.analysis.hazards import shadow_wrap

        return shadow_wrap(array, name, self.shadow)

    def shadow_sync(self) -> None:
        """Declare a host-side synchronisation point to the sanitizer.

        Call this where sequential host code between two charges rewrites
        device arrays (e.g. the auction ε-reset): the host is not a wave, so
        its writes must not be confused with intra-wave conflicts.
        """
        if self.shadow is not None:
            self.shadow.wave_barrier()

    # ------------------------------------------------------------------ misc
    @property
    def elapsed_seconds(self) -> float:
        """Modelled seconds accumulated so far."""
        return self.ledger.kernel_seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualGPU(spec={self.spec.name}, launches={self.ledger.n_launches})"


def reference_device() -> VirtualGPU:
    """A fresh :class:`VirtualGPU` on the reference device.

    This is the scaled Tesla C2050 of :meth:`DeviceSpec.scaled`, matched to
    the scaled-down synthetic suite; every published figure is modeled on it.
    """
    return VirtualGPU()
