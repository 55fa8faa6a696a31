"""Modeled-vs-measured calibration of the kernel cost models.

The repository's performance claims rest on two analytic cost models: the
:class:`~repro.gpusim.costmodel.GpuCostModel` converting per-thread work
vectors into modelled device seconds, and the
:class:`~repro.gpusim.costmodel.CpuCostModel` pricing the sequential
adjacency scans of the CPU baselines.  Both are *relative* models — the
paper's figures are ratios — but once the compiled tier exists the measured
wall time of each kernel becomes cheap enough to compare against the model
directly.  This module does that comparison:

* every device kernel of a G-PR / G-HKDW run is timed by a
  :class:`~repro.gpusim.device.VirtualGPU` subclass (:class:`_TimingGPU`):
  the wall time between two consecutive ``charge_kernel`` calls is
  attributed to the launch being charged, matching the repo's
  charge-after-access convention;
* the two vectorized frontier primitives the CPU baselines run
  (``alternating_level_bfs``, ``distance_label_bfs``) are timed directly
  on per-instance prepared state, against a
  :class:`~repro.gpusim.costmodel.CpuCostModel` prediction for the
  operations they report;
* per kernel, a least-squares constant through the origin is fitted over
  the per-instance ``(modeled, measured)`` points —
  ``c_k = Σ(m·w) / Σ(m²)`` — with an ``r²`` and an RMS ``log10`` residual,
  and the kernels whose fitted constant is farthest from the geometric
  centre of all constants are ranked as *most divergent*.

The fitted constant is a tier property (interpreter vs JIT), so the report
records which tier produced it (``tier: "compiled" | "numpy"``); the module
runs unchanged on a numpy-only install — the numbers are then interpreter
measurements, honestly labelled.

The divergence ranking is relative on purpose: wall time measures a Python
process while the models price the paper's hardware, so the absolute scale
of ``c_k`` is meaningless — but a kernel whose constant sits far from the
others is one the model prices *differently* from how this machine runs it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.compiled import dispatch
from repro.gpusim.device import VirtualGPU

__all__ = ["CALIBRATION_SCHEMA", "CALIBRATION_PROFILES", "calibrate", "default_instances"]

CALIBRATION_SCHEMA = "repro-calibration/1"

#: Size knobs of the built-in instance packs (one graph per generator family).
CALIBRATION_PROFILES = {
    "tiny": {"n": 96, "scale": 6, "edge_factor": 6.0, "grid": 10},
    "small": {"n": 320, "scale": 8, "edge_factor": 8.0, "grid": 20},
    "medium": {"n": 900, "scale": 10, "edge_factor": 8.0, "grid": 36},
}


def default_instances(profile: str = "small", seed: int = 20130421) -> list:
    """The calibration instance pack: one graph per generator family.

    Four families with distinct degree structure (uniform, scale-free RMAT,
    power-law Chung–Lu, bounded-degree mesh) so a fitted constant is pinned
    by points with different work-vector shapes, not one family's regime.
    """
    from repro.generators import (
        chung_lu_bipartite,
        grid_graph,
        rmat_bipartite,
        uniform_random_bipartite,
    )

    try:
        knobs = CALIBRATION_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown calibration profile {profile!r}; "
            f"available: {', '.join(sorted(CALIBRATION_PROFILES))}"
        ) from None
    n = knobs["n"]
    return [
        uniform_random_bipartite(n, n, avg_degree=6.0, seed=seed, name="cal-uniform"),
        rmat_bipartite(knobs["scale"], edge_factor=knobs["edge_factor"], seed=seed, name="cal-rmat"),
        chung_lu_bipartite(n, n, avg_degree=6.0, seed=seed, name="cal-chung-lu"),
        grid_graph(knobs["grid"], knobs["grid"], name="cal-grid"),
    ]


class _TimingGPU(VirtualGPU):
    """A :class:`~repro.gpusim.device.VirtualGPU` that wall-times its launches.

    The repo convention is charge-after-access: everything a driver does
    since the previous charge belongs to the launch being charged.  The
    subclass applies the same attribution to wall time — the interval
    between two consecutive charges is the measured cost of producing that
    launch (kernel work plus its share of driver overhead), paired with the
    launch's modelled seconds straight off the ledger.
    """

    def __init__(self) -> None:
        super().__init__()
        #: kernel name -> [modeled_seconds, measured_seconds]
        self.samples: dict[str, list[float]] = {}
        self._mark = time.perf_counter()

    def charge_kernel(self, name: str, thread_work) -> None:
        interval = time.perf_counter() - self._mark
        super().charge_kernel(name, thread_work)
        rec = self.samples.setdefault(name, [0.0, 0.0])
        rec[0] += self.ledger.launches[-1].seconds
        rec[1] += interval
        self._mark = time.perf_counter()


def _measure_device_kernels(graph, repeats: int) -> dict[str, tuple[float, float]]:
    """Per-kernel (modeled, measured) seconds of G-PR and G-HKDW runs.

    Wall samples keep the minimum over ``repeats`` runs per kernel (modeled
    seconds are deterministic and identical across repeats).
    """
    from repro.core.ghkdw import ghkdw_matching
    from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching

    solves = (
        lambda gpu: gpr_matching(graph, config=GPRConfig(variant=GPRVariant.FIRST), device=gpu),
        lambda gpu: gpr_matching(graph, config=GPRConfig(variant=GPRVariant.SHRINK), device=gpu),
        lambda gpu: ghkdw_matching(graph, device=gpu),
    )
    best: dict[str, tuple[float, float]] = {}
    for _ in range(repeats):
        run: dict[str, list[float]] = {}
        for solve in solves:
            gpu = _TimingGPU()
            solve(gpu)
            for name, (modeled, measured) in gpu.samples.items():
                rec = run.setdefault(name, [0.0, 0.0])
                rec[0] += modeled
                rec[1] += measured
        for name, (modeled, measured) in run.items():
            prev = best.get(name)
            best[name] = (modeled, measured if prev is None else min(prev[1], measured))
    return best


def _measure_frontier_primitives(graph, repeats: int) -> dict[str, tuple[float, float]]:
    """Per-primitive (modeled, measured) seconds on prepared per-instance state.

    The modelled side prices each primitive's reported elementary operations
    (scanned adjacency entries plus one per touched output slot) with the
    sequential :class:`~repro.gpusim.costmodel.CpuCostModel` — the same
    pricing the CPU baselines charge for the equivalent loops.
    """
    from repro.graph.frontier import alternating_level_bfs, distance_label_bfs
    from repro.gpusim.costmodel import CpuCostModel
    from repro.seq.greedy import cheap_matching

    model = CpuCostModel()
    matching = cheap_matching(graph).matching
    row_match = matching.row_match
    col_match = matching.col_match
    infinity = graph.infinity_label

    out: dict[str, tuple[float, float]] = {}

    def timed(name: str, ops_of, call, setup=lambda: ()) -> None:
        wall = math.inf
        ops = 0.0
        for _ in range(repeats):
            state = setup()
            t0 = time.perf_counter()
            result = call(*state)
            wall = min(wall, time.perf_counter() - t0)
            ops = ops_of(result)
        out[name] = (model.seconds(ops), wall)

    timed(
        "alternating_level_bfs",
        lambda res: float(res[2] + graph.n_cols),
        lambda: alternating_level_bfs(graph.col_ptr, graph.col_ind, row_match, col_match),
    )
    timed(
        "distance_label_bfs",
        lambda res: float(res[1] + graph.n_rows + graph.n_cols),
        lambda psi_row, psi_col: distance_label_bfs(
            graph.row_ptr, graph.row_ind, row_match, col_match, psi_row, psi_col, infinity
        ),
        setup=lambda: (
            np.full(graph.n_rows, infinity, dtype=np.int64),
            np.full(graph.n_cols, infinity, dtype=np.int64),
        ),
    )
    return out


def _fit(points: list[tuple[float, float]]) -> dict:
    """Through-origin least squares of measured against modelled seconds."""
    usable = [(m, w) for m, w in points if m > 0.0 and w > 0.0]
    if not usable:
        return {"constant": None, "r2": None, "rms_log10_residual": None}
    num = sum(m * w for m, w in usable)
    den = sum(m * m for m, w in usable)
    constant = num / den
    mean_w = sum(w for _, w in usable) / len(usable)
    ss_res = sum((w - constant * m) ** 2 for m, w in usable)
    ss_tot = sum((w - mean_w) ** 2 for _, w in usable)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    rms = math.sqrt(
        sum(math.log10(w / (constant * m)) ** 2 for m, w in usable) / len(usable)
    )
    return {"constant": constant, "r2": r2, "rms_log10_residual": rms}


def calibrate(
    instances: list | None = None,
    profile: str = "small",
    seed: int = 20130421,
    repeats: int = 3,
    top: int = 5,
) -> dict:
    """Fit measured per-kernel wall time against the cost-model predictions.

    Parameters
    ----------
    instances:
        Graphs to calibrate over; the :func:`default_instances` pack of
        ``profile`` when omitted.
    profile / seed:
        Size profile and generation seed of the default pack.
    repeats:
        Wall measurements keep the minimum over this many timed runs.
    top:
        How many kernels the ``most_divergent`` ranking lists.

    Returns
    -------
    dict
        A ``repro-calibration/1`` document (see ``docs/benchmarks.md``).

    Raises
    ------
    ValueError
        On a non-positive ``repeats`` or an unknown ``profile``.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    used_profile = profile if instances is None else None
    if instances is None:
        instances = default_instances(profile=profile, seed=seed)

    # Pay every one-time cost (JIT compilation with numba, interpreter
    # caches without) before the first timed interval.
    dispatch.warm_up()
    if instances:
        _measure_device_kernels(instances[0], repeats=1)
        _measure_frontier_primitives(instances[0], repeats=1)

    points: dict[str, list[tuple[float, float]]] = {}
    families: dict[str, str] = {}
    per_instance: dict[str, dict[str, dict[str, float]]] = {}
    for graph in instances:
        inst: dict[str, dict[str, float]] = {}
        for family, samples in (
            ("device", _measure_device_kernels(graph, repeats)),
            ("frontier", _measure_frontier_primitives(graph, repeats)),
        ):
            for name, (modeled, measured) in samples.items():
                families[name] = family
                points.setdefault(name, []).append((modeled, measured))
                inst[name] = {"modeled_seconds": modeled, "measured_seconds": measured}
        per_instance[graph.name] = inst

    kernels: dict[str, dict] = {}
    for name in sorted(points):
        pts = points[name]
        fit = _fit(pts)
        kernels[name] = {
            "family": families[name],
            "points": len(pts),
            "modeled_seconds": sum(m for m, _ in pts),
            "measured_seconds": sum(w for _, w in pts),
            **fit,
        }

    # Rank divergence against the geometric centre of the fitted constants:
    # the absolute scale is machine- and tier-dependent, an outlying kernel
    # is the signal.
    fitted = {n: k["constant"] for n, k in kernels.items() if k["constant"]}
    if fitted:
        centre = sum(math.log10(c) for c in fitted.values()) / len(fitted)
        divergence = {n: abs(math.log10(c) - centre) for n, c in fitted.items()}
        ranked = sorted(divergence, key=lambda n: (-divergence[n], n))[:top]
        for name in fitted:
            kernels[name]["divergence_log10"] = divergence[name]
    else:
        ranked = []

    return {
        "schema": CALIBRATION_SCHEMA,
        "tier": "compiled" if dispatch.enabled() else "numpy",
        "numba": {
            "available": dispatch.NUMBA_AVAILABLE,
            "version": dispatch.NUMBA_VERSION,
        },
        "profile": used_profile,
        "seed": seed,
        "repeats": repeats,
        "instances": sorted(per_instance),
        "kernels": kernels,
        "per_instance": per_instance,
        "most_divergent": ranked,
    }
