"""GPU global relabeling driver (Algorithm 4, ``G-GR``)."""

from __future__ import annotations

import numpy as np

from repro.core.kernels import global_relabel_kernel, init_relabel_kernel
from repro.graph.bipartite import BipartiteGraph
from repro.gpusim.device import VirtualGPU

__all__ = ["gpu_global_relabel"]


def gpu_global_relabel(
    graph: BipartiteGraph,
    mu_row: np.ndarray,
    mu_col: np.ndarray,
    psi_row: np.ndarray,
    psi_col: np.ndarray,
    gpu: VirtualGPU,
) -> int:
    """Run the full GPU global relabeling and return ``maxLevel``.

    ``INITRELABEL`` sets unmatched rows to 0 and everything else to
    ``m + n``; then one ``G-GR-KRNL`` launch per BFS level propagates exact
    alternating-path distances from the unmatched rows, each level starting
    from the rows the previous one labelled.  Every launch is charged to
    ``gpu``'s ledger, including the last, which labels nothing.  Vertices
    the BFS never reaches keep the ``m + n`` label and are thereby removed
    from further consideration.
    """
    frontier, work = init_relabel_kernel(graph, mu_row, psi_row, psi_col)
    gpu.charge_kernel("init-relabel", work)

    c_level = 0
    while True:
        frontier, work = global_relabel_kernel(
            graph, mu_row, mu_col, psi_row, psi_col, c_level, frontier
        )
        gpu.charge_kernel("g-gr-krnl", work)
        c_level += 2
        if not len(frontier):
            return c_level
